"""Time ``import midisync.cli`` in this fresh interpreter.

Run with ``src`` on ``PYTHONPATH``.  Prints the import time in reference
seconds (see :mod:`hostprobe`) and in measured seconds.
"""

import time

from hostprobe import HostProbe  # this script's directory is first on sys.path

with HostProbe() as probe:
    start = time.perf_counter()
    import midisync.cli  # noqa: E402,F401
    elapsed = time.perf_counter() - start
print(elapsed * probe.scale(), elapsed)
