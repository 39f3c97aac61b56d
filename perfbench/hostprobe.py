"""Host-speed probe: turns measured seconds into reference seconds.

The host is shared with other machines' work, and its speed drifts by
tens of percent over seconds to minutes, largely alike for all code.
While a :class:`HostProbe` is entered, a timer signal times a fixed loop
of 400 dict and integer operations every 10 ms.  :meth:`HostProbe.scale`
gives ``PROBE_REF_S`` over the median probe time of a stretch of
samples; measured seconds times that factor are reference seconds.  A
slower host slows the probe too and mostly cancels.  Whether a change of
the program moves reference seconds as it moves wall time, and is not
cancelled by a change of the probe's own speed, is what
``calibrate.py`` checks.

The module imports only ``signal`` and ``time``, so a fresh interpreter
can use it around ``import midisync.cli`` without importing anything
that import would otherwise pay for.
"""

import signal
import time

PROBE_DATA = tuple((i * 7919) % 1021 for i in range(400))
PROBE_INTERVAL_S = 0.01
#: Sets the scale of reference seconds: close to one probe's time on the
#: 2-CPU host the baseline was measured on.
PROBE_REF_S = 50e-6


class HostProbe:
    """Samples the probe loop's time while entered (main thread only)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        acc, table = 0, {}
        for x in PROBE_DATA:
            acc += x
            table[x & 63] = acc
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        for _ in range(5):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.sample()

    def scale(self, first: int = 0, end: int | None = None) -> float:
        """Reference over measured speed, from samples ``first:end``.

        Uses every sample when the range holds fewer than five.
        """
        window = self.samples[first:end]
        ordered = sorted(window if len(window) >= 5 else self.samples)
        mid = len(ordered) // 2
        median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        return PROBE_REF_S / median
