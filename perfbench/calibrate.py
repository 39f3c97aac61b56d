#!/usr/bin/env python3
"""Check that reference seconds follow a change of the program.

Usage, from the root of a checkout::

    python3 perfbench/calibrate.py

The bounded timings are reference seconds: measured seconds times a
factor from a probe that runs in the program's own process (see
:mod:`hostprobe`).  Were the probe itself slowed or sped up by a change
of the program, that change would be partly cancelled.  Each case here
makes a known change of the program, running one layer twice per call,
and times neighbouring passes of the plain and the changed program
(seed 1), both with the probe on.  It prints, per case, the median over
the pairs of how much the change grows the measured and the reference
pass time; on a host that keeps its speed over one pair the two agree.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import Runner, import_program  # noqa: E402

#: (workload, layer run twice per call): a layer that is a large share
#: of each workload's time.
CASES = (
    ("prepare_long", "chords.insert_chord_tokens"),
    ("generate_clips", "generator.grammar_mask"),
    ("codec_roundtrip", "tokens.parse_tokens"),
)
PAIRS = 10


def twice(fn):
    def doubled(*args, **kwargs):
        fn(*args, **kwargs)
        return fn(*args, **kwargs)

    return doubled


def growths(cli, workload: str, layer_name: str) -> tuple[list[float], list[float]]:
    """Per pair: changed over plain pass time, measured and in reference seconds."""
    from perfbench import tracer, workloads as wl
    from perfbench.hostprobe import HostProbe

    layer = next(layer for layer in tracer.LAYERS if layer.name == layer_name)
    owner, attr = tracer._resolve(layer.target)
    original = getattr(owner, attr)
    wl.IN.mkdir()
    runner = Runner(cli, wl.BUILDERS[workload](random.Random(f"{workload}:1")), wl)
    runner.one_pass()
    measured, reference = [], []
    for _ in range(PAIRS):
        plain = runner.one_pass(probe=HostProbe())
        setattr(owner, attr, twice(original))
        try:
            changed = runner.one_pass(probe=HostProbe())
        finally:
            setattr(owner, attr, original)
        if any(plain.rcs + changed.rcs):
            sys.exit(f"{workload}: a call failed")
        measured.append(changed.wall / plain.wall - 1)
        reference.append(changed.reference() / plain.reference() - 1)
    return measured, reference


def main() -> int:
    cli = import_program()
    print(f"{'workload':<16} {'layer run twice':<28} {'measured':>9} {'reference':>9}")
    for workload, layer_name in CASES:
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            measured, reference = growths(cli, workload, layer_name)
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload:<16} {layer_name:<28} {statistics.median(measured):>+9.1%} "
              f"{statistics.median(reference):>+9.1%}")
        print("  per pair, measured  " + " ".join(f"{g:+.1%}" for g in measured))
        print("  per pair, reference " + " ".join(f"{g:+.1%}" for g in reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
