#!/usr/bin/env python3
"""midisync pipeline benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload prepare_long --seed 1 --seconds 15 --trace 0

The run builds the workload's inputs from ``--seed``, makes one
untimed first pass (warm-up; its outputs get the full check), then
repeats timed passes for ``--seconds`` seconds, calling
``midisync.cli.main(argv)`` in this process, one call at a time (a
closed loop with a single caller).  Every timed pass must reproduce the
first pass's outputs byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer split (self time
and calls per pass, plus counts) and the tracing overhead (traced minus
untraced pass time, in reference seconds, per pair of neighbouring
passes); its spans are written to ``.perfbench-traces/`` at the end.

Human-readable lines come first; the last line of standard output is
the JSON result.  The exit code is 1 when any output check fails and 2
when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("prepare_long", "prepare_corpus", "generate_clips", "codec_roundtrip")
SETUP_SPAWNS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import ``midisync.cli`` from this checkout's ``src/``, or exit 2."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import midisync.cli as cli
    except ImportError as exc:
        print(f"error: cannot import midisync from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: midisync imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def setup_seconds() -> list[tuple[float, float]]:
    """Import time of ``midisync.cli`` in fresh interpreters (one warm-up).

    One (reference, measured) pair of seconds per interpreter.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for i in range(SETUP_SPAWNS + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "import_time.py")], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            reference, measured = map(float, proc.stdout.split())
            out.append((reference, measured))
    return out


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten values beyond it, or None.

    Omitted when that percentile would not lie above the median.
    """
    n = len(values)
    k = n - 10
    if k <= n / 2:
        return None
    return math.floor(100 * k / n), sorted(values)[k - 1]


@dataclass
class Pass:
    """One pass: measured seconds, and the factor to reference seconds."""

    traced: bool
    wall: float = 0.0
    items: list[float] = field(default_factory=list)
    rcs: list[int] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # one per item; empty: all 1

    def scaled_items(self) -> list[float]:
        return [t * k for t, k in zip(self.items, self.scales or [1.0] * len(self.items))]

    def reference(self) -> float:
        """The pass's time in reference seconds."""
        return sum(self.scaled_items())


class Runner:
    """Runs passes of one plan and keeps what the report needs."""

    def __init__(self, cli, plan, workloads):
        self.cli, self.plan, self.wl = cli, plan, workloads
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference_sha = None

    def invoke(self, argv: list[str]) -> int:
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed call, reported below
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = 1
        if rc:
            print(f"  call {argv[0]} exited {rc}: {err.getvalue().strip()[:300]}",
                  file=sys.stderr)
        return rc

    def one_pass(self, invoke=None, probe=None) -> Pass:
        """Run every call of the plan once, into a fresh ``out/``."""
        out = self.wl.OUT
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        gc.collect()
        result = Pass(traced=invoke is not None)
        invoke = invoke or self.invoke
        marks = []
        with probe or contextlib.nullcontext():
            start = time.perf_counter()
            for argv in self.plan.items:
                first_sample = len(probe.samples) if probe else 0
                t = time.perf_counter()
                result.rcs.append(invoke(argv))
                result.items.append(time.perf_counter() - t)
                marks.append((first_sample, len(probe.samples) if probe else 0))
            result.wall = time.perf_counter() - start
        if probe is not None:
            result.scales = [probe.scale(*m) for m in marks]
        return result

    def verify(self, rcs: list[int], full: bool):
        """Check the pass in ``out/``; timed passes must match the first."""
        result = self.plan.check(rcs, full)
        if self.wl.tree_sha256(self.wl.OUT) != self.reference_sha:
            result.problems.append("outputs differ from the first pass")
        self.attempted += self.plan.operations
        self.failed += result.failed
        self.problems += result.problems
        return result


def timed_passes(runner, seconds, invoke_for, min_passes, probe) -> list[Pass]:
    """Passes until ``seconds`` of measured time; invoke_for(i) picks the caller."""
    passes: list[Pass] = []
    while sum(p.wall for p in passes) < seconds or len(passes) < min_passes:
        one = runner.one_pass(invoke_for(len(passes)), probe)
        runner.verify(one.rcs, full=False)
        passes.append(one)
    return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    from perfbench import tracer as tr
    from perfbench import workloads as wl
    from perfbench.hostprobe import HostProbe

    setup = setup_seconds() if not args.trace else []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        wl.IN.mkdir()
        plan = wl.BUILDERS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
        runner = Runner(cli, plan, wl)

        # First pass: warm-up; its outputs are set aside and fully checked
        # last, so the checks add nothing to the measured peak memory.
        first_rcs = runner.one_pass().rcs
        runner.reference_sha = wl.tree_sha256(wl.OUT)
        os.rename(wl.OUT, "first")

        tracer = tr.Tracer()

        def traced(argv):
            return tracer.call(f"cli.{argv[0]}", runner.invoke, argv)

        def invoke_for(i):
            """With --trace 1, odd passes run traced and even passes untraced."""
            if args.trace and i % 2:
                tracer.install()
                return traced
            tracer.restore()
            return None

        try:
            passes = timed_passes(runner, args.seconds, invoke_for, 1 + args.trace, HostProbe())
        finally:
            tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        shutil.rmtree(wl.OUT)
        os.rename("first", wl.OUT)
        first = runner.verify(first_rcs, full=True)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    properties = dict(plan.properties, tokens=first.tokens)
    properties.setdefault("boundaries", first.quality.get("boundaries", 0))
    correct = not runner.problems and runner.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}")
    print("inputs  " + "  ".join(f"{k}={v:g}" for k, v in properties.items()))
    print(f"outputs sha256 {runner.reference_sha}")
    for p in runner.problems[:20]:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        metrics = per_layer_metrics(tr, tracer, passes)
        print_layers(metrics, passes)
        write_spans(tracer, args)
    else:
        metrics = end_to_end_metrics(setup, passes, first.tokens, peak_rss_mb)
        print_end_to_end(metrics, setup, passes, runner, first.quality)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def end_to_end_metrics(setup, passes, tokens, peak_rss_mb):
    """Timings in reference seconds (see :class:`HostProbe`)."""
    wall = statistics.median(p.reference() for p in passes)
    item = statistics.median(t for p in passes for t in p.scaled_items())
    return {
        "setup_s": {"value": statistics.median(r for r, _ in setup), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "tokens_per_s": {"value": tokens / wall, "unit": "1/s"},
        "item_ms_p50": {"value": 1000 * item, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def print_end_to_end(metrics, setup, passes, runner, quality):
    for name, m in metrics.items():
        print(f"  {name:<17} {m['value']:>12.4f} {m['unit']}")
    print(f"  {'measured setup_s':<17} {statistics.median(m for _, m in setup):>12.4f} s")
    item_ms = [1000 * t for p in passes for t in p.scaled_items()]
    t = tail(item_ms)
    print(f"  {'item_ms_tail':<17} " + (
        f"{t[1]:>12.4f} ms  (p{t[0]} of {len(item_ms)} calls)" if t
        else f"{'omitted':>12}  ({len(item_ms)} calls, too few)"))
    print(f"  {'error_rate':<17} {runner.failed / runner.attempted:>12.4f}  "
          f"({runner.failed} of {runner.attempted} operations)")
    for key in ("boundary_hit_rate", "align_err_ms_p50"):
        if key in quality:
            print(f"  {key:<17} {quality[key]:>12.4f}")
    print(f"  {'measured wall_s':<17} {statistics.median(p.wall for p in passes):>12.4f} s  "
          f"(reference over measured, per pass: "
          f"{' '.join(f'{p.reference() / sum(p.items):.2f}' for p in passes)})")


def per_layer_metrics(tr, tracer, passes):
    """Self seconds and calls per traced pass for every layer, plus counts."""
    n = sum(p.traced for p in passes)
    totals = tr.layer_totals(tracer.spans)
    metrics = {}
    for name in [f"cli.{c}" for c in tr.COMMANDS] + [layer.name for layer in tr.LAYERS]:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = {"value": self_s / n, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / n, "unit": "count"}
    for key in tr.COUNTS:
        metrics[key] = {"value": tracer.counts.get(key, 0.0) / n, "unit": "count"}
    cuts = tracer.counts.get("scenes.cuts", 0.0)
    metrics["scenes.filter_boundaries.kept_ratio"] = {
        "value": tracer.counts.get("scenes.kept", 0.0) / cuts if cuts else 0.0, "unit": "ratio"}
    metrics["tracing.overhead_s"] = {"value": tracing_overhead(passes), "unit": "s"}
    metrics["tracing.absent_layers"] = {"value": len(tracer.absent), "unit": "count"}
    return metrics


def tracing_overhead(passes: list[Pass]) -> float:
    """Median over neighbouring (untraced, traced) pairs of the traced
    pass's reference seconds minus the untraced one's.

    Pairing the neighbours keeps slow drifts of the host out of the
    difference; near zero it can come out slightly negative.
    """
    return statistics.median(
        t.reference() - u.reference() for u, t in zip(passes[0::2], passes[1::2])
    )


def print_layers(metrics, passes):
    traced = statistics.median(p.wall for p in passes if p.traced)
    rows = sorted(
        ((k[: -len(".self_s")], m["value"]) for k, m in metrics.items() if k.endswith(".self_s")),
        key=lambda r: -r[1],
    )
    print(f"  per traced pass ({sum(p.traced for p in passes)} traced, wall {traced:.4f} s):")
    print(f"  {'layer':<34} {'self_s':>10} {'share':>7} {'calls':>10}")
    for name, self_s in rows:
        calls = metrics[f"{name}.calls"]["value"]
        print(f"  {name:<34} {self_s:>10.4f} {self_s / traced:>7.1%} {calls:>10.1f}")
    for key, m in metrics.items():
        if not key.endswith((".self_s", ".calls")):
            print(f"  {key:<38} {m['value']:>12.4f} {m['unit']}")


def write_spans(tracer, args):
    out_dir = ROOT / ".perfbench-traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    if tracer.absent:
        print(f"  absent layers: {', '.join(tracer.absent)}")
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
