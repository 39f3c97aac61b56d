"""Tests of the benchmark's own parts: inputs, checks, accounting, tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import io
import contextlib
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from midisync import cli, generator
from midisync.midi_codec import parse_midi
from perfbench import hostprobe, inputs, run, tracer, workloads
from perfbench.tracer import Layer, Span, Tracer, layer_totals, self_times

ROOT = Path(__file__).resolve().parents[2]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_inputs_are_deterministic_per_seed(name, tmp_path, monkeypatch):
    def build(directory: Path, seed: int):
        directory.mkdir()
        monkeypatch.chdir(directory)
        workloads.IN.mkdir()
        plan = workloads.BUILDERS[name](random.Random(f"{name}:{seed}"))
        return plan.items, plan.properties, workloads.tree_sha256(workloads.IN)

    first = build(tmp_path / "a", 7)
    assert build(tmp_path / "b", 7) == first
    assert build(tmp_path / "c", 8)[2] != first[2]


def test_song_holds_the_chords_it_reports():
    song = inputs.build_song(random.Random(3), "s.mid", 40.0, 120.0, inputs.Instrument.GUITAR)
    score = parse_midi(song.smf)
    assert len(score.notes) == song.notes
    from midisync.chords import detect_chords

    assert len(detect_chords(score)) == song.chords > 0
    assert score.instruments_used() == {
        inputs.Instrument.GUITAR, inputs.Instrument.STRINGS,
        inputs.Instrument.BASS, inputs.Instrument.DRUMS,
    }


@pytest.mark.parametrize("kind", inputs.CORRUPTIONS)
def test_corrupt_files_are_rejected(kind):
    rng = random.Random(kind)
    smf = inputs.build_song(rng, "s.mid", 20.0, 100.0, inputs.Instrument.PIANO).smf
    with pytest.raises(ValueError):
        parse_midi(inputs.corrupt_smf(rng, smf, kind))


def test_fixed_sizes_do_not_depend_on_seed():
    sizes = [
        sorted(s.seconds for s in inputs.build_songs(random.Random(seed), "x",
                                                     inputs.spread(30, 90, 7), (120.0,)))
        for seed in (1, 2)
    ]
    assert sizes[0] == sizes[1] == inputs.spread(30, 90, 7)


# ---------------------------------------------------------------------------
# alignment error
# ---------------------------------------------------------------------------

LINES = [
    "START", "TIMESHIFT_1000", "CHORD", "PIANO_ON_60",   # chord at 1000
    "TIMESHIFT_1000", "TIMESHIFT_800", "CHORD",           # chord at 2800
    "PIANO_ON_64", "TIMESHIFT_400", "CHORD",              # chord at 3200
]


def test_alignment_error_uses_first_chord_inside_the_window():
    # 2000: chords at 1000 (edge, not strictly inside) and 2800 -> 800
    # 3100: first chord inside (2100, 4100) is the one at 2800 -> 300
    assert workloads.alignment_errors_ms(LINES, [2000, 3100], 1000) == [800, 300]


def test_alignment_error_median_and_missing_chord():
    errors = workloads.alignment_errors_ms(LINES, [1100, 1000, 3000], 1000)
    assert errors == [100, 0, 200]
    with pytest.raises(ValueError):
        workloads.alignment_errors_ms(LINES, [5000], 1000)


def test_min_gap_filter_matches_the_program(tmp_path):
    rng = random.Random(5)
    log, cuts = inputs.scene_log(rng, 120.0)
    from midisync.scenes import filter_boundaries, parse_scene_log

    expected = filter_boundaries(parse_scene_log(log), 4.0).times_ms
    assert tuple(workloads.min_gap_filter(cuts, 4.0)) == expected


# ---------------------------------------------------------------------------
# error accounting and output checks
# ---------------------------------------------------------------------------


def _small_prepare(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.IN.mkdir()
    rng = random.Random(11)
    songs = inputs.build_songs(rng, "s", [12.0, 16.0], (120.0,))
    (workloads.IN / "bad.mid").write_bytes(inputs.corrupt_smf(rng, songs[0].smf, "bad_magic"))
    plan = workloads._prepare_plan(rng, songs, ["bad.mid"], augment=1, fold_sample=None)
    workloads.OUT.mkdir()
    rcs = [quiet_main(argv) for argv in plan.items]
    return plan, rcs


def test_prepare_check_passes_on_real_output(tmp_path, monkeypatch):
    plan, rcs = _small_prepare(tmp_path, monkeypatch)
    result = plan.check(rcs, True)
    assert (result.failed, result.problems) == (0, [])
    assert plan.operations == 3 and result.tokens > 0


def test_prepare_check_counts_skipped_and_accepted_files(tmp_path, monkeypatch):
    plan, rcs = _small_prepare(tmp_path, monkeypatch)
    (workloads.OUT / "s000_aug1.offsets").unlink()        # a valid file skipped
    (workloads.OUT / "bad.tokens").write_text("START\n")  # a corrupt file accepted
    assert plan.check(rcs, False).failed == 2


def test_prepare_check_catches_wrong_offsets(tmp_path, monkeypatch):
    plan, rcs = _small_prepare(tmp_path, monkeypatch)
    path = workloads.OUT / "s001.offsets"
    lines = path.read_text().splitlines()
    lines[1] = "9.999"
    path.write_text("\n".join(lines) + "\n")
    assert not plan.check(rcs, False).problems  # the fold runs only on a full check
    assert any("fold" in p for p in plan.check(rcs, True).problems)


def test_runner_accounts_attempted_and_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.OUT.mkdir()
    outcomes = iter([workloads.PassCheck(failed=1), workloads.PassCheck()])
    plan = workloads.Plan([], 4, {}, lambda rcs, full: next(outcomes))
    runner = run.Runner(cli, plan, workloads)
    runner.reference_sha = workloads.tree_sha256(workloads.OUT)
    runner.verify([], False)
    (workloads.OUT / "extra").write_text("x")
    runner.verify([], False)
    assert (runner.attempted, runner.failed) == (8, 1)
    assert runner.problems == ["outputs differ from the first pass"]


def test_codec_check_counts_round_trip_mismatch(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.IN.mkdir()
    workloads.OUT.mkdir()
    plan = workloads.build_codec_roundtrip(random.Random(2))
    plan.items = plan.items[:3]  # first song only
    rcs = [quiet_main(argv) for argv in plan.items]
    b_tokens = Path(plan.items[2][2])
    others = [1] * 27  # the other nine songs count as failed calls
    assert plan.check(rcs + others, False).failed == 9
    b_tokens.write_text(b_tokens.read_text() + "BAR\n")
    assert plan.check(rcs + others, False).failed == 10


def test_generate_check_counts_nonzero_exits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads.IN.mkdir()
    plan = workloads.build_generate_clips(random.Random(4))
    result = plan.check([1] * len(plan.items), False)
    assert (result.failed, plan.operations) == (len(plan.items), len(plan.items))


def test_probe_scale_uses_samples_of_the_call():
    probe = hostprobe.HostProbe()
    probe.samples = [2 * hostprobe.PROBE_REF_S] * 10 + [hostprobe.PROBE_REF_S / 2] * 6
    assert probe.scale(10, 16) == pytest.approx(2.0)
    assert probe.scale(0, 10) == pytest.approx(0.5)
    assert probe.scale(14, 16) == pytest.approx(0.5)  # too few: median of all


def test_tracing_overhead_pairs_neighbours_in_reference_seconds():
    def one(traced, items, scales):
        return run.Pass(traced, wall=sum(items), items=items, scales=scales)

    passes = [
        one(False, [1.0, 1.0], [1.0, 1.0]),
        one(True, [1.5, 1.5], [1.0, 1.0]),    # +1.0
        one(False, [2.0, 2.0], [0.5, 0.5]),   # a slow host: 2.0 reference seconds
        one(True, [2.2, 2.2], [0.5, 0.5]),    # +0.2
        one(False, [9.0, 9.0], [1.0, 1.0]),   # no traced partner: left out
    ]
    assert passes[2].reference() == pytest.approx(2.0)
    assert run.tracing_overhead(passes) == pytest.approx(0.6)


def test_tail_has_ten_values_beyond_it():
    values = list(range(1, 41))
    pct, value = run.tail(values)
    assert (pct, value) == (75, 30)
    assert sum(v > value for v in values) == 10
    assert run.tail(list(range(20))) is None


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),      # overlaps a: union of a and b is 1..6
        Span("c", 9.0, 12.0, 0, 1),     # sticks out: only 9..10 is covered
        Span("a.child", 2.0, 3.0, 1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])
    totals = layer_totals(spans)
    assert totals["root"] == pytest.approx((4.0, 1))
    assert totals["a"] == pytest.approx((2.0, 1))


def test_tracer_wraps_restores_and_reports_absent_layers():
    original = generator.grammar_mask
    t = Tracer()
    t.install((
        Layer("generator.grammar_mask", "midisync.generator:grammar_mask"),
        Layer("gone.function", "midisync.generator:no_such_function"),
        Layer("gone.module", "midisync.no_such_module:f"),
        Layer("generator.next_distribution",
              "midisync.generator:ReferenceModel.next_distribution",
              lambda a, k, r: {"steps": 1}),
    ))
    assert t.absent == ["gone.function", "gone.module"]
    assert generator.grammar_mask is not original

    def one_call():
        model = generator.ReferenceModel()
        model.next_distribution([generator.START], [4.0], 0.5, 0.5)
        generator.grammar_mask([generator.START])

    t.call("cli.fake", one_call)
    t.call("cli.fake", one_call)
    t.restore()
    assert generator.grammar_mask is original
    assert [s.name for s in t.spans[:3]] == [
        "cli.fake", "generator.next_distribution", "generator.grammar_mask"]
    assert [s.parent for s in t.spans[:3]] == [None, 0, 0]
    assert [s.call_id for s in t.spans] == [1, 1, 1, 2, 2, 2]
    assert t.counts["steps"] == 2


def test_every_layer_resolves_at_this_commit():
    t = Tracer()
    t.install()
    t.restore()
    assert t.absent == []
    assert {f"cli.{c}" for c in tracer.COMMANDS}.isdisjoint(l.name for l in tracer.LAYERS)


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prepare_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
