"""Package-level acceptance checks.

Each test verifies one headline guarantee end to end, at the tolerance
the package promises, and prints a single PASS/FAIL line (visible with
``pytest -s``) before asserting.  Tolerances are pinned here rather
than imported so a regression in package constants cannot silently
relax a check.
"""

from __future__ import annotations

import random
import time

import numpy as np

from helpers import random_grid_score, random_offgrid_score
from midisync import cli
from midisync.chords import dropout_chords
from midisync.emotion import (
    AFFECT_NORMS,
    EMOTION_CATEGORIES,
    EmotionDistribution,
    VAPoint,
    VATable,
    build_mixture,
    inverse_map,
    mixture_mean,
    sample_va,
    scaling_coefficient,
)
from midisync.generator import (
    ReferenceModel,
    SamplingParams,
    ScriptedBoundaryModel,
    assemble_input,
    generate,
)
from midisync.midi_codec import (
    NoteEvent,
    ScoreTimeline,
    decode_events,
    encode_events,
    gap_to_shifts,
)
from midisync.scenes import SceneCuts, filter_boundaries
from midisync.scheduler import (
    BoundaryList,
    GeneratorState,
    SchedulerParams,
    offsets_for_sequence,
    on_token,
)
from midisync.tokens import CHORD, Instrument, Token, TokenKind


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)


# ---------------------------------------------------------------------------
# 1. Codec round trip
# ---------------------------------------------------------------------------


def test_a01_codec_round_trip():
    rng = random.Random(20260814)
    started = time.perf_counter()

    exact = 0
    n_grid = 500
    for _ in range(n_grid):
        score = random_grid_score(rng)
        decoded = decode_events(encode_events(score)).score
        if (
            decoded.notes == score.notes
            and decoded.bar_marks_ms == score.bar_marks_ms
        ):
            exact += 1

    worst = 0
    n_offgrid = 100
    for _ in range(n_offgrid):
        score = random_offgrid_score(rng)
        decoded = decode_events(encode_events(score)).score
        lanes: dict = {}
        for n in decoded.notes:
            lanes.setdefault((n.instrument, n.pitch), []).append(n)
        for n in score.notes:
            match = lanes[(n.instrument, n.pitch)].pop(0)
            worst = max(
                worst,
                abs(match.onset_ms - n.onset_ms),
                abs(match.offset_ms - n.offset_ms),
            )

    elapsed = time.perf_counter() - started
    ok = exact == n_grid and worst <= 4 and elapsed < 30.0
    report(
        "codec round trip",
        ok,
        f"{exact}/{n_grid} grid scores exact, worst off-grid error "
        f"{worst} ms (limit 4), {elapsed:.1f} s (limit 30)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. Time-shift splitting
# ---------------------------------------------------------------------------


def test_a02_timeshift_semantics():
    def tokens_for(duration_ms: int) -> list[str]:
        score = ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, duration_ms)])
        return [t.name for t in encode_events(score)]

    single = tokens_for(800)
    split = tokens_for(1800)
    ok = (
        [t.shift_ms for t in gap_to_shifts(800)] == [800]
        and [t.shift_ms for t in gap_to_shifts(1800)] == [1000, 800]
        and single == ["START", "FEWER_INSTRUMENTS", "PIANO_ON_60", "TIMESHIFT_800", "PIANO_OFF_60"]
        and split
        == [
            "START",
            "FEWER_INSTRUMENTS",
            "PIANO_ON_60",
            "TIMESHIFT_1000",
            "TIMESHIFT_800",
            "PIANO_OFF_60",
        ]
    )
    report(
        "time-shift semantics",
        ok,
        f"800 ms -> {[n for n in single if n.startswith('TIMESHIFT')]}, "
        f"1800 ms -> {[n for n in split if n.startswith('TIMESHIFT')]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 3. Batch offset kernel vs. step-wise fold
# ---------------------------------------------------------------------------


def _fold_offsets(tokens, boundaries, params) -> list[float]:
    """Independent step-wise route: literally replay the per-token rule."""
    state = GeneratorState.new(boundaries)
    return [on_token(state, tok, params) for tok in tokens]


def _random_offset_instance(rng: random.Random):
    tokens = []
    for _ in range(rng.randint(0, 250)):
        roll = rng.random()
        if roll < 0.5:
            tokens.append(Token.shift(rng.randrange(8, 1008, 8)))
        elif roll < 0.7:
            tokens.append(CHORD)
        elif roll < 0.85:
            tokens.append(Token.on(Instrument.PIANO, rng.randint(0, 127)))
        else:
            tokens.append(Token.off(Instrument.PIANO, rng.randint(0, 127)))
    bounds = BoundaryList.from_times(
        [round(rng.uniform(0, 30), 3) for _ in range(rng.randint(0, 8))]
    )
    params = SchedulerParams(
        sensitivity_s=rng.choice((0.25, 0.5, 1.0, 2.0)),
        max_offset_s=rng.choice((1.0, 4.0, 8.0)),
    )
    return tokens, bounds, params


def test_a03_offset_kernel_equivalence():
    rng = random.Random(99)
    started = time.perf_counter()
    n = 1000
    mismatches = 0
    for _ in range(n):
        tokens, bounds, params = _random_offset_instance(rng)
        vectorized = offsets_for_sequence(tokens, bounds, params)
        folded = _fold_offsets(tokens, bounds, params)
        if list(vectorized) != folded:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    report(
        "offset kernel equivalence",
        ok,
        f"{n - mismatches}/{n} instances exactly equal to the step-wise fold, "
        f"{elapsed:.1f} s (limit 60)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. Boundary consumption rates
# ---------------------------------------------------------------------------


def _random_boundaries(rng: random.Random, min_gap: float) -> list[float]:
    times, t = [], rng.uniform(0.5, 3.0)
    for _ in range(rng.randint(1, 6)):
        times.append(round(t, 3))
        t += rng.uniform(min_gap, min_gap + 4.0)
    return times


def test_a04_boundary_consumption():
    rng = random.Random(4)
    runs = 100

    scripted_total = scripted_hit = 0
    for i in range(runs):
        bounds = _random_boundaries(rng, min_gap=0.5)
        result = generate(
            ScriptedBoundaryModel(),
            VAPoint(None, None),
            BoundaryList.from_times(bounds),
            duration_s=max(bounds) + 2.0,
            sampling=SamplingParams(seed=i),
        )
        non_expired = len(bounds) - len(result.expired)
        scripted_total += non_expired
        scripted_hit += len(result.consumed)

    reference_total = reference_hit = 0
    for i in range(runs):
        bounds = _random_boundaries(rng, min_gap=4.0)
        result = generate(
            ReferenceModel(),
            VAPoint(round(rng.uniform(-0.9, 0.9), 3), round(rng.uniform(-0.9, 0.9), 3)),
            BoundaryList.from_times(bounds),
            duration_s=max(bounds) + 2.0,
            sampling=SamplingParams(seed=1000 + i),
        )
        reference_total += len(bounds)
        reference_hit += len(result.consumed)

    reference_rate = reference_hit / reference_total
    ok = scripted_hit == scripted_total and reference_rate >= 0.80
    report(
        "boundary consumption",
        ok,
        f"scripted {scripted_hit}/{scripted_total} non-expired consumed "
        f"(need all) over {runs} runs; reference {reference_hit}/{reference_total} "
        f"= {reference_rate:.1%} (need >= 80%)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Emotion table and scaling constants
# ---------------------------------------------------------------------------


def test_a05_emotion_constants():
    table = VATable.default()
    max_abs = float(np.max(np.abs(table.means)))

    rows_exact = 0
    for idx, category in enumerate(EMOTION_CATEGORIES):
        mixture = build_mixture(
            EmotionDistribution.one_hot(category), target_max=max_abs
        )
        mean = mixture_mean(mixture)
        expected_v = AFFECT_NORMS[category][0][0]
        expected_a = AFFECT_NORMS[category][1][0]
        rows_exact += int(mean.valence == expected_v) + int(mean.arousal == expected_a)

    coefficient = scaling_coefficient(table, 0.8)
    coefficient_ok = abs(coefficient - 0.8 / 0.76) < 1e-12

    scaled = build_mixture(EmotionDistribution.uniform(), target_max=0.8)
    scaled_max = float(np.max(np.abs(scaled.means)))

    ok = rows_exact == 12 and coefficient_ok and scaled_max == 0.8
    report(
        "emotion constants",
        ok,
        f"{rows_exact}/12 table means reproduced exactly; coefficient for "
        f"target 0.8 within 1e-12 of 0.8/0.76: {coefficient_ok}; scaled "
        f"max-|mean| == 0.8 exactly: {scaled_max == 0.8}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Monte-Carlo sampling moments
# ---------------------------------------------------------------------------


def test_a06_monte_carlo_moments():
    table = VATable.default()
    max_abs = float(np.max(np.abs(table.means)))
    n = 100_000
    failures = []
    for idx, category in enumerate(EMOTION_CATEGORIES):
        mixture = build_mixture(EmotionDistribution.one_hot(category), target_max=max_abs)
        draws = sample_va(mixture, seed=7000 + idx, size=n, clamp=False)
        for axis, axis_name in enumerate(("valence", "arousal")):
            mu = AFFECT_NORMS[category][axis][0]
            sigma = AFFECT_NORMS[category][axis][1]
            tolerance = 3.0 * sigma / np.sqrt(n)
            sample_mean = float(draws[:, axis].mean())
            sample_sd = float(draws[:, axis].std(ddof=1))
            if abs(sample_mean - mu) > tolerance:
                failures.append(f"{category}.{axis_name} mean off by {abs(sample_mean - mu):.2e}")
            if abs(sample_sd - sigma) > tolerance:
                failures.append(f"{category}.{axis_name} sd off by {abs(sample_sd - sigma):.2e}")
    ok = not failures
    report(
        "Monte-Carlo moments",
        ok,
        f"{12 - len(failures)}/12 axis checks inside 3 sigma/sqrt({n})"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. Inverse emotion mapping
# ---------------------------------------------------------------------------


def test_a07_inverse_map_consistency():
    table = VATable.default()
    max_abs = float(np.max(np.abs(table.means)))
    hits = 0
    total = 0
    for category in EMOTION_CATEGORIES:
        mean = mixture_mean(build_mixture(EmotionDistribution.one_hot(category), target_max=max_abs))
        for metric in ("euclidean", "mahalanobis", "likelihood"):
            total += 1
            hits += int(inverse_map(mean, table, metric) == category)
    ok = hits == total
    report(
        "inverse emotion mapping",
        ok,
        f"{hits}/{total} (6 categories x 3 metrics) map back to themselves",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Scene-cut gap filtering
# ---------------------------------------------------------------------------


def test_a08_scene_filter():
    worked = filter_boundaries(
        SceneCuts(cut_times_s=(2.0, 4.5, 5.0, 10.0), video_duration_s=30.0), 4.0
    ).times_s
    worked_ok = worked == (2.0, 10.0)

    rng = random.Random(8)
    property_failures = 0
    n = 300
    for _ in range(n):
        duration = rng.uniform(10.0, 120.0)
        raw = sorted(
            {round(rng.uniform(0, duration - 0.01), 3) for _ in range(rng.randint(0, 40))}
        )
        cuts = SceneCuts(cut_times_s=tuple(raw), video_duration_s=duration)
        out = filter_boundaries(cuts, 4.0).times_s
        gaps_ok = all(b - a >= 4.0 for a, b in zip(out, out[1:]))
        subset_ok = set(out) <= set(raw)
        again = filter_boundaries(
            SceneCuts(cut_times_s=out, video_duration_s=duration), 4.0
        ).times_s
        if not (gaps_ok and subset_ok and again == out):
            property_failures += 1

    ok = worked_ok and property_failures == 0
    report(
        "scene-cut filtering",
        ok,
        f"worked example -> {list(worked)} (want [2.0, 10.0]); "
        f"{n - property_failures}/{n} random lists satisfy gap/subset/idempotence",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Chord dropout rate
# ---------------------------------------------------------------------------


def test_a09_chord_dropout_rate():
    n = 10_000
    tokens = [CHORD] * n
    survivors = dropout_chords(tokens, rate=0.2, seed=2026)
    removed = n - len(survivors)
    ok = abs(removed - 2000) <= 120
    report(
        "chord dropout rate",
        ok,
        f"removed {removed}/{n} at rate 0.2 (want 2000 +/- 120)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. Model input assembly shapes
# ---------------------------------------------------------------------------


def test_a10_assembly_shapes():
    rng = random.Random(10)
    shape_failures = 0
    n = 100
    for _ in range(n):
        count = rng.randint(0, 200)
        dim = 2 * rng.randint(1, 256)
        tokens = [Token.shift(8)] * count
        offsets = [rng.uniform(0, 4)] * count
        asm = assemble_input(tokens, offsets, VAPoint(0.0, 0.0), feature_dim=dim)
        if not (
            asm.sequence_length == count + 2
            and asm.position_feature_dim == dim // 2
            and asm.offset_feature_dim == dim // 2
            and len(asm.position_offsets) == count + 2
        ):
            shape_failures += 1

    flags = assemble_input([], [], VAPoint(None, 0.3), feature_dim=8)
    flags_ok = (
        flags.valence_substituted
        and not flags.arousal_substituted
        and assemble_input([], [], VAPoint(0.1, None), feature_dim=8).arousal_substituted
        and not assemble_input([], [], VAPoint(0.1, 0.2), feature_dim=8).valence_substituted
    )
    ok = shape_failures == 0 and flags_ok
    report(
        "input assembly shapes",
        ok,
        f"{n - shape_failures}/{n} random (count, dim) cases have length count+2 "
        f"and d/2 + d/2 features; substitution flags honored: {flags_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. End-to-end deterministic generation
# ---------------------------------------------------------------------------


def test_a11_end_to_end_determinism(tmp_path):
    boundaries = tmp_path / "bounds.txt"
    boundaries.write_text("3.0\n8.5\n")
    emotion = tmp_path / "emotion.json"
    emotion.write_text('{"joy": 0.6, "surprise": 0.4}')

    outputs = []
    for name in ("first", "second"):
        out_midi = tmp_path / f"{name}.mid"
        rc = cli.main(
            [
                "generate",
                str(emotion),
                str(boundaries),
                "12.0",
                str(out_midi),
                "--seed",
                "31",
            ]
        )
        assert rc == 0
        outputs.append(
            (
                out_midi.with_suffix(".tokens").read_bytes(),
                out_midi.read_bytes(),
            )
        )

    tokens_identical = outputs[0][0] == outputs[1][0]
    midi_identical = outputs[0][1] == outputs[1][1]
    ok = tokens_identical and midi_identical
    report(
        "end-to-end determinism",
        ok,
        f"fixed seed: token files byte-identical: {tokens_identical}, "
        f"SMF files byte-identical: {midi_identical}",
    )
    assert ok
