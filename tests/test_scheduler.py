from __future__ import annotations

import dataclasses
import math
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midisync.scheduler import (
    BoundaryList,
    BoundaryState,
    GeneratorState,
    SchedulerParams,
    _compute_offsets,
    derive_boundaries,
    expire_missed,
    format_boundaries,
    next_offset,
    offsets_for_sequence,
    on_token,
    parse_boundaries,
)
from midisync.tokens import CHORD, START, DecodeState, Instrument, Token, TokenKind, cursor_after


def fold_offsets(tokens, boundaries: BoundaryList, params: SchedulerParams) -> list[float]:
    """Step-wise oracle: fold the incremental state machine over the tokens."""
    state = GeneratorState.new(boundaries)
    return [on_token(state, tok, params) for tok in tokens]


# ---------------------------------------------------------------------------
# BoundaryList / params
# ---------------------------------------------------------------------------


def test_boundary_list_from_times():
    bl = BoundaryList.from_times([5.0, 2.0, 5.0, 9.25])
    assert bl.times_ms == (2000, 5000, 9250)
    assert bl.times_s == (2.0, 5.0, 9.25)
    assert GeneratorState(bl).states == [BoundaryState.PENDING] * 3


def test_boundary_list_validation():
    with pytest.raises(ValueError):
        BoundaryList(times_ms=(2000, 1000))
    with pytest.raises(ValueError):
        BoundaryList(times_ms=(-5,))


def test_params_validation():
    with pytest.raises(ValueError):
        SchedulerParams(sensitivity_s=0.0)
    with pytest.raises(ValueError):
        SchedulerParams(max_offset_s=-1.0)
    p = SchedulerParams()
    assert p.sensitivity_ms == 1000
    assert p.max_offset_ms == 4000


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["sensitivity_s", "max_offset_s"])
def test_params_reject_non_finite_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        SchedulerParams(**{name: value})


@pytest.mark.parametrize("value", [3600.001, 1e308, 10**30])
@pytest.mark.parametrize("name", ["sensitivity_s", "max_offset_s"])
def test_params_reject_windows_above_one_hour_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"{name} must be in \\(0, 3600\\] s"):
        SchedulerParams(**{name: value})


# ---------------------------------------------------------------------------
# next_offset / on_token / expire_missed examples
# ---------------------------------------------------------------------------


def make_state(cursor_s: float, times_s) -> GeneratorState:
    state = GeneratorState.new(BoundaryList.from_times(times_s))
    state.cursor_ms = int(round(cursor_s * 1000))
    return state


def test_next_offset_examples():
    params = SchedulerParams()  # xi=1.0, cap 4.0
    assert next_offset(make_state(0.0, [2.5]), params) == 2.5
    assert next_offset(make_state(0.0, [6.0]), params) == 4.0   # capped
    assert next_offset(make_state(3.0, [2.5]), params) == 0.0   # passed, clamped
    assert next_offset(make_state(0.0, []), params) == 4.0      # nothing pending


def test_on_token_timeshift_advances_cursor():
    params = SchedulerParams()
    state = make_state(1.0, [])
    on_token(state, Token.shift(800), params)
    assert state.cursor_ms == 1800
    assert state.cursor_s == 1.8


def test_on_token_chord_consumes_within_window():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(4.6, [5.0])
    on_token(state, CHORD, params)
    assert state.states[0] is BoundaryState.CONSUMED
    # offset recorded after consumption: nothing pending -> cap
    assert state.offsets == [4.0]


def test_on_token_chord_outside_window_no_consume():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(2.0, [5.0])
    on_token(state, CHORD, params)
    assert state.states[0] is BoundaryState.PENDING
    assert state.offsets == [3.0]


def test_on_token_chord_at_exact_window_edge_not_consumed():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(4.0, [5.0])  # |c - b| == xi exactly
    on_token(state, CHORD, params)
    assert state.states[0] is BoundaryState.PENDING


def test_on_token_chord_consumes_multiple_pending():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(5.0, [4.5, 5.4, 9.0])
    on_token(state, CHORD, params)
    assert state.states[0] is BoundaryState.CONSUMED
    assert state.states[1] is BoundaryState.CONSUMED
    assert state.states[2] is BoundaryState.PENDING


def test_expire_missed_examples():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(7.0, [5.0, 8.0])
    newly = expire_missed(state, params)
    assert newly == [5.0]
    assert state.states[0] is BoundaryState.EXPIRED
    assert state.states[1] is BoundaryState.PENDING
    # idempotent
    assert expire_missed(state, params) == []

    edge = make_state(5.5, [5.0])
    assert expire_missed(edge, params) == []  # 0.5 s behind: still pending
    at_edge = make_state(6.0, [5.0])
    assert expire_missed(at_edge, params) == []  # exactly xi behind: still pending


def test_expiry_happens_inside_on_token():
    params = SchedulerParams(sensitivity_s=1.0)
    state = make_state(0.0, [1.0])
    on_token(state, Token.shift(1000), params)   # cursor 1.0
    on_token(state, Token.shift(1000), params)   # cursor 2.0, b exactly xi behind
    assert state.states[0] is BoundaryState.PENDING
    on_token(state, Token.shift(8), params)      # cursor 2.008 > b + xi
    assert state.states[0] is BoundaryState.EXPIRED
    # offsets: 0.0 while the passed boundary is pending, cap after expiry
    assert state.offsets == [0.0, 0.0, 4.0]


def test_stale_pending_boundary_pins_offset_to_zero():
    params = SchedulerParams()
    state = make_state(0.0, [1.0])
    offsets = [on_token(state, Token.shift(504), params) for _ in range(4)]
    # cursor after each: 0.504, 1.008, 1.512, 2.016
    assert offsets == [0.496, 0.0, 0.0, 4.0]


def test_offsets_capped_and_clamped():
    params = SchedulerParams(max_offset_s=4.0)
    state = make_state(0.0, [10.0])
    assert on_token(state, START, params) == 4.0
    state2 = make_state(0.0, [0.5])
    on_token(state2, CHORD, params)  # consumes (|0 - 0.5| < 1)
    assert state2.offsets == [4.0]


# ---------------------------------------------------------------------------
# whole-sequence kernel vs the fold
# ---------------------------------------------------------------------------


def test_offsets_for_sequence_trivial_cases():
    params = SchedulerParams()
    # no chords, no boundaries: constant cap
    toks = [START, Token.shift(1000), Token.shift(1000)]
    out = offsets_for_sequence(toks, BoundaryList.from_times([]), params)
    assert list(out) == [4.0, 4.0, 4.0]
    # single chord exactly on a boundary
    toks = [START, Token.shift(1000), Token.shift(1000), CHORD, Token.shift(8)]
    out = offsets_for_sequence(toks, BoundaryList.from_times([2.0]), params)
    assert list(out) == [2.0, 1.0, 0.0, 4.0, 4.0]


def test_derive_boundaries_from_chord_positions():
    toks = [START, Token.shift(1000), CHORD, Token.shift(1000), Token.shift(504), CHORD]
    bl = derive_boundaries(toks)
    assert bl.times_ms == (1000, 2504)
    # offsets with self-derived boundaries: chords land exactly on them
    out = offsets_for_sequence(toks)
    fold = fold_offsets(toks, bl, SchedulerParams())
    assert list(out) == fold


def chord_boundaries(tokens) -> BoundaryList:
    """Oracle: the CHORD cursors of a stream, by a running sum of its shifts."""
    cursor = 0
    times = []
    for tok in tokens:
        if tok.kind is TokenKind.TIMESHIFT:
            cursor += tok.shift_ms
        elif tok.kind is TokenKind.CHORD:
            times.append(cursor)
    return BoundaryList(times_ms=tuple(sorted(set(times))))


SELF_BOUNDED_STREAMS = {
    "empty": [],
    "no chords": [START, Token.shift(1000), Token.on(Instrument.BASS, 40), Token.shift(8)],
    "only chords": [CHORD, CHORD, CHORD],
    "repeated chords": [
        CHORD, Token.shift(504), CHORD, CHORD, Token.on(Instrument.PIANO, 60),
        CHORD, Token.shift(8), Token.shift(1000), CHORD, CHORD,
    ],
    "chord last": [START, Token.shift(16), Token.shift(24), CHORD],
}


@pytest.mark.parametrize("name", SELF_BOUNDED_STREAMS)
def test_self_derived_boundaries_match_the_oracle(name):
    tokens = SELF_BOUNDED_STREAMS[name]
    expected = chord_boundaries(tokens)
    assert derive_boundaries(tokens).times_ms == expected.times_ms
    params = SchedulerParams()
    assert list(offsets_for_sequence(tokens)) == fold_offsets(tokens, expected, params)


def test_self_derived_boundaries_match_the_oracle_on_random_instances():
    rng = random.Random(4242)
    for _ in range(300):
        tokens, _, params = random_instance(rng)
        expected = chord_boundaries(tokens)
        got = derive_boundaries(tokens)
        assert got.times_ms == expected.times_ms
        assert all(type(t) is int for t in got.times_ms)
        offsets = offsets_for_sequence(tokens, params=params)
        assert list(offsets) == fold_offsets(tokens, expected, params)


def test_cursor_after_is_the_running_sum_of_shifts():
    rng = random.Random(31)
    for _ in range(50):
        tokens, _, _ = random_instance(rng)
        ids, cursor = cursor_after(tokens)
        assert ids.tolist() == [tok.id for tok in tokens]
        assert cursor.tolist() == list(accumulate(tok.shift_ms or 0 for tok in tokens))
    ids, cursor = cursor_after([])
    assert ids.shape == cursor.shape == (0,)


def random_instance(rng: random.Random):
    tokens = []
    for _ in range(rng.randint(1, 120)):
        r = rng.random()
        if r < 0.55:
            tokens.append(Token.shift(8 * rng.randint(1, 125)))
        elif r < 0.7:
            tokens.append(CHORD)
        elif r < 0.85:
            tokens.append(Token.on(Instrument.PIANO, rng.randint(0, 127)))
        else:
            tokens.append(Token.off(Instrument.PIANO, rng.randint(0, 127)))
    total_s = sum(t.shift_ms for t in tokens if t.shift_ms) / 1000.0
    n_bounds = rng.randint(0, 60)
    bounds = BoundaryList.from_times(
        [round(rng.uniform(0, total_s + 2.0), 3) for _ in range(n_bounds)]
    )
    params = SchedulerParams(
        sensitivity_s=rng.choice([0.008, 0.25, 0.5, 1.0, 2.0]),
        max_offset_s=rng.choice([1.0, 4.0, 8.0]),
    )
    return tokens, bounds, params


@pytest.mark.parametrize("kernel", [_compute_offsets], ids=["numpy"])
def test_kernels_match_fold_on_random_instances(kernel):
    rng = random.Random(555)
    for _ in range(300):
        tokens, bounds, params = random_instance(rng)
        expected = fold_offsets(tokens, bounds, params)
        shifts = np.fromiter(
            (t.shift_ms if t.shift_ms else 0 for t in tokens), dtype=np.int64, count=len(tokens)
        )
        cursor = np.cumsum(shifts)
        is_chord = np.fromiter((t is CHORD for t in tokens), dtype=np.uint8, count=len(tokens))
        got = kernel(
            cursor, is_chord, np.asarray(bounds.times_ms, dtype=np.int64),
            params.sensitivity_ms, params.max_offset_ms,
        )
        assert list(got) == expected  # exact float equality


def test_dispatcher_matches_fold():
    rng = random.Random(77)
    for _ in range(100):
        tokens, bounds, params = random_instance(rng)
        assert list(offsets_for_sequence(tokens, bounds, params)) == fold_offsets(
            tokens, bounds, params
        )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_equivalence_property(data):
    n = data.draw(st.integers(0, 60))
    tokens = []
    for _ in range(n):
        choice = data.draw(st.integers(0, 3))
        if choice == 0:
            tokens.append(CHORD)
        elif choice == 1:
            tokens.append(Token.on(Instrument.GUITAR, 60))
        else:
            tokens.append(Token.shift(8 * data.draw(st.integers(1, 125))))
    bounds = BoundaryList.from_times(
        data.draw(st.lists(st.floats(0, 90, allow_nan=False), max_size=6))
    )
    params = SchedulerParams(
        sensitivity_s=data.draw(st.sampled_from([0.2, 1.0, 3.0])),
        max_offset_s=data.draw(st.sampled_from([0.5, 4.0])),
    )
    expected = fold_offsets(tokens, bounds, params)
    assert list(offsets_for_sequence(tokens, bounds, params)) == expected


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_offset_range_invariant():
    rng = random.Random(888)
    for _ in range(50):
        tokens, bounds, params = random_instance(rng)
        out = offsets_for_sequence(tokens, bounds, params)
        assert np.all(out >= 0.0)
        assert np.all(out <= params.max_offset_s + 1e-12)


def test_cursor_conservation():
    rng = random.Random(999)
    for _ in range(50):
        tokens, bounds, params = random_instance(rng)
        state = GeneratorState.new(bounds)
        for tok in tokens:
            on_token(state, tok, params)
        total_ms = sum(t.shift_ms for t in tokens if t.shift_ms)
        assert state.cursor_ms == total_ms
        assert state.cursor_s == total_ms / 1000.0


def test_generator_state_is_the_decode_state_of_its_tokens():
    rng = random.Random(77)
    for _ in range(40):
        tokens, bounds, params = random_instance(rng)
        state, decode = GeneratorState.new(bounds), DecodeState()
        assert isinstance(state, DecodeState)
        for tok in tokens:
            on_token(state, tok, params)
            decode.push(tok)
            assert (state.length, state.cursor_ms) == (decode.length, decode.cursor_ms)
            assert state.open_notes == decode.open_notes
            assert np.array_equal(state.mask(), decode.mask())
        assert state.tokens == tokens and len(state.offsets) == len(tokens)


def test_generate_state_copies_boundaries():
    bl = BoundaryList.from_times([0.5])
    state = GeneratorState.new(bl)
    on_token(state, CHORD, SchedulerParams())
    assert state.states[0] is BoundaryState.CONSUMED
    assert bl == BoundaryList.from_times([0.5])  # caller's list untouched
    with pytest.raises(dataclasses.FrozenInstanceError):
        bl.times_ms = (0,)


def test_boundary_file_round_trip(tmp_path):
    bl = BoundaryList.from_times([2.0, 10.0, 4.504])
    text = format_boundaries(bl)
    assert text == "2.000\n4.504\n10.000\n"
    assert parse_boundaries(text).times_ms == bl.times_ms
    with pytest.raises(ValueError, match="line 1"):
        parse_boundaries("abc\n")
    with pytest.raises(ValueError):
        parse_boundaries("-1.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1e308"])
def test_boundary_file_rejects_non_finite_values_with_line_number(value):
    with pytest.raises(ValueError, match="line 2"):
        parse_boundaries(f"1.0\n{value}\n3.0\n")


# ---------------------------------------------------------------------------
# on_token against a step that walks every boundary
# ---------------------------------------------------------------------------


def scan_step(state: GeneratorState, token, params: SchedulerParams):
    """Oracle step: consume, expire and look up over the whole list.

    Returns the newly expired times (seconds) and the offset.
    """
    times, states = state.boundaries.times_ms, state.states
    xi = params.sensitivity_ms
    if token.shift_ms:
        state.cursor_ms += token.shift_ms
    elif token is CHORD:
        for i, t in enumerate(times):
            if states[i] is BoundaryState.PENDING and abs(state.cursor_ms - t) < xi:
                states[i] = BoundaryState.CONSUMED
    newly = []
    for i, t in enumerate(times):
        if states[i] is BoundaryState.PENDING and state.cursor_ms - t > xi:
            states[i] = BoundaryState.EXPIRED
            newly.append(t / 1000.0)
    pending = [t for t, s in zip(times, states) if s is BoundaryState.PENDING]
    cap = params.max_offset_ms
    raw = min(pending) - state.cursor_ms if pending else cap
    return newly, min(max(raw, 0), cap) / 1000.0


def test_step_functions_match_whole_list_scan():
    rng = random.Random(4242)
    for _ in range(200):
        tokens, bounds, params = random_instance(rng)
        # Start from an arbitrary cursor with some boundaries already settled.
        choices = [BoundaryState.PENDING] * 3 + [BoundaryState.CONSUMED, BoundaryState.EXPIRED]
        settled = [rng.choice(choices) for _ in bounds.times_ms]
        start = rng.choice([0, rng.randint(0, 5000)])
        fast, slow = GeneratorState.new(bounds), GeneratorState.new(bounds)
        fast.states, slow.states = list(settled), list(settled)
        fast.cursor_ms = slow.cursor_ms = start
        for tok in tokens:
            newly, expected = scan_step(slow, tok, params)
            if tok.shift_ms:
                fast.cursor_ms += tok.shift_ms
                assert expire_missed(fast, params) == newly
                assert next_offset(fast, params) == expected
                fast.cursor_ms -= tok.shift_ms  # on_token below moves it again
            assert on_token(fast, tok, params) == expected
            assert fast.states == slow.states
        assert fast.cursor_ms == slow.cursor_ms


def test_first_pending_only_moves_forward():
    params = SchedulerParams(sensitivity_s=1.0)
    state = GeneratorState.new(BoundaryList.from_times([float(t) for t in range(0, 600, 5)]))
    seen = []
    for _ in range(700):
        on_token(state, Token.shift(1000), params)
        seen.append(state.first_pending)
    assert seen == sorted(seen)
    assert state.first_pending == len(state.boundaries)
    assert BoundaryState.PENDING not in state.states
