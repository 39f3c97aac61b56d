from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import time_budget
from midisync.chords import detect_chords
from midisync.config import PipelineConfig
from midisync.emotion import VAPoint
from midisync.generator import (
    DecodeState,
    GenerationError,
    MAJOR_SCALE,
    MINOR_SCALE,
    ReferenceModel,
    ScriptedBoundaryModel,
    _dense_pairs,
    _sample,
    generate,
    grammar_mask,
)
from midisync.midi_codec import decode_events
from midisync.scheduler import BoundaryList, GeneratorState, SchedulerParams, on_token
from midisync.tokens import (
    CHORD,
    PAD,
    START,
    VOCABULARY,
    Instrument,
    Token,
    TokenKind,
)


def ids(*tokens: Token) -> list[int]:
    return [t.id for t in tokens]


# ---------------------------------------------------------------------------
# Grammar mask
# ---------------------------------------------------------------------------


def test_mask_empty_history_allows_start_and_pad_but_no_offs():
    mask = grammar_mask([])
    assert mask[START.id]
    assert mask[PAD.id]
    assert mask[CHORD.id]
    assert mask[Token.on(Instrument.PIANO, 60).id]
    for tok in VOCABULARY:
        if tok.kind is TokenKind.OFF:
            assert not mask[tok.id]


def test_mask_start_and_pad_only_at_position_zero():
    mask = grammar_mask([START])
    assert not mask[START.id]
    assert not mask[PAD.id]


def test_mask_off_requires_matching_open_note():
    history = [START, Token.on(Instrument.PIANO, 60)]
    mask = grammar_mask(history)
    assert mask[Token.off(Instrument.PIANO, 60).id]
    assert not mask[Token.off(Instrument.PIANO, 61).id]
    assert not mask[Token.off(Instrument.BASS, 60).id]


def test_mask_off_disabled_again_after_close():
    history = [
        START,
        Token.on(Instrument.PIANO, 60),
        Token.off(Instrument.PIANO, 60),
    ]
    assert not grammar_mask(history)[Token.off(Instrument.PIANO, 60).id]


def test_mask_off_counts_stacked_unisons():
    history = [
        START,
        Token.on(Instrument.PIANO, 60),
        Token.on(Instrument.PIANO, 60),
        Token.off(Instrument.PIANO, 60),
    ]
    # one of the two unison notes is still sounding
    assert grammar_mask(history)[Token.off(Instrument.PIANO, 60).id]


def test_mask_blocks_chord_until_a_note_follows():
    cid = CHORD.id
    assert not grammar_mask([START, CHORD])[cid]
    # a time shift alone does not satisfy the marker
    assert not grammar_mask([START, CHORD, Token.shift(800)])[cid]
    # an ON does
    assert grammar_mask([START, CHORD, Token.on(Instrument.PIANO, 60)])[cid]


# Whole-history reference for the grammar: the scan the incremental
# DecodeState replaces, kept here as the oracle it must agree with.


def oracle_open_note_counts(tokens: list[Token]) -> dict[tuple[Instrument, int], int]:
    counts: dict[tuple[Instrument, int], int] = {}
    for tok in tokens:
        if tok.kind is TokenKind.ON:
            counts[(tok.instrument, tok.pitch)] = counts.get((tok.instrument, tok.pitch), 0) + 1
        elif tok.kind is TokenKind.OFF:
            key = (tok.instrument, tok.pitch)
            if counts.get(key, 0) > 0:
                counts[key] -= 1
    return counts


def oracle_grammar_mask(tokens: list[Token]) -> np.ndarray:
    mask = np.ones(len(VOCABULARY), dtype=bool)
    for tok in VOCABULARY:
        if tok.kind is TokenKind.OFF:
            mask[tok.id] = False
    for (instrument, pitch), count in oracle_open_note_counts(tokens).items():
        if count > 0:
            mask[Token.off(instrument, pitch).id] = True
    if tokens:
        mask[START.id] = False
        mask[PAD.id] = False
    for tok in reversed(tokens):
        if tok.kind is TokenKind.ON:
            break
        if tok.kind is TokenKind.CHORD:
            mask[CHORD.id] = False
            break
    return mask


def _oracle_streams() -> list[list[Token]]:
    streams = [
        generate(
            model,
            VAPoint(0.4, 0.7),
            BoundaryList.from_times([1.5, 4.0, 6.5, 9.0]),
            duration_s=12.0,
            config=PipelineConfig(top_k=len(VOCABULARY)),
            seed=seed,
        ).tokens
        for seed, model in ((0, ReferenceModel()), (1, ReferenceModel(key_root=40)),
                            (2, ScriptedBoundaryModel()))
    ]
    # hand-made: stacked unisons, an OFF with nothing open, PAD, BAR, a
    # CHORD answered by a drum hit, a CHORD followed only by a shift
    p60, d36 = Token.on(Instrument.PIANO, 60), Token.on(Instrument.DRUMS, 36)
    streams.append([
        PAD, p60, p60, Token.off(Instrument.PIANO, 60), Token.off(Instrument.BASS, 40),
        CHORD, Token.shift(8), d36, CHORD, d36, Token.off(Instrument.DRUMS, 36),
        Token.off(Instrument.DRUMS, 36), Token.off(Instrument.PIANO, 60),
        Token.off(Instrument.PIANO, 60), CHORD, Token(TokenKind.BAR),
    ])
    return streams


def test_incremental_mask_matches_whole_history_oracle_at_every_prefix():
    for tokens in _oracle_streams():
        state = DecodeState()
        for i in range(len(tokens) + 1):
            expected = oracle_grammar_mask(tokens[:i])
            # the grammar over every (id, weight) pair keeps the oracle's ids, in order
            every = [(token_id, 0.5) for token_id in range(len(VOCABULARY))]
            assert state.valid(every) == [(t, 0.5) for t in np.flatnonzero(expected)], f"prefix {i}"
            assert np.array_equal(grammar_mask(tokens[:i]), expected), f"prefix {i}"
            if i < len(tokens):
                state.push(tokens[i])


def test_open_notes_are_keyed_by_the_closing_off_id():
    state = DecodeState()
    for tok in (START, Token.on(Instrument.PIANO, 60), Token.on(Instrument.BASS, 40),
                Token.shift(16), Token.on(Instrument.PIANO, 60), Token.off(Instrument.BASS, 40)):
        state.push(tok)
    off = Token.off(Instrument.PIANO, 60)
    assert list(state.open_notes) == [off.id]
    assert list(state.open_notes[off.id]) == [0, 16]
    assert state.valid([(off.id, 1.0), (Token.off(Instrument.BASS, 40).id, 1.0)]) == [(off.id, 1.0)]


def test_off_ids_order_notes_by_instrument_then_pitch():
    # The scripted model breaks onset ties by OFF id, standing in for
    # the (instrument, pitch) order.
    offs = [tok for tok in VOCABULARY if tok.kind is TokenKind.OFF]
    assert sorted(offs, key=lambda t: t.id) == sorted(
        offs, key=lambda t: (t.instrument.value, t.pitch)
    )


def _history(seed: int, model) -> tuple[list[Token], list[float]]:
    result = generate(
        model,
        VAPoint(-0.2, 0.5),
        BoundaryList.from_times([2.0, 5.0, 8.0]),
        duration_s=10.0,
        seed=seed,
    )
    return result.tokens, result.offsets


@pytest.mark.parametrize("make", [ReferenceModel, ScriptedBoundaryModel])
def test_model_resyncs_when_the_history_is_not_appended_to(make):
    tokens, offsets = _history(5, make())
    other_tokens, other_offsets = _history(6, make())

    def fresh(toks, offs):
        return make().next_distribution(toks, offs, -0.2, 0.5)

    model = make()
    calls = [
        (tokens, offsets),  # the whole history
        (other_tokens[:30], other_offsets[:30]),  # an unrelated history
        (other_tokens[:12], other_offsets[:12]),  # a truncated copy of it
        (list(other_tokens[:40]), list(other_offsets[:40])),  # a copied list
        ([], []),
        (tokens[:25], offsets[:25]),
        # another list, longer, holding the same token object where the
        # last one folded sat
        (other_tokens[:24] + tokens[24:25] + other_tokens[25:40], other_offsets[:40]),
    ]
    for toks, offs in calls:
        assert np.array_equal(model.next_distribution(toks, offs, -0.2, 0.5), fresh(toks, offs))

    # one list grown by appends, truncated in place, then regrown differently
    grown, offs = [], []
    for tok, off in zip(other_tokens[:35], other_offsets[:35]):
        grown.append(tok)
        offs.append(off)
        assert np.array_equal(model.next_distribution(grown, offs, -0.2, 0.5), fresh(grown, offs))
    del grown[20:], offs[20:]
    assert np.array_equal(model.next_distribution(grown, offs, -0.2, 0.5), fresh(grown, offs))
    grown.extend(tokens[20:30])
    offs.extend(offsets[20:30])
    assert np.array_equal(model.next_distribution(grown, offs, -0.2, 0.5), fresh(grown, offs))
    # the last folded token replaced in place
    grown[-1] = CHORD if grown[-1] is not CHORD else Token.shift(8)
    assert np.array_equal(model.next_distribution(grown, offs, -0.2, 0.5), fresh(grown, offs))


@pytest.mark.parametrize("make", [ReferenceModel, ScriptedBoundaryModel, lambda: DenseModel(3)])
def test_generate_folds_each_token_once(make, monkeypatch):
    pushes = 0
    push = DecodeState.push

    def counted(self, tok):
        nonlocal pushes
        pushes += 1
        return push(self, tok)

    monkeypatch.setattr(DecodeState, "push", counted)
    tokens, _ = _history(5, make())
    assert pushes == len(tokens) > 10


@pytest.mark.parametrize("model_class", [ReferenceModel, ScriptedBoundaryModel])
def test_builtin_model_pairs_match_their_vector_on_the_plain_list(model_class, monkeypatch):
    original = model_class._weights
    prefixes = []

    def checked(self, state, offsets, valence, arousal):
        pairs = original(self, state, offsets, valence, arousal)
        if isinstance(state, GeneratorState):  # the loop's call, not next_distribution's below
            assert state.length == len(state.tokens) == len(offsets)
            ids = [i for i, _ in pairs]
            assert ids == sorted(set(ids)) and all(w > 0 for _, w in pairs), "id order, nonzero"
            scattered = np.zeros(len(VOCABULARY))
            scattered[ids] = [w for _, w in pairs]
            plain = self.next_distribution(list(state.tokens), list(offsets), valence, arousal)
            assert np.array_equal(scattered / scattered.sum(), plain), f"prefix {len(offsets)}"
            prefixes.append(len(offsets))
        return pairs

    monkeypatch.setattr(model_class, "_weights", checked)
    tokens, _ = _history(7, model_class())
    assert prefixes == list(range(1, len(tokens)))


# ---------------------------------------------------------------------------
# Sampling loop: validation and failure modes
# ---------------------------------------------------------------------------


class ConstModel:
    """Returns a fixed vector regardless of context."""

    def __init__(self, vector):
        self.vector = vector

    def next_distribution(self, tokens, offsets, valence, arousal):
        return self.vector


def _uniform() -> np.ndarray:
    return np.full(len(VOCABULARY), 1.0 / len(VOCABULARY))


@pytest.mark.parametrize(
    "vector",
    [
        np.ones(10) / 10,  # wrong shape
        np.where(np.arange(len(VOCABULARY)) == 0, np.nan, _uniform()),  # NaN
        np.where(np.arange(len(VOCABULARY)) == 0, -0.1, _uniform()),  # negative
        _uniform() * 0.9,  # does not sum to one
    ],
)
def test_generate_rejects_invalid_distribution(vector):
    with pytest.raises(GenerationError):
        generate(
            ConstModel(vector),
            VAPoint(None, None),
            BoundaryList.from_times([]),
            duration_s=1.0,
        )


def _with(index: int, value: float) -> np.ndarray:
    vector = _uniform()
    vector[index] = value
    return vector


@pytest.mark.parametrize(
    "vector, message",
    [
        (_with(0, np.nan), "step 1: model distribution has invalid entries"),
        (_with(5, np.inf), "step 1: model distribution has invalid entries"),
        (_with(9, -1e-9), "step 1: model distribution has invalid entries"),
        (np.ones(10) / 10, "step 1: model distribution has shape (10,), expected (1411,)"),
        (_uniform() * 0.9, "step 1: model distribution sums to {total!r}, not 1"),
        (_with(3, 1.5), "step 1: model distribution sums to {total!r}, not 1"),
        # finite entries whose sum overflows
        (np.full(len(VOCABULARY), 1e308), "step 1: model distribution sums to inf, not 1"),
    ],
    ids=["nan", "inf", "negative", "shape", "sum", "big-entry", "sum-overflows"],
)
def test_invalid_distribution_messages(vector, message):
    with pytest.raises(GenerationError) as excinfo:
        generate(ConstModel(vector), VAPoint(None, None), BoundaryList.from_times([]), 1.0)
    with np.errstate(over="ignore"):
        total = float(vector.sum())
    assert str(excinfo.value) == message.format(total=total)


class BadWeightModel(ReferenceModel):
    """The reference model with one bad weight on an OFF id no note has opened."""

    def __init__(self, weight: float):
        super().__init__()
        self.weight = weight

    def _weights(self, state, offsets, valence, arousal):
        bad = (Token.off(Instrument.BASS, 40).id, self.weight)
        return sorted([*super()._weights(state, offsets, valence, arousal), bad])


@pytest.mark.parametrize("weight", [np.nan, np.inf, -1e-9])
def test_builtin_model_weights_are_checked_over_every_id_before_the_mask(weight):
    # the bad id is masked out, but the check sees every pair first, as for a vector
    with pytest.raises(GenerationError) as excinfo:
        generate(BadWeightModel(weight), VAPoint(None, None), BoundaryList.from_times([]), 1.0)
    assert str(excinfo.value) == "step 1: model distribution has invalid entries"


def test_temperature_underflow_of_a_flat_vector_raises():
    # Each valid id has about 1/770 after masking; to the power 200 that is 0.
    with pytest.raises(GenerationError) as excinfo:
        generate(
            ConstModel(_uniform()),
            VAPoint(None, None),
            BoundaryList.from_times([]),
            1.0,
            config=PipelineConfig(temperature=0.005, top_k=len(VOCABULARY)),
        )
    assert str(excinfo.value) == (
        "temperature 0.005 underflows every valid token's probability to 0 "
        "at cursor 0.000 s (step 1)"
    )


def test_temperature_underflow_of_the_reference_model_raises():
    with pytest.raises(GenerationError, match=r"temperature 0\.0001 underflows .* \(step 1\)"):
        generate(
            ReferenceModel(),
            VAPoint(None, None),
            BoundaryList.from_times([1.0]),
            2.0,
            config=PipelineConfig(temperature=1e-4, top_k=2000),
        )


def test_generate_rejects_mass_only_on_invalid_tokens():
    vector = np.zeros(len(VOCABULARY))
    vector[Token.off(Instrument.PIANO, 60).id] = 1.0
    with pytest.raises(GenerationError, match="no grammatically valid token"):
        generate(ConstModel(vector), VAPoint(None, None), BoundaryList.from_times([]), 1.0)


def test_top_k_breaks_ties_by_the_lower_id():
    # Four equal weights and k=2: only the two lowest ids survive the cut,
    # whichever SIMD path NumPy's sort and partition kernels take.
    shifts = [Token.shift(ms) for ms in (400, 8, 1000, 96)]
    vector = np.zeros(len(VOCABULARY))
    vector[[tok.id for tok in shifts]] = 0.25
    result = generate(
        ConstModel(vector),
        VAPoint(None, None),
        BoundaryList.from_times([]),
        duration_s=5.0,
        config=PipelineConfig(top_k=2),
    )
    assert result.tokens[0] is START
    assert set(result.tokens[1:]) == {Token.shift(8), Token.shift(96)}


def test_generate_max_tokens_guard():
    with pytest.raises(GenerationError, match="max_tokens"):
        generate(
            ScriptedBoundaryModel(),
            VAPoint(None, None),
            BoundaryList.from_times([5.0]),
            duration_s=60.0,
            max_tokens=5,
        )


def test_generate_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        generate(ScriptedBoundaryModel(), VAPoint(None, None), BoundaryList.from_times([]), 0.0)


def test_generate_rejects_an_unreachable_duration_before_the_first_step():
    with time_budget(1.0), pytest.raises(
        GenerationError, match=r"duration_s 1e\+308 is past the 199999 s that max_tokens=200000"
    ):
        generate(ReferenceModel(), VAPoint(None, None), BoundaryList.from_times([]), 1e308)
    # Four one-second shifts after START reach 4 s in five tokens, and no further.
    longest = ConstModel(np.eye(len(VOCABULARY))[Token.shift(1000).id])
    result = generate(longest, VAPoint(None, None), BoundaryList.from_times([]), 4.0, max_tokens=5)
    assert len(result.tokens) == 5 and result.cursor_s == 4.0
    with time_budget(1.0), pytest.raises(GenerationError, match="past the 4 s"):
        generate(longest, VAPoint(None, None), BoundaryList.from_times([]), 4.001, max_tokens=5)


@pytest.mark.parametrize("duration", [1e-300, 0.0004, 0.0005])
def test_generate_rejects_a_duration_that_rounds_to_zero_ms(duration):
    message = "duration_s must be finite and round to at least 1 ms"
    with time_budget(1.0), pytest.raises(ValueError, match=message):
        generate(ReferenceModel(), VAPoint(None, None), BoundaryList.from_times([]), duration)
    result = generate(ReferenceModel(), VAPoint(None, None), BoundaryList.from_times([]), 0.0006)
    assert result.cursor_s >= 0.0006


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_generate_rejects_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration_s must be finite"):
        generate(
            ScriptedBoundaryModel(), VAPoint(None, None), BoundaryList.from_times([]), duration
        )


def test_sampling_params_validation():
    class NoCallModel:
        def next_distribution(self, tokens, offsets, valence, arousal):
            raise AssertionError("the model was called")

    with pytest.raises(ValueError):
        PipelineConfig(temperature=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(top_k=0)
    with pytest.raises(ValueError, match="max_tokens must be >= 1"):
        generate(NoCallModel(), VAPoint(None, None), BoundaryList.from_times([]), 1.0, max_tokens=0)


def test_model_constructor_validation():
    with pytest.raises(ValueError):
        ScriptedBoundaryModel(root_pitch=116)
    with pytest.raises(ValueError):
        ReferenceModel(key_root=11)
    with pytest.raises(ValueError):
        ReferenceModel(key_root=109)


# ---------------------------------------------------------------------------
# The draw: Generator.choice's pick, found among the nonzero ids
# ---------------------------------------------------------------------------


def _oracle_vectors() -> dict[str, np.ndarray]:
    n = len(VOCABULARY)
    rng = np.random.default_rng(2024)
    one_id = np.zeros(n)
    one_id[777] = 1.0
    ties = np.zeros(n)
    ties[rng.choice(n, size=12, replace=False)] = 1.0
    ties[rng.choice(n, size=5, replace=False)] = 3.0
    subnormal = np.zeros(n)
    subnormal[rng.choice(n, size=40, replace=False)] = 5e-324 * rng.integers(1, 9, size=40)
    subnormal[[0, 3, 700, 1410]] = [0.25, 0.25, 0.3, 0.2]
    dense = rng.random(n)
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=10, replace=False)] = rng.random(10)
    vectors = {
        "one-id": one_id,
        "ties": ties,
        "subnormal": subnormal,
        "dense": dense,
        "sparse": sparse,
    }
    return {name: v / v.sum() for name, v in vectors.items()}


@pytest.mark.parametrize("name", sorted(_oracle_vectors()))
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_support_draw_matches_generator_choice(name, seed):
    probs = _oracle_vectors()[name]
    support = (probs > 0).nonzero()[0]
    pairs = list(zip(support.tolist(), probs[support].tolist()))
    state = MaskedState(np.ones(len(VOCABULARY), dtype=bool))
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = [_sample(pairs, state, 1.0, len(VOCABULARY), ours) for _ in range(50)]
    assert drawn == [int(oracle.choice(len(probs), p=probs)) for _ in range(50)]
    # one uniform per draw: the two generators are still in step
    assert ours.random() == oracle.random()


def full_width_step(probs, mask, state, temperature, top_k, rng) -> int:
    """Oracle: the sampling step as it ran over all ids under ``mask``, with the draw it called."""
    masked = np.where(mask, probs, 0.0)
    total = float(masked.sum())
    if total <= 0.0:
        raise GenerationError(
            f"no grammatically valid token has probability mass at cursor "
            f"{state.cursor_s:.3f} s (step {len(state.tokens)})"
        )
    masked /= total
    if temperature != 1.0:
        nonzero = masked > 0
        masked[nonzero] = masked[nonzero] ** (1.0 / temperature)
        tempered = float(masked.sum())
        if tempered <= 0.0:
            raise GenerationError(
                f"temperature {temperature!r} underflows every valid token's "
                f"probability to 0 at cursor {state.cursor_s:.3f} s (step {len(state.tokens)})"
            )
        masked /= tempered
    support = (masked > 0).nonzero()[0]  # ~3x faster than masked.nonzero()
    if top_k < support.size:
        # the k most probable ids, ties broken by the lower id
        keep = support[np.lexsort((support, -masked[support]))[:top_k]]
        pruned = np.zeros_like(masked)
        pruned[keep] = masked[keep]
        masked = pruned / pruned.sum()
        support = (masked > 0).nonzero()[0]
    cdf = masked[support].cumsum()
    cdf /= cdf[-1]
    return int(support[cdf.searchsorted(rng.random(), side="right")])


class MaskedState:
    """What a sampling step reads of the loop's state, with a given mask for its grammar."""

    def __init__(self, mask: np.ndarray) -> None:
        self.mask, self.tokens, self.cursor_s = mask, [START], 1.5

    def valid(self, pairs):
        return [p for p in pairs if self.mask[p[0]]]


#: top_k that never cuts: no step has more candidates than the vocabulary has ids
NO_CUT = pytest.param(len(VOCABULARY), id="None")


def _step_or_error(step, *args):
    try:
        return step(*args)
    except GenerationError as exc:
        return str(exc)


def dense_step(probs, state, temperature, top_k, rng) -> int:
    """The step as :func:`generate` takes it for a model that returns a dense vector."""
    pairs = state.valid(_dense_pairs(probs, len(state.tokens)))
    return _sample(pairs, state, temperature, top_k, rng)


@pytest.mark.parametrize("name", sorted(_oracle_vectors()))
@pytest.mark.parametrize("temperature", [1.0, 0.7, 1.3])
@pytest.mark.parametrize("top_k", [NO_CUT, 1, 2, 5, 32])  # "ties" has five ids on top
def test_support_step_matches_the_full_width_step(name, temperature, top_k):
    probs = _oracle_vectors()[name]
    sampling = (temperature, top_k)
    masks = np.random.default_rng(99)
    for seed in range(20):
        density = masks.choice([0.05, 0.3, 1.0])
        state = MaskedState(masks.random(len(VOCABULARY)) < density)
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [_step_or_error(dense_step, probs, state, *sampling, ours) for _ in range(20)]
        want = [
            _step_or_error(full_width_step, probs, state.mask, state, *sampling, oracle)
            for _ in range(20)
        ]
        assert got == want
        # one uniform per draw: the two generators are still in step
        assert ours.random() == oracle.random()


# (model, VA point, boundaries in s): runs whose every prefix is a seeded state
_BUILTIN_RUNS = [
    (ReferenceModel(), VAPoint(-0.2, 0.5), [2.0, 5.0, 8.0]),
    (ReferenceModel(key_root=48), VAPoint(0.9, -0.8), [1.0, 1.5, 6.0]),
    (ReferenceModel(key_root=72), VAPoint(None, None), []),
    (ScriptedBoundaryModel(), VAPoint(0.3, 0.3), [2.0, 5.0, 8.0]),
]


@pytest.mark.parametrize("run", range(len(_BUILTIN_RUNS)))
@pytest.mark.parametrize("temperature", [1.0, 0.7, 1.3, 2.0])
@pytest.mark.parametrize("top_k", [NO_CUT, 1, 2, 5, 32])
def test_builtin_pairs_step_matches_the_full_width_step(run, temperature, top_k):
    model, va, bounds = _BUILTIN_RUNS[run]
    boundaries = BoundaryList.from_times(bounds)
    result = generate(model, va, boundaries, 10.0, seed=run)
    sampling = (temperature, top_k)
    state = GeneratorState(boundaries)
    for step, token in enumerate(result.tokens):
        on_token(state, token, SchedulerParams())
        probs = model.next_distribution(state.tokens, state.offsets, va.valence, va.arousal)
        mask = oracle_grammar_mask(state.tokens)
        pairs = state.valid(model._weights(state, state.offsets, va.valence, va.arousal))
        ours, oracle = np.random.default_rng(step), np.random.default_rng(step)
        got = [_step_or_error(_sample, pairs, state, *sampling, ours) for _ in range(5)]
        want = [
            _step_or_error(full_width_step, probs, mask, state, *sampling, oracle)
            for _ in range(5)
        ]
        assert got == want, f"step {step}"
        # one uniform per draw: the two generators are still in step
        assert ours.random() == oracle.random()


class Delegate:
    """A plain object that hands each call to a built-in model, so generate reads its vector."""

    def __init__(self, model) -> None:
        self.model = model

    def next_distribution(self, tokens, offsets, valence, arousal):
        return self.model.next_distribution(tokens, offsets, valence, arousal)


@pytest.mark.parametrize("run", range(len(_BUILTIN_RUNS)))
@pytest.mark.parametrize("temperature", [1.0, 0.7, 1.3])
@pytest.mark.parametrize("top_k", [NO_CUT, 1, 2, 5, 32])
def test_a_builtin_model_draws_the_same_stream_as_its_vector(run, temperature, top_k):
    # A built-in model's pairs and its checked vector meet at one grammar step and one draw.
    model, va, bounds = _BUILTIN_RUNS[run]
    boundaries = BoundaryList.from_times(bounds)
    config = PipelineConfig(temperature=temperature, top_k=top_k)
    for seed in range(6):
        own, wrapped = (
            generate(m, va, boundaries, 10.0, config, seed=seed) for m in (model, Delegate(model))
        )
        assert (own.tokens, own.offsets) == (wrapped.tokens, wrapped.offsets), f"seed {seed}"


# ---------------------------------------------------------------------------
# Scripted model: provable boundary hits
# ---------------------------------------------------------------------------


def test_scripted_model_consumes_all_boundaries():
    boundaries = BoundaryList.from_times([5.0, 12.0])
    result = generate(
        ScriptedBoundaryModel(),
        VAPoint(None, None),
        boundaries,
        duration_s=20.0,
        seed=0,
    )
    assert result.consumed == [5.0, 12.0]
    assert result.expired == []
    assert result.pending == []
    assert result.cursor_s >= 20.0


@pytest.mark.parametrize(
    "config",
    [
        PipelineConfig(sensitivity_s=0.3),
        PipelineConfig(sensitivity_s=0.1),
        PipelineConfig(sensitivity_s=0.005),
        PipelineConfig(max_offset_s=0.4),
        PipelineConfig(sensitivity_s=0.005, max_offset_s=0.4),
    ],
    ids=["xi 300 ms", "xi 100 ms", "xi 5 ms", "cap 400 ms", "xi 5 ms, cap 400 ms"],
)
def test_scripted_model_consumes_every_boundary_of_a_narrow_window(config):
    # off the 8 ms grid, and two boundaries closer than the approach margin
    boundaries = BoundaryList.from_times([1.0, 2.503, 2.9, 6.123, 9.0])
    result = generate(
        ScriptedBoundaryModel(),
        VAPoint(None, None),
        boundaries,
        duration_s=12.0,
        config=config,
        max_tokens=5000,
    )
    assert result.consumed == list(boundaries.times_s)
    assert result.expired == result.pending == []


def test_scripted_model_is_seed_independent():
    boundaries = [3.0, 7.5, 14.0]
    runs = [
        generate(
            ScriptedBoundaryModel(),
            VAPoint(None, None),
            BoundaryList.from_times(boundaries),
            duration_s=18.0,
            seed=seed,
        ).tokens
        for seed in (0, 999)
    ]
    assert runs[0] == runs[1]


def test_scripted_output_decodes_to_audible_chords_near_boundaries():
    result = generate(
        ScriptedBoundaryModel(),
        VAPoint(None, None),
        BoundaryList.from_times([5.0, 12.0]),
        duration_s=20.0,
        seed=0,
    )
    decoded = decode_events(result.tokens)
    assert decoded.unclosed_notes == 0
    spans = detect_chords(decoded.score)
    for target_ms in (5000, 12000):
        assert any(abs(span.onset_ms - target_ms) < 1000 for span in spans), (
            f"no chord within 1 s of {target_ms} ms: "
            f"{[s.onset_ms for s in spans]}"
        )


# ---------------------------------------------------------------------------
# Reference model behaviour
# ---------------------------------------------------------------------------


def test_reference_chord_probability_rises_as_offset_shrinks():
    model = ReferenceModel()
    history, cid = [START], CHORD.id
    near = model.next_distribution(history, [0.1], 0.5, 0.0)[cid]
    mid = model.next_distribution(history, [0.6], 0.5, 0.0)[cid]
    far = model.next_distribution(history, [4.0], 0.5, 0.0)[cid]
    assert near > mid > far


@pytest.mark.parametrize(
    "valence,scale",
    [(0.8, MAJOR_SCALE), (-0.8, MINOR_SCALE)],
)
def test_reference_model_stays_in_scale(valence, scale):
    result = generate(
        ReferenceModel(key_root=60),
        VAPoint(valence, 0.0),
        BoundaryList.from_times([4.0, 11.0]),
        duration_s=20.0,
        seed=7,
    )
    classes = {t.pitch % 12 for t in result.tokens if t.kind is TokenKind.ON}
    assert classes, "generation produced no notes"
    assert classes <= set(scale)


def test_reference_model_arousal_sets_pace():
    def shifts(arousal: float) -> int:
        result = generate(
            ReferenceModel(),
            VAPoint(0.0, arousal),
            BoundaryList.from_times([]),
            duration_s=30.0,
            seed=3,
        )
        return sum(1 for t in result.tokens if t.kind is TokenKind.TIMESHIFT)

    assert shifts(0.8) > shifts(-0.8)


def test_reference_model_duration_window():
    result = generate(
        ReferenceModel(),
        VAPoint(0.3, 0.1),
        BoundaryList.from_times([3.0]),
        duration_s=10.0,
        seed=5,
    )
    assert 10.0 <= result.cursor_s < 11.0


def test_generated_sequence_respects_grammar_at_every_step():
    result = generate(
        ReferenceModel(),
        VAPoint(0.2, 0.1),
        BoundaryList.from_times([3.0, 8.0]),
        duration_s=12.0,
        seed=11,
    )
    for i, tok in enumerate(result.tokens):
        mask = grammar_mask(result.tokens[:i])
        assert mask[tok.id], f"token {tok.name} invalid at step {i}"


def test_generation_is_deterministic_per_seed():
    def run(seed: int):
        return generate(
            ReferenceModel(),
            VAPoint(0.1, 0.4),
            BoundaryList.from_times([2.0, 6.0]),
            duration_s=9.0,
            seed=seed,
        ).tokens

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_temperature_and_top_k_paths_complete():
    result = generate(
        ReferenceModel(),
        VAPoint(0.0, 0.0),
        BoundaryList.from_times([2.0]),
        duration_s=6.0,
        config=PipelineConfig(temperature=0.25, top_k=1),
        seed=1,
    )
    assert result.cursor_s >= 6.0
    decode_events(result.tokens)  # the stream decodes


def test_diagnostics_round_trip():
    result = generate(
        ScriptedBoundaryModel(),
        VAPoint(None, None),
        BoundaryList.from_times([2.0, 20.0]),
        duration_s=6.0,
        seed=0,
    )
    diag = result.diagnostics()
    assert diag["boundaries_total"] == 2
    assert diag["boundaries_consumed"] == [2.0]
    assert diag["boundaries_pending"] == [20.0]
    assert diag["chord_count"] == sum(1 for t in result.tokens if t.kind is TokenKind.CHORD) >= 1
    assert diag["token_count"] == len(result.tokens)
    assert json.loads(json.dumps(diag)) == diag


def test_one_boundary_list_serves_repeated_runs():
    bounds = BoundaryList.from_times([1.5, 4.0, 6.5])
    runs = [
        generate(ReferenceModel(), VAPoint(0.4, 0.7), bounds, 8.0, seed=3)
        for _ in range(2)
    ]
    for field in ("tokens", "offsets", "states", "cursor_ms"):
        assert getattr(runs[0], field) == getattr(runs[1], field)
    assert runs[0].consumed  # the run moved its own states, not the list
    assert bounds == BoundaryList.from_times([1.5, 4.0, 6.5])


def test_diagnostics_count_every_chord_token():
    tokens = [START, CHORD, Token.shift(8), Token(TokenKind.CHORD), PAD]  # one not shared
    state = GeneratorState(BoundaryList.from_times([]))
    for token in tokens:
        on_token(state, token, SchedulerParams())
    assert state.diagnostics()["chord_count"] == 2


# ---------------------------------------------------------------------------
# Golden streams: byte-identical output across refactors of the loop
# ---------------------------------------------------------------------------

# (seed, boundaries in s, VA point, duration in s, key root / triad root)
GOLDEN_CASES = [
    (0, [], VAPoint(None, None), 12.0, 60),
    (1, [2.0, 5.5, 9.0], VAPoint(0.8, 0.6), 12.0, 62),
    (2, [0.5, 1.2, 7.0, 7.9], VAPoint(-0.7, -0.5), 12.0, 57),
    (3, [3.3, 10.1, 14.6], VAPoint(None, 0.9), 16.0, 64),
    (4, [1.0, 4.0, 8.0, 12.0], VAPoint(0.2, None), 14.0, 48),
    (5, [6.25], VAPoint(-0.1, 0.0), 10.0, 72),
    (6, [0.0, 2.5, 5.0, 7.5, 10.0], VAPoint(1.0, -1.0), 12.0, 55),
    (7, [11.0, 11.9], VAPoint(0.5, 0.5), 13.0, 67),
    (8, [4.0, 9.5, 17.0, 23.0, 31.5, 36.0], VAPoint(-0.4, 0.3), 40.0, 60),
]
GOLDEN_SAMPLING = {"t1-k32": (1.0, 32), "t0.7-all": (0.7, len(VOCABULARY)), "t1.3-k5": (1.3, 5)}


class DenseModel:
    """Every id nonzero, redrawn each step from a generator seeded by ``seed``.

    Most ids share the weights 1-3, so ties abound; 200 random ids get the
    distinct weights 4-203, so a top-k cut never splits a tie and these
    goldens do not depend on the tie-break rule.
    The built-in models put mass on about ten ids, so only this model
    drives the full-width temperature and top-k paths over a dense vector.
    """

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def next_distribution(self, tokens, offsets, valence, arousal):
        n = len(VOCABULARY)
        weights = self.rng.integers(1, 4, size=n).astype(np.float64)
        weights[self.rng.choice(n, size=200, replace=False)] = 4.0 + self.rng.permutation(200)
        return weights / weights.sum()


GOLDEN_MODELS = {
    "reference": lambda root: ReferenceModel(key_root=root),
    "scripted": lambda root: ScriptedBoundaryModel(root_pitch=root),
    "dense": DenseModel,
}


def stream_digest(result) -> str:
    """sha256 over token names, offsets and final boundary states."""
    h = hashlib.sha256()
    for tok, off in zip(result.tokens, result.offsets):
        h.update(f"{tok.name} {off!r}\n".encode())
    h.update(repr([s.value for s in result.states]).encode())
    return h.hexdigest()


def golden_run(model_name: str, sampling_name: str, case_index: int):
    seed, bounds, va, duration, root = GOLDEN_CASES[case_index]
    temperature, top_k = GOLDEN_SAMPLING[sampling_name]
    return generate(
        GOLDEN_MODELS[model_name](root),
        va,
        BoundaryList.from_times(bounds),
        duration_s=duration,
        config=PipelineConfig(temperature=temperature, top_k=top_k),
        seed=seed,
    )


GOLDEN_DIGESTS = {
    "reference/t1-k32/0": "603720c1d9b005d19681c20065f707db3823f6ffc4b77ae5cf22f48cd99a1358",
    "reference/t1-k32/1": "e0073475512687daa4ae0e2a93076c07a68c4e222c62e3e668849ab8565b0fe7",
    "reference/t1-k32/2": "93667e555c564ca089da83dc855eeb5f46a818a40639cb282fdc04e0e939049b",
    "reference/t1-k32/3": "73dafee321f70229cee425b65482390395f836823b0ddcee9b39ec075b774995",
    "reference/t1-k32/4": "c6f1196260ab01363ea26be24d6af7bfa1c8717441444851f8ca016f6f82dc4f",
    "reference/t1-k32/5": "23a560880fb052f009b65d3cf474ce2570762e31550cf4177be58af9acaaba4f",
    "reference/t1-k32/6": "7be4923a1a0d99d09266651b9ac160a2de5eee83fbe326aabdd5a8e82c82f686",
    "reference/t1-k32/7": "a457095e74319da2e65babdf30146b9820c7cf403af678212d97044da40c589c",
    "reference/t1-k32/8": "17c1f32b84c6cf8ef9579d6b7e03fae5cf5a8f539fff4ff02b04f9f8a2325609",
    "reference/t0.7-all/0": "8b077f7be8b73fc4b9b707289679a915b199d93cb0d06baaccdd995bf3b19ddd",
    "reference/t0.7-all/1": "7958e8f1f246a4c9044b39c16c5a48086c62a18b310ad9c694f355b9642f951e",
    "reference/t0.7-all/2": "9f397728d4f9a2cfbd3f836ca25cbf294a343109485709a6af18b106b71dbd7e",
    "reference/t0.7-all/3": "e50232f877511c3881261c7cc0b1e8d476968d1c6d91675eb04b86006ea5a9b0",
    "reference/t0.7-all/4": "4a70722b3099039b059fe95b9590fd5cd4e085b63f2f244248b180db821444b1",
    "reference/t0.7-all/5": "b30c0b276bc6913fee21061025ecd7d68b83f34fcd479b2e432b7af978e68075",
    "reference/t0.7-all/6": "ffa438889b6564576ca682fbf1b0c155bbb39b7e43bc5d0d161d66581255de1a",
    "reference/t0.7-all/7": "6ab439b861ac442cbe4b52042717f2a88d12b217f945059527933110c0d4b582",
    "reference/t0.7-all/8": "dfb06cb9b59458ffae911b5daf79b503d1906309d67b83bc4d708493d65b3785",
    "reference/t1.3-k5/0": "b0e8c24393ae3071a647119d8f224242ffa839ce6387dab4bb61013e4223eaff",
    "reference/t1.3-k5/1": "a44248f511d67168bc8afe17527a66840b825c450fa51679d15daf39795c360a",
    "reference/t1.3-k5/2": "030f870a65531fe00b2ae9ef97bcacfea720ef2c6bbc1f6c77a30ba66bb73d88",
    "reference/t1.3-k5/3": "a5242fe4166d101852fb51ed621160f7dc84f7d75742dbfa4dcaf7b41f4ca633",
    "reference/t1.3-k5/4": "1241126f9bab0f9da15a1f469a26888dc97d5042100f6fb5a5e338b34d847883",
    "reference/t1.3-k5/5": "ec718b0163e88a7acbbea3cf02506f1698fcada1e5bb50e6b3776b7b567a75e1",
    "reference/t1.3-k5/6": "6a60b88e0aaace3db8f9a4c4c7674f723a1f5a2a8afac6e48fc8053c5f30b1df",
    "reference/t1.3-k5/7": "b7a8279ac153fa42764e507e65e0ac02b28f473bcd7799608f29319c15baa7e6",
    "reference/t1.3-k5/8": "8ee54edf1046e3788c15b25538a603ad464661115ce954fa2a444fef18d57d18",
    "dense/t1-k32/0": "1bc5a93f224f9a7f0179563dd36a066c0877137c1f8d08e7dc279280afdbd0b5",
    "dense/t1-k32/1": "1770cd1d3e9f865f2f77435a80ef857451d5efdf8200f01ac5762430aade0c42",
    "dense/t1-k32/2": "65a8dd6fae69bae505a1925a0baec084df42e682ae057f67489ef44159b2939e",
    "dense/t1-k32/3": "657e1e3bb7c5dab19a4fc5c6d9c6499bb1d2991bfe4be627881a10fd1ba91562",
    "dense/t1-k32/4": "4722255701d1d3cdfc0a95b085e31ab09adf0e2eb81aab01554bb281b45f7fea",
    "dense/t1-k32/5": "2ac8235c33a2cd2e4eb3ad2d9b4d4cbd54c1023e8c635cf481e9575d90b4f5a4",
    "dense/t1-k32/6": "8413ed1a319e5d6a1aa8d58ff8efbe23ff3f1cae03ca09eb17fcc542604edcdf",
    "dense/t1-k32/7": "097dc9ac85bbab7c7854765eb0ca84e617b73a5c46528f11e2b4a87f2b53fcdb",
    "dense/t1-k32/8": "6a163783bcea3944e36d6fb97b51f8f13bec028cd42af6defc6bb0f6e6fc267d",
    "dense/t0.7-all/0": "e32ede35447dddd477a9eea0fa1024bf44f39cbfd82856eabf4fbad5c2e01b05",
    "dense/t0.7-all/1": "721fe6e5286c076b958ab68bd3d5019f2fe9fffb89440e1bc034b1a06ecd5ae6",
    "dense/t0.7-all/2": "8146fcdcfd0c5a597914a71b5d41490b43d2148c2b5c495efc3d62ba54f08088",
    "dense/t0.7-all/3": "fa3db2d30b45e4bbbea15afba0c32abc04046afdbba3303823bf3d2001a3569f",
    "dense/t0.7-all/4": "9cfe7261033d2f86f9d9ff3406a9dde12116a18c1106e029bbd3402449b5aa0b",
    "dense/t0.7-all/5": "2eb97b711c1a90ae87b8152d9959b0aa9b4a9124932df1815e9916130da6f931",
    "dense/t0.7-all/6": "de91c98f0a71abf21852263a43043d49a64625add7d42b2d3b313d0d24beb9c4",
    "dense/t0.7-all/7": "9a6c13d959343ed922b2eed814b89e5d59265024616bc72868542c784cd75519",
    "dense/t0.7-all/8": "af08b8ba7bfb031b680a8a428f67f93493305b2c9176321e526bc843720c8c01",
    "dense/t1.3-k5/0": "db42b9d4fb84a4dc281aac84399fa9c89d1fad4d3ab3ec8872d2370cf5f02511",
    "dense/t1.3-k5/1": "970f0a3761c3a32f8ae75e088fa5e8fed8886df0f727b648dfbdd35a8df614b4",
    "dense/t1.3-k5/2": "6b0ceb7d3f76a45e575df3850e23d08865ba999fa4ed5cada6b833d59d78f723",
    "dense/t1.3-k5/3": "93a640968dcc70baee3540b1034009345a77078b46d70ac51fdfafb9c7eb29c6",
    "dense/t1.3-k5/4": "41f0865e1b08a369a8bb0da76f958229e70e7a24bdb3bfd1a56ac841a9c683ab",
    "dense/t1.3-k5/5": "744c66642455ab4108b414b4cceaf2ba66c9437e6aec979d0a2b5014f8fb85cc",
    "dense/t1.3-k5/6": "ad1603df77d0cbb0ce5863fd70d54cc84126ee08bec14c93db925f08637759da",
    "dense/t1.3-k5/7": "949a5e5a8793dd05e2e01a3688c5825251d769cfb0514456644e70581cb03829",
    "dense/t1.3-k5/8": "f9af65c21eb1b9584f1fcb6f62fab619d1cfecea3baec2d6b7dd58185eb94003",
    "scripted/t1-k32/0": "92cf1aa367814c8350050743ce1c3c0f33f4e005cace7bcef7d850867d65ef6a",
    "scripted/t1-k32/1": "8e174d967484d0bd042391fd7f5c6c2b978cff1eba1509ca59085c60473651cd",
    "scripted/t1-k32/2": "569631b2a0b857c016274223078c741e763c16aa47ac694a3f08568cf6fdb81c",
    "scripted/t1-k32/3": "8bd5fcae568b59dfb88494386fedc1ad92427b836f310d71b5723b20a7a0ac99",
    "scripted/t1-k32/4": "3be9e7976731deaeee3eb4e0801bb6dc2a697c816ad5c525f7810112fc34d4fc",
    "scripted/t1-k32/5": "bdac5cae5bb78f14e71521a3443672203155d16985be7fb10e6ec287631bcbf2",
    "scripted/t1-k32/6": "ca4341d69dc05c5b2a0fb14e634adfb8c403945911d9b227c3fe04dc820e02ab",
    "scripted/t1-k32/7": "3c3f712a7a6ea4606830eb797dcad0052ebfb05369aa636fa64367c4456fbaa4",
    "scripted/t1-k32/8": "3766c6a4bf4d1ef3761d1e1432dbead0bbb0b7be74990176698cf3a40eb3ff0f",
    "scripted/t0.7-all/0": "92cf1aa367814c8350050743ce1c3c0f33f4e005cace7bcef7d850867d65ef6a",
    "scripted/t0.7-all/1": "8e174d967484d0bd042391fd7f5c6c2b978cff1eba1509ca59085c60473651cd",
    "scripted/t0.7-all/2": "569631b2a0b857c016274223078c741e763c16aa47ac694a3f08568cf6fdb81c",
    "scripted/t0.7-all/3": "8bd5fcae568b59dfb88494386fedc1ad92427b836f310d71b5723b20a7a0ac99",
    "scripted/t0.7-all/4": "3be9e7976731deaeee3eb4e0801bb6dc2a697c816ad5c525f7810112fc34d4fc",
    "scripted/t0.7-all/5": "bdac5cae5bb78f14e71521a3443672203155d16985be7fb10e6ec287631bcbf2",
    "scripted/t0.7-all/6": "ca4341d69dc05c5b2a0fb14e634adfb8c403945911d9b227c3fe04dc820e02ab",
    "scripted/t0.7-all/7": "3c3f712a7a6ea4606830eb797dcad0052ebfb05369aa636fa64367c4456fbaa4",
    "scripted/t0.7-all/8": "3766c6a4bf4d1ef3761d1e1432dbead0bbb0b7be74990176698cf3a40eb3ff0f",
    "scripted/t1.3-k5/0": "92cf1aa367814c8350050743ce1c3c0f33f4e005cace7bcef7d850867d65ef6a",
    "scripted/t1.3-k5/1": "8e174d967484d0bd042391fd7f5c6c2b978cff1eba1509ca59085c60473651cd",
    "scripted/t1.3-k5/2": "569631b2a0b857c016274223078c741e763c16aa47ac694a3f08568cf6fdb81c",
    "scripted/t1.3-k5/3": "8bd5fcae568b59dfb88494386fedc1ad92427b836f310d71b5723b20a7a0ac99",
    "scripted/t1.3-k5/4": "3be9e7976731deaeee3eb4e0801bb6dc2a697c816ad5c525f7810112fc34d4fc",
    "scripted/t1.3-k5/5": "bdac5cae5bb78f14e71521a3443672203155d16985be7fb10e6ec287631bcbf2",
    "scripted/t1.3-k5/6": "ca4341d69dc05c5b2a0fb14e634adfb8c403945911d9b227c3fe04dc820e02ab",
    "scripted/t1.3-k5/7": "3c3f712a7a6ea4606830eb797dcad0052ebfb05369aa636fa64367c4456fbaa4",
    "scripted/t1.3-k5/8": "3766c6a4bf4d1ef3761d1e1432dbead0bbb0b7be74990176698cf3a40eb3ff0f",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_DIGESTS))
def test_golden_stream(key):
    model_name, sampling_name, case_index = key.split("/")
    result = golden_run(model_name, sampling_name, int(case_index))
    assert stream_digest(result) == GOLDEN_DIGESTS[key]


def test_top_k_goldens_hold_with_numpy_dispatch_disabled():
    """Rerun the ``reference/t1.3-k5`` goldens on NumPy's baseline code path.

    The subprocess switches off every SIMD target the running NumPy
    dispatches to and this CPU has; names from NumPy's own list are
    valid for that NumPy, so its import stays silent under ``-W error``.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    disabled = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    keys = [key for key in sorted(GOLDEN_DIGESTS) if key.startswith("reference/t1.3-k5/")]
    proc = subprocess.run(
        [
            sys.executable,
            *(f"-W{option}" for option in sys.warnoptions),
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            *(f"{__file__}::test_golden_stream[{key}]" for key in keys),
        ],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(keys)} passed" in proc.stdout


def test_golden_table_covers_every_case():
    expected = {
        f"{m}/{s}/{i}"
        for m in GOLDEN_MODELS
        for s in GOLDEN_SAMPLING
        for i in range(len(GOLDEN_CASES))
    }
    assert set(GOLDEN_DIGESTS) == expected
