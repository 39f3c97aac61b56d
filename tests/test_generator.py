from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from midisync.chords import detect_chords
from midisync.emotion import VAPoint
from midisync.generator import (
    DecodeState,
    GenerationError,
    MAJOR_SCALE,
    MINOR_SCALE,
    ReferenceModel,
    SamplingParams,
    ScriptedBoundaryModel,
    assemble_input,
    generate,
    grammar_mask,
)
from midisync.midi_codec import decode_events
from midisync.scheduler import BoundaryList
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
    return [VOCABULARY.id_of(t) for t in tokens]


# ---------------------------------------------------------------------------
# Grammar mask
# ---------------------------------------------------------------------------


def test_mask_empty_history_allows_start_and_pad_but_no_offs():
    mask = grammar_mask([])
    assert mask[VOCABULARY.id_of(START)]
    assert mask[VOCABULARY.id_of(PAD)]
    assert mask[VOCABULARY.id_of(CHORD)]
    assert mask[VOCABULARY.id_of(Token.on(Instrument.PIANO, 60))]
    for tok in VOCABULARY:
        if tok.kind is TokenKind.OFF:
            assert not mask[VOCABULARY.id_of(tok)]


def test_mask_start_and_pad_only_at_position_zero():
    mask = grammar_mask([START])
    assert not mask[VOCABULARY.id_of(START)]
    assert not mask[VOCABULARY.id_of(PAD)]


def test_mask_off_requires_matching_open_note():
    history = [START, Token.on(Instrument.PIANO, 60)]
    mask = grammar_mask(history)
    assert mask[VOCABULARY.id_of(Token.off(Instrument.PIANO, 60))]
    assert not mask[VOCABULARY.id_of(Token.off(Instrument.PIANO, 61))]
    assert not mask[VOCABULARY.id_of(Token.off(Instrument.BASS, 60))]


def test_mask_off_disabled_again_after_close():
    history = [
        START,
        Token.on(Instrument.PIANO, 60),
        Token.off(Instrument.PIANO, 60),
    ]
    assert not grammar_mask(history)[VOCABULARY.id_of(Token.off(Instrument.PIANO, 60))]


def test_mask_off_counts_stacked_unisons():
    history = [
        START,
        Token.on(Instrument.PIANO, 60),
        Token.on(Instrument.PIANO, 60),
        Token.off(Instrument.PIANO, 60),
    ]
    # one of the two unison notes is still sounding
    assert grammar_mask(history)[VOCABULARY.id_of(Token.off(Instrument.PIANO, 60))]


def test_mask_blocks_chord_until_a_note_follows():
    cid = VOCABULARY.id_of(CHORD)
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
            mask[VOCABULARY.id_of(tok)] = False
    for (instrument, pitch), count in oracle_open_note_counts(tokens).items():
        if count > 0:
            mask[VOCABULARY.id_of(Token.off(instrument, pitch))] = True
    if tokens:
        mask[VOCABULARY.id_of(START)] = False
        mask[VOCABULARY.id_of(PAD)] = False
    for tok in reversed(tokens):
        if tok.kind is TokenKind.ON:
            break
        if tok.kind is TokenKind.CHORD:
            mask[VOCABULARY.id_of(CHORD)] = False
            break
    return mask


def _oracle_streams() -> list[list[Token]]:
    streams = [
        generate(
            model,
            VAPoint(0.4, 0.7),
            BoundaryList.from_times([1.5, 4.0, 6.5, 9.0]),
            duration_s=12.0,
            sampling=SamplingParams(seed=seed, top_k=None),
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
            assert np.array_equal(state.mask(), expected), f"prefix {i}"
            assert np.array_equal(grammar_mask(tokens[:i]), expected), f"prefix {i}"
            if i < len(tokens):
                state.push(tokens[i])


def _history(seed: int, model) -> tuple[list[Token], list[float]]:
    result = generate(
        model,
        VAPoint(-0.2, 0.5),
        BoundaryList.from_times([2.0, 5.0, 8.0]),
        duration_s=10.0,
        sampling=SamplingParams(seed=seed),
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


# ---------------------------------------------------------------------------
# Input assembly
# ---------------------------------------------------------------------------


def test_assembly_shapes():
    tokens = [START] + [Token.shift(8)] * 9
    offsets = [0.5] + [0.25] * 9
    asm = assemble_input(tokens, offsets, VAPoint(0.1, -0.2), feature_dim=512)
    assert asm.sequence_length == 12
    assert asm.token_count == 10
    assert asm.position_feature_dim == 256
    assert asm.offset_feature_dim == 256
    assert asm.position_feature_dim + asm.offset_feature_dim == asm.feature_dim
    assert len(asm.position_offsets) == 12
    assert asm.position_offsets[0] == asm.position_offsets[1] == 0.5
    assert asm.valence == 0.1 and asm.arousal == -0.2
    assert not asm.valence_substituted and not asm.arousal_substituted


def test_assembly_empty_sequence_uses_default_offset():
    asm = assemble_input([], [], VAPoint(None, None), feature_dim=8, default_offset=4.0)
    assert asm.sequence_length == 2
    assert asm.position_offsets == (4.0, 4.0)
    assert asm.valence_substituted and asm.arousal_substituted


def test_assembly_partial_substitution_flags():
    asm = assemble_input([START], [1.0], VAPoint(None, 0.3), feature_dim=16)
    assert asm.valence is None and asm.valence_substituted
    assert asm.arousal == 0.3 and not asm.arousal_substituted


def test_assembly_rejects_bad_feature_dim_and_misalignment():
    with pytest.raises(ValueError):
        assemble_input([], [], VAPoint(None, None), feature_dim=7)
    with pytest.raises(ValueError):
        assemble_input([], [], VAPoint(None, None), feature_dim=0)
    with pytest.raises(ValueError):
        assemble_input([START], [], VAPoint(None, None), feature_dim=8)


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


def test_generate_rejects_mass_only_on_invalid_tokens():
    vector = np.zeros(len(VOCABULARY))
    vector[VOCABULARY.id_of(Token.off(Instrument.PIANO, 60))] = 1.0
    with pytest.raises(GenerationError, match="no grammatically valid token"):
        generate(ConstModel(vector), VAPoint(None, None), BoundaryList.from_times([]), 1.0)


def test_generate_max_tokens_guard():
    with pytest.raises(GenerationError, match="max_tokens"):
        generate(
            ScriptedBoundaryModel(),
            VAPoint(None, None),
            BoundaryList.from_times([5.0]),
            duration_s=60.0,
            sampling=SamplingParams(max_tokens=5),
        )


def test_generate_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        generate(ScriptedBoundaryModel(), VAPoint(None, None), BoundaryList.from_times([]), 0.0)


@pytest.mark.parametrize("duration", [float("nan"), float("inf")])
def test_generate_rejects_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration_s must be finite"):
        generate(
            ScriptedBoundaryModel(), VAPoint(None, None), BoundaryList.from_times([]), duration
        )


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")])
def test_sampling_params_reject_non_finite_temperature(temperature):
    with pytest.raises(ValueError, match="temperature must be finite"):
        SamplingParams(temperature=temperature)


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(temperature=0.0)
    with pytest.raises(ValueError):
        SamplingParams(top_k=0)
    with pytest.raises(ValueError):
        SamplingParams(max_tokens=0)
    assert SamplingParams(top_k=None).top_k is None


def test_model_constructor_validation():
    with pytest.raises(ValueError):
        ScriptedBoundaryModel(root_pitch=116)
    with pytest.raises(ValueError):
        ReferenceModel(key_root=11)
    with pytest.raises(ValueError):
        ReferenceModel(key_root=109)


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
        sampling=SamplingParams(seed=0),
    )
    assert result.consumed == [5.0, 12.0]
    assert result.expired == []
    assert result.pending == []
    assert result.final_cursor_s >= 20.0


def test_scripted_model_is_seed_independent():
    boundaries = [3.0, 7.5, 14.0]
    runs = [
        generate(
            ScriptedBoundaryModel(),
            VAPoint(None, None),
            BoundaryList.from_times(boundaries),
            duration_s=18.0,
            sampling=SamplingParams(seed=seed),
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
        sampling=SamplingParams(seed=0),
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
    history, cid = [START], VOCABULARY.id_of(CHORD)
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
        sampling=SamplingParams(seed=7),
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
            sampling=SamplingParams(seed=3),
        )
        return sum(1 for t in result.tokens if t.kind is TokenKind.TIMESHIFT)

    assert shifts(0.8) > shifts(-0.8)


def test_reference_model_duration_window():
    result = generate(
        ReferenceModel(),
        VAPoint(0.3, 0.1),
        BoundaryList.from_times([3.0]),
        duration_s=10.0,
        sampling=SamplingParams(seed=5),
    )
    assert 10.0 <= result.final_cursor_s < 11.0


def test_generated_sequence_respects_grammar_at_every_step():
    result = generate(
        ReferenceModel(),
        VAPoint(0.2, 0.1),
        BoundaryList.from_times([3.0, 8.0]),
        duration_s=12.0,
        sampling=SamplingParams(seed=11),
    )
    for i, tok in enumerate(result.tokens):
        mask = grammar_mask(result.tokens[:i])
        assert mask[VOCABULARY.id_of(tok)], f"token {tok.name} invalid at step {i}"


def test_generation_is_deterministic_per_seed():
    def run(seed: int):
        return generate(
            ReferenceModel(),
            VAPoint(0.1, 0.4),
            BoundaryList.from_times([2.0, 6.0]),
            duration_s=9.0,
            sampling=SamplingParams(seed=seed),
        ).tokens

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_temperature_and_top_k_paths_complete():
    result = generate(
        ReferenceModel(),
        VAPoint(0.0, 0.0),
        BoundaryList.from_times([2.0]),
        duration_s=6.0,
        sampling=SamplingParams(seed=1, temperature=0.25, top_k=1),
    )
    assert result.final_cursor_s >= 6.0
    decoded = decode_events(result.tokens)
    assert decoded.score.span_ms() >= 0


def test_diagnostics_round_trip():
    result = generate(
        ScriptedBoundaryModel(),
        VAPoint(None, None),
        BoundaryList.from_times([2.0, 20.0]),
        duration_s=6.0,
        sampling=SamplingParams(seed=0),
    )
    diag = result.diagnostics()
    assert diag["boundaries_total"] == 2
    assert diag["boundaries_consumed"] == [2.0]
    assert diag["boundaries_pending"] == [20.0]
    assert diag["chord_count"] >= 1
    assert diag["token_count"] == len(result.tokens)
    assert json.loads(result.diagnostics_json()) == diag


def test_assembly_accepts_generation_output():
    result = generate(
        ReferenceModel(),
        VAPoint(0.1, 0.1),
        BoundaryList.from_times([2.0]),
        duration_s=5.0,
        sampling=SamplingParams(seed=2),
    )
    asm = assemble_input(result.tokens, result.offsets, VAPoint(0.1, 0.1))
    assert asm.sequence_length == len(result.tokens) + 2
    assert asm.position_offsets[0] == result.offsets[0]


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
GOLDEN_SAMPLING = {"t1-k32": (1.0, 32), "t0.7-all": (0.7, None), "t1.3-k5": (1.3, 5)}
GOLDEN_MODELS = {
    "reference": lambda root: ReferenceModel(key_root=root),
    "scripted": lambda root: ScriptedBoundaryModel(root_pitch=root),
}


def stream_digest(result) -> str:
    """sha256 over token names, offsets and final boundary states."""
    h = hashlib.sha256()
    for tok, off in zip(result.tokens, result.offsets):
        h.update(f"{tok.name} {off!r}\n".encode())
    h.update(repr([s.value for s in result.boundaries.states]).encode())
    return h.hexdigest()


def golden_run(model_name: str, sampling_name: str, case_index: int):
    seed, bounds, va, duration, root = GOLDEN_CASES[case_index]
    temperature, top_k = GOLDEN_SAMPLING[sampling_name]
    return generate(
        GOLDEN_MODELS[model_name](root),
        va,
        BoundaryList.from_times(bounds),
        duration_s=duration,
        sampling=SamplingParams(seed=seed, temperature=temperature, top_k=top_k),
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
    "reference/t1.3-k5/0": "6c1e40b1c3c03c62361b1b67d8caaa0755abc6e2d1a257c752b653a35c58ed95",
    "reference/t1.3-k5/1": "19959bbbec710bce187b89c0cf6b737b40d5f2b7cc3a8f5287cdc6b831c21fe2",
    "reference/t1.3-k5/2": "d18cb0b106b003ad37ead6c8c672b21240df925deb01e855ce63a90ac5f8f21a",
    "reference/t1.3-k5/3": "c8460c52c49ad69ebd54fd65b665bc61b2348247b654070f31991150a25c6542",
    "reference/t1.3-k5/4": "2e2fc77291111db16cfae5f9ea97c1c67611e8d828d88dc966720e711479d22e",
    "reference/t1.3-k5/5": "5c47330f2ac464581266d0dd4a4cfe41600c330dc0ee3465d06a92d2cf3a3075",
    "reference/t1.3-k5/6": "6a60b88e0aaace3db8f9a4c4c7674f723a1f5a2a8afac6e48fc8053c5f30b1df",
    "reference/t1.3-k5/7": "d74695b11afe758284f070c2548288cfcf6ad688654d1efc7046b6811b52ebab",
    "reference/t1.3-k5/8": "124a48cd43a1e69a7310f30ca238d3c97621ac16ff206355268754793b611458",
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


def test_golden_table_covers_every_case():
    expected = {
        f"{m}/{s}/{i}"
        for m in GOLDEN_MODELS
        for s in GOLDEN_SAMPLING
        for i in range(len(GOLDEN_CASES))
    }
    assert set(GOLDEN_DIGESTS) == expected
