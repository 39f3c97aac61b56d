"""Grammar-constrained autoregressive generation against boundaries.

A *model* here is anything that maps the generation context (token
history, per-token offset history, valence, arousal) to a probability
distribution over the vocabulary.  The loop in :func:`generate` owns
everything else: it masks grammatically invalid continuations, applies
temperature and top-k, samples with a seeded generator, feeds every
emitted token to the boundary scheduler, and stops once the time cursor
reaches the requested duration.  Grammar facts come from a
:class:`DecodeState` updated once per emitted token, never from a rescan
of the history, so every step costs the same at any history length.

Two models ship with the package: :class:`ReferenceModel`, a small
hand-written heuristic that reacts to valence/arousal and to the
current boundary offset, and :class:`ScriptedBoundaryModel`, a
deterministic walker that provably places a chord inside every
boundary's sensitivity window (useful for end-to-end pipeline checks).
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .config import PipelineConfig
from .scheduler import (
    BoundaryList,
    BoundaryState,
    GeneratorState,
    SchedulerParams,
    on_token,
)
from .tokens import (
    CHORD,
    MAX_SHIFT_MS,
    PAD,
    RESOLUTION_MS,
    START,
    VOCABULARY,
    Instrument,
    Token,
    TokenKind,
)
from .emotion import VAPoint

DEFAULT_MAX_TOKENS = 200_000

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
MINOR_SCALE = (0, 2, 3, 5, 7, 8, 10)


class GenerationError(RuntimeError):
    """The sampling loop could not continue; the message names the state."""


class NextTokenModel(Protocol):
    """Anything that proposes the next token as a vocabulary distribution."""

    def next_distribution(
        self,
        tokens: list[Token],
        offsets: list[float],
        valence: float | None,
        arousal: float | None,
    ) -> np.ndarray:
        ...


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = PipelineConfig.temperature
    top_k: int | None = PipelineConfig.top_k
    seed: int = 0
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature) or self.temperature <= 0:
            raise ValueError(f"temperature must be finite and positive, got {self.temperature}")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


# ---------------------------------------------------------------------------
# Grammar and decode state
# ---------------------------------------------------------------------------


def _id_tables():
    """ON ids and OFF ids by (instrument, pitch), shift ids by ms, and the
    mask of tokens valid at position zero (everything but OFF)."""
    on_id, off_id, shift_id = {}, {}, {}
    first_mask = np.ones(len(VOCABULARY), dtype=bool)
    for i, tok in enumerate(VOCABULARY):
        if tok.kind is TokenKind.ON:
            on_id[tok.instrument, tok.pitch] = i
        elif tok.kind is TokenKind.OFF:
            off_id[tok.instrument, tok.pitch] = i
            first_mask[i] = False
        elif tok.kind is TokenKind.TIMESHIFT:
            shift_id[tok.shift_ms] = i
    return on_id, off_id, shift_id, first_mask


# Built once from the frozen vocabulary layout, so a step looks ids up
# instead of hashing Token objects or scanning the vocabulary.
_ON_ID, _OFF_ID, _SHIFT_ID, _FIRST_MASK = _id_tables()
_CHORD_ID = VOCABULARY.id_of(CHORD)
# After position zero START and PAD are invalid too.
_BASE_MASK = _FIRST_MASK.copy()
_BASE_MASK[[VOCABULARY.id_of(START), VOCABULARY.id_of(PAD)]] = False


class DecodeState:
    """Grammar and history facts of a token prefix, updated once per token.

    * ``length`` — number of tokens folded;
    * ``cursor_ms`` — sum of the TIMESHIFTs so far;
    * ``open_notes`` — onset cursors of the sounding notes, a FIFO per
      (instrument, pitch); an OFF closes the oldest onset, an OFF with
      nothing open is ignored, and emptied FIFOs are dropped;
    * ``open_count`` — number of sounding notes;
    * ``chord_pending`` — the last CHORD has not been followed by an ON;
    * ``shifted_since_chord`` — a TIMESHIFT followed the last CHORD (also
      true before the first CHORD: no chord is owed notes);
    * ``chord_pitches`` — pitches of the ONs after the last CHORD, kept
      until the first TIMESHIFT after it;
    * ``last_on_pitch`` — pitch of the latest ON, or None.
    """

    __slots__ = (
        "length",
        "cursor_ms",
        "open_notes",
        "open_count",
        "chord_pending",
        "shifted_since_chord",
        "chord_pitches",
        "last_on_pitch",
    )

    def __init__(self) -> None:
        self.length = 0
        self.cursor_ms = 0
        self.open_notes: dict[tuple[Instrument, int], deque[int]] = {}
        self.open_count = 0
        self.chord_pending = False
        self.shifted_since_chord = True
        self.chord_pitches: list[int] = []
        self.last_on_pitch: int | None = None

    def push(self, tok: Token) -> None:
        kind = tok.kind
        if kind is TokenKind.TIMESHIFT:
            self.cursor_ms += tok.shift_ms
            self.shifted_since_chord = True
        elif kind is TokenKind.ON:
            key = (tok.instrument, tok.pitch)
            fifo = self.open_notes.get(key)
            if fifo is None:
                fifo = self.open_notes[key] = deque()
            fifo.append(self.cursor_ms)
            self.open_count += 1
            self.chord_pending = False
            self.last_on_pitch = tok.pitch
            if not self.shifted_since_chord:
                self.chord_pitches.append(tok.pitch)
        elif kind is TokenKind.OFF:
            key = (tok.instrument, tok.pitch)
            fifo = self.open_notes.get(key)
            if fifo:
                fifo.popleft()
                self.open_count -= 1
                if not fifo:
                    del self.open_notes[key]
        elif kind is TokenKind.CHORD:
            self.chord_pending = True
            self.shifted_since_chord = False
            self.chord_pitches = []
        self.length += 1

    def mask(self) -> np.ndarray:
        """Boolean mask of grammatically valid next tokens (see :func:`grammar_mask`)."""
        mask = (_BASE_MASK if self.length else _FIRST_MASK).copy()
        for key in self.open_notes:
            mask[_OFF_ID[key]] = True
        if self.chord_pending:
            mask[_CHORD_ID] = False
        return mask

    def chord_fill_remaining(self, triad: tuple[int, ...]) -> list[int]:
        """Triad pitches still owed to the most recent CHORD marker, if any."""
        if self.shifted_since_chord or len(self.chord_pitches) >= len(triad):
            return []
        return [p for p in triad if p not in self.chord_pitches]


def grammar_mask(tokens: list[Token], vocab=VOCABULARY) -> np.ndarray:
    """Boolean mask of grammatically valid next tokens.

    Rules: an OFF is valid only for a currently open (instrument,
    pitch); START and PAD are valid only at position zero; a second
    CHORD is invalid until at least one ON has followed the previous
    CHORD (a chord marker must announce some notes).  Every
    :class:`TokenVocabulary` has the same frozen id layout, so ``vocab``
    only names it.
    """
    state = DecodeState()
    for tok in tokens:
        state.push(tok)
    return state.mask()


# ---------------------------------------------------------------------------
# Model-input assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputAssembly:
    """Shape description of one assembled conditioning sequence.

    The model consumes the token sequence with two conditioning slots
    (valence, arousal) prepended, so ``sequence_length`` is always the
    token count plus two.  Each position's feature vector is split
    half/half between a position encoding and an encoding of that
    position's boundary offset; the conditioning slots reuse the first
    offset.  An unspecified valence/arousal is flagged so the model can
    substitute its learned stand-in vector.
    """

    sequence_length: int
    token_count: int
    feature_dim: int
    position_feature_dim: int
    offset_feature_dim: int
    position_offsets: tuple[float, ...]
    valence: float | None
    arousal: float | None
    valence_substituted: bool
    arousal_substituted: bool


def assemble_input(
    tokens: list[Token],
    offsets: list[float],
    va: VAPoint,
    feature_dim: int = 512,
    default_offset: float = 0.0,
) -> InputAssembly:
    """Validate and describe the model input for one sequence."""
    if feature_dim < 2 or feature_dim % 2:
        raise ValueError(f"feature_dim must be an even number >= 2, got {feature_dim}")
    if len(offsets) != len(tokens):
        raise ValueError(
            f"offsets ({len(offsets)}) must align one-to-one with tokens ({len(tokens)})"
        )
    lead = offsets[0] if offsets else default_offset
    return InputAssembly(
        sequence_length=len(tokens) + 2,
        token_count=len(tokens),
        feature_dim=feature_dim,
        position_feature_dim=feature_dim // 2,
        offset_feature_dim=feature_dim // 2,
        position_offsets=(lead, lead, *offsets),
        valence=va.valence,
        arousal=va.arousal,
        valence_substituted=va.valence is None,
        arousal_substituted=va.arousal is None,
    )


# ---------------------------------------------------------------------------
# Generation loop
# ---------------------------------------------------------------------------


@dataclass
class GenerationResult:
    tokens: list[Token]
    offsets: list[float]
    boundaries: BoundaryList
    final_cursor_s: float
    seed: int

    @property
    def consumed(self) -> list[float]:
        return self.boundaries.by_state(BoundaryState.CONSUMED)

    @property
    def expired(self) -> list[float]:
        return self.boundaries.by_state(BoundaryState.EXPIRED)

    @property
    def pending(self) -> list[float]:
        return self.boundaries.by_state(BoundaryState.PENDING)

    def diagnostics(self) -> dict:
        return {
            "token_count": len(self.tokens),
            "chord_count": sum(1 for t in self.tokens if t.kind is TokenKind.CHORD),
            "final_cursor_s": self.final_cursor_s,
            "boundaries_total": len(self.boundaries),
            "boundaries_consumed": self.consumed,
            "boundaries_expired": self.expired,
            "boundaries_pending": self.pending,
            "seed": self.seed,
        }

    def diagnostics_json(self) -> str:
        return json.dumps(self.diagnostics(), indent=2) + "\n"


def _validate_distribution(probs: np.ndarray, step: int) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (len(VOCABULARY),):
        raise GenerationError(
            f"step {step}: model distribution has shape {probs.shape}, "
            f"expected ({len(VOCABULARY)},)"
        )
    if np.any(~np.isfinite(probs)) or np.any(probs < 0):
        raise GenerationError(f"step {step}: model distribution has invalid entries")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise GenerationError(f"step {step}: model distribution sums to {total!r}, not 1")
    return probs


def generate(
    model: NextTokenModel,
    va: VAPoint,
    boundaries: BoundaryList,
    duration_s: float,
    sampling: SamplingParams | None = None,
    scheduler: SchedulerParams | None = None,
) -> GenerationResult:
    """Sample a token sequence of roughly ``duration_s`` seconds.

    The emitted history always begins with START.  Each step masks the
    model's distribution with the grammar, renormalizes, applies
    temperature (probabilities raised to 1/T) and top-k truncation, and
    samples.  The loop ends when the cursor reaches ``duration_s``
    (overshoot is below one maximal time shift), and fails loudly if
    ``max_tokens`` is hit first.
    """
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    sampling = sampling or SamplingParams()
    scheduler = scheduler or SchedulerParams()
    rng = np.random.default_rng(sampling.seed)

    state = GeneratorState.new(boundaries)
    decode = DecodeState()
    on_token(state, START, scheduler)
    decode.push(START)

    while state.cursor_s < duration_s:
        if len(state.tokens) >= sampling.max_tokens:
            raise GenerationError(
                f"exceeded max_tokens={sampling.max_tokens} at cursor "
                f"{state.cursor_s:.3f} s of {duration_s:.3f} s"
            )
        probs = _validate_distribution(
            model.next_distribution(state.tokens, state.offsets, va.valence, va.arousal),
            step=len(state.tokens),
        )
        masked = np.where(decode.mask(), probs, 0.0)
        total = float(masked.sum())
        if total <= 0.0:
            raise GenerationError(
                f"no grammatically valid token has probability mass at cursor "
                f"{state.cursor_s:.3f} s (step {len(state.tokens)})"
            )
        masked /= total
        if sampling.temperature != 1.0:
            nonzero = masked > 0
            masked[nonzero] = masked[nonzero] ** (1.0 / sampling.temperature)
            masked /= masked.sum()
        if sampling.top_k is not None and sampling.top_k < np.count_nonzero(masked):
            keep = np.argpartition(masked, -sampling.top_k)[-sampling.top_k:]
            pruned = np.zeros_like(masked)
            pruned[keep] = masked[keep]
            masked = pruned / pruned.sum()
        token = VOCABULARY.token_of(int(rng.choice(len(masked), p=masked)))
        on_token(state, token, scheduler)
        decode.push(token)

    return GenerationResult(
        tokens=state.tokens,
        offsets=state.offsets,
        boundaries=state.boundaries,
        final_cursor_s=state.cursor_s,
        seed=sampling.seed,
    )


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _snap_shift(ms: float) -> int:
    snapped = int(round(ms / RESOLUTION_MS)) * RESOLUTION_MS
    return max(RESOLUTION_MS, min(MAX_SHIFT_MS, snapped))


class _FollowedHistory:
    """A :class:`DecodeState` kept in step with the history a model is handed.

    The generation loop hands a model the same list every step, grown by
    appends; then only the new tokens are folded.  A different list, a
    shorter one, or one whose last folded token was replaced is folded
    again from scratch.  (Edits in place before that last position are
    not detected: hand the model a new list after such an edit.)  The
    state makes a model instance unsafe to share between threads.
    """

    __slots__ = ("tokens", "last", "state")

    def __init__(self) -> None:
        self.tokens: list[Token] | None = None
        self.last: Token | None = None
        self.state = DecodeState()

    def sync(self, tokens: list[Token]) -> DecodeState:
        state = self.state
        done = state.length
        if (
            tokens is not self.tokens
            or len(tokens) < done
            or (done and tokens[done - 1] is not self.last)
        ):
            state = self.state = DecodeState()
            self.tokens = tokens
            done = 0
        for i in range(done, len(tokens)):
            state.push(tokens[i])
        self.last = tokens[-1] if tokens else None
        return state


class ScriptedBoundaryModel:
    """Deterministic walker that hits every boundary's window.

    Strategy: shift toward the next boundary, stopping about 300 ms
    short; emit CHORD plus a held piano triad there; release notes once
    they have sounded for at least two beats and the next boundary is
    comfortably far.  Every distribution is one-hot, so generation is
    identical for any seed.
    """

    CHORD_TRIGGER_MS = 400
    APPROACH_MARGIN_MS = 300
    HOLD_MS = 1000
    RELEASE_FLOOR_MS = 600

    def __init__(self, root_pitch: int = 60):
        if not 0 <= root_pitch <= 115:
            raise ValueError("root_pitch must leave room for a triad above it")
        self.triad = (root_pitch, root_pitch + 4, root_pitch + 7)
        self._history = _FollowedHistory()

    def next_distribution(self, tokens, offsets, valence, arousal):
        probs = np.zeros(len(VOCABULARY))
        probs[self._next_id(tokens, offsets)] = 1.0
        return probs

    def _next_id(self, tokens: list[Token], offsets: list[float]) -> int:
        state = self._history.sync(tokens)
        offset_ms = int(round((offsets[-1] if offsets else PipelineConfig.max_offset_s) * 1000))

        remaining = state.chord_fill_remaining(self.triad)
        if remaining:
            return _ON_ID[(Instrument.PIANO, remaining[0])]
        if offset_ms <= self.CHORD_TRIGGER_MS:
            return _CHORD_ID
        ripe = [
            (starts[0], inst, pitch)
            for (inst, pitch), starts in state.open_notes.items()
            if state.cursor_ms - starts[0] >= self.HOLD_MS
        ]
        if ripe and offset_ms > self.RELEASE_FLOOR_MS:
            _, inst, pitch = min(ripe)
            return _OFF_ID[(inst, pitch)]
        return _SHIFT_ID[_snap_shift(offset_ms - self.APPROACH_MARGIN_MS)]


class ReferenceModel:
    """Hand-written heuristic model used as the package's default.

    Valence picks the scale (major above zero, minor otherwise) around a
    configurable key root; arousal sets the pacing (higher arousal means
    shorter time shifts, hence more events per second); the probability
    of a CHORD rises sharply as the boundary offset approaches zero.
    The returned weights are deterministic functions of the context, so
    fixed-seed generation is reproducible.
    """

    def __init__(
        self,
        key_root: int = 60,
        params: SchedulerParams | None = None,
        max_open_notes: int = 6,
    ):
        if not 12 <= key_root <= 108:
            raise ValueError(f"key_root should be a mid-range pitch, got {key_root}")
        self.key_root = key_root
        self.params = params or SchedulerParams()
        self.max_open_notes = max_open_notes
        self._history = _FollowedHistory()

    # -- internals -----------------------------------------------------
    def _scale(self, valence: float | None) -> tuple[int, ...]:
        v = 0.5 if valence is None else valence
        return MAJOR_SCALE if v > 0 else MINOR_SCALE

    def _triad(self, valence: float | None) -> tuple[int, int, int]:
        scale = self._scale(valence)
        return (self.key_root, self.key_root + scale[2], self.key_root + 7)

    def _step_ms(self, arousal: float | None) -> int:
        a = 0.0 if arousal is None else arousal
        return _snap_shift(550.0 - 350.0 * a)

    def _chord_weight(self, offset_s: float) -> float:
        if offset_s <= 0.4:
            return 25.0
        if offset_s <= 0.8:
            return 4.0
        return 0.02

    # -- protocol --------------------------------------------------------
    def next_distribution(self, tokens, offsets, valence, arousal):
        state = self._history.sync(tokens)
        weights = np.zeros(len(VOCABULARY))
        offset_s = offsets[-1] if offsets else self.params.max_offset_s
        step = self._step_ms(arousal)
        triad = self._triad(valence)

        remaining = state.chord_fill_remaining(triad)
        if remaining:
            for pitch in remaining:
                weights[_ON_ID[(Instrument.PIANO, pitch)]] = 1.0
            return weights / weights.sum()

        weights[_CHORD_ID] = self._chord_weight(offset_s)
        weights[_SHIFT_ID[step]] = 3.0
        weights[_SHIFT_ID[_snap_shift(step * 2)]] += 0.5
        weights[_SHIFT_ID[_snap_shift(step / 2)]] += 0.5

        if state.open_count < self.max_open_notes:
            scale = self._scale(valence)
            last_pitch = self.key_root + 12 if state.last_on_pitch is None else state.last_on_pitch
            candidates = sorted(
                (self.key_root + octave + degree for octave in (0, 12) for degree in scale),
                key=lambda p: abs(p - last_pitch),
            )[:5]
            for rank, pitch in enumerate(candidates):
                if 0 <= pitch < 128:
                    weights[_ON_ID[(Instrument.PIANO, pitch)]] += 1.2 / (rank + 1)
        for (inst, pitch), starts in state.open_notes.items():
            if state.cursor_ms - starts[0] >= 2 * step:
                weights[_OFF_ID[(inst, pitch)]] += 1.5

        return weights / weights.sum()
