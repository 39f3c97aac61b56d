"""Grammar-constrained autoregressive generation against boundaries.

A *model* here is anything that maps the generation context (token
history, per-token offset history, valence, arousal) to a probability
distribution over the vocabulary.  The loop in :func:`generate` owns
everything else: it masks grammatically invalid continuations, applies
temperature and top-k, samples with a seeded generator, feeds every
emitted token to the boundary scheduler, and stops once the time cursor
reaches the requested duration.  Its one state, the scheduler's
:class:`~midisync.scheduler.GeneratorState`, is the
:class:`~midisync.tokens.DecodeState` that also reads streams back into
notes.  :func:`~midisync.scheduler.on_token` folds each emitted token
into it once; the grammar mask and the built-in models read it, so a
step costs the same at any history length.

Checks, normalisation and temperature run over the full vector; top-k
breaks ties by the lower id, so every CPU keeps the same ids.  The draw
runs over the nonzero ids only, with one seeded uniform per step, and
picks the id ``Generator.choice`` over the full vector would.
A temperature that underflows all valid mass raises :class:`GenerationError`.

Two models ship with the package: :class:`ReferenceModel`, a small
hand-written heuristic that reacts to valence/arousal and to the
current boundary offset, and :class:`ScriptedBoundaryModel`, a
deterministic walker that provably places a chord inside every
boundary's sensitivity window (useful for end-to-end pipeline checks).
Both read the loop's state, passed as ``state=``, and keep none of their
own, so one instance is safe to share.
"""

from __future__ import annotations

import functools
import json
import math
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
    RESOLUTION_MS,
    START,
    VOCABULARY,
    DecodeState,
    Instrument,
    Token,
)
from .emotion import VAPoint

DEFAULT_MAX_TOKENS = 200_000

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
MINOR_SCALE = (0, 2, 3, 5, 7, 8, 10)


class GenerationError(RuntimeError):
    """The sampling loop could not continue; the message names the state."""


class NextTokenModel(Protocol):
    """Anything that proposes the next token as a vocabulary distribution.

    :func:`generate` makes this four-argument call; only the built-in
    models (and their subclasses) also get its state as ``state=``.
    """

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


def _fold(tokens: list[Token]) -> DecodeState:
    """A fresh :class:`DecodeState` with every token of ``tokens`` pushed."""
    state = DecodeState()
    for tok in tokens:
        state.push(tok)
    return state


def grammar_mask(tokens: list[Token]) -> np.ndarray:
    """The mask of valid next tokens after ``tokens`` (see :meth:`DecodeState.mask`)."""
    return _fold(tokens).mask()


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
    states: list[BoundaryState]
    final_cursor_s: float
    seed: int

    def _times(self, state: BoundaryState) -> list[float]:
        """Times (seconds) of the boundaries that ended the run in ``state``."""
        return [t / 1000.0 for t, s in zip(self.boundaries.times_ms, self.states) if s is state]

    @property
    def consumed(self) -> list[float]:
        return self._times(BoundaryState.CONSUMED)

    @property
    def expired(self) -> list[float]:
        return self._times(BoundaryState.EXPIRED)

    @property
    def pending(self) -> list[float]:
        return self._times(BoundaryState.PENDING)

    def diagnostics(self) -> dict:
        return {
            "token_count": len(self.tokens),
            "chord_count": sum(1 for t in self.tokens if t.id == CHORD.id),
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
    # Entries in [0, 2] rule out NaN, inf, negatives and a sum that
    # overflows; only a vector failing that pays for the full scans.
    if probs.min() >= 0 and probs.max() <= 2.0:
        total = float(probs.sum())
    elif np.any(~np.isfinite(probs)) or np.any(probs < 0):
        raise GenerationError(f"step {step}: model distribution has invalid entries")
    else:
        with np.errstate(over="ignore"):
            total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise GenerationError(f"step {step}: model distribution sums to {total!r}, not 1")
    return probs


def _draw(probs: np.ndarray, support: np.ndarray, rng: np.random.Generator) -> int:
    """The id ``rng.choice(len(probs), p=probs)`` would pick, drawn among ``support``.

    ``support`` lists the nonzero ids in order.  Zero entries leave
    ``choice``'s sequential cumsum unchanged, so its inverse CDF meets the
    same id with the same single uniform.
    """
    cdf = probs[support].cumsum()
    cdf /= cdf[-1]
    return int(support[cdf.searchsorted(rng.random(), side="right")])


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
    ``max_tokens`` is hit first, or at once if ``max_tokens - 1``
    maximal time shifts cannot reach ``duration_s``.
    """
    if not (math.isfinite(duration_s) and duration_s * 1000 > 0.5):  # rounds to >= 1 ms
        raise ValueError(f"duration_s must be finite and round to at least 1 ms, got {duration_s}")
    sampling = sampling or SamplingParams()
    reach_s = (sampling.max_tokens - 1) * MAX_SHIFT_MS / 1000
    if duration_s > reach_s:
        raise GenerationError(
            f"duration_s {duration_s!r} is past the {reach_s:g} s that "
            f"max_tokens={sampling.max_tokens} tokens can reach"
        )
    scheduler = scheduler or SchedulerParams()
    rng = np.random.default_rng(sampling.seed)

    state = GeneratorState(boundaries)
    on_token(state, START, scheduler)
    propose = model.next_distribution
    if isinstance(model, (ReferenceModel, ScriptedBoundaryModel)):
        propose = functools.partial(propose, state=state)

    while state.cursor_s < duration_s:
        if len(state.tokens) >= sampling.max_tokens:
            raise GenerationError(
                f"exceeded max_tokens={sampling.max_tokens} at cursor "
                f"{state.cursor_s:.3f} s of {duration_s:.3f} s"
            )
        probs = _validate_distribution(
            propose(state.tokens, state.offsets, va.valence, va.arousal),
            step=len(state.tokens),
        )
        masked = np.where(state.mask(), probs, 0.0)
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
            tempered = float(masked.sum())
            if tempered <= 0.0:
                raise GenerationError(
                    f"temperature {sampling.temperature!r} underflows every valid token's "
                    f"probability to 0 at cursor {state.cursor_s:.3f} s (step {len(state.tokens)})"
                )
            masked /= tempered
        support = (masked > 0).nonzero()[0]  # ~3x faster than masked.nonzero()
        if sampling.top_k is not None and sampling.top_k < support.size:
            # the k most probable ids, ties broken by the lower id
            keep = support[np.lexsort((support, -masked[support]))[: sampling.top_k]]
            pruned = np.zeros_like(masked)
            pruned[keep] = masked[keep]
            masked = pruned / pruned.sum()
            support = (masked > 0).nonzero()[0]
        token = VOCABULARY[_draw(masked, support, rng)]
        on_token(state, token, scheduler)

    return GenerationResult(
        tokens=state.tokens,
        offsets=state.offsets,
        boundaries=state.boundaries,
        states=state.states,
        final_cursor_s=state.cursor_s,
        seed=sampling.seed,
    )


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def _snap_shift(ms: float) -> int:
    snapped = int(round(ms / RESOLUTION_MS)) * RESOLUTION_MS
    return max(RESOLUTION_MS, min(MAX_SHIFT_MS, snapped))


@functools.cache
def _pace_ids(step: int) -> tuple[int, int, int]:
    """TIMESHIFT ids of the pace ``step`` and of twice and half of it."""
    return tuple(Token.shift(_snap_shift(ms)).id for ms in (step, step * 2, step / 2))


@functools.cache
def _candidates(root: int, scale: tuple[int, ...], last: int) -> tuple[tuple[int, float], ...]:
    """(ON id, weight) of the five scale pitches nearest pitch ``last``, nearest first."""
    pitches = sorted(
        (root + octave + degree for octave in (0, 12) for degree in scale),
        key=lambda p: abs(p - last),
    )[:5]
    return tuple(
        (Token.on(Instrument.PIANO, pitch).id, 1.2 / (rank + 1))
        for rank, pitch in enumerate(pitches)
        if 0 <= pitch < 128
    )


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

    def next_distribution(self, tokens, offsets, valence, arousal, state=None):
        state = _fold(tokens) if state is None else state
        probs = np.zeros(len(VOCABULARY))
        probs[self._next_id(state, offsets)] = 1.0
        return probs

    def _next_id(self, state: DecodeState, offsets: list[float]) -> int:
        offset_ms = int(round((offsets[-1] if offsets else PipelineConfig.max_offset_s) * 1000))

        remaining = state.chord_fill_remaining(self.triad)
        if remaining:
            return Token.on(Instrument.PIANO, remaining[0]).id
        if offset_ms <= self.CHORD_TRIGGER_MS:
            return CHORD.id
        # OFF ids run by instrument, alphabetically, then pitch, so ties on
        # the onset break as (instrument, pitch).
        ripe = [
            (starts[0], off_id)
            for off_id, starts in state.open_notes.items()
            if state.cursor_ms - starts[0] >= self.HOLD_MS
        ]
        if ripe and offset_ms > self.RELEASE_FLOOR_MS:
            return min(ripe)[1]
        return Token.shift(_snap_shift(offset_ms - self.APPROACH_MARGIN_MS)).id


class ReferenceModel:
    """Hand-written heuristic model used as the package's default.

    Valence picks the scale (major above zero, minor otherwise) around a
    configurable key root; arousal sets the pacing (higher arousal means
    shorter time shifts, hence more events per second); the probability
    of a CHORD rises sharply as the boundary offset approaches zero.
    The returned weights are deterministic functions of the context, so
    fixed-seed generation is reproducible.
    """

    MAX_OPEN_NOTES = 6

    def __init__(self, key_root: int = 60):
        if not 12 <= key_root <= 108:
            raise ValueError(f"key_root should be a mid-range pitch, got {key_root}")
        self.key_root = key_root

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
    def next_distribution(self, tokens, offsets, valence, arousal, state=None):
        state = _fold(tokens) if state is None else state
        weights = np.zeros(len(VOCABULARY))
        offset_s = offsets[-1] if offsets else PipelineConfig.max_offset_s
        step = self._step_ms(arousal)
        triad = self._triad(valence)

        remaining = state.chord_fill_remaining(triad)
        if remaining:
            for pitch in remaining:
                weights[Token.on(Instrument.PIANO, pitch).id] = 1.0
            return weights / weights.sum()

        weights[CHORD.id] = self._chord_weight(offset_s)
        pace, slow, fast = _pace_ids(step)
        weights[pace] = 3.0
        weights[slow] += 0.5
        weights[fast] += 0.5

        if state.open_count < self.MAX_OPEN_NOTES:
            last_pitch = self.key_root + 12 if state.last_on_pitch is None else state.last_on_pitch
            for on_id, weight in _candidates(self.key_root, self._scale(valence), last_pitch):
                weights[on_id] += weight
        for off_id, starts in state.open_notes.items():
            if state.cursor_ms - starts[0] >= 2 * step:
                weights[off_id] += 1.5

        return weights / weights.sum()
