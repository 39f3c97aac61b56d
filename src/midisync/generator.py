"""Grammar-constrained autoregressive generation against boundaries.

A *model* here is anything that maps the generation context (token
history, per-token offset history, valence, arousal) to a probability
distribution over the vocabulary.  The loop in :func:`generate` owns
everything else: it keeps the valid ones of any model's nonzero
``(id, weight)`` pairs with one ``DecodeState.valid`` call, samples among
them in plain Python with a seeded generator, feeds every emitted token to
the boundary scheduler, and stops once the cursor reaches the duration.
Its one state, the scheduler's :class:`~midisync.scheduler.GeneratorState`,
is the :class:`~midisync.tokens.DecodeState` that also reads streams back
into notes.  :func:`~midisync.scheduler.on_token` folds each emitted
token into it once; the grammar and the built-in models read it, so a
step costs the same at any history length.  It is also what
:func:`generate` returns: the run's tokens, offsets and boundary states,
and the counters (:meth:`~midisync.scheduler.GeneratorState.diagnostics`)
that go into the ``generate`` manifest.

Two models ship with the package: :class:`ReferenceModel`, a small
hand-written heuristic that reacts to valence/arousal and to the
current boundary offset, and :class:`ScriptedBoundaryModel`, a
deterministic walker that provably places a chord inside every
boundary's sensitivity window above 4 ms (for end-to-end checks).
Both keep no state of their own, so one instance is safe to share: the
loop reads their ``(id, weight)`` pairs on its state, and their public
``next_distribution`` folds the history it is given and scatters the
same pairs into a vector.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from itertools import accumulate
from types import MappingProxyType
from typing import Protocol

import numpy as np

from .config import PipelineConfig
from .scheduler import BoundaryList, GeneratorState, SchedulerParams, on_token
from .tokens import (
    CHORD,
    MAX_SHIFT_MS,
    RESOLUTION_MS,
    START,
    VOCABULARY,
    DecodeState,
    Instrument,
    Pairs,
    Token,
)
from .emotion import VAPoint

DEFAULT_MAX_TOKENS = 200_000
_INVALID_ENTRIES = "step {step}: model distribution has invalid entries"

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)
MINOR_SCALE = (0, 2, 3, 5, 7, 8, 10)


class GenerationError(RuntimeError):
    """The sampling loop could not continue; the message names the state."""


class NextTokenModel(Protocol):
    """Anything that proposes the next token as a vocabulary distribution.

    :func:`generate` makes this four-argument call at every step; of the
    built-in models (and their subclasses) it reads the pairs directly.
    """

    def next_distribution(
        self,
        tokens: list[Token],
        offsets: list[float],
        valence: float | None,
        arousal: float | None,
    ) -> np.ndarray:
        ...


def _fold(tokens: list[Token]) -> DecodeState:
    """A fresh :class:`DecodeState` with every token of ``tokens`` pushed."""
    state = DecodeState()
    for tok in tokens:
        state.push(tok)
    return state


def grammar_mask(tokens: list[Token]) -> np.ndarray:
    """The valid next ids after ``tokens`` as a boolean mask (see :meth:`DecodeState.valid`)."""
    valid = _fold(tokens).valid([(i, 1.0) for i in range(len(VOCABULARY))])
    return np.isin(np.arange(len(VOCABULARY)), [i for i, _ in valid])


# ---------------------------------------------------------------------------
# Generation loop
# ---------------------------------------------------------------------------


def _dense_pairs(probs: np.ndarray, step: int) -> Pairs:
    """A model's vector checked over all ids, as its nonzero ``(id, weight)`` pairs."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (len(VOCABULARY),):
        raise GenerationError(
            f"step {step}: model distribution has shape {probs.shape}, "
            f"expected ({len(VOCABULARY)},)"
        )
    # Entries in [0, 2] rule out NaN, inf, negatives and an overflowing sum in two cheap scans.
    if probs.min() >= 0 and probs.max() <= 2.0:
        total = float(probs.sum())
    elif np.any(~np.isfinite(probs)) or np.any(probs < 0):
        raise GenerationError(_INVALID_ENTRIES.format(step=step))
    else:
        with np.errstate(over="ignore"):
            total = float(probs.sum())
    if abs(total - 1.0) > 1e-6:
        raise GenerationError(f"step {step}: model distribution sums to {total!r}, not 1")
    support = np.flatnonzero(probs)
    return list(zip(support.tolist(), probs[support].tolist()))


def _sample(pairs: Pairs, state: GeneratorState, temperature: float, top_k: int, rng) -> int:
    """One step's id among ``pairs``, tempered and cut to ``top_k`` (see :func:`generate`)."""
    if not pairs:
        raise GenerationError(
            f"no grammatically valid token has probability mass at cursor "
            f"{state.cursor_s:.3f} s (step {len(state.tokens)})"
        )
    ids, weights = zip(*pairs)
    *_, total = accumulate(weights)  # left to right, as every sum here
    weights = [w / total for w in weights]
    if temperature != 1.0:
        power = 1.0 / temperature
        weights = [w**power for w in weights]
        *_, tempered = accumulate(weights)
        if tempered <= 0.0:
            raise GenerationError(
                f"temperature {temperature!r} underflows every valid token's "
                f"probability to 0 at cursor {state.cursor_s:.3f} s (step {len(state.tokens)})"
            )
        ids, weights = zip(*[(i, w / tempered) for i, w in zip(ids, weights) if w])
    if top_k < len(ids):
        top = sorted(sorted(range(len(ids)), key=weights.__getitem__, reverse=True)[:top_k])
        ids, weights = [ids[j] for j in top], [weights[j] for j in top]
    cdf = list(accumulate(weights))
    last = cdf[-1]
    return ids[bisect_right(cdf, rng.random(), key=lambda c: c / last)]


def generate(
    model: NextTokenModel,
    va: VAPoint,
    boundaries: BoundaryList,
    duration_s: float,
    config: PipelineConfig | None = None,
    *,
    seed: int = 0,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> GeneratorState:
    """Sample, seeded by ``seed``, a token sequence of roughly ``duration_s`` seconds.

    Returns the :class:`GeneratorState` the loop folded every token into:
    its tokens, offsets, boundary states and final cursor.

    ``config`` (the defaults when None) gives the temperature, top-k and
    scheduler windows.  The emitted history always begins with START.  Each
    step keeps the valid (:meth:`DecodeState.valid`) ones of the nonzero
    ``(id, weight)`` pairs in id order (a built-in model's own, or any other
    model's checked vector), then normalises, tempers (to the power 1/T,
    renormalised; zeros drop out), cuts to top-k (ties to the lower id, back
    in id order) and draws, in plain Python, the id ``Generator.choice``
    over the full vector would.  Exactness rules: sums run left to right through
    ``itertools.accumulate``, never ``sum()`` (compensated from Python 3.12)
    or ``math.fsum``; the draw is ``bisect_right`` on ``cdf / cdf[-1]`` with
    one ``rng.random()``, so top-k is not renormalised.  Checks, in order: a
    vector's shape, invalid entries (a built-in weight too), a vector's sum,
    "no grammatically valid token", then the temperature underflow.

    The loop ends when the cursor reaches ``duration_s`` (overshoot is
    below one maximal time shift), and fails loudly if ``max_tokens`` is
    hit first, or at once if ``max_tokens - 1`` maximal time shifts
    cannot reach ``duration_s`` (or ``max_tokens`` is below 1).
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    if not (math.isfinite(duration_s) and duration_s * 1000 > 0.5):  # rounds to >= 1 ms
        raise ValueError(f"duration_s must be finite and round to at least 1 ms, got {duration_s}")
    reach_s = (max_tokens - 1) * MAX_SHIFT_MS / 1000
    if duration_s > reach_s:
        raise GenerationError(
            f"duration_s {duration_s!r} is past the {reach_s:g} s that "
            f"max_tokens={max_tokens} tokens can reach"
        )
    config = config or PipelineConfig()
    temperature, top_k = config.temperature, config.top_k
    scheduler = SchedulerParams(config.sensitivity_s, config.max_offset_s)
    rng = np.random.default_rng(seed)

    state = GeneratorState(boundaries)
    on_token(state, START, scheduler)

    while state.cursor_s < duration_s:
        if len(state.tokens) >= max_tokens:
            raise GenerationError(
                f"exceeded max_tokens={max_tokens} at cursor "
                f"{state.cursor_s:.3f} s of {duration_s:.3f} s"
            )
        if isinstance(model, _BuiltinModel):
            pairs = model._weights(state, state.offsets, va.valence, va.arousal)
            for _, w in pairs:  # checked as a vector's entries are
                if not 0.0 <= w < math.inf:
                    raise GenerationError(_INVALID_ENTRIES.format(step=len(state.tokens)))
        else:
            probs = model.next_distribution(state.tokens, state.offsets, va.valence, va.arousal)
            pairs = _dense_pairs(probs, len(state.tokens))
        pairs = state.valid(pairs)
        on_token(state, VOCABULARY[_sample(pairs, state, temperature, top_k, rng)], scheduler)

    return state


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _snap_shift(ms: float) -> int:
    snapped = int(round(ms / RESOLUTION_MS)) * RESOLUTION_MS
    return max(RESOLUTION_MS, min(MAX_SHIFT_MS, snapped))


@functools.cache
def _pace_weights(step: int) -> MappingProxyType[int, float]:
    """TIMESHIFT weights, read only: 3 on the pace ``step``, plus 0.5 on twice and on half of it."""
    weights: dict[int, float] = {}
    for ms, weight in ((step, 3.0), (step * 2, 0.5), (step / 2, 0.5)):
        shift_id = Token.shift(_snap_shift(ms)).id
        weights[shift_id] = weights.get(shift_id, 0.0) + weight
    return MappingProxyType(weights)


class _BuiltinModel:
    """A model whose ``_weights(state, offsets, valence, arousal)`` pairs :func:`generate` reads."""

    def next_distribution(self, tokens, offsets, valence, arousal):
        """The pairs for the folded ``tokens`` as a normalised vector."""
        weights = np.zeros(len(VOCABULARY))
        for token_id, weight in self._weights(_fold(tokens), offsets, valence, arousal):
            weights[token_id] = weight
        return weights / weights.sum()


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


class ScriptedBoundaryModel(_BuiltinModel):
    """Deterministic walker that hits every boundary's window.

    Strategy: shift toward the next boundary, stopping about 300 ms
    short; emit CHORD plus a held piano triad there, and if that missed
    the window, shift onto the boundary and chord again, so windows above
    4 ms (half the grid) are always hit; release notes once they have
    sounded for at least two beats and the next boundary is comfortably
    far.  Every distribution is one-hot, so generation is identical for
    any seed.
    """

    CHORD_TRIGGER_MS = 400
    APPROACH_MARGIN_MS = 300
    HOLD_MS = 1000
    RELEASE_FLOOR_MS = 600

    def __init__(self, root_pitch: int = 60):
        if not 0 <= root_pitch <= 115:
            raise ValueError("root_pitch must leave room for a triad above it")
        self.triad = (root_pitch, root_pitch + 4, root_pitch + 7)

    def _weights(self, state: DecodeState, offsets, valence, arousal) -> Pairs:
        return [(self._next_id(state, offsets), 1.0)]

    def _next_id(self, state: DecodeState, offsets: list[float]) -> int:
        offset_ms = int(round((offsets[-1] if offsets else PipelineConfig.max_offset_s) * 1000))

        remaining = state.chord_fill_remaining(self.triad)
        if remaining:
            return Token.on(Instrument.PIANO, remaining[0]).id
        if offset_ms <= self.CHORD_TRIGGER_MS:
            if state.shifted_since_chord:
                return CHORD.id
            return Token.shift(_snap_shift(offset_ms)).id
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


class ReferenceModel(_BuiltinModel):
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

    def _weights(self, state: DecodeState, offsets, valence, arousal) -> Pairs:
        offset_s = offsets[-1] if offsets else PipelineConfig.max_offset_s
        step = self._step_ms(arousal)

        remaining = state.chord_fill_remaining(self._triad(valence))
        if remaining:
            return sorted((Token.on(Instrument.PIANO, pitch).id, 1.0) for pitch in remaining)

        weights = {CHORD.id: self._chord_weight(offset_s), **_pace_weights(step)}
        if state.open_count < self.MAX_OPEN_NOTES:
            last_pitch = self.key_root + 12 if state.last_on_pitch is None else state.last_on_pitch
            weights.update(_candidates(self.key_root, self._scale(valence), last_pitch))
        for off_id, starts in state.open_notes.items():
            if state.cursor_ms - starts[0] >= 2 * step:
                weights[off_id] = 1.5
        return sorted(weights.items())
