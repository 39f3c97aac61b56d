"""Boundary-offset scheduling.

Generation wants chords to land on externally supplied temporal
boundaries (scene cuts).  The scheduler tracks, after every emitted
token, how far ahead the next relevant boundary lies:

* TIMESHIFT tokens advance an integer-millisecond cursor;
* a CHORD token *consumes* every pending boundary strictly within the
  sensitivity window ``xi`` of the cursor (the chord has landed);
* a boundary left strictly more than ``xi`` behind the cursor has been
  missed and *expires*;
* the recorded offset is the distance to the earliest still-pending
  boundary, clamped to ``[0, max_offset]``; with nothing pending the
  offset saturates at ``max_offset``.

The incremental state machine (:func:`on_token`), which folds each
generated token into the loop's :class:`GeneratorState` (the owner of
every boundary's state), is the reference definition.  Whole sequences
go through one vectorized NumPy kernel (:func:`offsets_for_sequence`),
which must match the fold bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, check_window
from .tokens import CHORD, DecodeState, Token, cursor_after


def _to_ms(seconds: float) -> int:
    return int(round(seconds * 1000))


@dataclass(frozen=True)
class SchedulerParams:
    """Sensitivity window and offset cap, in seconds (see :func:`~midisync.config.check_window`)."""

    sensitivity_s: float = PipelineConfig.sensitivity_s
    max_offset_s: float = PipelineConfig.max_offset_s

    def __post_init__(self) -> None:
        for name in ("sensitivity_s", "max_offset_s"):
            check_window(name, getattr(self, name))

    @property
    def sensitivity_ms(self) -> int:
        return _to_ms(self.sensitivity_s)

    @property
    def max_offset_ms(self) -> int:
        return _to_ms(self.max_offset_s)


class BoundaryState(enum.Enum):
    PENDING = "pending"
    CONSUMED = "consumed"
    EXPIRED = "expired"


@dataclass(frozen=True)
class BoundaryList:
    """Strictly increasing boundary times; each run keeps their states on its GeneratorState."""

    times_ms: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times_ms):
            raise ValueError("boundaries must be >= 0")
        if any(b >= a for b, a in zip(self.times_ms, self.times_ms[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @classmethod
    def from_times(cls, times_s) -> "BoundaryList":
        """Build from seconds; sorts and removes duplicates (post-rounding)."""
        ms = sorted({_to_ms(t) for t in times_s})
        return cls(times_ms=tuple(ms))

    @property
    def times_s(self) -> tuple[float, ...]:
        return tuple(t / 1000.0 for t in self.times_ms)

    def __len__(self) -> int:
        return len(self.times_ms)


class GeneratorState(DecodeState):
    """The generation loop's one state: a decode state that also schedules.

    :func:`on_token` folds each emitted token into it once; it carries
    the caller's boundaries (read only), one :class:`BoundaryState` per
    boundary (all pending at first), and the tokens and offsets.

    ``first_pending`` only moves forward: every boundary before it has
    left the pending state, which it never re-enters, so the step
    functions below start there instead of walking every boundary.
    """

    __slots__ = ("boundaries", "states", "tokens", "offsets", "first_pending")

    def __init__(self, boundaries: BoundaryList) -> None:
        super().__init__()
        self.boundaries = boundaries
        self.states = [BoundaryState.PENDING] * len(boundaries)
        self.tokens: list[Token] = []
        self.offsets: list[float] = []
        self.first_pending = 0

    @classmethod
    def new(cls, boundaries: BoundaryList) -> "GeneratorState":
        return cls(boundaries)  # kept: perfbench/workloads.py builds its states through it

    @property
    def cursor_s(self) -> float:
        return self.cursor_ms / 1000.0


def next_offset(state: GeneratorState, params: SchedulerParams) -> float:
    """Distance to the earliest pending boundary, clamped to [0, cap]."""
    states = state.states
    i = state.first_pending
    while i < len(states) and states[i] is not BoundaryState.PENDING:
        i += 1
    state.first_pending = i
    cap = params.max_offset_ms
    if i == len(states):
        return cap / 1000.0
    raw = state.boundaries.times_ms[i] - state.cursor_ms
    return min(max(raw, 0), cap) / 1000.0


def expire_missed(state: GeneratorState, params: SchedulerParams) -> list[float]:
    """Mark boundaries left strictly more than the window behind the cursor.

    Idempotent; returns the times (seconds) of newly expired boundaries.
    Times increase, so the scan stops at the first boundary still within
    reach of the cursor.
    """
    xi = params.sensitivity_ms
    times, states = state.boundaries.times_ms, state.states
    newly = []
    i = state.first_pending
    while i < len(times) and state.cursor_ms - times[i] > xi:
        if states[i] is BoundaryState.PENDING:
            states[i] = BoundaryState.EXPIRED
            newly.append(times[i] / 1000.0)
        i += 1
    state.first_pending = i
    return newly


def on_token(state: GeneratorState, token: Token, params: SchedulerParams) -> float:
    """Advance the state by one emitted token; returns the recorded offset.

    The step is atomic: the decode state takes the token (a TIMESHIFT
    moves the cursor, see :meth:`DecodeState.push`), a chord consumes
    every pending boundary strictly within the window (CHORD), missed
    boundaries expire, and only then is the offset computed and
    appended.  Its cost does not grow with the number of boundaries
    already passed.
    """
    state.push(token)
    if token.id == CHORD.id:
        xi = params.sensitivity_ms
        times, states = state.boundaries.times_ms, state.states
        for i in range(state.first_pending, len(times)):
            if times[i] - state.cursor_ms >= xi:
                break
            if states[i] is BoundaryState.PENDING and state.cursor_ms - times[i] < xi:
                states[i] = BoundaryState.CONSUMED
    expire_missed(state, params)
    offset = next_offset(state, params)
    state.tokens.append(token)
    state.offsets.append(offset)
    return offset


def derive_boundaries(tokens: list[Token]) -> BoundaryList:
    """Treat each CHORD position in a token stream as a boundary.

    This is how training sequences get their boundary lists: the chords
    already present in the music are the alignment targets.
    """
    ids, cursor = cursor_after(tokens)
    return BoundaryList(times_ms=tuple(_chord_times(ids == CHORD.id, cursor).tolist()))


def _chord_times(is_chord: np.ndarray, cursor_ms: np.ndarray) -> np.ndarray:
    """Distinct cursor times of the chord tokens, increasing (cursors never decrease)."""
    times = cursor_ms[is_chord]
    return times[np.diff(times, prepend=-1) > 0]


_FAR = np.int64(2**62)


def _compute_offsets(
    cursor_ms: np.ndarray,
    is_chord: np.ndarray,
    bounds_ms: np.ndarray,
    xi_ms: int,
    dmax_ms: int,
) -> np.ndarray:
    """Offsets (seconds) after each token; the batch form of :func:`on_token`.

    ``cursor_ms``: int64, cursor value *after* each token (non-decreasing).
    ``is_chord``: uint8/bool flags marking chord tokens.
    ``bounds_ms``: int64 boundary times, strictly increasing.

    The kernel computes, per boundary, the token index at which it stops
    being pending ("death"): the earliest of its consumption index and
    its expiry index.  Because boundaries are sorted and the pending set
    only ever loses its minimum element to consumption or expiry from the
    front, the earliest pending boundary as a function of token index is
    a step function whose segments can be painted with ``np.repeat``.
    """
    n = cursor_ms.shape[0]
    m = bounds_ms.shape[0]
    if m == 0:
        return np.full(n, dmax_ms / 1000.0)
    if n == 0:
        return np.zeros(0)

    chord_idx = np.flatnonzero(is_chord)
    # Consumption: earliest chord token whose cursor lies strictly inside
    # (b - xi, b + xi).  Cursor values are integers, so the open interval
    # is the closed interval [b - xi + 1, b + xi - 1].
    consume = np.full(m, n, dtype=np.int64)
    if chord_idx.size:
        chord_cursor = cursor_ms[chord_idx]
        k = np.searchsorted(chord_cursor, bounds_ms - xi_ms + 1, side="left")
        valid = k < chord_idx.size
        kv = k[valid]
        hit = chord_cursor[kv] <= bounds_ms[valid] + xi_ms - 1
        rows = np.flatnonzero(valid)[hit]
        consume[rows] = chord_idx[kv[hit]]

    # Expiry: earliest token whose cursor satisfies cursor - b > xi.
    expire = np.searchsorted(cursor_ms, bounds_ms + xi_ms + 1, side="left")
    death = np.minimum(consume, expire)

    # Boundary j is the earliest pending one from the moment every
    # earlier boundary has died until it dies itself.
    prefix = np.maximum.accumulate(death)
    start = np.empty(m, dtype=np.int64)
    start[0] = 0
    start[1:] = prefix[:-1]
    seg_start = np.minimum(start, n)
    seg_end = np.minimum(np.maximum(death, seg_start), n)
    lengths = seg_end - seg_start

    covered = int(lengths.sum())
    earliest = np.concatenate(
        [np.repeat(bounds_ms, lengths), np.full(n - covered, _FAR, dtype=np.int64)]
    )
    raw = earliest - cursor_ms
    np.clip(raw, 0, dmax_ms, out=raw)
    return raw / 1000.0


def offsets_for_sequence(
    tokens: list[Token],
    boundaries: BoundaryList | None = None,
    params: SchedulerParams | None = None,
) -> np.ndarray:
    """Offset schedule for a whole token sequence (one value per token).

    With ``boundaries=None`` the boundary list is derived from the
    sequence's own CHORD positions.  Equivalent to folding
    :func:`on_token` over the sequence.
    """
    params = params or SchedulerParams()
    ids, cursor = cursor_after(tokens)
    is_chord = ids == CHORD.id
    if boundaries is None:
        bounds = _chord_times(is_chord, cursor)
    else:
        bounds = np.asarray(boundaries.times_ms, dtype=np.int64)
    return _compute_offsets(cursor, is_chord, bounds, params.sensitivity_ms, params.max_offset_ms)


def format_boundaries(boundaries: BoundaryList) -> str:
    """One boundary time in seconds per line."""
    return "".join(f"{t:.3f}\n" for t in boundaries.times_s)


def parse_boundaries(text: str) -> BoundaryList:
    """Inverse of :func:`format_boundaries`; blank lines are ignored."""
    times = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s:
            continue
        try:
            value = float(s)
        except ValueError:
            raise ValueError(f"line {lineno}: not a number: {s!r}") from None
        if not math.isfinite(value * 1000):
            raise ValueError(f"line {lineno}: boundary must be a finite number of ms, got {s!r}")
        if value < 0:
            raise ValueError(f"line {lineno}: boundary must be >= 0")
        times.append(value)
    return BoundaryList.from_times(times)
