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
every boundary's state), is the reference definition.  Whole token id
streams go through one vectorized NumPy kernel (:func:`offsets_ms_for_ids`
in whole ms; :func:`offsets_for_sequence` in seconds on a Token list),
which must match the fold bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig, check_window
from .tokens import CHORD, DecodeState, Token, cursors_of, ids_of


def _to_ms(seconds: float) -> int:
    return int(round(seconds * 1000))


@dataclass(frozen=True)
class SchedulerParams:
    """Sensitivity window and offset cap, in seconds (see :func:`~midisync.config.check_window`)."""

    sensitivity_s: float = PipelineConfig.sensitivity_s
    max_offset_s: float = PipelineConfig.max_offset_s
    # The same windows in whole ms, rounded once: on_token reads both per token.
    sensitivity_ms: int = field(init=False, repr=False, compare=False)
    max_offset_ms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("sensitivity_s", "max_offset_s"):
            check_window(name, getattr(self, name))
        object.__setattr__(self, "sensitivity_ms", _to_ms(self.sensitivity_s))
        object.__setattr__(self, "max_offset_ms", _to_ms(self.max_offset_s))


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
    :func:`~midisync.generator.generate` returns it, and it reports its
    own boundaries (:meth:`diagnostics`).

    ``first_pending`` only moves forward: every boundary before it has
    left the pending state, which it never re-enters, so :func:`on_token`
    starts its walk there instead of at the first boundary.
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

    def _times(self, state: BoundaryState) -> list[float]:
        """Times (seconds) of the boundaries that are in ``state``."""
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
        """The run's counters and boundary times, as the ``generate`` manifest reports them."""
        return {
            "token_count": len(self.tokens),
            "chord_count": sum(1 for t in self.tokens if t.id == CHORD.id),
            "final_cursor_s": self.cursor_s,
            "boundaries_total": len(self.boundaries),
            "boundaries_consumed": self.consumed,
            "boundaries_expired": self.expired,
            "boundaries_pending": self.pending,
        }


def on_token(state: GeneratorState, token: Token, params: SchedulerParams) -> float:
    """Advance the state by one emitted token; returns the recorded offset.

    The decode state takes the token (see :meth:`DecodeState.push`), then
    one walk from ``first_pending`` consumes and expires boundaries as the
    module docstring says.  It stops at the first boundary that is pending
    and not missed, which gives the offset; a CHORD walks on to its
    window's end, past a boundary exactly one window behind.
    """
    state.push(token)
    chord = token.id == CHORD.id
    xi, cursor, cap = params.sensitivity_ms, state.cursor_ms, params.max_offset_ms
    times, states = state.boundaries.times_ms, state.states
    n = len(times)
    i, first = state.first_pending, n
    while i < n and (first == n or chord and times[i] - cursor < xi):
        if states[i] is BoundaryState.PENDING:
            behind = cursor - times[i]
            if behind > xi:
                states[i] = BoundaryState.EXPIRED
            elif chord and abs(behind) < xi:
                states[i] = BoundaryState.CONSUMED
            elif first == n:
                first = i
        i += 1
    state.first_pending = first
    raw = times[first] - cursor if first < n else cap
    offset = min(max(raw, 0), cap) / 1000.0
    state.tokens.append(token)
    state.offsets.append(offset)
    return offset


def _chord_times(is_chord: np.ndarray, cursor_ms: np.ndarray) -> np.ndarray:
    """Distinct cursor times of the chord tokens, increasing (cursors never decrease)."""
    times = cursor_ms[is_chord]
    return times[np.diff(times, prepend=-1) > 0]


_FAR = np.iinfo(np.int64).max  # past every cursor and boundary


def _compute_offsets(
    cursor_ms: np.ndarray,
    is_chord: np.ndarray,
    bounds_ms: np.ndarray,
    xi_ms: int,
    dmax_ms: int,
) -> np.ndarray:
    """Offsets (whole ms) after each token; the batch form of :func:`on_token`.

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
    # A sentinel chord at index n, with its cursor past every window,
    # stands for "not consumed".
    chord_idx = np.append(np.flatnonzero(is_chord), n)
    chord_cursor = np.append(cursor_ms[chord_idx[:-1]], _FAR)
    # Consumption: earliest chord token whose cursor lies strictly inside
    # (b - xi, b + xi).  Cursor values are integers, so the open interval
    # is the closed interval [b - xi + 1, b + xi - 1].
    k = np.searchsorted(chord_cursor, bounds_ms - xi_ms + 1, side="left")
    consume = np.where(chord_cursor[k] <= bounds_ms + xi_ms - 1, chord_idx[k], n)

    # Expiry: earliest token whose cursor satisfies cursor - b > xi.
    expire = np.searchsorted(cursor_ms, bounds_ms + xi_ms + 1, side="left")

    # Boundary j is the earliest pending one from the moment every
    # earlier boundary has died until it dies itself.
    lengths = np.diff(np.maximum.accumulate(np.minimum(consume, expire)), prepend=0)

    covered = int(lengths.sum())
    earliest = np.concatenate(
        [np.repeat(bounds_ms, lengths), np.full(n - covered, _FAR, dtype=np.int64)]
    )
    raw = earliest - cursor_ms
    np.clip(raw, 0, dmax_ms, out=raw)
    return raw


def offsets_ms_for_ids(
    ids: np.ndarray,
    cursor_ms: np.ndarray,
    boundaries: BoundaryList | None = None,
    params: SchedulerParams | None = None,
) -> np.ndarray:
    """Offset schedule for a whole token id stream, as int64 whole ms.

    One value per token, in ``[0, params.max_offset_ms]``.  ``cursor_ms``
    is the cursor after each token (:func:`~midisync.tokens.cursors_of`).
    With ``boundaries=None`` the boundaries are the stream's own CHORD
    times, the distinct cursors of its CHORD tokens: this is how training
    sequences get theirs, the chords already in the music being the
    alignment targets.
    """
    params = params or SchedulerParams()
    is_chord = ids == CHORD.id
    if boundaries is None:
        bounds = _chord_times(is_chord, cursor_ms)
    else:
        bounds = np.asarray(boundaries.times_ms, dtype=np.int64)
    return _compute_offsets(
        cursor_ms, is_chord, bounds, params.sensitivity_ms, params.max_offset_ms
    )


def offsets_for_sequence(
    tokens: list[Token],
    boundaries: BoundaryList | None = None,
    params: SchedulerParams | None = None,
) -> np.ndarray:
    """:func:`offsets_ms_for_ids` in seconds on a Token list: folding :func:`on_token` over it."""
    ids = ids_of(tokens)
    return offsets_ms_for_ids(ids, cursors_of(ids), boundaries, params) / 1000.0


def format_boundaries(boundaries: BoundaryList) -> str:
    """One boundary time in seconds per line."""
    return "".join(f"{t:.3f}\n" for t in boundaries.times_s)


def format_offsets(offsets_ms: np.ndarray) -> str:
    """One offset in seconds per line, ``"%.3f"``, from int64 whole-ms offsets.

    A line table indexed by ms holds each value present, formatted once
    (about 100 distinct values in a long file).  ``"%.3f" % (ms / 1000)``
    is the exact decimal of every whole ms, so the text is the same as
    formatting each offset in seconds.
    """
    lines = np.empty(int(offsets_ms.max(initial=0)) + 1, dtype=object)
    present = np.zeros(len(lines), dtype=bool)
    present[offsets_ms] = True
    for ms in np.flatnonzero(present).tolist():
        lines[ms] = "%.3f\n" % (ms / 1000.0)
    return "".join(lines[offsets_ms].tolist())


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
