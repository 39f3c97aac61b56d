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

Two equivalent implementations exist for whole sequences: a compiled
sweep (:mod:`midisync._offsets`) and a vectorized NumPy fallback
(:mod:`midisync._offsets_py`), picked at import time.  Setting the
environment variable ``MIDISYNC_PURE_PYTHON=1`` forces the fallback.
The incremental state machine in this module is the reference
definition; the batch kernels must match it exactly.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tokens import Token, TokenKind

if os.environ.get("MIDISYNC_PURE_PYTHON", "") not in ("", "0"):
    from . import _offsets_py as _kernel
else:
    try:
        from . import _offsets as _kernel  # type: ignore[attr-defined]
    except ImportError:
        from . import _offsets_py as _kernel

#: Name of the whole-sequence kernel in use: "compiled" or "numpy".
OFFSETS_BACKEND: str = _kernel.BACKEND_NAME

DEFAULT_SENSITIVITY_S = 1.0
DEFAULT_MAX_OFFSET_S = 4.0


def _to_ms(seconds: float) -> int:
    return int(round(seconds * 1000))


@dataclass(frozen=True)
class SchedulerParams:
    """Sensitivity window and offset cap, in seconds."""

    sensitivity_s: float = DEFAULT_SENSITIVITY_S
    max_offset_s: float = DEFAULT_MAX_OFFSET_S

    def __post_init__(self) -> None:
        if self.sensitivity_s <= 0:
            raise ValueError(f"sensitivity_s must be positive, got {self.sensitivity_s}")
        if self.max_offset_s <= 0:
            raise ValueError(f"max_offset_s must be positive, got {self.max_offset_s}")

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


@dataclass
class BoundaryList:
    """Strictly increasing boundary times with per-boundary status."""

    times_ms: tuple[int, ...]
    states: list[BoundaryState] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times_ms):
            raise ValueError("boundaries must be >= 0")
        if any(b >= a for b, a in zip(self.times_ms, self.times_ms[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if not self.states:
            self.states = [BoundaryState.PENDING] * len(self.times_ms)
        if len(self.states) != len(self.times_ms):
            raise ValueError("states and times length mismatch")

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

    def copy(self) -> "BoundaryList":
        return BoundaryList(times_ms=self.times_ms, states=list(self.states))

    def by_state(self, state: BoundaryState) -> list[float]:
        return [t / 1000.0 for t, s in zip(self.times_ms, self.states) if s is state]


@dataclass
class GeneratorState:
    """Incremental scheduling state carried through a generation loop."""

    boundaries: BoundaryList
    cursor_ms: int = 0
    tokens: list[Token] = field(default_factory=list)
    offsets: list[float] = field(default_factory=list)

    @classmethod
    def new(cls, boundaries: BoundaryList) -> "GeneratorState":
        return cls(boundaries=boundaries.copy())

    @property
    def cursor_s(self) -> float:
        return self.cursor_ms / 1000.0


def next_offset(state: GeneratorState, params: SchedulerParams) -> float:
    """Distance to the earliest pending boundary, clamped to [0, cap]."""
    pending = [
        t
        for t, s in zip(state.boundaries.times_ms, state.boundaries.states)
        if s is BoundaryState.PENDING
    ]
    cap = params.max_offset_ms
    if not pending:
        return cap / 1000.0
    raw = min(pending) - state.cursor_ms
    return min(max(raw, 0), cap) / 1000.0


def expire_missed(state: GeneratorState, params: SchedulerParams) -> list[float]:
    """Mark boundaries left strictly more than the window behind the cursor.

    Idempotent; returns the times (seconds) of newly expired boundaries.
    """
    xi = params.sensitivity_ms
    newly = []
    for i, t in enumerate(state.boundaries.times_ms):
        if state.boundaries.states[i] is BoundaryState.PENDING and state.cursor_ms - t > xi:
            state.boundaries.states[i] = BoundaryState.EXPIRED
            newly.append(t / 1000.0)
    return newly


def on_token(state: GeneratorState, token: Token, params: SchedulerParams) -> float:
    """Advance the state by one emitted token; returns the recorded offset.

    The step is atomic: the cursor moves (TIMESHIFT), a chord consumes
    every pending boundary strictly within the window (CHORD), missed
    boundaries expire, and only then is the offset computed and
    appended.
    """
    if token.kind is TokenKind.TIMESHIFT:
        state.cursor_ms += token.shift_ms
    elif token.kind is TokenKind.CHORD:
        xi = params.sensitivity_ms
        for i, t in enumerate(state.boundaries.times_ms):
            if (
                state.boundaries.states[i] is BoundaryState.PENDING
                and abs(state.cursor_ms - t) < xi
            ):
                state.boundaries.states[i] = BoundaryState.CONSUMED
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
    cursor = 0
    times = []
    for tok in tokens:
        if tok.kind is TokenKind.TIMESHIFT:
            cursor += tok.shift_ms
        elif tok.kind is TokenKind.CHORD:
            times.append(cursor)
    return BoundaryList(times_ms=tuple(sorted(set(times))))


def offsets_for_sequence(
    tokens: list[Token],
    boundaries: BoundaryList | None = None,
    params: SchedulerParams | None = None,
) -> np.ndarray:
    """Offset schedule for a whole token sequence (one value per token).

    With ``boundaries=None`` the boundary list is derived from the
    sequence's own CHORD positions.  Dispatches to the selected batch
    kernel; equivalent to folding :func:`on_token` over the sequence.
    """
    params = params or SchedulerParams()
    if boundaries is None:
        boundaries = derive_boundaries(tokens)

    shifts = np.fromiter(
        (tok.shift_ms if tok.kind is TokenKind.TIMESHIFT else 0 for tok in tokens),
        dtype=np.int64,
        count=len(tokens),
    )
    cursor = np.cumsum(shifts)
    is_chord = np.fromiter(
        (tok.kind is TokenKind.CHORD for tok in tokens), dtype=np.uint8, count=len(tokens)
    )
    bounds = np.asarray(boundaries.times_ms, dtype=np.int64)
    return _kernel.compute_offsets(
        cursor, is_chord, bounds, params.sensitivity_ms, params.max_offset_ms
    )


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
