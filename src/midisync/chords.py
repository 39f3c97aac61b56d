"""Chord detection and CHORD-token manipulation.

A chord here is deliberately narrow: at least three distinct pitches of
the same guitar or piano part striking together (onsets within a small
simultaneity window) and all lasting at least two beats.  Detected
spans drive three operations: inserting a CHORD marker immediately
before each span's first ON token (one marker per ON) and randomly
deleting markers (training-time dropout), both on a token id array
(with Token-list forms for callers that hold tokens), and raising the
velocity of the notes a marker announces.  :func:`format_spans` writes
the spans as the ``chords`` command's line report; nothing reads that
report back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .midi_codec import BLOCK, OFFSET, ONSET, PITCH, VELOCITY, ScoreTimeline, quantize_ms
from .tokens import CHORD, INSTRUMENTS, Instrument, Token, cursors_of, ids_of, tokens_of

CHORDABLE_INSTRUMENTS = (Instrument.GUITAR, Instrument.PIANO)
MIN_CHORD_NOTES = 3
MIN_CHORD_BEATS = 2.0


class ChordLabelError(ValueError):
    """A chord span could not be reconciled with a token stream."""


@dataclass(frozen=True)
class ChordSpan:
    """One detected chord: the instrument, when it starts, its pitches."""

    instrument: Instrument
    onset_ms: int
    pitches: tuple[int, ...]
    duration_ms: int

    def __post_init__(self) -> None:
        if self.instrument not in CHORDABLE_INSTRUMENTS:
            raise ValueError(f"chords are tracked for guitar/piano only, got {self.instrument}")
        if len(self.pitches) < MIN_CHORD_NOTES:
            raise ValueError(f"chord needs >= {MIN_CHORD_NOTES} pitches, got {len(self.pitches)}")
        if len(set(self.pitches)) != len(self.pitches):
            raise ValueError("chord pitches must be distinct")
        if self.duration_ms <= 0:
            raise ValueError("chord duration must be positive")


def beat_duration_ms(tempo_bpm: float) -> float:
    if tempo_bpm <= 0:
        raise ValueError(f"tempo must be positive, got {tempo_bpm}")
    return 60_000.0 / tempo_bpm


def detect_chords(
    score: ScoreTimeline,
    beat_ms: float | None = None,
    simultaneity_eps_ms: int = PipelineConfig.simultaneity_eps_ms,
) -> list[ChordSpan]:
    """Find qualifying chords in a timeline, sorted by onset.

    Notes of one instrument are clustered greedily: a note joins the
    current cluster while its onset is within ``simultaneity_eps_ms`` of
    the cluster's first onset.  A cluster qualifies when it holds at
    least three distinct pitches and every member lasts at least two
    beats (``beat_ms`` defaults to the score's tempo; a given value must
    be a finite positive number of ms).
    """
    if simultaneity_eps_ms < 0:
        raise ValueError("simultaneity window must be >= 0")
    if beat_ms is None:
        beat_ms = beat_duration_ms(score.tempo_bpm)
    elif not (math.isfinite(beat_ms) and beat_ms > 0):
        raise ValueError(f"beat_ms must be a finite positive number, got {beat_ms}")
    min_duration = MIN_CHORD_BEATS * beat_ms

    columns = score.columns
    spans: list[ChordSpan] = []
    for instrument in CHORDABLE_INSTRUMENTS:
        # this block's notes, in the score's onset order
        mine = columns[:, columns[BLOCK] == INSTRUMENTS.index(instrument)]
        clusters: list[tuple[int, list[int], list[int]]] = []  # onset, pitches, durations
        for onset, pitch, offset in zip(*mine[[ONSET, PITCH, OFFSET]].tolist()):
            if clusters and onset - clusters[-1][0] <= simultaneity_eps_ms:
                clusters[-1][1].append(pitch)
                clusters[-1][2].append(offset - onset)
            else:
                clusters.append((onset, [pitch], [offset - onset]))
        for onset, pitches, durations in clusters:
            distinct = sorted(set(pitches))
            if len(distinct) >= MIN_CHORD_NOTES and min(durations) >= min_duration:
                spans.append(ChordSpan(instrument, onset, tuple(distinct), min(durations)))
    spans.sort(key=lambda s: (s.onset_ms, s.instrument.value))
    return spans


def insert_chord_ids(
    ids: np.ndarray,
    cursors: np.ndarray,
    spans: list[ChordSpan],
    simultaneity_eps_ms: int = PipelineConfig.simultaneity_eps_ms,
) -> tuple[np.ndarray, np.ndarray]:
    """Place one CHORD marker immediately before each span's first ON.

    ``ids`` is a token stream and ``cursors`` the cursor after each of
    its tokens (:func:`~midisync.tokens.cursors_of`); both come back with
    the markers in place.  The target is the first ON token of the
    span's instrument whose pitch belongs to the span and whose cursor
    time matches the span onset (within the simultaneity window, on the
    quantized grid).  Spans that pick the same ON token share one marker
    there, so a CHORD is always followed by an ON before the next CHORD,
    as the generation grammar requires.  Raises :class:`ChordLabelError`
    when a span has no such token.

    Cost: O(n + s * (log n + w)) for n tokens and s spans, where w is
    the number of tokens whose cursor lies in one span's window.  Cursor
    values never decrease, so one ``searchsorted`` finds every span's
    window, each span scans only its own, and one ``np.insert`` places
    every marker.
    """
    eps = simultaneity_eps_ms
    lo = [quantize_ms(max(0, span.onset_ms - eps)) for span in spans]
    hi = [quantize_ms(span.onset_ms + eps) for span in spans]
    starts = np.searchsorted(cursors, lo, side="left").tolist()
    ends = np.searchsorted(cursors, hi, side="right").tolist()
    insert_at: list[int] = []
    for span, start, end in zip(spans, starts, ends):
        targets = {Token.on(span.instrument, pitch).id for pitch in span.pitches}
        for idx, ident in enumerate(ids[start:end].tolist(), start):
            if ident in targets:
                insert_at.append(idx)
                break
        else:
            raise ChordLabelError(
                f"no ON token matches chord at {span.onset_ms} ms ({span.instrument.value})"
            )
    # A marker takes the cursor of the ON it precedes: an ON does not move the cursor.
    at = np.array(sorted(set(insert_at)), dtype=np.intp)  # np.unique would import numpy.ma
    return np.insert(ids, at, CHORD.id), np.insert(cursors, at, cursors[at])


def dropout_chord_ids(
    ids: np.ndarray, cursors: np.ndarray, rate: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Delete each CHORD of a stream independently with probability ``rate``.

    One uniform draw per CHORD, in stream order, from
    ``np.random.default_rng(seed)``; ``cursors`` (a CHORD does not move
    the cursor) loses the same entries.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1], got {rate}")
    positions = np.flatnonzero(ids == CHORD.id)
    cut = positions[np.random.default_rng(seed).random(positions.size) < rate]
    return np.delete(ids, cut), np.delete(cursors, cut)


def insert_chord_tokens(
    tokens: list[Token],
    spans: list[ChordSpan],
    simultaneity_eps_ms: int = PipelineConfig.simultaneity_eps_ms,
) -> list[Token]:
    """:func:`insert_chord_ids` on a Token list, for callers that hold tokens."""
    ids = ids_of(tokens)
    return tokens_of(insert_chord_ids(ids, cursors_of(ids), spans, simultaneity_eps_ms)[0])


def dropout_chords(tokens: list[Token], rate: float, seed: int) -> list[Token]:
    """:func:`dropout_chord_ids` on a Token list: the same draws, a new list."""
    ids = ids_of(tokens)
    return tokens_of(dropout_chord_ids(ids, cursors_of(ids), rate, seed)[0])


def boost_chord_velocity(
    score: ScoreTimeline,
    chord_onsets: list[int],
    gain: int,
    simultaneity_eps_ms: int = PipelineConfig.simultaneity_eps_ms,
) -> ScoreTimeline:
    """Raise the velocity of every note struck at a chord onset.

    ``chord_onsets`` are millisecond times, typically the CHORD
    annotations reported when decoding a token stream.  Any note whose
    onset falls within ``simultaneity_eps_ms`` of one of them gets
    ``gain`` added to its velocity, saturating at 127; all other notes
    come through unchanged.
    """
    if gain < 0:
        raise ValueError(f"gain must be >= 0, got {gain}")
    if simultaneity_eps_ms < 0:
        raise ValueError("simultaneity window must be >= 0")
    # Each note's first chord onset at or after its window's start (an
    # infinite one past the last) lies in the window or no onset does.
    starts = np.array([*sorted(chord_onsets), math.inf])
    columns = score.columns.copy()
    onset, velocity = columns[ONSET], columns[VELOCITY]
    first = starts[np.searchsorted(starts, onset - simultaneity_eps_ms)]
    hit = first <= onset + simultaneity_eps_ms
    velocity[hit] = np.minimum(velocity[hit] + min(gain, 127), 127)
    # No sort: a boost depends only on the onset, the leading order key, and
    # v -> min(127, v + gain) is monotone, so notes tied on (onset, block,
    # pitch, offset) keep their velocity order or become equal.
    return ScoreTimeline._presorted(columns, score.tempo_bpm, score.bar_marks_ms)


def format_spans(spans: list[ChordSpan]) -> str:
    """Line-based report: ``onset_s<TAB>instrument<TAB>duration_s<TAB>pitches``."""
    lines = []
    for s in spans:
        pitches = ",".join(str(p) for p in s.pitches)
        lines.append(
            f"{s.onset_ms / 1000.0:.3f}\t{s.instrument.value}\t{s.duration_ms / 1000.0:.3f}\t{pitches}"
        )
    return "".join(line + "\n" for line in lines)

