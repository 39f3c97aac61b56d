"""Chord detection and CHORD-token manipulation.

A chord here is deliberately narrow: at least three distinct pitches of
the same guitar or piano part striking together (onsets within a small
simultaneity window) and all lasting at least two beats.  Detected
spans drive three token-level operations: inserting a CHORD marker
immediately before each span's first ON token, randomly deleting
markers (training-time dropout), and raising the velocity of the notes
a marker announces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .midi_codec import DEFAULT_TEMPO_BPM, NoteEvent, ScoreTimeline, quantize_ms
from .tokens import CHORD, Instrument, Token, TokenKind

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
    beats (``beat_ms`` defaults to the score's tempo).
    """
    if simultaneity_eps_ms < 0:
        raise ValueError("simultaneity window must be >= 0")
    if beat_ms is None:
        beat_ms = beat_duration_ms(score.tempo_bpm)
    min_duration = MIN_CHORD_BEATS * beat_ms

    spans: list[ChordSpan] = []
    for instrument in CHORDABLE_INSTRUMENTS:
        notes = [n for n in score.notes if n.instrument is instrument]
        cluster: list[NoteEvent] = []
        for note in notes + [None]:  # sentinel flushes the last cluster
            if (
                note is not None
                and cluster
                and note.onset_ms - cluster[0].onset_ms <= simultaneity_eps_ms
            ):
                cluster.append(note)
                continue
            if cluster:
                pitches = sorted({n.pitch for n in cluster})
                durations = [n.duration_ms for n in cluster]
                if len(pitches) >= MIN_CHORD_NOTES and min(durations) >= min_duration:
                    spans.append(
                        ChordSpan(
                            instrument=instrument,
                            onset_ms=cluster[0].onset_ms,
                            pitches=tuple(pitches),
                            duration_ms=min(durations),
                        )
                    )
            cluster = [note] if note is not None else []
    spans.sort(key=lambda s: (s.onset_ms, s.instrument.value))
    return spans


def _cursor_positions(tokens: list[Token]) -> list[int]:
    """Cursor value in effect at each token position."""
    out = []
    cursor = 0
    for tok in tokens:
        out.append(cursor)
        if tok.kind is TokenKind.TIMESHIFT:
            cursor += tok.shift_ms
    return out


def insert_chord_tokens(
    tokens: list[Token],
    spans: list[ChordSpan],
    simultaneity_eps_ms: int = PipelineConfig.simultaneity_eps_ms,
) -> list[Token]:
    """Place one CHORD marker immediately before each span's first ON.

    The target is the first ON token of the span's instrument whose
    pitch belongs to the span and whose cursor time matches the span
    onset (within the simultaneity window, on the quantized grid).
    Spans that pick the same ON token each get their own marker there.
    Raises :class:`ChordLabelError` when a span has no such token.

    Cost: O(n + s * (log n + w)) for n tokens and s spans, where w is
    the number of tokens whose cursor lies in one span's window.  Cursor
    values never decrease, so each span bisects to its window and scans
    only that; the output is then spliced together in one pass.
    """
    cursors = _cursor_positions(tokens)
    n = len(tokens)
    insert_at: list[int] = []
    for span in spans:
        lo = quantize_ms(max(0, span.onset_ms - simultaneity_eps_ms))
        hi = quantize_ms(span.onset_ms + simultaneity_eps_ms)
        idx = bisect_left(cursors, lo)
        while idx < n and cursors[idx] <= hi:
            tok = tokens[idx]
            if (
                tok.kind is TokenKind.ON
                and tok.instrument is span.instrument
                and tok.pitch in span.pitches
            ):
                break
            idx += 1
        else:
            raise ChordLabelError(
                f"no ON token matches chord at {span.onset_ms} ms ({span.instrument.value})"
            )
        insert_at.append(idx)

    out: list[Token] = []
    start = 0
    for idx in sorted(insert_at):
        out += tokens[start:idx]
        out.append(CHORD)
        start = idx
    out += tokens[start:]
    return out


def dropout_chords(tokens: list[Token], rate: float, seed: int) -> list[Token]:
    """Delete each CHORD token independently with probability ``rate``."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1], got {rate}")
    positions = [i for i, tok in enumerate(tokens) if tok.kind is TokenKind.CHORD]
    if not positions:
        return list(tokens)
    rng = np.random.default_rng(seed)
    draws = rng.random(len(positions))
    removed = {pos for pos, d in zip(positions, draws) if d < rate}
    return [tok for i, tok in enumerate(tokens) if i not in removed]


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
    onsets = sorted(set(chord_onsets))
    if gain == 0 or not onsets:
        return ScoreTimeline(
            notes=list(score.notes),
            tempo_bpm=score.tempo_bpm,
            bar_marks_ms=score.bar_marks_ms,
        )
    out = []
    for n in score.notes:
        if any(abs(n.onset_ms - onset) <= simultaneity_eps_ms for onset in onsets):
            out.append(
                NoteEvent(
                    n.instrument,
                    n.pitch,
                    n.onset_ms,
                    n.offset_ms,
                    min(127, n.velocity + gain),
                )
            )
        else:
            out.append(n)
    return ScoreTimeline(notes=out, tempo_bpm=score.tempo_bpm, bar_marks_ms=score.bar_marks_ms)


def format_spans(spans: list[ChordSpan]) -> str:
    """Line-based report: ``onset_s<TAB>instrument<TAB>duration_s<TAB>pitches``."""
    lines = []
    for s in spans:
        pitches = ",".join(str(p) for p in s.pitches)
        lines.append(
            f"{s.onset_ms / 1000.0:.3f}\t{s.instrument.value}\t{s.duration_ms / 1000.0:.3f}\t{pitches}"
        )
    return "".join(line + "\n" for line in lines)


def parse_spans(text: str) -> list[ChordSpan]:
    """Inverse of :func:`format_spans`."""
    spans = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 4 tab-separated fields")
        try:
            onset = int(round(float(parts[0]) * 1000))
            instrument = Instrument(parts[1])
            duration = int(round(float(parts[2]) * 1000))
            pitches = tuple(int(p) for p in parts[3].split(","))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        spans.append(ChordSpan(instrument, onset, pitches, duration))
    return spans
