"""Shared fixture builders for the test suite.

The SMF helpers construct raw bytes by hand, independent of the package
writer, so parser tests check against separately computed tick math.
The random grid and off-grid score generators produce *representable*
timelines: notes of the same (instrument, pitch) never overlap, because
an ON/OFF event stream cannot faithfully carry overlapping unisons.  The
prepare-golden and chord-dense scores may overlap them.  :func:`stream`
turns a Token list into the (ids, cursors) pair that the package's
id-array stream functions take.
"""

from __future__ import annotations

import contextlib
import random
import signal

import numpy as np

from midisync.midi_codec import NoteEvent, ScoreTimeline
from midisync.tokens import Instrument, cursors_of, ids_of


def stream(tokens) -> tuple[np.ndarray, np.ndarray]:
    """The int64 ids of a Token list and the cursor after each token."""
    ids = ids_of(tokens)
    return ids, cursors_of(ids)


def vlq(value: int) -> bytes:
    if value < 0:
        raise ValueError(f"negative variable-length quantity: {value}")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def raw_track(events: bytes) -> bytes:
    body = events + b"\x00\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def raw_smf(tracks: list[bytes], fmt: int = 1, division: int = 480) -> bytes:
    head = b"MThd" + (6).to_bytes(4, "big")
    head += fmt.to_bytes(2, "big") + len(tracks).to_bytes(2, "big") + division.to_bytes(2, "big")
    return head + b"".join(raw_track(t) for t in tracks)


@contextlib.contextmanager
def time_budget(seconds: float):
    """Raise ``TimeoutError`` inside the block once it runs past ``seconds``.

    Uses ``SIGALRM``, so a hang in Python code fails the test instead of
    stalling the suite (Unix only, main thread only).
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _place_note(taken: dict, key, onset: int, offset: int, clearance: int) -> bool:
    """Record [onset, offset) for key unless it comes too close to another."""
    for a, b in taken.get(key, ()):
        if onset < b + clearance and a < offset + clearance:
            return False
    taken.setdefault(key, []).append((onset, offset))
    return True


def random_grid_score(rng: random.Random, max_notes: int = 40) -> ScoreTimeline:
    """Random timeline on the 8 ms grid; adjacent same-pitch notes allowed."""
    notes = []
    taken: dict = {}
    for _ in range(rng.randint(1, max_notes)):
        instrument = rng.choice(list(Instrument))
        pitch = rng.randint(0, 127)
        onset = rng.randrange(0, 4000, 8)
        offset = onset + rng.randrange(8, 3000, 8)
        if _place_note(taken, (instrument, pitch), onset, offset, clearance=0):
            notes.append(NoteEvent(instrument, pitch, onset, offset))
    n_bars = rng.randint(0, 3)
    marks = sorted(rng.sample(range(0, 6000, 8), n_bars)) if n_bars else []
    return ScoreTimeline(notes=notes, bar_marks_ms=tuple(marks))


def random_offgrid_score(rng: random.Random, max_notes: int = 25) -> ScoreTimeline:
    """Random timeline with arbitrary millisecond times.

    Same-pitch notes keep >= 16 ms clearance so that 8 ms quantization
    cannot collapse two distinct notes into an ambiguous stream.
    """
    notes = []
    taken: dict = {}
    for _ in range(rng.randint(1, max_notes)):
        instrument = rng.choice(list(Instrument))
        pitch = rng.randint(0, 127)
        onset = rng.randint(0, 3999)
        offset = onset + rng.randint(10, 2000)
        if _place_note(taken, (instrument, pitch), onset, offset, clearance=16):
            notes.append(NoteEvent(instrument, pitch, onset, offset))
    return ScoreTimeline(notes=notes)


def golden_score(seed: int) -> ScoreTimeline:
    """Seeded score over a random subset of instruments, tempo and velocities.

    Durations go down to 1 ms, so some notes round to a zero-tick length
    and take the writer's one-tick minimum.
    """
    rng = random.Random(seed)
    instruments = rng.sample(list(Instrument), rng.randint(1, len(Instrument)))
    notes = []
    for _ in range(rng.randint(20, 60)):
        onset = rng.randint(0, 20_000)
        duration = rng.choice((1, 2, rng.randint(1, 40), rng.randint(40, 3000)))
        notes.append(
            NoteEvent(
                rng.choice(instruments),
                rng.randint(0, 127),
                onset,
                onset + duration,
                velocity=rng.randint(1, 127),
            )
        )
    tempo = rng.choice((90.0, 110.0, 120.0, 132.5, 171.0))
    return ScoreTimeline(notes=notes, tempo_bpm=tempo)


def prepare_golden_score(seed: int) -> ScoreTimeline:
    """Held triads (chord spans), then loose notes off the 8 ms grid.

    Triad notes start up to 8 ms apart and some hold for two beats, and
    loose notes may overlap a unison, so the files pin the event order,
    quantization, chord insertion and dropout, and the offsets text.
    """
    rng = random.Random(seed)
    notes = []
    t = 0
    for _ in range(rng.randint(6, 14)):
        instrument = rng.choice((Instrument.PIANO, Instrument.GUITAR))
        root = rng.randint(40, 76)
        length = rng.randint(600, 3000)
        for interval in (0, 4, 7):
            notes.append(NoteEvent(instrument, root + interval, t + rng.randint(0, 8), t + length))
        t += length + rng.randint(0, 400)
    for _ in range(rng.randint(10, 40)):
        onset = rng.randint(0, t)
        notes.append(
            NoteEvent(
                rng.choice(list(Instrument)),
                rng.randint(0, 127),
                onset,
                onset + rng.randint(1, 2000),
                velocity=rng.randint(1, 127),
            )
        )
    return ScoreTimeline(notes=notes, tempo_bpm=rng.choice((96.0, 110.0, 120.0, 137.0)))


def chord_dense_score(rng):
    """Stacked guitar/piano onsets a few ms apart, repeated pitches, mixed lengths."""
    notes = []
    taken = set()
    for _ in range(rng.randint(1, 60)):
        instrument = rng.choice([Instrument.GUITAR, Instrument.PIANO, Instrument.BASS])
        onset = rng.randrange(0, 3000, 100) + rng.randint(0, 12)
        pitch = rng.randint(58, 66)
        if (instrument, pitch, onset) in taken:
            continue
        taken.add((instrument, pitch, onset))
        offset = onset + rng.choice([200, 900, 1000, 2500])
        notes.append(NoteEvent(instrument, pitch, onset, offset))
    return ScoreTimeline(notes=notes)
