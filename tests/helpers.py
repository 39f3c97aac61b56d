"""Shared fixture builders for the test suite.

The SMF helpers construct raw bytes by hand, independent of the package
writer, so parser tests check against separately computed tick math.
The random score generators produce *representable* timelines: notes of
the same (instrument, pitch) never overlap, because an ON/OFF event
stream cannot faithfully carry overlapping unisons.
"""

from __future__ import annotations

import contextlib
import random
import signal

from midisync.midi_codec import NoteEvent, ScoreTimeline
from midisync.tokens import Instrument


def vlq(value: int) -> bytes:
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
