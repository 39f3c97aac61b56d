"""Seeded benchmark inputs: songs, corrupt SMFs, scene logs, emotion files.

Everything is built in-process from a seed; nothing is downloaded.  The
program under test only ever sees the files these functions return.

Each workload draws its content from the seed but keeps its size fixed:
song lengths, tempos and clip lengths are a fixed multiset in a seeded
order, so two seeds ask for nearly the same amount of work and the
timings of different seeds can be compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from midisync.emotion import EMOTION_CATEGORIES
from midisync.midi_codec import NoteEvent, ScoreTimeline, write_midi
from midisync.tokens import Instrument

GRID_MS = 8
BEATS_PER_BAR = 4  # write_midi always writes a 4/4 time signature
MAJOR = (0, 2, 4, 5, 7, 9, 11)
PROGRESSION_DEGREES = (0, 3, 4, 5, 1, 4)  # I IV V vi ii V, as scale degrees
KICK, SNARE, HAT = 36, 38, 42


def _grid(ms: float) -> int:
    """Snap to the token grid, so notes survive an encode/decode round trip."""
    return int(round(ms / GRID_MS)) * GRID_MS


@dataclass(frozen=True)
class Song:
    """One generated song: its SMF bytes and what went into it."""

    name: str
    smf: bytes
    seconds: float
    notes: int
    chords: int


def build_score(
    rng: random.Random, seconds: float, tempo_bpm: float, chord_instrument: Instrument
) -> tuple[ScoreTimeline, int]:
    """A four-part song on the 8 ms grid; returns it and its chord count.

    Held triads of at least three beats start every one or two bars on
    ``chord_instrument``; strings play a melody in eighths and quarters,
    bass plays the chord root on every beat, and drums keep a rock beat
    with eighth-note hi-hats.  No two notes of one instrument and pitch
    overlap, so the score is exactly representable as ON/OFF events.
    The last note ends half a bar before ``seconds``.
    """
    beat = 60_000.0 / tempo_bpm
    total_beats = int(seconds * 1000 / beat) - BEATS_PER_BAR // 2
    key = rng.randrange(-5, 7)
    notes: list[NoteEvent] = []

    def note(inst: Instrument, pitch: int, start_beats: float, length_beats: float, vel: int):
        onset = _grid(start_beats * beat)
        offset = max(_grid((start_beats + length_beats) * beat), onset + GRID_MS)
        notes.append(NoteEvent(inst, pitch, onset, offset, vel))

    # Chords, and the root each beat's bass note follows.
    roots = [48 + key] * total_beats
    chords = 0
    start_bar = 0
    while (start_bar + 1) * BEATS_PER_BAR <= total_beats:
        gap_bars = rng.choice((1, 2))
        hold = 3.0 if gap_bars == 1 else rng.choice((3.0, 4.0, 6.0))
        hold = min(hold, total_beats - start_bar * BEATS_PER_BAR)
        if hold < 3.0:
            break
        degree = rng.choice(PROGRESSION_DEGREES)
        root = 48 + key + MAJOR[degree]
        third = 3 if degree in (1, 5) else 4  # ii and vi are minor
        vel = rng.randrange(60, 100)
        for interval in (0, third, 7):
            note(chord_instrument, root + 12 + interval, start_bar * BEATS_PER_BAR, hold, vel)
        chords += 1
        first = start_bar * BEATS_PER_BAR
        for b in range(first, min(first + gap_bars * BEATS_PER_BAR, total_beats)):
            roots[b] = root
        start_bar += gap_bars

    for b in range(total_beats):
        note(Instrument.BASS, roots[b] - 12, b, 0.75, rng.randrange(70, 100))
        note(Instrument.DRUMS, KICK if b % 2 == 0 else SNARE, b, 0.125, 100)
        note(Instrument.DRUMS, HAT, b, 0.125, 70)
        note(Instrument.DRUMS, HAT, b + 0.5, 0.125, 60)

    degree = rng.randrange(7)
    t = 0.0
    while t < total_beats - 1:
        step = rng.choice((0.5, 0.5, 1.0))
        if rng.random() < 0.85:
            degree = max(0, min(13, degree + rng.choice((-2, -1, -1, 1, 1, 2))))
            pitch = 72 + key + 12 * (degree // 7) + MAJOR[degree % 7]
            note(Instrument.STRINGS, pitch, t, step * rng.choice((0.5, 0.75, 0.9)),
                 rng.randrange(50, 110))
        t += step

    return ScoreTimeline(notes=notes, tempo_bpm=tempo_bpm), chords


def build_song(
    rng: random.Random, name: str, seconds: float, tempo_bpm: float, chord_instrument: Instrument
) -> Song:
    score, chords = build_score(rng, seconds, tempo_bpm, chord_instrument)
    return Song(name, write_midi(score), seconds, len(score.notes), chords)


def build_songs(
    rng: random.Random, prefix: str, lengths_s: list[float], tempos: tuple[float, ...]
) -> list[Song]:
    """One song per length, cycling tempo and chord part, in a seeded order.

    Lengths are paired with tempos before shuffling, so every seed asks
    for the same (length, tempo) pairs and about the same work.
    """
    parts = (Instrument.PIANO, Instrument.GUITAR)
    shapes = [(s, tempos[i % len(tempos)], parts[i % 2]) for i, s in enumerate(lengths_s)]
    rng.shuffle(shapes)
    return [
        build_song(rng, f"{prefix}{i:03d}.mid", *shape) for i, shape in enumerate(shapes)
    ]


def spread(lo: float, hi: float, n: int) -> list[float]:
    """``n`` lengths evenly spaced over ``[lo, hi]``, on whole seconds."""
    if n == 1:
        return [float(lo)]
    return [float(round(lo + (hi - lo) * i / (n - 1))) for i in range(n)]


# ---------------------------------------------------------------------------
# Corrupt files
# ---------------------------------------------------------------------------

CORRUPTIONS = ("truncate", "bad_magic", "bad_format", "overlong_track")


def corrupt_smf(rng: random.Random, smf: bytes, kind: str) -> bytes:
    """A copy of ``smf`` that ``parse_midi`` must reject.

    Every kind is a structural fault the parser detects before reading
    any event data, so none of them depends on how events are decoded.
    """
    if kind == "truncate":  # cut inside the last track chunk
        last = smf.rindex(b"MTrk")
        return smf[: rng.randrange(last + 9, len(smf) - 1)]
    if kind == "bad_magic":
        return bytes(rng.choice(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ") for _ in range(4)) + smf[4:]
    if kind == "bad_format":  # SMF format 2 is not supported
        return smf[:8] + (2).to_bytes(2, "big") + smf[10:]
    if kind == "overlong_track":  # first track claims more bytes than the file has
        return smf[:18] + (len(smf) + rng.randrange(1, 1000)).to_bytes(4, "big") + smf[22:]
    raise ValueError(f"unknown corruption {kind!r}")


# ---------------------------------------------------------------------------
# Scene logs and emotion files
# ---------------------------------------------------------------------------


def scene_log(rng: random.Random, seconds: float) -> tuple[str, list[float]]:
    """A scene-detector log for a clip, and its cut times.

    Cuts come every 1.5 to 9 seconds, so the default 4 s gap filter
    drops some of them.  Lines follow FFmpeg's ``showinfo`` output.
    """
    cuts = []
    t = rng.uniform(1.0, 4.0)
    while t < seconds - 1.0:
        cuts.append(round(t, 3))
        t += rng.uniform(1.5, 9.0)
    lines = [
        f"[Parsed_showinfo_1 @ 0x55d0] n:{i:4d} pts:{int(c * 12800):8d} "
        f"pts_time:{c:.3f} pos:{1000 * (i + 1)} fmt:yuv420p"
        for i, c in enumerate(cuts)
    ]
    lines.append(f"[out#0/null @ 0x55d1] video:0kB audio:0kB duration={seconds:.3f}")
    return "\n".join(lines) + "\n", cuts


def emotion_file(rng: random.Random, base: dict[str, float], as_json: bool) -> str:
    """``base`` with a little seeded noise, in JSON or ``category: p`` form."""
    weights = {c: base.get(c, 0.0) + rng.uniform(0.0, 0.04) for c in EMOTION_CATEGORIES}
    total = sum(weights.values())
    probs = {c: w / total for c, w in weights.items()}
    if as_json:
        return json.dumps(probs)
    return "".join(f"{c}: {p!r}\n" for c, p in probs.items())
