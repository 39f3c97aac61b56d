"""The way back from tokens to MIDI against the Token-list oracles.

``midi_codec.decode_ids`` pairs notes with NumPy and ``midi_codec.write_midi``
writes SMF bytes from note columns.  ``codec_oracle.py`` keeps the
:class:`DecodeState` fold and the per-message writer they replaced, and
these tests require the same decode results and the same bytes on seeded
hostile streams and scores.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from midisync.midi_codec import (
    MAX_DELTA_TICKS,
    NoteEvent,
    ScoreTimeline,
    decode_ids,
    parse_midi,
    write_midi,
)
from midisync.tokens import (
    BAR,
    CHORD,
    FEWER_INSTRUMENTS,
    MORE_INSTRUMENTS,
    PAD,
    SHIFT_VALUES_MS,
    START,
    Instrument,
    Token,
    ids_of,
)

from codec_oracle import oracle_decode_events, oracle_write_midi
from helpers import golden_score


def hostile_stream(rng: random.Random) -> list[Token]:
    """A seeded stream that crowds every rule of the decoder together.

    One to three pitches per instrument make orphan OFFs (often two in a
    row), stacked unisons (two ONs of one note) and zero-length pairs
    common.  Markers land anywhere, START and PAD mid-stream too, and
    some streams have no header.  The stream ends with one or two ONs on
    every instrument, left open, and then maybe a shift.
    """
    instruments = list(Instrument)
    pitches = {inst: rng.sample(range(128), rng.randint(1, 3)) for inst in instruments}
    toks = []
    if rng.random() < 0.8:
        toks += [START, rng.choice((FEWER_INSTRUMENTS, MORE_INSTRUMENTS))]
    for _ in range(rng.randint(0, 150)):
        inst = rng.choice(instruments)
        on = Token.on(inst, rng.choice(pitches[inst]))
        off = Token.off(inst, rng.choice(pitches[inst]))
        r = rng.random()
        if r < 0.25:
            toks.append(on)
        elif r < 0.45:
            toks.append(off)
        elif r < 0.5:
            toks += [on, on]
        elif r < 0.55:
            toks += [on, Token.off(on.instrument, on.pitch)]
        elif r < 0.6:
            toks += [off, off]
        elif r < 0.8:
            toks.append(Token.shift(rng.choice(SHIFT_VALUES_MS)))
        elif r < 0.87:
            toks.append(CHORD)
        elif r < 0.94:
            toks.append(BAR)
        else:
            toks.append(rng.choice((START, PAD, FEWER_INSTRUMENTS, MORE_INSTRUMENTS)))
    rng.shuffle(instruments)
    for inst in instruments:
        toks += [Token.on(inst, rng.choice(pitches[inst]))] * rng.randint(1, 2)
    if rng.random() < 0.5:
        toks.append(Token.shift(rng.choice((8, 1000))))
    return toks


EDGE_STREAMS = {
    "empty": [],
    "header only": [START, FEWER_INSTRUMENTS],
    "shifts only": [START, MORE_INSTRUMENTS] + [Token.shift(1000)] * 3 + [Token.shift(8)],
    "orphan OFFs only": [Token.off(inst, 60) for inst in Instrument] * 2,
    "open ONs, no time": [Token.on(inst, 60) for inst in Instrument],
    "markers only": [BAR, CHORD, BAR, Token.shift(8), BAR, BAR, CHORD, CHORD],
}


def assert_same_decode(toks: list[Token], label) -> None:
    got = decode_ids(ids_of(toks))
    assert got == oracle_decode_events(toks), label
    counters = (got.ignored_offs, got.unclosed_notes, got.dropped_zero_length)
    assert all(type(c) is int for c in counters), label
    assert all(type(c) is int for c in got.chord_onsets_ms), label
    assert all(type(b) is int for b in got.score.bar_marks_ms), label
    assert got.score.columns.dtype == np.int64 and got.score.tempo_bpm == 120.0, label


@pytest.mark.parametrize("name", sorted(EDGE_STREAMS))
def test_decode_ids_matches_the_fold_on_edge_streams(name):
    assert_same_decode(EDGE_STREAMS[name], name)


def test_decode_ids_matches_the_fold_on_hostile_streams():
    totals = dict.fromkeys(("orphans", "unclosed", "zero length", "stacked", "chords", "bars"), 0)
    for seed in range(300):
        toks = hostile_stream(random.Random(seed))
        assert_same_decode(toks, seed)
        result = oracle_decode_events(toks)
        totals["orphans"] += result.ignored_offs
        totals["unclosed"] += result.unclosed_notes
        totals["zero length"] += result.dropped_zero_length
        totals["chords"] += len(result.chord_onsets_ms)
        totals["bars"] += len(result.score.bar_marks_ms)
        notes = [n[:3] for n in result.score.notes]
        totals["stacked"] += len(notes) - len(set(notes))  # two notes of one pitch at one onset
    assert min(totals.values()) >= 100, totals


# ---------------------------------------------------------------------------
# write_midi
# ---------------------------------------------------------------------------


def random_score(rng: random.Random) -> ScoreTimeline:
    """Notes of every instrument, 1 ms to 3 s long, repeated onsets, any tempo."""
    instruments = rng.sample(list(Instrument), rng.randint(1, len(Instrument)))
    onsets = [rng.randint(0, 30_000) for _ in range(8)]
    notes = []
    for _ in range(rng.randint(0, 80)):
        onset = rng.choice(onsets) if rng.random() < 0.3 else rng.randint(0, 30_000)
        notes.append(
            NoteEvent(
                rng.choice(instruments),
                rng.choice((60, rng.randint(0, 127))),
                onset,
                onset + rng.choice((1, 2, rng.randint(1, 50), rng.randint(50, 3000))),
                velocity=rng.randint(1, 127),
            )
        )
    tempo = rng.choice((120.0, 62.5, 93.75, rng.uniform(20.0, 300.0)))
    return ScoreTimeline(notes, tempo_bpm=tempo)


@pytest.mark.parametrize("smf_type", [1])  # the one format write_midi writes
def test_write_midi_matches_the_oracle(smf_type):
    scores = [ScoreTimeline()] + [golden_score(seed) for seed in range(6)]
    scores += [random_score(random.Random(seed)) for seed in range(200)]
    for k, score in enumerate(scores):
        assert write_midi(score) == oracle_write_midi(score, smf_type), k


@pytest.mark.parametrize("smf_type", [1])  # the one format write_midi writes
def test_write_midi_rounds_half_ticks_as_round(smf_type):
    # At 62.5 bpm a tick is 2 ms, at 93.75 bpm 4/3 ms: odd ms and ms of
    # 2 mod 4 fall halfway between two ticks, and round to the even one.
    for tempo, tempo_us in ((62.5, 960_000), (93.75, 640_000)):
        notes = [NoteEvent(Instrument.PIANO, 60 + ms % 5, ms, ms + 1 + ms % 3) for ms in range(400)]
        halves = [ms for ms in range(400) if 2 * (ms * 480_000 % tempo_us) == tempo_us]
        assert len(halves) >= 100
        score = ScoreTimeline(notes, tempo_bpm=tempo)
        assert write_midi(score) == oracle_write_midi(score, smf_type), tempo


@pytest.mark.parametrize("smf_type", [1])  # the one format write_midi writes
def test_write_midi_writes_two_three_and_four_byte_deltas(smf_type):
    # At 125 bpm (480000 us per quarter) a tick lasts 1 ms.
    piano, drums = Instrument.PIANO, Instrument.DRUMS
    notes = [
        NoteEvent(piano, 60, 0, 100),
        NoteEvent(piano, 62, 300, 301),  # delta 200: two bytes
        NoteEvent(drums, 36, 20_000, 20_001),  # three bytes
        NoteEvent(piano, 64, 3_000_000, 3_000_500),  # four bytes
        NoteEvent(piano, 65, 3_000_500 + MAX_DELTA_TICKS, 3_000_501 + MAX_DELTA_TICKS),
    ]
    score = ScoreTimeline(notes, tempo_bpm=125.0)
    data = write_midi(score)
    assert data == oracle_write_midi(score, smf_type)
    assert b"\xff\xff\xff\x7f" in data  # the largest delta there is
    # The first four fit in the hour parse_midi reads, and come back whole.
    data = write_midi(ScoreTimeline(notes[:4], tempo_bpm=125.0))
    assert parse_midi(data).notes == notes[:4]


@pytest.mark.parametrize("smf_type", [1])  # the one format write_midi writes
def test_write_midi_rejects_a_delta_no_smf_holds(smf_type):
    one_past = MAX_DELTA_TICKS + 1
    note = NoteEvent(Instrument.PIANO, 60, one_past, one_past + 1)
    score = ScoreTimeline([note], tempo_bpm=125.0)
    limit = r"exceeds the SMF limit of 0x0FFFFFFF \(four variable-length bytes\)$"
    with pytest.raises(ValueError, match=rf"^delta time of {one_past} ticks {limit}"):
        write_midi(score)
    at_120 = ScoreTimeline([NoteEvent(Instrument.PIANO, 60, 300_000_000, 300_000_100)])
    with pytest.raises(ValueError, match=rf"^delta time of 288000000 ticks {limit}"):
        write_midi(at_120)


def test_write_midi_rejects_times_past_exact_tick_math():
    limit = 2**53 // 480_000
    score = ScoreTimeline([NoteEvent(Instrument.PIANO, 60, limit - 5, limit + 1)])
    message = rf"^note time {limit + 1} ms is past the {limit} ms limit$"
    with pytest.raises(ValueError, match=message):
        write_midi(score)


def test_write_midi_rejects_a_tempo_no_smf_holds():
    note = NoteEvent(Instrument.PIANO, 60, 0, 500)
    for tempo, tempo_us in ((3.5, 17_142_857), (2e8, 0), (float("inf"), 0)):
        message = rf"^tempo {tempo} bpm is {tempo_us} us per quarter, outside the 1 to 16777215"
        with pytest.raises(ValueError, match=message):
            write_midi(ScoreTimeline([note], tempo_bpm=tempo))
    slowest = ScoreTimeline([note], tempo_bpm=60_000_000 / 0xFFFFFF)
    assert write_midi(slowest) == oracle_write_midi(slowest)
