"""Differential fuzz test of the SMF reader against the kept oracle.

Each case mutates a valid SMF (byte overwrites mostly, plus inserts,
deletes and truncation) and requires ``parse_midi`` to agree with
``smf_oracle.oracle_parse_midi``: the same notes, tempo, bar marks and
warnings, or the same ``MidiParseError`` message and byte offset.  The one
intended difference is the bar-mark bound, which the oracle predates.
Every accepted case then runs through the rest of ``prepare`` in bounded
time.
"""

from __future__ import annotations

import random

import pytest

from midisync.chords import detect_chords, insert_chord_tokens
from midisync.midi_codec import (
    MAX_BAR_MARKS,
    MidiParseError,
    encode_events,
    parse_midi,
    write_midi,
)
from midisync.scheduler import offsets_for_sequence

from helpers import random_grid_score, random_offgrid_score, raw_smf, time_budget, vlq
from smf_oracle import oracle_parse_midi

SMPTE_25FPS_40 = ((256 - 25) << 8) | 40


def hand_built_files() -> list[bytes]:
    """SMFs the package writer never makes: running status, SMPTE, odd events."""
    running = (
        vlq(0) + b"\xff\x51\x03" + (600_000).to_bytes(3, "big")
        + vlq(0) + b"\xff\x58\x04\x03\x02\x18\x08"
        + vlq(0) + bytes([0xC0, 33])
        + vlq(0) + bytes([0x90, 40, 90]) + vlq(0) + bytes([43, 90]) + vlq(0) + bytes([47, 90])
        + vlq(120) + bytes([0xB0, 7, 100]) + vlq(0) + bytes([0xE0, 0, 64])
        + vlq(0) + bytes([0xD0, 30]) + vlq(0) + b"\xf0\x03\x7e\x7f\xf7"
        + vlq(0) + b"\xff\x01\x04text"
        + vlq(360) + bytes([0x90, 40, 0]) + vlq(0) + bytes([43, 0]) + vlq(200) + bytes([47, 0])
        + vlq(0) + bytes([0x99, 36, 100]) + vlq(1000) + bytes([0x89, 36, 0])
    )
    smpte = (
        vlq(0) + bytes([0x90, 60, 80]) + vlq(123) + bytes([0x80, 60, 0])
        + vlq(5) + bytes([0x91, 62, 70]) + vlq(0) + bytes([0x81, 64, 0])
        + vlq(300) + bytes([0xC1, 26]) + vlq(0) + bytes([0x91, 65, 70])
    )
    two_tracks = raw_smf([running, smpte])
    unknown_chunk = b"XFIH" + (3).to_bytes(4, "big") + b"abc"
    return [
        raw_smf([running]),
        raw_smf([running], fmt=0),
        raw_smf([smpte], division=SMPTE_25FPS_40),
        two_tracks[:14] + unknown_chunk + two_tracks[14:],
    ]


def base_files() -> list[bytes]:
    rng = random.Random(2024)
    files = hand_built_files()
    for make in (random_grid_score, random_offgrid_score):
        for _ in range(4):
            score = make(rng)
            files += [write_midi(score, smf_type=0), write_midi(score, smf_type=1)]
    return files


BASES = base_files()
CASES_PER_CHUNK = 1000
CHUNKS = 5


def mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        if op < 0.7 and out:
            out[rng.randrange(len(out))] = rng.choice((rng.randrange(256), 0x00, 0x7F, 0x80, 0xFF))
        elif op < 0.8:
            out.insert(rng.randint(0, len(out)), rng.randrange(256))
        elif op < 0.9 and out:
            del out[rng.randrange(len(out))]
        else:
            del out[rng.randint(0, len(out)):]
    return bytes(out)


def outcome(parse, data: bytes):
    warnings: list[str] = []
    try:
        score = parse(data, warnings)
    except MidiParseError as exc:
        return ("error", str(exc), exc.offset)
    return ("score", score, warnings)


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_parse_midi_matches_the_oracle_on_mutated_files(chunk):
    parsed = 0
    for case in range(chunk * CASES_PER_CHUNK, (chunk + 1) * CASES_PER_CHUNK):
        rng = random.Random(case)
        data = mutate(rng, rng.choice(BASES))
        expected = outcome(oracle_parse_midi, data)
        with time_budget(2.0):
            got = outcome(parse_midi, data)
            if got[0] == "score":
                score = got[1]
                tokens = encode_events(score)
                tokens = insert_chord_tokens(tokens, detect_chords(score))
                assert len(offsets_for_sequence(tokens)) == len(tokens)
        if got[0] == "error" and "bar marks" in got[1] and expected[0] == "score":
            assert len(expected[1].bar_marks_ms) >= MAX_BAR_MARKS, (case, data.hex())
            continue
        assert got == expected, (case, data.hex())
        parsed += got[0] == "score"
    # Both sides of the contract are exercised in every chunk.
    assert 0.1 * CASES_PER_CHUNK < parsed < 0.9 * CASES_PER_CHUNK
