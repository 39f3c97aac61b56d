"""Differential fuzz test of the SMF reader against the kept oracle.

Each case mutates a valid SMF (byte overwrites mostly, plus inserts,
deletes and truncation) and requires ``parse_midi`` to agree with
``smf_oracle.oracle_parse_midi``: the same notes, tempo, bar marks and
warnings, or the same ``MidiParseError`` message and byte offset.  The one
intended difference is the bar-mark bound, which the oracle predates.
Every accepted case then runs through the rest of ``prepare`` in bounded
time.  Seeded hand-made files then hold the note pairing to the oracle
where it is hardest: tracks that share a channel and pitch, overlaps,
equal ticks, program changes, dangling and orphan events, rounding ties
of an SMPTE division and the span limit.  Seeded files with delta times
of one to four bytes, whole and cut after every byte, hold the reader's
inline two-byte delta to the oracle.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from midisync.chords import detect_chords, insert_chord_ids
from midisync.midi_codec import (
    MAX_BAR_MARKS,
    MAX_SCORE_SPAN_MS,
    MidiParseError,
    encode_ids,
    parse_midi,
)
from midisync.scheduler import offsets_ms_for_ids
from midisync.tokens import cursors_of

from helpers import random_grid_score, random_offgrid_score, raw_smf, time_budget, vlq
from codec_oracle import smf_bytes
from smf_oracle import oracle_parse_midi

SMPTE_25FPS_40 = ((256 - 25) << 8) | 40
SMPTE_25FPS_80 = ((256 - 25) << 8) | 80  # half a millisecond per tick


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
            files += [smf_bytes(score, 0), smf_bytes(score, 1)]
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
                ids = encode_ids(score)
                ids, cursors = insert_chord_ids(ids, cursors_of(ids), detect_chords(score))
                assert len(offsets_ms_for_ids(ids, cursors)) == len(ids)
        if got[0] == "error" and "bar marks" in got[1] and expected[0] == "score":
            assert len(expected[1].bar_marks_ms) >= MAX_BAR_MARKS, (case, data.hex())
            continue
        assert got == expected, (case, data.hex())
        parsed += got[0] == "score"
    # Both sides of the contract are exercised in every chunk.
    assert 0.1 * CASES_PER_CHUNK < parsed < 0.9 * CASES_PER_CHUNK


# ---------------------------------------------------------------------------
# Note pairing against the oracle
# ---------------------------------------------------------------------------


def shared_key_track(rng: random.Random, programs: bool) -> bytes:
    """Note events on three channels (one drums) and two pitches, many at equal ticks.

    Ons overlap on one key, offs may come with no open note (orphans) or
    never (dangling), some notes close at their own tick (zero length),
    and ``programs`` puts program changes between the notes.
    """
    events = b""
    for _ in range(rng.randint(1, 40)):
        delta = rng.choice((0, 0, 0, 1, 2, 3, 40))
        channel = rng.choice((0, 1, 9))
        pitch = rng.choice((60, 61))
        draw = rng.random()
        if programs and draw < 0.1:
            event = bytes([0xC0 | channel, rng.choice((0, 25, 33, 48, 100))])
        elif draw < 0.55:
            event = bytes([0x90 | channel, pitch, rng.randint(1, 127)])
        elif draw < 0.8:
            event = bytes([0x80 | channel, pitch, rng.randint(0, 127)])
        else:
            event = bytes([0x90 | channel, pitch, 0])  # a note-off
        events += vlq(delta) + event
    return events


def shared_key_file(seed: int, programs: bool) -> bytes:
    rng = random.Random(seed)
    tracks = [shared_key_track(rng, programs) for _ in range(rng.randint(1, 4))]
    division = rng.choice((1, 3, 7, 96, 480, SMPTE_25FPS_40, SMPTE_25FPS_80))
    return raw_smf(tracks, fmt=1 if len(tracks) > 1 else rng.choice((0, 1)), division=division)


PAIRING_RULES = ("note-on without note-off", "note-off with no open note", "zero-length")


@pytest.mark.parametrize("programs", [False, True], ids=["fixed-programs", "program-changes"])
def test_pairing_matches_the_oracle_on_shared_keys(programs):
    seen: set[str] = set()
    for seed in range(300):
        data = shared_key_file(seed, programs)
        got = outcome(parse_midi, data)
        assert got == outcome(oracle_parse_midi, data), (seed, data.hex())
        assert got[0] == "score"
        score, warnings = got[1], got[2]
        seen.update(rule for rule in PAIRING_RULES for w in warnings if rule in w)
        seen.update(n.instrument.value for n in score.notes)
        by_key = defaultdict(list)
        for note in score.notes:  # in onset order
            by_key[note[:2]].append(note)
        if any(b.onset_ms < a.offset_ms for ns in by_key.values() for a, b in zip(ns, ns[1:])):
            seen.add("overlap")
    # Every pairing rule ran, and with program changes every instrument.
    instruments = {"piano", "drums"} | ({"guitar", "bass", "strings"} if programs else set())
    assert {*PAIRING_RULES, "overlap", *instruments} <= seen


def test_smpte_half_millisecond_ticks_round_half_to_even():
    # 25 fps x 80 ticks: tick t is t / 2 ms, so every odd tick is a tie.
    notes = {60: (1, 5), 61: (3, 7), 62: (9, 11), 63: (13, 14), 64: (7, 9)}
    timed = sorted(
        [(on, bytes([0x90, pitch, 80])) for pitch, (on, _) in notes.items()]
        + [(off, bytes([0x80, pitch, 0])) for pitch, (_, off) in notes.items()]
    )
    events, now = b"", 0
    for tick, event in timed:
        events += vlq(tick - now) + event
        now = tick
    data = raw_smf([events], division=SMPTE_25FPS_80)
    score = parse_midi(data)
    # 0.5 -> 0, 1.5 -> 2, 2.5 -> 2, 3.5 -> 4, 4.5 -> 4, 5.5 -> 6, 6.5 -> 6;
    # pitch 64 rounds to (4, 4) and is stretched to 1 ms.
    assert [(n.pitch, n.onset_ms, n.offset_ms) for n in score.notes] == [
        (60, 0, 2), (61, 2, 4), (62, 4, 6), (64, 4, 5), (63, 6, 7)
    ]
    assert outcome(parse_midi, data) == outcome(oracle_parse_midi, data)


def test_last_note_at_the_span_limit_with_the_finest_division():
    # 32767 ticks per quarter at 500,000 usec per quarter: 65.534 ticks per ms.
    last = MAX_SCORE_SPAN_MS * 65534 // 1000
    events = vlq(0) + bytes([0x90, 60, 80]) + vlq(last) + bytes([0x80, 60, 0])
    data = raw_smf([events], division=0x7FFF)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert [(n.onset_ms, n.offset_ms) for n in got[1].notes] == [(0, MAX_SCORE_SPAN_MS)]
    past = vlq(0) + bytes([0x90, 60, 80]) + vlq(last + 33) + bytes([0x80, 60, 0])
    data = raw_smf([past], division=0x7FFF)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "error" and "3600001 ms is past" in got[1]


# ---------------------------------------------------------------------------
# Delta times of every width (the reader reads a two-byte one inline)
# ---------------------------------------------------------------------------


FIRST_EVENT = 14 + 8  # the byte offset of the first event of a raw_smf file


def test_two_byte_delta_ending_the_file():
    # A chunk whose last two bytes, and the file's, are a two-byte delta.
    body = vlq(0) + bytes([0x90, 60, 80]) + vlq(200) + bytes([0x80, 60, 0]) + vlq(300)
    data = raw_smf([b""])[:14] + b"MTrk" + len(body).to_bytes(4, "big") + body
    assert len(vlq(300)) == 2 and data.endswith(vlq(300))
    got = outcome(parse_midi, data)
    assert got == ("error", f"truncated event status (byte offset {len(data)})", len(data))
    assert got == outcome(oracle_parse_midi, data)
    # Its first byte alone at the end of the file: the delta itself is cut short.
    cut = data[:-1]
    cut = cut[:18] + (len(body) - 1).to_bytes(4, "big") + cut[22:]
    got = outcome(parse_midi, cut)
    assert got == ("error", f"truncated delta time (byte offset {len(cut)})", len(cut))
    assert got == outcome(oracle_parse_midi, cut)


@pytest.mark.parametrize("ticks", [2**14, 2**21 - 1, 2**21, 2**28 - 1])
def test_three_and_four_byte_deltas(ticks):
    events = vlq(0) + bytes([0x90, 60, 80]) + vlq(ticks) + bytes([0x80, 60, 0])
    data = raw_smf([events], division=0x7FFF)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert len(vlq(ticks)) == (3 if ticks < 2**21 else 4)
    ms = (2 * ticks * 500_000 + 0x7FFF * 1000) // (2 * 0x7FFF * 1000)  # round half up
    if ms <= MAX_SCORE_SPAN_MS:
        assert [(n.onset_ms, n.offset_ms) for n in got[1].notes] == [(0, ms)]
    else:
        assert got[0] == "error" and f"note at {ms} ms is past" in got[1]


def test_five_byte_delta_keeps_the_varlen_message_and_offset():
    events = vlq(0) + bytes([0x90, 60, 80]) + b"\x81\x80\x80\x80\x00" + bytes([0x80, 60, 0])
    data = raw_smf([events])
    fourth = FIRST_EVENT + 4 + 3  # the note-on, then three continuation bytes
    got = outcome(parse_midi, data)
    assert got == (
        "error", f"variable-length delta time exceeds four bytes (byte offset {fourth})", fourth
    )
    assert got == outcome(oracle_parse_midi, data)


def wide_delta_file(seed: int) -> tuple[bytes, set[int]]:
    """Notes and meta events a one- to four-byte delta apart, on one or two tracks.

    Returns the file and the byte widths of its deltas.
    """
    rng = random.Random(seed)
    tracks = []
    widths = set()
    for _ in range(rng.randint(1, 2)):
        events = b""
        for _ in range(rng.randint(1, 12)):
            delta = rng.choice((
                0, 127, 128, 129, 255, 256, 16383, 16384, rng.randint(128, 16383),
                rng.randint(16384, 60_000), rng.randint(2**21, 2**22),
            ))
            pitch = rng.choice((60, 61))
            if rng.random() < 0.1:
                event = b"\xff\x51\x03" + rng.randint(200_000, 900_000).to_bytes(3, "big")
            elif rng.random() < 0.6:
                event = bytes([0x90, pitch, rng.randint(1, 127)])
            else:
                event = bytes([0x80, pitch, 0])
            events += vlq(delta) + event
            widths.add(len(vlq(delta)))
        tracks.append(events)
    division = rng.choice((96, 480, 0x7FFF, SMPTE_25FPS_40))
    return raw_smf(tracks, division=division), widths


def test_wide_deltas_match_the_oracle():
    widths: set[int] = set()
    kinds: set[str] = set()
    for seed in range(300):
        data, used = wide_delta_file(seed)
        widths |= used
        got = outcome(parse_midi, data)
        assert got == outcome(oracle_parse_midi, data), (seed, data.hex())
        kinds.add(got[0])
        if seed < 60:  # every truncation: each delta cut after each of its bytes
            for end in range(14, len(data)):
                cut = data[:end]
                assert outcome(parse_midi, cut) == outcome(oracle_parse_midi, cut), (seed, end)
    assert kinds == {"score", "error"}
    assert widths == {1, 2, 3, 4}
