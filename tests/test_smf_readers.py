"""The two track tokenisers of ``parse_midi``, held to ``tests/smf_oracle.py``.

``parse_midi`` walks a file's chunks in order and cuts each track body
into event lengths.  One compiled pattern (``midi_codec._EVENT``) does so
when its events, each with its own status byte, tile the body;
``midi_codec._scan_track`` tokenises every body the pattern cannot tile a
byte at a time, and raises its faults.  One decoder, ``_decode``, then
reads every track, whichever tokeniser cut it.  These tests check which
tokeniser takes which track, that the two cut a written track alike, that
both give the oracle's score, warnings or error on it (events over 255
bytes and meta lengths of two bytes included), that the pattern covers
every file ``write_midi`` makes, that a file settles in one
``_orphan_rule`` call, and that ``parse_midi``'s traced memory and time
stay bounded by its input.
"""

from __future__ import annotations

import random
import re
import tracemalloc

import numpy as np
import pytest

from midisync import midi_codec
from midisync.midi_codec import (
    MidiParseError,
    NoteEvent,
    ScoreTimeline,
    parse_midi,
    write_midi,
)
from midisync.tokens import Instrument

from helpers import golden_score, random_grid_score, random_offgrid_score, raw_smf, time_budget, vlq
from codec_oracle import smf_bytes
from smf_oracle import oracle_parse_midi


def outcome(parse, data: bytes):
    warnings: list[str] = []
    try:
        score = parse(data, warnings)
    except MidiParseError as exc:
        return ("error", str(exc), exc.offset)
    return ("score", score, warnings)


def track_bodies(data: bytes):
    """The (start, end) of each MTrk chunk's body, in file order, while chunk heads last."""
    pos = 8 + int.from_bytes(data[4:8], "big")
    while pos + 8 <= len(data):
        end = pos + 8 + int.from_bytes(data[pos + 4:pos + 8], "big")
        if data.startswith(b"MTrk", pos):
            yield pos + 8, end
        pos = end


def track_of(data: bytes, body: int) -> int:
    """The index of the track chunk whose body starts at byte ``body``."""
    return next(k for k, (start, _) in enumerate(track_bodies(data)) if start == body)


@pytest.fixture
def scanned(monkeypatch) -> list[int]:
    """The index of each track the byte scan reads, in the order it reads them."""
    calls: list[int] = []
    scan = midi_codec._scan_track

    def spy(data, pos, end):
        calls.append(track_of(data, pos))
        return scan(data, pos, end)

    monkeypatch.setattr(midi_codec, "_scan_track", spy)
    return calls


@pytest.fixture
def no_scan(monkeypatch) -> None:
    """Make the byte scan raise: every track must take the pattern reader."""

    def refuse(data, pos, end):
        raise AssertionError(f"track {track_of(data, pos)} fell back to the byte scan")

    monkeypatch.setattr(midi_codec, "_scan_track", refuse)


def check_columns(score: ScoreTimeline) -> None:
    assert score.columns.dtype == np.int64 and score.columns.shape[0] == 5


# ---------------------------------------------------------------------------
# Every file write_midi makes takes the pattern reader
# ---------------------------------------------------------------------------


def written_scores() -> list[ScoreTimeline]:
    rng = random.Random(22)
    scores = [ScoreTimeline()] + [golden_score(seed) for seed in range(6)]
    scores += [random_grid_score(rng) for _ in range(50)]
    scores += [random_offgrid_score(rng) for _ in range(50)]
    return scores


@pytest.mark.parametrize("smf_type", [0, 1])
def test_every_written_file_takes_the_pattern_reader(no_scan, smf_type):
    for k, score in enumerate(written_scores()):
        data = smf_bytes(score, smf_type)
        got = outcome(parse_midi, data)
        assert got == outcome(oracle_parse_midi, data), (k, data.hex())
        assert got[0] == "score"
        check_columns(got[1])


def test_a_long_written_song_takes_the_pattern_reader(no_scan):
    data = write_midi(song(180, seed=3))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert len(got[1].notes) > 1500 and not got[2]


def test_the_scan_tokenises_every_written_track_as_the_pattern_does():
    files = [smf_bytes(score, smf_type) for score in written_scores() for smf_type in (0, 1)]
    files.append(write_midi(song(600, seed=600)))
    tracks = 0
    for data in files:
        for start, end in track_bodies(data):
            pattern = bytes(map(len, midi_codec._EVENT.findall(data, start, end)))
            assert midi_codec._scan_track(data, start, end).tolist() == list(pattern)
            tracks += 1
    assert tracks == 107 + 548 + 5  # the format 0 files, their format 1 forms, the song


# ---------------------------------------------------------------------------
# Tracks of pattern events only: both readers give the oracle's outcome
# ---------------------------------------------------------------------------


def pattern_track(rng: random.Random) -> bytes:
    """Events of every kind the pattern takes but End of Track, on few keys.

    Note-ons, note-offs of both spellings (8x, and 9x with velocity 0),
    program changes, the other channel events, tempos and time signatures,
    with deltas of one to four bytes: orphan and dangling notes, equal
    ticks and interleaved program changes are common.  ``raw_smf`` ends
    each track with End of Track.
    """
    events = b""
    for _ in range(rng.randint(0, 40)):
        delta = rng.choice((0, 0, 0, 1, 5, 200, 20_000, 2**21 + 7))
        channel = rng.choice((0, 1, 9))
        pitch = rng.choice((60, 61))
        draw = rng.random()
        if draw < 0.35:
            event = bytes([0x90 | channel, pitch, rng.randint(1, 127)])
        elif draw < 0.55:
            event = bytes([0x80 | channel, pitch, rng.randint(0, 127)])
        elif draw < 0.65:
            event = bytes([0x90 | channel, pitch, 0])
        elif draw < 0.75:
            event = bytes([0xC0 | channel, rng.choice((0, 25, 33, 48, 100))])
        elif draw < 0.85:
            kind = rng.choice((0xA0, 0xB0, 0xD0, 0xE0))
            event = bytes([kind | channel] + [rng.randrange(128)] * (1 if kind == 0xD0 else 2))
        elif draw < 0.93:
            event = b"\xff\x51\x03" + rng.randint(0, 2**24 - 1).to_bytes(3, "big")
        else:
            event = b"\xff\x58\x04" + bytes([rng.randint(1, 12), rng.randint(0, 5), 24, 8])
        events += vlq(delta) + event
    return events


def pattern_file(seed: int) -> bytes:
    rng = random.Random(seed)
    tracks = [pattern_track(rng) for _ in range(rng.randint(1, 4))]
    division = rng.choice((96, 480, 0x7FFF, ((256 - 25) << 8) | 40))
    return raw_smf(tracks, fmt=1 if len(tracks) > 1 else rng.choice((0, 1)), division=division)


def test_pattern_tracks_match_the_oracle_through_both_readers(monkeypatch, scanned):
    seen: set[str] = set()
    for seed in range(400):
        data = pattern_file(seed)
        expected = outcome(oracle_parse_midi, data)
        scanned.clear()
        got = outcome(parse_midi, data)
        assert got == expected, (seed, data.hex())
        if got[0] == "score":
            check_columns(got[1])
        # Only the span check or the bar checks can raise on such a file;
        # up to a raise, no track was scanned.
        assert scanned == [], (seed, data.hex())
        seen.add(got[0])
        seen.update(rule for w in (got[2] if got[0] == "score" else ())
                    for rule in ("note-off with no open note", "note-on without", "zero-length")
                    if rule in w)
    with monkeypatch.context() as m:
        m.setattr(midi_codec, "_EVENT", re.compile(rb"(?!)"))  # tiles no body: all are scanned
        for seed in range(400):
            data = pattern_file(seed)
            assert outcome(parse_midi, data) == outcome(oracle_parse_midi, data), seed
    assert seen == {"score", "error", "note-off with no open note", "note-on without",
                    "zero-length"}


# ---------------------------------------------------------------------------
# Every fallback trigger reaches the byte scan, unless the pattern tiles it
# ---------------------------------------------------------------------------


NOTE = vlq(0) + bytes([0x90, 60, 80]) + vlq(240) + bytes([0x80, 60, 0])
EOT = b"\x00\xff\x2f\x00"
LATER_NOTE = vlq(7) + bytes([0x91, 62, 80]) + vlq(100) + bytes([0x81, 62, 0])


def chunk(body: bytes, length: int | None = None) -> bytes:
    return b"MTrk" + (len(body) if length is None else length).to_bytes(4, "big") + body


def smf(*chunks: bytes, tracks: int | None = None, fmt: int = 1) -> bytes:
    count = len(chunks) if tracks is None else tracks
    head = b"MThd" + (6).to_bytes(4, "big") + fmt.to_bytes(2, "big")
    return head + count.to_bytes(2, "big") + (480).to_bytes(2, "big") + b"".join(chunks)


# Track bodies that are not one End of Track after events the pattern takes: each
# gives a score ...
FALLBACK_TRACKS = {
    "running status": NOTE + vlq(10) + bytes([0x90, 64, 70]) + vlq(0) + bytes([67, 70])
    + vlq(100) + bytes([64, 0]) + vlq(0) + bytes([67, 0]) + EOT,
    "sysex F0": NOTE + vlq(0) + b"\xf0\x03\x7e\x7f\xf7" + EOT,
    "sysex F7": NOTE + vlq(0) + b"\xf7\x02\x01\x02" + EOT,
    "text meta": NOTE + vlq(0) + b"\xff\x01\x04text" + EOT,
    "key signature meta": vlq(0) + b"\xff\x59\x02\x00\x00" + NOTE + EOT,
    "tempo of four bytes": vlq(0) + b"\xff\x51\x04\x07\xa1\x20\x00" + NOTE + EOT,
    "time signature of two bytes": vlq(0) + b"\xff\x58\x02\x03\x02" + NOTE + EOT,
    "end of track with a body": NOTE + b"\x00\xff\x2f\x01\x00",
    "no end of track": NOTE,
    "two ends of track": NOTE + EOT + EOT,
    "bytes after end of track": NOTE + EOT + bytes([0x90, 0x3C]),
    "an event after end of track": NOTE + EOT + vlq(0) + bytes([0x90, 62, 80]),
    "empty chunk": b"",
    "end of track only before a note-on": EOT + vlq(0) + bytes([0x90, 60, 80]),
}

# ... or raises at its fault.  The scan reads each of them but those the pattern
# tiles, which NumPy reads up to their first End of Track, as the scan does.
TILED_TRACKS = {
    "no end of track", "two ends of track", "an event after end of track", "empty chunk",
    "end of track only before a note-on",
}
FAULTY_TRACKS = {
    "five-byte delta": NOTE + b"\x81\x80\x80\x80\x00" + bytes([0x80, 60, 0]) + EOT,
    "data byte with its high bit set": NOTE + vlq(0) + bytes([0x90, 61, 0x90]) + EOT,
    "unexpected status": NOTE + vlq(0) + b"\xf4" + EOT,
    "data byte with no running status": vlq(0) + bytes([60, 80]) + EOT,
}


@pytest.mark.parametrize("name", sorted(FALLBACK_TRACKS) + sorted(FAULTY_TRACKS))
def test_each_fallback_trigger_reaches_the_byte_scan(scanned, name):
    body = FALLBACK_TRACKS.get(name, FAULTY_TRACKS.get(name))
    # A pattern track on either side, so the scan runs between two readers.
    data = smf(chunk(NOTE + EOT), chunk(body), chunk(LATER_NOTE + EOT))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == ("error" if name in FAULTY_TRACKS else "score")
    assert scanned == ([] if name in TILED_TRACKS else [1])


def test_an_event_past_its_chunk_end_reaches_the_byte_scan(scanned):
    # The chunk stops before its note-off's last byte: the scan reads it from
    # the next chunk's id, and the next chunk still starts where the length says.
    data = smf(chunk(NOTE[:-1]), chunk(NOTE + EOT))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "score" and scanned == [0]


# ---------------------------------------------------------------------------
# Faults a pattern reader could get wrong
# ---------------------------------------------------------------------------


def test_an_earlier_tracks_fault_is_reported_before_a_later_overrun(scanned):
    bad = NOTE + vlq(0) + bytes([0x90, 61, 0xC0]) + EOT  # a data byte with its high bit set
    data = smf(chunk(NOTE + EOT), chunk(bad), chunk(NOTE + EOT, length=1000))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "error" and "event data 0xC0 has its high bit set" in got[1]
    assert got[2] == data.index(bytes([0x90, 61, 0xC0])) + 2
    # With the fault mended, the overrun is reported.
    mended = data.replace(bytes([0x90, 61, 0xC0]), bytes([0x90, 61, 0x40]))
    got = outcome(parse_midi, mended)
    assert got == outcome(oracle_parse_midi, mended)
    assert got[0] == "error" and "track chunk overruns file" in got[1]


@pytest.mark.parametrize("case", ["no tracks", "unknown chunk only", "unknown chunks, fewer tracks"])
def test_a_file_with_no_track_chunk_gives_the_oracles_empty_score(case):
    unknown = b"XFIH" + (3).to_bytes(4, "big") + b"abc"
    data = {
        "no tracks": smf(tracks=0),
        "unknown chunk only": smf(unknown, tracks=1),
        "unknown chunks, fewer tracks": smf(unknown, unknown, tracks=3),
    }[case]
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "score" and not got[1].notes
    check_columns(got[1])


def test_a_file_with_no_track_chunk_is_prepared_not_skipped(tmp_path, capsys):
    from midisync.cli import main

    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "empty.mid").write_bytes(smf(tracks=0))
    assert main(["prepare", str(tmp_path / "in"), str(tmp_path / "out")]) == 0
    assert "skipping" not in capsys.readouterr().err
    assert (tmp_path / "out" / "empty.tokens").is_file()


@pytest.mark.parametrize("end_of_track", [True, False], ids=["then-end-of-track", "last-event"])
def test_a_tempo_whose_body_spells_end_of_track_is_a_tempo(scanned, end_of_track):
    tempo = vlq(0) + b"\xff\x51\x03\xff\x2f\x00"  # 16,723,712 usec per quarter
    data = smf(chunk(tempo + NOTE + tempo + (EOT if end_of_track else b"")))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[1].tempo_bpm == 60_000_000 / 0xFF2F00
    assert [(n.onset_ms, n.offset_ms) for n in got[1].notes] == [(0, 8362)]
    assert scanned == []


def test_bytes_after_end_of_track_are_ignored(scanned):
    clean = smf(chunk(NOTE + EOT), chunk(LATER_NOTE + EOT))
    tiled = (b"\x00\x90\x3c\x40", EOT)  # events the pattern takes: read in NumPy
    for junk in (b"\x00", b"\xf4\xf4", b"\x81\x80\x80\x80\x80\x00", *tiled):
        data = smf(chunk(NOTE + EOT + junk), chunk(LATER_NOTE + EOT))
        scanned.clear()
        got = outcome(parse_midi, data)
        assert got == outcome(oracle_parse_midi, data)
        assert got == outcome(parse_midi, clean)
        assert scanned == ([] if junk in tiled else [0])


# ---------------------------------------------------------------------------
# Program changes under running status
# ---------------------------------------------------------------------------


def test_program_changes_in_running_status_name_each_notes_instrument(scanned):
    body = b"".join((
        vlq(0), b"\xc0\x19",  # channel 0: program 25, guitar
        vlq(0), b"\x90\x3c\x40",
        vlq(0), b"\xc1\x00",  # channel 1: program 0, piano
        vlq(0), b"\x91\x40\x50", vlq(0), b"\x48\x50",  # two notes, the second in running status
        vlq(480), b"\x81\x40\x00", vlq(0), b"\x48\x00",
        vlq(0), b"\xc1\x21", vlq(0), b"\x28",  # channel 1: program 33, then 40 in running status
        vlq(0), b"\x91\x40\x50",
        vlq(480), b"\x90\x3c\x00",  # a note-on of velocity 0 ends channel 0's note
        vlq(0), b"\xc0\x21",  # channel 0: program 33, bass
        vlq(0), b"\x90\x3e\x40",
        vlq(480), b"\x80\x3e\x00", vlq(0), b"\x81\x40\x00",
        EOT,
    ))
    data = smf(chunk(body), fmt=0)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert scanned == [0]
    assert [(n.instrument, n.pitch, n.onset_ms, n.offset_ms) for n in got[1].notes] == [
        (Instrument.GUITAR, 60, 0, 1000),
        (Instrument.PIANO, 64, 0, 500),
        (Instrument.PIANO, 72, 0, 500),
        (Instrument.STRINGS, 64, 500, 1500),
        (Instrument.BASS, 62, 1000, 1500),
    ]
    assert got[2] == []


# ---------------------------------------------------------------------------
# Events only the scan tokenises, decoded with every other track
# ---------------------------------------------------------------------------


def long_meta(meta_type: int, body: bytes) -> bytes:
    """A meta event at delta 0 whose length is a two-byte varlen: 0x80, then the length."""
    return vlq(0) + bytes([0xFF, meta_type, 0x80, len(body)]) + body


HELD = vlq(0) + bytes([0x90, 60, 80]) + vlq(1920) + bytes([0x80, 60, 0])  # four quarters
RUNNING_NOTES = vlq(0) + bytes([0x91, 64, 70]) + vlq(10) + bytes([64, 0])
QUARTER_US = (400_000).to_bytes(3, "big")  # 150 bpm
THREE_EIGHT = bytes([3, 3, 24, 8])  # 3/8: bars of one and a half quarters
SCANNED_BODIES = {
    # Over 255 bytes: 1 + 1 + 2 + 300.
    "a 300-byte sysex": vlq(0) + b"\xf0" + vlq(300) + bytes(299) + b"\xf7"
    + vlq(0) + b"\xff\x51\x03" + QUARTER_US + HELD + RUNNING_NOTES,
    "a 200-byte text meta": vlq(0) + b"\xff\x01" + vlq(200) + b"t" * 200
    + vlq(0) + b"\xff\x58\x04" + THREE_EIGHT + HELD + RUNNING_NOTES,
    "a tempo of a two-byte length": long_meta(0x51, QUARTER_US) + HELD,
    "a time signature of a two-byte length": long_meta(0x58, THREE_EIGHT) + HELD,
}


@pytest.mark.parametrize("name", sorted(SCANNED_BODIES))
def test_long_events_and_long_meta_lengths_give_the_oracles_score(name, scanned):
    data = smf(chunk(NOTE + EOT), chunk(SCANNED_BODIES[name] + EOT), chunk(LATER_NOTE + EOT))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)  # notes, tempo, bar marks and warnings
    assert got[0] == "score" and scanned == [1]
    score = got[1]
    if "tempo" in name or "sysex" in name:
        assert score.bar_marks_ms == (0, 1600)  # 150 bpm: four quarters to a bar
    else:
        assert score.bar_marks_ms == (0, 750, 1500)  # 3/8 at 120 bpm
    assert (64 in {n.pitch for n in score.notes}) == ("text" in name or "sysex" in name)


@pytest.mark.parametrize(
    "meta_type, body",
    [(0x51, (1).to_bytes(3, "big")), (0x58, bytes([1, 12, 24, 8]))],  # 1 usec a quarter; 1/4096
    ids=["tempo", "time signature"],
)
def test_a_bar_under_1_ms_from_a_long_meta_length_blames_its_body(meta_type, body, scanned):
    data = smf(chunk(NOTE + EOT), chunk(long_meta(meta_type, body) + HELD + EOT))
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "error" and "shorter than 1 ms" in got[1] and scanned == [1]
    assert got[2] == data.index(bytes([0xFF, meta_type, 0x80])) + 4  # the body, past the length


# ---------------------------------------------------------------------------
# The span check reads settled events, on either reader
# ---------------------------------------------------------------------------


LATE = 3_500_000  # ticks: 3,645,833 ms at 480 per quarter and 120 bpm, past the limit


def note_track(events: list[tuple[int, int, int]], end_delta: int, running: bool):
    """One format-0 track of (delta, pitch, velocity) 9x events, then End of Track.

    Each event carries its own status byte, or, with ``running``, only the
    first does.  Returns the file and each event's status offset (its first
    data byte under running status), End of Track's last.
    """
    head = len(smf(chunk(b"")))
    body, offsets = b"", []
    for k, (delta, pitch, velocity) in enumerate(events):
        body += vlq(delta)
        offsets.append(head + len(body))
        body += bytes(([] if running and k else [0x90]) + [pitch, velocity])
    body += vlq(end_delta)
    offsets.append(head + len(body))
    return smf(chunk(body + b"\xff\x2f\x00"), fmt=0), offsets


@pytest.fixture(params=[False, True], ids=["own status", "running status"])
def running(request, scanned):
    """Whether events use running status: the byte scan reads those, the pattern the rest."""
    yield request.param
    assert scanned == ([0] if request.param else [])


def test_an_orphan_note_off_past_the_span_limit_parses(running):
    data, _ = note_track([(0, 60, 80), (240, 60, 0), (LATE, 61, 0)], 0, running)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert [(n.pitch, n.onset_ms, n.offset_ms) for n in got[1].notes] == [(60, 0, 250)]
    assert got[2] == ["track 0: note-off with no open note (channel 0, pitch 61, tick 3500240)"]


def test_a_dangling_note_past_the_span_limit_raises_at_end_of_track(running):
    data, offsets = note_track([(0, 60, 80), (0, 62, 80), (240, 62, 0)], LATE, running)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "error" and "ms is past the 3600000 ms limit" in got[1]
    assert got[2] == offsets[-1]


def test_an_orphan_first_at_the_latest_tick_leaves_the_blame_to_the_next_kept_event(running):
    events = [(0, 60, 80), (240, 60, 0), (LATE, 61, 0), (0, 62, 80), (0, 62, 0)]
    data, offsets = note_track(events, 0, running)
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert got[0] == "error" and "ms is past the 3600000 ms limit" in got[1]
    assert got[2] == offsets[3]  # the note-on after the orphan, at the same tick


# ---------------------------------------------------------------------------
# The pattern
# ---------------------------------------------------------------------------


def test_the_pattern_uses_no_construct_newer_than_python_3_10():
    # Possessive quantifiers (*+, ++, ?+, }+) and atomic groups arrived in 3.11.
    source = midi_codec._EVENT.pattern
    assert not re.search(rb"(?<!\\)[*+?}]\+|\(\?>", source)


# ---------------------------------------------------------------------------
# One pass per file: the rules across tracks hold as they did track by track
# ---------------------------------------------------------------------------


def test_a_file_settles_in_one_orphan_rule_call(monkeypatch, scanned):
    calls: list[int] = []
    rule = midi_codec._orphan_rule

    def spy(key, is_on):
        calls.append(len(key))
        return rule(key, is_on)

    files = {
        "four instrument tracks": write_midi(song(30, seed=30)),
        "a scanned middle track": smf(
            chunk(NOTE + EOT), chunk(FALLBACK_TRACKS["running status"]), chunk(LATER_NOTE + EOT)
        ),
    }
    assert files["four instrument tracks"].count(b"MTrk") == 5  # the tempo track, then four
    for name, data in files.items():
        expected = outcome(oracle_parse_midi, data)
        calls.clear()
        with monkeypatch.context() as m:  # decode_ids calls the rule too: spy on parse_midi only
            m.setattr(midi_codec, "_orphan_rule", spy)
            got = outcome(parse_midi, data)
        assert got == expected, name
        assert len(calls) == 1, (name, calls)
    assert scanned == [1]


ON60, OFF60 = bytes([0x90, 60, 80]), bytes([0x80, 60, 0])
CC = bytes([0xB0, 7, 100])


def cross_track_files() -> dict[str, bytes]:
    # Channel 0 and pitch 60 in every track: an orphan note-off, then two
    # ons and one off, so one note dangles to a controller change.
    shared = {
        "pattern": vlq(0) + OFF60 + vlq(4) + ON60 + vlq(4) + ON60 + vlq(4) + OFF60 + vlq(30) + CC,
        "scanned": vlq(1) + OFF60 + vlq(2) + bytes([0x90, 60, 90]) + vlq(2) + bytes([60, 90])
        + vlq(2) + bytes([60, 0]) + vlq(50) + CC,  # running status
        "pattern, later": vlq(2) + OFF60 + vlq(1) + ON60 + vlq(1) + ON60 + vlq(1) + OFF60
        + vlq(10) + CC,
    }
    late = vlq(0) + ON60 + vlq(LATE) + OFF60  # a note ending past the span limit
    tempo = vlq(0) + b"\xff\x51\x03"
    return {
        "shared key": smf(*(chunk(body + EOT) for body in shared.values())),
        "equal latest ticks": smf(chunk(NOTE + EOT), chunk(late + EOT), chunk(late + EOT)),
        "dangling close after every kept event": smf(
            chunk(late + EOT), chunk(vlq(0) + ON60 + vlq(LATE + 5) + CC + EOT)
        ),
        "tempo in a scanned track first": smf(
            chunk(NOTE + EOT),
            chunk(tempo + (600_000).to_bytes(3, "big") + vlq(0) + b"\xf0\x01\xf7" + EOT),
            chunk(tempo + (300_000).to_bytes(3, "big") + LATER_NOTE + EOT),
        ),
        # The scan keeps its candidates first: the pattern track must still win.
        "tempo in a pattern track first": smf(
            chunk(NOTE + EOT),
            chunk(tempo + (600_000).to_bytes(3, "big") + LATER_NOTE + EOT),
            chunk(tempo + (300_000).to_bytes(3, "big") + vlq(0) + b"\xf0\x01\xf7" + EOT),
        ),
    }


@pytest.mark.parametrize("name", sorted(cross_track_files()))
def test_the_rules_across_tracks_match_the_oracle(name, scanned):
    data = cross_track_files()[name]
    got = outcome(parse_midi, data)
    assert got == outcome(oracle_parse_midi, data)
    assert scanned == {"shared key": [1], "tempo in a scanned track first": [1],
                       "tempo in a pattern track first": [2]}.get(name, [])
    if name == "shared key":
        assert sum("note-off with no open note" in w for w in got[2]) == 3
        assert sum("closed at track end" in w for w in got[2]) == 3
        assert [w[:7] for w in got[2]] == ["track 0"] * 2 + ["track 1"] * 2 + ["track 2"] * 2
    elif name == "equal latest ticks":
        # Both late offs share the latest tick: the earlier track's is blamed.
        assert got[0] == "error" and got[2] == data.index(vlq(LATE) + OFF60) + len(vlq(LATE))
    elif name == "dangling close after every kept event":
        # Track 1's note closes at its End of Track, after track 0's late off.
        assert got[0] == "error" and got[2] == data.rindex(EOT) + 1
    else:
        assert got[1].tempo_bpm == 100.0  # track 1's tempo, at tick 0 as track 2's


def many_track_file(tracks: int = 65_535) -> bytes:
    """A format-1 file of one-note tracks on three shared channels and seven pitches.

    Every fifth note dangles to the track's closing controller change,
    and every eleventh track has an orphan note-off an octave up.
    """
    bodies = []
    for k in range(tracks):
        channel, pitch = k % 3, 60 + k % 7
        body = vlq(k % 4) + bytes([0x90 | channel, pitch, 40 + k % 80])
        if k % 11 == 0:
            body += vlq(1) + bytes([0x80 | channel, pitch + 12, 0])
        if k % 5:
            body += vlq(120) + bytes([0x80 | channel, pitch, 0])
        bodies.append(body + vlq(240) + bytes([0xB0 | channel, 7, 100]))
    return raw_smf(bodies)


def test_a_file_of_many_tracks_parses_in_bounded_time_and_memory():
    data = many_track_file()
    expected = outcome(oracle_parse_midi, data)
    with time_budget(2.0):  # the track-by-track reader took over 4 s
        got = outcome(parse_midi, data)
    assert got == expected
    assert len(got[2]) == 13_107 + 5_958  # dangling notes and orphan note-offs
    assert len(data) > 1_500_000
    peak = traced_peak(data)
    assert peak <= 32 * len(data) + 64 * 1024, (len(data), peak)


# ---------------------------------------------------------------------------
# Memory: parse_midi's traced peak is bounded by its input
# ---------------------------------------------------------------------------


def song(seconds: int, seed: int) -> ScoreTimeline:
    """A four-part song at 120 bpm, about 11 notes a second.

    Each beat has a bass note, a kick or snare, two hi-hats and a melody
    note; each bar starts a held triad.
    """
    rng = random.Random(seed)
    notes = []
    for beat in range(seconds * 2):
        t = beat * 500
        notes += [
            NoteEvent(Instrument.BASS, 36 + beat % 12, t, t + 375, rng.randint(70, 100)),
            NoteEvent(Instrument.DRUMS, 36 if beat % 2 else 38, t, t + 60, 100),
            NoteEvent(Instrument.DRUMS, 42, t, t + 60, 70),
            NoteEvent(Instrument.DRUMS, 42, t + 250, t + 310, 60),
            NoteEvent(Instrument.STRINGS, rng.randint(60, 84), t, t + 240, rng.randint(50, 110)),
        ]
        if beat % 4 == 0:
            root = rng.randint(48, 60)
            notes += [NoteEvent(Instrument.PIANO, root + k, t, t + 1500, 80) for k in (0, 4, 7)]
    return ScoreTimeline(notes=notes)


def running_status_file(notes: int, seed: int) -> bytes:
    """One track of note-ons and velocity-0 note-offs, all after one status byte."""
    rng = random.Random(seed)
    body = bytearray(vlq(0) + bytes([0x90, 60, 64]))
    for _ in range(notes):
        pitch = rng.randrange(128)
        body += vlq(rng.choice((0, 60, 120, 240))) + bytes([pitch, rng.randint(1, 127)])
        body += vlq(rng.choice((30, 120, 200))) + bytes([pitch, 0])
    body += vlq(0) + bytes([60, 0]) + EOT
    return smf(chunk(bytes(body)), fmt=0)


def traced_peak(data: bytes) -> int:
    parse_midi(data)  # warm up: nothing first-call-only counts
    tracemalloc.start()
    try:
        parse_midi(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name",
    ["song 30 s", "song 3 min", "song 10 min", "running status 300", "running status 3000",
     "running status 10000"],
)
def test_parse_midi_peak_memory_is_bounded_by_its_input(name, scanned):
    kind, size = name.rsplit(" ", 1) if name.startswith("running") else ("song", name[5:])
    if kind == "song":
        seconds = {"30 s": 30, "3 min": 180, "10 min": 600}[size]
        data = write_midi(song(seconds, seed=seconds))
    else:
        data = running_status_file(int(size), seed=int(size))
    peak = traced_peak(data)
    assert peak <= 32 * len(data) + 64 * 1024, (len(data), peak)
    assert bool(scanned) == (kind != "song")  # each reader was measured
