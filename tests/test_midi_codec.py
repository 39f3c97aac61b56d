from __future__ import annotations

import hashlib
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codec_oracle import gap_to_shifts, smf_bytes
from midisync import midi_codec
from midisync.chords import boost_chord_velocity
from midisync.midi_codec import (
    MAX_BAR_MARKS,
    MAX_SCORE_SPAN_MS,
    DecodeResult,
    MidiParseError,
    NoteEvent,
    ScoreTimeline,
    _timeline_order,
    decode_events,
    encode_events,
    encode_ids,
    instrument_count_tag,
    parse_midi,
    program_to_instrument,
    quantize_ms,
    transpose,
    trim_to_duration,
    write_midi,
)
from midisync.tokens import (
    BAR,
    CHORD,
    FEWER_INSTRUMENTS,
    INSTRUMENTS,
    MAX_SHIFT_MS,
    MORE_INSTRUMENTS,
    NUM_PITCHES,
    RESOLUTION_MS,
    START,
    VOCABULARY,
    Instrument,
    Token,
    TokenKind,
)

# SMF fixtures are built by hand in helpers.py (independent of the package
# writer), so the parser is checked against separately computed tick math.
from helpers import (
    golden_score,
    random_grid_score,
    random_offgrid_score,
    raw_smf,
    time_budget,
    vlq,
)


def test_helper_vlq_matches_the_writer_and_rejects_negatives():
    # At 125 bpm (480000 us per quarter) a tick lasts 1 ms, so a lone piano
    # note at ``value`` ms is written after a delta of ``value`` ticks, at
    # byte 52: after the header, the tempo track and the program change.
    rng = random.Random(0)
    edges = [0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1, 2**21, 2**28 - 1]
    for value in edges + [rng.randrange(2**28) for _ in range(2000)]:
        note = NoteEvent(Instrument.PIANO, 60, value, value + 1)
        data = write_midi(ScoreTimeline([note], tempo_bpm=125.0))
        assert data[52:53 + len(vlq(value))] == vlq(value) + b"\x90", value
    with pytest.raises(ValueError):
        vlq(-1)


def test_single_note_tick_math():
    # 480 ticks per quarter at the default 500000 us/quarter: one quarter
    # note (480 ticks) lasts exactly 500 ms.  Hand-computed: 480 * 500000 /
    # (480 * 1000) = 500.
    events = vlq(0) + bytes([0x90, 60, 100]) + vlq(480) + bytes([0x80, 60, 0])
    score = parse_midi(raw_smf([events]))
    assert len(score.notes) == 1
    note = score.notes[0]
    assert note.pitch == 60
    assert note.onset_ms == 0
    assert note.offset_ms == 500
    assert note.velocity == 100
    assert note.instrument is Instrument.PIANO  # program 0 default
    assert score.tempo_bpm == pytest.approx(120.0)


def test_tempo_meta_changes_ms():
    # tempo 1,000,000 us/quarter (60 BPM): 480 ticks -> 1000 ms.
    tempo = b"\x00\xff\x51\x03" + (1_000_000).to_bytes(3, "big")
    events = tempo + vlq(0) + bytes([0x90, 72, 80]) + vlq(480) + bytes([0x80, 72, 0])
    score = parse_midi(raw_smf([events]))
    assert score.notes[0].offset_ms == 1000
    assert score.tempo_bpm == pytest.approx(60.0)


def test_first_tempo_and_metre_at_the_earliest_tick_win():
    # Ties on the tick go to the earlier track, then the earlier event,
    # whatever the values: 1,000,000 usec (60 BPM) and 3/4 come first.
    first = tempo_meta(1_000_000) + tempo_meta(400_000) + timesig_meta(3, 2) + timesig_meta(2, 2)
    second = tempo_meta(300_000) + timesig_meta(1, 2) + one_note(480)
    score = parse_midi(raw_smf([first, second]))
    assert score.tempo_bpm == 60.0
    assert score.bar_marks_ms == (0,)  # one 3/4 bar of 3000 ms covers the note
    assert score.notes[0].offset_ms == 1000


def test_program_change_bucketing_and_drums():
    # channel 0 -> program 33 (bass); channel 9 is always drums.
    events = (
        vlq(0) + bytes([0xC0, 33])
        + vlq(0) + bytes([0x90, 40, 90]) + vlq(240) + bytes([0x80, 40, 0])
        + vlq(0) + bytes([0x99, 36, 90]) + vlq(240) + bytes([0x89, 36, 0])
    )
    score = parse_midi(raw_smf([events]))
    by_pitch = {n.pitch: n for n in score.notes}
    assert by_pitch[40].instrument is Instrument.BASS
    assert by_pitch[36].instrument is Instrument.DRUMS


@pytest.mark.parametrize(
    "program,channel,expected",
    [
        (0, 0, Instrument.PIANO),
        (23, 0, Instrument.PIANO),
        (24, 0, Instrument.GUITAR),
        (31, 0, Instrument.GUITAR),
        (32, 0, Instrument.BASS),
        (39, 0, Instrument.BASS),
        (40, 0, Instrument.STRINGS),
        (127, 0, Instrument.STRINGS),
        (0, 9, Instrument.DRUMS),
        (40, 9, Instrument.DRUMS),
    ],
)
def test_program_bucket_table(program, channel, expected):
    assert program_to_instrument(program, channel) is expected


def test_running_status_and_velocity_zero_off():
    # note-on status reused; velocity 0 acts as note-off.
    events = (
        vlq(0) + bytes([0x90, 60, 70])
        + vlq(0) + bytes([64, 70])       # running status: second note-on
        + vlq(480) + bytes([60, 0])      # running status: velocity-0 off
        + vlq(0) + bytes([64, 0])
    )
    score = parse_midi(raw_smf([events]))
    assert sorted(n.pitch for n in score.notes) == [60, 64]
    assert all(n.offset_ms == 500 for n in score.notes)


def test_dangling_note_on_closed_with_warning():
    events = vlq(0) + bytes([0x90, 60, 80]) + vlq(960) + bytes([0x90, 62, 80]) + vlq(0) + bytes([0x80, 62, 64])
    warnings: list[str] = []
    score = parse_midi(raw_smf([events]), warnings)
    assert any("note-on without note-off" in w for w in warnings)
    # dangling pitch-60 note closes at track end (tick 960 -> 1000 ms)
    note60 = next(n for n in score.notes if n.pitch == 60)
    assert note60.offset_ms == 1000


def test_orphan_note_off_warned_and_skipped():
    events = vlq(0) + bytes([0x80, 60, 0]) + vlq(0) + bytes([0x90, 62, 80]) + vlq(480) + bytes([0x80, 62, 0])
    warnings: list[str] = []
    score = parse_midi(raw_smf([events]), warnings)
    assert any("note-off with no open note" in w for w in warnings)
    assert [n.pitch for n in score.notes] == [62]


def test_empty_file_no_notes():
    score = parse_midi(raw_smf([b""]))
    assert score.notes == []
    assert score.bar_marks_ms == ()


def test_overlapping_same_pitch_fifo():
    # two overlapping pitch-60 notes: offs close the earliest on first
    events = (
        vlq(0) + bytes([0x90, 60, 80])
        + vlq(240) + bytes([0x90, 60, 80])
        + vlq(240) + bytes([0x80, 60, 0])
        + vlq(240) + bytes([0x80, 60, 0])
    )
    score = parse_midi(raw_smf([events]))
    spans = sorted((n.onset_ms, n.offset_ms) for n in score.notes)
    assert spans == [(0, 500), (250, 750)]


def test_format0_multitrack_rejected_format2_rejected():
    with pytest.raises(MidiParseError):
        parse_midi(raw_smf([b"", b""], fmt=0))
    with pytest.raises(MidiParseError):
        parse_midi(raw_smf([b""], fmt=2))


def test_malformed_header_reports_offset():
    with pytest.raises(MidiParseError) as err:
        parse_midi(b"RIFF" + b"\x00" * 20)
    assert err.value.offset == 0
    with pytest.raises(MidiParseError) as err:
        parse_midi(b"MThd\x00\x00\x00\x06\x00\x01\x00")  # truncated
    assert "truncated" in str(err.value)
    assert isinstance(err.value.offset, int)


# Track events start at byte 22: 14 header bytes, then "MTrk" and a length.
@pytest.mark.parametrize(
    "events, offset, byte",
    [
        (vlq(0) + bytes([0x90, 0xBD, 80]), 24, 0xBD),  # pitch
        (vlq(0) + bytes([0x90, 60, 0xC8]), 25, 0xC8),  # velocity
        (vlq(0) + bytes([0xC0, 0x85]), 24, 0x85),  # program
        (vlq(0) + bytes([0x90, 60, 70]) + vlq(0) + bytes([64, 0xC8]), 28, 0xC8),  # running status
    ],
    ids=["pitch", "velocity", "program", "running-status-velocity"],
)
def test_data_byte_with_high_bit_reports_its_offset(events, offset, byte):
    with pytest.raises(MidiParseError) as err:
        parse_midi(raw_smf([events]))
    assert err.value.offset == offset
    assert f"0x{byte:02X}" in str(err.value)


def test_smpte_division():
    # 25 fps, 40 ticks/frame -> 1 ms per tick exactly.
    division = ((256 - 25) << 8) | 40
    events = vlq(0) + bytes([0x90, 60, 80]) + vlq(123) + bytes([0x80, 60, 0])
    score = parse_midi(raw_smf([events], division=division))
    assert score.notes[0].offset_ms == 123


def test_bar_marks_from_time_signature():
    # 4/4 at 120 BPM: bars every 2000 ms
    events = vlq(0) + bytes([0x90, 60, 80]) + vlq(480 * 9) + bytes([0x80, 60, 0])
    score = parse_midi(raw_smf([events]))
    assert score.bar_marks_ms == (0, 2000, 4000)


def tempo_meta(usec_per_quarter: int) -> bytes:
    return vlq(0) + b"\xff\x51\x03" + usec_per_quarter.to_bytes(3, "big")


def timesig_meta(numerator: int, denominator_exponent: int) -> bytes:
    return vlq(0) + b"\xff\x58\x04" + bytes([numerator, denominator_exponent, 24, 8])


def one_note(length_ticks: int) -> bytes:
    return vlq(0) + bytes([0x90, 60, 80]) + vlq(length_ticks) + bytes([0x80, 60, 0])


def test_corrupt_time_signature_denominator_raises_within_budget():
    # One byte flipped in a file from write_midi: the denominator exponent
    # 0xFF makes a bar about 1e-73 ms long, which once looped forever.
    data = bytearray(write_midi(ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 500)])))
    body = data.index(b"\xff\x58\x04") + 3
    data[body + 1] = 0xFF
    with time_budget(2.0), pytest.raises(MidiParseError, match="shorter than 1 ms") as err:
        parse_midi(bytes(data))
    assert err.value.offset == body


def test_huge_delta_time_raises_within_budget():
    # 16.8 s per quarter at one tick per quarter: a maximal delta time puts
    # the note-off about 142 years in, which once meant ~1e8 bar marks.
    events = tempo_meta(0xFFFFFF) + one_note(0x0FFFFFFF)
    with time_budget(2.0), pytest.raises(MidiParseError, match="limit") as err:
        parse_midi(raw_smf([events], division=1))
    assert err.value.offset == 22 + len(events) - 3  # the note-off


def test_dangling_note_past_the_span_limit_raises_at_track_end():
    # A note-on, then a text event after a maximal delta; the unclosed note
    # is closed at the End of Track event that raw_smf appends after that.
    events = tempo_meta(0xFFFFFF) + vlq(0) + bytes([0x90, 60, 80])
    events += vlq(0x0FFFFFFF) + b"\xff\x01\x00"
    with time_budget(2.0), pytest.raises(MidiParseError, match="limit") as err:
        parse_midi(raw_smf([events], division=1))
    assert err.value.offset == 22 + len(events) + 1


def test_span_limit_is_inclusive():
    # One tick per ms: 1000 ticks per quarter at 1,000,000 usec per quarter.
    ok = parse_midi(raw_smf([tempo_meta(1_000_000) + one_note(MAX_SCORE_SPAN_MS)], division=1000))
    assert ok.notes[0].offset_ms == MAX_SCORE_SPAN_MS
    with pytest.raises(MidiParseError, match="limit"):
        parse_midi(raw_smf([tempo_meta(1_000_000) + one_note(MAX_SCORE_SPAN_MS + 1)], division=1000))


@pytest.mark.parametrize(
    "tempo_us, dd, blamed",
    [(1000, 2, None), (999, 2, "tempo"), (500000, 12, "timesig")],
    ids=["1ms-bar-ok", "tempo", "metre"],
)
def test_bar_shorter_than_1ms_blames_the_meta_event(tempo_us, dd, blamed):
    # Track events start at byte 22; the tempo body is at 26, the time signature's at 33.
    data = raw_smf([tempo_meta(tempo_us) + timesig_meta(1, dd) + one_note(4800)])
    if blamed is None:  # a 1/4 bar at 1000 usec per quarter is exactly 1 ms; the note 10 ms
        assert parse_midi(data).bar_marks_ms == tuple(range(11))
        return
    with pytest.raises(MidiParseError, match="shorter than 1 ms") as err:
        parse_midi(data)
    assert err.value.offset == {"tempo": 26, "timesig": 33}[blamed]


def test_bar_mark_amplification_raises_within_budget():
    # 51 bytes: a 1/4 bar at 1000 usec per quarter (1 ms) and a 10-minute
    # note, which once made 600,001 bar marks.  The tempo is blamed.
    data = raw_smf([tempo_meta(1000) + timesig_meta(1, 2) + one_note(600_000)], division=1)
    assert len(data) == 51
    with time_budget(0.5), pytest.raises(MidiParseError, match="bar marks") as err:
        parse_midi(data)
    assert err.value.offset == 26
    assert str(MAX_BAR_MARKS) in str(err.value)


@pytest.mark.parametrize("extra_ms, raises", [(0, False), (1, True)], ids=["at-limit", "past"])
def test_bar_mark_limit_is_inclusive_and_blames_the_metre(extra_ms, raises):
    # A 1/64 bar at the default 500 ms per quarter lasts 31.25 ms, so this
    # span holds MAX_BAR_MARKS bars exactly; one more ms is past the limit.
    span_ms = int(MAX_BAR_MARKS * 31.25) + extra_ms
    data = raw_smf([timesig_meta(1, 6) + one_note(2 * span_ms)], division=1000)
    if not raises:
        assert len(parse_midi(data).bar_marks_ms) == MAX_BAR_MARKS + 1  # and one at the end
        return
    with pytest.raises(MidiParseError, match="bar marks") as err:
        parse_midi(data)
    assert err.value.offset == 26  # the time-signature body: the metre shrank the bar


# ---------------------------------------------------------------------------
# Token encoding
# ---------------------------------------------------------------------------


def _names(tokens):
    return [t.name for t in tokens]


def test_quantize_examples():
    assert quantize_ms(800) == 800
    assert quantize_ms(803) == 800
    assert quantize_ms(804) == 808  # tie rounds up
    assert quantize_ms(805) == 808
    assert quantize_ms(0) == 0
    assert quantize_ms(3) == 0
    assert quantize_ms(4) == 8
    with pytest.raises(ValueError):
        quantize_ms(-1)


def test_encode_single_note_800ms():
    score = ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 800)])
    toks = encode_events(score, include_bars=False)
    assert _names(toks) == ["START", "FEWER_INSTRUMENTS", "PIANO_ON_60", "TIMESHIFT_800", "PIANO_OFF_60"]


def test_encode_long_gap_split():
    # 1800 ms gap: one maximal shift then the remainder
    score = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 8),
            NoteEvent(Instrument.PIANO, 62, 1808, 1816),
        ]
    )
    toks = encode_events(score, include_bars=False)
    assert _names(toks) == [
        "START", "FEWER_INSTRUMENTS",
        "PIANO_ON_60", "TIMESHIFT_8", "PIANO_OFF_60",
        "TIMESHIFT_1000", "TIMESHIFT_800",
        "PIANO_ON_62", "TIMESHIFT_8", "PIANO_OFF_62",
    ]


@pytest.mark.parametrize("gap", [8, 992, 1000, 1008, 1992, 2000, 2008, 3000])
def test_encode_splits_gaps_as_gap_to_shifts(gap):
    first = NoteEvent(Instrument.PIANO, 60, 0, 8)
    second = NoteEvent(Instrument.PIANO, 62, 8 + gap, 16 + gap)
    toks = encode_events(ScoreTimeline(notes=[first, second]), include_bars=False)
    assert toks[5:-3] == gap_to_shifts(gap)  # between PIANO_OFF_60 and PIANO_ON_62


def test_gap_to_shifts():
    assert _names(gap_to_shifts(800)) == ["TIMESHIFT_800"]
    assert _names(gap_to_shifts(1800)) == ["TIMESHIFT_1000", "TIMESHIFT_800"]
    assert _names(gap_to_shifts(2000)) == ["TIMESHIFT_1000", "TIMESHIFT_1000"]
    assert gap_to_shifts(0) == []
    with pytest.raises(ValueError):
        gap_to_shifts(13)


def test_simultaneous_ordering_off_before_on():
    # consecutive same-pitch notes: OFF must precede the reopening ON
    score = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 400),
            NoteEvent(Instrument.PIANO, 60, 400, 800),
            NoteEvent(Instrument.BASS, 40, 400, 800),
        ]
    )
    toks = encode_events(score, include_bars=False)
    assert _names(toks) == [
        "START", "FEWER_INSTRUMENTS",
        "PIANO_ON_60", "TIMESHIFT_400",
        "PIANO_OFF_60",                   # OFF first ...
        "BASS_ON_40", "PIANO_ON_60",      # ... then ONs by instrument
        "TIMESHIFT_400",
        "BASS_OFF_40", "PIANO_OFF_60",
    ]


def test_instrument_count_tag():
    one = ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 100)])
    assert instrument_count_tag(one) == FEWER_INSTRUMENTS
    two_plus_drums = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 100),
            NoteEvent(Instrument.BASS, 40, 0, 100),
            NoteEvent(Instrument.DRUMS, 36, 0, 100),  # drums don't count
        ]
    )
    assert instrument_count_tag(two_plus_drums) == FEWER_INSTRUMENTS
    three = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 100),
            NoteEvent(Instrument.BASS, 40, 0, 100),
            NoteEvent(Instrument.GUITAR, 50, 0, 100),
        ]
    )
    assert instrument_count_tag(three) == MORE_INSTRUMENTS


def test_encode_starts_with_start_and_tag():
    toks = encode_events(ScoreTimeline())
    assert toks[0] is START
    assert toks[1] is FEWER_INSTRUMENTS
    assert len(toks) == 2


def encode_events_by_event_loop(score, include_bars=True):
    """Oracle: the encoder as written before the id arrays, one Python step per event."""
    half, res = RESOLUTION_MS // 2, RESOLUTION_MS
    keys = []
    on_ids = {inst: Token.on(inst, 0).id for inst in INSTRUMENTS}
    for inst, pitch, onset, offset, _ in score.notes:
        on_t = (onset + half) // res * res
        off_t = (offset + half) // res * res
        if off_t <= on_t:
            off_t = on_t + res  # preserve the note despite quantization
        on_id = on_ids[inst] + pitch
        keys.append(on_t << 13 | 2 << 11 | on_id)
        keys.append(off_t << 13 | 1 << 11 | on_id + NUM_PITCHES)
    if include_bars:
        keys.extend(((mark + half) // res * res) << 13 | BAR.id for mark in score.bar_marks_ms)
    keys.sort()

    shift_base = Token.shift(res).id - 1
    longest = VOCABULARY[shift_base + MAX_SHIFT_MS // res]
    out = [START, instrument_count_tag(score)]
    cursor = 0
    last_bar = None
    for key in keys:
        t = key >> 13
        if t > cursor:
            gap = t - cursor
            if gap > MAX_SHIFT_MS:
                full = (gap - 1) // MAX_SHIFT_MS
                out += [longest] * full
                gap -= full * MAX_SHIFT_MS
            out.append(VOCABULARY[shift_base + gap // res])
            cursor = t
        token = VOCABULARY[key & 2047]
        if token is BAR:
            if last_bar == cursor:
                continue  # quantization merged two marks
            last_bar = cursor
        out.append(token)
    return out


def encoding_edge_score(rng):
    """Notes and marks near the encoder's edges.

    Zero-length and sub-8 ms notes, overlapping unisons, gaps of exactly
    k * 1000 and k * 1000 + 8 ms, and bar marks 1-3 ms apart that
    quantize to one slot.
    """
    notes = []
    t = 0
    for _ in range(rng.randint(0, 40)):
        t += rng.choice([0, 0, 1, 3, 4, 8, 1000, 2000, 1008, 2008, rng.randint(0, 4000)])
        length = rng.choice([0, 1, 3, 4, 7, 8, 12, 1000, 1008, rng.randint(1, 3000)])
        pitch = rng.choice([60, 60, 64, rng.randint(0, 127)])  # repeats overlap
        instrument = rng.choice(INSTRUMENTS)
        # a zero-length note only through the unchecked producer path
        notes.append(midi_codec._unchecked_note((instrument, pitch, t, t + length, 80)))
    marks = []
    m = rng.randint(0, 12)
    for _ in range(rng.randint(0, 30)):
        marks.append(m)
        m += rng.choice([1, 2, 3, 4, 5, 8, 500, 1000, rng.randint(1, 3000)])
    return ScoreTimeline(notes=notes, bar_marks_ms=tuple(marks))


@pytest.mark.parametrize("seed", range(10))
def test_encode_ids_match_the_event_loop(seed):
    rng = random.Random(seed)
    scores = [ScoreTimeline()]
    for _ in range(40):
        scores += [encoding_edge_score(rng), random_grid_score(rng), random_offgrid_score(rng)]
    for score in scores:
        for include_bars in (True, False):
            expected = encode_events_by_event_loop(score, include_bars)
            ids = encode_ids(score, include_bars)
            assert ids.dtype == np.int64
            assert ids.tolist() == [tok.id for tok in expected]
            assert encode_events(score, include_bars) == expected


def test_encode_ids_edges():
    piano = Instrument.PIANO
    # two marks that quantize to one 8 ms slot give one BAR
    score = ScoreTimeline(notes=[NoteEvent(piano, 60, 0, 8)], bar_marks_ms=(1000, 1003))
    assert _names(encode_events(score)) == [
        "START", "FEWER_INSTRUMENTS", "PIANO_ON_60", "TIMESHIFT_8", "PIANO_OFF_60",
        "TIMESHIFT_992", "BAR",
    ]
    # a sub-8 ms note keeps one grid step
    score = ScoreTimeline(notes=[NoteEvent(piano, 60, 0, 3)])
    assert _names(encode_events(score)) == [
        "START", "FEWER_INSTRUMENTS", "PIANO_ON_60", "TIMESHIFT_8", "PIANO_OFF_60",
    ]
    # gaps of exactly k * 1000 and of k * 1000 + 8 ms
    for gap, shifts in ((2000, [1000, 1000]), (2008, [1000, 1000, 8]), (1000, [1000])):
        score = ScoreTimeline(notes=[NoteEvent(piano, 60, gap, gap + 8)])
        names = _names(encode_events(score, include_bars=False))
        assert names[2:-3] == [f"TIMESHIFT_{ms}" for ms in shifts]
    assert encode_ids(ScoreTimeline()).tolist() == [START.id, FEWER_INSTRUMENTS.id]


def test_timeline_rejects_bad_bar_marks():
    cases = [
        ((-1, 5), "bar marks must be >= 0"),
        ((5, -1), "bar marks must be >= 0"),  # before the order is checked
        ((0, 0), "bar marks must be strictly increasing"),
        ((0, 8, 4), "bar marks must be strictly increasing"),
    ]
    for marks, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScoreTimeline(bar_marks_ms=marks)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScoreTimeline._presorted(np.zeros((5, 0), dtype=np.int64), 120.0, marks)
    assert ScoreTimeline(bar_marks_ms=[0, 8]).bar_marks_ms == (0, 8)


def test_decode_inverse_of_encode_simple():
    score = ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 800)])
    result = decode_events(encode_events(score))
    assert isinstance(result, DecodeResult)
    assert result.score == score
    assert result.ignored_offs == 0


def test_decode_orphan_off_counted():
    toks = [START, FEWER_INSTRUMENTS, Token.off(Instrument.PIANO, 60), Token.shift(8)]
    result = decode_events(toks)
    assert result.ignored_offs == 1
    assert result.score.notes == []


def test_decode_unclosed_note_closed_at_end():
    toks = [START, FEWER_INSTRUMENTS, Token.on(Instrument.PIANO, 60), Token.shift(400)]
    result = decode_events(toks)
    assert result.unclosed_notes == 1
    assert result.score.notes == [NoteEvent(Instrument.PIANO, 60, 0, 400)]


def test_decode_closes_unclosed_notes_of_every_instrument():
    # Recorded before open notes were keyed by OFF id: repeated and
    # zero-length unclosed notes on five instruments, an orphan OFF.
    on, off, shift, inst = Token.on, Token.off, Token.shift, Instrument
    toks = [
        START, MORE_INSTRUMENTS, BAR,
        on(inst.STRINGS, 72), on(inst.PIANO, 60), on(inst.BASS, 40), on(inst.PIANO, 60),
        shift(104),
        on(inst.DRUMS, 36), off(inst.PIANO, 60), CHORD, on(inst.GUITAR, 64),
        on(inst.GUITAR, 52),
        shift(1000), shift(96),
        off(inst.GUITAR, 64), off(inst.BASS, 41), on(inst.BASS, 40), on(inst.STRINGS, 48),
        shift(8),
        off(inst.DRUMS, 36), on(inst.PIANO, 59), on(inst.DRUMS, 38),
        shift(200),
        on(inst.GUITAR, 64), on(inst.STRINGS, 72),
    ]
    result = decode_events(toks)
    assert [(n.instrument.name, n.pitch, n.onset_ms, n.offset_ms, n.velocity)
            for n in result.score.notes] == [
        ("BASS", 40, 0, 1408, 80), ("PIANO", 60, 0, 104, 80), ("PIANO", 60, 0, 1408, 80),
        ("STRINGS", 72, 0, 1408, 80), ("DRUMS", 36, 104, 1208, 80),
        ("GUITAR", 52, 104, 1408, 80), ("GUITAR", 64, 104, 1200, 80),
        ("BASS", 40, 1200, 1408, 80), ("STRINGS", 48, 1200, 1408, 80),
        ("DRUMS", 38, 1208, 1408, 80), ("PIANO", 59, 1208, 1408, 80),
    ]
    assert result.chord_onsets_ms == [104]
    assert result.score.bar_marks_ms == (0,)
    assert (result.ignored_offs, result.unclosed_notes, result.dropped_zero_length) == (1, 10, 2)


def test_decode_chord_onsets_reported():
    toks = [
        START, FEWER_INSTRUMENTS, Token.shift(1000), Token.shift(1000),
        Token(TokenKind.CHORD), Token.on(Instrument.PIANO, 60), Token.shift(8),
    ]
    result = decode_events(toks)
    assert result.chord_onsets_ms == [2000]


def test_decode_bar_marks():
    toks = [START, FEWER_INSTRUMENTS, BAR, Token.shift(1000), BAR]
    result = decode_events(toks)
    assert result.score.bar_marks_ms == (0, 1000)


def test_duration_preserved_as_shift_sum():
    score = ScoreTimeline(notes=[NoteEvent(Instrument.STRINGS, 70, 104, 5000)])
    toks = encode_events(score, include_bars=False)
    total = sum(t.shift_ms for t in toks if t.kind is TokenKind.TIMESHIFT)
    assert total == 5000  # quantized last offset


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


def assert_timing_close(original: ScoreTimeline, decoded: ScoreTimeline, tol_ms: int) -> None:
    """Pair notes per (instrument, pitch) in onset order; check both edges."""
    assert len(decoded.notes) == len(original.notes)

    def grouped(score):
        groups: dict = {}
        for n in score.notes:
            groups.setdefault((n.instrument, n.pitch), []).append(n)
        return groups

    got = grouped(decoded)
    for key, originals in grouped(original).items():
        candidates = got.get(key, [])
        assert len(candidates) == len(originals)
        for a, b in zip(originals, candidates):
            assert abs(a.onset_ms - b.onset_ms) <= tol_ms
            assert abs(a.offset_ms - b.offset_ms) <= tol_ms


def test_round_trip_random_grid_scores():
    rng = random.Random(20240814)
    for _ in range(120):
        score = random_grid_score(rng)
        assert decode_events(encode_events(score)).score == score


def test_round_trip_off_grid_error_bounded():
    rng = random.Random(7)
    for _ in range(60):
        score = random_offgrid_score(rng)
        decoded = decode_events(encode_events(score, include_bars=False)).score
        assert_timing_close(score, decoded, tol_ms=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_property(data):
    # one lane per (instrument, pitch) so the stream is unambiguous
    lanes = data.draw(st.lists(st.integers(0, 5 * 128 - 1), min_size=1, max_size=12, unique=True))
    notes = []
    for lane in lanes:
        instrument = list(Instrument)[lane // 128]
        pitch = lane % 128
        onset = data.draw(st.integers(0, 500)) * 8
        duration = data.draw(st.integers(1, 250)) * 8
        notes.append(NoteEvent(instrument, pitch, onset, onset + duration))
    score = ScoreTimeline(notes=notes)
    assert decode_events(encode_events(score, include_bars=False)).score == score


def test_write_parse_round_trip_type1_and_type0():
    rng = random.Random(99)
    for smf_type in (0, 1):
        for _ in range(20):
            score = random_grid_score(rng, max_notes=20)
            reparsed = parse_midi(smf_bytes(score, smf_type))
            assert len(reparsed.notes) == len(score.notes)
            for a, b in zip(score.notes, reparsed.notes):
                assert a.instrument is b.instrument
                assert a.pitch == b.pitch
                assert a.velocity == b.velocity
                # 480 ticks/quarter at 120 BPM -> about 1 ms resolution
                assert abs(a.onset_ms - b.onset_ms) <= 1
                assert abs(a.offset_ms - b.offset_ms) <= 1


# ---------------------------------------------------------------------------
# Transposition / trimming
# ---------------------------------------------------------------------------


def test_transpose_examples():
    score = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 100),
            NoteEvent(Instrument.DRUMS, 36, 0, 100),
        ]
    )
    up = transpose(score, 3)
    assert {n.pitch for n in up.notes if n.instrument is Instrument.PIANO} == {63}
    assert {n.pitch for n in up.notes if n.instrument is Instrument.DRUMS} == {36}
    assert transpose(score, 0) == score
    down = transpose(score, -3)
    assert {n.pitch for n in down.notes if n.instrument is Instrument.PIANO} == {57}


def test_transpose_range_checks():
    score = ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 126, 0, 100)])
    up = transpose(score, 3)
    assert up.notes[0].pitch == 117  # 129 pulled back an octave
    with pytest.raises(ValueError):
        transpose(score, 4)
    with pytest.raises(ValueError):
        transpose(score, -4)


def test_trim_to_duration():
    score = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 5000),
            NoteEvent(Instrument.PIANO, 62, 9_500, 12_000),
            NoteEvent(Instrument.PIANO, 64, 10_000, 11_000),
        ],
        bar_marks_ms=(0, 2000, 12_000),
    )
    trimmed = trim_to_duration(score, 10_000)
    assert [n.offset_ms for n in trimmed.notes] == [5000, 10_000]
    assert max(n.offset_ms for n in trimmed.notes) <= 10_000
    assert trimmed.bar_marks_ms == (0, 2000)


# (pitch, onset_ms, offset_ms[, velocity]) of a piano note, and the message it raises
NOTE_EVENT_ERRORS = [
    ((128, 0, 100), "pitch 128 outside 0..127"),
    ((-1, 0, 100), "pitch -1 outside 0..127"),
    ((60, -1, 100), "onset_ms must be >= 0, got -1"),
    ((60, 100, 100), "offset_ms must exceed onset_ms (100 <= 100)"),
    ((60, 100, 40), "offset_ms must exceed onset_ms (40 <= 100)"),
    ((60, 0, 100, 0), "velocity 0 outside 1..127"),
    ((60, 0, 100, 128), "velocity 128 outside 1..127"),
    ((128, -1, -2, 0), "pitch 128 outside 0..127"),  # checked in field order
    ((60, -1, -2, 0), "onset_ms must be >= 0, got -1"),
    ((60, 5, 5, 0), "offset_ms must exceed onset_ms (5 <= 5)"),
]


def test_note_event_validation():
    for args, message in NOTE_EVENT_ERRORS:
        with pytest.raises(ValueError) as excinfo:
            NoteEvent(Instrument.PIANO, *args)
        assert str(excinfo.value) == message


def test_note_event_record():
    note = NoteEvent(Instrument.GUITAR, 60, 10, 250)
    assert (note.instrument, note.pitch, note.onset_ms, note.offset_ms, note.velocity) == (
        Instrument.GUITAR, 60, 10, 250, 80
    )
    assert note.offset_ms - note.onset_ms == 240
    assert note == NoteEvent(Instrument.GUITAR, 60, 10, 250, velocity=80)
    assert note != NoteEvent(Instrument.GUITAR, 60, 10, 250, velocity=81)
    assert hash(note) == hash(NoteEvent(Instrument.GUITAR, 60, 10, 250))
    assert repr(note) == (
        "NoteEvent(instrument=<Instrument.GUITAR: 'guitar'>, pitch=60, "
        "onset_ms=10, offset_ms=250, velocity=80)"
    )
    assert pickle.loads(pickle.dumps(note)) == note
    with pytest.raises(ValueError, match=r"^pitch 128 outside 0\.\.127$"):
        note._replace(pitch=128)
    with pytest.raises(ValueError, match=r"^velocity 0 outside 1\.\.127$"):
        NoteEvent._make((Instrument.GUITAR, 60, 10, 250, 0))


@pytest.mark.parametrize("instrument", ["piano", "PIANO", 0, None])
def test_a_note_event_rejects_an_instrument_that_is_not_an_instrument(instrument):
    with pytest.raises(ValueError, match=r"^instrument must be an Instrument, got "):
        NoteEvent(instrument, 60, 0, 100)


@pytest.mark.parametrize("field", ["pitch", "onset_ms", "offset_ms", "velocity"])
@pytest.mark.parametrize("value", [60.5, 60.0, True, np.bool_(True), np.float64(60), "60", None],
                         ids=repr)
def test_a_note_event_takes_only_integer_pitch_times_and_velocity(field, value):
    fields = {"pitch": 60, "onset_ms": 0, "offset_ms": 100, "velocity": 80}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        NoteEvent(Instrument.PIANO, **{**fields, field: value})
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        NoteEvent(Instrument.PIANO, *fields.values())._replace(**{field: value})


def test_a_note_event_takes_numpy_ints_and_rejects_fractions():
    with pytest.raises(ValueError, match=r"^pitch must be an integer, got 60\.5$"):
        NoteEvent(Instrument.PIANO, 60.5, 0.5, 100.2, 80.7)
    fields = (np.int64(60), np.int32(0), np.uint16(100), np.int8(80))
    note = NoteEvent(Instrument.PIANO, *fields)
    assert note == NoteEvent(Instrument.PIANO, 60, 0, 100, 80)
    assert ScoreTimeline(notes=[note]).columns[:, 0].tolist() == [0, 3, 60, 100, 80]


@pytest.mark.parametrize("tempo", [float("nan"), float("inf"), float("-inf"), 0.0, -120.0])
def test_a_timeline_rejects_a_tempo_that_is_not_positive_and_finite(tempo):
    with pytest.raises(ValueError, match=r"^tempo_bpm must be positive and finite, got "):
        ScoreTimeline(tempo_bpm=tempo)
    with pytest.raises(ValueError, match=r"^tempo_bpm must be positive and finite, got "):
        ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 100)], tempo_bpm=tempo)


def test_a_timeline_checks_a_plain_tuple_as_a_note_event():
    with pytest.raises(ValueError, match=r"^pitch must be an integer, got 60\.5$"):
        ScoreTimeline(notes=[(Instrument.PIANO, 60.5, 0.5, 100.2, 80.7)])
    (note,) = ScoreTimeline(notes=[(Instrument.PIANO, 60, 0, 100, 80)]).notes
    assert type(note) is NoteEvent and note == NoteEvent(Instrument.PIANO, 60, 0, 100, 80)


def test_a_timeline_rejects_an_instrument_name_in_a_plain_tuple():
    with pytest.raises(ValueError, match=r"^instrument must be an Instrument, got 'piano'$"):
        ScoreTimeline(notes=[("piano", 60, 0, 100, 80)])


def old_note_order(note):
    """The order ``ScoreTimeline`` keeps, read off the instrument's name."""
    return (note.onset_ms, note.instrument.value, note.pitch, note.offset_ms, note.velocity)


@pytest.mark.parametrize("seed", range(10))
def test_timeline_sorts_notes_in_the_old_order(seed):
    # Narrow ranges, so notes tie on every prefix of the key, and repeats.
    rng = random.Random(seed)
    notes = []
    for _ in range(rng.randint(0, 400)):
        onset = rng.randint(0, 12)
        notes.append(
            NoteEvent(
                rng.choice(list(Instrument)),
                rng.randint(60, 62),
                onset,
                onset + rng.randint(1, 3),
                velocity=rng.randint(1, 3),
            )
        )
    notes += rng.sample(notes, len(notes) // 4)
    rng.shuffle(notes)
    assert ScoreTimeline(notes).notes == sorted(notes, key=old_note_order)


@pytest.mark.parametrize("seed", range(6))
def test_every_producer_makes_valid_note_events(seed):
    score = golden_score(seed)
    tokens = encode_events(score)
    cut = tokens[: len(tokens) * 2 // 3]  # leaves notes open at the end
    onsets = [n.onset_ms for n in score.notes[::5]]
    produced = {
        "parse_midi": parse_midi(smf_bytes(score, seed % 2)),
        "decode_events": decode_events(tokens).score,
        "decode_events (unclosed)": decode_events(cut).score,
        "transpose": transpose(score, 3 if seed % 2 else -3),
        "trim_to_duration": trim_to_duration(score, 5_000 + 1_000 * seed),
        "boost_chord_velocity": boost_chord_velocity(score, onsets, gain=60),
    }
    for name, result in produced.items():
        assert result.notes, name
        for note in result.notes:
            assert type(note) is NoteEvent, name
            fields = (note.instrument, note.pitch, note.onset_ms, note.offset_ms, note.velocity)
            assert NoteEvent(*fields) == note, name  # passes the public checks


def unwrapped_and_wrapping(score: ScoreTimeline) -> tuple[ScoreTimeline, ScoreTimeline]:
    """``score`` with no pitch a +/-3 transpose wraps, and with two that +3 wraps out of order."""
    safe = [n._replace(pitch=min(max(n.pitch, 3), 124)) for n in score.notes]
    edge = [NoteEvent(Instrument.STRINGS, pitch, 500, 900) for pitch in (124, 125)]
    return ScoreTimeline(safe, score.tempo_bpm), ScoreTimeline(safe + edge, score.tempo_bpm)


@pytest.mark.parametrize("seed", range(6))
def test_every_producer_returns_notes_in_timeline_order(seed):
    score = golden_score(seed)
    tokens = encode_events(score)
    safe, wrapping = unwrapped_and_wrapping(score)
    shift = 3 if seed % 2 else -3
    produced = {
        "parse_midi": parse_midi(smf_bytes(score, seed % 2)),
        "decode_events": decode_events(tokens).score,
        "decode_events (unclosed)": decode_events(tokens[: len(tokens) * 2 // 3]).score,
        "transpose": transpose(safe, shift),
        "transpose (wrapped)": transpose(wrapping, 3),
        "transpose (any)": transpose(score, shift),
        "trim_to_duration": trim_to_duration(score, 5_000 + 1_000 * seed),
        "boost_chord_velocity": boost_chord_velocity(
            score, [n.onset_ms for n in score.notes[::5]], gain=60
        ),
    }
    for name, result in produced.items():
        assert result.notes == sorted(result.notes, key=old_note_order), name
    # The wrapped pitch (125 + 3 -> 116) moved ahead of its neighbour (124 + 3).
    edge = [n.pitch for n in produced["transpose (wrapped)"].notes if n[2:4] == (500, 900)]
    assert edge.index(116) < edge.index(127)


def test_sorted_producers_do_not_sort_again(monkeypatch):
    score = golden_score(3)
    data = write_midi(score)
    safe, wrapping = unwrapped_and_wrapping(score)
    sorts = []
    monkeypatch.setattr(
        midi_codec, "_timeline_order", lambda c: sorts.append(c) or _timeline_order(c)
    )
    parse_midi(data)
    transpose(safe, 3)
    transpose(safe, -3)
    assert sorts == []
    boosted = boost_chord_velocity(score, [n.onset_ms for n in score.notes[::3]], 40)
    assert boosted.notes != score.notes
    assert sorts == []
    transpose(wrapping, 3)
    assert len(sorts) == 1 and sorts[0].shape == (5, len(wrapping.notes))


def test_trim_sorts_notes_its_clamp_reorders():
    piano = Instrument.PIANO
    score = ScoreTimeline([NoteEvent(piano, 60, 0, 5000, 100), NoteEvent(piano, 60, 0, 6000, 50)])
    assert [n.velocity for n in trim_to_duration(score, 4000).notes] == [50, 100]


def test_trim_matches_the_full_sort_with_and_without_clamp_ties():
    seen = {True: 0, False: 0}
    for seed in range(300):
        rng = random.Random(seed)
        notes = []
        for _ in range(rng.randint(1, 40)):
            onset = rng.randrange(0, 4000, rng.choice((1, 500)))  # coarse grids make ties
            notes.append(
                NoteEvent(
                    rng.choice((Instrument.PIANO, Instrument.GUITAR, Instrument.DRUMS)),
                    rng.choice((60, 64, rng.randint(0, 127))),
                    onset,
                    onset + rng.choice((1, 250, rng.randint(1, 3000))),
                    velocity=rng.randint(1, 127),
                )
            )
        score = ScoreTimeline(notes, tempo_bpm=rng.uniform(60, 180), bar_marks_ms=(0, 2000, 4000))
        duration = rng.randint(1, 4500)
        clamped = [
            NoteEvent(inst, pitch, onset, min(offset, duration), velocity)
            for inst, pitch, onset, offset, velocity in score.notes
            if onset < duration
        ]
        full = ScoreTimeline(clamped, score.tempo_bpm, score.bar_marks_ms[: 1 + duration // 2000])
        trimmed = trim_to_duration(score, duration)
        assert (trimmed.notes, trimmed.tempo_bpm, trimmed.bar_marks_ms) == (
            full.notes, full.tempo_bpm, full.bar_marks_ms
        ), f"seed {seed}"
        seen[trimmed.notes != clamped] += 1  # the clamp reordered two tied notes
    assert seen[True] >= 5 and seen[False] >= 100, seen


# ---------------------------------------------------------------------------
# Golden SMF bytes: write_midi output stays byte-identical across refactors
# ---------------------------------------------------------------------------


# (seed of golden_score, or "empty" for a score with no notes; SMF format).  The
# format 0 entries are the bytes of the oracle, which writes the one-track layout.
WRITE_MIDI_DIGESTS = {
    (0, 0): "cc8502095ddd530ee7d5237a6d7ed83686a2c43f1e357b744bc723f166102863",
    (0, 1): "23402ca409f2bd14434c628964ae7c7cf5a3b6dca9d84499ba71d2ca143f02a1",
    (1, 0): "130fde97105ad6646041b1f674a01dc56868f642694074208fa4158e402ce06f",
    (1, 1): "38e214d9efd8d0d604c1e493d8c29bc70e3fa5101d606ed37d366a2b9ea0e60c",
    (2, 0): "8b94d41eb0d9da3826d0de95fd1277e74a3301b3242fd7da2f49e9987a7bb42a",
    (2, 1): "4ac96853c761acc89ce219c1b36029bae75be4fa99fe46b2b2757679c72c4bf4",
    (3, 0): "70b7b56337715cd682a79145c6a2fe28d91b9f63a3f36429fbfab4764a0641e1",
    (3, 1): "cd6e92880379c14184adc7c4e737552964cca66cee8f32afc6b3c295845fc830",
    (4, 0): "a8f35debea7bdb949ea4fe2cda7fa69ec6bf17fce3b5abbd6a350e13f7e29b64",
    (4, 1): "95cb4576b0a7bb84e7d7a0db4785fd8364079825e410d78a2a764216aad3d5de",
    (5, 0): "819af20a7addab57bea24a417914919def1d8187cccdbe6d3fde19ed679bbd21",
    (5, 1): "8db73ab5a74846e52c5c346c65f87a6374c682fe2cb7dc188e69be3696bd382a",
    ("empty", 0): "6373eb2d4373bd4e339cff47bc66d9207e410bc2d65107ac86fa23ebda6fd9f4",
    ("empty", 1): "bdf4024a9c0297bc6348a725dbce16e5235c2ba5c9be293fcd0072d8d353585e",
}


@pytest.mark.parametrize("seed, smf_type", sorted(WRITE_MIDI_DIGESTS, key=str), ids=str)
def test_write_midi_golden_bytes(seed, smf_type):
    score = ScoreTimeline() if seed == "empty" else golden_score(seed)
    digest = hashlib.sha256(smf_bytes(score, smf_type)).hexdigest()
    assert digest == WRITE_MIDI_DIGESTS[seed, smf_type]


# ---------------------------------------------------------------------------
# Golden decodes: decode_events results stay identical across refactors
# ---------------------------------------------------------------------------


def random_decode_stream(rng: random.Random) -> list[Token]:
    """Seeded token stream that reaches every rule of the decoder.

    Two pitches per instrument make stacked unisons and orphan OFFs
    common; an ON directly followed by its OFF is a zero-length pair.
    CHORD and BAR land anywhere, BARs often twice at one cursor.  The
    stream ends on one ON per instrument, in random order, each followed
    by a shift or not, so unclosed notes of all five instruments are
    closed at the end or dropped as zero-length.
    """
    instruments = list(Instrument)
    pitches = {inst: rng.sample(range(128), 2) for inst in instruments}

    def note() -> tuple[Instrument, int]:
        inst = rng.choice(instruments)
        return inst, rng.choice(pitches[inst])

    toks = [START, rng.choice((FEWER_INSTRUMENTS, MORE_INSTRUMENTS))]
    for _ in range(rng.randint(5, 80)):
        r = rng.random()
        if r < 0.3:
            toks.append(Token.on(*note()))
        elif r < 0.5:
            toks.append(Token.off(*note()))
        elif r < 0.55:
            inst, pitch = note()
            toks += [Token.on(inst, pitch), Token.off(inst, pitch)]
        elif r < 0.8:
            toks.append(Token.shift(rng.choice((8, 16, 104, 496, 1000))))
        elif r < 0.9:
            toks.append(CHORD)
        else:
            toks.append(BAR)
    rng.shuffle(instruments)
    for inst in instruments:
        toks.append(Token.on(inst, rng.choice(pitches[inst])))
        if rng.random() < 0.5:
            toks.append(Token.shift(rng.choice((8, 240))))
    return toks


def decode_digest(seeds: range) -> str:
    """sha256 over the notes, chord onsets, bar marks and counters of each decode."""
    h = hashlib.sha256()
    for seed in seeds:
        result = decode_events(random_decode_stream(random.Random(seed)))
        notes = [
            (n.instrument.value, n.pitch, n.onset_ms, n.offset_ms, n.velocity)
            for n in result.score.notes
        ]
        h.update(repr((
            notes,
            result.chord_onsets_ms,
            result.score.bar_marks_ms,
            result.ignored_offs,
            result.unclosed_notes,
            result.dropped_zero_length,
        )).encode() + b"\n")
    return h.hexdigest()


# first seed of a block of 40 streams -> digest of their decodes
DECODE_DIGESTS = {
    0: "7451dd8191cbe78323c173f86bf803db57b2aa5f093837059c08622608af6685",
    40: "58d6a1d0a547452f44749a9a7606f3cb743ffd302738e3e5f2c605124d80bd79",
    80: "705dfb1a05ce629ce160a2e7cb9adeeb2f5b695335d728ea83bc5df5e99f5cdc",
    120: "1bf4d56dd739be44a7e64e0320cefcb98b8518941d95e24b6e2bb1be295bbb8c",
    160: "c3cd98a8d2c23c83b321aa2888037e577862414edd30ab2d25d467944ff29325",
    200: "cef11658b9def99c51624ba3068acab46c37f4a534031c65541e51cccde001ea",
    240: "b15bf3544524616250a53ef1d24a013424340c1e59528a5d3d676a25c2d42e64",
    280: "001e9995f26871b1e4a0bd11e27dbd4b45a061bb60d0883b8053a665b0cc2d87",
}


@pytest.mark.parametrize("first", sorted(DECODE_DIGESTS))
def test_decode_golden_results(first):
    assert decode_digest(range(first, first + 40)) == DECODE_DIGESTS[first]


def test_decode_golden_streams_reach_every_rule():
    totals = [0] * 5
    for first in DECODE_DIGESTS:
        for seed in range(first, first + 40):
            result = decode_events(random_decode_stream(random.Random(seed)))
            counts = (
                result.ignored_offs,
                result.unclosed_notes,
                result.dropped_zero_length,
                len(result.chord_onsets_ms),
                len(result.score.bar_marks_ms),
            )
            totals = [t + c for t, c in zip(totals, counts)]
    assert len(DECODE_DIGESTS) * 40 >= 300
    assert all(totals), totals
