from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midisync.midi_codec import (
    MAX_SCORE_SPAN_MS,
    DecodeResult,
    MidiParseError,
    NoteEvent,
    ScoreTimeline,
    decode_events,
    encode_events,
    gap_to_shifts,
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
    FEWER_INSTRUMENTS,
    MORE_INSTRUMENTS,
    START,
    Instrument,
    Token,
    TokenKind,
)

# SMF fixtures are built by hand in helpers.py (independent of the package
# writer), so the parser is checked against separately computed tick math.
from helpers import random_grid_score, random_offgrid_score, raw_smf, time_budget, vlq


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
            reparsed = parse_midi(write_midi(score, smf_type=smf_type))
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


def test_note_event_validation():
    with pytest.raises(ValueError):
        NoteEvent(Instrument.PIANO, 60, 100, 100)
    with pytest.raises(ValueError):
        NoteEvent(Instrument.PIANO, 60, -1, 100)
    with pytest.raises(ValueError):
        NoteEvent(Instrument.PIANO, 60, 0, 100, velocity=0)
    with pytest.raises(ValueError):
        NoteEvent(Instrument.PIANO, 128, 0, 100)


# ---------------------------------------------------------------------------
# Golden SMF bytes: write_midi output stays byte-identical across refactors
# ---------------------------------------------------------------------------


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


# (seed of golden_score, or "empty" for a score with no notes; SMF format)
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
    digest = hashlib.sha256(write_midi(score, smf_type=smf_type)).hexdigest()
    assert digest == WRITE_MIDI_DIGESTS[seed, smf_type]
