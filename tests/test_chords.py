from __future__ import annotations

import random

import pytest

from midisync.chords import (
    ChordLabelError,
    ChordSpan,
    beat_duration_ms,
    boost_chord_velocity,
    detect_chords,
    dropout_chords,
    format_spans,
    insert_chord_tokens,
    parse_spans,
)
from midisync.config import PipelineConfig
from midisync.midi_codec import NoteEvent, ScoreTimeline, encode_events, quantize_ms
from midisync.tokens import CHORD, Instrument, Token, TokenKind


def triad(instrument, pitches, onset, duration, velocity=80):
    return [
        NoteEvent(instrument, p, onset, onset + duration, velocity) for p in pitches
    ]


def test_beat_duration():
    assert beat_duration_ms(120.0) == 500.0
    assert beat_duration_ms(60.0) == 1000.0
    with pytest.raises(ValueError):
        beat_duration_ms(0)


def test_detect_qualifying_piano_chord():
    # 120 BPM: two beats = 1000 ms; these notes last exactly 1000 ms
    score = ScoreTimeline(notes=triad(Instrument.PIANO, (60, 64, 67), 0, 1000))
    spans = detect_chords(score)
    assert len(spans) == 1
    assert spans[0].instrument is Instrument.PIANO
    assert spans[0].onset_ms == 0
    assert spans[0].pitches == (60, 64, 67)


def test_detect_rejects_short_and_small():
    short = ScoreTimeline(notes=triad(Instrument.PIANO, (60, 64, 67), 0, 999))
    assert detect_chords(short) == []
    dyad = ScoreTimeline(notes=triad(Instrument.PIANO, (60, 64), 0, 2000))
    assert detect_chords(dyad) == []
    # one short member disqualifies the whole cluster
    mixed = ScoreTimeline(
        notes=triad(Instrument.PIANO, (60, 64), 0, 2000)
        + triad(Instrument.PIANO, (67,), 0, 400)
    )
    assert detect_chords(mixed) == []


def test_detect_ignores_non_chordable_instruments():
    strings = ScoreTimeline(notes=triad(Instrument.STRINGS, (60, 64, 67), 0, 2000))
    assert detect_chords(strings) == []
    bass = ScoreTimeline(notes=triad(Instrument.BASS, (40, 43, 47), 0, 2000))
    assert detect_chords(bass) == []
    drums = ScoreTimeline(notes=triad(Instrument.DRUMS, (36, 38, 42), 0, 2000))
    assert detect_chords(drums) == []


def test_detect_simultaneity_window():
    # onsets within 8 ms cluster together; 9 ms breaks the cluster
    inside = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.GUITAR, 52, 100, 1500),
            NoteEvent(Instrument.GUITAR, 55, 104, 1500),
            NoteEvent(Instrument.GUITAR, 59, 108, 1500),
        ]
    )
    spans = detect_chords(inside)
    assert len(spans) == 1 and spans[0].instrument is Instrument.GUITAR
    outside = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.GUITAR, 52, 100, 1500),
            NoteEvent(Instrument.GUITAR, 55, 104, 1500),
            NoteEvent(Instrument.GUITAR, 59, 117, 1500),
        ]
    )
    assert detect_chords(outside) == []


def test_detect_beat_override_and_tempo():
    # at 60 BPM two beats = 2000 ms, so a 1500 ms chord fails ...
    slow = ScoreTimeline(notes=triad(Instrument.PIANO, (60, 64, 67), 0, 1500), tempo_bpm=60.0)
    assert detect_chords(slow) == []
    # ... unless the caller overrides the beat length
    assert len(detect_chords(slow, beat_ms=500.0)) == 1


def test_detect_multiple_sorted():
    score = ScoreTimeline(
        notes=triad(Instrument.PIANO, (60, 64, 67), 4000, 1200)
        + triad(Instrument.GUITAR, (52, 55, 59), 1000, 1200)
    )
    spans = detect_chords(score)
    assert [(s.onset_ms, s.instrument) for s in spans] == [
        (1000, Instrument.GUITAR),
        (4000, Instrument.PIANO),
    ]


def test_insert_chord_before_first_on():
    score = ScoreTimeline(
        notes=[NoteEvent(Instrument.BASS, 40, 0, 500)]
        + triad(Instrument.PIANO, (60, 64, 67), 1000, 1200)
    )
    spans = detect_chords(score)
    toks = encode_events(score, include_bars=False)
    with_chords = insert_chord_tokens(toks, spans)
    names = [t.name for t in with_chords]
    i = names.index("CHORD")
    assert names[i + 1] == "PIANO_ON_60"
    assert names.count("CHORD") == 1
    # CHORD sits right after the TIMESHIFT reaching 1000 ms
    assert names[i - 1].startswith("TIMESHIFT")


def test_insert_no_match_raises():
    toks = encode_events(
        ScoreTimeline(notes=[NoteEvent(Instrument.BASS, 40, 0, 500)]), include_bars=False
    )
    bogus = ChordSpan(Instrument.PIANO, 0, (60, 64, 67), 1000)
    with pytest.raises(ChordLabelError):
        insert_chord_tokens(toks, [bogus])


def test_insert_count_matches_span_count():
    rng = random.Random(11)
    for _ in range(20):
        notes = []
        t = 0
        n_chords = rng.randint(0, 5)
        for _ in range(n_chords):
            pitches = rng.sample(range(48, 84), 3)
            notes += triad(Instrument.PIANO, pitches, t, 1000 + 8 * rng.randint(0, 50))
            t += 2000
        score = ScoreTimeline(notes=notes)
        spans = detect_chords(score)
        assert len(spans) == n_chords
        toks = insert_chord_tokens(encode_events(score, include_bars=False), spans)
        assert sum(1 for x in toks if x.kind is TokenKind.CHORD) == n_chords


def test_dropout_rate_edges():
    toks = [CHORD, Token.shift(8), CHORD, Token.shift(8), CHORD]
    assert dropout_chords(toks, 0.0, seed=1) == toks
    kept = dropout_chords(toks, 1.0, seed=1)
    assert all(t.kind is not TokenKind.CHORD for t in kept)
    assert len(kept) == 2
    with pytest.raises(ValueError):
        dropout_chords(toks, 1.5, seed=1)
    with pytest.raises(ValueError):
        dropout_chords(toks, -0.1, seed=1)


def test_dropout_preserves_non_chords_and_order():
    toks = [Token.shift(8), CHORD, Token.on(Instrument.PIANO, 60), CHORD, Token.shift(16)]
    out = dropout_chords(toks, 0.5, seed=3)
    assert [t for t in out if t.kind is not TokenKind.CHORD] == [
        Token.shift(8), Token.on(Instrument.PIANO, 60), Token.shift(16)
    ]


def test_dropout_statistics():
    toks = [CHORD] * 10_000
    kept = dropout_chords(toks, 0.2, seed=42)
    removed = len(toks) - len(kept)
    assert abs(removed - 2000) <= 120  # 3 sigma of Binomial(10000, 0.2)


def test_dropout_deterministic_per_seed():
    toks = [CHORD if i % 3 else Token.shift(8) for i in range(300)]
    assert dropout_chords(toks, 0.2, seed=5) == dropout_chords(toks, 0.2, seed=5)
    assert dropout_chords(toks, 0.2, seed=5) != dropout_chords(toks, 0.2, seed=6)


def test_boost_velocity():
    score = ScoreTimeline(
        notes=triad(Instrument.PIANO, (60, 64, 67), 0, 1200, velocity=80)
        + [NoteEvent(Instrument.PIANO, 80, 3000, 3200, velocity=80)]
    )
    boosted = boost_chord_velocity(score, [0], gain=20)
    by_pitch = {n.pitch: n.velocity for n in boosted.notes}
    assert by_pitch[60] == by_pitch[64] == by_pitch[67] == 100
    assert by_pitch[80] == 80  # note away from every chord onset untouched


def test_boost_uses_simultaneity_window():
    notes = [
        NoteEvent(Instrument.PIANO, 60, 1000, 2200, velocity=80),
        NoteEvent(Instrument.BASS, 36, 1008, 2200, velocity=80),  # inside window
        NoteEvent(Instrument.PIANO, 72, 1009, 2200, velocity=80),  # outside
    ]
    boosted = boost_chord_velocity(ScoreTimeline(notes=notes), [1000], gain=20)
    by_pitch = {n.pitch: n.velocity for n in boosted.notes}
    assert by_pitch[60] == 100
    assert by_pitch[36] == 100  # any instrument at the onset is part of the hit
    assert by_pitch[72] == 80


def test_boost_saturates_and_validates():
    score = ScoreTimeline(notes=triad(Instrument.PIANO, (60, 64, 67), 0, 1200, velocity=120))
    boosted = boost_chord_velocity(score, [0], gain=20)
    assert all(n.velocity == 127 for n in boosted.notes)
    assert boost_chord_velocity(score, [0], gain=0) == score
    assert boost_chord_velocity(score, [], gain=20) == score
    with pytest.raises(ValueError):
        boost_chord_velocity(score, [0], gain=-1)


def test_span_report_round_trip():
    spans = [
        ChordSpan(Instrument.PIANO, 1000, (60, 64, 67), 1200),
        ChordSpan(Instrument.GUITAR, 4512, (52, 55, 59, 62), 2000),
    ]
    text = format_spans(spans)
    assert text.splitlines()[0] == "1.000\tpiano\t1.200\t60,64,67"
    assert parse_spans(text) == spans


def test_chord_span_validation():
    with pytest.raises(ValueError):
        ChordSpan(Instrument.STRINGS, 0, (60, 64, 67), 1000)
    with pytest.raises(ValueError):
        ChordSpan(Instrument.PIANO, 0, (60, 64), 1000)
    with pytest.raises(ValueError):
        ChordSpan(Instrument.PIANO, 0, (60, 64, 64), 1000)
    with pytest.raises(ValueError):
        ChordSpan(Instrument.PIANO, 0, (60, 64, 67), 0)


def test_insert_then_remove_recovers_original():
    rng = random.Random(23)
    for _ in range(10):
        notes = []
        t = 0
        for _ in range(rng.randint(1, 4)):
            notes += triad(Instrument.PIANO, rng.sample(range(50, 80), 3), t, 1200)
            t += 2500
        score = ScoreTimeline(notes=notes)
        toks = encode_events(score, include_bars=False)
        inserted = insert_chord_tokens(toks, detect_chords(score))
        stripped = [x for x in inserted if x.kind is not TokenKind.CHORD]
        assert stripped == toks


# -- insert_chord_tokens against the whole-stream scan ------------------------


def cursors_before(tokens):
    cursors = []
    cursor = 0
    for tok in tokens:
        cursors.append(cursor)
        if tok.kind is TokenKind.TIMESHIFT:
            cursor += tok.shift_ms
    return cursors


def insert_by_whole_stream_scan(tokens, spans, simultaneity_eps_ms=PipelineConfig.simultaneity_eps_ms):
    """Oracle: rescan the whole stream from index 0 for every span."""
    cursors = cursors_before(tokens)
    insert_at = []
    for span in spans:
        lo = quantize_ms(max(0, span.onset_ms - simultaneity_eps_ms))
        hi = quantize_ms(span.onset_ms + simultaneity_eps_ms)
        found = None
        for idx, tok in enumerate(tokens):
            if (
                tok.kind is TokenKind.ON
                and tok.instrument is span.instrument
                and tok.pitch in span.pitches
                and lo <= cursors[idx] <= hi
            ):
                found = idx
                break
        if found is None:
            raise ChordLabelError(
                f"no ON token matches chord at {span.onset_ms} ms ({span.instrument.value})"
            )
        insert_at.append(found)
    out = list(tokens)
    for idx in sorted(insert_at, reverse=True):
        out.insert(idx, CHORD)
    return out


def outcome(fn, *args):
    """The returned token list, or the ChordLabelError message."""
    try:
        return fn(*args)
    except ChordLabelError as exc:
        return f"ChordLabelError: {exc}"


PITCH_POOL = (48, 52, 55, 60, 64, 67)


def random_stream(rng, length):
    """Dense random stream: few pitches and short shifts, so windows overlap."""
    toks = []
    for _ in range(length):
        r = rng.random()
        if r < 0.3:
            toks.append(Token.shift(8 * rng.randint(1, 3)))
        else:
            kind = Token.on if r < 0.8 else Token.off
            toks.append(kind(rng.choice(list(Instrument)), rng.choice(PITCH_POOL)))
    return toks


def random_spans(rng, toks, eps, count):
    """Spans anchored near random guitar/piano ONs, some off their window."""
    cursors = cursors_before(toks)
    anchors = [
        (c, tok)
        for c, tok in zip(cursors, toks)
        if tok.kind is TokenKind.ON and tok.instrument in (Instrument.GUITAR, Instrument.PIANO)
    ]
    spans = []
    for _ in range(count):
        if anchors and rng.random() < 0.97:
            c, tok = rng.choice(anchors)
            reach = eps if rng.random() < 0.9 else eps + 16
            onset = max(0, c + rng.randint(-reach, reach))
            others = [p for p in PITCH_POOL if p != tok.pitch]
            pitches = (tok.pitch, *rng.sample(others, rng.randint(2, 3)))
            instrument = tok.instrument
        else:
            onset = rng.randint(0, cursors[-1] + 16 if cursors else 16)
            pitches = tuple(rng.sample(PITCH_POOL, 3))
            instrument = rng.choice([Instrument.GUITAR, Instrument.PIANO])
        spans.append(ChordSpan(instrument, onset, pitches, 1000))
    spans.sort(key=lambda s: (s.onset_ms, s.instrument.value))
    return spans


@pytest.mark.parametrize("seed", range(40))
def test_insert_matches_whole_stream_scan_on_random_streams(seed):
    rng = random.Random(seed)
    toks = random_stream(rng, rng.randint(0, 300))
    eps = rng.choice([0, 4, 8, 16])
    for _ in range(5):
        spans = random_spans(rng, toks, eps, rng.randint(0, 12))
        expected = outcome(insert_by_whole_stream_scan, toks, spans, eps)
        assert outcome(insert_chord_tokens, toks, spans, eps) == expected


def test_insert_overlapping_windows_stack_markers():
    # Two piano spans 8 ms apart both reach the ON at cursor 8 and get a
    # marker each, at one position.
    on = Token.on(Instrument.PIANO, 60)
    toks = [Token.shift(8), on, Token.shift(8), Token.on(Instrument.PIANO, 64)]
    spans = [
        ChordSpan(Instrument.PIANO, 4, (60, 64, 67), 1000),
        ChordSpan(Instrument.PIANO, 12, (60, 64, 67), 1000),
    ]
    out = insert_chord_tokens(toks, spans)
    assert out == [Token.shift(8), CHORD, CHORD, on, Token.shift(8), toks[3]]
    assert out == insert_by_whole_stream_scan(toks, spans)


def test_insert_near_cursor_zero_clips_window():
    # onset 3 with an 8 ms window: lo clips to 0 and the ON at cursor 0 counts.
    toks = [Token.on(Instrument.GUITAR, 52), Token.shift(16), Token.on(Instrument.GUITAR, 55)]
    for onset in (0, 3, 8):
        span = ChordSpan(Instrument.GUITAR, onset, (52, 55, 59), 1000)
        out = insert_chord_tokens(toks, [span])
        assert out == insert_by_whole_stream_scan(toks, [span])
        assert out[0] == CHORD


def test_insert_no_match_message_matches_scan():
    toks = [Token.shift(8), Token.on(Instrument.PIANO, 60), Token.shift(1000)]
    spans = [
        ChordSpan(Instrument.PIANO, 8, (60, 64, 67), 1000),
        ChordSpan(Instrument.GUITAR, 8, (60, 64, 67), 1000),  # wrong instrument
        ChordSpan(Instrument.PIANO, 500, (60, 64, 67), 1000),  # nothing sounds there
    ]
    with pytest.raises(ChordLabelError) as exc:
        insert_chord_tokens(toks, spans)
    assert str(exc.value) == "no ON token matches chord at 8 ms (guitar)"
    assert outcome(insert_by_whole_stream_scan, toks, spans) == f"ChordLabelError: {exc.value}"


def multi_minute_song(rng, minutes):
    """Held triads every one or two bars over a bass line and off-grid melody."""
    notes = []
    bar = 2000
    t = 0
    while t < minutes * 60_000:
        instrument = rng.choice([Instrument.GUITAR, Instrument.PIANO])
        root = rng.randint(48, 60)
        held = bar * rng.randint(1, 2)
        jitter = [rng.randint(0, 6) for _ in range(3)]
        for p, j in zip((root, root + 4, root + 7), jitter):
            notes.append(NoteEvent(instrument, p, t + j, t + held - 10))
        notes.append(NoteEvent(Instrument.BASS, root - 12, t, t + bar // 2))
        for k in range(4):
            onset = t + k * (bar // 4) + rng.randint(0, 30)
            notes.append(NoteEvent(Instrument.STRINGS, rng.randint(72, 84), onset, onset + 300))
        t += held
    return ScoreTimeline(notes=notes)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_detect_then_insert_matches_scan_on_long_songs(seed):
    rng = random.Random(seed)
    score = multi_minute_song(rng, minutes=3)
    toks = encode_events(score)
    spans = detect_chords(score)
    assert len(spans) > 50
    out = insert_chord_tokens(toks, spans)
    assert out == insert_by_whole_stream_scan(toks, spans)
    assert sum(1 for t in out if t.kind is TokenKind.CHORD) == len(spans)
