"""The column forms of the note stages against their tuple forms.

A ``ScoreTimeline`` stores its notes as sorted int64 columns.  The
functions below are the tuple-list bodies that ``encode_ids``,
``detect_chords``, ``transpose``, ``trim_to_duration`` and
``boost_chord_velocity`` had before that, kept as oracles: each reads
``score.notes`` one note at a time.  Seeded scores give them bar marks
that quantize to one time, notes that quantize to zero length,
overlapping unisons, ties on every sort key, and pitches a transpose
wraps by an octave.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from operator import itemgetter

import numpy as np
import pytest

from midisync.chords import (
    CHORDABLE_INSTRUMENTS,
    MIN_CHORD_BEATS,
    MIN_CHORD_NOTES,
    ChordSpan,
    beat_duration_ms,
    boost_chord_velocity,
    detect_chords,
)
from midisync.midi_codec import (
    BLOCK,
    FEWER_INSTRUMENT_LIMIT,
    MAX_TRANSPOSE,
    NoteEvent,
    ScoreTimeline,
    encode_ids,
    transpose,
    trim_to_duration,
)
from midisync.tokens import (
    BAR,
    FEWER_INSTRUMENTS,
    INSTRUMENTS,
    MAX_SHIFT_MS,
    MORE_INSTRUMENTS,
    NUM_PITCHES,
    RESOLUTION_MS,
    START,
    Instrument,
    Token,
)

_ORDER = {inst: k for k, inst in enumerate(INSTRUMENTS)}


def old_note_order(n: NoteEvent) -> tuple:
    """Onset, then instrument block, pitch, offset and velocity."""
    return (n[2], _ORDER[n[0]], n[1], n[3], n[4])


def old_encode_ids(score: ScoreTimeline, include_bars: bool = True) -> np.ndarray:
    half, res = RESOLUTION_MS // 2, RESOLUTION_MS
    notes = score.notes
    n = len(notes)
    marks = np.array(score.bar_marks_ms if include_bars else (), dtype=np.int64)
    marks += half
    marks //= res
    marks *= res
    marks = marks[np.diff(marks, prepend=-1) > 0]
    on_base = {inst: Token.on(inst, 0).id for inst in INSTRUMENTS}
    keys = np.empty(2 * n + len(marks), dtype=np.int64)
    on, off = keys[:n], keys[n:2 * n]
    on[:] = np.fromiter(map(itemgetter(2), notes), np.int64, n)
    off[:] = np.fromiter(map(itemgetter(3), notes), np.int64, n)
    for t in (on, off):
        t += half
        t //= res
        t *= res
    np.maximum(off, on + res, out=off)
    on <<= 13
    off <<= 13
    ids = np.fromiter(map(on_base.__getitem__, map(itemgetter(0), notes)), np.int64, n)
    ids += np.fromiter(map(itemgetter(1), notes), np.int64, n)
    ids |= 2 << 11
    on |= ids
    ids += NUM_PITCHES - (1 << 11)
    off |= ids
    np.left_shift(marks, 13, out=keys[2 * n:])
    keys[2 * n:] |= BAR.id
    keys.sort()
    ids = keys & 2047
    keys >>= 13
    gaps = np.diff(keys, prepend=0)
    shifts = gaps + (MAX_SHIFT_MS - 1)
    shifts //= MAX_SHIFT_MS
    out = np.full(2 + len(ids) + int(shifts.sum()), Token.shift(MAX_SHIFT_MS).id, dtype=np.int64)
    shifts += 1
    at = np.cumsum(shifts)
    shifts -= 2
    shifts *= MAX_SHIFT_MS
    gaps -= shifts
    gaps //= res
    gaps += Token.shift(RESOLUTION_MS).id - 1
    out[at] = gaps
    at += 1
    out[at] = ids
    pitched = {n.instrument for n in notes if n.instrument is not Instrument.DRUMS}
    tag = FEWER_INSTRUMENTS if len(pitched) <= FEWER_INSTRUMENT_LIMIT else MORE_INSTRUMENTS
    out[0], out[1] = START.id, tag.id
    return out


def old_detect_chords(score, beat_ms=None, simultaneity_eps_ms=8):
    if beat_ms is None:
        beat_ms = beat_duration_ms(score.tempo_bpm)
    min_duration = MIN_CHORD_BEATS * beat_ms
    buckets = {i: [] for i in CHORDABLE_INSTRUMENTS}
    for note in score.notes:
        bucket = buckets.get(note[0])
        if bucket is not None:
            bucket.append(note)
    spans = []
    for instrument, notes in buckets.items():
        clusters = []
        for _, pitch, onset, offset, _ in notes:
            if clusters and onset - clusters[-1][0] <= simultaneity_eps_ms:
                clusters[-1][1].append(pitch)
                clusters[-1][2].append(offset - onset)
            else:
                clusters.append((onset, [pitch], [offset - onset]))
        for onset, pitches, durations in clusters:
            distinct = sorted(set(pitches))
            if len(distinct) >= MIN_CHORD_NOTES and min(durations) >= min_duration:
                spans.append(ChordSpan(instrument, onset, tuple(distinct), min(durations)))
    spans.sort(key=lambda s: (s.onset_ms, s.instrument.value))
    return spans


# The producers below return (notes, tempo, bar marks): the notes in the
# order the old body handed them to the timeline, sorted only where the
# old body went through the sorting constructor.


def old_transpose(score, semitones):
    out = []
    wrapped = False
    for n in score.notes:
        inst, pitch, onset, offset, velocity = n
        if inst is Instrument.DRUMS:
            out.append(n)
            continue
        pitch += semitones
        if not 0 <= pitch < NUM_PITCHES:
            pitch += 12 if pitch < 0 else -12
            wrapped = True
        out.append(NoteEvent(inst, pitch, onset, offset, velocity))
    if wrapped:
        out.sort(key=old_note_order)
    return out, score.tempo_bpm, score.bar_marks_ms


def old_trim_to_duration(score, duration_ms):
    notes = []
    resort = False
    for note in score.notes:
        inst, pitch, onset, offset, velocity = note
        if onset >= duration_ms:
            break
        if offset > duration_ms:
            note = NoteEvent(inst, pitch, onset, duration_ms, velocity)
            resort = resort or bool(notes) and notes[-1][:4] == note[:4]
        notes.append(note)
    marks = tuple(m for m in score.bar_marks_ms if m <= duration_ms)
    if resort:
        notes.sort(key=old_note_order)
    return notes, score.tempo_bpm, marks


def old_boost_chord_velocity(score, chord_onsets, gain, simultaneity_eps_ms=8):
    onsets = sorted(set(chord_onsets))
    out = []
    for n in score.notes:
        k = bisect_left(onsets, n.onset_ms - simultaneity_eps_ms)
        if k < len(onsets) and onsets[k] <= n.onset_ms + simultaneity_eps_ms:
            out.append(NoteEvent(*n[:4], min(127, n.velocity + gain)))
        else:
            out.append(n)
    return out, score.tempo_bpm, score.bar_marks_ms


def seeded_notes(rng: random.Random) -> list[NoteEvent]:
    """Notes that tie, overlap, quantize to zero length and sit at the pitch edges."""
    notes = []
    for _ in range(rng.randint(0, 120)):
        onset = rng.choice((rng.randrange(0, 6000, 500), rng.randint(0, 6000)))
        notes.append(
            NoteEvent(
                rng.choice(INSTRUMENTS),
                rng.choice((0, 1, 2, 60, 61, 125, 126, 127, rng.randint(0, 127))),
                onset,
                onset + rng.choice((1, 3, 4, 5, 250, 500, rng.randint(1, 3000))),
                velocity=rng.choice((1, 64, 127, rng.randint(1, 127))),
            )
        )
    # Held chords on the chordable parts, a few ms apart.
    for _ in range(rng.randint(0, 6)):
        inst = rng.choice(CHORDABLE_INSTRUMENTS)
        onset = rng.randrange(0, 6000, 100)
        hold = rng.choice((400, 1000, 2000))
        for pitch in rng.sample(range(58, 70), rng.randint(2, 4)):
            start = onset + rng.randint(0, 12)
            notes.append(NoteEvent(inst, pitch, start, start + hold + rng.randint(0, 40)))
    # Repeats, some with another velocity or offset: ties on every prefix of the key.
    for note in rng.sample(notes, len(notes) // 5):
        notes.append(rng.choice((
            note,
            note._replace(velocity=rng.randint(1, 127)),
            note._replace(offset_ms=note.offset_ms + rng.randint(1, 600)),
            note._replace(offset_ms=note.offset_ms + 600, velocity=rng.randint(1, 127)),
        )))
    rng.shuffle(notes)
    return notes


def seeded_score(seed: int) -> ScoreTimeline:
    rng = random.Random(seed)
    marks = set(rng.sample(range(0, 7000), rng.randint(0, 12)))
    marks |= {m + rng.randint(1, 7) for m in list(marks)[:4]}  # neighbours that quantize together
    return ScoreTimeline(
        seeded_notes(rng),
        tempo_bpm=rng.choice((60.0, 120.0, 137.5)),
        bar_marks_ms=tuple(sorted(marks)),
    )


def result(score: ScoreTimeline) -> tuple:
    return score.notes, score.tempo_bpm, score.bar_marks_ms


SEEDS = range(200)


def test_timeline_keeps_the_old_order_and_the_given_tuples():
    for seed in SEEDS:
        notes = seeded_notes(random.Random(seed))
        score = ScoreTimeline(notes)
        assert score.notes == sorted(notes, key=old_note_order), seed
        assert sorted(map(id, score.notes)) == sorted(map(id, notes))  # the same objects
        assert score.notes is score.notes
        view = ScoreTimeline._presorted(score.columns, score.tempo_bpm, score.bar_marks_ms)
        assert view.notes == score.notes and view.notes is view.notes
        assert all(type(n) is NoteEvent and type(n.pitch) is int for n in view.notes)


def test_encode_ids_matches_the_tuple_encoder():
    merged = zero_length = 0
    for seed in SEEDS:
        score = seeded_score(seed)
        for bars in (True, False):
            got = encode_ids(score, include_bars=bars)
            assert got.dtype == np.int64
            assert np.array_equal(got, old_encode_ids(score, bars)), (seed, bars)
        quantized = [(m + 4) // 8 for m in score.bar_marks_ms]
        merged += len(quantized) - len(set(quantized))
        zero_length += sum((n.offset_ms + 4) // 8 == (n.onset_ms + 4) // 8 for n in score.notes)
    assert merged > 200 and zero_length > 3000


def test_detect_chords_matches_the_tuple_detector():
    found = 0
    for seed in SEEDS:
        score = seeded_score(seed)
        for beat_ms, eps in ((None, 8), (500.0, 8), (200.0, 0), (100.0, 12), (1.0, 40)):
            spans = detect_chords(score, beat_ms, eps)
            assert spans == old_detect_chords(score, beat_ms, eps), (seed, beat_ms, eps)
            found += len(spans)
    assert found > 800


def test_transpose_matches_the_tuple_transpose():
    wraps = 0
    for seed in SEEDS:
        score = seeded_score(seed)
        for semitones in range(-MAX_TRANSPOSE, MAX_TRANSPOSE + 1):
            expected = old_transpose(score, semitones)
            assert result(transpose(score, semitones)) == expected, (seed, semitones)
            wraps += any(
                not 0 <= n.pitch + semitones < NUM_PITCHES
                for n in score.notes
                if n.instrument is not Instrument.DRUMS
            )
    assert wraps > 700


def test_trim_matches_the_tuple_trim():
    resorts = 0
    for seed in SEEDS:
        score = seeded_score(seed)
        rng = random.Random(seed)
        # Just past a note's onset, every note struck with it is clamped to one offset.
        struck = rng.choice(score.notes).onset_ms + 1 if score.notes else 1
        for duration in (1, 500, 2000, rng.randint(1, 7000), struck, 10_000):
            expected = old_trim_to_duration(score, duration)
            assert result(trim_to_duration(score, duration)) == expected, (seed, duration)
            clamped = [
                (n.onset_ms, n.instrument, n.pitch, min(n.offset_ms, duration), n.velocity)
                for n in score.notes if n.onset_ms < duration
            ]
            resorts += [(n[2], n[0], n[1], n[3], n[4]) for n in expected[0]] != clamped
    assert resorts > 60


def test_boost_matches_the_tuple_boost():
    boosted = 0
    for seed in SEEDS:
        score = seeded_score(seed)
        rng = random.Random(seed)
        struck = rng.sample(score.notes, min(5, len(score.notes)))
        onsets = [n.onset_ms + rng.randint(-20, 20) for n in struck]
        for gain, eps in ((0, 8), (20, 8), (60, 0), (200, 30)):
            expected = old_boost_chord_velocity(score, onsets, gain, eps)
            assert result(boost_chord_velocity(score, onsets, gain, eps)) == expected
            boosted += expected[0] != score.notes
    assert boosted > 300


def test_timeline_equality_is_notes_tempo_and_marks():
    notes = seeded_notes(random.Random(7))
    score = ScoreTimeline(notes, 120.0, (0, 2000))
    assert score == ScoreTimeline(list(reversed(notes)), 120.0, [0, 2000])
    assert score != ScoreTimeline(notes, 121.0, (0, 2000))
    assert score != ScoreTimeline(notes, 120.0, (0,))
    assert score != ScoreTimeline(notes[1:], 120.0, (0, 2000))
    louder = [n._replace(velocity=min(127, n.velocity + 1)) for n in notes]
    assert score != ScoreTimeline(louder, 120.0, (0, 2000))
    assert score != score.notes
    assert ScoreTimeline() == ScoreTimeline([], 120.0, ())
    with pytest.raises(TypeError):
        hash(score)
    one = ScoreTimeline([NoteEvent(Instrument.PIANO, 60, 0, 8)])
    assert repr(one) == (
        "ScoreTimeline(notes=[NoteEvent(instrument=<Instrument.PIANO: 'piano'>, pitch=60, "
        "onset_ms=0, offset_ms=8, velocity=80)], tempo_bpm=120.0, bar_marks_ms=())"
    )


def test_columns_are_int64_rows_in_key_order():
    score = ScoreTimeline([
        NoteEvent(Instrument.STRINGS, 70, 0, 500, 90),
        NoteEvent(Instrument.BASS, 40, 0, 250, 100),
    ])
    assert score.columns.dtype == np.int64 and score.columns.shape == (5, 2)
    assert score.columns.tolist() == [
        [0, 0], [0, 4], [40, 70], [250, 500], [100, 90]
    ]
    assert score.columns[BLOCK].tolist() == [0, 4]
    assert ScoreTimeline().columns.shape == (5, 0)
