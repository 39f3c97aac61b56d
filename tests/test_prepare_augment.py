"""``prepare --augment``: a transposed copy reuses its file's pipeline run.

``midi_codec.transpose_ids`` derives a copy's ids from the original's
final stream (chord markers and dropout included), and the copy keeps
the original's offsets.  These tests hold that derivation to the full
pipeline run on ``midi_codec.transpose(score, s)``, which is what a copy
was before and what a copy whose pitches wrap still is.
"""

from __future__ import annotations

import random
import zlib

import numpy as np
import pytest

from helpers import golden_score, random_grid_score, random_offgrid_score
from midisync import chords, midi_codec, scheduler, tokens
from midisync.chords import detect_chords, dropout_chord_ids, insert_chord_ids
from midisync.cli import main
from midisync.config import PipelineConfig
from midisync.midi_codec import (
    NoteEvent,
    ScoreTimeline,
    encode_ids,
    transpose,
    transpose_ids,
    write_midi,
)
from midisync.tokens import CHORD, Instrument, cursors_of, parse_ids

CONFIG = PipelineConfig()
PARAMS = scheduler.SchedulerParams(CONFIG.sensitivity_s, CONFIG.max_offset_s)
SHIFTS = [s for s in range(-midi_codec.MAX_TRANSPOSE, midi_codec.MAX_TRANSPOSE + 1) if s]


def pipeline(score: ScoreTimeline, seed: int) -> tuple[np.ndarray, str]:
    """The ids and offsets text ``prepare`` writes for one score: every step run."""
    eps = CONFIG.simultaneity_eps_ms
    ids = encode_ids(score)
    cursors = cursors_of(ids)
    ids, cursors = insert_chord_ids(ids, cursors, detect_chords(score, simultaneity_eps_ms=eps), eps)
    ids, cursors = dropout_chord_ids(ids, cursors, CONFIG.chord_dropout, seed)
    offsets_ms = scheduler.offsets_ms_for_ids(ids, cursors, params=PARAMS)
    return ids, scheduler.format_offsets(offsets_ms)


def wraps(score: ScoreTimeline, shift: int) -> bool:
    """Whether a non-drum note leaves 0..127 when moved by ``shift``."""
    return any(
        not 0 <= note.pitch + shift <= 127
        for note in score.notes
        if note.instrument is not Instrument.DRUMS
    )


def held_triads(rng: random.Random, low: int, high: int, count: int = 12) -> ScoreTimeline:
    """Held guitar/piano triads with roots in ``low..high``, a drum under each."""
    notes, t = [], 0
    for _ in range(count):
        instrument = rng.choice((Instrument.PIANO, Instrument.GUITAR))
        root = rng.randint(low, high)
        length = rng.randint(900, 2500)
        for interval in (0, 4, 7):
            notes.append(NoteEvent(instrument, root + interval, t + rng.randint(0, 8), t + length))
        notes.append(NoteEvent(Instrument.DRUMS, rng.randint(0, 127), t, t + 100))
        t += length + rng.randint(0, 300)
    return ScoreTimeline(notes=notes, tempo_bpm=120.0)


def seeded_scores():
    yield from (golden_score(seed) for seed in range(6))
    rng = random.Random(2023)
    yield from (random_grid_score(rng) for _ in range(300))
    yield from (random_offgrid_score(rng) for _ in range(300))
    # Chords at every height, so copies near 0 and 127 carry CHORD markers.
    yield from (held_triads(rng, 0, 120) for _ in range(40))


def check_copies(score: ScoreTimeline, seed: int) -> int:
    """Check every shift of one score; the number of shifts that wrapped."""
    ids, offsets_text = pipeline(score, seed)
    wrapped = 0
    for shift in SHIFTS:
        derived = transpose_ids(ids, shift)
        assert (derived is None) == wraps(score, shift), shift
        if derived is None:
            wrapped += 1
            continue
        full_ids, full_offsets = pipeline(transpose(score, shift), seed)
        np.testing.assert_array_equal(derived, full_ids)
        assert full_offsets == offsets_text
    return wrapped


def test_derived_copies_match_the_full_pipeline_on_seeded_scores():
    cases = wrapped = 0
    for k, score in enumerate(seeded_scores()):
        wrapped += check_copies(score, seed=k)
        cases += len(SHIFTS)
    # Both outcomes occur often enough to be tested.
    assert 0.1 * cases < wrapped < 0.5 * cases


@pytest.mark.parametrize(
    "notes",
    [
        pytest.param([], id="empty"),
        pytest.param(
            [NoteEvent(Instrument.DRUMS, p, 100 * p, 100 * p + 50) for p in (0, 1, 126, 127)],
            id="drums-only",
        ),
        pytest.param(
            [
                NoteEvent(Instrument.PIANO, 0, 0, 2000),
                NoteEvent(Instrument.PIANO, 64, 0, 2000),
                NoteEvent(Instrument.PIANO, 127, 0, 2000),
                NoteEvent(Instrument.BASS, 0, 2000, 2500),
                NoteEvent(Instrument.STRINGS, 127, 2000, 2500),
                NoteEvent(Instrument.DRUMS, 127, 2500, 2600),
                NoteEvent(Instrument.DRUMS, 0, 2500, 2600),
            ],
            id="pitch-0-and-127",
        ),
        pytest.param(
            [NoteEvent(Instrument.GUITAR, p, 0, 2000) for p in (125, 126, 127)],
            id="top-chord",
        ),
    ],
)
def test_derived_copies_on_edge_scores(notes):
    score = ScoreTimeline(notes=notes)
    check_copies(score, seed=7)
    if all(n.instrument is Instrument.DRUMS for n in notes):
        ids = pipeline(score, 7)[0]
        for shift in SHIFTS:  # drums never move, so nothing wraps
            np.testing.assert_array_equal(transpose_ids(ids, shift), ids)


def test_transpose_ids_limits_the_shift_as_transpose_does():
    ids = encode_ids(ScoreTimeline(notes=[NoteEvent(Instrument.PIANO, 60, 0, 500)]))
    with pytest.raises(ValueError, match="within"):
        transpose_ids(ids, midi_codec.MAX_TRANSPOSE + 1)
    with pytest.raises(ValueError, match="within"):
        transpose(ScoreTimeline(), midi_codec.MAX_TRANSPOSE + 1)


# ---------------------------------------------------------------------------
# through the CLI
# ---------------------------------------------------------------------------


def high_and_low_triads() -> ScoreTimeline:
    """Held triads at the bottom and at the top (114, 120, 126) of the range.

    Moved up three semitones, each top triad's 126 wraps down to 117, onto
    the moved 114: two distinct pitches, no longer a chord.
    """
    notes = []
    for k in range(24):
        onset = 1500 * k
        root = 48 if k % 2 else 114
        step = 4 if k % 2 else 6
        notes += [NoteEvent(Instrument.PIANO, root + i * step, onset, onset + 1200) for i in range(3)]
    return ScoreTimeline(notes=notes, tempo_bpm=120.0)


def test_a_wrapping_copy_takes_the_full_pipeline(tmp_path, monkeypatch):
    # --seed 17 draws shifts +3 then -1 for this file name under --augment 2.
    song = high_and_low_triads()
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "high.mid").write_bytes(write_midi(song))
    transposed = []
    real_transpose = midi_codec.transpose

    def spy(score, semitones):
        transposed.append(semitones)
        return real_transpose(score, semitones)

    monkeypatch.setattr(midi_codec, "transpose", spy)
    out = tmp_path / "out"
    assert main(["prepare", str(tmp_path / "in"), str(out), "--seed", "17", "--augment", "2"]) == 0
    assert transposed == [3]  # the -1 copy wraps nothing and is derived

    parsed = midi_codec.parse_midi(write_midi(song))
    seed = 17 ^ zlib.crc32(b"high.mid")
    ids, offsets_text = pipeline(parsed, seed)
    assert parse_ids((out / "high.tokens").read_text()).tolist() == ids.tolist()
    assert (out / "high.offsets").read_text() == offsets_text
    for suffix, shift in (("_aug1", 3), ("_aug2", -1)):
        copy_ids, copy_offsets = pipeline(real_transpose(parsed, shift), seed)
        assert parse_ids((out / f"high{suffix}.tokens").read_text()).tolist() == copy_ids.tolist()
        assert (out / f"high{suffix}.offsets").read_text() == copy_offsets
    # The wrap cost the top triads their chords, so the +3 copy has its own
    # offsets, and dropout drew over its own markers with the file's seed.
    assert (out / "high_aug1.offsets").read_text() != offsets_text
    assert (out / "high_aug2.offsets").read_text() == offsets_text
    assert 0 < np.count_nonzero(ids == CHORD.id) < len(detect_chords(parsed))


def test_each_file_runs_the_pipeline_once(tmp_path, monkeypatch):
    rng = random.Random(5)
    (tmp_path / "in").mkdir()
    for k in range(3):  # roots 3..110 and a fifth at most 117: no shift wraps
        (tmp_path / "in" / f"s{k}.mid").write_bytes(write_midi(held_triads(rng, 3, 110)))
    calls = {"offsets_ms_for_ids": 0, "detect_chords": 0, "transpose": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(scheduler, "offsets_ms_for_ids")
    counted(chords, "detect_chords")
    counted(midi_codec, "transpose")
    out = tmp_path / "out"
    assert main(["prepare", str(tmp_path / "in"), str(out), "--augment", "3"]) == 0
    assert calls == {"offsets_ms_for_ids": 3, "detect_chords": 3, "transpose": 0}
    assert len(list(out.iterdir())) == 3 * 4 * 2


def test_a_shift_drawn_again_reuses_its_texts(tmp_path, monkeypatch):
    # Under --augment 8 (and the default seed 0) low.mid draws 2, 1, 3, -2,
    # -1, 2, 3, 1 and wide.mid draws -1, 3, -3, 1, -1, -3, -1, -1.  Only
    # wide.mid holds pitches 1 and 126, so only its +-3 copies wrap.
    rng = random.Random(24)
    wide = held_triads(rng, 3, 110)
    wide = ScoreTimeline(
        notes=wide.notes + [NoteEvent(Instrument.PIANO, p, 0, 500) for p in (1, 126)],
        tempo_bpm=120.0,
    )
    songs = {"low.mid": held_triads(rng, 3, 110), "wide.mid": wide}
    (tmp_path / "in").mkdir()
    for name, song in songs.items():
        (tmp_path / "in" / name).write_bytes(write_midi(song))
    formatted, transposed = [], []
    real_format, real_transpose = tokens.format_ids, midi_codec.transpose

    def format_spy(ids):
        formatted.append(len(ids))
        return real_format(ids)

    def transpose_spy(score, semitones):
        transposed.append(semitones)
        return real_transpose(score, semitones)

    monkeypatch.setattr(tokens, "format_ids", format_spy)
    monkeypatch.setattr(midi_codec, "transpose", transpose_spy)
    out = tmp_path / "out"
    assert main(["prepare", str(tmp_path / "in"), str(out), "--augment", "8"]) == 0
    assert transposed == [3, -3]  # one full run per distinct wrapping shift

    distinct = 0
    for name, song in songs.items():
        seed = zlib.crc32(name.encode())
        shifts = np.random.default_rng(seed).choice(SHIFTS, size=8).tolist()
        parsed = midi_codec.parse_midi(write_midi(song))
        ids, offsets_text = pipeline(parsed, seed)
        expected = {}
        for shift in {0, *shifts}:
            copy_ids, copy_offsets = ids, offsets_text
            if shift:
                copy_ids = transpose_ids(ids, shift)
                if copy_ids is None:
                    copy_ids, copy_offsets = pipeline(real_transpose(parsed, shift), seed)
            expected[shift] = (real_format(copy_ids), copy_offsets)
        stems = [name[:-4]] + [f"{name[:-4]}_aug{k}" for k in range(1, 9)]
        for stem, shift in zip(stems, [0, *shifts], strict=True):
            assert (out / f"{stem}.tokens").read_text() == expected[shift][0]
            assert (out / f"{stem}.offsets").read_text() == expected[shift][1]
        texts = {(out / f"{stem}.tokens").read_text() for stem in stems}
        assert len(texts) == len(expected) < 9
        distinct += len(texts)
    assert len(formatted) == distinct == 6 + 5  # not 2 * 9
