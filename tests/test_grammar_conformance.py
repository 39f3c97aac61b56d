"""Every token stream ``prepare`` writes is one the generation grammar accepts.

``prepare``'s streams are the training data, and ``DecodeState`` is the
language a model must speak at sampling time.  So each stream that
``cli._prepare_one`` returns (the original and each ``--augment`` copy,
with and without ``--drop-bars``) must fold through ``DecodeState`` with
every token accepted by ``valid``.  Chord markers are where the two can
part: spans a window apart that pick the same ON must share one CHORD,
since a second CHORD before an ON is invalid.
"""

from __future__ import annotations

import argparse
import random
import zlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from codec_oracle import smf_bytes
from helpers import chord_dense_score, prepare_golden_score
from midisync.cli import _prepare_one
from midisync.config import PipelineConfig
from midisync.midi_codec import NoteEvent, ScoreTimeline, write_midi
from midisync.tokens import DecodeState, Instrument, parse_tokens

# The shipped dropout, and none: a draw that deletes one of two stacked
# markers would hide them, so every stream is also checked with all kept.
CONFIGS = (PipelineConfig(), PipelineConfig(chord_dropout=0.0))
EPS = PipelineConfig.simultaneity_eps_ms
GUITAR, PIANO, BASS = Instrument.GUITAR, Instrument.PIANO, Instrument.BASS


def first_invalid(tokens_text: str) -> tuple[int, str] | None:
    """The line number and name of the first token ``valid`` rejects, or None."""
    state = DecodeState()
    for lineno, tok in enumerate(parse_tokens(tokens_text), start=1):
        if not state.valid([(tok.id, 1.0)]):
            return lineno, tok.name
        state.push(tok)
    return None


def assert_prepared_streams_conform(data: bytes, seed: int) -> None:
    """Each stream ``prepare`` writes for one SMF, under each config and bar setting."""
    for config in CONFIGS:
        for drop_bars in (False, True):
            args = argparse.Namespace(drop_bars=drop_bars, augment=2)
            for copy, (tokens_text, _) in enumerate(_prepare_one(data, config, seed, args)):
                where = f"dropout {config.chord_dropout}, drop_bars {drop_bars}, copy {copy}"
                assert first_invalid(tokens_text) is None, where


def test_two_chords_one_window_apart_on_one_pitch_share_a_marker():
    # Both spans pick the PIANO_ON_60 at cursor 0, so one CHORD announces it.
    notes = [NoteEvent(PIANO, p, 0, 1200) for p in (60, 64, 67)]
    notes += [NoteEvent(PIANO, p, 9, 1209) for p in (60, 76, 79)]
    data = write_midi(ScoreTimeline(notes=notes))
    args = argparse.Namespace(drop_bars=False, augment=0)
    [(tokens_text, _)] = _prepare_one(data, CONFIGS[1], 0, args)
    assert tokens_text.split()[:5] == ["START", "FEWER_INSTRUMENTS", "BAR", "CHORD", "PIANO_ON_60"]
    assert tokens_text.split().count("CHORD") == 1
    assert_prepared_streams_conform(data, 0)


def test_the_prepare_golden_inputs_conform():
    for k in range(6):
        data = smf_bytes(prepare_golden_score(k), k % 2)
        assert_prepared_streams_conform(data, 5 ^ zlib.crc32(f"song{k}.mid".encode()))


def test_chord_dense_scores_conform():
    rng = random.Random(31)
    for seed in range(40):
        assert_prepared_streams_conform(write_midi(chord_dense_score(rng)), seed)


@st.composite
def humanised_clusters(draw) -> ScoreTimeline:
    """Chord clusters as a player strikes them.

    Each note's onset is jittered across the simultaneity window, pitches
    come from a narrow pool so clusters share them, a cluster may sound on
    two chord instruments (or one and the bass) at once, and clusters
    follow each other as closely as 10 ms, so their windows overlap.
    Every note lasts at least two beats at 120 bpm, so most guitar and
    piano clusters are chords.
    """
    notes = []
    t = 0
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.sampled_from((0, 10, 10, 250, 1000)))
        parts = draw(
            st.lists(st.sampled_from((GUITAR, PIANO, BASS)), min_size=1, max_size=2, unique=True)
        )
        for instrument in parts:
            pitches = draw(st.lists(st.integers(58, 62), min_size=3, max_size=4, unique=True))
            length = draw(st.sampled_from((1000, 2500)))
            for pitch in pitches:
                onset = t + draw(st.integers(0, EPS))
                notes.append(NoteEvent(instrument, pitch, onset, onset + length))
    return ScoreTimeline(notes=notes)


@settings(max_examples=100, deadline=None)
@given(humanised_clusters(), st.integers(0, 2**32 - 1))
@example(  # guitar chords 10 ms apart sharing their lowest pitch, a piano chord under them
    ScoreTimeline(
        notes=[NoteEvent(GUITAR, p, 0, 1000) for p in (58, 62, 65)]
        + [NoteEvent(GUITAR, p, 10, 1010) for p in (58, 63, 66)]
        + [NoteEvent(PIANO, p, 0, 1000) for p in (60, 64, 67)]
    ),
    0,
)
def test_humanised_chord_clusters_conform(score, seed):
    assert_prepared_streams_conform(write_midi(score), seed)
