from __future__ import annotations

import dataclasses
import json
import sys

import pytest

from midisync.chords import detect_chords
from midisync.cli import main
from midisync.config import PipelineConfig
from midisync.midi_codec import NoteEvent, ScoreTimeline, parse_midi, write_midi
from midisync.tokens import VOCABULARY, Instrument, parse_tokens

SCENE_LOG = (
    "[Parsed_showinfo_1 @ 0x1] n: 0 pts_time:3.2 pos: 10\n"
    "[Parsed_showinfo_1 @ 0x1] n: 1 pts_time:9.7 pos: 20\n"
    "[Parsed_showinfo_1 @ 0x1] n: 2 pts_time:11.0 pos: 30\n"
    "duration=30.0\n"
)


def demo_score() -> ScoreTimeline:
    return ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, 60, 0, 1200, velocity=90),
            NoteEvent(Instrument.PIANO, 64, 0, 1200, velocity=90),
            NoteEvent(Instrument.PIANO, 67, 0, 1200, velocity=90),
            NoteEvent(Instrument.BASS, 36, 1200, 2400, velocity=70),
            NoteEvent(Instrument.DRUMS, 42, 2400, 2496, velocity=100),
        ]
    )


@pytest.fixture
def demo_midi(tmp_path):
    path = tmp_path / "demo.mid"
    path.write_bytes(write_midi(demo_score()))
    return path


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_decode_round_trip(tmp_path, demo_midi):
    token_path = tmp_path / "demo.tokens"
    out_midi = tmp_path / "rebuilt.mid"
    assert main(["encode", str(demo_midi), str(token_path)]) == 0
    assert main(["decode", str(token_path), str(out_midi)]) == 0

    original = parse_midi(demo_midi.read_bytes())
    rebuilt = parse_midi(out_midi.read_bytes())
    key = lambda n: (n.instrument, n.pitch, n.onset_ms, n.offset_ms)
    assert [key(n) for n in rebuilt.notes] == [key(n) for n in original.notes]


def test_encode_missing_file_fails(tmp_path, capsys):
    rc = main(["encode", str(tmp_path / "absent.mid"), str(tmp_path / "x.tokens")])
    assert rc == 1
    assert "read" in capsys.readouterr().err


def test_decode_bad_token_text_fails(tmp_path, capsys):
    bad = tmp_path / "bad.tokens"
    bad.write_text("START\nNOT_A_TOKEN\n")
    rc = main(["decode", str(bad), str(tmp_path / "x.mid")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "parse" in err and "line 2" in err


def test_bad_config_file_fails(tmp_path, demo_midi, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_knob": 1}')
    rc = main(
        ["encode", str(demo_midi), str(tmp_path / "x.tokens"), "--config", str(cfg)]
    )
    assert rc == 1
    assert "no_such_knob" in capsys.readouterr().err


def test_encode_drop_bars(tmp_path, demo_midi):
    with_bars = tmp_path / "bars.tokens"
    without = tmp_path / "nobars.tokens"
    assert main(["encode", str(demo_midi), str(with_bars)]) == 0
    assert main(["encode", str(demo_midi), str(without), "--drop-bars"]) == 0
    assert "BAR" in with_bars.read_text().split()
    assert "BAR" not in without.read_text().split()


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def corpus_dir(tmp_path) -> "Path":
    midi_dir = tmp_path / "corpus"
    midi_dir.mkdir()
    (midi_dir / "one.mid").write_bytes(write_midi(demo_score()))
    other = ScoreTimeline(
        notes=[
            NoteEvent(Instrument.GUITAR, 52, 0, 1100),
            NoteEvent(Instrument.GUITAR, 55, 0, 1100),
            NoteEvent(Instrument.GUITAR, 59, 4, 1100),
            NoteEvent(Instrument.STRINGS, 72, 1100, 1800),
        ]
    )
    (midi_dir / "two.mid").write_bytes(write_midi(other))
    (midi_dir / "notes.txt").write_text("not midi\n")
    return midi_dir


def test_prepare_writes_aligned_training_files(tmp_path, capsys):
    midi_dir = corpus_dir(tmp_path)
    out_dir = tmp_path / "prepared"
    assert main(["prepare", str(midi_dir), str(out_dir), "--seed", "9"]) == 0
    assert "prepared 2/2" in capsys.readouterr().out

    for stem in ("one", "two"):
        toks = parse_tokens((out_dir / f"{stem}.tokens").read_text())
        offsets = (out_dir / f"{stem}.offsets").read_text().splitlines()
        assert len(offsets) == len(toks)
        assert all(0.0 <= float(o) <= 4.0 for o in offsets)


def test_prepare_is_deterministic(tmp_path):
    midi_dir = corpus_dir(tmp_path)
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["prepare", str(midi_dir), str(out_dir), "--seed", "9"]) == 0
        outs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    assert outs[0] == outs[1]


def test_prepare_augment_traverses_transpositions(tmp_path):
    midi_dir = corpus_dir(tmp_path)
    out_dir = tmp_path / "aug"
    assert main(["prepare", str(midi_dir), str(out_dir), "--augment", "2"]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"one.tokens", "one_aug1.tokens", "one_aug2.tokens"} <= names
    assert {"two.offsets", "two_aug1.offsets", "two_aug2.offsets"} <= names


def test_prepare_skips_corrupt_files(tmp_path, capsys):
    midi_dir = corpus_dir(tmp_path)
    (midi_dir / "broken.mid").write_bytes(b"MThd\x00\x00")
    out_dir = tmp_path / "out"
    assert main(["prepare", str(midi_dir), str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "skipping broken.mid" in captured.err
    assert "prepared 2/3" in captured.out


def test_prepare_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["prepare", str(empty), str(tmp_path / "out")]) == 1
    assert "no .mid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def run_generate(tmp_path, name: str, extra: list[str], emotion: str = "none"):
    boundaries = tmp_path / "bounds.txt"
    if not boundaries.exists():
        boundaries.write_text("5.0\n12.0\n")
    out_midi = tmp_path / f"{name}.mid"
    rc = main(
        ["generate", emotion, str(boundaries), "20.0", str(out_midi), *extra]
    )
    assert rc == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    return out_midi, manifest


def test_generate_scripted_end_to_end(tmp_path):
    out_midi, manifest = run_generate(tmp_path, "song", ["--model", "scripted"])
    score = parse_midi(out_midi.read_bytes())
    assert score.notes, "no notes written"
    assert max(n.offset_ms for n in score.notes) <= 20_000

    spans = detect_chords(score)
    for target in (5000, 12000):
        assert any(abs(s.onset_ms - target) < 1000 for s in spans)

    # every scripted note belongs to an announced chord, so all velocities
    # carry the default 80 plus the chord boost of 20
    assert {n.velocity for n in score.notes} == {100}

    diag = manifest["outputs"]["diagnostics"]
    assert diag["boundaries_consumed"] == [5.0, 12.0]
    assert diag["boundaries_expired"] == []
    assert manifest["inputs"]["boundaries_s"] == [5.0, 12.0]
    assert manifest["inputs"]["valence"] is None
    assert manifest["outputs"]["note_count"] == len(score.notes)

    tokens_text = out_midi.with_suffix(".tokens").read_text()
    toks = parse_tokens(tokens_text)
    assert all(VOCABULARY.id_of(t) < len(VOCABULARY) for t in toks)


def test_generate_reference_reproducible(tmp_path):
    _, first = run_generate(tmp_path, "a", ["--seed", "4"])
    second_midi, second = run_generate(tmp_path, "b", ["--seed", "4"])
    a = (tmp_path / "a.tokens").read_bytes()
    b = (tmp_path / "b.tokens").read_bytes()
    assert a == b
    assert first["outputs"]["diagnostics"] == second["outputs"]["diagnostics"]
    third_midi, _ = run_generate(tmp_path, "c", ["--seed", "5"])
    assert (tmp_path / "c.tokens").read_bytes() != a


def test_generate_emotion_file_mean_mode(tmp_path):
    emotion = tmp_path / "joy.json"
    emotion.write_text(json.dumps({"joy": 1.0}))
    _, manifest = run_generate(
        tmp_path, "joyful", ["--model", "scripted"], emotion=str(emotion)
    )
    assert manifest["inputs"]["valence"] == 0.8
    assert abs(manifest["inputs"]["arousal"] - 0.48 / 0.76 * 0.8) < 1e-12


def test_generate_va_overrides(tmp_path):
    emotion = tmp_path / "joy.json"
    emotion.write_text(json.dumps({"joy": 1.0}))
    _, manifest = run_generate(
        tmp_path,
        "override",
        ["--valence", "-0.5", "--arousal", "none", "--model", "scripted"],
        emotion=str(emotion),
    )
    assert manifest["inputs"]["valence"] == -0.5
    assert manifest["inputs"]["arousal"] is None


def test_generate_sample_mode_seeded(tmp_path):
    emotion = tmp_path / "mix.json"
    emotion.write_text(json.dumps({"joy": 0.5, "sadness": 0.5}))
    _, m1 = run_generate(
        tmp_path, "s1", ["--va-mode", "sample", "--seed", "3", "--model", "scripted"],
        emotion=str(emotion),
    )
    _, m2 = run_generate(
        tmp_path, "s2", ["--va-mode", "sample", "--seed", "3", "--model", "scripted"],
        emotion=str(emotion),
    )
    assert m1["inputs"]["valence"] == m2["inputs"]["valence"]
    assert -1.0 <= m1["inputs"]["valence"] <= 1.0


def test_generate_from_scene_log(tmp_path):
    log = tmp_path / "detector.log"
    log.write_text(SCENE_LOG)
    out_midi = tmp_path / "fromlog.mid"
    rc = main(["generate", "none", str(log), "15.0", str(out_midi), "--model", "scripted"])
    assert rc == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    # 11.0 is within 4 s of 9.7, so the gap filter removes it
    assert manifest["inputs"]["boundaries_s"] == [3.2, 9.7]


def test_generate_min_gap_flag(tmp_path):
    log = tmp_path / "detector.log"
    log.write_text(SCENE_LOG)
    out_midi = tmp_path / "tight.mid"
    rc = main(
        [
            "generate", "none", str(log), "15.0", str(out_midi),
            "--model", "scripted", "--min-gap", "1.0",
        ]
    )
    assert rc == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    assert manifest["inputs"]["boundaries_s"] == [3.2, 9.7, 11.0]


def test_generate_external_model(tmp_path, monkeypatch):
    module_dir = tmp_path / "plugins"
    module_dir.mkdir()
    (module_dir / "mymodel.py").write_text(
        "from midisync.generator import ScriptedBoundaryModel\n"
        "def build():\n"
        "    return ScriptedBoundaryModel(root_pitch=48)\n"
    )
    monkeypatch.syspath_prepend(str(module_dir))
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    out_midi = tmp_path / "ext.mid"
    rc = main(
        [
            "generate", "none", str(boundaries), "8.0", str(out_midi),
            "--model", "external", "--model-path", "mymodel:build",
        ]
    )
    assert rc == 0
    score = parse_midi(out_midi.read_bytes())
    assert any(n.pitch == 48 for n in score.notes)


def test_generate_external_requires_model_path(tmp_path, capsys):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    rc = main(
        ["generate", "none", str(boundaries), "8.0", str(tmp_path / "x.mid"),
         "--model", "external"]
    )
    assert rc == 1
    assert "model" in capsys.readouterr().err


def test_generate_non_finite_duration_fails(tmp_path, capsys):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    out_midi = tmp_path / "x.mid"
    rc = main(["generate", "none", str(boundaries), "nan", str(out_midi)])
    assert rc == 1
    assert "duration_s must be finite" in capsys.readouterr().err
    assert not out_midi.exists()


def test_generate_missing_boundary_source(tmp_path, capsys):
    rc = main(
        ["generate", "none", str(tmp_path / "nope.txt"), "8.0", str(tmp_path / "x.mid")]
    )
    assert rc == 1
    assert "boundaries" in capsys.readouterr().err


def test_generate_malformed_boundary_file_reports_its_line(tmp_path, monkeypatch, capsys):
    # A text file that is not a detector log is a boundary list, never a video.
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(tmp_path / "no-such-detector"))
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("1.0\n4.0x\n")
    rc = main(["generate", "none", str(boundaries), "8.0", str(tmp_path / "x.mid")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "generate/boundaries: line 2: not a number" in err
    assert "detector" not in err


def test_generate_sends_an_undecodable_file_to_the_detector(tmp_path, monkeypatch):
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(stub_detector(tmp_path)))
    video = tmp_path / "clip.mp4"
    video.write_bytes(b"\x00\x00\x00\x18ftypmp42\xff\xfe")
    out_midi = tmp_path / "v.mid"
    assert main(["generate", "none", str(video), "15.0", str(out_midi), "--model", "scripted"]) == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    assert manifest["inputs"]["boundaries_s"] == [3.0, 9.0, 20.0]


# ---------------------------------------------------------------------------
# config keys and override flags
# ---------------------------------------------------------------------------

# A stand-in for ffmpeg's scene filter: fixed cut scores, reported when
# above the threshold of the select expression, like the real detector.
STUB_DETECTOR = """\
import re, sys
threshold = float(re.search(r"gt\\(scene,([0-9.]+)\\)", " ".join(sys.argv)).group(1))
for t, score in ((3.0, 0.5), (9.0, 0.95), (20.0, 0.7)):
    if score > threshold:
        print(f"[Parsed_showinfo_1 @ 0x1] n: 0 pts_time:{t} pos: 0", file=sys.stderr)
print("duration=30.0", file=sys.stderr)
"""


def stub_detector(tmp_path):
    path = tmp_path / "stub-detector"
    path.write_text(f"#!{sys.executable}\n{STUB_DETECTOR}")
    path.chmod(0o755)
    return path


def chord_score(stagger_ms: int) -> ScoreTimeline:
    """Twelve held piano triads whose notes start ``stagger_ms`` apart."""
    return ScoreTimeline(
        notes=[
            NoteEvent(Instrument.PIANO, pitch, 1500 * k + i * stagger_ms, 1500 * k + 1200)
            for k in range(12)
            for i, pitch in enumerate((60, 64, 67))
        ]
    )


def prepare_output(out, extra):
    corpus = out / "corpus"
    corpus.mkdir(parents=True)
    (corpus / "chords.mid").write_bytes(write_midi(chord_score(0)))
    assert main(["prepare", str(corpus), str(out / "prep"), "--seed", "3", *extra]) == 0
    return (out / "prep" / "chords.tokens").read_bytes()


def chords_output(out, extra):
    out.mkdir(parents=True)
    (out / "spread.mid").write_bytes(write_midi(chord_score(12)))
    report = out / "report.tsv"
    assert main(["chords", str(out / "spread.mid"), "--out-report", str(report), *extra]) == 0
    return report.read_bytes()


def generate_output(out, extra):
    """MIDI and token bytes; the manifest is left out, since it echoes the config."""
    out.mkdir(parents=True)
    emotion = out / "mix.json"
    emotion.write_text(json.dumps({"joy": 0.6, "sadness": 0.4}))
    (out / "detector.log").write_text(SCENE_LOG)
    midi = out / "song.mid"
    argv = ["generate", str(emotion), str(out / "detector.log"), "15.0", str(midi)]
    assert main([*argv, "--seed", "1", *extra]) == 0
    return midi.read_bytes() + midi.with_suffix(".tokens").read_bytes()


def scenes_output(out, extra):
    out.mkdir(parents=True)
    bounds = out / "bounds.txt"
    assert main(["scenes", str(out / "clip.mp4"), str(bounds), "--video", *extra]) == 0
    return bounds.read_bytes()


# key -> (a value other than the default, the command output it must change)
CONFIG_CASES = {
    "chord_dropout": (1.0, prepare_output),
    "velocity_boost": (50, generate_output),
    "simultaneity_eps_ms": (40, chords_output),
    "sensitivity_s": (0.1, generate_output),
    "max_offset_s": (0.5, generate_output),
    "min_gap_s": (1.0, generate_output),
    "scene_threshold": (0.9, scenes_output),
    "target_max": (0.3, generate_output),
    "temperature": (0.3, generate_output),
    "top_k": (1, generate_output),
}


def test_config_cases_cover_every_key():
    assert set(CONFIG_CASES) == {f.name for f in dataclasses.fields(PipelineConfig)}


@pytest.mark.parametrize("key", list(CONFIG_CASES))
def test_every_config_key_changes_an_output(tmp_path, monkeypatch, key):
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(stub_detector(tmp_path)))
    value, output = CONFIG_CASES[key]
    assert value != getattr(PipelineConfig(), key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    default = output(tmp_path / "default", [])
    assert output(tmp_path / "default-again", []) == default
    assert output(tmp_path / "changed", ["--config", str(config)]) != default


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--top-k", "0", "top_k"),
        ("--temperature", "nan", "temperature"),
        ("--sensitivity", "-1", "sensitivity_s"),
        ("--delta-max", "inf", "max_offset_s"),
        ("--min-gap", "-1", "min_gap_s"),
    ],
)
def test_bad_override_flag_fails_as_a_config_error(tmp_path, capsys, flag, value, key):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    out_midi = tmp_path / "x.mid"
    rc = main(["generate", "none", str(boundaries), "8.0", str(out_midi), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert "generate/config:" in err and key in err
    assert not out_midi.exists()


def test_override_flag_wins_over_the_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"top_k": 4, "min_gap_s": 2.0}))
    _, manifest = run_generate(tmp_path, "mixed", ["--config", str(config), "--top-k", "2"])
    assert manifest["inputs"]["top_k"] == 2
    assert manifest["inputs"]["min_gap_s"] == 2.0


# ---------------------------------------------------------------------------
# scenes / chords / vocab
# ---------------------------------------------------------------------------


def test_scenes_log_to_boundaries(tmp_path, capsys):
    log = tmp_path / "detector.log"
    log.write_text(SCENE_LOG)
    out = tmp_path / "bounds.txt"
    assert main(["scenes", str(log), str(out)]) == 0
    assert out.read_text() == "3.200\n9.700\n"
    assert "kept 2/3" in capsys.readouterr().out


def test_scenes_min_gap_flag(tmp_path):
    log = tmp_path / "detector.log"
    log.write_text(SCENE_LOG)
    out = tmp_path / "bounds.txt"
    assert main(["scenes", str(log), str(out), "--min-gap", "0.5"]) == 0
    assert out.read_text() == "3.200\n9.700\n11.000\n"


def test_scenes_missing_source_fails(tmp_path, capsys):
    rc = main(["scenes", str(tmp_path / "missing.log"), str(tmp_path / "out.txt")])
    assert rc == 1
    assert "detect" in capsys.readouterr().err


def test_chords_report(tmp_path, demo_midi, capsys):
    assert main(["chords", str(demo_midi)]) == 0
    out = capsys.readouterr().out
    assert "0.000\tpiano\t1.200\t60,64,67" in out

    report_path = tmp_path / "report.tsv"
    assert main(["chords", str(demo_midi), "--out-report", str(report_path)]) == 0
    assert "piano" in report_path.read_text()


def test_chords_beat_override_suppresses_short_spans(tmp_path, demo_midi, capsys):
    # with a 1-second beat the 1.2 s chord is shorter than two beats
    assert main(["chords", str(demo_midi), "--beat-ms", "1000"]) == 0
    assert capsys.readouterr().out == ""


def test_vocab_manifest(tmp_path, capsys):
    assert main(["vocab"]) == 0
    out = capsys.readouterr().out
    assert out == VOCABULARY.manifest()
    path = tmp_path / "vocab.tsv"
    assert main(["vocab", "--out-manifest", str(path)]) == 0
    VOCABULARY.check_manifest(path.read_text())
