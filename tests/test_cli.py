from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from midisync import midi_codec
from midisync.chords import detect_chords
from midisync.cli import SNIFF_BYTES, _sniff_scene_source, main
from midisync.config import PipelineConfig
from midisync.midi_codec import NoteEvent, ScoreTimeline, parse_midi, write_midi
from midisync.tokens import VOCABULARY, Instrument, check_manifest, format_manifest, parse_tokens

SCENE_LOG = (
    "[Parsed_showinfo_1 @ 0x1] n: 0 pts_time:3.2 pos: 10\n"
    "[Parsed_showinfo_1 @ 0x1] n: 1 pts_time:9.7 pos: 20\n"
    "[Parsed_showinfo_1 @ 0x1] n: 2 pts_time:11.0 pos: 30\n"
    "duration=30.0\n"
)
# The head of an MP4 file: not UTF-8, so a scene source starting so is a video.
VIDEO_HEAD = b"\x00\x00\x00\x18ftypmp42\xff\xfe"


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


def test_prepare_skips_an_unreadable_file(tmp_path, capsys):
    midi_dir = corpus_dir(tmp_path)
    (midi_dir / "folder.mid").mkdir()  # reading it raises IsADirectoryError
    assert main(["prepare", str(midi_dir), str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "skipping folder.mid" in captured.err
    assert "prepared 2/3" in captured.out


def test_prepare_lets_a_bug_propagate(tmp_path, monkeypatch):
    def broken(data, warnings=None):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(midi_codec, "parse_midi", broken)
    with pytest.raises(IndexError, match="out of bounds"):
        main(["prepare", str(corpus_dir(tmp_path)), str(tmp_path / "out")])


def test_prepare_output_failure_is_not_a_skip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "one.tokens").mkdir(parents=True)  # writing it raises IsADirectoryError
    assert main(["prepare", str(corpus_dir(tmp_path)), str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "error: prepare:" in err and "one.tokens" in err
    assert "skipping" not in err


def test_prepare_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["prepare", str(empty), str(tmp_path / "out")]) == 1
    assert "no .mid" in capsys.readouterr().err


def prepare_golden_score(seed: int) -> ScoreTimeline:
    """Held triads (chord spans), then loose notes off the 8 ms grid.

    Triad notes start up to 8 ms apart and some hold for two beats, and
    loose notes may overlap a unison, so the files pin the event order,
    quantization, chord insertion and dropout, and the offsets text.
    """
    rng = random.Random(seed)
    notes = []
    t = 0
    for _ in range(rng.randint(6, 14)):
        instrument = rng.choice((Instrument.PIANO, Instrument.GUITAR))
        root = rng.randint(40, 76)
        length = rng.randint(600, 3000)
        for interval in (0, 4, 7):
            notes.append(NoteEvent(instrument, root + interval, t + rng.randint(0, 8), t + length))
        t += length + rng.randint(0, 400)
    for _ in range(rng.randint(10, 40)):
        onset = rng.randint(0, t)
        notes.append(
            NoteEvent(
                rng.choice(list(Instrument)),
                rng.randint(0, 127),
                onset,
                onset + rng.randint(1, 2000),
                velocity=rng.randint(1, 127),
            )
        )
    return ScoreTimeline(notes=notes, tempo_bpm=rng.choice((96.0, 110.0, 120.0, 137.0)))


# sha256 of every file `prepare --seed 5` writes for the six songs above.
PREPARE_DIGESTS = {
    "--augment 2": {
        "song0.offsets": "298a500849eb8b3313f947e27f69c09a89200b6b8d42cee8cf04d267434f6d0e",
        "song0.tokens": "182e0f206ded8d415832a9357d2b8721c83e25440e4a8becea3875767aaaa9e1",
        "song0_aug1.offsets": "298a500849eb8b3313f947e27f69c09a89200b6b8d42cee8cf04d267434f6d0e",
        "song0_aug1.tokens": "ab52cd943369fd8a52066c1d9a846616d35f168b4ad9d868737640a0d330141b",
        "song0_aug2.offsets": "298a500849eb8b3313f947e27f69c09a89200b6b8d42cee8cf04d267434f6d0e",
        "song0_aug2.tokens": "8366b183ed9477b31cf1ad8ef12fc8800410a88badfc58b435f8bbd640c85cdc",
        "song1.offsets": "0c922382bd8d0b4580f931d2ed750df48b48ef6471688c39c27e57c78858a46d",
        "song1.tokens": "fc0a8d35572703dbd8c8347734d1654eedd7b89c64b5377812e77d4c91b78db6",
        "song1_aug1.offsets": "0c922382bd8d0b4580f931d2ed750df48b48ef6471688c39c27e57c78858a46d",
        "song1_aug1.tokens": "76f27a593740234a565179a1a0d5a86dda6df4bf34c275a596afcbbe92099858",
        "song1_aug2.offsets": "0c922382bd8d0b4580f931d2ed750df48b48ef6471688c39c27e57c78858a46d",
        "song1_aug2.tokens": "fd7e109897e4445f53b9baaa66c746d6e773e37d3475bc9fae93b1473bd1621b",
        "song2.offsets": "8fa5973a5ddf19ef4c2813d2ec289122176c1a3b017a8bff8c6681ab39d6db3e",
        "song2.tokens": "e232fc9f89f23dd21e52b22fbd44032a9701d7dcdfe9214cd262c0b02cbf281a",
        "song2_aug1.offsets": "8fa5973a5ddf19ef4c2813d2ec289122176c1a3b017a8bff8c6681ab39d6db3e",
        "song2_aug1.tokens": "db5e7470c3e86d5cfa1c952539725571ad97c90095bcca091ff3ba82f102b0c3",
        "song2_aug2.offsets": "8fa5973a5ddf19ef4c2813d2ec289122176c1a3b017a8bff8c6681ab39d6db3e",
        "song2_aug2.tokens": "db5e7470c3e86d5cfa1c952539725571ad97c90095bcca091ff3ba82f102b0c3",
        "song3.offsets": "fd8d941bd0e57f9c8cbf21bfcdd7c98555f23c5d1c6d38dc46ea7f96db2674b7",
        "song3.tokens": "f5313ad9206d5a32df45aadcef05fc699d2f1eff11ca24eacbe3b32d1ddc5d85",
        "song3_aug1.offsets": "fd8d941bd0e57f9c8cbf21bfcdd7c98555f23c5d1c6d38dc46ea7f96db2674b7",
        "song3_aug1.tokens": "b9f3721faaa2a95535a06c92658925b48fed0bcc319d99f93f19067f87a74e01",
        "song3_aug2.offsets": "fd8d941bd0e57f9c8cbf21bfcdd7c98555f23c5d1c6d38dc46ea7f96db2674b7",
        "song3_aug2.tokens": "de2d4c75b8b02871069a2139699efa07211bf5de43f149206f908685b7cffd1d",
        "song4.offsets": "87d52d13b647b1010c151eb1f52db09ac37193201e4e0ebbd7ccfbdc990e967e",
        "song4.tokens": "84eb76d654f1c9b167c42aa9b3ed61b74b8cf3bf7d6dfcecd33146625e0a3c58",
        "song4_aug1.offsets": "87d52d13b647b1010c151eb1f52db09ac37193201e4e0ebbd7ccfbdc990e967e",
        "song4_aug1.tokens": "91a42a7d7d95ba96a5c90395ca56fe4e0147b8aae69c1f82298ee63daeae235a",
        "song4_aug2.offsets": "87d52d13b647b1010c151eb1f52db09ac37193201e4e0ebbd7ccfbdc990e967e",
        "song4_aug2.tokens": "1996fb8367e5becfac2c819bfbfc1545aca842c0e9e461e843497398299abaff",
        "song5.offsets": "b31aa6cacd9a3dd20d727e57180513b4aacef3d6e62d3af416a7e7e610a6fcd4",
        "song5.tokens": "1d229d16291d68b764a525c12c591e573674f8eae112c61e6f52886a0fde25b9",
        "song5_aug1.offsets": "b31aa6cacd9a3dd20d727e57180513b4aacef3d6e62d3af416a7e7e610a6fcd4",
        "song5_aug1.tokens": "0e89bc74bd33375ee5c3463c18525cd0f58e62eb494e89fa1ebaac64f6acd57f",
        "song5_aug2.offsets": "b31aa6cacd9a3dd20d727e57180513b4aacef3d6e62d3af416a7e7e610a6fcd4",
        "song5_aug2.tokens": "e58016de566133e74459cc85467b2d0db53d9f28793258c25c32fa3cda9a37e4",
    },
    "--drop-bars": {
        "song0.offsets": "bb154a319ce2c492e4f918bfc905b2b9f855e0c3be7c4238f69300cabc5b4980",
        "song0.tokens": "9b3bb879c8e1f979feecfba8e50e8ee460e46bd00ab4b85ad8b4273d28693025",
        "song1.offsets": "02728abd49f00f4e9484511b8042c591a3e56d218a6237d5d95191dfe6336fbf",
        "song1.tokens": "72162e2aa5510352b72742db88ae4b00e1d1c3f69a1fe4c84d6814d8f8d2da2c",
        "song2.offsets": "d5a136c9578e27c164a0079b26ac272d755d20c40c056f954e39ab3e118fbebe",
        "song2.tokens": "41b4c9a481fb1382865f32415da746127dd43356c5f3082d32709a3a7d83b9b4",
        "song3.offsets": "2ef49873127b0585a165f02597f0abb01bf389a64ec72ffde1faaa1fc3f217fe",
        "song3.tokens": "837a13e89fc6a116014963be760676b4c52abe907849f5b074f4a1a4eacf07f6",
        "song4.offsets": "03d5797c23f88d716e4ab77fb6dfd6d004522abfb4f3d499253753cefd918784",
        "song4.tokens": "dbb41f54830fcd47255cd8bedfc5ce5f12e785f49bb5eb8b025986d489e7fce1",
        "song5.offsets": "2368702f702f6db0a8d4e99464f8fe23acccdb485059762c442f2a15e5e74daa",
        "song5.tokens": "2dd00c49b9d28b9a763d45a76c3714a3bc6894b58a7ff3e6c7a8a858a207ad77",
    },
}


@pytest.mark.parametrize("flags", list(PREPARE_DIGESTS))
def test_prepare_golden_files(tmp_path, flags):
    midi_dir = tmp_path / "corpus"
    midi_dir.mkdir()
    for seed in range(6):
        (midi_dir / f"song{seed}.mid").write_bytes(
            write_midi(prepare_golden_score(seed), smf_type=seed % 2)
        )
    out_dir = tmp_path / "out"
    assert main(["prepare", str(midi_dir), str(out_dir), "--seed", "5", *flags.split()]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out_dir.iterdir()}
    assert digests == PREPARE_DIGESTS[flags]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_prepare_goldens_hold_under_any_hash_seed(hash_seed):
    """Rerun the ``prepare`` goldens with string hashing seeded otherwise.

    No output may depend on the iteration order of a set or dict keyed by
    strings or instruments, and ``PYTHONHASHSEED`` changes that order.
    """
    proc = subprocess.run(
        [
            sys.executable,
            *(f"-W{option}" for option in sys.warnoptions),
            "-m", "pytest", "-q", "-p", "no:cacheprovider",
            f"{__file__}::test_prepare_golden_files",
        ],
        env=dict(os.environ, PYTHONHASHSEED=hash_seed),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{len(PREPARE_DIGESTS)} passed" in proc.stdout


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
    assert all(t.id < len(VOCABULARY) for t in toks)


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


@pytest.mark.parametrize("model", ["reference", "scripted"])
def test_generate_model_path_requires_external_model(tmp_path, capsys, model):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("1.0\n")
    out_midi = tmp_path / "o.mid"
    rc = main(
        ["generate", "none", str(boundaries), "3", str(out_midi),
         "--model", model, "--model-path", "nosuch:build"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "model" in err and "--model-path" in err
    assert not out_midi.exists()


def test_generate_non_finite_duration_fails(tmp_path, capsys):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    out_midi = tmp_path / "x.mid"
    rc = main(["generate", "none", str(boundaries), "nan", str(out_midi)])
    assert rc == 1
    assert "duration_s must be finite" in capsys.readouterr().err
    assert not out_midi.exists()


def test_generate_temperature_underflow_fails_with_the_sampling_state(tmp_path, capsys):
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("1.0\n")
    out_midi = tmp_path / "x.mid"
    rc = main(
        ["generate", "none", str(boundaries), "2", str(out_midi),
         "--temperature", "0.0001", "--top-k", "2000"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generate/sampling: temperature 0.0001 underflows")
    assert "(step 1)" in err
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


@pytest.mark.parametrize("log_text", ["duration=30.0\n", "  Duration: 00:00:30.00, start: 0.0\n"])
def test_generate_reads_a_log_with_no_cuts_as_a_detector_log(tmp_path, capsys, log_text):
    log = tmp_path / "zero_cut.log"
    log.write_text(log_text)
    assert main(["scenes", str(log), str(tmp_path / "bounds.txt")]) == 0
    assert "kept 0/0" in capsys.readouterr().out
    out_midi = tmp_path / "x.mid"
    assert main(["generate", "none", str(log), "5", str(out_midi)]) == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    assert manifest["inputs"]["boundaries_s"] == []


def test_generate_sends_an_undecodable_file_to_the_detector(tmp_path, monkeypatch):
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(stub_detector(tmp_path)))
    video = tmp_path / "clip.mp4"
    video.write_bytes(VIDEO_HEAD)
    out_midi = tmp_path / "v.mid"
    assert main(["generate", "none", str(video), "15.0", str(out_midi), "--model", "scripted"]) == 0
    manifest = json.loads(out_midi.with_suffix(".manifest.json").read_text())
    assert manifest["inputs"]["boundaries_s"] == [3.0, 9.0, 20.0]


def test_a_video_is_sent_to_the_detector_after_a_bounded_read(tmp_path, monkeypatch):
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(stub_detector(tmp_path)))
    video = tmp_path / "big.mp4"
    with video.open("wb") as f:
        f.write(VIDEO_HEAD)
        f.truncate(64 << 20)  # sparse: 64 MB on paper, no disk
    tracemalloc.start()
    try:
        boundaries = _sniff_scene_source(str(video), PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert boundaries.times_s == (3.0, 9.0, 20.0)
    assert peak < 4 << 20


def test_a_character_split_by_the_sniff_window_is_still_text(tmp_path, capsys):
    log = tmp_path / "detector.log"
    pad = "#" * (SNIFF_BYTES - 1)
    log.write_text(pad + "\u00e9\n" + SCENE_LOG, encoding="utf-8")
    assert log.read_bytes()[SNIFF_BYTES - 1 : SNIFF_BYTES + 1] == "\u00e9".encode()
    assert main(["scenes", str(log), str(tmp_path / "bounds.txt")]) == 0
    assert "kept 2/3" in capsys.readouterr().out


def test_scenes_missing_source_never_starts_the_detector(tmp_path, monkeypatch, capsys):
    marker = tmp_path / "detector-ran"
    detector = tmp_path / "marking-detector"
    detector.write_text(f"#!{sys.executable}\nopen({str(marker)!r}, 'w').close()\n")
    detector.chmod(0o755)
    monkeypatch.setenv("MIDISYNC_SCENE_BIN", str(detector))
    missing = tmp_path / "typo.log"
    assert main(["scenes", str(missing), str(tmp_path / "out.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scenes/read: ") and str(missing) in err
    assert not marker.exists()


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
    (out / "clip.mp4").write_bytes(VIDEO_HEAD)
    bounds = out / "bounds.txt"
    assert main(["scenes", str(out / "clip.mp4"), str(bounds), *extra]) == 0
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
        ("--delta-max", "1e308", "max_offset_s"),
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


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"sensitivity_s": 1e308}', "sensitivity_s"),
        ('{"max_offset_s": 1e308}', "max_offset_s"),
        ('{"sensitivity_s": 1000000000000000000000000000000}', "sensitivity_s"),
    ],
)
def test_huge_scheduler_window_in_a_config_file_fails_before_any_file_is_read(
    tmp_path, capsys, text, key
):
    config = tmp_path / "config.json"
    config.write_text(text)
    boundaries = tmp_path / "b.txt"
    boundaries.write_text("4.0\n")
    out_midi = tmp_path / "x.mid"
    rc = main(["generate", "none", str(boundaries), "8.0", str(out_midi), "--config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: generate/config: {key} must be in (0, 3600] s")
    assert not out_midi.exists()

    out_dir = tmp_path / "out"
    assert main(["prepare", str(corpus_dir(tmp_path)), str(out_dir), "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: prepare/config: {key} must be in (0, 3600] s")
    assert "skipping" not in captured.err and not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "{corpus}", "{tmp}/out", "--augment", "3", "--seed", "-1"],
        ["prepare", "{corpus}", "{tmp}/out", "--augment", "-1"],
        ["generate", "none", "{corpus}/one.mid", "8.0", "{tmp}/x.mid", "--seed", "-3"],
    ],
)
def test_negative_count_flag_is_rejected_before_any_file_is_read(tmp_path, capsys, argv):
    corpus = corpus_dir(tmp_path)
    argv = [a.format(corpus=corpus, tmp=tmp_path) for a in argv]
    flag = argv[-2]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a non-negative integer, got {argv[-1]}" in err
    assert "skipping" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.mid").exists()


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
    assert str(tmp_path / "missing.log") in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5"])
def test_chords_rejects_a_beat_length_that_is_not_finite_and_positive(demo_midi, capsys, value):
    assert main(["chords", str(demo_midi), f"--beat-ms={value}"]) == 1
    captured = capsys.readouterr()
    assert "error: chords/detect: beat_ms must be a finite positive number" in captured.err
    assert captured.out == ""


def test_vocab_manifest(tmp_path, capsys):
    assert main(["vocab"]) == 0
    out = capsys.readouterr().out
    assert out == format_manifest()
    path = tmp_path / "vocab.tsv"
    assert main(["vocab", "--out-manifest", str(path)]) == 0
    check_manifest(path.read_text())
