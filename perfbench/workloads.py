"""The four benchmark workloads: their inputs, CLI calls and output checks.

Each ``build_*`` function writes one workload's seeded inputs under
``in/`` of the current directory and returns a :class:`Plan`: the CLI
calls of one pass, in order, and a checker for the files a pass leaves
in ``out/``.  Paths are relative, so the outputs of a seed hash the same
in any checkout.

Why these four (each stresses other layers):

* ``prepare_long`` - three 10-minute songs.  The per-span rescan in
  ``chords.insert_chord_tokens`` (spans x tokens) dominates.
* ``prepare_corpus`` - sixty short songs with ``--augment 2`` plus corrupt
  files.  Per-file and per-token costs of parsing, encoding,
  transposing and text output dominate; corrupt files take the skip path.
* ``generate_clips`` - ``generate`` with the reference model on 30, 60
  and 120 s clips.  The grammar mask and the model's history rescans
  dominate and grow faster than clip length.
* ``codec_roundtrip`` - ``encode``, ``decode``, ``encode`` on 2-4 minute
  songs: the only workload on the read side of the token format.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from midisync.config import PipelineConfig
from midisync.scheduler import BoundaryList, GeneratorState, SchedulerParams, on_token
from midisync.tokens import Token

from . import inputs

IN, OUT = Path("in"), Path("out")
CONFIG = PipelineConfig()


@dataclass
class PassCheck:
    """What the checker found in one pass's outputs."""

    failed: int = 0                  # operations that failed (error_rate numerator)
    tokens: int = 0                  # tokens written, sampled or parsed back
    problems: list[str] = field(default_factory=list)  # wrong outputs
    quality: dict[str, float] = field(default_factory=dict)


@dataclass
class Plan:
    """One workload: the CLI calls of a pass and how to check them."""

    items: list[list[str]]           # argv of each CLI call, in order
    operations: int                  # operations per pass (error_rate base)
    properties: dict[str, float]     # input properties, for the report
    check: Callable[[list[int], bool], PassCheck]


def tree_sha256(directory: Path) -> str:
    """Hash of every file name and content under ``directory``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def chord_cursors(lines: list[str]) -> list[int]:
    """Cursor time in ms of each CHORD token of a token file, in order."""
    cursor, out = 0, []
    for name in lines:
        if name.startswith("TIMESHIFT_"):
            cursor += int(name[len("TIMESHIFT_"):])
        elif name == "CHORD":
            out.append(cursor)
    return out


def fold_offsets(lines: list[str], params: SchedulerParams) -> str:
    """Offsets text by folding ``scheduler.on_token`` over a token file.

    The boundaries are the cursor times of the file's own CHORD tokens,
    which is how ``prepare`` derives them.
    """
    toks = [Token.from_name(name) for name in lines]
    times = tuple(sorted(set(chord_cursors(lines))))
    state = GeneratorState.new(BoundaryList(times_ms=times))
    return "".join(f"{on_token(state, tok, params):.3f}\n" for tok in toks)


def _write_songs(songs: list[inputs.Song]) -> None:
    for song in songs:
        (IN / song.name).write_bytes(song.smf)


def _song_properties(songs, corrupt: int = 0) -> dict[str, float]:
    return {
        "files": len(songs) + corrupt,
        "corrupt_files": corrupt,
        "music_s": sum(s.seconds for s in songs),
        "notes": sum(s.notes for s in songs),
        "chord_spans": sum(s.chords for s in songs),
    }


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def _prepare_plan(
    rng: random.Random, songs: list[inputs.Song], corrupt: list[str],
    augment: int, fold_sample: int | None,
) -> Plan:
    """A single ``prepare`` call over ``in/``; checks every output file.

    ``fold_sample`` is how many valid songs get the full offsets check on
    the first pass (None: all of them).
    """
    _write_songs(songs)
    argv = ["prepare", str(IN), str(OUT), "--seed", str(rng.randrange(2**31))]
    if augment:
        argv += ["--augment", str(augment)]
    stems = [Path(s.name).stem for s in songs]
    folded = set(stems if fold_sample is None else rng.sample(stems, fold_sample))
    suffixes = [""] + [f"_aug{k + 1}" for k in range(augment)]
    params = SchedulerParams(CONFIG.sensitivity_s, CONFIG.max_offset_s)

    def check(rcs: list[int], full: bool) -> PassCheck:
        result = PassCheck()
        if rcs[0] != 0:
            result.problems.append(f"prepare exited {rcs[0]}")
        boundaries = 0
        for song, stem in zip(songs, stems):
            outputs = [(OUT / f"{stem}{s}.tokens", OUT / f"{stem}{s}.offsets") for s in suffixes]
            if not all(t.is_file() and o.is_file() for t, o in outputs):
                result.failed += 1  # a valid file was skipped
                continue
            for tok_path, off_path in outputs:
                lines = tok_path.read_text().splitlines()
                offsets = off_path.read_text()
                result.tokens += len(lines)
                boundaries += lines.count("CHORD")
                if offsets.count("\n") != len(lines):
                    result.problems.append(f"{off_path.name}: not line-aligned with tokens")
                ons = sum(1 for ln in lines if "_ON_" in ln)
                if ons != song.notes:
                    result.problems.append(f"{tok_path.name}: {ons} ON tokens, {song.notes} notes")
                if full and stem in folded and offsets != fold_offsets(lines, params):
                    result.problems.append(f"{off_path.name}: differs from the on_token fold")
        for bad in corrupt:
            if any((OUT / f"{Path(bad).stem}{s}.tokens").exists() for s in suffixes):
                result.failed += 1  # a corrupt file was accepted
        result.quality["boundaries"] = boundaries
        return result

    return Plan([argv], len(songs) + len(corrupt), _song_properties(songs, len(corrupt)),
                check)


def build_prepare_long(rng: random.Random) -> Plan:
    songs = inputs.build_songs(rng, "long", [600.0] * 3, (110.0, 120.0, 130.0))
    return _prepare_plan(rng, songs, [], augment=0, fold_sample=None)


def build_prepare_corpus(rng: random.Random) -> Plan:
    songs = inputs.build_songs(
        rng, "song", inputs.spread(30, 90, 60), (96.0, 108.0, 120.0, 132.0, 144.0)
    )
    corrupt = []
    for kind in inputs.CORRUPTIONS:
        name = f"corrupt_{kind}.mid"
        (IN / name).write_bytes(inputs.corrupt_smf(rng, rng.choice(songs).smf, kind))
        corrupt.append(name)
    return _prepare_plan(rng, songs, corrupt, augment=2, fold_sample=6)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

#: (clip seconds, emotion mix, JSON file?, --va-mode).  Valence sign,
#: arousal (which sets the reference model's token density) and file
#: format vary.  The five 60 s clips share an arousal near 0.47 but not
#: a valence sign, so the median call is the middle of five alike calls
#: and does not hinge on one clip's sampled length.
GENERATE_MIX = (
    (30.0, {"sadness": 0.8, "fear": 0.2}, False, "sample"),
    (60.0, {"joy": 0.9, "disgust": 0.1}, True, "mean"),
    (60.0, {"anger": 0.6, "disgust": 0.3, "sadness": 0.1}, False, "mean"),
    (60.0, {"surprise": 0.5, "joy": 0.3, "sadness": 0.2}, True, "mean"),
    (60.0, {"fear": 0.6, "disgust": 0.3, "sadness": 0.1}, False, "mean"),
    (60.0, {"joy": 0.6, "surprise": 0.2, "disgust": 0.2}, True, "mean"),
    (120.0, {"joy": 0.8, "sadness": 0.2}, False, "mean"),
)


def min_gap_filter(cuts: list[float], min_gap_s: float) -> list[int]:
    """Boundary times in ms that survive the greedy minimum-gap filter."""
    kept: list[float] = []
    for t in sorted(set(cuts)):
        if not kept or t - kept[-1] >= min_gap_s:
            kept.append(t)
    return sorted({int(round(t * 1000)) for t in kept})


def alignment_errors_ms(lines: list[str], consumed_ms: list[int], window_ms: int) -> list[int]:
    """|cursor of the first CHORD strictly within the window of b, minus b|.

    One value per consumed boundary ``b``; raises ``ValueError`` when no
    CHORD lies in a consumed boundary's window.
    """
    cursors = chord_cursors(lines)
    errors = []
    for b in consumed_ms:
        hit = next((c for c in cursors if abs(c - b) < window_ms), None)
        if hit is None:
            raise ValueError(f"no CHORD within {window_ms} ms of consumed boundary {b} ms")
        errors.append(abs(hit - b))
    return errors


def build_generate_clips(rng: random.Random) -> Plan:
    items, clips = [], []
    for i, (seconds, mix, as_json, mode) in enumerate(GENERATE_MIX):
        log, cuts = inputs.scene_log(rng, seconds)
        emotion = IN / f"clip{i}.{'json' if as_json else 'txt'}"
        emotion.write_text(inputs.emotion_file(rng, mix, as_json))
        (IN / f"clip{i}.log").write_text(log)
        stem = OUT / f"clip{i}"
        items.append([
            "generate", str(emotion), str(IN / f"clip{i}.log"), str(seconds),
            f"{stem}.mid", "--va-mode", mode, "--seed", str(rng.randrange(2**31)),
        ])
        clips.append((stem, min_gap_filter(cuts, CONFIG.min_gap_s)))
    window_ms = int(round(CONFIG.sensitivity_s * 1000))

    def check(rcs: list[int], full: bool) -> PassCheck:
        result = PassCheck()
        consumed = total = 0
        errors: list[int] = []
        for rc, (stem, expected) in zip(rcs, clips):
            if rc != 0:
                result.failed += 1  # nonzero exit, GenerationError included
                continue
            try:
                manifest = json.loads(Path(f"{stem}.manifest.json").read_text())
                diag = manifest["outputs"]["diagnostics"]
                lines = Path(f"{stem}.tokens").read_text().splitlines()
                hits = [int(round(b * 1000)) for b in diag["boundaries_consumed"]]
                errors += alignment_errors_ms(lines, hits, window_ms)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                result.problems.append(f"{stem}: {exc}")
                continue
            if diag["token_count"] != len(lines) or not Path(f"{stem}.mid").is_file():
                result.problems.append(f"{stem}: token file or MIDI does not match manifest")
            if diag["boundaries_total"] != len(expected):
                result.problems.append(
                    f"{stem}: {diag['boundaries_total']} boundaries, expected {len(expected)}"
                )
            result.tokens += len(lines)
            consumed += len(hits)
            total += diag["boundaries_total"]
        result.quality["boundaries"] = total
        result.quality["boundary_hit_rate"] = consumed / total if total else float("nan")
        result.quality["align_err_ms_p50"] = statistics.median(errors) if errors else float("nan")
        return result

    properties = {
        "files": 2 * len(clips),
        "music_s": sum(m[0] for m in GENERATE_MIX),
        "boundaries": sum(len(b) for _, b in clips),
    }
    return Plan(items, len(items), properties, check)


# ---------------------------------------------------------------------------
# codec round trip
# ---------------------------------------------------------------------------


def build_codec_roundtrip(rng: random.Random) -> Plan:
    # 120 bpm: decode writes the default tempo, and BAR tokens are derived
    # from the tempo, so only a 120 bpm source can come back byte-identical.
    songs = inputs.build_songs(rng, "rt", inputs.spread(120, 240, 10), (120.0,))
    _write_songs(songs)
    items = []
    for song in songs:
        stem = OUT / Path(song.name).stem
        items += [
            ["encode", str(IN / song.name), f"{stem}.a.tokens"],
            ["decode", f"{stem}.a.tokens", f"{stem}.b.mid"],
            ["encode", f"{stem}.b.mid", f"{stem}.b.tokens"],
        ]

    def check(rcs: list[int], full: bool) -> PassCheck:
        result = PassCheck()
        for i, song in enumerate(songs):
            stem = OUT / Path(song.name).stem
            if any(rcs[3 * i:3 * i + 3]):
                result.failed += 1
                continue
            first = Path(f"{stem}.a.tokens").read_text()
            if Path(f"{stem}.b.tokens").read_text() != first:
                result.failed += 1  # round-trip mismatch
                continue
            lines = first.splitlines()
            ons = sum(1 for ln in lines if "_ON_" in ln)
            if ons != song.notes:
                result.problems.append(f"{stem}: {ons} ON tokens, {song.notes} notes")
            result.tokens += 3 * len(lines)  # written, parsed back, written again
        return result

    return Plan(items, len(songs), _song_properties(songs), check)


BUILDERS = {
    "prepare_long": build_prepare_long,
    "prepare_corpus": build_prepare_corpus,
    "generate_clips": build_generate_clips,
    "codec_roundtrip": build_codec_roundtrip,
}
