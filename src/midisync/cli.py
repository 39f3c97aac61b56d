"""Command-line front end.

Subcommands:

* ``encode``   — SMF file to token text file
* ``decode``   — token text file back to an SMF file
* ``prepare``  — batch-convert a directory of SMF files into aligned
  token/offset training files (chord labeling, dropout, offsets)
* ``generate`` — boundary-conditioned generation to SMF plus manifest
* ``scenes``   — scene-detector log (or video) to a boundary list file
* ``chords``   — chord-span report for an SMF file
* ``vocab``    — dump the token vocabulary manifest

Only the commands that read a config key take ``--config``, and only
``prepare`` and ``generate``, which draw, take ``--seed``.  Runtime
errors exit nonzero with a message naming the failing stage.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import functools
import importlib
import json
import os
import sys
import zlib
from pathlib import Path

import numpy as np

from . import chords as chords_mod
from . import emotion as emotion_mod
from . import generator as generator_mod
from . import midi_codec, scenes, scheduler, tokens
from .config import PipelineConfig


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _load_config(args) -> PipelineConfig:
    """The ``--config`` file (or the defaults) with every given override flag on top.

    Override flags store into the ``dest`` of their config key, so one
    ``dataclasses.replace`` applies them all and ``PipelineConfig``
    validates flag values exactly as it validates file values.
    """
    config = _stage("config", PipelineConfig.load, args.config) if args.config else PipelineConfig()
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(PipelineConfig)}
    given = {name: value for name, value in flags.items() if value is not None}
    return _stage("config", dataclasses.replace, config, **given) if given else config


def _refuse_overwrite(inputs: dict, outputs: dict) -> None:
    """Refuse an output that is an input or another output; a None path (not given) is skipped.

    Existing files are compared by ``os.path.samefile``, paths not made yet by ``Path.resolve()``.
    """
    outs = [(f"{role} output", Path(path)) for role, path in outputs.items() if path is not None]
    ins = [(f"{role} input", Path(path)) for role, path in inputs.items() if path is not None]
    for k, (role, path) in enumerate(outs):
        for role2, path2 in (outs + ins)[k + 1:]:
            made = path.exists()
            if made == path2.exists() and (
                os.path.samefile(path, path2) if made else path.resolve() == path2.resolve()
            ):
                raise ValueError(f"the {role} {path} and the {role2} {path2} are the same file")


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    _refuse_overwrite({"MIDI": args.midi_file}, {"token": args.out_tokens})
    data = _stage("read", Path(args.midi_file).read_bytes)
    warnings: list[str] = []
    score = _stage("parse", midi_codec.parse_midi, data, warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    ids = _stage("encode", midi_codec.encode_ids, score, not args.drop_bars)
    _stage("write", Path(args.out_tokens).write_text, tokens.format_ids(ids))
    return 0


def cmd_decode(args) -> int:
    _refuse_overwrite({"token": args.tokens_file}, {"MIDI": args.out_midi})
    text = _stage("read", Path(args.tokens_file).read_text)
    ids = _stage("parse", tokens.parse_ids, text)
    result = _stage("decode", midi_codec.decode_ids, ids)
    if result.ignored_offs or result.dropped_zero_length:
        print(
            f"warning: ignored {result.ignored_offs} orphan note-off(s), "
            f"dropped {result.dropped_zero_length} zero-length note(s)",
            file=sys.stderr,
        )
    data = _stage("write", midi_codec.write_midi, result.score)
    _stage("write", Path(args.out_midi).write_bytes, data)
    return 0


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def _prepare_one(data: bytes, config: PipelineConfig, seed: int, args) -> list[tuple[str, str]]:
    """The (tokens text, offsets text) of one SMF, then of each transposed copy.

    One ``variant`` runs the pipeline: its notes stay int64 columns from
    the parser to the encoder, its stream an int64 id array with its
    cursors from the encoder to the text, and its offsets whole ms until
    their text.  It runs once per file.  A copy moves pitches, not times,
    so unless a pitch would wrap its ids are the original's with the
    shift added to each pitched note id (``midi_codec.transpose_ids``),
    and its offsets text is the original's.  A copy with a wrapped pitch
    runs ``variant`` on the transposed score, since the wrap can reorder
    notes and change chords.  A shift drawn again reuses its texts.
    """
    params = scheduler.SchedulerParams(config.sensitivity_s, config.max_offset_s)
    eps = config.simultaneity_eps_ms

    def variant(score: midi_codec.ScoreTimeline) -> tuple[np.ndarray, str]:
        ids = midi_codec.encode_ids(score, include_bars=not args.drop_bars)
        cursors = tokens.cursors_of(ids)
        spans = chords_mod.detect_chords(score, simultaneity_eps_ms=eps)
        ids, cursors = chords_mod.insert_chord_ids(ids, cursors, spans, eps)
        ids, cursors = chords_mod.dropout_chord_ids(ids, cursors, config.chord_dropout, seed)
        offsets_ms = scheduler.offsets_ms_for_ids(ids, cursors, params=params)
        return ids, scheduler.format_offsets(offsets_ms)

    score = midi_codec.parse_midi(data)
    ids, offsets_text = variant(score)
    texts = {0: (tokens.format_ids(ids), offsets_text)}  # by shift, each made once
    span = midi_codec.MAX_TRANSPOSE
    choices = [t for t in range(-span, span + 1) if t]
    shifts = np.random.default_rng(seed).choice(choices, size=args.augment).tolist()
    for shift in shifts:
        if shift not in texts:
            copy_ids, copy_offsets = midi_codec.transpose_ids(ids, shift), offsets_text
            if copy_ids is None:
                copy_ids, copy_offsets = variant(midi_codec.transpose(score, shift))
            texts[shift] = (tokens.format_ids(copy_ids), copy_offsets)
    return [texts[shift] for shift in [0, *shifts]]


def _write_outputs(job: list[tuple[Path, bytes]]) -> None:
    """Write each ``(path, data)`` pair in order: one open, write and close per file."""
    for path, data in job:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def cmd_prepare(args) -> int:
    """Prepare every SMF of a directory; see the README's ``prepare`` section.

    A file's outputs are ``STEM.tokens``/``STEM.offsets`` and, for each
    copy, ``STEM_augK``.  Only written files claim those names: a later
    file that would overwrite a claimed name (``a.MIDI`` after ``a.mid``,
    or ``a_aug1.mid`` after ``a.mid`` under ``--augment``) is skipped
    with a warning naming both files.  A one-worker thread pool writes
    each file's outputs with :func:`_write_outputs` while the next file
    is read and prepared.  The previous file's write is waited for before
    a skip warning prints or the next outputs are handed over, and on
    every way out of the loop, so what reaches the disk and stderr is
    what the sequential loop would leave.
    """
    from concurrent.futures import ThreadPoolExecutor  # imports logging; only prepare needs it

    config = _load_config(args)
    midi_dir = Path(args.midi_dir)
    out_dir = Path(args.out_dir)
    if not midi_dir.is_dir():
        raise ValueError(f"not a directory: {midi_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(p for p in midi_dir.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not files:
        raise ValueError(f"no .mid/.midi files in {midi_dir}")
    suffixes = [""] + [f"_aug{k + 1}" for k in range(args.augment)]
    claimed: dict[str, str] = {}  # output stem -> the input file written to it
    done = 0
    write = None  # the previous file's write: at most one file's outputs are in flight
    with ThreadPoolExecutor(1, thread_name_prefix="prepare-writer") as writer:
        try:
            for path in files:
                stems = [path.stem + suffix for suffix in suffixes]
                owner = next((claimed[stem] for stem in stems if stem in claimed), None)
                skip = None if owner is None else f"its outputs would overwrite those of {owner}"
                if skip is None:
                    file_seed = args.seed ^ zlib.crc32(path.name.encode())
                    # Skip a file only for its own fault: it cannot be read, or its contents
                    # are rejected (a ValueError, such as MidiParseError).  A bug propagates.
                    try:
                        outputs = _prepare_one(path.read_bytes(), config, file_seed, args)
                    except (OSError, ValueError) as exc:
                        skip = exc
                if write is not None:  # its error comes before this file's line
                    write.result()
                if skip is not None:
                    print(f"warning: prepare: skipping {path.name}: {skip}", file=sys.stderr)
                    continue
                job = []
                for stem, (tokens_text, offsets_text) in zip(stems, outputs, strict=True):
                    job += [(out_dir / f"{stem}.tokens", tokens_text.encode()),
                            (out_dir / f"{stem}.offsets", offsets_text.encode())]
                    claimed[stem] = path.name
                write = writer.submit(_write_outputs, job)
                done += 1
        finally:
            # The last write, and a failed one that a later bug must not hide: the
            # sequential loop would have stopped there.  A result already taken
            # returns or raises the same again.
            if write is not None:
                write.result()
    print(f"prepared {done}/{len(files)} file(s) into {out_dir}")
    return 0 if done else 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


#: Leading bytes of a scene source that tell text from video.
SNIFF_BYTES = 4096


def _read_scene_source(path_text: str) -> str | None:
    """The text of a boundary file or detector log, or None for a video.

    A video is known by its first ``SNIFF_BYTES``, which are not UTF-8;
    the rest of it is left unread.
    """
    with open(path_text, "rb") as f:
        head = f.read(SNIFF_BYTES)
        try:
            codecs.getincrementaldecoder("utf-8")().decode(head)
        except UnicodeDecodeError:
            return None
        return (head + f.read()).decode("utf-8")


def _sniff_scene_source(path_text: str, config: PipelineConfig) -> scheduler.BoundaryList:
    """Boundary list from a boundary file, a detector log, or a video.

    Text holding cut records or a ``duration=``/``Duration:`` field (a
    log with no cuts) is a detector log, other text a boundary list.
    """
    text = _read_scene_source(path_text)
    if text is None:
        cuts = scenes.detect_scenes(path_text, config.scene_threshold)
    elif any(key in text for key in ("pts_time", "duration=", "Duration:")):
        cuts = scenes.parse_scene_log(text)
    else:
        return scheduler.parse_boundaries(text)
    return scenes.filter_boundaries(cuts, config.min_gap_s)


def _load_external_model(ref: str):
    """Import a model as ``module:attribute`` (attribute may be a factory)."""
    module_name, sep, attr = ref.partition(":")
    if not sep:
        raise ValueError("external model must be given as 'module:attribute'")
    module = importlib.import_module(module_name)
    obj = getattr(module, attr)
    model = obj() if callable(obj) and not hasattr(obj, "next_distribution") else obj
    if not hasattr(model, "next_distribution"):
        raise ValueError(f"{ref!r} does not provide a next_distribution method")
    return model


def _conditioning_point(args, config: PipelineConfig) -> emotion_mod.VAPoint:
    if args.emotion_file.lower() == "none":
        point = emotion_mod.VAPoint(None, None)
    else:
        text = Path(args.emotion_file).read_text()
        dist = emotion_mod.parse_distribution(text)
        mixture = emotion_mod.build_mixture(dist, target_max=config.target_max)
        if args.va_mode == "mean":
            point = emotion_mod.mixture_mean(mixture)
        else:
            point = emotion_mod.sample_va(mixture, seed=args.seed)
    parse = emotion_mod.parse_va_component
    return emotion_mod.VAPoint(
        point.valence if args.valence is None else parse(args.valence),
        point.arousal if args.arousal is None else parse(args.arousal),
    )


def cmd_generate(args) -> int:
    out_midi = Path(args.out_midi)
    token_path = Path(args.out_tokens) if args.out_tokens else out_midi.with_suffix(".tokens")
    manifest_path = (
        Path(args.manifest) if args.manifest else out_midi.with_suffix(".manifest.json")
    )
    emotion = None if args.emotion_file.lower() == "none" else args.emotion_file
    inputs = {"emotion": emotion, "scene": args.scenes_source, "config": args.config}
    _refuse_overwrite(inputs, {"MIDI": out_midi, "token": token_path, "manifest": manifest_path})

    config = _load_config(args)
    point = _stage("emotion", _conditioning_point, args, config)
    boundaries = _stage("boundaries", _sniff_scene_source, args.scenes_source, config)

    def build_model():
        if args.model_path is not None and args.model != "external":
            raise ValueError(f"--model-path needs --model external, got --model {args.model}")
        if args.model == "reference":
            return generator_mod.ReferenceModel()
        if args.model == "scripted":
            return generator_mod.ScriptedBoundaryModel()
        if not args.model_path:
            raise ValueError("--model external requires --model-path module:attribute")
        return _load_external_model(args.model_path)

    model = _stage("model", build_model)
    state = _stage(
        "sampling", generator_mod.generate, model, point, boundaries, args.duration, config,
        seed=args.seed,
    )

    ids = tokens.ids_of(state.tokens)
    decoded = _stage("decode", midi_codec.decode_ids, ids)
    boosted = _stage(
        "decode",
        chords_mod.boost_chord_velocity,
        decoded.score,
        decoded.chord_onsets_ms,
        config.velocity_boost,
        config.simultaneity_eps_ms,
    )
    duration_ms = int(round(args.duration * 1000))
    trimmed = _stage("decode", midi_codec.trim_to_duration, boosted, duration_ms)
    smf = _stage("write", midi_codec.write_midi, trimmed)

    _stage("write", out_midi.write_bytes, smf)
    _stage("write", token_path.write_text, tokens.format_ids(ids))

    manifest = {
        "inputs": {
            "emotion_file": args.emotion_file,
            "scenes_source": args.scenes_source,
            "duration_s": args.duration,
            "seed": args.seed,
            "va_mode": args.va_mode,
            "valence": point.valence,
            "arousal": point.arousal,
            "model": args.model,
            "temperature": config.temperature,
            "top_k": config.top_k,
            "sensitivity_s": config.sensitivity_s,
            "max_offset_s": config.max_offset_s,
            "min_gap_s": config.min_gap_s,
            "boundaries_s": list(boundaries.times_s),
        },
        "outputs": {
            "midi_file": str(out_midi),
            "token_file": str(token_path),
            "note_count": trimmed.columns.shape[1],
            "diagnostics": {**state.diagnostics(), "seed": args.seed},
        },
    }
    _stage("write", manifest_path.write_text, json.dumps(manifest, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# scenes / chords / vocab
# ---------------------------------------------------------------------------


def cmd_scenes(args) -> int:
    inputs = {"scene": args.source, "config": args.config}
    _refuse_overwrite(inputs, {"boundary": args.out_boundaries})
    config = _load_config(args)
    text = _stage("read", _read_scene_source, args.source)
    if text is None:
        cuts = _stage("detect", scenes.detect_scenes, args.source, config.scene_threshold)
    else:
        cuts = _stage("parse", scenes.parse_scene_log, text)
    filtered = _stage("filter", scenes.filter_boundaries, cuts, config.min_gap_s)
    _stage("write", Path(args.out_boundaries).write_text, scheduler.format_boundaries(filtered))
    print(
        f"kept {len(filtered)}/{len(cuts.cut_times_s)} cut(s), "
        f"duration {cuts.video_duration_s:.3f} s"
    )
    return 0


def cmd_chords(args) -> int:
    _refuse_overwrite({"MIDI": args.midi_file, "config": args.config}, {"report": args.out_report})
    config = _load_config(args)
    data = _stage("read", Path(args.midi_file).read_bytes)
    score = _stage("parse", midi_codec.parse_midi, data)
    spans = _stage(
        "detect",
        chords_mod.detect_chords,
        score,
        args.beat_ms,
        config.simultaneity_eps_ms,
    )
    report = chords_mod.format_spans(spans)
    if args.out_report:
        _stage("write", Path(args.out_report).write_text, report)
    else:
        sys.stdout.write(report)
    return 0


def cmd_vocab(args) -> int:
    manifest = tokens.format_manifest()
    if args.out_manifest:
        _stage("write", Path(args.out_manifest).write_text, manifest)
    else:
        sys.stdout.write(manifest)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Copies per file.  There are only 2 * MAX_TRANSPOSE distinct shifts, so a
# larger count repeats them, and a huge one overflows or exhausts memory.
# A copy reuses its file's pipeline run, so N copies cost N format_ids calls
# (and their writes), plus a full run for each copy whose pitches wrap.
MAX_AUGMENT = 64


def non_negative_int(text: str) -> int:
    """A count flag's value (``--seed``, ``--augment``), checked before any file is read."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def augment_count(text: str) -> int:
    """``--augment``'s value: a count from 0 to :data:`MAX_AUGMENT`."""
    count = non_negative_int(text)
    if count > MAX_AUGMENT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_AUGMENT}, got {text}")
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing never mutates it)."""
    parser = argparse.ArgumentParser(
        prog="midisync",
        description="Boundary-synchronized symbolic music toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config = {"help": "JSON config file overriding built-in defaults"}
    seed = {"type": non_negative_int, "default": 0, "help": "random seed (default 0)"}

    p = sub.add_parser("encode", help="SMF file -> token text file")
    p.add_argument("midi_file")
    p.add_argument("out_tokens")
    p.add_argument("--drop-bars", action="store_true", help="omit BAR tokens")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="token text file -> SMF file")
    p.add_argument("tokens_file")
    p.add_argument("out_midi")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("prepare", help="batch SMF dir -> token/offset training files")
    p.add_argument("--config", **config)
    p.add_argument("--seed", **seed)
    p.add_argument("midi_dir")
    p.add_argument("out_dir")
    p.add_argument("--drop-bars", action="store_true", help="omit BAR tokens")
    p.add_argument(
        "--augment",
        type=augment_count,
        default=0,
        metavar="N",
        help=f"write N extra randomly transposed copies per file (N <= {MAX_AUGMENT})",
    )
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("generate", help="emotion + boundaries -> SMF")
    p.add_argument("--config", **config)
    p.add_argument("--seed", **seed)
    p.add_argument("emotion_file", help="emotion distribution file, or 'none'")
    p.add_argument(
        "scenes_source",
        help="boundary list file, scene-detector log, or video path",
    )
    p.add_argument("duration", type=float, help="target duration in seconds")
    p.add_argument("out_midi")
    p.add_argument("--out-tokens", help="token text output (default: alongside MIDI)")
    p.add_argument("--manifest", help="manifest JSON output (default: alongside MIDI)")
    p.add_argument(
        "--va-mode",
        choices=("mean", "sample"),
        default="mean",
        help="collapse the emotion mixture to its mean or sample from it",
    )
    p.add_argument("--valence", help="override valence; number or 'none'")
    p.add_argument("--arousal", help="override arousal; number or 'none'")
    # Override flags store into their config key's dest; _load_config merges them.
    p.add_argument("--delta-max", dest="max_offset_s", type=float, help="offset cap in seconds")
    p.add_argument(
        "--sensitivity", dest="sensitivity_s", type=float, help="boundary window in seconds"
    )
    p.add_argument(
        "--min-gap", dest="min_gap_s", type=float, help="minimum boundary gap in seconds"
    )
    p.add_argument("--temperature", dest="temperature", type=float, help="sampling temperature")
    p.add_argument("--top-k", dest="top_k", type=int, help="top-k truncation")
    p.add_argument(
        "--model",
        choices=("reference", "scripted", "external"),
        default="reference",
    )
    p.add_argument("--model-path", help="external model as module:attribute")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("scenes", help="detector log or video -> boundary list file")
    p.add_argument("--config", **config)
    p.add_argument("source", help="detector log file, or a video (a file that is not text)")
    p.add_argument("out_boundaries")
    p.add_argument(
        "--min-gap", dest="min_gap_s", type=float, help="minimum boundary gap in seconds"
    )
    p.set_defaults(fn=cmd_scenes)

    p = sub.add_parser("chords", help="SMF file -> chord span report")
    p.add_argument("--config", **config)
    p.add_argument("midi_file")
    p.add_argument("--out-report", help="write the report here instead of stdout")
    p.add_argument("--beat-ms", type=float, help="beat length override in milliseconds")
    p.set_defaults(fn=cmd_chords)

    p = sub.add_parser("vocab", help="dump the vocabulary manifest")
    p.add_argument("--out-manifest", help="write the manifest here instead of stdout")
    p.set_defaults(fn=cmd_vocab)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        print(f"error: {args.command}/{exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
