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

Every command is deterministic for a fixed ``--seed``.  Runtime errors
exit nonzero with a message naming the failing stage.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import functools
import importlib
import json
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
    except StageError:
        raise
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


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    _load_config(args)  # validates --config even though encode has no knobs
    data = _stage("read", Path(args.midi_file).read_bytes)
    warnings: list[str] = []
    score = _stage("parse", midi_codec.parse_midi, data, warnings)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    toks = _stage("encode", midi_codec.encode_events, score, not args.drop_bars)
    _stage("write", Path(args.out_tokens).write_text, tokens.format_tokens(toks))
    return 0


def cmd_decode(args) -> int:
    _load_config(args)
    text = _stage("read", Path(args.tokens_file).read_text)
    toks = _stage("parse", tokens.parse_tokens, text)
    result = _stage("decode", midi_codec.decode_events, toks)
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


def _prepare_one(data: bytes, config: PipelineConfig, seed: int, args) -> list[tuple[str, str, str]]:
    """The (stem suffix, tokens text, offsets text) of each variant of one SMF."""
    score = midi_codec.parse_midi(data)
    variants = [("", score)]
    if args.augment:
        rng = np.random.default_rng(seed)
        span = midi_codec.MAX_TRANSPOSE
        shifts = rng.choice([t for t in range(-span, span + 1) if t], size=args.augment)
        variants += [
            (f"_aug{k + 1}", midi_codec.transpose(score, int(s)))
            for k, s in enumerate(shifts)
        ]
    outputs = []
    for suffix, variant in variants:
        toks = midi_codec.encode_events(variant, include_bars=not args.drop_bars)
        spans = chords_mod.detect_chords(variant, simultaneity_eps_ms=config.simultaneity_eps_ms)
        toks = chords_mod.insert_chord_tokens(toks, spans, config.simultaneity_eps_ms)
        toks = chords_mod.dropout_chords(toks, config.chord_dropout, seed)
        offsets = scheduler.offsets_for_sequence(
            toks,
            params=scheduler.SchedulerParams(config.sensitivity_s, config.max_offset_s),
        )
        # ~100 distinct values in a long file: format each once, join by index
        values, index = np.unique(offsets, return_inverse=True)
        lines = ["%.3f\n" % v for v in values.tolist()]
        offsets_text = "".join(map(lines.__getitem__, index.tolist()))
        outputs.append((suffix, tokens.format_tokens(toks), offsets_text))
    return outputs


def cmd_prepare(args) -> int:
    config = _load_config(args)
    midi_dir = Path(args.midi_dir)
    out_dir = Path(args.out_dir)
    if not midi_dir.is_dir():
        print(f"error: prepare: not a directory: {midi_dir}", file=sys.stderr)
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(p for p in midi_dir.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not files:
        print(f"error: prepare: no .mid/.midi files in {midi_dir}", file=sys.stderr)
        return 1
    done = 0
    for path in files:
        file_seed = args.seed ^ zlib.crc32(path.name.encode())
        # Skip a file only for its own fault: it cannot be read, or its contents are
        # rejected (a ValueError, such as MidiParseError).  A bug propagates.
        try:
            outputs = _prepare_one(path.read_bytes(), config, file_seed, args)
        except (OSError, ValueError) as exc:
            print(f"warning: prepare: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        for suffix, tokens_text, offsets_text in outputs:
            (out_dir / f"{path.stem}{suffix}.tokens").write_text(tokens_text)
            (out_dir / f"{path.stem}{suffix}.offsets").write_text(offsets_text)
        done += 1
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
    config = _load_config(args)
    point = _stage("emotion", _conditioning_point, args, config)
    boundaries = _stage("boundaries", _sniff_scene_source, args.scenes_source, config)
    sched = scheduler.SchedulerParams(config.sensitivity_s, config.max_offset_s)

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
    sampling = generator_mod.SamplingParams(config.temperature, config.top_k, args.seed)
    result = _stage(
        "sampling",
        generator_mod.generate,
        model,
        point,
        boundaries,
        args.duration,
        sampling,
        sched,
    )

    decoded = _stage("decode", midi_codec.decode_events, result.tokens)
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

    out_midi = Path(args.out_midi)
    token_path = Path(args.out_tokens) if args.out_tokens else out_midi.with_suffix(".tokens")
    manifest_path = (
        Path(args.manifest) if args.manifest else out_midi.with_suffix(".manifest.json")
    )
    _stage("write", out_midi.write_bytes, smf)
    _stage("write", token_path.write_text, tokens.format_tokens(result.tokens))

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
            "note_count": len(trimmed.notes),
            "diagnostics": result.diagnostics(),
        },
    }
    _stage("write", manifest_path.write_text, json.dumps(manifest, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# scenes / chords / vocab
# ---------------------------------------------------------------------------


def cmd_scenes(args) -> int:
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


def non_negative_int(text: str) -> int:
    """A count flag's value (``--seed``, ``--augment``), checked before any file is read."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing never mutates it)."""
    parser = argparse.ArgumentParser(
        prog="midisync",
        description="Boundary-synchronized symbolic music toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file overriding built-in defaults")
        p.add_argument("--seed", type=non_negative_int, default=0, help="random seed (default 0)")

    p = sub.add_parser("encode", help="SMF file -> token text file")
    common(p)
    p.add_argument("midi_file")
    p.add_argument("out_tokens")
    p.add_argument("--drop-bars", action="store_true", help="omit BAR tokens")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="token text file -> SMF file")
    common(p)
    p.add_argument("tokens_file")
    p.add_argument("out_midi")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("prepare", help="batch SMF dir -> token/offset training files")
    common(p)
    p.add_argument("midi_dir")
    p.add_argument("out_dir")
    p.add_argument("--drop-bars", action="store_true", help="omit BAR tokens")
    p.add_argument(
        "--augment",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="write N extra randomly transposed copies per file",
    )
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("generate", help="emotion + boundaries -> SMF")
    common(p)
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
    common(p)
    p.add_argument("source", help="detector log file, or a video (a file that is not text)")
    p.add_argument("out_boundaries")
    p.add_argument(
        "--min-gap", dest="min_gap_s", type=float, help="minimum boundary gap in seconds"
    )
    p.set_defaults(fn=cmd_scenes)

    p = sub.add_parser("chords", help="SMF file -> chord span report")
    common(p)
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
