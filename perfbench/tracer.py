"""In-memory span tracer that wraps the program's layers from outside.

The benchmark does not edit the program to trace it.  Instead
:meth:`Tracer.install` rebinds the module and class attributes that
callers look up at call time (``midi_codec.parse_midi`` as the CLI sees
it, ``generator.on_token`` and ``generator.grammar_mask`` as the
generation loop sees them, ``ReferenceModel.next_distribution`` as the
loop calls it) with wrappers that record one :class:`Span` per call.
:meth:`Tracer.restore` puts the originals back.

A layer that no longer exists, for example after a refactor removes a
helper, is recorded in :attr:`Tracer.absent` and reports zero work; it
never stops the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

CountFn = Callable[[tuple, dict, object], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    call_id: int        # shared by every span of one CLI call


@dataclass(frozen=True)
class Layer:
    """One traced function: its report name and where callers find it.

    ``target`` is ``module:attribute`` with a dotted attribute path, for
    example ``midisync.generator:ReferenceModel.next_distribution``.
    ``counter`` turns a call's arguments and result into named counts.
    """

    name: str
    target: str
    counter: CountFn | None = None


def _chord_count(args, kwargs, result):
    return {"chords.kept": sum(1 for t in result if t.kind.value == "CHORD")}


def _filter_counts(args, kwargs, result):
    return {"scenes.cuts": len(args[0].cut_times_s), "scenes.kept": len(result)}


#: Every layer the benchmark traces, in data-flow order.
LAYERS = (
    Layer("midi_codec.parse_midi", "midisync.midi_codec:parse_midi"),
    Layer("midi_codec.transpose", "midisync.midi_codec:transpose"),
    Layer("midi_codec.encode_events", "midisync.midi_codec:encode_events"),
    Layer("chords.detect_chords", "midisync.chords:detect_chords",
          lambda a, k, r: {"chords.spans": len(r)}),
    Layer("chords.insert_chord_tokens", "midisync.chords:insert_chord_tokens"),
    Layer("chords.dropout_chords", "midisync.chords:dropout_chords", _chord_count),
    Layer("scheduler.offsets_for_sequence", "midisync.scheduler:offsets_for_sequence",
          lambda a, k, r: {"scheduler.offsets_for_sequence.tokens": len(a[0])}),
    Layer("tokens.format_tokens", "midisync.tokens:format_tokens"),
    Layer("tokens.parse_tokens", "midisync.tokens:parse_tokens"),
    Layer("midi_codec.decode_events", "midisync.midi_codec:decode_events"),
    Layer("midi_codec.write_midi", "midisync.midi_codec:write_midi"),
    Layer("emotion.parse_distribution", "midisync.emotion:parse_distribution"),
    Layer("emotion.build_mixture", "midisync.emotion:build_mixture"),
    Layer("emotion.mixture_mean", "midisync.emotion:mixture_mean"),
    Layer("emotion.sample_va", "midisync.emotion:sample_va"),
    Layer("scenes.parse_scene_log", "midisync.scenes:parse_scene_log"),
    Layer("scenes.filter_boundaries", "midisync.scenes:filter_boundaries", _filter_counts),
    Layer("generator.generate", "midisync.generator:generate",
          lambda a, k, r: {"generator.generate.tokens": len(r.tokens)}),
    Layer("generator.next_distribution", "midisync.generator:ReferenceModel.next_distribution"),
    Layer("generator.grammar_mask", "midisync.generator:grammar_mask"),
    Layer("scheduler.on_token", "midisync.generator:on_token"),
    Layer("chords.boost_chord_velocity", "midisync.chords:boost_chord_velocity"),
    Layer("midi_codec.trim_to_duration", "midisync.midi_codec:trim_to_duration"),
)

#: The CLI commands the workloads run; each call is a root span ``cli.<command>``.
COMMANDS = ("prepare", "generate", "encode", "decode")

#: Counts the layers' counters record (besides the two behind the
#: ``scenes.filter_boundaries.kept_ratio`` ratio).
COUNTS = ("chords.spans", "chords.kept", "scheduler.offsets_for_sequence.tokens",
          "generator.generate.tokens")


def _resolve(target: str):
    """(owner, attribute) for ``module:a.b.c``, or None if any part is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans and counts while installed; keeps them in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._call_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a root span that starts a new call id."""
        self._call_id += 1
        return self._record(name, None, fn, args, kwargs)

    def _record(self, name: str, counter: CountFn | None, fn, args, kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._call_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[key] += value
        return result

    # -- installation ----------------------------------------------------
    def install(self, layers=LAYERS) -> None:
        self.absent = []
        for layer in layers:
            found = _resolve(layer.target)
            if found is None:
                self.absent.append(layer.name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))

    def _wrapper(self, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(layer.name, layer.counter, fn, args, kwargs)

        return traced

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span.end - span.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: summed self time in seconds and call count."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        totals[span.name][0] += own
        totals[span.name][1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}
