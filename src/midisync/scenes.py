"""Scene-cut ingestion: external detector logs to boundary lists.

Scene cuts come from an external video tool (FFmpeg's scene-change
filter by default).  This module parses the detector's log output,
extracts cut timestamps and the clip duration, and thins the cuts so
that consecutive boundaries are at least a minimum gap apart — rapid
cutting would otherwise demand musically impossible chord rates.
"""

from __future__ import annotations

import os
import re
import subprocess
from dataclasses import dataclass

from .config import PipelineConfig
from .scheduler import BoundaryList

#: Environment variable naming the scene-detection executable.
SCENE_BINARY_ENV = "MIDISYNC_SCENE_BIN"
DEFAULT_SCENE_BINARY = "ffmpeg"

_CUT_RE = re.compile(r"pts_time[:=]\s*([0-9]+(?:\.[0-9]+)?)")
_DURATION_FIELD_RE = re.compile(r"\bduration=([0-9]+(?:\.[0-9]+)?)")
_DURATION_CLOCK_RE = re.compile(
    r"\bDuration:\s*(\d+):(\d{2}):(\d{2})(?:\.(\d+))?", re.IGNORECASE
)


class SceneLogError(ValueError):
    """The detector output could not be interpreted."""


@dataclass(frozen=True)
class SceneCuts:
    """Raw detector result: sorted unique cut times and the clip length."""

    cut_times_s: tuple[float, ...]
    video_duration_s: float

    def __post_init__(self) -> None:
        if self.video_duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.video_duration_s}")
        cuts = tuple(sorted(set(self.cut_times_s)))
        if cuts and (cuts[0] < 0 or cuts[-1] >= self.video_duration_s):
            raise ValueError("cuts must lie in [0, duration)")
        object.__setattr__(self, "cut_times_s", cuts)


def parse_scene_log(text: str) -> SceneCuts:
    """Extract cut timestamps and duration from detector log output.

    Recognizes ``pts_time:<seconds>`` (and ``pts_time=``) cut records,
    ``duration=<seconds>`` fields, and ``Duration: HH:MM:SS.cc`` header
    lines.  Duplicate cuts collapse; a missing or unparsable duration is
    an error because downstream filtering needs the clip length.
    """
    cuts = [float(m.group(1)) for m in _CUT_RE.finditer(text)]

    duration = None
    field = _DURATION_FIELD_RE.search(text)
    if field:
        duration = float(field.group(1))
    else:
        clock = _DURATION_CLOCK_RE.search(text)
        if clock:
            hours, minutes, seconds = (int(clock.group(i)) for i in range(1, 4))
            frac = float(f"0.{clock.group(4)}") if clock.group(4) else 0.0
            duration = hours * 3600 + minutes * 60 + seconds + frac
    if duration is None:
        raise SceneLogError("no clip duration found in detector output")
    if cuts and max(cuts) >= duration:
        raise SceneLogError(
            f"cut at {max(cuts)} s is not inside the reported duration {duration} s"
        )
    return SceneCuts(cut_times_s=tuple(cuts), video_duration_s=duration)


def filter_boundaries(cuts: SceneCuts, min_gap_s: float = PipelineConfig.min_gap_s) -> BoundaryList:
    """Thin cuts left to right so consecutive kept cuts are >= the gap apart.

    Greedy: the first cut is kept; every later cut is kept only when its
    distance to the most recently *kept* cut is at least ``min_gap_s``
    (an exact gap is kept).
    """
    if min_gap_s < 0:
        raise ValueError(f"min_gap_s must be >= 0, got {min_gap_s}")
    kept: list[float] = []
    for t in cuts.cut_times_s:
        if not kept or t - kept[-1] >= min_gap_s:
            kept.append(t)
    return BoundaryList.from_times(kept)


def scene_binary() -> str:
    return os.environ.get(SCENE_BINARY_ENV, DEFAULT_SCENE_BINARY)


def detect_scenes(
    video_path: str,
    threshold: float = PipelineConfig.scene_threshold,
    timeout_s: float = 600.0,
) -> SceneCuts:
    """Run the external detector on a video and parse its output.

    The executable comes from ``MIDISYNC_SCENE_BIN`` (default
    ``ffmpeg``) and is invoked with a scene-change filter at the given
    threshold; all stderr/stdout text is fed to :func:`parse_scene_log`.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    command = [
        scene_binary(),
        "-hide_banner",
        "-i",
        video_path,
        "-vf",
        f"select='gt(scene,{threshold})',showinfo",
        "-f",
        "null",
        "-",
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=timeout_s, check=False
        )
    except FileNotFoundError:
        raise SceneLogError(
            f"scene detector {scene_binary()!r} not found; set ${SCENE_BINARY_ENV}"
        ) from None
    except subprocess.TimeoutExpired:
        raise SceneLogError(f"scene detector timed out after {timeout_s} s") from None
    return parse_scene_log(proc.stderr + "\n" + proc.stdout)
