"""Pipeline-wide constants bundled into one serializable record.

Every tunable the command-line tools expose lives here, with the shipped
default values.  Module-level defaults elsewhere in the package read
these class attributes (``PipelineConfig.top_k`` and so on), so each
default is written once.  Configs round-trip through JSON; unknown keys
in a config file are rejected so that typos fail fast instead of
silently using a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class PipelineConfig:
    # Chord labeling
    chord_dropout: float = 0.2
    velocity_boost: int = 20
    simultaneity_eps_ms: int = 8
    # Boundary scheduling
    sensitivity_s: float = 1.0
    max_offset_s: float = 4.0
    # Scene ingestion
    min_gap_s: float = 4.0
    scene_threshold: float = 0.4
    # Emotion mapping
    target_max: float = 0.8
    # Generation / model constants
    temperature: float = 1.0
    top_k: int = 32

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":  # annotations are strings here (postponed evaluation)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
            elif not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        for name in ("velocity_boost", "sensitivity_s", "max_offset_s", "temperature", "top_k"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("min_gap_s", "simultaneity_eps_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.chord_dropout <= 1.0:
            raise ValueError(f"chord_dropout must be in [0, 1], got {self.chord_dropout}")
        for name in ("scene_threshold", "target_max"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must hold an object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_json(Path(path).read_text())
