"""Categorical emotion distributions mapped to valence-arousal space.

Six basic emotion categories are located in valence-arousal (VA) space
by published affect-norm statistics: each category contributes one
axis-independent Gaussian (mean and standard deviation per axis), held
in one fixed table: the read-only (6, 2) constants :data:`MEANS` and
:data:`SDS`.  A categorical probability distribution then induces a
Gaussian mixture over VA space, which can be collapsed to its mean or
sampled from.

Because the raw category means do not use the full [-1, 1] range, each
mixture's copy of the table (means and sds alike) is rescaled so that
the largest absolute mean component hits a configurable target (0.8 by
default), which keeps conditioning values comfortably inside the valid
range while spreading the categories out.

The inverse direction — a VA point back to the closest category — is
provided with three selectable notions of "closest".

Text is only read here, never written: an emotion file
(:func:`parse_distribution`) and one VA coordinate from the command
line (:func:`parse_va_component`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig

#: Fixed category order used by every array in this module.
EMOTION_CATEGORIES = ("anger", "disgust", "fear", "joy", "sadness", "surprise")

UNSPECIFIED_KEYWORD = "unspecified"

#: Affect norms per category: ((valence mean, sd), (arousal mean, sd)).
AFFECT_NORMS = {
    "anger": ((-0.51, 0.20), (0.59, 0.29)),
    "disgust": ((-0.60, 0.20), (0.35, 0.41)),
    "fear": ((-0.64, 0.20), (0.60, 0.32)),
    "joy": ((0.76, 0.22), (0.48, 0.26)),
    "sadness": ((-0.63, 0.23), (-0.27, 0.34)),
    "surprise": ((0.40, 0.30), (0.67, 0.27)),
}

INVERSE_METRICS = ("euclidean", "mahalanobis", "likelihood")


#: Per-category VA means and standard deviations, in category order;
#: columns are valence, arousal.  Both are read-only.
MEANS = np.array([[AFFECT_NORMS[c][0][0], AFFECT_NORMS[c][1][0]] for c in EMOTION_CATEGORIES])
SDS = np.array([[AFFECT_NORMS[c][0][1], AFFECT_NORMS[c][1][1]] for c in EMOTION_CATEGORIES])
MEANS.flags.writeable = SDS.flags.writeable = False


@dataclass(frozen=True)
class VAPoint:
    """A valence-arousal coordinate; either axis may be unspecified (None)."""

    valence: float | None
    arousal: float | None

    def __post_init__(self) -> None:
        for name, value in (("valence", self.valence), ("arousal", self.arousal)):
            if value is None:
                continue
            if math.isnan(value):
                object.__setattr__(self, name, None)
                continue
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [-1, 1], got {value}")

    @property
    def fully_specified(self) -> bool:
        return self.valence is not None and self.arousal is not None


def parse_va_component(field: str) -> float | None:
    """One VA coordinate: 'unspecified', 'none' or 'nan' -> None, else a float."""
    lowered = field.strip().lower()
    if lowered in (UNSPECIFIED_KEYWORD, "none", "nan"):
        return None
    return float(field)


def _probability(category: str, value) -> float:
    """``value`` as a float: a number or numeric string, not a bool, within float range."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"probability of {category!r} must be a number, got {value!r}")


@dataclass(frozen=True)
class EmotionDistribution:
    """Probabilities over the six categories, in category order."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (len(EMOTION_CATEGORIES),):
            raise ValueError(f"expected {len(EMOTION_CATEGORIES)} probabilities")
        for category, p in zip(EMOTION_CATEGORIES, probs):
            if not math.isfinite(p):
                raise ValueError(f"probability of {category!r} must be finite, got {float(p)!r}")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-6:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_mapping(cls, mapping) -> "EmotionDistribution":
        unknown = set(mapping) - set(EMOTION_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown categories: {sorted(unknown)}")
        return cls(np.array([_probability(c, mapping.get(c, 0.0)) for c in EMOTION_CATEGORIES]))



@dataclass(frozen=True)
class GaussianMixtureVA:
    """A categorical distribution pushed through the (scaled) VA table."""

    weights: np.ndarray   # (6,)
    means: np.ndarray     # (6, 2), already scaled
    sds: np.ndarray       # (6, 2)


def scaling_coefficient(target_max: float = PipelineConfig.target_max) -> float:
    """Factor that maps the largest |mean| component onto ``target_max``."""
    if not 0.0 < target_max <= 1.0:
        raise ValueError(f"target_max must be in (0, 1], got {target_max}")
    return target_max / float(np.max(np.abs(MEANS)))


def build_mixture(
    dist: EmotionDistribution,
    target_max: float = PipelineConfig.target_max,
) -> GaussianMixtureVA:
    """Gaussian mixture induced by a categorical distribution.

    Means and standard deviations are rescaled so the largest absolute
    mean component equals ``target_max`` exactly; the division by the
    current maximum happens before the multiplication so that the
    extreme component is bit-exact.  The arrays are writable copies.
    """
    if scaling_coefficient(target_max) == 1.0:  # validates target_max
        # target equals the current maximum: keep the table bit-for-bit
        means, sds = MEANS.copy(), SDS.copy()
    else:
        max_abs = float(np.max(np.abs(MEANS)))
        means, sds = MEANS / max_abs * target_max, SDS / max_abs * target_max
    return GaussianMixtureVA(weights=dist.probs.copy(), means=means, sds=sds)


def mixture_mean(mixture: GaussianMixtureVA) -> VAPoint:
    """Deterministic conditioning point: the mixture's expected value."""
    mean = mixture.weights @ mixture.means
    clipped = np.clip(mean, -1.0, 1.0)
    return VAPoint(float(clipped[0]), float(clipped[1]))


def sample_va(
    mixture: GaussianMixtureVA,
    seed: int,
    size: int | None = None,
    clamp: bool = True,
) -> VAPoint | np.ndarray:
    """Draw VA points from the mixture with a seeded generator.

    With ``size=None`` returns a single :class:`VAPoint`; otherwise an
    array of shape ``(size, 2)``.  Draw order is fixed (categories, then
    all valence noise, then all arousal noise) so results are fully
    reproducible.  ``clamp=False`` exposes the raw Gaussian draws, which
    is what distribution-level checks should look at.
    """
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    cats = rng.choice(len(EMOTION_CATEGORIES), size=n, p=mixture.weights)
    valence = rng.normal(mixture.means[cats, 0], mixture.sds[cats, 0])
    arousal = rng.normal(mixture.means[cats, 1], mixture.sds[cats, 1])
    out = np.stack([valence, arousal], axis=1)
    if clamp:
        np.clip(out, -1.0, 1.0, out=out)
    if size is None:
        return VAPoint(float(out[0, 0]), float(out[0, 1]))
    return out


def inverse_map(point: VAPoint, metric: str = "euclidean") -> str:
    """Closest emotion category for a fully specified VA point.

    Metrics: plain ``euclidean`` distance to the category means,
    ``mahalanobis`` (per-axis standardized distance), or ``likelihood``
    (highest density under the axis-independent Gaussians).  Ties keep
    the earliest category in the fixed order.
    """
    if metric not in INVERSE_METRICS:
        raise ValueError(f"metric must be one of {INVERSE_METRICS}, got {metric!r}")
    if not point.fully_specified:
        raise ValueError("inverse mapping needs both valence and arousal")
    p = np.array([point.valence, point.arousal])
    if metric == "euclidean":
        score = np.sum((MEANS - p) ** 2, axis=1)
    elif metric == "mahalanobis":
        score = np.sum(((MEANS - p) / SDS) ** 2, axis=1)
    else:
        log_density = -0.5 * np.sum(
            ((p - MEANS) / SDS) ** 2 + 2 * np.log(SDS), axis=1
        )
        score = -log_density
    return EMOTION_CATEGORIES[int(np.argmin(score))]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def parse_distribution(text: str) -> EmotionDistribution:
    """Parse a distribution from JSON or ``category: probability`` lines."""
    stripped = text.strip()
    if stripped.startswith("{"):
        mapping = json.loads(stripped)
        if not isinstance(mapping, dict):
            raise ValueError("JSON emotion file must hold an object")
        return EmotionDistribution.from_mapping(mapping)
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        key, sep, value = s.partition(":")
        if not sep:
            key, sep, value = s.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'category: probability'")
        name = key.strip().lower()
        if name in mapping:
            raise ValueError(f"line {lineno}: duplicate category {name!r}")
        try:
            mapping[name] = p = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad probability {value!r}") from None
        if not math.isfinite(p):
            raise ValueError(f"line {lineno}: probability of {name!r} must be finite, got {p!r}")
        if p < 0:
            raise ValueError(f"line {lineno}: probabilities must be non-negative")
    return EmotionDistribution.from_mapping(mapping)
