from __future__ import annotations

import math
import re

import numpy as np
import pytest

from midisync.emotion import (
    AFFECT_NORMS,
    EMOTION_CATEGORIES,
    MEANS,
    SDS,
    EmotionDistribution,
    VAPoint,
    build_mixture,
    inverse_map,
    mixture_mean,
    parse_distribution,
    parse_va_component,
    sample_va,
    scaling_coefficient,
)

UNIFORM = EmotionDistribution(np.full(6, 1 / 6))


def one_hot(category: str) -> EmotionDistribution:
    return EmotionDistribution.from_mapping({category: 1.0})


# Raw affect-norm means in category order, frozen as an independent copy so a
# typo in the package table cannot hide from the tests.
EXPECTED_MEANS = {
    "anger": (-0.51, 0.59),
    "disgust": (-0.60, 0.35),
    "fear": (-0.64, 0.60),
    "joy": (0.76, 0.48),
    "sadness": (-0.63, -0.27),
    "surprise": (0.40, 0.67),
}
EXPECTED_SDS = {
    "anger": (0.20, 0.29),
    "disgust": (0.20, 0.41),
    "fear": (0.20, 0.32),
    "joy": (0.22, 0.26),
    "sadness": (0.23, 0.34),
    "surprise": (0.30, 0.27),
}


def test_table_constants_frozen():
    for i, cat in enumerate(EMOTION_CATEGORIES):
        assert tuple(MEANS[i]) == EXPECTED_MEANS[cat]
        assert tuple(SDS[i]) == EXPECTED_SDS[cat]
    # the statistics module mirrors the same numbers
    for cat in EMOTION_CATEGORIES:
        (vm, vs), (am, as_) = AFFECT_NORMS[cat]
        assert (vm, am) == EXPECTED_MEANS[cat]
        assert (vs, as_) == EXPECTED_SDS[cat]


def test_scaling_coefficient_examples():
    # largest |mean| across the table is 0.76 (joy valence)
    assert scaling_coefficient(0.8) == pytest.approx(0.8 / 0.76, abs=1e-15)
    assert scaling_coefficient(0.76) == pytest.approx(1.0, abs=1e-15)
    assert scaling_coefficient(0.38) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        scaling_coefficient(0.0)
    with pytest.raises(ValueError):
        scaling_coefficient(1.5)


def test_one_hot_mixture_reproduces_table_rows():
    # with target equal to the max the scale is exactly 1: raw table values
    for i, cat in enumerate(EMOTION_CATEGORIES):
        mix = build_mixture(one_hot(cat), target_max=0.76)
        mean = mixture_mean(mix)
        assert (mean.valence, mean.arousal) == EXPECTED_MEANS[cat]


def test_scaled_max_component_bit_exact():
    mix = build_mixture(one_hot("joy"), target_max=0.8)
    mean = mixture_mean(mix)
    assert mean.valence == 0.8  # exact, not approx
    assert mean.arousal == pytest.approx(0.48 / 0.76 * 0.8, abs=1e-15)
    assert float(np.max(np.abs(mix.means))) == 0.8


def test_uniform_mixture_mean_hand_computed():
    # sum of valence means: -0.51 - 0.60 - 0.64 + 0.76 - 0.63 + 0.40 = -1.22
    # sum of arousal means:  0.59 + 0.35 + 0.60 + 0.48 - 0.27 + 0.67 =  2.42
    mix = build_mixture(UNIFORM, target_max=0.76)
    mean = mixture_mean(mix)
    assert mean.valence == pytest.approx(-1.22 / 6, abs=1e-12)
    assert mean.arousal == pytest.approx(2.42 / 6, abs=1e-12)


def test_mixture_mean_linearity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.dirichlet(np.ones(6))
        mix = build_mixture(EmotionDistribution(w), target_max=0.8)
        mean = mixture_mean(mix)
        expect = w @ (MEANS / 0.76 * 0.8)
        assert mean.valence == pytest.approx(expect[0], abs=1e-12)
        assert mean.arousal == pytest.approx(expect[1], abs=1e-12)


def test_distribution_validation():
    with pytest.raises(ValueError):
        EmotionDistribution(np.array([0.5, 0.5, 0.0, 0.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        EmotionDistribution(np.array([0.5, 0.6, 0.0, 0.0, 0.0, 0.0]))  # sum != 1
    with pytest.raises(ValueError):
        EmotionDistribution(np.array([1.2, -0.2, 0.0, 0.0, 0.0, 0.0]))  # negative
    with pytest.raises(ValueError):
        EmotionDistribution.from_mapping({"bliss": 1.0})
    d = EmotionDistribution.from_mapping({"joy": 0.25, "fear": 0.75})
    assert d.probs[EMOTION_CATEGORIES.index("joy")] == 0.25


def test_va_point_validation_and_unspecified():
    p = VAPoint(0.5, None)
    assert not p.fully_specified
    assert VAPoint(float("nan"), 0.0).valence is None  # NaN folds to unspecified
    with pytest.raises(ValueError):
        VAPoint(1.5, 0.0)
    with pytest.raises(ValueError):
        VAPoint(0.0, -1.01)


def test_va_point_serialization():
    for keyword in ("unspecified", "none", "nan", " None ", "NaN"):
        assert parse_va_component(keyword) is None
    assert parse_va_component("0.8") == 0.8
    with pytest.raises(ValueError):
        parse_va_component("0.5 0.5")


def test_sample_deterministic_and_clamped():
    mix = build_mixture(one_hot("joy"))
    a = sample_va(mix, seed=123)
    b = sample_va(mix, seed=123)
    assert (a.valence, a.arousal) == (b.valence, b.arousal)
    c = sample_va(mix, seed=124)
    assert (a.valence, a.arousal) != (c.valence, c.arousal)
    batch = sample_va(mix, seed=5, size=5000)
    assert batch.shape == (5000, 2)
    assert np.all(batch >= -1.0) and np.all(batch <= 1.0)
    raw = sample_va(mix, seed=5, size=5000, clamp=False)
    assert np.any(raw > 1.0)  # joy valence leaks past 1 before clamping


def test_sample_batch_prefix_consistent():
    mix = build_mixture(UNIFORM)
    one = sample_va(mix, seed=9)
    batch = sample_va(mix, seed=9, size=1)
    assert (one.valence, one.arousal) == (batch[0, 0], batch[0, 1])


def test_sample_moments_smoke():
    # tighter statistical check lives in the acceptance suite (100k draws)
    n = 20_000
    mix = build_mixture(one_hot("sadness"), target_max=0.76)
    raw = sample_va(mix, seed=31, size=n, clamp=False)
    for axis, (mean, sd) in enumerate([(-0.63, 0.23), (-0.27, 0.34)]):
        assert abs(raw[:, axis].mean() - mean) < 3 * sd / math.sqrt(n)


def test_sample_degenerate_weights():
    mix = build_mixture(one_hot("fear"), target_max=0.76)
    draws = sample_va(mix, seed=2, size=1000, clamp=False)
    # all draws come from the fear component
    assert abs(draws[:, 0].mean() + 0.64) < 0.03


def test_inverse_map_recovers_categories_all_metrics():
    for metric in ("euclidean", "mahalanobis", "likelihood"):
        for cat in EMOTION_CATEGORIES:
            mix = build_mixture(one_hot(cat), target_max=0.76)
            assert inverse_map(mixture_mean(mix), metric) == cat


def test_inverse_map_origin_brute_force():
    p = VAPoint(0.0, 0.0)
    dists = {
        cat: (EXPECTED_MEANS[cat][0]) ** 2 + (EXPECTED_MEANS[cat][1]) ** 2
        for cat in EMOTION_CATEGORIES
    }
    best = min(dists, key=dists.get)
    assert inverse_map(p, "euclidean") == best == "sadness"


def test_inverse_map_rejects_unspecified_and_bad_metric():
    with pytest.raises(ValueError):
        inverse_map(VAPoint(None, 0.0))
    with pytest.raises(ValueError):
        inverse_map(VAPoint(0.0, 0.0), "cosine")


def test_table_constants_are_read_only():
    for table in (MEANS, SDS):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    assert (MEANS.shape, SDS.shape) == ((6, 2), (6, 2))


@pytest.mark.parametrize("target_max", [0.76, 0.8])  # the bit-exact copy, and a rescale
def test_mixture_arrays_are_writable_copies(target_max):
    expected = build_mixture(one_hot("joy"), target_max=target_max)
    mutated = build_mixture(one_hot("joy"), target_max=target_max)
    mutated.means[...] = mutated.sds[...] = 0.0
    again = build_mixture(one_hot("joy"), target_max=target_max)
    assert np.array_equal(again.means, expected.means)
    assert np.array_equal(again.sds, expected.sds)


def test_scale_sds_switch():
    mix_scaled = build_mixture(one_hot("joy"), target_max=0.8)
    assert mix_scaled.sds[3, 0] == pytest.approx(0.22 / 0.76 * 0.8, abs=1e-15)


def test_distribution_file_round_trip():
    d = EmotionDistribution.from_mapping({"joy": 0.5, "fear": 0.25, "anger": 0.25})
    text = "anger: 0.25\ndisgust: 0.0\nfear: 0.25\njoy: 0.5\nsadness: 0.0\nsurprise: 0.0\n"
    assert parse_distribution(text).probs == pytest.approx(d.probs)
    as_json = '{"joy": 0.5, "fear": 0.25, "anger": 0.25}'
    assert parse_distribution(as_json).probs == pytest.approx(d.probs)
    with pytest.raises(ValueError):
        parse_distribution("joy: 0.5\njoy: 0.5\n")
    with pytest.raises(ValueError):
        parse_distribution("joy 0.5\n")
    with pytest.raises(ValueError):
        parse_distribution('{"joy": 2.0}')


@pytest.mark.parametrize(
    "text",
    [
        '{"joy": NaN}',
        '{"joy": 0.5, "fear": NaN}',
        '{"joy": Infinity}',
        "joy: nan\n",
        "joy: 0.5\nfear: nan\n",
        "sadness: inf\n",
    ],
)
def test_distribution_rejects_non_finite_probability_in_both_formats(text):
    # NaN fails every comparison, so without an explicit check it would
    # pass validation and silently turn into unconditioned generation
    category = "sadness" if "sadness" in text else "fear" if "fear" in text else "joy"
    with pytest.raises(ValueError, match=f"'{category}' must be finite"):
        parse_distribution(text)


# (line-format text, the error it raises)
LINE_FAULTS = [
    ("joy: nan\n", "line 1: probability of 'joy' must be finite, got nan"),
    ("joy: 1e400\n", "line 1: probability of 'joy' must be finite, got inf"),
    ("joy: -0.5\n", "line 1: probabilities must be non-negative"),
    ("# mix\n\njoy: 0.5\nfear = -inf\n", "line 4: probability of 'fear' must be finite, got -inf"),
    ("joy: 1.5\nfear: -0.5\n", "line 2: probabilities must be non-negative"),
    # each value is checked as its line is read, so the first bad line is named
    ("joy: 0.5\nsadness: nan\nanger: -1\n",
     "line 2: probability of 'sadness' must be finite, got nan"),
    # no one value to blame: no line
    ("joy: 0.5\n", "probabilities must sum to 1"),
    ("glee: 1.0\n", "unknown categories: ['glee']"),
]


@pytest.mark.parametrize("text, message", LINE_FAULTS, ids=[text for text, _ in LINE_FAULTS])
def test_line_format_names_the_line_of_a_rejected_value(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        parse_distribution(text)


def test_json_format_names_the_category_and_no_line():
    message = "probability of 'joy' must be finite, got nan"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_distribution('{"fear": 0.5, "joy": NaN}')


@pytest.mark.parametrize(
    "value, shown", [("null", "None"), ("[0.5]", "[0.5]"), ("{}", "{}"), ("true", "True"),
                     ("1" + "0" * 400, "1" + "0" * 400)],
)
def test_json_distribution_rejects_non_numbers_naming_the_category(value, shown):
    message = re.escape(f"probability of 'joy' must be a number, got {shown}") + "$"
    with pytest.raises(ValueError, match=message):
        parse_distribution(f'{{"joy": {value}}}')


def test_json_distribution_accepts_numeric_strings():
    d = parse_distribution('{"joy": "0.5", "fear": "0.5"}')
    assert d.probs == pytest.approx(EmotionDistribution.from_mapping({"joy": 0.5, "fear": 0.5}).probs)
