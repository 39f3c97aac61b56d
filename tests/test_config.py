from __future__ import annotations

import dataclasses
import json
import math

import pytest

from midisync.config import MAX_WINDOW_S, PipelineConfig


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.chord_dropout == 0.2
    assert cfg.velocity_boost == 20
    assert cfg.simultaneity_eps_ms == 8
    assert cfg.sensitivity_s == 1.0
    assert cfg.max_offset_s == 4.0
    assert cfg.min_gap_s == 4.0
    assert cfg.scene_threshold == 0.4
    assert cfg.target_max == 0.8
    assert cfg.temperature == 1.0
    assert cfg.top_k == 32


def test_json_round_trip():
    cfg = PipelineConfig(chord_dropout=0.35, top_k=16, min_gap_s=2.5)
    assert PipelineConfig.from_json(cfg.to_json()) == cfg


def test_file_round_trip(tmp_path):
    cfg = PipelineConfig(temperature=0.7)
    path = tmp_path / "config.json"
    cfg.save(path)
    assert PipelineConfig.load(path) == cfg


def test_unknown_keys_rejected():
    payload = json.dumps({"chord_dropout": 0.1, "chord_droput": 0.1})
    with pytest.raises(ValueError, match="chord_droput"):
        PipelineConfig.from_json(payload)


def test_non_object_json_rejected():
    with pytest.raises(ValueError):
        PipelineConfig.from_json("[1, 2, 3]")


def test_partial_json_uses_defaults():
    cfg = PipelineConfig.from_json('{"top_k": 8}')
    assert cfg.top_k == 8
    assert cfg.chord_dropout == 0.2


@pytest.mark.parametrize(
    "overrides",
    [
        {"sensitivity_s": -1.0},
        {"chord_dropout": 1.5},
        {"chord_dropout": -0.1},
        {"target_max": 0.0},
        {"target_max": 1.2},
        {"min_gap_s": -0.5},
        {"top_k": 0},
        {"scene_threshold": 1.5},
    ],
)
def test_validation_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        PipelineConfig(**overrides)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_non_finite_values_rejected_naming_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        PipelineConfig(**{name: value})


@pytest.mark.parametrize(
    "text, name",
    [
        ('{"sensitivity_s": NaN}', "sensitivity_s"),
        ('{"top_k": "8"}', "top_k"),
        # scheduler windows above one hour
        ('{"sensitivity_s": 1e308}', "sensitivity_s"),
        ('{"max_offset_s": 1e308}', "max_offset_s"),
        ('{"sensitivity_s": 1000000000000000000000000000000}', "sensitivity_s"),
        # an integer past the float range
        ('{"sensitivity_s": 1%s}' % ("0" * 400), "sensitivity_s"),
    ],
)
def test_bad_json_values_rejected_naming_the_field(text, name):
    with pytest.raises(ValueError, match=name):
        PipelineConfig.from_json(text)


@pytest.mark.parametrize("name", ["sensitivity_s", "max_offset_s"])
def test_scheduler_windows_of_exactly_one_hour_accepted(name):
    assert MAX_WINDOW_S == 3600.0
    assert getattr(PipelineConfig(**{name: MAX_WINDOW_S}), name) == MAX_WINDOW_S


@pytest.mark.parametrize(
    "key",
    ["resolution_ms", "max_shift_ms", "feature_dim", "chord_token_loss_weight", "default_velocity"],
)
def test_removed_keys_rejected(key):
    # These keys were accepted but read by nothing (the token grid is
    # fixed by the vocabulary), so they are now unknown keys.
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_json(json.dumps({key: 8}))


def test_frozen():
    cfg = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.top_k = 5


@pytest.mark.parametrize("value", [2.5, 8.0, True, False, "8", None])
@pytest.mark.parametrize("name", ["velocity_boost", "simultaneity_eps_ms", "top_k"])
def test_integer_keys_reject_non_integers_naming_the_field(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        PipelineConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        PipelineConfig.from_json(json.dumps({name: value}))
    assert getattr(PipelineConfig(**{name: 3}), name) == 3


FLOAT_KEYS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "float"]


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("name", FLOAT_KEYS)
def test_float_keys_reject_booleans_naming_the_field(name, value):
    message = f"{name} must be a finite number, got {value}"
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**{name: value})
    with pytest.raises(ValueError, match=message):
        PipelineConfig.from_json(json.dumps({name: value}))
