"""Run configuration: typed builders, early validation, module layering."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dynroute
from dynroute.config import (
    TrainConfig,
    load_config,
    supernet_spec_from,
    synth_config_from,
    train_config_from,
)
from dynroute.data_synth import SynthConfig
from dynroute.errors import ConfigurationError
from dynroute.similarity import SimilarityConfig
from dynroute.supernet import SupernetSpec


def _load(tmp_path, overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return load_config(str(path))


def test_budget_settings_validated_by_train_config():
    with pytest.raises(ConfigurationError, match="c0_ratio"):
        TrainConfig(c0_ratio=-1.0)
    with pytest.raises(ConfigurationError, match="strategy"):
        TrainConfig(budget_strategy="nope")
    TrainConfig(budget_strategy="fixed")


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: SupernetSpec(channels_per_scale=(8, 16, 32)), "channels_per_scale has 3 entries"),
        (lambda: SynthConfig(noise=-0.5), "noise"),
        (lambda: TrainConfig(momentum=1.5), "momentum"),
        # the default lr drops at epochs 8 and 11 do not fit 4 epochs
        (lambda: dataclasses.replace(TrainConfig(), epochs=4), "lr_drop_epochs"),
    ],
)
def test_settings_check_themselves_on_construction(build, match):
    """A setting with a bad field cannot be built, whatever builds it
    (its constructor or dataclasses.replace), so no consumer re-checks it
    and none has a validate() to call."""
    with pytest.raises(ConfigurationError, match=match):
        build()
    assert not any(hasattr(s, "validate") for s in (SupernetSpec, SynthConfig, TrainConfig))


@pytest.mark.parametrize(
    "changes, key",
    [
        ({"batch_size": 0}, "batch_size"),
        ({"base_lr": 0.0}, "base_lr"),
        ({"base_lr": float("nan")}, "base_lr"),
        ({"momentum": -0.1}, "momentum"),
        ({"momentum": 1.0}, "momentum"),
        ({"lambda1": -1.0}, "weights"),
    ],
)
def test_train_config_rejects(changes, key):
    with pytest.raises(ConfigurationError, match=key):
        TrainConfig(**changes)


def test_default_document_round_trips_to_the_typed_defaults(monkeypatch):
    """Each default lives on its typed setting, and the default document
    builds exactly those settings back."""
    monkeypatch.delenv("DYNROUTE_SEED", raising=False)
    config = load_config(None)
    assert supernet_spec_from(config) == SupernetSpec()
    assert synth_config_from(config) == SynthConfig()
    assert train_config_from(config) == TrainConfig()


def test_similarity_section_reaches_train_config(tmp_path):
    config = _load(tmp_path, {"similarity": {"min_sim": 0.5, "max_sim": 0.7}})
    assert train_config_from(config).similarity == SimilarityConfig(0.5, 0.7)
    assert train_config_from(load_config(None)).similarity == SimilarityConfig()


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"similarity": {"min_sim": 5.0, "max_sim": -1}}, "similarity bounds"),
        ({"supernet": {"channels_per_scale": [8, "x", 32, 64]}}, "supernet.channels_per_scale"),
        ({"head": {"tower_depth": None}}, "head.tower_depth"),
        ({"data": {"scale_mix": [[[1, 0, 0, 0]]]}}, "data.scale_mix"),
        ({"budget": {"loss_buffer_len": 100}}, "loss_buffer_len"),  # a removed key
        ({"train": 3}, "config train must be a JSON object"),
        # a JSON boolean is not a float: true would load as 1.0, false as 0.0
        ({"train": {"base_lr": True}}, "train.base_lr"),
        ({"train": {"lambda2": False}}, "train.lambda2"),
        ({"supernet": {"gate_threshold": True}}, "supernet.gate_threshold"),
        ({"data": {"scale_mix": [[[1, 0, 0, 0], True]]}}, "data.scale_mix"),
    ],
)
def test_load_config_rejects(tmp_path, overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        _load(tmp_path, overrides)


def test_trainer_and_config_do_not_load_cli():
    code = "import sys, dynroute.trainer, dynroute.config; print('dynroute.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(dynroute.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
