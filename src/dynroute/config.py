"""Run configuration: schema, key tables and typed builders.

A config is a single JSON document (schema "dynroute-config/1") with
sections supernet, budget, similarity, head, data, train. Every field
has a default and unknown keys are rejected, a key that an older
version accepted included. Each default lives on its typed setting
only; DEFAULT_CONFIG is built from them through KEYS, the per-section
table of keys and converters that the builders read too. The train
section sets one schedule: pretrain_epochs dense epochs (logged as
epoch 0), then routed epochs numbered from 1, with one learning rate
for every parameter (warmup ramp, then drops by 10) and the
regularizers off for regularizer_warmup_epochs, then ramped in. The
budget section picks the strategy and C0; the loss_aware strategy ranks
each loss among the last 100. The environment variable DYNROUTE_SEED
overrides both data and train seeds. Images have one channel and
objects two classes (data_synth.NUM_CLASSES); neither is a setting.

Every typed setting (SupernetSpec, SynthConfig, TrainConfig and the
ones it holds) checks its fields on construction, so an invalid one
cannot exist. load_config merges a file over the defaults and builds
every typed object from the result, so a bad value fails there, as one
ConfigurationError naming its key, before any work is done.
"""

from __future__ import annotations

import copy
import json
import math
import operator
import os
from dataclasses import dataclass

from .data_synth import SynthConfig
from .errors import ConfigurationError
from .head_loss import TOWER_DEPTH, LossWeights
from .scale_budget import STRATEGIES, ScaleIntervals
from .similarity import SimilarityConfig
from .supernet import SupernetSpec

SCHEMA = "dynroute-config/1"


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    epochs: int = 12
    base_lr: float = 0.01
    lr_drop_epochs: tuple[int, ...] = (8, 11)
    momentum: float = 0.9
    weight_decay: float = 1e-4
    budget_strategy: str = "scale_dynamic"
    c0_ratio: float = 0.05
    lambda1: float = 1.0
    lambda2: float = 1.0
    seed: int = 7
    regularizer_warmup_epochs: int = 1
    ramp_steps: int = 100
    # dense pretraining epochs before the routed schedule: routers are
    # bypassed with every gate forced to 1 and only the detection loss
    # runs. Off by default: at desk scale a converged dense backbone
    # yields pooled features too uniform for routers to discriminate
    pretrain_epochs: int = 0
    clip_grad_norm: float = 10.0  # 0 disables clipping
    lr_warmup_steps: int = 50  # linear ramp from base_lr/10; 0 disables
    similarity: SimilarityConfig = SimilarityConfig()  # bounds of L_local's targets

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"train.seed must be >= 0, got {self.seed}")
        for key in (
            "weight_decay", "regularizer_warmup_epochs", "ramp_steps", "pretrain_epochs",
            "clip_grad_norm", "lr_warmup_steps",
        ):
            value = getattr(self, key)
            if not value >= 0:  # NaN fails too
                raise ConfigurationError(f"{key} must be >= 0, got {value}")
        if any(e < 1 or e > self.epochs for e in self.lr_drop_epochs):
            raise ConfigurationError(
                f"lr_drop_epochs {self.lr_drop_epochs} must lie in [1, {self.epochs}]"
            )
        LossWeights(self.lambda1, self.lambda2)  # rejects negative weights
        if self.lambda2 > 0 and self.batch_size < 2:
            raise ConfigurationError("batch_size must be >= 2 when lambda2 > 0")
        if not (0 < self.c0_ratio <= 1):
            raise ConfigurationError(f"c0_ratio must be in (0, 1], got {self.c0_ratio}")
        if self.budget_strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown budget strategy {self.budget_strategy!r}; expected one of {STRATEGIES}"
            )
        if not self.base_lr > 0:
            raise ConfigurationError(f"base_lr must be positive, got {self.base_lr}")
        if not (0 <= self.momentum < 1):
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")


def _int(value) -> int:
    """value as an int; a float or boolean is refused, not truncated."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _float(value) -> float:
    """value as a float; a boolean, NaN and infinities are refused."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"expected a finite number, got {value!r}")
    return result


def _floats(values) -> tuple[float, ...]:
    return tuple(_float(v) for v in values)


def _scale_mix(mix) -> tuple[tuple[tuple[int, ...], float], ...]:
    return tuple((_ints(pattern), _float(weight)) for pattern, weight in mix)


# each section's keys, in document order, with their converters; a key
# names the field of its typed setting, except where FIELDS renames it
KEYS: dict[str, dict] = {
    "supernet": {
        "num_layers": _int, "num_scales": _int, "channels_per_scale": _ints,
        "gate_threshold": _float, "head_channels": _int,
    },
    "budget": {"strategy": str, "c0_ratio": _float},
    "similarity": {"min_sim": _float, "max_sim": _float},
    "head": {"tower_depth": _int},
    "data": {
        "image_size": _int, "num_images": _int, "noise": _float, "seed": _int,
        "scale_boundaries": _floats, "scale_mix": _scale_mix,
    },
    "train": {
        "batch_size": _int, "epochs": _int, "base_lr": _float, "lr_drop_epochs": _ints,
        "momentum": _float, "weight_decay": _float, "lambda1": _float, "lambda2": _float,
        "seed": _int, "regularizer_warmup_epochs": _int, "ramp_steps": _int,
        "pretrain_epochs": _int, "clip_grad_norm": _float, "lr_warmup_steps": _int,
    },
}
FIELDS = {"strategy": "budget_strategy", "scale_boundaries": "boundaries"}


def _defaults(name: str, setting) -> dict:
    return {key: getattr(setting, FIELDS.get(key, key)) for key in KEYS[name]}


# every default lives on its typed setting; this is the document they make,
# its tuples turned into JSON lists
DEFAULT_CONFIG: dict = json.loads(json.dumps({
    "schema": SCHEMA,
    "supernet": _defaults("supernet", SupernetSpec()),
    "budget": _defaults("budget", TrainConfig()),
    "similarity": _defaults("similarity", TrainConfig().similarity),
    "head": {"tower_depth": TOWER_DEPTH},
    "data": _defaults("data", SynthConfig()),
    "train": _defaults("train", TrainConfig()),
}))


def _merge_section(defaults: dict, overrides, path: str) -> dict:
    if not isinstance(overrides, dict):
        raise ConfigurationError(f"config {path or 'document'} must be a JSON object")
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigurationError(f"unknown config key {path}.{key}" if path else f"unknown config key {key}")
        if isinstance(defaults[key], dict):
            merged[key] = _merge_section(defaults[key], value, f"{path}.{key}" if path else key)
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    """Read a config file and build every setting from it; None: pure defaults."""
    overrides: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                overrides = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigurationError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from exc
    config = _merge_section(DEFAULT_CONFIG, overrides, "")
    if config["schema"] != SCHEMA:
        raise ConfigurationError(
            f"config schema {config['schema']!r} not supported; expected {SCHEMA!r}"
        )
    env_seed = os.environ.get("DYNROUTE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigurationError(f"DYNROUTE_SEED must be an integer, got {env_seed!r}") from exc
        if seed < 0:
            raise ConfigurationError(f"DYNROUTE_SEED must be >= 0, got {env_seed!r}")
        config["data"]["seed"] = seed
        config["train"]["seed"] = seed
    for build in (supernet_spec_from, synth_config_from, train_config_from, head_from):
        build(config)  # each setting checks its fields as it is built
    return config


def _section(config: dict, name: str, *keys: str) -> dict:
    """The given keys (default: all) of one config section through their
    converters, by field name; a value the converter cannot take is a
    ConfigurationError naming it."""
    values = {}
    for key in keys or KEYS[name]:
        try:
            values[FIELDS.get(key, key)] = KEYS[name][key](config[name][key])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"config key {name}.{key}: {exc!r}") from None
    return values


def supernet_spec_from(config: dict) -> SupernetSpec:
    return SupernetSpec(**_section(config, "supernet"))


def intervals_from(config: dict) -> ScaleIntervals:
    return ScaleIntervals(_section(config, "data", "scale_boundaries")["boundaries"])


def synth_config_from(config: dict) -> SynthConfig:
    return SynthConfig(**_section(config, "data"))


def head_from(config: dict) -> dict:
    """tower_depth of the detection head."""
    head = _section(config, "head")
    if head["tower_depth"] < 1:
        raise ConfigurationError(f"config key head.tower_depth must be >= 1, got {head['tower_depth']}")
    return head


def seed_from(config: dict) -> int:
    """train.seed, the one train key a model's parameters depend on."""
    return _section(config, "train", "seed")["seed"]


def train_config_from(config: dict) -> TrainConfig:
    return TrainConfig(
        **_section(config, "budget"),
        **_section(config, "train"),
        similarity=SimilarityConfig(**_section(config, "similarity")),
    )
