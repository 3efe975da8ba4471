"""Run configuration: a flat, strictly validated key=value format.

Keys are dotted paths (``window.lookback = 96``); ``#`` starts a comment.
Unknown keys are rejected so typos in sweep definitions fail loudly. Every
key has a documented default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .backbone import TrainabilityPolicy
from .model import (ModelConfig, ModelError, build_dataclass,
                    flatten_dataclass, typed_value)
from .series import SplitSpec
from .training import TrainConfig, TrainingError, read_record_header


class ConfigError(ValueError):
    pass


def _within(low, high=math.inf):
    """A range check of a value, or of each item of a list value."""
    def check(key, value):
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if not low <= item <= high:
                raise ConfigError(f"{key}: must lie in [{low}, {high}], got "
                                  f"{item}")
    return check


def _choice(*options):
    def check(key, value):
        if value not in options:
            raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return check


# key -> (dataclass, dotted field): the dataclass holds the key's default,
# its type and its range check
FIELDS: dict[str, tuple[type, str]] = {
    "split.train": (SplitSpec, "train_fraction"),
    "split.val": (SplitSpec, "val_fraction"),
    "split.test": (SplitSpec, "test_fraction"),
    "window.lookback": (ModelConfig, "window.lookback"),
    "window.horizon": (ModelConfig, "window.horizon"),
    "window.stride": (ModelConfig, "window.stride"),
    "patch.length": (ModelConfig, "patch.patch_length"),
    "patch.stride": (ModelConfig, "patch.stride"),
    "decomposition.enabled": (ModelConfig, "decomposition.enabled"),
    "decomposition.period": (ModelConfig, "decomposition.period"),
    "decomposition.trend_window": (ModelConfig, "decomposition.trend_window"),
    "decomposition.method": (ModelConfig, "decomposition.method"),
    "decomposition.stl_inner": (ModelConfig, "decomposition.stl_inner"),
    "backbone.embed_dim": (ModelConfig, "backbone.embed_dim"),
    "backbone.layers": (ModelConfig, "backbone.n_layers"),
    "backbone.heads": (ModelConfig, "backbone.n_heads"),
    "backbone.ffn_mult": (ModelConfig, "backbone.ffn_mult"),
    "backbone.max_seq_len": (ModelConfig, "backbone.max_seq_len"),
    "backbone.train_positional": (TrainabilityPolicy, "positional_embedding"),
    "backbone.train_layer_norms": (TrainabilityPolicy, "layer_norms"),
    "backbone.train_attention": (TrainabilityPolicy, "attention"),
    "backbone.train_ffn": (TrainabilityPolicy, "ffn"),
    "prompt.k": (ModelConfig, "prompt_k"),
    "prompt.anchors": (ModelConfig, "n_anchors"),
    "prompt.pooling": (ModelConfig, "pooling"),
    "model.alignment_weight": (ModelConfig, "alignment_weight"),
    "model.include_prompt_in_output": (ModelConfig, "include_prompt_in_output"),
    "train.learning_rate": (TrainConfig, "learning_rate"),
    "train.epochs": (TrainConfig, "epochs"),
    "train.batch_size": (TrainConfig, "batch_size"),
    "train.patience": (TrainConfig, "early_stop_patience"),
    "train.seed": (TrainConfig, "seed"),
    "train.clip_norm": (TrainConfig, "clip_norm"),
}

# key -> (type tag, default, validator), for the keys no dataclass holds
OTHER_KEYS: dict[str, tuple[str, object, object]] = {
    "data.path": ("str", "", None),
    "data.forward_fill": ("bool", False, None),
    "data.standardize": ("bool", True, None),
    "synthetic.length": ("int", 2000, _within(1)),
    "synthetic.channels": ("int", 2, _within(1)),
    "synthetic.periods": ("ints", [24, 96], _within(1)),
    "synthetic.trend_slope": ("float", 0.01, None),
    "synthetic.noise_sigma": ("float", 0.1, _within(0)),
    "split.few_shot": ("float", 0.0, _within(0, 1)),  # 0 disables
    "prompt.vocab_size": ("int", 500, _within(1)),
    "prompt.clusters": ("int", 8, _within(1)),
    "prompt.embedding_path": ("str", "", None),
    "eval.mode": ("str", "long", _choice("long", "short")),
    "eval.seasonality": ("int", 1, _within(1)),
    "ablate.lambdas": ("floats", [], None),
    "ablate.ks": ("ints", [], None),
    "ablate.anchor_counts": ("ints", [], None),
    "export.max_windows": ("int", 256, _within(1)),
}

# key -> (type tag, default) for every key
SCHEMA: dict[str, tuple[str, object]] = {
    **{key: (type(default).__name__, default)
       for key, (cls, path) in FIELDS.items()
       for default in [flatten_dataclass(cls())[path]]},
    **{key: spec[:2] for key, spec in OTHER_KEYS.items()},
}

_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _check_type(key: str, kind: str, value) -> None:
    many = kind in ("ints", "floats")
    if many and not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {value!r}")
    try:
        for item in value if many else [value]:
            typed_value(key, _TYPES[kind.removesuffix("s")], item)
    except ModelError as exc:
        raise ConfigError(str(exc)) from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


_PARSERS = {"int": int, "float": _finite_float, "bool": _bool, "str": str}


def _parse_value(key: str, kind: str, text: str):
    text = text.strip()
    parse = _PARSERS[kind.removesuffix("s")]
    try:
        if kind in ("ints", "floats"):
            return [parse(p) for p in text.split(",") if p.strip()]
        return parse(text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind}") from None


def _check_embedding_header(values: dict) -> None:
    """ConfigError if the ``prompt.embedding_path`` record's header gives a
    matrix narrower or wider than ``backbone.embed_dim``, or with fewer
    rows than ``2 * prompt.anchors``. Only the header is read; one that
    cannot be read is left to the command that loads the file."""
    path = values["prompt.embedding_path"]
    try:
        with open(path, "rb") as fh:
            _, dims = read_record_header(fh)
    except OSError:
        return
    width, anchors = values["backbone.embed_dim"], values["prompt.anchors"]
    if len(dims) == 2 and (dims[1] != width or dims[0] < 2 * anchors):
        raise ConfigError(f"prompt.embedding_path: {path} holds a {dims[0]} x "
                          f"{dims[1]} matrix; it needs backbone.embed_dim = "
                          f"{width} columns and at least 2 * prompt.anchors "
                          f"= {2 * anchors} rows")


@dataclass
class RunConfig:
    """Validated configuration values plus the config dataclasses built
    from them."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: spec[1] for key, spec in SCHEMA.items()}
        for key, value in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
        # types first, so a type error names the config key
        for key, (kind, _) in SCHEMA.items():
            _check_type(key, kind, merged[key])
        for key, (_, _, check) in OTHER_KEYS.items():
            if check:
                check(key, merged[key])
        self.values = merged
        # the dataclasses check the ranges of the FIELDS keys and the
        # cross-key constraints; the channel count only sizes parameters
        # and model_config sets it
        fields_of = {ModelConfig: {"n_channels": 1}}
        for key, (cls, path) in FIELDS.items():
            fields_of.setdefault(cls, {})[path] = merged[key]
        try:
            self._built = {cls: build_dataclass(cls, d)
                           for cls, d in fields_of.items()}
        except (ValueError, TrainingError) as exc:  # name the config keys
            key_of = {path: key for key, (_, path) in FIELDS.items()}
            raise ConfigError(re.sub(r"\w+(?:\.\w+)*", lambda m: key_of.get(
                m[0], m[0]), str(exc))) from None
        if merged["prompt.embedding_path"]:
            _check_embedding_header(merged)
        else:
            most = merged["prompt.vocab_size"] // 2
            if merged["prompt.anchors"] > most:
                raise ConfigError(f"prompt.anchors: must be at most "
                                  f"prompt.vocab_size // 2 = {most}, got "
                                  f"{merged['prompt.anchors']}")
        # short-mode MASE needs a history longer than one season
        if (merged["eval.mode"] == "short"
                and merged["eval.seasonality"] >= merged["window.lookback"]):
            raise ConfigError(f"eval.seasonality: must be below window.lookback"
                              f" = {merged['window.lookback']} when eval.mode "
                              f"= short, got {merged['eval.seasonality']}")

    def __getitem__(self, key: str):
        return self.values[key]

    def split_spec(self) -> SplitSpec:
        return self._built[SplitSpec]

    def policy(self) -> TrainabilityPolicy:
        return self._built[TrainabilityPolicy]

    def model_config(self, n_channels: int) -> ModelConfig:
        return replace(self._built[ModelConfig], n_channels=n_channels)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        config = self._built[TrainConfig]
        return config if seed is None else replace(config, seed=seed)

    def override(self, items: dict) -> "RunConfig":
        """New config with the given dotted keys replaced."""
        merged = dict(self.values)
        merged.update(items)
        return RunConfig(merged)


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, SCHEMA[key][0], value)
    return RunConfig(values)


def parse_config(path) -> RunConfig:
    """Parse and validate a configuration file; unknown keys are errors, and
    so is a file that cannot be read as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)
