"""Run configuration: a flat, strictly validated key=value format.

Keys are dotted paths (``window.lookback = 96``); ``#`` starts a comment.
Unknown keys are rejected so typos in sweep definitions fail loudly. Every
key has a documented default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .backbone import BackboneConfig, BackboneError, TrainabilityPolicy
from .model import DecompositionConfig, ModelConfig, ModelError
from .preprocess import PatchSpec, PreprocessError
from .series import SeriesError, SplitSpec, WindowSpec
from .training import TrainConfig


class ConfigError(ValueError):
    pass


def _positive_int(key, value):
    if value < 1:
        raise ConfigError(f"{key}: must be a positive integer, got {value}")


def _nonneg_int(key, value):
    if value < 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")


def _nonneg_float(key, value):
    if value < 0:
        raise ConfigError(f"{key}: must be >= 0, got {value}")


def _positive_float(key, value):
    if value <= 0:
        raise ConfigError(f"{key}: must be > 0, got {value}")


def _fraction(key, value):
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key}: must lie in [0, 1], got {value}")


def _choice(*options):
    def check(key, value):
        if value not in options:
            raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return check


def _no_check(key, value):
    pass


# key -> (type tag, default, validator)
SCHEMA: dict[str, tuple[str, object, object]] = {
    "data.path": ("str", "", _no_check),
    "data.forward_fill": ("bool", False, _no_check),
    "data.standardize": ("bool", True, _no_check),
    "synthetic.length": ("int", 2000, _positive_int),
    "synthetic.channels": ("int", 2, _positive_int),
    "synthetic.periods": ("ints", [24, 96], _no_check),
    "synthetic.trend_slope": ("float", 0.01, _no_check),
    "synthetic.noise_sigma": ("float", 0.1, _nonneg_float),
    "split.train": ("float", 0.7, _fraction),
    "split.val": ("float", 0.1, _fraction),
    "split.test": ("float", 0.2, _fraction),
    "split.few_shot": ("float", 0.0, _fraction),  # 0 disables
    "window.lookback": ("int", 96, _positive_int),
    "window.horizon": ("int", 24, _positive_int),
    "window.stride": ("int", 1, _positive_int),
    "patch.length": ("int", 16, _positive_int),
    "patch.stride": ("int", 8, _positive_int),
    "decomposition.enabled": ("bool", True, _no_check),
    "decomposition.period": ("int", 24, _positive_int),
    "decomposition.trend_window": ("int", 25, _positive_int),
    "decomposition.method": ("str", "classical", _choice("classical", "stl")),
    "decomposition.stl_inner": ("int", 2, _positive_int),
    "backbone.embed_dim": ("int", 64, _positive_int),
    "backbone.layers": ("int", 2, _positive_int),
    "backbone.heads": ("int", 4, _positive_int),
    "backbone.ffn_mult": ("int", 4, _positive_int),
    "backbone.max_seq_len": ("int", 128, _positive_int),
    "backbone.train_positional": ("bool", True, _no_check),
    "backbone.train_layer_norms": ("bool", True, _no_check),
    "backbone.train_attention": ("bool", False, _no_check),
    "backbone.train_ffn": ("bool", False, _no_check),
    "prompt.k": ("int", 4, _nonneg_int),
    "prompt.anchors": ("int", 32, _positive_int),
    "prompt.vocab_size": ("int", 500, _positive_int),
    "prompt.clusters": ("int", 8, _positive_int),
    "prompt.pooling": ("str", "mean", _choice("mean", "per_patch")),
    "prompt.embedding_path": ("str", "", _no_check),
    "model.alignment_weight": ("float", 0.01, _nonneg_float),
    "model.include_prompt_in_output": ("bool", False, _no_check),
    "train.learning_rate": ("float", 1e-3, _positive_float),
    "train.epochs": ("int", 10, _positive_int),
    "train.batch_size": ("int", 32, _positive_int),
    "train.patience": ("int", 5, _nonneg_int),
    "train.seed": ("int", 0, _nonneg_int),
    "train.clip_norm": ("float", 1.0, _nonneg_float),
    "eval.mode": ("str", "long", _choice("long", "short")),
    "eval.seasonality": ("int", 1, _positive_int),
    "ablate.lambdas": ("floats", [], _no_check),
    "ablate.ks": ("ints", [], _no_check),
    "ablate.anchor_counts": ("ints", [], _no_check),
    "export.max_windows": ("int", 256, _positive_int),
}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_value(key: str, kind: str, text: str):
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return _finite_float(text)
        if kind == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "str":
            return text
        if kind == "ints":
            return [int(p) for p in text.split(",") if p.strip()] if text else []
        if kind == "floats":
            return ([_finite_float(p) for p in text.split(",") if p.strip()]
                    if text else [])
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {text!r} as {kind}") from None
    raise ConfigError(f"{key}: unknown value kind {kind}")  # pragma: no cover


def _format_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind in ("ints", "floats"):
        return ",".join(repr(v) if kind == "floats" else str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


@dataclass
class RunConfig:
    """Validated configuration values plus typed accessors for the
    sub-systems they configure."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: spec[1] for key, spec in SCHEMA.items()}
        for key, value in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            merged[key] = value
        for key, value in merged.items():
            SCHEMA[key][2](key, value)
        total = merged["split.train"] + merged["split.val"] + merged["split.test"]
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split.train/val/test: fractions sum to {total}, "
                              "expected 1")
        self.values = merged
        # cross-key constraints: the model must be buildable from these
        # values (the channel count only sizes parameters)
        try:
            self.model_config(1)
        except (ModelError, BackboneError, PreprocessError, SeriesError) as exc:
            raise ConfigError(f"model configuration: {exc}") from None
        if not merged["prompt.embedding_path"]:
            most = merged["prompt.vocab_size"] // 2
            if merged["prompt.anchors"] > most:
                raise ConfigError(f"prompt.anchors: must be at most "
                                  f"prompt.vocab_size // 2 = {most}, got "
                                  f"{merged['prompt.anchors']}")

    def __getitem__(self, key: str):
        return self.values[key]

    # -- typed views ---------------------------------------------------------

    def split_spec(self) -> SplitSpec:
        return SplitSpec(self.values["split.train"], self.values["split.val"],
                         self.values["split.test"])

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.values["window.lookback"],
                          self.values["window.horizon"],
                          self.values["window.stride"])

    def patch_spec(self) -> PatchSpec:
        return PatchSpec(self.values["patch.length"], self.values["patch.stride"])

    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(embed_dim=self.values["backbone.embed_dim"],
                              n_layers=self.values["backbone.layers"],
                              n_heads=self.values["backbone.heads"],
                              max_seq_len=self.values["backbone.max_seq_len"],
                              ffn_mult=self.values["backbone.ffn_mult"])

    def policy(self) -> TrainabilityPolicy:
        return TrainabilityPolicy(
            positional_embedding=self.values["backbone.train_positional"],
            layer_norms=self.values["backbone.train_layer_norms"],
            attention=self.values["backbone.train_attention"],
            ffn=self.values["backbone.train_ffn"])

    def decomposition_config(self) -> DecompositionConfig:
        return DecompositionConfig(
            enabled=self.values["decomposition.enabled"],
            period=self.values["decomposition.period"],
            trend_window=self.values["decomposition.trend_window"],
            method=self.values["decomposition.method"],
            stl_inner=self.values["decomposition.stl_inner"])

    def model_config(self, n_channels: int) -> ModelConfig:
        return ModelConfig(window=self.window_spec(),
                           patch=self.patch_spec(),
                           decomposition=self.decomposition_config(),
                           backbone=self.backbone_config(),
                           prompt_k=self.values["prompt.k"],
                           n_anchors=self.values["prompt.anchors"],
                           alignment_weight=self.values["model.alignment_weight"],
                           include_prompt_in_output=self.values[
                               "model.include_prompt_in_output"],
                           pooling=self.values["prompt.pooling"],
                           n_channels=n_channels)

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(learning_rate=self.values["train.learning_rate"],
                           epochs=self.values["train.epochs"],
                           batch_size=self.values["train.batch_size"],
                           early_stop_patience=self.values["train.patience"],
                           seed=self.values["train.seed"] if seed is None else seed,
                           clip_norm=self.values["train.clip_norm"])

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
    """Parse and validate a configuration file; unknown keys are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(config: RunConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    lines = []
    for key in sorted(SCHEMA):
        kind = SCHEMA[key][0]
        lines.append(f"{key} = {_format_value(kind, config.values[key])}")
    return "\n".join(lines) + "\n"
