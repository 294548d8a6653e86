"""Run configuration: one JSON document that fully specifies any CLI command.

The scenes and loss sections are the module configs themselves; RunConfig
builds the decoder and training configs from its sections, so every module
check runs while the config is parsed and a bad value is a ConfigError.
Naming rule: a section's field has the name of the parameter it sets in the
function or dataclass the section configures (TrainConfig, DecoderConfig,
build_dataset, benchmark_attention), so a section is passed on whole as
`**dataclasses.asdict(section)`.  MODEL_KEYS maps each DecoderConfig field
to its run key, in both directions; three of them live in other sections.
Parsing is strict: unknown keys are hard errors so a typo never silently
falls back to a default.  An effective
snapshot of the resolved config is written next to every command's
artifacts, and rerunning from that snapshot reproduces the run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any

from .attention import VARIANT_SCALE_THEN_SAMPLE
from .decoder import DecoderConfig
from .losses import LossConfig
from .synth import SceneConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class ScenesSection(SceneConfig):
    count: int = 200

    def __post_init__(self):
        super().__post_init__()
        if self.count < 0:
            raise ValueError(f"count must be an integer >= 0, got {self.count!r}")


@dataclass
class FeaturesSection:
    channels: int = 32
    num_levels: int = 2
    truncation: float = 3.0
    noise_sd: float = 0.01

    def __post_init__(self):
        if self.num_levels < 1:
            raise ValueError(f"num_levels must be >= 1, got {self.num_levels}")
        t, sd = self.truncation, self.noise_sd
        if not (type(t) in (int, float) and math.isfinite(t) and t > 0):
            raise ValueError(f"truncation must be a finite number > 0, got {t!r}")
        if not (type(sd) in (int, float) and math.isfinite(sd) and sd >= 0):
            raise ValueError(f"noise_sd must be a finite number >= 0, got {sd!r}")


@dataclass
class DecoderSection:
    n_instances: int = 50
    n_prior: int = 9
    n_layers: int = 6
    n_heads: int = 8
    ffn_dim: int = 256
    head_hidden: int = 64
    variant: str = VARIANT_SCALE_THEN_SAMPLE
    num_points_attn: int = 4
    init_sd: float = 0.02

    def __post_init__(self):
        sd = self.init_sd
        if not (type(sd) in (int, float) and math.isfinite(sd) and sd >= 0):
            raise ValueError(f"init_sd must be a finite number >= 0, got {sd!r}")


# Each DecoderConfig field and the run key that sets it: the decoder field of
# its name, or one that another section holds.  n_classes is fixed.
MODEL_KEYS = {
    **{f.name: f"decoder.{f.name}" for f in fields(DecoderSection) if f.name != "init_sd"},
    "n_points": "scenes.n_points",
    "channels": "features.channels",
    "num_levels": "features.num_levels",
}


@dataclass
class PriorsSection:
    k: int = 50
    n_pri: int = 9
    max_iters: int = 100


@dataclass
class TrainSection:
    steps: int = 2000
    lr: float = 0.1
    feature_noise_sd: float = 0.0


@dataclass
class EvalSection:
    thresholds: list = field(default_factory=lambda: [0.5, 1.0, 1.5])

    def __post_init__(self):
        t = self.thresholds
        if not (isinstance(t, list) and t and all(type(x) in (int, float) and x > 0 for x in t)):
            raise ValueError(f"thresholds must be a non-empty list of positive numbers, got {t!r}")


@dataclass
class BenchSection:
    channels: int = 256
    n_heads: int = 8
    num_levels: int = 3
    num_points: int = 4
    queries: int = 1000
    h: int = 200
    w: int = 100
    repeats: int = 100  # checked by bench-attn itself

    def __post_init__(self):
        for name in ("channels", "n_heads", "num_levels", "num_points", "queries", "h", "w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class IoSection:
    out_dir: str = "runs/out"
    data_dir: str = ""
    val_dir: str = ""
    priors_path: str = ""
    checkpoint_path: str = ""


@dataclass
class RunConfig:
    seed: int = 0
    scenes: ScenesSection = field(default_factory=ScenesSection)
    features: FeaturesSection = field(default_factory=FeaturesSection)
    decoder: DecoderSection = field(default_factory=DecoderSection)
    priors: PriorsSection = field(default_factory=PriorsSection)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    bench: BenchSection = field(default_factory=BenchSection)
    io: IoSection = field(default_factory=IoSection)

    def __post_init__(self):
        # The module configs the sections describe; building them here runs
        # their own checks while the config is parsed.
        self.decoder_cfg = DecoderConfig(
            **{name: functools.reduce(getattr, key.split("."), self) for name, key in MODEL_KEYS.items()}
        )
        self.train_cfg = TrainConfig(seed=self.seed, **dataclasses.asdict(self.train))


def model_keys(decoder_cfg: DecoderConfig) -> dict[str, Any]:
    """The run keys that give `decoder_cfg`, with its values."""
    return {key: getattr(decoder_cfg, name) for name, key in MODEL_KEYS.items()}


# --------------------------------------------------------------------------
# Strict dict <-> dataclass conversion
# --------------------------------------------------------------------------


def _from_dict(base, doc: dict, path: str):
    """`base` with the values in `doc` applied; a key whose default is an int
    takes only an int, and a value the section's own check rejects is a
    ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {type(doc).__name__}")
    known = {f.name for f in fields(base)}
    kwargs: dict[str, Any] = {}
    for key, value in doc.items():
        if key not in known:
            raise ConfigError(f"unknown config key {path + key!r}")
        current = getattr(base, key)
        if type(current) is int and type(value) is not int:
            raise ConfigError(f"{path + key} must be an integer, got {value!r}")
        kwargs[key] = _from_dict(current, value, f"{path}{key}.") if is_dataclass(current) else value
    try:
        return dataclasses.replace(base, **kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{path[:-1]}: {e}" if path else str(e)) from e


def config_from_dict(doc: dict) -> RunConfig:
    """The config `doc` describes; keys it leaves out keep their default."""
    return _from_dict(RunConfig(), doc, "")


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def read_overrides(path: str) -> list[str]:
    """The config file at `path` (a run config or a snapshot) as overrides,
    one `section=object` for each top-level key."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object, got {type(doc).__name__}")
    doc.pop("command", None)  # snapshots carry the command they came from
    return [f"{key}={json.dumps(value)}" for key, value in doc.items()]


def _set(node: dict, key: str, value, path: str) -> None:
    """node[key] = value, where an object value merges into a section key by key."""
    if key not in node:
        raise ConfigError(f"unknown key {path + key!r}")
    if isinstance(node[key], dict) != isinstance(value, dict):
        wanted = "an object" if isinstance(node[key], dict) else "a value"
        raise ConfigError(f"{path + key!r}: expected {wanted}, got {type(value).__name__}")
    if isinstance(value, dict):
        for k, v in value.items():
            _set(node[key], k, v, f"{path}{key}.")
    else:
        node[key] = value


def override_doc(doc: dict, overrides: list[str]) -> dict:
    """`doc`, a config as a plain document, with `section.key=value`
    overrides applied in order; values parse as JSON, else strings.  Only
    the keys are checked here."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = dotted.split(".")
        for part in reversed(parts[1:]):
            value = {part: value}
        _set(doc, parts[0], value, "")
    return doc


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """`cfg` with `section.key=value` overrides applied in order; the result
    is checked once, so only the final values need to agree."""
    return config_from_dict(override_doc(config_to_dict(cfg), overrides))
