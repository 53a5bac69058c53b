"""Run configuration: one JSON document driving every CLI command.

Unknown keys and values of the wrong type are rejected; a loaded config is
echoed back with every default materialized so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .cnoa import OscillatorParams
from .decoder import LossWeights
from .synthetic import SyntheticConfig

__all__ = ["ConfigError", "RunConfig", "DataConfig", "TopicsConfig",
           "ModelSection", "TrainSection", "EvalSection", "merge_overrides",
           "load_config"]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


@dataclass
class DataConfig:
    # preprocessing
    theta_seconds: int = 3600
    window_len: int = 20
    stride: int = 1
    min_records: int = 100
    # synthetic generation
    num_users: int = 200
    num_locations: int = 50
    days: int = 30
    p_explore: float = 0.0
    returner_anchor_count: int = 3
    activities_per_day: int = 6
    dwell_seconds: int = 3600


@dataclass
class TopicsConfig:
    n_topics: int = 450
    alpha: float | None = None  # None -> 50 / n_topics
    beta: float = 0.01
    gibbs_iters: int = 500  # CVB0 sweeps; the key keeps its older name


@dataclass
class ModelSection:
    dim: int = 16
    sigma: float = 1.0
    attn_heads: int = 2
    osc_iters: int = 1
    e1: float = 1.0
    e2: float = -1.0
    i1: float = 1.0
    i2: float = 1.0
    tau_e: float = 0.0
    tau_i: float = 0.0
    k: float = -500.0
    gamma: float = 1.0
    enc_layers: int = 3
    enc_heads: int = 2
    enc_dropout: float = 0.1
    enc_ff: int | None = None  # None -> 4 * dim
    attention: str = "cnoa"            # "cross" selects the ablation variant
    decoder_query: str = "user_location"

    def oscillator_params(self) -> OscillatorParams:
        return OscillatorParams(e1=self.e1, e2=self.e2, i1=self.i1, i2=self.i2,
                                tau_e=self.tau_e, tau_i=self.tau_i, k=self.k,
                                n_steps=self.osc_iters, gamma=self.gamma)

    def ff_width(self) -> int:
        return 4 * self.dim if self.enc_ff is None else self.enc_ff


@dataclass
class TrainSection:
    epochs: int = 100
    batch_size: int = 256
    lr: float = 0.005
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 5.0
    warmup_epochs: int = 5
    lambda_loc: float = 1.0
    lambda_time: float = 0.5
    lambda_aux: float = 0.5


@dataclass
class EvalSection:
    thresholds: list[float] = field(default_factory=lambda: [0.75, 0.80, 0.85, 0.90])
    ks: list[int] = field(default_factory=lambda: [1, 3, 5, 10])


_SECTIONS = {
    "data": DataConfig,
    "topics": TopicsConfig,
    "model": ModelSection,
    "train": TrainSection,
    "eval": EvalSection,
}


@dataclass
class RunConfig:
    seed: int = 7
    data: DataConfig = field(default_factory=DataConfig)
    topics: TopicsConfig = field(default_factory=TopicsConfig)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {"seed"} | set(_SECTIONS)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        kwargs = {}
        if "seed" in raw:
            if not _fits(raw["seed"], int):
                raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
            kwargs["seed"] = raw["seed"]
        for name, section_cls in _SECTIONS.items():
            if name in raw:
                kwargs[name] = _section_from_dict(section_cls, raw[name], name)
        try:
            cfg = cls(**kwargs)
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        # Round-trip through the constructor-validated synthetic config so
        # its field errors surface with their names.
        self.synthetic_config()
        m = self.model
        if m.osc_iters < 1:
            raise ConfigError(f"model.osc_iters must be >= 1, got {m.osc_iters}")
        if m.gamma < 0.0:
            raise ConfigError(f"model.gamma must be >= 0, got {m.gamma}")
        if m.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {m.dim}")
        if m.sigma <= 0.0:
            raise ConfigError(f"model.sigma must be > 0, got {m.sigma}")
        if m.enc_ff is not None and m.enc_ff < 1:
            raise ConfigError(f"enc_ff must be null or >= 1, got {m.enc_ff}")
        if m.enc_layers < 1:
            raise ConfigError(f"enc_layers must be >= 1, got {m.enc_layers}")
        if not 0.0 <= m.enc_dropout < 1.0:
            raise ConfigError(f"enc_dropout must lie in [0, 1), got {m.enc_dropout}")
        if m.attn_heads < 1 or m.enc_heads < 1:
            raise ConfigError("attn_heads and enc_heads must be >= 1")
        if m.dim % m.attn_heads != 0:
            raise ConfigError(f"dim {m.dim} not divisible by attn_heads {m.attn_heads}")
        if m.dim % m.enc_heads != 0:
            raise ConfigError(f"dim {m.dim} not divisible by encoder heads {m.enc_heads}")
        if m.attention not in ("cnoa", "cross"):
            raise ConfigError(f"unknown attention variant '{m.attention}'")
        if m.decoder_query not in ("user_location", "time_user"):
            raise ConfigError(f"unknown decoder_query '{m.decoder_query}'")
        t = self.train
        lambdas = {key: getattr(t, key) for key in ("lambda_loc", "lambda_time", "lambda_aux")}
        for key, value in lambdas.items():
            if value < 0.0:
                raise ConfigError(f"train.{key} must be >= 0, got {value}")
        if not any(lambdas.values()):
            raise ConfigError("train.lambda_loc, train.lambda_time and "
                              "train.lambda_aux must not all be 0")
        if t.epochs < 1 or t.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if t.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if t.lr <= 0.0:
            raise ConfigError(f"train.lr must be > 0, got {t.lr}")
        for key in ("beta1", "beta2"):
            value = getattr(t, key)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"train.{key} must lie in [0, 1), got {value}")
        if t.eps <= 0.0:
            raise ConfigError(f"train.eps must be > 0, got {t.eps}")
        if t.weight_decay < 0.0:
            raise ConfigError(f"train.weight_decay must be >= 0, got {t.weight_decay}")
        if t.clip_norm < 0.0:
            raise ConfigError(f"train.clip_norm must be >= 0, got {t.clip_norm}")
        if self.data.window_len < 2:
            raise ConfigError("window_len must be >= 2")
        if self.data.stride < 1:
            raise ConfigError(f"data.stride must be >= 1, got {self.data.stride}")
        if not self.eval.ks or min(self.eval.ks) < 1:
            raise ConfigError(
                f"eval.ks must be a non-empty list of k >= 1, got {self.eval.ks}")
        if self.topics.n_topics < 2:
            raise ConfigError("n_topics must be >= 2")
        if self.topics.alpha is not None and self.topics.alpha <= 0.0:
            raise ConfigError(f"topics.alpha must be null or > 0, got {self.topics.alpha}")
        if self.topics.beta <= 0.0:
            raise ConfigError(f"topics.beta must be > 0, got {self.topics.beta}")
        if self.topics.gibbs_iters < 0:
            raise ConfigError(
                f"topics.gibbs_iters must be >= 0, got {self.topics.gibbs_iters}")

    # runtime-object builders -------------------------------------------------

    def synthetic_config(self) -> SyntheticConfig:
        d = self.data
        return SyntheticConfig(
            seed=self.seed, num_users=d.num_users, num_locations=d.num_locations,
            days=d.days, p_explore=d.p_explore,
            returner_anchor_count=d.returner_anchor_count,
            activities_per_day=d.activities_per_day,
            dwell_seconds=d.dwell_seconds)

    def model_config(self) -> ModelSection:
        """The model section: CanoeModel's whole configuration."""
        return self.model

    def loss_weights(self) -> LossWeights:
        t = self.train
        return LossWeights(loc=t.lambda_loc, time=t.lambda_time, aux=t.lambda_aux)


def _section_from_dict(section_cls, raw, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be a JSON object")
    declared = {f.name: f.type for f in dataclasses.fields(section_cls)}
    unknown = set(raw) - set(declared)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{path}': {sorted(unknown)}")
    types = typing.get_type_hints(section_cls)
    for key, value in raw.items():
        if not _fits(value, types[key]):
            raise ConfigError(f"{path}.{key} must be {declared[key]}, got {value!r}")
    return section_cls(**raw)


def _fits(value, tp) -> bool:
    """Whether a JSON value fits a field type, without converting it: int
    takes no bool and no float, float takes a finite float or int (JSON
    NaN and Infinity parse as floats), X | None also takes null, list[X]
    checks every item, and tuple[X, Y, ...] takes a list of exactly that
    many items of those types."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if typing.get_origin(tp) is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if args:
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        # NaN fails the comparison; so do infinities and ints beyond float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, tp)


def merge_overrides(raw: dict, overrides: dict | None) -> dict:
    """Apply flat overrides of the form {"train.epochs": 10, "seed": 3} to a
    raw config dict in place; returns it."""
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        node = raw
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override '{dotted}': not a section")
        node[parts[-1]] = value
    return raw


def load_config(path: str | Path | None, overrides: dict | None = None,
                base: RunConfig | None = None) -> RunConfig:
    """The JSON config file at path, or else base (the defaults when None),
    with the overrides applied (see merge_overrides)."""
    raw = {} if base is None else base.to_dict()
    if path is not None:
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict(merge_overrides(raw, overrides))
