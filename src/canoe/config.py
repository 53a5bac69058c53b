"""Run configuration: one JSON document driving every CLI command.

Unknown keys and values of the wrong type are rejected; a loaded config is
echoed back with every default materialized so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .cnoa import OscillatorParams
from .data import SECONDS_PER_DAY, VALUE_BOUND, WINDOW_LEN_BOUND
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
        if unknown := set(raw) - {"seed", *_SECTIONS}:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        if "seed" in raw and not _fits(raw["seed"], int):
            raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
        kwargs = {"seed": raw["seed"]} if "seed" in raw else {}
        for name, section_cls in _SECTIONS.items():
            if name in raw:
                kwargs[name] = _section_from_dict(section_cls, raw[name], name)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        """Refuse the first value that breaks a row of _CHECKS, in order."""
        for row in _CHECKS:
            if message := row(self) if callable(row) else _out_of_range(self, *row):
                raise ConfigError(message)

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


def _out_of_range(cfg: RunConfig, key: str, low: float, high: float | None = None,
                  ends: str = "[]", nullable: bool = False) -> str | None:
    """The refusal of cfg's value at the dotted key if it lies outside
    [low, high], else None. A high of None is no bound, a "(" or ")" in ends
    makes that end open, and null passes where nullable."""
    value = operator.attrgetter(key)(cfg)
    left, right = ends
    if value is None and nullable or (
            (value > low or value == low and left == "[")
            and (high is None or value < high or value == high and right == "]")):
        return None
    if high is None:
        rule = f"be {'null or ' if nullable else ''}{'>=' if left == '[' else '>'} {low}"
    else:
        rule = f"lie in {left}{low}, {high}{right}"
    return f"{key} must {rule}, got {value}"


# Every check RunConfig.validate makes, in order: ranges as rows of
# _out_of_range's arguments, each other rule as a lambda giving its refusal
# or a false value, after the ranges it relies on. The second rows of
# data.window_len and data.stride keep prepare_dataset's sums within int64
# and the empty splits' context rows within numpy's widest array;
# the rule after data.dwell_seconds keeps every generated time, all below
# days * SECONDS_PER_DAY + dwell_seconds, within the reader's bound.
_CHECKS = (
    ("seed", 0),
    ("data.p_explore", 0, 1),
    lambda c: c.data.num_locations <= c.data.returner_anchor_count and (
        "data.num_locations must exceed returner_anchor_count "
        f"({c.data.num_locations} <= {c.data.returner_anchor_count})"),
    ("data.activities_per_day", 1, 12),
    ("data.num_users", 1),
    ("data.num_locations", 1),
    ("data.days", 1),
    ("data.returner_anchor_count", 1),
    ("data.dwell_seconds", 1),
    lambda c: (end := c.data.days * SECONDS_PER_DAY + c.data.dwell_seconds) > VALUE_BOUND and (
        f"data.days * {SECONDS_PER_DAY} + data.dwell_seconds must be <= {VALUE_BOUND}, "
        f"got {end}"),
    ("model.osc_iters", 1),
    ("model.gamma", 0),
    ("model.dim", 1),
    ("model.sigma", 0, None, "(]"),
    ("model.enc_ff", 1, None, "[]", True),
    ("model.enc_layers", 1),
    ("model.enc_dropout", 0, 1, "[)"),
    ("model.attn_heads", 1),
    lambda c: c.model.dim % c.model.attn_heads and (
        f"model.dim {c.model.dim} not divisible by model.attn_heads {c.model.attn_heads}"),
    ("model.enc_heads", 1),
    lambda c: c.model.dim % c.model.enc_heads and (
        f"model.dim {c.model.dim} not divisible by model.enc_heads {c.model.enc_heads}"),
    lambda c: c.model.attention not in ("cnoa", "cross") and (
        f"unknown attention variant '{c.model.attention}'"),
    lambda c: c.model.decoder_query not in ("user_location", "time_user") and (
        f"unknown decoder_query '{c.model.decoder_query}'"),
    ("train.lambda_loc", 0),
    ("train.lambda_time", 0),
    ("train.lambda_aux", 0),
    lambda c: not (c.train.lambda_loc or c.train.lambda_time or c.train.lambda_aux) and (
        "train.lambda_loc, train.lambda_time and train.lambda_aux must not all be 0"),
    ("train.epochs", 1),
    ("train.batch_size", 1),
    ("train.warmup_epochs", 0),
    ("train.lr", 0, None, "(]"),
    ("train.beta1", 0, 1, "[)"),
    ("train.beta2", 0, 1, "[)"),
    ("train.eps", 0, None, "(]"),
    ("train.weight_decay", 0),
    ("train.clip_norm", 0),
    ("data.window_len", 2),
    ("data.window_len", 2, WINDOW_LEN_BOUND),
    ("data.stride", 1),
    ("data.stride", 1, VALUE_BOUND),
    lambda c: (not c.eval.ks or min(c.eval.ks) < 1) and (
        f"eval.ks must be a non-empty list of k >= 1, got {c.eval.ks}"),
    ("topics.n_topics", 2),
    ("topics.alpha", 0, None, "(]", True),
    ("topics.beta", 0, None, "(]"),
    ("topics.gibbs_iters", 0),
)


def _section_from_dict(section_cls, raw, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be a JSON object")
    declared = {f.name: f.type for f in dataclasses.fields(section_cls)}
    if unknown := set(raw) - set(declared):
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
