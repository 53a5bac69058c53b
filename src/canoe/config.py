"""Run configuration: one JSON document driving every CLI command.

Unknown keys are rejected; a loaded config is echoed back with every
default materialized so runs are self-describing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .cnoa import OscillatorParams
from .decoder import LossWeights
from .encoder import SeqEncoderConfig
from .model import ModelConfig
from .synthetic import SyntheticConfig

__all__ = ["ConfigError", "RunConfig", "DataConfig", "TopicsConfig",
           "ModelSection", "TrainSection", "EvalSection", "load_config"]


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
    attention: str = "cnoa"
    decoder_query: str = "user_location"


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
            kwargs["seed"] = int(raw["seed"])
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
        # Round-trip through the constructor-validated runtime objects so
        # field errors surface with their names.
        self.synthetic_config()
        self.model_config()
        self.loss_weights()
        if self.train.epochs < 1 or self.train.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.train.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.data.window_len < 2:
            raise ConfigError("window_len must be >= 2")
        if self.topics.n_topics < 2:
            raise ConfigError("n_topics must be >= 2")

    # runtime-object builders -------------------------------------------------

    def synthetic_config(self) -> SyntheticConfig:
        d = self.data
        return SyntheticConfig(
            seed=self.seed, num_users=d.num_users, num_locations=d.num_locations,
            days=d.days, p_explore=d.p_explore,
            returner_anchor_count=d.returner_anchor_count,
            activities_per_day=d.activities_per_day,
            dwell_seconds=d.dwell_seconds)

    def oscillator_params(self) -> OscillatorParams:
        m = self.model
        return OscillatorParams(e1=m.e1, e2=m.e2, i1=m.i1, i2=m.i2,
                                tau_e=m.tau_e, tau_i=m.tau_i, k=m.k,
                                n_steps=m.osc_iters, gamma=m.gamma)

    def model_config(self) -> ModelConfig:
        m = self.model
        return ModelConfig(
            dim=m.dim, sigma=m.sigma, attn_heads=m.attn_heads,
            n_topics=self.topics.n_topics, attention=m.attention,
            decoder_query=m.decoder_query, osc=self.oscillator_params(),
            encoder=SeqEncoderConfig(layers=m.enc_layers, heads=m.enc_heads,
                                     dropout=m.enc_dropout, ff_width=m.enc_ff))

    def loss_weights(self) -> LossWeights:
        t = self.train
        return LossWeights(loc=t.lambda_loc, time=t.lambda_time, aux=t.lambda_aux)


def _section_from_dict(section_cls, raw, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{path}' must be a JSON object")
    names = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(raw) - names
    if unknown:
        raise ConfigError(f"unknown key(s) in '{path}': {sorted(unknown)}")
    return section_cls(**raw)


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Load JSON config (defaults when path is None) and apply flat overrides
    of the form {"train.epochs": 10, "seed": 3}."""
    raw: dict = {}
    if path is not None:
        with Path(path).open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        node = raw
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override '{dotted}': not a section")
        node[parts[-1]] = value
    return RunConfig.from_dict(raw)
