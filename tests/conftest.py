"""Shared test configuration.

BLAS threading is pinned to one thread before numpy loads anywhere: the
matrices here are tiny (thread fan-out only adds overhead) and the
determinism checks assume a fixed execution environment. The heap gets the
allocator thresholds the CLI sets, so tests that call train() directly
allocate as `canoe train` does.
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from canoe.cli import fit_topics, steady_heap  # noqa: E402
from canoe.config import RunConfig  # noqa: E402
from canoe.data import prepare_dataset  # noqa: E402
from canoe.model import CanoeModel  # noqa: E402
from canoe.synthetic import generate_synthetic  # noqa: E402

steady_heap()


def build_pipeline(cfg: RunConfig):
    """generate -> prepare -> LDA -> model, the standard assembly."""
    checkins = generate_synthetic(cfg.synthetic_config())
    ds = prepare_dataset(checkins, theta=cfg.data.theta_seconds,
                         window_len=cfg.data.window_len,
                         stride=cfg.data.stride,
                         min_records=cfg.data.min_records)
    topic_model = fit_topics(ds, cfg)
    model = CanoeModel(cfg.model_config(), ds.n_users, ds.n_locations,
                       topic_model.theta, seed=cfg.seed)
    return checkins, ds, topic_model, model


@pytest.fixture(scope="session")
def small_run_config() -> RunConfig:
    return RunConfig.from_dict({
        "seed": 11,
        "data": {"num_users": 20, "num_locations": 25, "days": 12,
                 "activities_per_day": 5, "min_records": 50},
        "topics": {"n_topics": 8, "gibbs_iters": 100},
        "model": {"dim": 8},
        "train": {"epochs": 3, "warmup_epochs": 1, "batch_size": 128},
    })


@pytest.fixture(scope="session")
def small_pipeline(small_run_config):
    return build_pipeline(small_run_config)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
