"""Shared fixtures: a tiny synthetic dataset and fast training configs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import split_leave_one_out
from repro.data.synthetic import SimulatorConfig, generate_dataset
from repro.train import TrainConfig
from repro.utils import set_seed
from tests.composed import patch_composed


@pytest.fixture(autouse=True)
def _seeded():
    """Make every test deterministic by default."""
    set_seed(12345)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small but non-trivial dataset shared across the suite."""
    config = SimulatorConfig(
        name="tiny", domain="beauty", num_users=90, num_items=70,
        num_concepts=24, avg_length=8.0, max_length=25, concepts_per_item=4.0,
        true_lambda=2, intent_match_weight=8.0, popularity_weight=0.3,
        noise_scale=0.5, transition_prob=0.3, seed=7,
    )
    dataset = generate_dataset(config)
    assert dataset.num_users > 20, "tiny dataset collapsed under 5-core filtering"
    return dataset


@pytest.fixture(scope="session")
def tiny_split(tiny_dataset):
    return split_leave_one_out(tiny_dataset.sequences)


@pytest.fixture()
def fast_train_config():
    """Two quick epochs without validation-driven early stopping."""
    return TrainConfig(epochs=2, batch_size=32, lr=3e-3, eval_every=10,
                       patience=0, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def composed_kernels(monkeypatch):
    """Run every fused kernel the layers call as its composed reference."""
    patch_composed(monkeypatch)
