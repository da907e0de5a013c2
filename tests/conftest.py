"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest


@pytest.fixture
def rng() -> random.Random:
    """Seeded Python PRNG for reproducible ad-hoc data."""
    return random.Random(0xB0452)


@pytest.fixture
def nprng() -> np.random.Generator:
    """Seeded numpy PRNG."""
    return np.random.default_rng(0xB0452)


def make_sorted_runs(
    rng: random.Random, n_runs: int, max_len: int = 64, key_space: int = 10**9
) -> list[list[int]]:
    """Random sorted runs with keys in [1, key_space]."""
    return [
        sorted(rng.randrange(1, key_space) for _ in range(rng.randrange(0, max_len)))
        for _ in range(n_runs)
    ]


def run_values(runs) -> list[list]:
    """Each run's keys as a list of Python values.

    ``simulate_merge`` returns numpy arrays; tests compare their values
    with expected lists through this one conversion.
    """
    return [np.asarray(run).tolist() for run in runs]
