"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools
import multiprocessing
import os
import random
import signal

import numpy as np
import pytest

from repro.parallel.workers import worker_cluster_node


@pytest.fixture
def rng() -> random.Random:
    """Seeded Python PRNG for reproducible ad-hoc data."""
    return random.Random(0xB0452)


@pytest.fixture
def nprng() -> np.random.Generator:
    """Seeded numpy PRNG."""
    return np.random.default_rng(0xB0452)


def _straggling_node(task: tuple, node: int) -> tuple:
    """``worker_cluster_node`` whose pool task for node ``node`` SIGKILLs
    its worker process (a pool crash).  The fault fires only in a pool
    child, so the parent's recompute runs clean."""
    receiver = task[2]
    if receiver == node and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return worker_cluster_node(task)


@pytest.fixture
def straggler(monkeypatch):
    """``straggler(node)`` kills the worker running one cluster node.

    ``ClusterExecutor`` maps through the patched entry, which travels to
    the workers as the map's function.  A warm pool forked before the
    patch would not see a patched module global, so the fault must ride
    the task and not the workers' inherited state.
    """
    from repro.distributed import executor

    def inject(node: int) -> None:
        monkeypatch.setattr(
            executor, "worker_cluster_node",
            functools.partial(_straggling_node, node=node),
        )
    return inject


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
