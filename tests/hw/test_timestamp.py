"""Differential verification of ``simulate_merge(engine="fast")``.

The fast engine is the timestamp engine (``repro.hw.timestamp``).  Its
whole value rests on one claim: for any stage it and the naive per-cycle
stepper are observably identical — same merged output, same final cycle
count, same per-merger and per-loader statistics.  This suite asserts
that claim over a randomized space of shapes (bandwidth budgets, batch
sizes, tree geometries, workload styles, full-range uint64 keys) plus
the known corner paths: the degenerate 1-merger tree, the auto-shrink
late-stage path, empty and single-record runs, keys outside
``[0, 2**64)``, unsorted runs, and the stages that cannot finish (a
stuck writer, an exhausted cycle budget).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.stage import split_into_runs
from repro.errors import ConfigurationError, SimulationError
from repro.hw import timestamp
from repro.hw.tree import simulate_merge
from repro.obs.runtime import activated, live_observation
from repro.records.valsort import content_digest
from repro.records.workloads import WorkloadSpec, generate
from repro.serve.session import SortJob, SortSession
from tests.conftest import run_values

RECORD_BYTES = 4


def gen_runs(rng: random.Random, n_runs: int, run_len: int, style: str):
    runs = []
    for index in range(n_runs):
        if style == "skew":
            base = rng.randrange(0, 50)
            run = sorted(rng.randrange(base, base + 200) for _ in range(run_len))
        elif style == "saw":
            run = sorted((j * 7 + index * 13) % 1000 for j in range(run_len))
        else:
            run = sorted(rng.randrange(0, 1 << 30) for _ in range(run_len))
        runs.append(run)
    return runs


def random_shape(seed: int) -> dict:
    """A seeded random (shape, workload) point covering the state space."""
    rng = random.Random(seed)
    p = rng.choice([1, 2, 4, 8])
    leaves = rng.choice([2, 4, 8, 16])
    demand = p * RECORD_BYTES
    read_factor = rng.choice([0.1, 0.25, 0.5, 1.0, None])
    write_factor = rng.choice([0.3, 0.5, 1.0, None])
    n_runs = rng.choice([1, leaves - 1, leaves, 2 * leaves, 3 * leaves + 1])
    return dict(
        p=p,
        leaves=leaves,
        runs=gen_runs(
            rng,
            max(1, n_runs),
            rng.choice([0, 1, 17, 200]),
            rng.choice(["skew", "saw", "rand"]),
        ),
        record_bytes=RECORD_BYTES,
        read_bytes_per_cycle=(
            None if read_factor is None else max(0.5, read_factor * demand)
        ),
        write_bytes_per_cycle=(
            None if write_factor is None else write_factor * demand
        ),
        batch_bytes=rng.choice([64, 256, 1024, 4096]),
    )


def run_both(**kwargs):
    """Run both engines; returns ((out, stats) | SimulationError) per engine."""
    results = []
    for engine in ("fast", "naive"):
        try:
            results.append(simulate_merge(engine=engine, **kwargs))
        except SimulationError as error:
            results.append(error)
    return results


def assert_identical(fast, naive, label=""):
    assert not isinstance(fast, SimulationError), f"{label}: fast raised {fast}"
    assert not isinstance(naive, SimulationError), f"{label}: naive raised {naive}"
    out_fast, stats_fast = fast
    out_naive, stats_naive = naive
    assert all(isinstance(run, np.ndarray) for run in out_fast + out_naive), label
    assert [run.dtype for run in out_fast] == [run.dtype for run in out_naive], label
    assert run_values(out_fast) == run_values(out_naive), f"{label}: merged output differs"
    assert stats_fast.cycles == stats_naive.cycles, (
        f"{label}: cycles {stats_fast.cycles} vs {stats_naive.cycles}"
    )
    assert stats_fast == stats_naive, f"{label}: StageStats differ"


def sorted_groups(runs, leaves):
    """What one stage must output: each group of ``leaves`` runs, merged."""
    groups = max(1, -(-len(runs) // leaves))
    return [
        sorted(key for run in runs[g * leaves : (g + 1) * leaves] for key in run)
        for g in range(groups)
    ]


def full_range_runs(rng: random.Random, n_runs: int, run_len: int):
    """uint64 keys over the whole range, the edges and heavy duplicates."""
    edges = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    return [
        sorted(
            rng.choice(edges) if rng.random() < 0.4 else rng.randrange(1 << 64)
            for _ in range(run_len)
        )
        for _ in range(n_runs)
    ]


EDGE_SHAPES = {
    # Full-range uint64 keys, 2**64 - 1 included, duplicated across runs.
    "uint64_full_range": lambda rng: dict(
        p=4, leaves=4, runs=full_range_runs(rng, 9, 37), batch_bytes=64,
        read_bytes_per_cycle=6.0, write_bytes_per_cycle=12.0,
    ),
    # Leaf width 8 with run lengths that are not multiples of it, and
    # batches that cut runs mid-way.
    "ragged_lengths": lambda rng: dict(
        p=16, leaves=4,
        runs=[sorted(rng.randrange(1000) for _ in range(n))
              for n in (1, 7, 9, 15, 17, 33, 63, 65)],
        batch_bytes=64, read_bytes_per_cycle=8.0,
    ),
    # Fewer runs than leaves: the shrunken tree, fed numpy arrays.
    "auto_shrink_numpy": lambda rng: dict(
        p=8, leaves=16,
        runs=[np.sort(np.array([rng.randrange(1 << 40) for _ in range(n)], dtype=np.uint64))
              for n in (90, 3, 41)],
        batch_bytes=256, read_bytes_per_cycle=4.0,
    ),
    # Empty runs between full ones, a whole empty group, no runs at all.
    "empty_runs": lambda rng: dict(
        p=2, leaves=4,
        runs=[[], sorted(rng.randrange(50) for _ in range(20)), [], [],
              [], [], [], [], [5], [], [1, 1, 1], []],
        batch_bytes=16,
    ),
    "no_runs": lambda rng: dict(p=4, leaves=4, runs=[]),
}


#: Presorter run length of the multi-stage shapes (§VI-C).
PRESORT_RUN = 16


@dataclass(frozen=True)
class PinnedShape:
    """A committed simulator shape and the cycle count it must land on.

    Bandwidth factors are relative to the tree's demand of
    ``p * record_bytes`` bytes per cycle: 0.02 models an HDD-class
    source, 0.05 an SSD-class one, ``None`` an unthrottled port.
    ``n_records`` marks a full multi-stage sort (``stages`` of them);
    otherwise the shape is one merge stage over ``n_runs`` runs.
    """

    name: str
    p: int
    leaves: int
    cycles: int
    read_factor: float | None = None
    write_factor: float | None = None
    batch_bytes: int = 1024
    n_runs: int = 8
    run_length: int = 8000
    n_records: int | None = None
    stages: int | None = None
    key_range: int = 1 << 30

    def budgets(self) -> tuple[float | None, float | None]:
        demand = self.p * RECORD_BYTES
        read = None if self.read_factor is None else self.read_factor * demand
        write = None if self.write_factor is None else self.write_factor * demand
        return read, write

    def make_runs(self) -> list[list[int]]:
        rng = random.Random(1)
        length = max(500, self.run_length // 8)
        return [
            sorted(rng.randrange(0, self.key_range) for _ in range(length))
            for _ in range(self.n_runs)
        ]

    def make_records(self) -> list[int]:
        rng = random.Random(1)
        count = max(2000, self.n_records // 4)
        return [rng.randrange(0, self.key_range) for _ in range(count)]


PINNED_SHAPES = (
    PinnedShape("micro_hdd_read_starved", p=16, leaves=4, cycles=25_252,
                read_factor=0.02, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_hdd_deep_tree", p=16, leaves=8, cycles=25_515,
                read_factor=0.02, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_ssd_read_starved", p=16, leaves=4, cycles=10_252,
                read_factor=0.05, write_factor=1.0, batch_bytes=4096),
    PinnedShape("micro_balanced", p=8, leaves=16, cycles=5_224,
                n_runs=16, run_length=4000, read_factor=0.3, write_factor=0.3),
    PinnedShape("micro_unconstrained", p=8, leaves=16, cycles=1_299,
                n_runs=16, run_length=4000),
    PinnedShape("micro_compute_wide", p=8, leaves=32, cycles=2_617,
                n_runs=32, run_length=4000),
    PinnedShape("micro_dup_heavy", p=8, leaves=16, cycles=1_301,
                n_runs=16, run_length=4000, key_range=256),
    PinnedShape("e2e_hdd_sort", p=16, leaves=4, cycles=38_449,
                n_records=12000, stages=4, read_factor=0.02, batch_bytes=4096),
    PinnedShape("e2e_ssd_sort", p=16, leaves=4, cycles=15_947,
                n_records=12000, stages=4, read_factor=0.05, batch_bytes=4096),
)


def assert_timestamp(stats):
    """The stage ran the timestamp engine (the stepper sweeps nothing)."""
    assert stats.sweeps > 0


class TestDifferential:

    @pytest.mark.parametrize(
        "shape", PINNED_SHAPES, ids=[shape.name for shape in PINNED_SHAPES]
    )
    def test_pinned_shapes(self, shape):
        """Both engines agree on the committed shapes, at committed cycles.

        Multi-stage shapes presort into 16-record runs and merge stage
        by stage down to one run, reads throttled and writes free (the
        storage-bound split of §IV-C).
        """
        read, write = shape.budgets()
        if shape.n_records is None:
            records = None
            runs = shape.make_runs()
        else:
            records = shape.make_records()
            runs = [
                sorted(records[start : start + PRESORT_RUN])
                for start in range(0, len(records), PRESORT_RUN)
            ]
        stages = cycles = 0
        while True:
            fast, naive = run_both(
                p=shape.p, leaves=shape.leaves, runs=runs,
                record_bytes=RECORD_BYTES, read_bytes_per_cycle=read,
                write_bytes_per_cycle=write, batch_bytes=shape.batch_bytes,
                check_sorted_inputs=False,
            )
            assert_identical(fast, naive, label=f"{shape.name} stage {stages}")
            runs, stats = fast
            assert_timestamp(stats)
            stages += 1
            cycles += stats.cycles
            if records is None or len(runs) == 1:
                break
        assert cycles == shape.cycles
        if records is not None:
            assert stages == shape.stages
            assert runs[0].tolist() == sorted(records)

    @pytest.mark.parametrize("name", sorted(EDGE_SHAPES))
    def test_edge_shapes(self, name):
        shape = EDGE_SHAPES[name](random.Random(11))
        fast, naive = run_both(**shape)
        assert_identical(fast, naive, label=name)
        out, stats = fast
        assert_timestamp(stats)
        runs = [list(map(int, run)) for run in shape["runs"]]
        leaves = shape["leaves"]
        if len(runs) < leaves:
            leaves = 1 << max(1, (max(2, len(runs)) - 1).bit_length())
        assert run_values(out) == sorted_groups(runs, leaves)

    @pytest.mark.parametrize("seed", range(32))
    def test_randomized_shapes(self, seed):
        shape = random_shape(seed)
        fast, naive = run_both(**shape)
        assert_identical(fast, naive, label=f"seed={seed}")

    def test_degenerate_single_merger(self):
        """p=1, l=2: one 1-merger, no couplers, record-at-a-time."""
        rng = random.Random(99)
        runs = gen_runs(rng, 2, 64, "rand")
        fast, naive = run_both(
            p=1, leaves=2, runs=runs, read_bytes_per_cycle=0.5,
            write_bytes_per_cycle=1.0, batch_bytes=64,
        )
        assert_identical(fast, naive, label="1-merger")

    def test_auto_shrink_late_stage(self):
        """Fewer runs than leaves: the shrunken-tree path (late stages)."""
        rng = random.Random(7)
        runs = gen_runs(rng, 3, 120, "rand")
        fast, naive = run_both(
            p=8, leaves=16, runs=runs, read_bytes_per_cycle=4.0,
            write_bytes_per_cycle=None, batch_bytes=256,
        )
        assert_identical(fast, naive, label="auto-shrink")
        out, _stats = fast
        assert out[0].tolist() == sorted(value for run in runs for value in run)

    def test_bandwidth_starved_stage(self):
        """Read budget far below demand: the tree mostly waits."""
        rng = random.Random(3)
        runs = gen_runs(rng, 4, 400, "rand")
        fast, naive = run_both(
            p=16, leaves=4, runs=runs, read_bytes_per_cycle=1.5,
            write_bytes_per_cycle=64.0, batch_bytes=4096,
        )
        assert_identical(fast, naive, label="starved")

    def test_stuck_writer_raises(self):
        """A write credit cap (4x the per-cycle rate) smaller than one
        p-tuple means the writer can never retire output: the timestamp
        engine says so at once, the stepper at the cycle budget, with a
        stall snapshot (``repro.hw.clock.format_stall_report``)."""
        rng = random.Random(5)
        runs = gen_runs(rng, 4, 32, "rand")
        fast, naive = run_both(
            p=16, leaves=4, runs=runs, read_bytes_per_cycle=None,
            write_bytes_per_cycle=2.0,  # cap 8 bytes < 64-byte p-tuple
            batch_bytes=1024, max_cycles=4000,
        )
        assert str(fast) == (
            "write budget 2 bytes/cycle caps the writer's credit at 8 bytes, "
            "below one 64-byte root tuple: the AMT(16, 4) stage of 128 records "
            "in 4 runs can never write a record"
        )
        message = str(naive)
        assert "did not complete within 4000 cycles" in message
        assert "stall snapshot at cycle 4000" in message
        assert "hw=" in message and "run_in_progress" in message
        assert "writer: runs=0/1" in message


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            simulate_merge(2, 2, [[1], [2]], engine="warp")


def stage_engines(fn) -> list[str]:
    """The ``engine`` attribute of every ``hw.merge_stage`` span ``fn`` opens."""
    live = live_observation()
    with activated(live):
        fn()
    return [s["attrs"]["engine"] for s in live.sink.spans() if s["name"] == "hw.merge_stage"]


class TestTimestampEngine:
    """The timestamp engine against the naive stepper on corner shapes."""

    @given(
        p=st.sampled_from([1, 2, 4, 8, 16]),
        leaves=st.sampled_from([2, 4, 8, 16]),
        lengths=st.lists(st.integers(0, 24), max_size=20),
        batch_bytes=st.sampled_from([4, 16, 64, 256, 1024]),
        read_factor=st.sampled_from([None, 0.1, 0.3, 1.0, 3.0]),
        write_factor=st.sampled_from([None, 0.25, 0.3, 0.5, 1.0]),
        full_range=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_fast_equals_naive(
        self, p, leaves, lengths, batch_bytes, read_factor, write_factor,
        full_range, seed,
    ):
        rng = random.Random(seed)
        span = 1 << 64 if full_range else 30
        runs = [sorted(rng.randrange(span) for _ in range(n)) for n in lengths]
        demand = p * RECORD_BYTES
        shape = dict(
            p=p, leaves=leaves, runs=runs, record_bytes=RECORD_BYTES,
            batch_bytes=batch_bytes, auto_shrink=False,
            read_bytes_per_cycle=None if read_factor is None else read_factor * demand,
            write_bytes_per_cycle=None if write_factor is None else write_factor * demand,
        )
        fast, naive = run_both(**shape)
        assert_identical(fast, naive, label=f"{shape}")
        assert run_values(fast[0]) == sorted_groups(runs, leaves)

    def test_unsorted_input_runs_the_stepper(self):
        """Unsorted runs (let through by ``check_sorted_inputs=False``)
        have no stable merge order; the stepper defines what they do."""
        runs = [[5, 1, 9], [2, 3], [8, 0], [4]]
        assert stage_engines(
            lambda: simulate_merge(2, 4, runs, check_sorted_inputs=False)
        ) == ["naive"]
        fast, naive = run_both(p=2, leaves=4, runs=runs, check_sorted_inputs=False)
        assert_identical(fast, naive, label="unsorted")
        assert fast[1].sweeps == 0

    @pytest.mark.parametrize("kind", ["int64_array", "float64_array", "int_list", "float_list"])
    @pytest.mark.parametrize("seed", range(4))
    def test_keys_outside_uint64_solve_on_ranks(self, kind, seed):
        """Negative and float keys run the timestamp engine on their
        dense ranks; runs, cycles and every counter equal the stepper's.
        Arrays come back in their own dtype, lists as object arrays of
        the caller's keys."""
        rng = random.Random(seed)
        floats = kind.startswith("float")
        keys = [rng.randrange(-50, 50) / (4 if floats else 1) for _ in range(120)]
        if not floats:
            keys = [int(key) for key in keys]
        cut = sorted(rng.sample(range(1, len(keys)), 10))
        runs = [sorted(keys[a:b]) for a, b in zip([0, *cut], [*cut, len(keys)])]
        if kind.endswith("array"):
            runs = [np.array(run, dtype=np.float64 if floats else np.int64) for run in runs]
        shape = dict(p=4, leaves=4, runs=runs, read_bytes_per_cycle=6.0, batch_bytes=32)
        assert stage_engines(lambda: simulate_merge(**shape)) == ["timestamp"]
        fast, naive = run_both(**shape)
        assert_identical(fast, naive, label=kind)
        assert_timestamp(fast[1])
        if kind.endswith("array"):
            dtype = np.dtype(np.float64 if floats else np.int64)
        else:
            dtype = np.dtype(object)
            assert {type(key) for run in fast[0] for key in run} == {float if floats else int}
        assert [run.dtype for run in fast[0]] == [dtype] * len(fast[0])
        assert run_values(fast[0]) == sorted_groups([list(run) for run in runs], 4)

    def test_output_dtype_contract(self):
        """Every stage returns one numpy array per group on both engines:
        arrays keep their dtype, in-range int lists become uint64, other
        int lists object arrays of the caller's ints.  Integer arrays
        with no common integer dtype, and unsorted runs, are rejected."""
        cases = [
            ([np.array(run, dtype=np.int64) for run in ([-7, -1, 4], [-3, 2], [0, 10**3])],
             np.int64, [[-7, -3, -1, 2, 4], [0, 1000]]),
            ([np.array(run) for run in ([-0.5, 2.25], [-3.0, 1e300])],
             np.float64, [[-3.0, -0.5, 2.25, 1e300]]),
            ([[3, 2**64 - 1], [0, 2**63]], np.uint64, [[0, 3, 2**63, 2**64 - 1]]),
            ([[-2**70, 5], [-1, 2**70 - 1], [2]], object,
             [[-2**70, -1, 5, 2**70 - 1], [2]]),
        ]
        for runs, dtype, expected in cases:
            fast, naive = run_both(p=2, leaves=2, runs=runs, auto_shrink=False)
            assert_identical(fast, naive, label=str(dtype))
            out, stats = fast
            assert_timestamp(stats)
            assert [run.dtype for run in out] == [np.dtype(dtype)] * len(expected)
            assert run_values(out) == expected
        # The object case holds the caller's own int objects.
        assert all(type(key) is int for key in out[0]) and out[0][0] is runs[0][0]
        mixed = [np.array([1, 2], dtype=np.int64), np.array([3], dtype=np.uint64)]
        for engine in ("fast", "naive"):
            with pytest.raises(ConfigurationError, match="no common integer dtype"):
                simulate_merge(2, 2, mixed, engine=engine)
        runs = [np.array(run, dtype=np.int64) for run in ([-7, -1, 4], [2, -3])]
        with pytest.raises(ConfigurationError, match="input run 1 is not sorted at value"):
            simulate_merge(2, 4, runs)

    @pytest.mark.parametrize("engine", ["fast", "naive"])
    def test_nan_keys_are_rejected(self, engine):
        for runs in ([[1.0, float("nan")], [2.0]], [np.array([np.nan, 1.0]), np.array([0.5])]):
            with pytest.raises(ConfigurationError, match="NaN keys have no merge order"):
                simulate_merge(2, 2, runs, engine=engine)

    def test_stuck_writer_without_records_is_solved(self):
        """A credit cap below one root tuple only matters with a tuple to
        write: a stage of empty runs finishes on terminals alone."""
        fast, naive = run_both(
            p=16, leaves=4, runs=[[], [], [], []], write_bytes_per_cycle=2.0,
        )
        assert_identical(fast, naive, label="stuck writer")
        assert_timestamp(fast[1])

    def test_stuck_writer_with_records_raises(self):
        with pytest.raises(SimulationError, match=(
            r"write budget 3 bytes/cycle caps the writer's credit at 12 bytes, "
            r"below one 16-byte root tuple: the AMT\(4, 4\) stage of 3 records "
            r"in 4 runs can never write a record"
        )):
            simulate_merge(4, 4, [[1], [], [2, 3], []], write_bytes_per_cycle=3.0)

    def test_max_cycles_raises_on_both_engines(self):
        """At its exact cycle count the stage fits its budget; one cycle
        less and both engines raise, the timestamp engine naming the
        cycles the stage needs."""
        runs = gen_runs(random.Random(2), 8, 40, "rand")
        shape = dict(p=4, leaves=8, runs=runs, read_bytes_per_cycle=3.0)
        _out, stats = simulate_merge(engine="naive", **shape)
        exact_fast, exact_naive = run_both(max_cycles=stats.cycles, **shape)
        assert_identical(exact_fast, exact_naive, label="budget met")
        assert_timestamp(exact_fast[1])
        fast, naive = run_both(max_cycles=stats.cycles - 1, **shape)
        assert isinstance(naive, SimulationError)
        assert str(naive).startswith(
            f"simulation did not complete within {stats.cycles - 1} cycles; "
            "likely deadlock or missing terminal\nstall snapshot"
        )
        assert isinstance(fast, SimulationError)
        assert str(fast) == (
            f"simulation did not complete within {stats.cycles - 1} cycles: the "
            f"AMT(4, 8) stage of 320 records in 8 runs needs {stats.cycles}"
        )

    def test_read_transfers_over_budget_raise_before_sweeping(self, monkeypatch):
        """Read transfers alone over the budget: no sweep is needed to
        know the stage cannot finish."""
        monkeypatch.setattr(timestamp._Stage, "sweep", None)
        with pytest.raises(SimulationError, match=(
            r"simulation did not complete within 100 cycles: the AMT\(2, 2\) "
            r"stage of 400 records in 2 runs spends 400 cycles on read transfers"
        )):
            simulate_merge(
                2, 2, [list(range(200)), list(range(200))],
                read_bytes_per_cycle=4.0, max_cycles=100,
            )

    def test_times_past_int32_range_raise(self, monkeypatch):
        """A time at or past ``_TIME_LIMIT`` stops the sweeps before the
        int32 arrays can wrap.  With the limit between the stage's read
        transfers (400) and its cycle count (603), the transfer check
        passes and the sweep that writes the latest times raises."""
        shape = dict(
            p=2, leaves=2, runs=[list(range(200)), list(range(200))],
            read_bytes_per_cycle=4.0,
        )
        _out, stats = simulate_merge(**shape)
        transfers = stats.loader_stats.cycles_bandwidth_limited
        assert (transfers, stats.cycles) == (400, 603)
        monkeypatch.setattr(timestamp, "_TIME_LIMIT", 500)
        with pytest.raises(SimulationError, match=(
            r"simulation did not complete within 500 cycles, the timestamp "
            r"engine's int32 range: the AMT\(2, 2\) stage of 400 records in 2 "
            r"runs needs more"
        )):
            simulate_merge(**shape)

    @pytest.mark.parametrize("seed", range(16))
    def test_sweeps_extend_an_exact_prefix(self, seed, monkeypatch):
        """Why the uncapped sweeps end.  They are not monotone, but after
        each one some cycle ``T`` has every time below it exact and every
        other time at least ``min(fixed point, T)``, and the largest such
        ``T`` rises at least once every ``levels + 1`` sweeps."""
        history = []
        sweep = timestamp._Stage.sweep

        def recording(stage):
            changed = sweep(stage)
            history.append((stage.V.copy(), stage.W.copy(), len(stage.levels)))
            return changed

        monkeypatch.setattr(timestamp._Stage, "sweep", recording)
        simulate_merge(**random_shape(seed))
        final_v, final_w, levels = history[-1]
        prefix, stalled = -1, 0
        for v, w, _levels in history:
            bounds = [
                np.where(now > fixed, fixed, now)[now != fixed]
                for now, fixed in ((v, final_v), (w, final_w))
            ]
            rising = min((int(b.min()) for b in bounds if b.size), default=1 << 30)
            stalled = 0 if rising > prefix else stalled + 1
            prefix = max(prefix, rising)
            assert stalled <= levels + 1


class TestNoFallbacks:
    """The ledger's simulate shapes at their ``SMOKE`` sizes run the
    timestamp engine on every stage (benchmarks/ledger/workloads.py)."""

    def run_observed(self, fn):
        """Run ``fn`` traced: every stage runs the timestamp engine, with
        one build and one sweeps span inside its ``hw.merge_stage``."""
        live = live_observation()
        with activated(live):
            fn()
        registry = live.registry
        assert registry.counter_total("sim.engine_sweeps") > 0
        spans = live.sink.spans()
        stages = [s for s in spans if s["name"] == "hw.merge_stage"]
        assert stages and all(s["attrs"]["engine"] == "timestamp" for s in stages)
        assert all(s["attrs"]["sweeps"] > 0 for s in stages)
        for stage in stages:
            build, sweeps = sorted(
                (s for s in spans if s["parent"] == stage["span"]), key=lambda s: s["name"]
            )
            assert (build["name"], sweeps["name"]) == ("hw.timestamp.build", "hw.timestamp.sweeps")
            assert sweeps["attrs"]["sweeps"] == stage["attrs"]["sweeps"]
            assert build["dur_s"] + sweeps["dur_s"] <= stage["dur_s"]
        return registry

    def test_simulate_compute(self):
        job = SortJob(
            records=1_500, workload="uniform", seed=1, p=8, leaves=16, mode="simulate",
        )
        payloads = []
        registry = self.run_observed(lambda: payloads.append(SortSession().run_sort(job)))
        assert payloads[0]["records"] == 1_500
        assert registry.counter_value("sim.stages") == payloads[0]["stages"]

    def test_simulate_storage(self):
        rng = random.Random(1)
        keys = [rng.randrange(1 << 32) for _ in range(3_000)]
        runs = [sorted(keys[i : i + PRESORT_RUN]) for i in range(0, len(keys), PRESORT_RUN)]

        def sort():
            nonlocal runs
            while len(runs) > 1:
                runs, _stats = simulate_merge(
                    16, 4, runs, read_bytes_per_cycle=0.02 * 16 * RECORD_BYTES,
                    batch_bytes=4096, check_sorted_inputs=False,
                )

        self.run_observed(sort)
        assert runs[0].tolist() == sorted(keys)


class TestLedgerIterates:
    """The ledger's two simulate shapes at full size
    (benchmarks/ledger/workloads.py), pinned per stage: a change to the
    sweep kernel that skips or adds a sweep, or moves a cycle, fails
    here."""

    def test_simulate_compute(self):
        job = SortJob(
            records=30_000, workload="uniform", seed=1, p=8, leaves=16, mode="simulate",
        )
        live = live_observation()
        with activated(live):
            payload = SortSession().run_sort(job)
        stages = [
            (s["cycles"], s["attrs"]["sweeps"])
            for s in live.sink.spans() if s["name"] == "hw.merge_stage"
        ]
        assert stages == [(4155, 9), (4112, 20), (4235, 15)]
        assert payload["digest"] == "837d6e2f5f716012"

    def test_simulate_storage(self):
        keys = generate(WorkloadSpec(kind="uniform", n_records=48_000, seed=1))
        runs = [run.tolist() for run in split_into_runs(keys, PRESORT_RUN)]
        stages = []
        while len(runs) > 1:
            runs, stats = simulate_merge(
                16, 4, runs, read_bytes_per_cycle=0.02 * 16 * RECORD_BYTES,
                batch_bytes=4096, check_sorted_inputs=False,
            )
            stages.append((stats.cycles, stats.sweeps))
        assert [cycles for cycles, _sweeps in stages] == [
            151_414, 150_305, 150_195, 150_238, 150_251, 150_257,
        ]
        assert [sweeps for _cycles, sweeps in stages] == [37, 37, 4, 5, 5, 39]
        assert content_digest(np.array(runs[0], dtype=np.uint64)) == "324705bb7452fce3"
