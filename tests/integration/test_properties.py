"""Cross-layer property tests.

The cycle simulator (`repro.hw`) and the vectorised functional engine
(`repro.engine.stage`) both merge a stage's keys through one group sort,
so Hypothesis drives each against Python's own sorted() rather than
against the other, plus model-level invariants the paper relies on
(monotonicity of the optimizer in hardware generosity).
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import presets
from repro.core.configuration import AmtConfig
from repro.core.optimizer import Bonsai
from repro.core.parameters import ArrayParams, HardwareParams, MergerArchParams
from repro.engine.sorter import AmtSorter
from repro.engine.stage import merge_stage, split_into_runs
from repro.hw.banks import UnrolledSimulation
from repro.hw.pipeline import PipelineSimulation
from repro.hw.tree import simulate_merge
from repro.units import GB, KiB
from tests.conftest import run_values


def runs_over(keys: st.SearchStrategy) -> st.SearchStrategy:
    """Small lists of sorted runs drawn from ``keys``."""
    return st.lists(
        st.lists(keys, min_size=0, max_size=24).map(sorted),
        min_size=0,
        max_size=12,
    )


# Sorted runs over a narrow key space (narrow keys maximise duplicate and
# tie coverage) or over the whole uint64 range.
runs_strategy = st.one_of(
    runs_over(st.integers(1, 50)), runs_over(st.integers(0, 2**64 - 1))
)


def grouped_sorted(runs: list[list[int]], leaves: int) -> list[list[int]]:
    """The stage oracle: output run ``j`` is ``sorted()`` of input runs
    ``[j * leaves, (j + 1) * leaves)``; a stage without runs gives one
    empty run."""
    return [
        sorted(key for run in runs[start : start + leaves] for key in run)
        for start in range(0, max(len(runs), 1), leaves)
    ]


class TestSimulatorMatchesFunctionalEngine:
    @given(runs_strategy, st.sampled_from([(1, 2), (2, 4), (4, 4), (8, 8)]))
    @settings(max_examples=60, deadline=None)
    def test_same_output_runs(self, runs, shape):
        """Both engines against a per-group ``sorted()``, not each other:
        they share :func:`~repro.engine.stage.sort_groups`."""
        p, leaves = shape
        expected = grouped_sorted(runs, leaves)
        simulated, _ = simulate_merge(
            p=p, leaves=leaves, runs=runs, check_sorted_inputs=False
        )
        functional = merge_stage(
            [np.array(run, dtype=np.uint64) for run in runs], leaves
        )
        assert run_values(simulated) == expected
        assert run_values(functional) == expected

    @given(runs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_both_match_python_sorted(self, runs):
        simulated, _ = simulate_merge(
            p=2, leaves=16, runs=runs, check_sorted_inputs=False
        )
        merged = [x for run in run_values(simulated) for x in run]
        assert merged == sorted(x for run in runs for x in run)


class TestRecordConservation:
    @given(runs_strategy, st.sampled_from([2, 4, 8]))
    @settings(max_examples=40, deadline=None)
    def test_no_records_created_or_lost(self, runs, p):
        simulated, stats = simulate_merge(
            p=p, leaves=4, runs=runs, check_sorted_inputs=False
        )
        in_multiset = sorted(x for run in runs for x in run)
        out_multiset = sorted(x for run in simulated for x in run)
        assert in_multiset == out_multiset
        assert stats.records_in == stats.records_out == len(in_multiset)


#: Run containers a stage is drawn in, and the keys each one holds:
#: Python ints in ``[-2**70, 2**70)`` for lists, the dtype's whole range
#: for arrays.
RUN_CONTAINERS = {
    "list": (-2**70, 2**70),
    "uint32": (0, 2**32),
    "uint64": (0, 2**64),
    "int64": (-2**63, 2**63),
}


def stage_dtype(runs) -> np.dtype:
    """The dtype ``simulate_merge`` returns ``runs`` in: array runs keep
    theirs, other runs are uint64 when every key is an int in
    ``[0, 2**64)`` and object otherwise."""
    if runs and all(isinstance(run, np.ndarray) for run in runs):
        return runs[0].dtype
    in_range = all(0 <= key < 2**64 for run in runs for key in run)
    return np.dtype(np.uint64 if in_range else object)


@st.composite
def simulator_stages(draw):
    """A ``simulate_merge`` stage over keys from the engine's whole
    range, in a drawn run container (``RUN_CONTAINERS``), with drawn
    read and write budgets and batch size.  A small key pool makes ties
    abound.  Writes get at least a quarter root tuple per cycle, below
    which the writer can never drain the root."""
    p = draw(st.sampled_from([1, 2, 4, 8]))
    demand = p * 4
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    container = draw(st.sampled_from(sorted(RUN_CONTAINERS)))
    low, high = RUN_CONTAINERS[container]
    pool = [rng.randrange(low, high) for _ in range(draw(st.sampled_from([3, 500])))]
    runs = [
        sorted(rng.choice(pool) for _ in range(length))
        for length in draw(st.lists(st.integers(0, 30), max_size=12))
    ]
    if container != "list":
        runs = [np.array(run, dtype=container) for run in runs]
    read = draw(st.sampled_from([None, 0.05, 0.25, 1.0, 3.0]))
    write = draw(st.sampled_from([None, 0.25, 0.5, 1.0, 3.0]))
    return dict(
        p=p, leaves=draw(st.sampled_from([2, 4, 8, 16])), runs=runs, record_bytes=4,
        read_bytes_per_cycle=None if read is None else read * demand,
        write_bytes_per_cycle=None if write is None else write * demand,
        batch_bytes=draw(st.sampled_from([4, 16, 64, 256, 4096])),
    )


class TestSimulatorEngines:
    @given(simulator_stages())
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_naive(self, shape):
        """The timestamp engine and the per-cycle stepper give the same
        runs, cycles and ``StageStats`` counters over the whole key range,
        every run container and any memory budget, and return the runs in
        the container's dtype."""
        fast_runs, fast = simulate_merge(engine="fast", **shape)
        naive_runs, naive = simulate_merge(engine="naive", **shape)
        dtype = stage_dtype(shape["runs"])
        assert all(isinstance(run, np.ndarray) for run in fast_runs + naive_runs)
        assert [run.dtype for run in fast_runs] == [dtype] * len(fast_runs)
        assert [run.dtype for run in naive_runs] == [dtype] * len(naive_runs)
        assert run_values(fast_runs) == run_values(naive_runs)
        assert fast.cycles == naive.cycles
        assert fast == naive
        assert fast.sweeps > 0 and naive.sweeps == 0
        keys = sorted(int(key) for run in shape["runs"] for key in run)
        assert sorted(int(key) for run in fast_runs for key in run) == keys


def draw_keys(draw, count: int) -> np.ndarray:
    """``count`` seeded keys: uint32, or uint64 over the full range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 2**32, size=count, dtype=np.uint32)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64)


@st.composite
def unrolled_runs(draw):
    """An unrolled simulation, its input keys, and nothing else: every
    unit's write budget is at least a quarter root tuple (``p·r/4``),
    below which the writer can never drain the root."""
    p = draw(st.sampled_from([1, 2, 4, 8]))
    lam = draw(st.integers(2, 4))
    record_bytes = draw(st.sampled_from([4, 8, 16]))
    share = draw(st.sampled_from([0.25, 0.5, 1.0, 4.0]))
    sim = UnrolledSimulation(
        p=p,
        leaves=draw(st.sampled_from([2, 4, 8, 16])),
        lambda_unroll=lam,
        record_bytes=record_bytes,
        presort_run=draw(st.sampled_from([4, 16, 32])),
        total_bytes_per_cycle=lam * share * p * record_bytes,
        batch_bytes=draw(st.sampled_from([256, 512, 1024])),
    )
    return sim, draw_keys(draw, draw(st.integers(0, 1500)))


@st.composite
def pipeline_runs(draw):
    """A pipeline within its Eq. 5 capacity, and its queue of arrays."""
    p = draw(st.sampled_from([1, 2, 4, 8]))
    record_bytes = draw(st.sampled_from([4, 8, 16]))
    share = draw(st.sampled_from([0.25, 0.5, 1.0, 4.0]))
    pipeline = PipelineSimulation(
        p=p,
        leaves=draw(st.sampled_from([2, 4, 8])),
        lambda_pipe=draw(st.integers(2, 3)),
        record_bytes=record_bytes,
        presort_run=draw(st.sampled_from([4, 8, 16])),
        bank_bytes_per_cycle=share * p * record_bytes,
        batch_bytes=draw(st.sampled_from([256, 512, 1024])),
    )
    most = min(pipeline.capacity_records(), 600)
    lengths = draw(st.lists(st.integers(0, most), min_size=1, max_size=4))
    return pipeline, [draw_keys(draw, length) for length in lengths]


class TestUnrolledAndPipelinedSurfaces:
    """Every unrolled and pipelined shape sorts like ``np.sort``, and its
    cycle accounting adds up."""

    @given(unrolled_runs())
    @settings(max_examples=25, deadline=None)
    def test_unrolled(self, drawn):
        sim, keys = drawn
        total = sim.run(keys)
        assert sim.output.dtype == np.uint64
        assert np.array_equal(sim.output, np.sort(keys))
        assert total == sim.parallel_cycles + sim.final_merge_cycles
        assert sim.parallel_cycles == max(sim.unit_cycles)

    @given(pipeline_runs())
    @settings(max_examples=25, deadline=None)
    def test_pipelined(self, drawn):
        pipeline, arrays = drawn
        total = pipeline.run(arrays)
        for index, keys in enumerate(arrays):
            assert pipeline.outputs[index].dtype == np.uint64
            assert np.array_equal(pipeline.outputs[index], np.sort(keys))
        completions = [pipeline.completion_cycles[i] for i in range(len(arrays))]
        assert completions == sorted(completions)
        assert total == completions[-1] + 1


#: Model-mode key dtypes: numpy's 8- and 16-bit sorts, 32 bits, full-range
#: uint64, signed keys with negatives, and floats holding equal keys with
#: different bytes (±0.0, NaN payloads).
MODEL_DTYPES = ("uint8", "uint16", "uint32", "uint64", "int64", "float64")
FLOAT_SPECIALS = np.array(
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0], dtype=np.float64
)
#: A quiet NaN with a nonzero payload: same order as ``np.nan``, other bytes.
PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)


def draw_model_keys(draw, dtype: str, count: int) -> np.ndarray:
    """``count`` seeded keys of ``dtype`` over its full range, optionally
    squeezed onto a few distinct values so that ties abound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == "float64":
        keys = rng.standard_normal(count) * 1e3
        specials = rng.random(count) < 0.4
        pool = np.concatenate([FLOAT_SPECIALS, PAYLOAD_NAN])
        keys[specials] = rng.choice(pool, size=int(specials.sum()))
    else:
        info = np.iinfo(dtype)
        keys = rng.integers(info.min, info.max, size=count, dtype=dtype, endpoint=True)
    if count and draw(st.booleans()):
        keys = rng.choice(keys[: max(1, count // 8)], size=count)
    return keys


@st.composite
def model_sorts(draw):
    """A model-mode sorter shape and its input, presorted in runs of
    ``presort_run`` records when ``input_presorted`` is drawn."""
    dtype = draw(st.sampled_from(MODEL_DTYPES))
    presort_run = draw(st.sampled_from([1, 2, 4, 16, 37]))
    leaves = draw(st.sampled_from([2, 4, 8, 16]))
    keys = draw_model_keys(draw, dtype, draw(st.integers(0, 3000)))
    presorted = draw(st.booleans())
    if presorted:
        # ``keys[:0]`` keeps the dtype when there are no runs at all.
        keys = np.concatenate([keys[:0], *split_into_runs(keys, presort_run)])
    return keys, presort_run, leaves, presorted


@st.composite
def irregular_runs(draw):
    """Sorted runs of random lengths (empty ones included), of one dtype
    or of mixed dtypes, and a merge width."""
    dtypes = draw(
        st.lists(st.sampled_from(MODEL_DTYPES), min_size=1, max_size=3, unique=True)
    )
    runs = []
    for _ in range(draw(st.integers(0, 14))):
        dtype = draw(st.sampled_from(dtypes))
        keys = draw_model_keys(draw, dtype, draw(st.sampled_from([0, 0, 1, 5, 40, 300])))
        runs.append(np.sort(keys, kind="stable"))
    return runs, draw(st.sampled_from([2, 3, 4, 16]))


def reference_stages(keys, presort_run, leaves, presorted) -> int:
    """Stage count of the list path: split, then merge until one run."""
    runs = split_into_runs(keys, presort_run, presorted=presorted)
    stages = 0
    while len(runs) > 1 or stages == 0:
        runs = merge_stage(runs, leaves)
        stages += 1
    return stages


class TestModelSurface:
    """The model-mode data path sorts every dtype exactly like a stable
    ``np.sort``, byte for byte, in the list path's number of stages."""

    @given(model_sorts())
    @settings(max_examples=80, deadline=None)
    def test_amt_sorter_equals_stable_sort(self, drawn):
        keys, presort_run, leaves, presorted = drawn
        sorter = AmtSorter(
            config=AmtConfig(p=4, leaves=leaves),
            hardware=presets.aws_f1_measured().hardware,
            presort_run=presort_run,
        )
        outcome = sorter.sort(keys, input_presorted=presorted)
        expected = np.sort(keys, kind="stable")
        assert outcome.data.dtype == expected.dtype
        assert outcome.data.tobytes() == expected.tobytes()
        if keys.size:
            assert outcome.stages == reference_stages(keys, presort_run, leaves, presorted)

    @given(irregular_runs())
    @settings(max_examples=120, deadline=None)
    def test_merge_stage_equals_per_group_stable_sort(self, drawn):
        runs, leaves = drawn
        out = merge_stage(runs, leaves)
        groups = [runs[start : start + leaves] for start in range(0, len(runs), leaves)]
        assert len(out) == max(1, len(groups))
        for merged, group in zip(out, groups):
            filled = [run for run in group if run.size]
            if filled:
                expected = np.sort(np.concatenate(filled), kind="stable")
            else:
                expected = group[-1]
            assert merged.dtype == expected.dtype
            assert merged.tobytes() == expected.tobytes()


class TestOptimizerMonotonicity:
    """More generous hardware can never make the optimum worse."""

    def _bonsai(self, beta=32 * GB, lut=862_128, bram=1 * 2**20) -> Bonsai:
        hardware = HardwareParams(
            beta_dram=beta, beta_io=8 * GB, c_dram=64 * GB,
            c_bram=bram, c_lut=lut, batch_bytes=4 * KiB,
        )
        return Bonsai(hardware=hardware, arch=MergerArchParams())

    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))
    @settings(max_examples=8, deadline=None)
    def test_latency_monotone_in_bandwidth(self, beta_gb):
        array = ArrayParams.from_bytes(8 * GB)
        slower = self._bonsai(beta=beta_gb * GB).latency_optimal(array)
        faster = self._bonsai(beta=2 * beta_gb * GB).latency_optimal(array)
        assert faster.latency_seconds <= slower.latency_seconds + 1e-12

    @given(st.sampled_from([50_000, 200_000, 862_128]))
    @settings(max_examples=3, deadline=None)
    def test_latency_monotone_in_lut_capacity(self, lut):
        array = ArrayParams.from_bytes(8 * GB)
        small = self._bonsai(lut=lut).latency_optimal(array)
        large = self._bonsai(lut=4 * lut).latency_optimal(array)
        assert large.latency_seconds <= small.latency_seconds + 1e-12

    @given(st.sampled_from([64 * 2**10, 256 * 2**10, 2**20]))
    @settings(max_examples=3, deadline=None)
    def test_latency_monotone_in_bram(self, bram):
        array = ArrayParams.from_bytes(8 * GB)
        small = self._bonsai(bram=bram).latency_optimal(array)
        large = self._bonsai(bram=8 * bram).latency_optimal(array)
        assert large.latency_seconds <= small.latency_seconds + 1e-12

    def test_latency_monotone_in_input_size(self):
        bonsai = presets.aws_f1().bonsai()
        sizes = [GB, 2 * GB, 8 * GB, 32 * GB]
        latencies = [
            bonsai.latency_optimal(ArrayParams.from_bytes(size)).latency_seconds
            for size in sizes
        ]
        assert latencies == sorted(latencies)


class TestModelPhysicality:
    """Eq.-level invariants: no configuration beats physics."""

    @given(
        st.sampled_from([1, 4, 32]),
        st.sampled_from([4, 64, 1024]),
        st.sampled_from([1, 2, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_latency_respects_io_bound(self, p, leaves, lam):
        platform = presets.aws_f1()
        model = platform.bonsai().performance
        array = ArrayParams.from_bytes(4 * GB)
        config = AmtConfig(p=p, leaves=leaves, lambda_unroll=lam)
        bound = array.total_bytes / platform.hardware.beta_dram
        assert model.latency_unrolled(config, array) >= bound - 1e-9

    @given(st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=4, deadline=None)
    def test_pipeline_throughput_bounded_by_io(self, lam):
        platform = presets.ssd_node()
        model = platform.bonsai().performance
        config = AmtConfig(p=8, leaves=64, lambda_pipe=lam)
        assert model.pipeline_throughput(config) <= platform.hardware.beta_io
