"""Process-safety analysis (``proc-*`` rules) tests.

The worker-reachable closure starts at the ``worker_*`` entries of
``repro.parallel.workers`` and — once a simulator driver is reached —
conservatively includes every ``repro.hw`` component's per-cycle
methods, mirroring the simulator's dynamic dispatch.  Each rule's
true-positive fixture is paired with its documented false-positive
guard: local writes, the sanctioned ``repro.obs`` path, cold code,
returned-block ownership transfer, and picklable payloads.
"""

from __future__ import annotations

from tests.lint.test_graph import check_tree  # noqa: F401  (fixture)

WORKER_CALLS_HELPER = """
    from repro.parallel.logic import accumulate


    def worker_sum(payload):
        return accumulate(payload)
"""


class TestGlobalWrite:
    def test_global_statement_in_reachable_helper(self, check_tree):
        result = check_tree({
            "src/repro/parallel/workers.py": WORKER_CALLS_HELPER,
            "src/repro/parallel/logic.py": """
                TOTAL = 0


                def accumulate(payload):
                    global TOTAL
                    TOTAL = TOTAL + sum(payload)
                    return TOTAL
            """,
        }, select=["proc-global-write"])
        assert [d.rule for d in result.diagnostics] == ["proc-global-write"]
        message = result.diagnostics[0].message
        assert "parallel.logic.accumulate" in message
        assert "worker_observation" in message

    def test_class_attribute_write_in_reachable_helper(self, check_tree):
        result = check_tree({
            "src/repro/parallel/workers.py": WORKER_CALLS_HELPER,
            "src/repro/parallel/logic.py": """
                class Counters:
                    seen = 0


                def accumulate(payload):
                    Counters.seen = Counters.seen + len(payload)
                    return sum(payload)
            """,
        }, select=["proc-global-write"])
        assert [d.rule for d in result.diagnostics] == ["proc-global-write"]
        assert "Counters.seen" in result.diagnostics[0].message

    def test_local_write_is_silent(self, check_tree):
        # FP guard: rebinding a local of the same name as nothing global
        result = check_tree({
            "src/repro/parallel/workers.py": WORKER_CALLS_HELPER,
            "src/repro/parallel/logic.py": """
                def accumulate(payload):
                    total = 0
                    for value in payload:
                        total = total + value
                    return total
            """,
        }, select=["proc-global-write"])
        assert result.diagnostics == ()

    def test_sanctioned_obs_path_is_exempt(self, check_tree):
        # FP guard: repro.obs implements the worker_observation/absorb
        # payload path — its own state management is the escape hatch
        result = check_tree({
            "src/repro/parallel/workers.py": """
                from repro.obs.collect import note


                def worker_sum(payload):
                    note(len(payload))
                    return sum(payload)
            """,
            "src/repro/obs/collect.py": """
                PENDING = []


                def note(value):
                    global PENDING
                    PENDING = PENDING + [value]
            """,
        }, select=["proc-global-write"])
        assert result.diagnostics == ()

    def test_unreachable_writer_is_silent(self, check_tree):
        # the helper writes a global but no worker entry reaches it
        result = check_tree({
            "src/repro/parallel/workers.py": """
                def worker_sum(payload):
                    return sum(payload)
            """,
            "src/repro/parallel/logic.py": """
                TOTAL = 0


                def accumulate(payload):
                    global TOTAL
                    TOTAL = TOTAL + sum(payload)
                    return TOTAL
            """,
        }, select=["proc-global-write"])
        assert result.diagnostics == ()

    def test_simulator_driver_expands_to_component_ticks(self, check_tree):
        # worker -> Simulation.run: the component's tick is reachable
        # only through the simulator's dynamic dispatch, which the pass
        # models by pulling in every hw component's per-cycle methods
        result = check_tree({
            "src/repro/parallel/workers.py": """
                from repro.hw.clock import Simulation


                def worker_simulate(job):
                    sim = Simulation(job)
                    return sim.run(job)
            """,
            "src/repro/hw/clock.py": """
                class Simulation:
                    def __init__(self, components):
                        self.components = components

                    def run(self, budget):
                        return budget
            """,
            "src/repro/hw/probe.py": """
                LAST_CYCLE = 0


                class Probe:
                    def tick(self, cycle):
                        global LAST_CYCLE
                        LAST_CYCLE = cycle
            """,
        }, select=["proc-global-write"])
        assert [d.rule for d in result.diagnostics] == ["proc-global-write"]
        assert "hw.probe.Probe.tick" in result.diagnostics[0].message

    def test_no_driver_no_component_expansion(self, check_tree):
        # FP guard for the expansion itself: without a reachable
        # simulator driver the component tick stays out of the closure
        result = check_tree({
            "src/repro/parallel/workers.py": """
                def worker_sum(payload):
                    return sum(payload)
            """,
            "src/repro/hw/probe.py": """
                LAST_CYCLE = 0


                class Probe:
                    def tick(self, cycle):
                        global LAST_CYCLE
                        LAST_CYCLE = cycle
            """,
        }, select=["proc-global-write"])
        assert result.diagnostics == ()


class TestUnpicklable:
    STATE = """
        from threading import Lock


        class SharedState:
            lock: Lock
            values: list
    """

    def test_annotated_param_with_lock_member(self, check_tree):
        result = check_tree({
            "src/repro/parallel/state.py": self.STATE,
            "src/repro/parallel/workers.py": """
                from repro.parallel.state import SharedState


                def worker_fold(state: SharedState):
                    return state.values
            """,
        }, select=["proc-unpicklable"])
        assert [d.rule for d in result.diagnostics] == ["proc-unpicklable"]
        message = result.diagnostics[0].message
        assert "state: SharedState" in message
        assert "'lock' (Lock)" in message

    def test_picklable_class_is_silent(self, check_tree):
        result = check_tree({
            "src/repro/parallel/state.py": """
                class PlainState:
                    values: list
                    name: str
            """,
            "src/repro/parallel/workers.py": """
                from repro.parallel.state import PlainState


                def worker_fold(state: PlainState):
                    return state.values
            """,
        }, select=["proc-unpicklable"])
        assert result.diagnostics == ()

    def test_tainted_class_outside_worker_closure_is_silent(self, check_tree):
        # FP guard: only worker-reachable signatures are checked — main-
        # process code may hold locks freely
        result = check_tree({
            "src/repro/parallel/state.py": self.STATE,
            "src/repro/parallel/driver.py": """
                from repro.parallel.state import SharedState


                def orchestrate(state: SharedState):
                    return state.values
            """,
            "src/repro/parallel/workers.py": """
                def worker_fold(payload):
                    return sum(payload)
            """,
        }, select=["proc-unpicklable"])
        assert result.diagnostics == ()


class TestShmLifetime:
    def test_unbound_owning_allocation(self, check_tree):
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def scratch(n_bytes):
                    SharedMemory(create=True, size=n_bytes)
            """,
        }, select=["proc-shm-lifetime"])
        assert [d.rule for d in result.diagnostics] == ["proc-shm-lifetime"]
        assert "without binding it" in result.diagnostics[0].message

    def test_bound_but_never_released(self, check_tree):
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def scratch(n_bytes):
                    block = SharedMemory(create=True, size=n_bytes)
                    return n_bytes
            """,
        }, select=["proc-shm-lifetime"])
        assert [d.rule for d in result.diagnostics] == ["proc-shm-lifetime"]
        assert "never unlinks or releases" in result.diagnostics[0].message

    def test_unlinked_block_is_clean(self, check_tree):
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def scratch(n_bytes):
                    block = SharedMemory(create=True, size=n_bytes)
                    try:
                        return bytes(block.buf[:n_bytes])
                    finally:
                        block.close()
                        block.unlink()
            """,
        }, select=["proc-shm-lifetime"])
        assert result.diagnostics == ()

    def test_returned_block_transfers_ownership(self, check_tree):
        # documented FP guard: returning the block hands the lifetime
        # obligation to the caller
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def scratch(n_bytes):
                    block = SharedMemory(create=True, size=n_bytes)
                    return block
            """,
        }, select=["proc-shm-lifetime"])
        assert result.diagnostics == ()

    def test_project_allocator_released_via_release(self, check_tree):
        result = check_tree({
            "src/repro/parallel/shm.py": """
                def pack_arrays(arrays):
                    return arrays


                def release(block):
                    return block
            """,
            "src/repro/parallel/buffers.py": """
                from repro.parallel.shm import pack_arrays, release


                def roundtrip(arrays):
                    block = pack_arrays(arrays)
                    release(block)


                def leak(arrays):
                    block = pack_arrays(arrays)
                    return len(arrays)
            """,
        }, select=["proc-shm-lifetime"])
        assert [d.rule for d in result.diagnostics] == ["proc-shm-lifetime"]
        finding = result.diagnostics[0]
        assert "parallel.buffers.leak" in finding.message
        assert "'block'" in finding.message

    LEASE_PLAN = """
        from contextlib import contextmanager


        @contextmanager
        def lease():
            yield None
    """

    def test_lease_outside_with_is_flagged(self, check_tree):
        result = check_tree({
            "src/repro/parallel/plan.py": self.LEASE_PLAN,
            "src/repro/parallel/buffers.py": """
                from repro.parallel.plan import lease


                def scoped(arrays):
                    with lease() as arena:
                        return arena.pack(arrays)


                def handed_on():
                    return lease()


                def unscoped(arrays):
                    held = lease()
                    arena = held.__enter__()
                    descriptor = arena.pack(arrays)
                    held.__exit__(None, None, None)
                    return descriptor
            """,
        }, select=["proc-shm-lifetime"])
        assert [d.rule for d in result.diagnostics] == ["proc-shm-lifetime"]
        finding = result.diagnostics[0]
        assert "parallel.buffers.unscoped" in finding.message
        assert "outside a `with` statement" in finding.message

    def test_use_after_close(self, check_tree):
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def attach_and_read(ref, consume):
                    block = SharedMemory(name=ref)
                    first = consume(block)
                    block.close()
                    return first + consume(block)
            """,
        }, select=["proc-shm-lifetime"])
        assert [d.rule for d in result.diagnostics] == ["proc-shm-lifetime"]
        assert "after its close()" in result.diagnostics[0].message

    def test_use_before_close_is_clean(self, check_tree):
        # FP guard: accesses above the close() line are fine, and the
        # close()/unlink() pair itself is not a use
        result = check_tree({
            "src/repro/parallel/buffers.py": """
                from multiprocessing.shared_memory import SharedMemory


                def attach_and_read(ref, consume):
                    block = SharedMemory(name=ref)
                    first = consume(block)
                    block.close()
                    return first
            """,
        }, select=["proc-shm-lifetime"])
        assert result.diagnostics == ()
