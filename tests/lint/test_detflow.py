"""Determinism-taint analysis (``det-*`` rules) tests.

Each rule's true-positive fixture is paired with its documented
false-positive guard: seeded RNGs threaded from config, ``sorted()``
order-laundering, and the sanctioned ``repro.obs``/``repro.serve.server``
wall-clock reads.  The acceptance fixture routes an unseeded RNG three
calls deep before it reaches an evidence sink.
"""

from __future__ import annotations

from tests.lint.test_graph import check_tree  # noqa: F401  (fixture)

OBS_TRACE = """
    def record(payload):
        return payload
"""


class TestTaintSink:
    def test_unseeded_rng_three_calls_from_sink(self, check_tree):
        # acceptance: noise -> mid -> deep -> record(); the source sits
        # three calls away from the sink and still surfaces there
        result = check_tree({
            "src/repro/obs/trace.py": OBS_TRACE,
            "src/repro/core/helper.py": """
                import random


                def noise():
                    return random.random()


                def mid():
                    return noise()


                def deep():
                    return mid()
            """,
            "src/repro/records/out.py": """
                from repro.core.helper import deep
                from repro.obs.trace import record


                def save():
                    return record(deep())
            """,
        }, select=["det-taint-sink"])
        assert [d.rule for d in result.diagnostics] == ["det-taint-sink"]
        finding = result.diagnostics[0]
        assert "repro.obs.trace.record()" in finding.message
        assert "random.random()" in finding.message
        # the related location points at the source, not the sink
        assert finding.related
        assert finding.related[0]["path"].endswith("helper.py")

    def test_digest_sink_through_stdlib_conversions(self, check_tree):
        # taint survives str()/encode() on the way into hashlib
        result = check_tree({
            "src/repro/core/helper.py": """
                import time


                def stamp():
                    return time.time()
            """,
            "src/repro/records/digest.py": """
                import hashlib

                from repro.core.helper import stamp


                def fingerprint():
                    return hashlib.sha256(str(stamp()).encode()).hexdigest()
            """,
        }, select=["det-taint-sink"])
        assert [d.rule for d in result.diagnostics] == ["det-taint-sink"]
        assert "hashlib.sha256()" in result.diagnostics[0].message

    def test_sorted_keeps_value_taint(self, check_tree):
        # sorting random numbers fixes their order, not their values
        result = check_tree({
            "src/repro/obs/trace.py": OBS_TRACE,
            "src/repro/core/helper.py": """
                import random


                def samples():
                    return [random.random() for _ in range(4)]
            """,
            "src/repro/records/out.py": """
                from repro.core.helper import samples
                from repro.obs.trace import record


                def save():
                    return record(sorted(samples()))
            """,
        }, select=["det-taint-sink"])
        assert [d.rule for d in result.diagnostics] == ["det-taint-sink"]

    def test_seeded_rng_is_silent(self, check_tree):
        # FP guard: a seed threaded from config makes the RNG
        # deterministic, so nothing taints the sink
        result = check_tree({
            "src/repro/obs/trace.py": OBS_TRACE,
            "src/repro/core/helper.py": """
                import random


                def draw(seed):
                    rng = random.Random(seed)
                    return rng.random()
            """,
            "src/repro/records/out.py": """
                from repro.core.helper import draw
                from repro.obs.trace import record


                def save(config_seed):
                    return record(draw(config_seed))
            """,
        }, select=["det-taint-sink"])
        assert result.diagnostics == ()

    def test_obs_wall_clock_span_is_sanctioned(self, check_tree):
        # FP guard: repro.obs times the host, not the simulated machine
        result = check_tree({
            "src/repro/obs/trace.py": """
                import time


                def record(payload):
                    return payload


                def span():
                    return record(time.perf_counter())
            """,
        }, select=["det-taint-sink"])
        assert result.diagnostics == ()

    def test_self_attribute_carries_taint_between_methods(self, check_tree):
        result = check_tree({
            "src/repro/obs/trace.py": OBS_TRACE,
            "src/repro/records/session.py": """
                import random

                from repro.obs.trace import record


                class Session:
                    def __init__(self):
                        self.token = random.random()

                    def flush(self):
                        return record(self.token)
            """,
        }, select=["det-taint-sink"])
        assert [d.rule for d in result.diagnostics] == ["det-taint-sink"]


class TestUnseededFlow:
    def test_zone_function_consumes_nondeterministic_return(self, check_tree):
        result = check_tree({
            "src/repro/util/jitter.py": """
                import random


                def jitter():
                    return random.random()
            """,
            "src/repro/engine/step.py": """
                from repro.util.jitter import jitter


                def advance(cycle):
                    return cycle + jitter()
            """,
        }, select=["det-unseeded-flow"])
        assert [d.rule for d in result.diagnostics] == ["det-unseeded-flow"]
        assert "repro.util.jitter.jitter" in result.diagnostics[0].message

    def test_serve_session_is_a_deterministic_zone(self, check_tree):
        # The serve execution core must stay a pure function of the job:
        # unseeded randomness reaching it is a finding.
        result = check_tree({
            "src/repro/util/jitter.py": """
                import random


                def jitter():
                    return random.random()
            """,
            "src/repro/serve/session.py": """
                from repro.util.jitter import jitter


                def run_sort(records):
                    return records + jitter()
            """,
        }, select=["det-unseeded-flow"])
        assert [d.rule for d in result.diagnostics] == ["det-unseeded-flow"]

    def test_serve_server_wall_clock_is_sanctioned(self, check_tree):
        # FP guard: the daemon's socket/event loop plumbing times the
        # host by nature; only the session layer must stay deterministic.
        result = check_tree({
            "src/repro/obs/trace.py": OBS_TRACE,
            "src/repro/serve/server.py": """
                import time

                from repro.obs.trace import record


                def heartbeat():
                    return record(time.monotonic())
            """,
        }, select=["det-taint-sink"])
        assert result.diagnostics == ()

    def test_seeded_helper_is_silent_in_zone(self, check_tree):
        # FP guard: default_rng(seed) with any argument is deterministic
        result = check_tree({
            "src/repro/util/jitter.py": """
                from numpy.random import default_rng


                def jitter(seed):
                    return default_rng(seed).random()
            """,
            "src/repro/engine/step.py": """
                from repro.util.jitter import jitter


                def advance(cycle, seed):
                    return cycle + jitter(seed)
            """,
        }, select=["det-unseeded-flow"])
        assert result.diagnostics == ()


class TestOrderLeak:
    def test_iterating_another_functions_listing(self, check_tree):
        result = check_tree({
            "src/repro/util/files.py": """
                import os


                def listing(root):
                    return os.listdir(root)
            """,
            "src/repro/engine/scan.py": """
                from repro.util.files import listing


                def names(root):
                    out = []
                    for name in listing(root):
                        out.append(name)
                    return out
            """,
        }, select=["det-order-leak"])
        assert [d.rule for d in result.diagnostics] == ["det-order-leak"]
        assert "directory-listing order" in result.diagnostics[0].message

    def test_returning_foreign_set_order(self, check_tree):
        result = check_tree({
            "src/repro/util/files.py": """
                import os


                def names(root):
                    return [n for n in os.listdir(root)]
            """,
            "src/repro/engine/scan.py": """
                from repro.util.files import names


                def passthrough(root):
                    return names(root)
            """,
        }, select=["det-order-leak"])
        rules = [d.rule for d in result.diagnostics]
        assert "det-order-leak" in rules

    def test_sorted_launders_order(self, check_tree):
        # FP guard: sorted() is the sanctioned way to consume a listing
        result = check_tree({
            "src/repro/util/files.py": """
                import os


                def listing(root):
                    return os.listdir(root)
            """,
            "src/repro/engine/scan.py": """
                from repro.util.files import listing


                def names(root):
                    out = []
                    for name in sorted(listing(root)):
                        out.append(name)
                    return out
            """,
        }, select=["det-order-leak"])
        assert result.diagnostics == ()

    def test_same_function_set_iteration_stays_file_local(self, check_tree):
        # iteration over a set built in the same function belongs to the
        # file-local determinism rule, not the interprocedural pass
        result = check_tree({
            "src/repro/engine/scan.py": """
                def dedupe(values):
                    seen = {v for v in values}
                    return [v for v in seen]
            """,
        }, select=["det-order-leak"])
        assert result.diagnostics == ()
