"""Cross-surface parity: sort, optimize and serve are one core.

The tentpole claim of the SortSession refactor is that every surface
executes the same code, so results are bit-identical by construction.
These tests pin that claim from the outside: same job, three surfaces,
one digest — and serial-equal observability counters.
"""

from __future__ import annotations

from repro.cli import main
from repro.obs.metrics import diff_counters
from repro.obs.runtime import activated, live_observation
from repro.serve import OptimizeJob, SortJob, SortSession
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.session import execute_payload
from repro.serve.workers import worker_serve_job


class TestSortDigestParity:
    def test_session_cli_and_daemon_agree(self, tmp_path, capsys):
        job = SortJob(records=3000, seed=13)

        direct = SortSession().run(job)["digest"]

        assert main([
            "sort", "--records", "3000", "--seed", "13", "--print-digest",
        ]) == 0
        cli_lines = capsys.readouterr().out.splitlines()
        cli = next(
            line.split("=", 1)[1] for line in cli_lines
            if line.startswith("digest=")
        )

        socket_path = str(tmp_path / "s.sock")
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                served = client.sort(**job.params())["result"]["digest"]

        assert direct == cli == served

    def test_serial_and_pooled_sessions_agree(self):
        job = SortJob(records=4000, seed=21)
        serial = SortSession(jobs=None).run(job)
        pooled = SortSession(jobs=2).run(job)
        assert serial == pooled


class TestSimulatePayloadParity:
    def test_payload_independent_of_where_the_job_runs(self):
        params = SortJob(records=3000, seed=9, mode="simulate").params()
        serial = execute_payload(SortSession(None), "sort", params)
        pooled = execute_payload(SortSession(2), "sort", params)
        worker = worker_serve_job(("sort", params))
        assert serial[0] == "ok"
        assert serial == pooled == worker


class TestOptimizeParity:
    def test_session_and_daemon_return_identical_rankings(self, tmp_path):
        job = OptimizeJob(top=3)
        direct = SortSession().run(job)
        socket_path = str(tmp_path / "s.sock")
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                served = client.optimize(**job.params())["result"]
        direct.pop("kind", None)
        assert served == direct


class TestCounterParity:
    def test_serial_and_pooled_obs_counters_match(self):
        job = SortJob(records=3000, seed=5)

        def observed(jobs):
            live = live_observation()
            with activated(live):
                payload = SortSession(jobs=jobs).run(job)
            return payload, live.registry.counters()

        serial_payload, serial_counters = observed(None)
        pooled_payload, pooled_counters = observed(2)
        assert serial_payload == pooled_payload
        problems = diff_counters(
            serial_counters, pooled_counters, ignore_prefixes=("parallel.",)
        )
        assert problems == []
