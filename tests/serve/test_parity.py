"""Cross-surface parity: sort, optimize and serve are one core.

The tentpole claim of the SortSession refactor is that every surface
executes the same code, so results are bit-identical by construction.
These tests pin that claim from the outside: same job, three surfaces,
one digest.
"""

from __future__ import annotations

from repro.cli import main
from repro.serve import OptimizeJob, SortJob, SortSession
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.session import execute_payload


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


class TestSimulatePayloadParity:
    def test_payload_independent_of_where_the_job_runs(self, tmp_path):
        """A simulate-mode payload, cycle-derived seconds included, is the
        same from a fresh session and from the daemon's long-lived one."""
        params = SortJob(records=3000, seed=9, mode="simulate").params()
        status, direct = execute_payload(SortSession(), "sort", params)
        assert status == "ok"
        direct.pop("kind")
        socket_path = str(tmp_path / "s.sock")
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                # A different job first, so the second runs on a session
                # that has already served one.
                client.sort(**SortJob(records=2000, seed=1).params())
                served = client.sort(**params)["result"]
        assert served == direct


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
