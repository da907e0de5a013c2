"""End-to-end daemon tests: a real ServerThread, real unix sockets."""

from __future__ import annotations

import json
import socket as socket_module
import time

import pytest

from repro.serve import SortJob, SortSession
from repro.serve.client import ServeClient
from repro.serve.protocol import decode_response
from repro.serve.server import ServeConfig, ServerThread

#: Slow enough (about 0.45 s of host time on a 2-CPU x86-64 host) to
#: still be queued or running while a follow-up request races it
#: through admission.
SLOW = {"records": 60_000, "p": 4, "leaves": 8, "mode": "simulate"}


@pytest.fixture
def socket_path(tmp_path):
    path = str(tmp_path / "s.sock")
    assert len(path) <= 100  # sockaddr_un limit, enforced by ServeConfig
    return path


class TestServedResults:
    def test_served_digest_equals_direct_session(self, socket_path):
        job = SortJob(records=2500, seed=7)
        direct = SortSession().run(job)
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                served = client.sort(**job.params())
        assert served["status"] == "ok"
        assert served["result"]["digest"] == direct["digest"]
        assert served["result"]["checksum"] == direct["checksum"]
        assert served["result"]["seconds"] == direct["seconds"]

    def test_repeat_request_is_a_cache_hit_with_identical_payload(
        self, socket_path
    ):
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                first = client.sort(records=1500, seed=4)
                second = client.sort(records=1500, seed=4)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["result"] == first["result"]

    def test_cache_size_zero_disables_caching(self, socket_path):
        config = ServeConfig(socket=socket_path, cache_size=0)
        with ServerThread(config):
            with ServeClient(socket_path) as client:
                client.sort(records=1500, seed=4)
                again = client.sort(records=1500, seed=4)
        assert again["cached"] is False

    def test_file_writing_jobs_bypass_the_cache(self, socket_path, tmp_path):
        out = str(tmp_path / "out.bin")
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                first = client.sort(records=1200, seed=1, output=out)
                second = client.sort(records=1200, seed=1, output=out)
        assert first["status"] == second["status"] == "ok"
        assert second["cached"] is False


class TestFaultyRequests:
    def test_malformed_job_is_an_error_not_a_queue_slot(self, socket_path):
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                response = client.sort(recordz=10)
                stats = client.stats()["result"]
        assert response["status"] == "error"
        assert "recordz" in response["reason"]
        assert stats["admitted"] == 0

    def test_job_level_failures_report_the_taxonomy_error(self, socket_path):
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                response = client.sort(platform="warp-drive")
        assert response["status"] == "error"
        assert "warp-drive" in response["reason"]

    def test_mistyped_param_is_refused_and_the_daemon_survives(
        self, socket_path
    ):
        # The review's crash repro: {"records": "100"} passed the
        # name-only validation, then TypeError'd in the executor and
        # killed the dispatcher.  It must be refused at admission —
        # and the daemon must keep serving afterwards.
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                bad = client.sort(records="100")
                stats = client.stats()["result"]
                good = client.sort(records=1200, seed=3)
        assert bad["status"] == "error"
        assert "'records' must be int" in bad["reason"]
        assert stats["admitted"] == 0
        assert good["status"] == "ok"

    def test_internal_faults_answer_the_batch_and_spare_the_daemon(
        self, socket_path, monkeypatch
    ):
        # Defense in depth behind admission typing: if job execution
        # itself blows up, the client gets an error response and the
        # dispatcher keeps pulling instead of dying mid-queue.
        from repro.serve import server as server_module

        def exploding_payload(session, kind, params):
            raise RuntimeError("executor died")

        monkeypatch.setattr(server_module, "execute_payload", exploding_payload)
        with ServerThread(ServeConfig(socket=socket_path)) as server:
            with ServeClient(socket_path) as client:
                response = client.sort(records=1200, seed=5)
                assert client.ping()["result"] == "pong"
        assert response["status"] == "error"
        assert "executor died" in response["reason"]
        assert not server._thread.is_alive()  # drained cleanly on exit

    def test_envelope_error_echoes_a_salvageable_id(self, socket_path):
        with ServerThread(ServeConfig(socket=socket_path)):
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(10.0)
            try:
                raw.connect(socket_path)
                raw.sendall(json.dumps({
                    "proto": "bonsai-serve/v0", "id": "r42", "kind": "sort",
                }).encode() + b"\n")
                response = decode_response(raw.makefile("rb").readline())
            finally:
                raw.close()
        assert response["status"] == "error"
        assert response["id"] == "r42"  # matched, not "?"

    def test_oversized_line_is_answered_then_the_connection_closes(
        self, socket_path
    ):
        # Past the stream limit the reader loses line framing, so the
        # daemon sends one error response and hangs up — it must not
        # drop the connection silently (the pre-fix behaviour).
        from repro.serve import protocol

        with ServerThread(ServeConfig(socket=socket_path)):
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(30.0)
            try:
                raw.connect(socket_path)
                raw.sendall(b" " * (protocol.MAX_LINE_BYTES + 4096) + b"\n")
                reader = raw.makefile("rb")
                response = decode_response(reader.readline())
                assert reader.readline() == b""  # server closed after it
            finally:
                raw.close()
        assert response["status"] == "error"
        assert "byte limit" in response["reason"]

    def test_mid_size_line_under_the_cap_is_answered_not_dropped(
        self, socket_path
    ):
        # The review's case: a 64 KiB – 1 MiB line used to blow the
        # asyncio default stream limit and drop the connection with no
        # response.  It must now reach ordinary request handling.
        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                response = client.sort(
                    records=1200, seed=1, workload="u" * (128 * 1024)
                )
                assert client.ping()["result"] == "pong"
        assert response["status"] == "error"  # no such workload — but answered

    def test_hostile_lines_are_answered_and_the_connection_survives(
        self, socket_path
    ):
        # Lines under the size cap that the JSON decoder refuses with a
        # RecursionError (deep nesting) or a ValueError (an integer past
        # the digit limit) each get an error response, not a hangup.
        from repro.serve import protocol
        from tests.serve.test_protocol import HOSTILE_LINES

        with ServerThread(ServeConfig(socket=socket_path)):
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(10.0)
            try:
                raw.connect(socket_path)
                reader = raw.makefile("rb")
                responses = []
                for line in HOSTILE_LINES:
                    raw.sendall(line)
                    responses.append(decode_response(reader.readline()))
                raw.sendall(protocol.Request(id="r2", kind="ping").encode())
                pong = decode_response(reader.readline())
            finally:
                raw.close()
        assert [r["status"] for r in responses] == ["error", "error"]
        assert all("not valid JSON" in r["reason"] for r in responses)
        assert pong["result"] == "pong"

    def test_client_treats_unmatchable_error_as_fatal(self, socket_path):
        from repro.errors import ServeError

        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path) as client:
                # A corrupted line with no salvageable id draws an
                # id-"?" response; collect() must fail fast instead of
                # buffering it and waiting forever for a match.
                client._sock.sendall(b"\xffgarbage\n")
                with pytest.raises(ServeError, match="unmatchable"):
                    client.ping()

    def test_garbage_line_gets_an_error_response_not_a_hangup(
        self, socket_path
    ):
        with ServerThread(ServeConfig(socket=socket_path)):
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(10.0)
            try:
                raw.connect(socket_path)
                raw.sendall(b"{not json\n")
                response = decode_response(raw.makefile("rb").readline())
                assert response["status"] == "error"
                assert response["id"] == "?"
                # The connection survives the bad line.
                raw.sendall(
                    (json.dumps({
                        "proto": "bonsai-serve/v1", "id": "r2", "kind": "ping",
                    }) + "\n").encode()
                )
                pong = decode_response(raw.makefile("rb").readline())
                assert pong["result"] == "pong"
            finally:
                raw.close()


class TestAdmissionControl:
    def test_quota_rejection_names_the_reason(self, socket_path):
        config = ServeConfig(socket=socket_path, queue_depth=8, client_quota=1)
        with ServerThread(config):
            with ServeClient(socket_path, client_id="greedy") as client:
                ids = [
                    client.send("sort", {**SLOW, "seed": seed})
                    for seed in (1, 2, 3)
                ]
                responses = [client.collect(i) for i in ids]
        statuses = [r["status"] for r in responses]
        assert statuses.count("ok") >= 1
        rejected = [r for r in responses if r["status"] == "rejected"]
        assert rejected and all(r["reason"] == "quota" for r in rejected)

    def test_overload_rejection_past_queue_depth(self, socket_path):
        config = ServeConfig(socket=socket_path, queue_depth=1, client_quota=8)
        with ServerThread(config):
            with ServeClient(socket_path) as client:
                ids = [
                    client.send("sort", {**SLOW, "seed": seed})
                    for seed in range(5)
                ]
                responses = [client.collect(i) for i in ids]
        rejected = [r for r in responses if r["status"] == "rejected"]
        assert rejected and all(r["reason"] == "overloaded" for r in rejected)
        assert any(r["status"] == "ok" for r in responses)

    def test_drain_rejects_new_work_but_answers_admitted(self, socket_path):
        with ServerThread(ServeConfig(socket=socket_path)) as server:
            with ServeClient(socket_path) as client:
                admitted = client.send("sort", {**SLOW, "seed": 9})
                # The stats round-trip proves the slow job's line was
                # processed (admitted) before the drain begins...
                assert client.stats()["result"]["admitted"] == 1
                server.control.request_drain()
                # ...and the drain flag proves the drain landed before
                # the late submission races it.
                deadline = time.monotonic() + 10.0
                while not client.stats()["result"]["draining"]:
                    assert time.monotonic() < deadline
                late = client.send("sort", {**SLOW, "seed": 10})
                late_response = client.collect(late)
                admitted_response = client.collect(admitted)
        assert admitted_response["status"] == "ok"
        assert "digest" in admitted_response["result"]
        assert late_response["status"] == "rejected"
        assert late_response["reason"] == "draining"


class TestDispatch:
    def test_a_queued_job_is_answered_before_the_next_one_runs(
        self, socket_path
    ):
        # A slow job runs; a small sort at priority 0 and a slow one at
        # priority 1 queue behind it.  The small sort's reply must not
        # wait for the slow job queued after it: when it arrives, two
        # jobs have completed, not three.
        def wait_for(client, condition):
            deadline = time.monotonic() + 30.0
            while not condition(client.stats()["result"]):
                assert time.monotonic() < deadline
                time.sleep(0.01)

        with ServerThread(ServeConfig(socket=socket_path)):
            with ServeClient(socket_path, client_id="a") as a, \
                    ServeClient(socket_path, client_id="b") as b, \
                    ServeClient(socket_path, client_id="c") as c:
                first = a.send("sort", {**SLOW, "seed": 1})
                wait_for(a, lambda s: s["running"] == 1 and s["queued"] == 0)
                small = b.send("sort", {"records": 1000, "seed": 2}, priority=0)
                slow = c.send("sort", {**SLOW, "seed": 3}, priority=1)
                wait_for(a, lambda s: s["admitted"] == 3)
                small_response = b.collect(small)
                completed = b.stats()["result"]["completed"]
                responses = [a.collect(first), c.collect(slow)]
        assert small_response["status"] == "ok"
        assert completed == 2
        assert [r["status"] for r in responses] == ["ok", "ok"]


class TestControlPlane:
    def test_ping_stats_and_shutdown(self, socket_path):
        with ServerThread(ServeConfig(socket=socket_path)) as server:
            with ServeClient(socket_path) as client:
                assert client.ping()["result"] == "pong"
                client.sort(records=1200, seed=2)
                stats = client.stats()["result"]
                assert stats["completed"] == 1
                assert stats["cache_entries"] == 1
                assert stats["draining"] is False
                ack = client.shutdown()
                assert ack["result"] == "draining"
            server._thread.join(timeout=30)
            assert not server._thread.is_alive()

    def test_concurrent_clients_each_get_their_own_answers(self, socket_path):
        from concurrent.futures import ThreadPoolExecutor

        def one(seed: int) -> tuple:
            with ServeClient(socket_path, client_id=f"c{seed}") as client:
                response = client.sort(records=1000 + seed, seed=seed)
                return response["status"], response["result"]["records"]

        with ServerThread(ServeConfig(socket=socket_path)):
            with ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = list(pool.map(one, range(6)))
        assert outcomes == [("ok", 1000 + seed) for seed in range(6)]
