"""SARIF and golden-file reporter tests.

The goldens under ``tests/lint/golden/`` pin the exact bytes the
reporters emit for a fixed fixture; regenerate them after an intended
shape change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/lint/test_sarif.py

Every SARIF document is additionally validated against the vendored
2.1.0 subset schema (``sarif-2.1.0-subset.schema.json``), so a golden
update cannot silently drift off the OASIS format.
"""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import jsonschema
import pytest

from repro.lint.graph import analyze
from repro.lint.graph.main import render_json as render_check_json
from repro.lint.graph.main import render_sarif_report

HERE = Path(__file__).parent
GOLDEN_DIR = HERE / "golden"
SCHEMA = json.loads(
    (HERE / "sarif-2.1.0-subset.schema.json").read_text(encoding="utf-8")
)

LINT_FIXTURE = """\
import time


def jitter():
    return time.time()


def sampled():
    return time.time()  # bonsai-lint: disable=determinism -- golden: suppressed on purpose


# bonsai-lint: disable=determinism
def quiet():
    return 1
"""

CHECK_SIZES = """\
from repro.units import KB, KiB


def disk_chunk():
    return 4 * KB


def bram_chunk():
    return 2 * KiB
"""

CHECK_MIXER = """\
from repro.util.sizes import bram_chunk, disk_chunk


def footprint():
    return disk_chunk() + bram_chunk()


def reserve(buffer_kib):
    return buffer_kib * 2


def bad_call():
    return reserve(disk_chunk())
"""


def _assert_matches_golden(actual: str, name: str) -> None:
    golden = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN") == "1":
        golden.parent.mkdir(parents=True, exist_ok=True)
        golden.write_text(actual + "\n", encoding="utf-8")
    expected = golden.read_text(encoding="utf-8")
    assert actual + "\n" == expected, (
        f"{name} drifted; regenerate with REGEN_GOLDEN=1 if intended"
    )


def _normalise_sarif(document: str) -> str:
    """Replace the tool version so goldens survive release bumps."""
    payload = json.loads(document)
    for entry in payload["runs"]:
        entry["tool"]["driver"]["version"] = "0.0.0"
    return json.dumps(payload, indent=2, sort_keys=True)


def _validate_sarif(document: str) -> dict:
    payload = json.loads(document)
    jsonschema.validate(payload, SCHEMA)
    return payload


@pytest.fixture
def lint_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "src" / "repro" / "hw" / "golden.py"
    target.parent.mkdir(parents=True)
    target.write_text(LINT_FIXTURE, encoding="utf-8")
    return analyze(["src"])


@pytest.fixture
def check_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for relpath, source in (
        ("src/repro/util/sizes.py", CHECK_SIZES),
        ("src/repro/util/mixer.py", CHECK_MIXER),
    ):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze(["src"])


class TestLintGoldens:
    def test_fixture_produces_the_expected_mix(self, lint_result):
        rules = sorted(d.rule for d in lint_result.diagnostics)
        assert rules == [
            "determinism", "unjustified-suppression", "useless-suppression",
        ]
        assert lint_result.suppressed == 1
        payload = _validate_sarif(render_sarif_report(lint_result))
        levels = {
            rule["id"]: rule["defaultConfiguration"]["level"]
            for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert levels["determinism"] == "error"
        assert levels["unit-mix"] == "warning"
        assert levels["useless-suppression"] == "warning"
        assert levels["unjustified-suppression"] == "warning"


class TestCheckGoldens:
    def test_fixture_produces_both_unit_flow_findings(self, check_result):
        assert sorted(d.rule for d in check_result.diagnostics) == [
            "unit-flow-call", "unit-flow-mix",
        ]

    def test_json_golden(self, check_result):
        _assert_matches_golden(render_check_json(check_result), "check.json")

    def test_sarif_golden_and_schema(self, check_result):
        document = render_sarif_report(check_result)
        payload = _validate_sarif(document)
        results = payload["runs"][0]["results"]
        assert all("suppressions" not in result for result in results)
        _assert_matches_golden(_normalise_sarif(document), "check.sarif")


PROC_WORKERS = """\
from repro.parallel.audit import record
from repro.parallel.state import TaskState


def worker_run(task: TaskState):
    record(task)
    return task
"""

PROC_AUDIT = """\
HISTORY = []


def record(task):
    global HISTORY
    HISTORY = HISTORY + [task]
"""

PROC_STATE = """\
from threading import Lock


class TaskState:
    lock: Lock
    payload: list
"""

PROC_BUFFERS = """\
from multiprocessing.shared_memory import SharedMemory


def leak(n_bytes):
    block = SharedMemory(create=True, size=n_bytes)
    return n_bytes
"""

PROC_RULES = ("proc-global-write", "proc-shm-lifetime", "proc-unpicklable")


def _write_tree(tmp_path, files: dict[str, str]) -> None:
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        package = path.parent
        while package != tmp_path and "repro" in package.parts:
            init = package / "__init__.py"
            if not init.exists():
                init.write_text(
                    f'"""Package {package.name}."""\n', encoding="utf-8"
                )
            package = package.parent


@pytest.fixture
def procsafety_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_tree(tmp_path, {
        "src/repro/parallel/workers.py": PROC_WORKERS,
        "src/repro/parallel/audit.py": PROC_AUDIT,
        "src/repro/parallel/state.py": PROC_STATE,
        "src/repro/parallel/buffers.py": PROC_BUFFERS,
    })
    return analyze(["src"], select=list(PROC_RULES))


class TestProcsafetyGolden:
    def test_fixture_fires_every_proc_rule_once(self, procsafety_result):
        assert sorted(d.rule for d in procsafety_result.diagnostics) == list(
            PROC_RULES
        )

    def test_sarif_golden_and_schema(self, procsafety_result):
        document = render_sarif_report(procsafety_result)
        payload = _validate_sarif(document)
        rule_ids = {
            rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert rule_ids == set(PROC_RULES) | {"parse-error"}
        _assert_matches_golden(_normalise_sarif(document), "procsafety.sarif")


DET_ENTROPY = """\
import os
import random


def noise():
    return random.random()


def listing(root):
    return os.listdir(root)
"""

DET_REPORT = """\
from repro.obs.trace import record
from repro.util.entropy import noise


def save():
    return record(noise())
"""

DET_ENGINE = """\
from repro.util.entropy import listing, noise


def advance(cycle):
    return cycle + noise()


def names(root):
    return [n for n in listing(root)]
"""

DET_OBS = """\
def record(payload):
    return payload
"""

EXN_ERRORS = """\
class BonsaiError(Exception):
    pass


class SimulationError(BonsaiError):
    pass
"""

EXN_PARSE = """\
def parse(text):
    if not text:
        raise ValueError("empty input")
    return text


def load(text):
    return parse(text)
"""

EXN_CLI = """\
from repro.core.parse import load


def main(argv=None):
    return load("x")
"""

EXN_CALC = """\
from repro.errors import SimulationError


def total(values):
    return len(values)


def guarded(values):
    try:
        return total(values)
    except SimulationError:
        return 0


def read(path):
    try:
        return open(path).read()
    except OSError:
        pass
"""

EXN_POOL = """\
def run(task):
    try:
        return task()
    except Exception:
        return None
"""

DET_RULES = ("det-order-leak", "det-taint-sink", "det-unseeded-flow")
EXN_RULES = (
    "exn-broad-fallback", "exn-dead-handler", "exn-escape", "exn-swallow",
)


@pytest.fixture
def detflow_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_tree(tmp_path, {
        "src/repro/util/entropy.py": DET_ENTROPY,
        "src/repro/report/out.py": DET_REPORT,
        "src/repro/engine/step.py": DET_ENGINE,
        "src/repro/obs/trace.py": DET_OBS,
    })
    return analyze(["src"], select=list(DET_RULES))


@pytest.fixture
def exnflow_result(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_tree(tmp_path, {
        "src/repro/errors.py": EXN_ERRORS,
        "src/repro/core/parse.py": EXN_PARSE,
        "src/repro/cli.py": EXN_CLI,
        "src/repro/core/calc.py": EXN_CALC,
        "src/repro/parallel/pool.py": EXN_POOL,
    })
    return analyze(["src"], select=list(EXN_RULES))


class TestDetflowGolden:
    def test_fixture_fires_every_det_rule_once(self, detflow_result):
        assert sorted(d.rule for d in detflow_result.diagnostics) == list(
            DET_RULES
        )

    def test_sarif_golden_and_schema(self, detflow_result):
        document = render_sarif_report(detflow_result)
        payload = _validate_sarif(document)
        rule_ids = {
            rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert rule_ids == set(DET_RULES) | {"parse-error"}
        _assert_matches_golden(_normalise_sarif(document), "detflow.sarif")

    def test_taint_chain_becomes_related_locations(self, detflow_result):
        payload = json.loads(render_sarif_report(detflow_result))
        by_rule = {
            r["ruleId"]: r for r in payload["runs"][0]["results"]
        }
        related = by_rule["det-taint-sink"]["relatedLocations"]
        assert related, "source->sink chain must be attached"
        uris = [
            hop["physicalLocation"]["artifactLocation"]["uri"]
            for hop in related
        ]
        assert any(uri.endswith("entropy.py") for uri in uris)
        assert all(hop["message"]["text"] for hop in related)


class TestExnflowGolden:
    def test_fixture_fires_every_exn_rule_once(self, exnflow_result):
        assert sorted(d.rule for d in exnflow_result.diagnostics) == list(
            EXN_RULES
        )

    def test_sarif_golden_and_schema(self, exnflow_result):
        document = render_sarif_report(exnflow_result)
        payload = _validate_sarif(document)
        rule_ids = {
            rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        assert rule_ids == set(EXN_RULES) | {"parse-error"}
        _assert_matches_golden(_normalise_sarif(document), "exnflow.sarif")

    def test_escape_chain_walks_back_to_the_raise(self, exnflow_result):
        payload = json.loads(render_sarif_report(exnflow_result))
        by_rule = {
            r["ruleId"]: r for r in payload["runs"][0]["results"]
        }
        related = by_rule["exn-escape"]["relatedLocations"]
        uris = [
            hop["physicalLocation"]["artifactLocation"]["uri"]
            for hop in related
        ]
        assert any(uri.endswith("parse.py") for uri in uris)


class TestFingerprints:
    def test_every_result_carries_a_fingerprint(self, exnflow_result):
        from repro.lint.sarif import FINGERPRINT_KEY

        payload = json.loads(render_sarif_report(exnflow_result))
        for result in payload["runs"][0]["results"]:
            value = result["partialFingerprints"][FINGERPRINT_KEY]
            assert len(value) == 20
            int(value, 16)

    def test_identical_findings_get_distinct_fingerprints(self):
        from repro.lint.diagnostics import Diagnostic, Severity
        from repro.lint.sarif import FINGERPRINT_KEY
        from repro.lint.sarif import render_sarif as render_raw

        twins = [
            Diagnostic(
                path="src/repro/a.py", line=line, column=0,
                rule="determinism", message="same message",
                severity=Severity.ERROR,
            )
            for line in (3, 9)
        ]
        document = render_raw(
            twins, rule_descriptions={"determinism": ("d", "error")},
        )
        values = [
            r["partialFingerprints"][FINGERPRINT_KEY]
            for r in json.loads(document)["runs"][0]["results"]
        ]
        assert len(set(values)) == 2
        # and the scheme is line-independent: re-rendering reproduces
        # the exact fingerprints, so pushes that shift lines still dedupe
        again = render_raw(
            twins, rule_descriptions={"determinism": ("d", "error")},
        )
        assert [
            r["partialFingerprints"][FINGERPRINT_KEY]
            for r in json.loads(again)["runs"][0]["results"]
        ] == values


class TestRuleTableFiltering:
    def test_selected_run_lists_enabled_union_fired(self, procsafety_result):
        payload = json.loads(render_sarif_report(procsafety_result))
        rule_ids = [
            rule["id"] for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        ]
        assert rule_ids == sorted(rule_ids)
        assert "unit-flow-mix" not in rule_ids
        assert "det-taint-sink" not in rule_ids


class TestSchemaPin:
    def test_schema_rejects_wrong_version(self):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(
                {"$schema": "x/sarif-schema-2.1.0.json",
                 "version": "2.0.0", "runs": []},
                SCHEMA,
            )

    def test_schema_rejects_zero_start_line(self, check_result):
        payload = json.loads(render_sarif_report(check_result))
        region = (
            payload["runs"][0]["results"][0]["locations"][0]
            ["physicalLocation"]["region"]
        )
        region["startLine"] = 0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, SCHEMA)
