"""The ``bonsai`` command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import SUBCOMMANDS, _parse_size, main
from repro.units import GB

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestHelp:
    def test_lists_every_subcommand_with_summary(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        # argparse wraps help at the terminal width; collapse whitespace
        # so summaries match regardless of where the wraps land.
        out = " ".join(capsys.readouterr().out.split())
        for name, summary, _configure, _run in SUBCOMMANDS:
            assert name in out
            assert summary in out

    def test_registry_drives_dispatch(self):
        names = [name for name, _s, _c, _r in SUBCOMMANDS]
        assert len(names) == len(set(names))
        assert "check" in names
        assert "lint" not in names
        assert "bench" not in names

    def test_bench_is_an_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [("16GB", 16 * GB), ("2TB", 2 * 10**12), ("512MB", 512 * 10**6),
         ("64kb", 64_000), ("12345", 12_345), (" 1.5GB ", 1_500_000_000)],
    )
    def test_parses(self, text, expected):
        assert _parse_size(text) == expected


class TestOptimize:
    def test_default_run(self, capsys):
        assert main(["optimize", "--size", "16GB", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "AMT(32, 256)" in out

    def test_throughput_objective(self, capsys):
        code = main([
            "optimize", "--platform", "ssd-node", "--size", "8GB",
            "--objective", "throughput", "--presort", "256", "--top", "1",
        ])
        assert code == 0
        assert "4x pipelined AMT(8, 64)" in capsys.readouterr().out

    def test_leaves_cap(self, capsys):
        main(["optimize", "--leaves-cap", "64", "--top", "1"])
        assert "AMT(32, 64)" in capsys.readouterr().out

    def test_empty_ranking_is_a_clean_error(self, capsys):
        """No pipeline holds 16 GB on aws-f1 under Eq. 5: the command
        fails like ``throughput_optimal`` instead of printing no rows."""
        assert main(["optimize", "--objective", "throughput"]) == 2
        captured = capsys.readouterr()
        assert "#" not in captured.out
        assert captured.err == (
            "error: no pipelined AMT configuration can sort arrays of "
            "16,000,000,000 bytes within resources and Eq. 5\n"
        )

    def test_jobs_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestSort:
    def test_model_mode(self, capsys):
        assert main(["sort", "--records", "5000"]) == 0
        assert "verified=OK" in capsys.readouterr().out

    def test_simulate_mode(self, capsys):
        assert main(["sort", "--records", "3000", "--mode", "simulate"]) == 0
        out = capsys.readouterr().out
        assert "mode=simulate" in out and "verified=OK" in out

    def test_simulate_output_independent_of_jobs(self, tmp_path, capsys):
        """``--jobs`` shards cluster nodes; their simulated sort writes
        the same bytes at every setting."""
        outputs = []
        for jobs in ([], ["--jobs", "1"], ["--jobs", "2"]):
            target = tmp_path / f"out{len(outputs)}.bin"
            assert main([
                "sort", "--records", "3000", "--mode", "simulate",
                "--cluster-nodes", "2", "--output", str(target), *jobs,
            ]) == 0
            assert "verified=OK" in capsys.readouterr().out
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_jobs_without_cluster_nodes_is_rejected(self, capsys):
        """A single tree's sort never uses the pool, so ``--jobs`` alone
        is a usage error instead of a silent no-op."""
        assert main(["sort", "--records", "3000", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --jobs shards the nodes of a cluster sort; add "
            "--cluster-nodes N (a single tree's sort runs in one process)\n"
        )

    def test_workload_choice(self, capsys):
        assert main(["sort", "--records", "2000", "--workload", "reverse"]) == 0
        assert "verified=OK" in capsys.readouterr().out

    def test_file_roundtrip(self, tmp_path, capsys):
        import numpy as np

        from repro.records.files import read_records, write_records
        from repro.records.workloads import uniform_random

        source = tmp_path / "in.bin"
        target = tmp_path / "out.bin"
        data = uniform_random(5_000, seed=5)
        write_records(source, data)
        assert main([
            "sort", "--input", str(source), "--output", str(target),
        ]) == 0
        assert np.array_equal(read_records(target), np.sort(data))
        assert "wrote" in capsys.readouterr().out

    def test_missing_input_file_clean_error(self, tmp_path, capsys):
        assert main(["sort", "--input", str(tmp_path / "nope.bin")]) == 2
        assert "error:" in capsys.readouterr().err


class TestClusterSort:
    def test_executed_cluster_sort(self, capsys):
        assert main(["sort", "--records", "5000", "--cluster-nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "cluster-sorted 5,000 records" in out
        assert "across 4 nodes" in out
        assert "measured" in out and "modeled" in out
        assert "skew=" in out
        assert "verified=OK" in out

    def test_cluster_with_jobs_and_output(self, tmp_path, capsys):
        target = tmp_path / "sorted.bin"
        assert main([
            "sort", "--records", "4000", "--cluster-nodes", "2",
            "--jobs", "2", "--output", str(target),
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert target.exists()

    def test_print_digest_matches_the_single_tree_sort(self, capsys):
        def digest(*extra: str) -> str:
            assert main([
                "sort", "--records", "20000", "--workload", "uniform",
                "--seed", "0", "--print-digest", *extra,
            ]) == 0
            lines = capsys.readouterr().out.splitlines()
            return next(
                line.removeprefix("digest=")
                for line in lines if line.startswith("digest=")
            )

        assert digest("--cluster-nodes", "4") == digest() == "73108a7d7a225836"

    def test_bad_node_count_clean_error(self, capsys):
        assert main(["sort", "--records", "100", "--cluster-nodes", "0"]) == 2
        assert "error:" in capsys.readouterr().err


class TestScalability:
    def test_prints_curve_and_breakpoints(self, capsys):
        assert main(["scalability", "--max", "4TB"]) == 0
        out = capsys.readouterr().out
        assert "ms/GB" in out
        assert "switch to SSD sorter" in out


class TestSsdPlan:
    def test_table_v(self, capsys):
        assert main(["ssd-plan"]) == 0
        out = capsys.readouterr().out
        assert "256.0s" in out and "4.3s" in out and "516.3s" in out

    def test_overflow_is_clean_error(self, capsys):
        assert main(["ssd-plan", "--size", "100TB"]) == 2
        assert "error:" in capsys.readouterr().err


class TestComponents:
    def test_prints_both_widths(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        assert "18,853" in out  # 32-bit 32-merger
        assert "77,732" in out  # 128-bit 32-merger


class TestValidate:
    def test_reports_error_bands(self, capsys):
        assert main(["validate", "--records", "8192"]) == 0
        out = capsys.readouterr().out
        assert "performance geometric-mean error" in out
        assert "paper claims <10%" in out


class TestExperiments:
    def test_writes_table_files(self, tmp_path, capsys):
        assert main(["experiments", "--out", str(tmp_path)]) == 0
        for name in ("table1", "table5", "fig12", "fig13"):
            assert (tmp_path / f"{name}.txt").exists()
        table5 = (tmp_path / "table5.txt").read_text()
        assert "516.3" in table5


class TestLint:
    """Static analysis runs through ``bonsai check``; ``lint`` is gone."""

    def test_lint_is_an_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--baseline", "f"],
        ["--no-baseline"],
        ["--update-baseline"],
        ["--profile", "t"],
        ["--require-justification"],
    ])
    def test_deleted_check_option_is_unknown(self, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", *option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_format_smoke(self, capsys):
        code = main([
            "check", str(REPO_ROOT / "src" / "repro" / "units.py"),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert payload["diagnostics"] == []

    def test_text_format_on_dirty_file(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("raise ValueError('x')\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "error-taxonomy" in out
        assert "1 finding(s)" in out

    def test_list_rules(self, capsys):
        assert main(["check", "--list-analyses"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 20
        out = "\n".join(lines)
        for rule in ("unit-mix", "clock-discipline", "determinism",
                     "model-purity", "error-taxonomy", "unit-flow-mix"):
            assert rule in out
        assert any(
            line.startswith("unit-mix") and "[warning]" in line
            for line in lines
        )

    def test_missing_path_is_clean_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommand:
    def test_socket_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "--socket" in capsys.readouterr().err

    def test_overlong_socket_path_is_a_clean_error(self, capsys):
        assert main(["serve", "--socket", "/tmp/" + "x" * 120]) == 2
        assert "socket path" in capsys.readouterr().err

    def test_bad_queue_shape_is_a_clean_error(self, capsys):
        assert main(["serve", "--socket", "/tmp/s.sock",
                     "--queue-depth", "0"]) == 2
        assert "depth" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--batch-max", "4"]])
    def test_pool_flags_are_rejected(self, flag, capsys):
        """The daemon runs one job at a time in its own process."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--socket", "s", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestReportTrace:
    def test_traced_sort_renders_attribution(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["sort", "--records", "3000", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase attribution" in out
        assert "cli.sort" in out
        assert "coverage:" in out
