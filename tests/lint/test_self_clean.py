"""Meta-tests: the shipped tree passes its own static analysis, and
every rule still catches a seeded bug in it.

The first is the gate the CI workflow enforces (``bonsai check src
benchmarks`` must exit 0); keeping it in the test suite means a
violation fails tier-1 locally before it ever reaches CI.

The second is how a rule earns its place in ``CHECK_RULES``: it must
fire on a one-line-scale mutation of shipped code, not only on a
hand-written fixture.  A rule added without a row in ``MUTATIONS``
fails here, and so does a pass that stops seeing its bug.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lint.graph import CHECK_RULES, analyze

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``(path, old, new, fires)`` with paths under ``src/repro``: each edit
#: replaces the first occurrence of ``old``, and once all edits are
#: applied together every ``rule: path`` in ``fires`` must hold a finding
#: (a whole-program rule may fire away from the edit, at the caller or
#: model method the bug reaches).  ``rule: "path@text"`` also requires
#: ``text`` in the finding's message, for rows whose rule and path
#: another row already fires
MUTATIONS: tuple[tuple[str, str, str, dict[str, str]], ...] = (
    ("core/parameters.py",
     "bram_effective_bytes: int = 1 * MiB",
     "bram_effective_bytes: int = 1048576",
     {"unit-mix": "core/parameters.py"}),
    ("hw/merger.py",
     "stats.idle_cycles += 1",
     "stats.idle_cycles += 0.5",
     {"clock-discipline": "hw/merger.py"}),
    ("hw/merger.py",
     "if self.output.is_full:",
     "if len(self.output._items) >= self.output.capacity:",
     {"fifo-discipline": "hw/merger.py"}),
    ("records/workloads.py",
     "default_rng(seed)",
     "default_rng()",
     {"determinism": "records/workloads.py",
      "det-unseeded-flow": "records/workloads.py"}),
    ("records/workloads.py",
     "except KeyError:",
     "except WorkloadError:",
     {"exn-dead-handler": "records/workloads.py"}),
    ("core/performance.py",
     "import math\n",
     "import math\n\nfrom repro.hw import fifo\n",
     {"model-purity": "core/performance.py"}),
    ("core/frequency.py",
     "        return self.base_hz * self.degradation_per_doubling**doublings",
     "        print(p, leaves)\n"
     "        return self.base_hz * self.degradation_per_doubling**doublings",
     {"transitive-purity": "core/performance.py"}),
    ("engine/sorter.py",
     'raise ConfigurationError(f"unknown mode',
     'raise ValueError(f"unknown mode',
     {"error-taxonomy": "engine/sorter.py", "exn-escape": "cli.py"}),
    # a method called on a constructor call: SortSession().run_optimize
    ("serve/session.py",
     "raise ProtocolError(\n                f\"unknown objective",
     "raise ValueError(\n                f\"unknown objective",
     {"exn-escape": "cli.py@repro.cli._cmd_optimize()"}),
    ("hw/loader.py",
     "size_bytes = max(records, 1) * self.record_bytes",
     "size_bytes = max(records, 1) + self.record_bytes",
     {"unit-flow-mix": "hw/loader.py"}),
    ("hw/loader.py",
     "self.batch_records, self.tuple_width,",
     "self.batch_bytes, self.tuple_width,",
     {"unit-flow-call": "hw/loader.py"}),
    ("parallel/workers.py",
     "from __future__ import annotations\n",
     "from __future__ import annotations\n\nimport repro.engine.stage\n",
     {"worker-entry": "parallel/workers.py"}),
    ("parallel/workers.py",
     "    in_desc, out_desc, index, shape, max_cycles = task\n",
     "    global _LAST_TASK\n"
     "    _LAST_TASK = task\n"
     "    in_desc, out_desc, index, shape, max_cycles = task\n",
     {"proc-global-write": "parallel/workers.py"}),
    ("parallel/shm.py",
     "    lengths: tuple[int, ...]\n",
     "    lengths: tuple[int, ...]\n"
     "    block: shared_memory.SharedMemory | None = None\n",
     {"proc-unpicklable": "parallel/shm.py"}),
    # reaches worker_cluster_node only inside its task tuple
    ("core/configuration.py",
     "    lambda_pipe: int = 1\n",
     "    lambda_pipe: int = 1\n    lock: threading.Lock | None = None\n",
     {"proc-unpicklable": "parallel/workers.py@config: AmtConfig"}),
    # the descriptor escapes, the block it names does not
    ("parallel/shm.py",
     "    return block, descriptor\n",
     "    return descriptor\n",
     {"proc-shm-lifetime": "parallel/shm.py"}),
    # a lease returned on the normal path only
    ("parallel/api.py",
     "    with lease() as arena:\n",
     "    held = lease()\n    arena = held.__enter__()\n    if arena:\n",
     {"proc-shm-lifetime": "parallel/api.py@outside a `with` statement"}),
    ("parallel/api.py",
     "    return ranges, results\n",
     "    held.__exit__(None, None, None)\n    return ranges, results\n",
     {}),
    ("serve/session.py",
     '{"kind": job.kind, **job.params()}',
     '{"kind": job.kind, "nonce": id(job), **job.params()}',
     {"det-taint-sink": "serve/session.py"}),
    ("serve/session.py",
     "    except BonsaiError as error:\n"
     '        return ("error", f"{type(error).__name__}: {error}")\n',
     "    except BonsaiError:\n        pass\n",
     {"exn-swallow": "serve/session.py"}),
    ("obs/metrics.py",
     "def diff_counters(",
     "def _series_keys(left, right):\n"
     "    return set(left) | set(right)\n\n\n"
     "def diff_counters(",
     {}),
    ("obs/metrics.py",
     "for key in sorted(set(left) | set(right)):",
     "for key in _series_keys(left, right):",
     {"det-order-leak": "obs/metrics.py"}),
    ("parallel/plan.py",
     "except AttributeError:  # platforms without sched_getaffinity",
     "except Exception:  # platforms without sched_getaffinity",
     {"exn-broad-fallback": "parallel/plan.py"}),
)


def test_shipped_tree_is_check_clean():
    result = analyze([REPO_ROOT / "src", REPO_ROOT / "benchmarks"])
    rendered = "\n".join(d.render() for d in result.diagnostics)
    assert result.diagnostics == (), f"check findings in shipped tree:\n{rendered}"
    assert result.exit_code == 0
    # Sanity: the run actually covered the tree (guards against a future
    # path refactor silently checking nothing).
    assert result.files_scanned > 50
    assert result.suppressed > 0, "known intentional suppressions should register"


def test_every_rule_fires_on_a_seeded_mutation(tmp_path):
    expected = {
        (rule, path) for *_, fires in MUTATIONS for rule, path in fires.items()
    }
    assert {rule for rule, _ in expected} == set(CHECK_RULES)
    shutil.copytree(
        REPO_ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    package = tmp_path / "src" / "repro"
    for path, old, new, _ in MUTATIONS:
        target = package / path
        source = target.read_text(encoding="utf-8")
        assert old in source, f"{path}: mutation site {old!r} is gone"
        target.write_text(source.replace(old, new, 1), encoding="utf-8")

    result = analyze([tmp_path / "src"])

    def fired(rule: str, spec: str) -> bool:
        path, _, text = spec.partition("@")
        return any(
            d.rule == rule
            and Path(d.path).relative_to(package).as_posix() == path
            and text in d.message
            for d in result.diagnostics
        )

    missing = sorted(
        f"{rule} in {spec}" for rule, spec in expected if not fired(rule, spec)
    )
    assert not missing, f"rules silent on their seeded mutation: {missing}"
