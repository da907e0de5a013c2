"""``determinism`` — simulator and model code must replay identically.

Every experiment in this repo is an assertion about a *deterministic*
computation: the same workload seed must produce the same cycle count on
every machine, or the benchmark suite stops being evidence.  Flags, in
any ``repro.*`` module:

* unseeded randomness — module-level ``random.*`` calls,
  ``random.Random()`` / ``default_rng()`` without a seed, and the
  legacy global-state ``numpy.random.*`` API;
* wall-clock reads — ``time.time()``/``perf_counter()``/
  ``datetime.now()`` and friends (simulated time comes from cycle
  counts, never the host clock);
* iteration over sets — ``for x in {...}`` / ``for x in set(...)``
  feeds hash order into what is usually ordered output; sort first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import Finding, dotted_call_name

_RANDOM_MODULE_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "randbytes", "getrandbits", "triangular", "expovariate",
}
_NUMPY_LEGACY_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "standard_normal",
    "bytes",
}
_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
}
_NOW_FNS = {"now", "utcnow", "today"}


def check(tree: ast.Module, module: str | None) -> Iterator[Finding]:
    """Unseeded RNGs, clock reads and set iteration in ``repro.*``."""
    if not (module or "").startswith("repro"):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield from _check_call(node)
        elif isinstance(node, (ast.For, ast.comprehension)):
            yield from _check_set_iteration(node)


def _check_call(node: ast.Call) -> Iterator[Finding]:
    dotted = dotted_call_name(node.func)
    if dotted is None:
        return
    parts = dotted.split(".")
    head, tail = parts[0], parts[-1]

    if head == "random" and len(parts) == 2 and tail in _RANDOM_MODULE_FNS:
        yield (
            node,
            f"module-level {dotted}() uses the shared unseeded RNG; "
            "construct random.Random(seed) instead",
        )
    elif dotted in ("random.Random", "Random") and not (node.args or node.keywords):
        yield (
            node,
            "random.Random() without a seed is nondeterministic; "
            "pass an explicit seed",
        )
    elif "random" in parts[:-1] and tail in _NUMPY_LEGACY_FNS:
        yield (
            node,
            f"legacy global-state numpy API {dotted}(); use "
            "numpy.random.default_rng(seed)",
        )
    elif tail == "default_rng" and not (node.args or node.keywords):
        yield (
            node,
            "default_rng() without a seed draws OS entropy; pass an "
            "explicit seed",
        )
    elif head == "time" and len(parts) == 2 and tail in _TIME_FNS:
        yield (
            node,
            f"{dotted}() reads the host clock; simulated time comes "
            "from cycle counts",
        )
    elif tail in _NOW_FNS and len(parts) >= 2 and parts[-2] in (
        "datetime", "date",
    ):
        yield (
            node,
            f"{dotted}() reads the host clock; model code must not "
            "depend on when it runs",
        )


def _check_set_iteration(node: ast.For | ast.comprehension) -> Iterator[Finding]:
    iterable = node.iter
    is_set = isinstance(iterable, (ast.Set, ast.SetComp)) or (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id in ("set", "frozenset")
    )
    if is_set:
        anchor = iterable if isinstance(node, ast.comprehension) else node
        yield (
            anchor,
            "iterating a set feeds hash order into the output; wrap "
            "it in sorted(...) to fix the order",
        )
