"""The performance ledger: five workloads, end-to-end and per-layer metrics.

``python benchmarks/ledger/run.py`` (or ``python -m benchmarks.ledger.run``)
is the entry point; ``benchmarks/ledger/README.md`` describes the workloads,
the metrics and how to compare two commits.
"""
