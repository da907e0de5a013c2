"""Command-line interface: ``bonsai`` / ``python -m repro``.

Subcommands map onto the paper's workflows:

* ``optimize`` — run the Bonsai optimizer for a platform and input size,
  printing the optimal configuration and the ranked alternatives
  (§III-C's "list all implementable AMT configurations").
* ``sort`` — generate a workload and sort it through the engine
  (model or cycle-simulated timing), verifying the output.
* ``scalability`` — print the Fig. 13 latency/GB curve and breakpoints.
* ``ssd-plan`` — print the two-phase plan and Table V-style breakdown.
* ``components`` — print the Table VI component library.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.analysis.tables import render_table
from repro.core.configuration import AmtConfig
from repro.core.parameters import ArrayParams, MergerArchParams
from repro.core.presets import PLATFORMS
from repro.core.scalability import ScalabilityModel
from repro.core.ssd_planner import SsdSortPlan
from repro.errors import BonsaiError, ConfigurationError, NoFeasibleConfigError
from repro.records.workloads import WorkloadSpec, generate
from repro.units import GB, KB, MB, TB, format_bytes, format_seconds

def _parse_size(text: str) -> int:
    """Parse sizes like ``16GB``, ``512MB``, ``2TB`` or raw bytes."""
    text = text.strip().upper()
    for suffix, scale in (("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)):
        if text.endswith(suffix):
            return int(float(text[: -len(suffix)]) * scale)
    return int(text)


def _parse_jobs(text: str) -> int | str:
    """Parse ``--jobs``: a positive worker count or ``auto``."""
    text = text.strip().lower()
    if text == "auto":
        return "auto"
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"jobs must be a positive integer or 'auto', got {text!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the workload-running subcommands."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL span trace (render it with `bonsai report FILE`)")
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a JSON metrics snapshot (counters, gauges, histograms)")
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="write a run manifest (args, seed, config digest, host, git rev)")


def _configure_optimize(opt: argparse.ArgumentParser) -> None:
    opt.add_argument("--platform", choices=sorted(PLATFORMS), default="aws-f1")
    opt.add_argument("--size", type=_parse_size, default=16 * GB,
                     help="input size (e.g. 16GB)")
    opt.add_argument("--record-bytes", type=int, default=4)
    opt.add_argument("--objective", choices=("latency", "throughput"),
                     default="latency")
    opt.add_argument("--presort", type=int, default=16)
    opt.add_argument("--leaves-cap", type=int, default=None)
    opt.add_argument("--top", type=int, default=5,
                     help="how many ranked configurations to print")
    _add_obs_flags(opt)


def _configure_sort(srt: argparse.ArgumentParser) -> None:
    srt.add_argument("--records", type=int, default=100_000)
    srt.add_argument("--workload", default="uniform")
    srt.add_argument("--seed", type=int, default=0)
    srt.add_argument("--p", type=int, default=8)
    srt.add_argument("--leaves", type=int, default=16)
    srt.add_argument("--mode", choices=("model", "simulate"), default="model")
    srt.add_argument("--platform", choices=sorted(PLATFORMS),
                     default="aws-f1-measured")
    srt.add_argument("--input", default=None,
                     help="flat binary file of little-endian u32 keys")
    srt.add_argument("--output", default=None,
                     help="write sorted keys to this file")
    srt.add_argument("--cluster-nodes", type=int, default=None, metavar="N",
                     help="execute an N-node range-partition cluster sort "
                          "(measured exchange + per-node sorts, verified "
                          "against a serial oracle) instead of one tree")
    srt.add_argument("--print-digest", action="store_true",
                     help="also print the sorted output's sha256 content "
                          "digest (the identity served results are "
                          "compared against)")
    srt.add_argument("--jobs", type=_parse_jobs, default=None, metavar="N",
                     help="worker processes for the nodes of a "
                          "--cluster-nodes sort (a count or 'auto'; default: "
                          "serial, results are identical either way)")
    _add_obs_flags(srt)


def _configure_scalability(sca: argparse.ArgumentParser) -> None:
    sca.add_argument("--min", type=_parse_size, default=GB // 2)
    sca.add_argument("--max", type=_parse_size, default=1024 * TB)


def _configure_ssd_plan(ssd: argparse.ArgumentParser) -> None:
    ssd.add_argument("--size", type=_parse_size, default=2048 * GB)
    ssd.add_argument("--run-bytes", type=_parse_size, default=None)


def _configure_validate(val: argparse.ArgumentParser) -> None:
    val.add_argument("--records", type=int, default=32_768)


def _configure_experiments(exp: argparse.ArgumentParser) -> None:
    exp.add_argument("--out", default="results")


def _configure_report(rep: argparse.ArgumentParser) -> None:
    rep.add_argument("trace", nargs="?", default=None, metavar="TRACE",
                     help="JSONL trace from --trace; renders the per-phase "
                          "wall-time attribution instead of REPORT.md")
    rep.add_argument("--format", choices=("table", "json"), default="table",
                     help="trace report format (default: table)")
    rep.add_argument("--results", default="benchmarks/results")
    rep.add_argument("--output", default="REPORT.md")


def _configure_serve(srv: argparse.ArgumentParser) -> None:
    srv.add_argument("--socket", required=True, metavar="PATH",
                     help="unix socket to listen on (keep the path short; "
                          "unix sockets cap out near 108 chars)")
    srv.add_argument("--queue-depth", type=int, default=64, metavar="N",
                     help="bounded job-queue depth; submissions past it are "
                          "rejected with reason 'overloaded' (default 64)")
    srv.add_argument("--client-quota", type=int, default=16, metavar="N",
                     help="max queued+running jobs per client identity "
                          "(default 16)")
    srv.add_argument("--cache-size", type=int, default=128, metavar="N",
                     help="LRU result-cache entries, keyed by job digest; "
                          "0 disables caching (default 128)")
    _add_obs_flags(srv)


def _configure_check(parser: argparse.ArgumentParser) -> None:
    from repro.lint.graph.main import add_arguments

    add_arguments(parser)


def _build_parser() -> argparse.ArgumentParser:
    """Assemble the ``bonsai`` parser from the subcommand registry.

    Every subcommand is declared once in :data:`SUBCOMMANDS` with its
    one-line summary; the summary doubles as the ``bonsai --help``
    listing entry and the subcommand's own ``--help`` description, so
    the two can never drift apart.
    """
    parser = argparse.ArgumentParser(
        prog="bonsai",
        description="Bonsai adaptive merge tree sorting (ISCA 2020 reproduction)",
        epilog="run `bonsai <command> --help` for per-command options",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="command",
        title="commands",
    )
    for name, summary, configure, _run in SUBCOMMANDS:
        child = sub.add_parser(name, help=summary, description=summary)
        if configure is not None:
            configure(child)
    return parser


# ----------------------------------------------------------------------
def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.optimizer import no_feasible_message
    from repro.serve import OptimizeJob, SortSession

    payload = SortSession().run_optimize(OptimizeJob(
        platform=args.platform,
        size_bytes=args.size,
        record_bytes=args.record_bytes,
        objective=args.objective,
        presort=args.presort,
        leaves_cap=args.leaves_cap,
        top=args.top,
    ))
    if not payload["rows"]:
        raise NoFeasibleConfigError(
            no_feasible_message(args.objective, ArrayParams.from_bytes(args.size))
        )
    print(f"platform={payload['platform']}  size={format_bytes(args.size)}  "
          f"objective={args.objective}")
    rows = [
        (
            index + 1,
            entry["config"],
            format_seconds(entry["latency_seconds"]),
            f"{entry['throughput_bytes'] / GB:.2f} GB/s",
            f"{entry['lut_usage']:,.0f}",
            f"{entry['bram_bytes']:,}",
        )
        for index, entry in enumerate(payload["rows"])
    ]
    print(render_table(
        ("#", "configuration", "latency", "throughput", "LUTs", "BRAM bytes"),
        rows,
    ))
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.obs import observation
    from repro.records.files import read_records, write_records
    from repro.records.valsort import validate_sort

    obs = observation()
    if args.jobs is not None and args.cluster_nodes is None:
        raise ConfigurationError(
            "--jobs shards the nodes of a cluster sort; add --cluster-nodes N "
            "(a single tree's sort runs in one process)"
        )

    if args.cluster_nodes is not None:
        from repro.distributed.executor import ClusterExecutor
        from repro.parallel import ParallelPlan

        platform = PLATFORMS[args.platform]()
        with obs.span("sort.load", source=args.input or args.workload):
            if args.input:
                data = read_records(args.input)
                source = args.input
            else:
                data = generate(WorkloadSpec(kind=args.workload,
                                             n_records=args.records,
                                             seed=args.seed))
                source = args.workload
        executor = ClusterExecutor(
            nodes=args.cluster_nodes,
            config=AmtConfig(p=args.p, leaves=args.leaves),
            hardware=platform.hardware,
            arch=MergerArchParams(),
            mode=args.mode,
            plan=ParallelPlan.from_jobs(args.jobs),
            seed=args.seed,
        )
        report = executor.execute(data)
        sorted_data = report.data
        assert sorted_data is not None  # execute() always attaches output
        with obs.span("sort.validate", records=len(data)):
            summary = validate_sort(data, sorted_data)
        if args.output:
            with obs.span("sort.write", path=args.output):
                write_records(args.output, sorted_data)
        print(f"cluster-sorted {len(data):,} records ({source}) across "
              f"{report.nodes} nodes, AMT({args.p}, {args.leaves}) per node")
        print(f"measured {report.measured_ms_per_gb:,.0f} ms/GB x nodes "
              f"vs modeled {report.modeled_ms_per_gb:,.0f} "
              f"(ratio {report.measured_vs_modeled:,.1f}x)  "
              f"skew={report.measured_skew:.3f}")
        print(f"phases: splitters={report.splitter_seconds:.3f}s  "
              f"exchange={report.exchange_seconds:.3f}s  "
              f"sort={report.sort_seconds:.3f}s  "
              f"merge={report.merge_seconds:.3f}s  "
              f"verified=OK ({summary.duplicates:,} duplicate keys)")
        if args.print_digest:
            print(f"digest={report.digest}")
        if args.output:
            print(f"wrote {args.output}")
        return 0

    from repro.serve import SortJob, SortSession

    session = SortSession()
    payload = session.run_sort(SortJob(
        records=args.records,
        workload=args.workload,
        seed=args.seed,
        p=args.p,
        leaves=args.leaves,
        mode=args.mode,
        platform=args.platform,
        input=args.input,
        output=args.output,
    ))
    print(f"sorted {payload['records']:,} records ({payload['source']}) with "
          f"AMT({args.p}, {args.leaves}) in {payload['stages']} stages")
    print(f"mode={payload['mode']}  "
          f"modeled time={format_seconds(payload['seconds'])}  "
          f"({payload['ms_per_gb']:.0f} ms/GB)  "
          f"verified=OK ({payload['duplicates']:,} duplicate keys)")
    if args.print_digest:
        print(f"digest={payload['digest']}")
    if args.output:
        print(f"wrote {args.output}")
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    model = ScalabilityModel()
    sizes = [s for s in ScalabilityModel.paper_sizes() if args.min <= s <= args.max]
    rows = []
    for point in model.curve(sizes):
        rows.append(
            (
                format_bytes(point.total_bytes),
                point.regime,
                point.stages,
                f"{point.latency_ms_per_gb:.0f}",
            )
        )
    print(render_table(("size", "regime", "stages", "ms/GB"), rows,
                       title="Latency per GB across input sizes (Fig. 13)"))
    print("breakpoints:")
    for jump in model.breakpoints(sizes):
        print(f"  at {format_bytes(jump['at_bytes'])}: x{jump['factor']:.2f} "
              f"({jump['cause']})")
    return 0


def _cmd_ssd_plan(args: argparse.Namespace) -> int:
    plan = SsdSortPlan(run_bytes=args.run_bytes)
    breakdown = plan.plan(ArrayParams.from_bytes(args.size))
    print(f"two-phase plan for {format_bytes(args.size)} "
          f"(runs of {format_bytes(breakdown.run_bytes)}):")
    rows = [
        (phase, f"{seconds:.1f}s", f"{percent:.1f}%")
        for phase, seconds, percent in breakdown.rows()
    ]
    rows.append(("Total", f"{breakdown.total_seconds:.1f}s", "100%"))
    print(render_table(("phase", "time", "share"), rows))
    print(f"phase one: {breakdown.phase_one_config.describe()}")
    print(f"phase two: {breakdown.phase_two_config.describe()} "
          f"x{breakdown.phase_two_stages} stage(s)")
    return 0


def _cmd_components(args: argparse.Namespace) -> int:
    for record_bytes, label in ((4, "32-bit records"), (16, "128-bit records")):
        arch = MergerArchParams(record_bytes=record_bytes)
        rows = []
        for k in (1, 2, 4, 8, 16, 32):
            rows.append(
                (
                    f"{k}-merger",
                    f"{arch.library.element_throughput_bytes(k) / GB:.0f} GB/s",
                    f"{arch.library.merger_luts(k):,.0f}",
                    f"{k}-coupler" if k > 1 else "FIFO",
                    f"{arch.library.coupler_luts(k):,.0f}"
                    if k > 1
                    else f"{arch.library.fifo_luts():,.0f}",
                )
            )
        print(render_table(
            ("element", "throughput", "LUTs", "element", "LUTs"),
            rows,
            title=f"Table VI — {label}",
        ))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import (
        geometric_mean_error,
        validate_performance,
        validate_resources,
    )

    platform = PLATFORMS["aws-f1"]()
    arch = MergerArchParams()
    perf_configs = [
        AmtConfig(p=2, leaves=8),
        AmtConfig(p=4, leaves=16),
        AmtConfig(p=8, leaves=16),
    ]
    perf = validate_performance(
        perf_configs, n_records=args.records,
        hardware=platform.hardware, arch=arch,
    )
    resource_configs = [
        AmtConfig(p=p, leaves=leaves) for p in (2, 8, 32) for leaves in (16, 256)
    ]
    resources = validate_resources(
        resource_configs, hardware=platform.hardware, arch=arch
    )
    rows = [
        (point.config.describe(), "performance",
         f"{100 * point.relative_error:.1f}%")
        for point in perf
    ] + [
        (point.config.describe(), "resources",
         f"{100 * point.relative_error:.1f}%")
        for point in resources
    ]
    print(render_table(("configuration", "model", "error vs measured"), rows))
    print(f"performance geometric-mean error: "
          f"{100 * geometric_mean_error(perf):.1f}%  (paper claims <10%)")
    print(f"resource geometric-mean error:    "
          f"{100 * geometric_mean_error(resources):.1f}%  (paper claims <5%)")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    import pathlib

    from repro.analysis.bandwidth_efficiency import efficiency_comparison
    from repro.baselines.published import (
        TABLE_I_SIZE_LABELS,
        TABLE_I_SIZES_GB,
        table_i_ms_per_gb,
    )
    from repro.core.scalability import ScalabilityModel

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Table I with our reproduced row.
    model = ScalabilityModel()
    rows = [(name,) + values for name, values in table_i_ms_per_gb().items()]
    ours = tuple(
        round(model.point(int(size * GB)).latency_ms_per_gb, 1)
        for size in TABLE_I_SIZES_GB
    )
    rows.append(("Bonsai (this repro)",) + ours)
    (out_dir / "table1.txt").write_text(
        render_table(("sorter",) + TABLE_I_SIZE_LABELS, rows,
                     title="Table I - ms/GB")
    )

    # Table V.
    breakdown = SsdSortPlan().plan(ArrayParams.from_bytes(2048 * GB))
    table5 = [(phase, round(seconds, 1), round(pct, 1))
              for phase, seconds, pct in breakdown.rows()]
    table5.append(("Total", round(breakdown.total_seconds, 1), 100.0))
    (out_dir / "table5.txt").write_text(
        render_table(("phase", "seconds", "%"), table5, title="Table V")
    )

    # Fig. 12.
    fig12 = [(e.name, round(e.efficiency, 3)) for e in efficiency_comparison()]
    (out_dir / "fig12.txt").write_text(
        render_table(("sorter", "efficiency"), fig12,
                     title="Fig. 12 - bandwidth-efficiency at 16 GB",
                     precision=3)
    )

    # Fig. 13.
    sizes = ScalabilityModel.paper_sizes()
    fig13 = [
        (format_bytes(point.total_bytes), point.regime, point.stages,
         round(point.latency_ms_per_gb, 1))
        for point in model.curve(sizes)
    ]
    (out_dir / "fig13.txt").write_text(
        render_table(("size", "regime", "stages", "ms/GB"), fig13,
                     title="Fig. 13 - latency per GB")
    )

    for name in ("table1", "table5", "fig12", "fig13"):
        print(f"wrote {out_dir / name}.txt")
    print("run `pytest benchmarks/ --benchmark-only` for the full set "
          "(Tables IV/VI, Figs. 5/8/9/10/11, ablations)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.trace:
        import json

        from repro.obs.report import build_report as build_trace_report
        from repro.obs.report import render_report

        report = build_trace_report(args.trace)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(render_report(report), end="")
        return 0
    from repro.analysis.report import build_report, collect_status

    status = collect_status(args.results)
    build_report(args.results, args.output)
    print(f"wrote {args.output} with {len(status.present)} sections")
    if status.missing:
        print(f"missing sections (run the benches): {', '.join(status.missing)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeConfig, serve

    return serve(ServeConfig(
        socket=args.socket,
        queue_depth=args.queue_depth,
        client_quota=args.client_quota,
        cache_size=args.cache_size,
    ))


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.lint.graph.main import run_from_args

    return run_from_args(args)


#: The single source of truth for ``bonsai`` subcommands:
#: ``(name, one-line summary, parser configurator, handler)``.
SUBCOMMANDS = (
    ("optimize", "find the optimal AMT configuration",
     _configure_optimize, _cmd_optimize),
    ("sort", "sort a generated workload or a file",
     _configure_sort, _cmd_sort),
    ("scalability", "Fig. 13 curve and breakpoints",
     _configure_scalability, _cmd_scalability),
    ("ssd-plan", "two-phase SSD sorting plan",
     _configure_ssd_plan, _cmd_ssd_plan),
    ("components", "print the Table VI component library",
     None, _cmd_components),
    ("validate", "model-vs-simulator accuracy check (§VI-B)",
     _configure_validate, _cmd_validate),
    ("experiments", "regenerate the paper's tables into a directory",
     _configure_experiments, _cmd_experiments),
    ("report", "consolidate benchmarks/results/ into one REPORT.md",
     _configure_report, _cmd_report),
    ("serve", "run the sorting service daemon on a unix socket",
     _configure_serve, _cmd_serve),
    ("check", "bonsai-check: static analysis of the simulator, unit, "
     "purity, determinism and error contracts",
     _configure_check, _cmd_check),
)

COMMANDS = {name: run for name, _summary, _configure, run in SUBCOMMANDS}


def _manifest_config(args: argparse.Namespace) -> dict:
    """The resolved invocation, JSON-shaped, for the run manifest."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("trace", "metrics", "manifest")
    }


def _run_command(args: argparse.Namespace, argv: list[str] | None) -> int:
    """Dispatch one parsed invocation, observed when any flag asks for it.

    With ``--trace``/``--metrics``/``--manifest`` unset this is exactly
    ``COMMANDS[args.command](args)`` — no observation objects are built,
    so the default path stays allocation-free.
    """
    handler = COMMANDS[args.command]
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    manifest = getattr(args, "manifest", None)
    if args.command == "report":
        # `report` reads traces, it does not produce them; its
        # positional `trace` is input, not an output flag.
        trace = metrics = manifest = None
    if not (trace or metrics or manifest):
        return handler(args)
    from repro.obs import session
    from repro.obs.manifest import build_manifest, write_manifest

    failure: BonsaiError | None = None
    with session(args.command, trace=trace, metrics=metrics) as obs:
        try:
            code = handler(args)
        except BonsaiError as error:
            # A failed run still deserves its provenance record — the
            # manifest is most valuable exactly when a run must be
            # explained after the fact.
            failure = error
            code = 2
        obs.gauge("cli.exit_code", code)
    if manifest:
        write_manifest(manifest, build_manifest(
            command=args.command,
            config=_manifest_config(args),
            seed=getattr(args, "seed", None),
            argv=list(argv) if argv is not None else None,
            extra={"exit_code": code},
        ))
    for label, path in (("trace", trace), ("metrics", metrics),
                        ("manifest", manifest)):
        if path:
            print(f"wrote {label} {path}", file=sys.stderr)
    if failure is not None:
        raise failure
    return code


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``bonsai`` console script."""
    args = _build_parser().parse_args(argv)
    try:
        return _run_command(args, argv)
    except BonsaiError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
