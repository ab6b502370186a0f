"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Print the Table II stand-in registry.
``solve``
    Run Acamar (or a single fixed solver) on a dataset or generated
    problem and print the decision trace plus modeled performance.
``campaign``
    Solve a whole workload population (keys and/or ``.mtx`` paths),
    optionally sharded across ``--workers`` processes, with CSV and
    telemetry-JSON export.
``serve``
    Run the online serving simulator over a request log (``--requests``
    JSONL) or freshly generated synthetic traffic.
``loadtest``
    Deterministic synthetic load test: generate traffic for a seed and
    serve it, emitting latency percentiles, queue/shed statistics and
    cache hit rate (byte-identical report for a fixed seed).
``lint``
    Run the whole-program invariant linter (``repro.analysis``): the
    file-scoped determinism, layering, numeric-safety,
    exception-policy, telemetry-naming and virtual-clock rules
    (REP001–REP006) plus the cross-module telemetry-liveness,
    worker-boundary, exit-contract and determinism-escape rules
    (REP007–REP010), with SARIF output.
``chaos``
    Run the deterministic fault-injection harness (``repro.faults``)
    against the pool / serve / solver recovery surfaces and audit the
    recovery invariants; violations render lint-style.
``experiment``
    Regenerate one paper table/figure (``table2``, ``fig6``, …) over all
    datasets or a subset.
``experiments``
    Regenerate everything, in the paper's order.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro import Acamar, AcamarConfig
from repro.baselines import StaticDesign
from repro.datasets import dataset_keys, dataset_spec, load_problem, poisson_2d
from repro.experiments import ALL_EXPERIMENTS
from repro.fpga import PerformanceModel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Acamar (MICRO 2024) reproduction — simulation CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="print the Table II stand-in registry")

    solve = sub.add_parser("solve", help="solve one problem with Acamar")
    source = solve.add_mutually_exclusive_group(required=True)
    source.add_argument("--dataset", help="Table II key, e.g. 2C")
    source.add_argument(
        "--poisson", type=int, metavar="N", help="2-D Poisson on an NxN grid"
    )
    solve.add_argument(
        "--solver",
        help="bypass the Matrix Structure unit and run this fixed solver",
    )
    solve.add_argument("--sampling-rate", type=int, default=32)
    solve.add_argument("--r-opt", type=int, default=8)
    solve.add_argument("--msid-tolerance", type=float, default=0.15)
    solve.add_argument("--max-iterations", type=int, default=4000)
    solve.add_argument(
        "--counters", action="store_true",
        help="print the hardware-counter snapshot after the solve",
    )
    solve.add_argument(
        "--config", metavar="FILE",
        help="JSON file of AcamarConfig fields (overridden by flags)",
    )

    campaign = sub.add_parser(
        "campaign", help="solve a workload population, optionally in parallel"
    )
    campaign.add_argument(
        "sources", nargs="*",
        help="Table II keys and/or .mtx/.mtx.gz paths",
    )
    campaign.add_argument(
        "--all", action="store_true", dest="all_datasets",
        help="run the full Table II suite (may be combined with sources)",
    )
    campaign.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard across N worker processes (default: serial)",
    )
    campaign.add_argument(
        "--chunk-size", type=int, default=None, metavar="K",
        help="cap scheduling chunks at K problems each",
    )
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument(
        "--telemetry", metavar="FILE",
        help="write the telemetry aggregate as JSON (docs/operations.md)",
    )
    campaign.add_argument(
        "--csv", metavar="FILE", help="write the per-problem table as CSV"
    )

    def add_serving_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--duration", type=float, default=5.0, metavar="S",
            help="simulated traffic duration in seconds",
        )
        p.add_argument(
            "--rate", type=float, default=120.0, metavar="RPS",
            help="mean request arrival rate",
        )
        p.add_argument(
            "--mix", default="repeat-heavy",
            choices=("uniform", "repeat-heavy", "bursty"),
            help="traffic mix over the Table II registry",
        )
        p.add_argument(
            "--deadline-ms", type=float, default=100.0,
            help="relative deadline of interactive requests",
        )
        p.add_argument("--queue-capacity", type=int, default=64)
        p.add_argument("--max-batch", type=int, default=8)
        p.add_argument("--batch-window-ms", type=float, default=1.0)
        p.add_argument(
            "--slots-per-device", type=int, default=4,
            help="co-resident solver instances per device",
        )
        p.add_argument(
            "--gpu-tenants", type=int, default=0, metavar="N",
            help="MPS GPU tenant partitions alongside the FPGA slots "
            "(0 = pure-FPGA fleet; cluster mode: tenants per fleet)",
        )
        p.add_argument(
            "--cpu-assist", action="store_true",
            help="offload cold-path structural analysis to a host CPU "
            "core (adds a PCIe round trip, frees device time)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="disable the fingerprint-keyed plan cache",
        )
        p.add_argument("--cache-capacity", type=int, default=256)
        p.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="worker processes for cold-solve profiling",
        )
        p.add_argument(
            "--out", metavar="FILE",
            help="write the full JSON report (deterministic for a seed)",
        )
        p.add_argument(
            "--responses", metavar="FILE",
            help="write the response log as JSONL",
        )
        p.add_argument(
            "--telemetry", metavar="FILE",
            help="write wall-clock telemetry (spans are NOT deterministic)",
        )

    serve = sub.add_parser(
        "serve", help="run the serving simulator over a request stream"
    )
    serve.add_argument(
        "--requests", metavar="FILE",
        help="JSONL request log to replay (default: generate synthetic)",
    )
    serve.add_argument(
        "--save-requests", metavar="FILE",
        help="write the generated request log as JSONL",
    )
    add_serving_flags(serve)

    loadtest = sub.add_parser(
        "loadtest", help="deterministic synthetic load test"
    )
    add_serving_flags(loadtest)

    cluster = loadtest.add_argument_group(
        "cluster mode",
        "multi-fleet simulator (repro.serve.cluster); ignores the "
        "single-fleet --queue-capacity/--max-batch/--batch-window-ms/"
        "--slots-per-device/--no-cache flags",
    )
    cluster.add_argument(
        "--cluster", action="store_true",
        help="serve through the fingerprint-routed fleet cluster",
    )
    cluster.add_argument(
        "--fleets", type=int, default=2, metavar="N",
        help="initial fleet count",
    )
    cluster.add_argument("--min-fleets", type=int, default=1, metavar="N")
    cluster.add_argument("--max-fleets", type=int, default=8, metavar="N")
    cluster.add_argument(
        "--slots-per-fleet", type=int, default=4, metavar="N",
        help="co-resident solver instances per fleet",
    )
    cluster.add_argument(
        "--cluster-queue-capacity", type=int, default=4096, metavar="N",
        help="per-fleet admission queue bound",
    )
    cluster.add_argument(
        "--cluster-max-batch", type=int, default=64, metavar="N",
    )
    cluster.add_argument(
        "--batch-fill-ms", type=float, default=40.0, metavar="MS",
        help="micro-batch fill window on the cluster tier",
    )
    cluster.add_argument(
        "--no-affinity", action="store_true",
        help="round-robin routing instead of fingerprint affinity",
    )
    cluster.add_argument(
        "--no-autoscale", action="store_true",
        help="hold the fleet count static at --fleets",
    )
    cluster.add_argument(
        "--max-gpu-tenants", type=int, default=None, metavar="N",
        help="cluster-wide cap on GPU tenant partitions; the "
        "autoscaler clamps new fleets' tenancy to stay under it "
        "(default: uncapped)",
    )

    lint = sub.add_parser(
        "lint", help="machine-check the repo's invariants (REP001–REP010)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", default="text",
        choices=("text", "json", "github", "sarif"),
        help="finding renderer (github emits PR annotations, sarif a "
        "SARIF 2.1.0 log for code-scanning upload)",
    )
    lint.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule subset, e.g. REP001,REP008",
    )
    lint.add_argument(
        "--out", metavar="FILE",
        help="also write the rendered report to FILE",
    )

    chaos = sub.add_parser(
        "chaos",
        help="inject deterministic faults and audit recovery invariants",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the fault schedule (same seed → byte-identical "
        "report)",
    )
    chaos.add_argument(
        "--profile", default="all",
        choices=("pool", "serve", "solver", "cluster", "placement", "all"),
        help="which recovery surface to attack (default: all of them)",
    )
    chaos.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report renderer",
    )
    chaos.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON report to FILE",
    )

    dse = sub.add_parser(
        "dse",
        help="explore fleet design space and answer capacity queries",
    )
    dse.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="workload seed (same seed → byte-identical report)",
    )
    dse.add_argument(
        "--space", metavar="FILE",
        help="design-space JSON (default: the built-in demo space)",
    )
    dse.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the sweep (never changes the report)",
    )
    dse.add_argument(
        "--slo-ms", type=float, default=None, metavar="MS",
        help="capacity query: p99 SLO in milliseconds",
    )
    dse.add_argument(
        "--rate", type=float, default=None, metavar="RPS",
        help="capacity query: target arrival rate",
    )
    dse.add_argument(
        "--max-shed", type=float, default=None, metavar="FRAC",
        help="capacity query: tolerable shed fraction",
    )
    dse.add_argument(
        "--format", default="text", choices=("text", "json", "csv"),
        help="report renderer",
    )
    dse.add_argument(
        "--out", metavar="FILE",
        help="also write the JSON report to FILE",
    )
    dse.add_argument(
        "--csv", metavar="FILE",
        help="also write the per-point CSV to FILE",
    )
    dse.add_argument(
        "--telemetry", metavar="FILE",
        help="write wall-clock telemetry (spans are NOT deterministic)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument(
        "name", choices=sorted(ALL_EXPERIMENTS), help="experiment id"
    )
    experiment.add_argument(
        "--keys",
        help="comma-separated dataset subset (default: all 25)",
    )
    experiment.add_argument(
        "--chart", metavar="COLUMN",
        help="also render the named numeric column as ASCII bars",
    )

    sub.add_parser("experiments", help="regenerate every table and figure")
    sub.add_parser(
        "summary", help="run everything and print the paper-claim checklist"
    )
    export = sub.add_parser(
        "export", help="write every experiment table as CSV + JSON"
    )
    export.add_argument("directory", help="output directory")
    export.add_argument("--keys", help="comma-separated dataset subset")
    return parser


def _usage_error(command: str, message: object) -> int:
    """Report a rejected request on stderr; usage errors exit 2."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _check_outputs(*paths: str | None) -> None:
    """Reject unwritable output paths before any work is done.

    Raises :class:`~repro.errors.ConfigurationError` (a usage error) for
    the first path that is a directory or whose parent directory is
    missing or not writable.
    """
    from repro.errors import ConfigurationError

    for path in paths:
        if not path:
            continue
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            problem = "it is a directory"
        elif not os.path.isdir(parent):
            problem = f"directory {parent} does not exist"
        elif not os.access(parent, os.W_OK):
            problem = f"directory {parent} is not writable"
        else:
            continue
        raise ConfigurationError(f"cannot write {path}: {problem}")


def _cmd_list_datasets() -> int:
    print(f"{'key':4s} {'dataset':20s} {'paper dim':10s} {'n':>5s} structure")
    for key in dataset_keys():
        spec = dataset_spec(key)
        print(
            f"{spec.key:4s} {spec.name:20s} {spec.paper_dim:10s} "
            f"{spec.n:>5d} {spec.structure}"
        )
    return 0


def _read_config(path: str) -> AcamarConfig:
    """Load ``solve --config``: a JSON object of AcamarConfig fields.

    A file that cannot be read, is not JSON or does not hold an object
    raises :class:`~repro.errors.ConfigurationError`, a usage error.
    """
    import json

    from repro.errors import ConfigurationError

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"config {path} must hold a JSON object, "
            f"got {type(payload).__name__}"
        )
    return AcamarConfig.from_dict(payload)


def _cmd_solve(args: argparse.Namespace) -> int:
    """Solve one problem.

    Exit-code contract (pinned in ``tests/test_cli.py``): 0 when the
    final attempt converges, 1 when it does not (fixed solver or the
    Acamar fallback chain alike), 2 for a usage error — an unresolvable
    source, a bad flag or ``--config`` value, an unknown solver — which
    is rejected before the problem line prints, and 2 for a problem too
    large to allocate.
    """
    overrides = {
        "sampling_rate": args.sampling_rate,
        "r_opt": args.r_opt,
        "msid_tolerance": args.msid_tolerance,
        "max_iterations": args.max_iterations,
    }
    if args.config:
        config = _read_config(args.config).with_overrides(**overrides)
    else:
        config = AcamarConfig(**overrides)
    design = (
        StaticDesign(args.solver, spmv_urb=8, config=config)
        if args.solver else None
    )
    if args.dataset:
        problem = load_problem(args.dataset)
    else:
        problem = poisson_2d(args.poisson)
    print(f"problem: {problem.name}  n={problem.n}  nnz={problem.nnz}")

    model = PerformanceModel()
    if design is not None:
        result = design.solve(problem.matrix, problem.b)
        latency = design.latency(problem.matrix, result, model)
        print(f"fixed solver {args.solver!r}: {result.status.value} "
              f"after {result.iterations} iterations "
              f"(residual {result.final_residual:.2e})")
        print(f"modeled compute latency: {latency.compute_seconds * 1e3:.3f} ms")
        return 0 if result.converged else 1

    acamar = Acamar(config)
    result = acamar.solve(problem.matrix, problem.b)
    print(f"matrix structure: {result.selection.reason}")
    print(f"solver sequence: {' -> '.join(result.solver_sequence)}")
    print(f"outcome: {result.final.status.value} after "
          f"{result.final.iterations} iterations "
          f"(residual {result.final.final_residual:.2e})")
    plan = result.plan
    print(f"plan: {len(plan.sets)} sets, {plan.reconfiguration_count} "
          f"reconfigurations/sweep (MSID removed {plan.msid.events_removed})")
    latency = model.acamar_latency(problem.matrix, result)
    print(f"modeled compute latency: {latency.compute_seconds * 1e3:.3f} ms "
          f"(+{latency.final.reconfig_seconds * 1e3:.3f} ms reconfiguration)")
    if args.counters:
        from repro.fpga.counters import collect_counters

        print("\nperformance counters:")
        for line in collect_counters(problem.matrix, result, model).to_lines():
            print(f"  {line}")
    return 0 if result.converged else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import run_campaign

    sources: list[str] = list(args.sources)
    if args.all_datasets:
        sources = list(dataset_keys()) + sources
    if not sources:
        print(
            "campaign: no sources given (pass keys/.mtx paths or --all)",
            file=sys.stderr,
        )
        return 2
    _check_outputs(args.csv, args.telemetry)
    report = run_campaign(
        sources,
        seed=args.seed,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    for line in report.summary_lines():
        print(line)
    for entry in report.failures:
        print(f"FAILED {entry.name}: {entry.failure}")
    if args.csv:
        print(f"wrote CSV to {report.to_csv(args.csv)}")
    if args.telemetry:
        print(f"wrote telemetry to "
              f"{report.telemetry.write_json(args.telemetry)}")
    converged = sum(1 for e in report.entries if e.converged)
    return 0 if report.entries and converged == len(report.entries) else 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    """``repro loadtest --cluster``: the multi-fleet simulator."""
    from repro.serve import ClusterConfig, LoadSpec, run_cluster_loadtest

    _check_outputs(args.out, args.telemetry)
    spec = LoadSpec(
        seed=args.seed,
        duration_s=args.duration,
        rate_rps=args.rate,
        mix=args.mix,
        deadline_ms=args.deadline_ms,
    )
    config = ClusterConfig(
        initial_fleets=args.fleets,
        min_fleets=args.min_fleets,
        max_fleets=args.max_fleets,
        slots_per_fleet=args.slots_per_fleet,
        gpu_tenants_per_fleet=args.gpu_tenants,
        cpu_assist=args.cpu_assist,
        max_gpu_tenants=args.max_gpu_tenants,
        max_batch=args.cluster_max_batch,
        batch_fill_ms=args.batch_fill_ms,
        queue_capacity=args.cluster_queue_capacity,
        cache_capacity=args.cache_capacity,
        affinity_routing=not args.no_affinity,
        autoscale=not args.no_autoscale,
        workers=args.workers,
    )
    report = run_cluster_loadtest(spec, config)
    print(
        f"loadtest --cluster: served {report.generated} requests over "
        f"{len(report.fleets)} fleet(s)"
    )
    for line in report.summary_lines():
        print(line)
    if report.unaccounted:
        print(
            f"loadtest: {report.unaccounted} request(s) landed in no "
            "accounting bucket — invariant violated",
            file=sys.stderr,
        )
        return 1
    if args.out:
        print(f"wrote report to {report.write_json(args.out)}")
    if args.telemetry:
        print(f"wrote telemetry to "
              f"{report.telemetry.write_json(args.telemetry)}")
    return 0


def _cmd_serving(args: argparse.Namespace, command: str) -> int:
    """Shared implementation of ``serve`` and ``loadtest``."""
    if command == "loadtest" and getattr(args, "cluster", False):
        return _cmd_cluster(args)
    from repro.fpga import FleetSpec
    from repro.serve import (
        LoadSpec,
        ServiceConfig,
        generate_requests,
        read_request_log,
        run_service,
        write_request_log,
    )

    requests_path = getattr(args, "requests", None)
    _check_outputs(
        args.out, args.responses, args.telemetry,
        getattr(args, "save_requests", None),
    )
    service_config = ServiceConfig(
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        cache_enabled=not args.no_cache,
        cache_capacity=args.cache_capacity,
        fleet=FleetSpec(
            slots_per_device=args.slots_per_device,
            gpu_tenants=args.gpu_tenants,
            cpu_assist=args.cpu_assist,
        ),
        workers=args.workers,
    )
    spec = None if requests_path else LoadSpec(
        seed=args.seed,
        duration_s=args.duration,
        rate_rps=args.rate,
        mix=args.mix,
        deadline_ms=args.deadline_ms,
    )
    if spec is None:
        requests = read_request_log(requests_path)
        meta = {"request_log": str(requests_path)}
    else:
        requests = generate_requests(spec)
        meta = spec.as_dict()
        if getattr(args, "save_requests", None):
            print(
                f"wrote request log to "
                f"{write_request_log(requests, args.save_requests)}"
            )
    report = run_service(requests, service_config, meta=meta)
    print(f"{command}: served {len(requests)} requests "
          f"({'no cache' if args.no_cache else 'fingerprint cache on'})")
    for line in report.summary_lines():
        print(line)
    if report.unaccounted:
        print(
            f"{command}: {report.unaccounted} request(s) received no "
            "response — accounting invariant violated",
            file=sys.stderr,
        )
        return 1
    if args.out:
        print(f"wrote report to {report.write_json(args.out)}")
    if args.responses:
        print(f"wrote response log to "
              f"{report.write_response_log(args.responses)}")
    if args.telemetry:
        print(f"wrote telemetry to "
              f"{report.telemetry.write_json(args.telemetry)}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the whole-program invariant linter.

    Exit-code contract (pinned in ``tests/analysis/test_lint_cli.py``,
    matching the ``repro solve`` style): 0 when the tree is clean, 1 when
    findings remain, 2 for a usage error (bad path, unknown rule).
    """
    from pathlib import Path

    import repro
    from repro.analysis import format_findings, run_project_lint

    paths = [Path(p) for p in args.paths]
    if not paths:
        paths = [Path(repro.__file__).parent]
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    _check_outputs(args.out)
    report = run_project_lint(paths, rules=rules)
    rendered = format_findings(report, args.format)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote lint report to {args.out}", file=sys.stderr)
    print(rendered)
    return 0 if report.clean else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection harness.

    Same exit-code contract as ``repro lint`` (pinned in
    ``tests/faults/test_chaos_cli.py``): 0 when every recovery
    invariant held, 1 when violations were found, 2 for a usage error.
    """
    from pathlib import Path

    from repro.faults import CHAOS_PROFILES, run_chaos

    profiles = (
        CHAOS_PROFILES if args.profile == "all" else (args.profile,)
    )
    _check_outputs(args.out)
    report = run_chaos(args.chaos_seed, profiles)
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _cmd_dse(args: argparse.Namespace) -> int:
    """Explore the fleet design space and answer the capacity query.

    Exit-code contract (pinned in ``tests/dse/test_dse_cli.py``): 0
    when a feasible cheapest configuration exists, 1 when the query has
    no feasible answer, 2 for a usage error (bad space file, bad query
    bounds, unknown sources).
    """
    from pathlib import Path

    from repro.dse import CapacityQuery, load_space, run_dse
    from repro.telemetry import Telemetry

    collector = Telemetry()
    _check_outputs(args.out, args.csv, args.telemetry)
    space = load_space(args.space) if args.space else None
    query_overrides = {
        key: value
        for key, value in (
            ("slo_p99_ms", args.slo_ms),
            ("rate_rps", args.rate),
            ("max_shed_rate", args.max_shed),
        )
        if value is not None
    }
    query = CapacityQuery(**query_overrides)
    report = run_dse(
        space=space,
        seed=args.seed,
        workers=args.workers,
        query=query,
        collector=collector,
    )
    if args.out:
        print(f"wrote report to {report.write_json(args.out)}",
              file=sys.stderr)
    if args.csv:
        print(f"wrote CSV to {report.write_csv(args.csv)}",
              file=sys.stderr)
    if args.telemetry:
        print(f"wrote telemetry to "
              f"{collector.write_json(Path(args.telemetry))}",
              file=sys.stderr)
    if args.format == "json":
        print(report.to_json(), end="")
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.render_text(), end="")
    return 0 if report.capacity["cheapest"] is not None else 1


def _parse_keys(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _cmd_experiment(args: argparse.Namespace) -> int:
    module = ALL_EXPERIMENTS[args.name]
    keys = _parse_keys(args.keys)
    table = module.run(keys) if args.name != "table1" else module.run()
    print(table.to_text())
    if args.chart:
        print()
        print(table.render_series(table.headers[0], args.chart))
    return 0


def _cmd_experiments() -> int:
    for name, module in ALL_EXPERIMENTS.items():
        print(module.run().to_text())
        print()
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-datasets":
        return _cmd_list_datasets()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command in ("serve", "loadtest"):
        return _cmd_serving(args, args.command)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "dse":
        return _cmd_dse(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "experiments":
        return _cmd_experiments()
    if args.command == "summary":
        from repro.experiments.summary import run as run_summary

        table = run_summary()
        print(table.to_text())
        return 0 if all(table.column("holds")) else 1
    if args.command == "export":
        from repro.experiments.export import export_all

        files = export_all(args.directory, _parse_keys(args.keys))
        print(f"wrote {len(files)} files to {args.directory}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    The one usage-error boundary: a bad flag value, an unknown name or
    source, an unreadable input, or a request too large for memory
    raises one of the errors caught here, wherever in the command it is
    detected, and exits 2 with one line on stderr instead of a traceback.
    """
    from repro.errors import (
        ConfigurationError,
        DatasetError,
        UnknownNameError,
        ValidationError,
    )

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (
        ConfigurationError, DatasetError, UnknownNameError, ValidationError
    ) as exc:
        return _usage_error(args.command, exc.args[0] if exc.args else exc)
    except MemoryError as exc:
        # str(), not args[0]: numpy's allocation error keeps the shape there.
        return _usage_error(args.command, exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
