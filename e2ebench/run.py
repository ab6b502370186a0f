"""End-to-end benchmark: four workloads on the host and modeled clocks.

Usage, from the root of a repository checkout::

    python3 e2ebench/run.py --workload solve-65k --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with nothing instrumented and reports
the end-to-end metrics; ``--trace 1`` alternates untraced passes with
passes traced layer by layer (``tracer.py``) and reports the per-layer
metrics.  Both modes print a table of every metric with its unit and
direction, then one JSON result line.  The exit code is 0 when every
output check passed, 1 when one failed and 2 when the run could not
start.  See ``e2ebench/README.md`` for the metric definitions.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import CLOCK

# One process, one BLAS thread: pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = BENCH_DIR / ".runs"

SETUPS = 3  # input builds per run; setup_s takes their median

REFERENCE_KERNEL_S = 0.0135
"""CPU seconds of :class:`ReferenceKernel` on the host the bounds were set
on, a shared two-vCPU 2.0 GHz virtual machine, in its fast state (it
alternates with a state about 1.7x slower)."""
MIN_PASSES = 3  # untraced passes timed after the warm-up
MIN_TRACED_PASSES = 2

# name -> (unit, better); the end-to-end metrics BENCHMARK.json bounds.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "device_s": ("s", "lower"),
}

# Modeled end-to-end outputs of single workloads; deterministic per seed.
WORKLOAD_OUTPUTS = {
    "modeled_compute_ms": ("ms", "lower"),
    "modeled_reconfig_ms": ("ms", "lower"),
    "mean_ru": ("ratio", "lower"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "capacity_mm2_s": ("mm2.s", "lower"),
    "best_gflops_per_w": ("GFLOPS/W", "higher"),
}

# name -> (unit, better, exact).  Exact metrics are counts or modeled
# values that must repeat bit for bit across passes and runs.
PER_LAYER = {
    "datasets.build_s": ("s", "lower", False),
    "sparse.spmv_calls": ("count", "lower", True),
    "sparse.spmv_s": ("s", "lower", False),
    "sparse.spmv_bytes": ("B", "lower", True),
    "sparse.spmv_gbps": ("GB/s", "higher", False),
    "sparse.transpose_s": ("s", "lower", False),
    "solvers.iterations": ("count", "lower", True),
    "solvers.solve_s": ("s", "lower", False),
    "solvers.self_s": ("s", "lower", False),
    "solvers.s_per_iter": ("s", "lower", False),
    "core.select_s": ("s", "lower", False),
    "core.plan_s": ("s", "lower", False),
    "core.attempts": ("count", "lower", True),
    "core.solver_swaps": ("count", "lower", True),
    "core.useful_iter_share": ("ratio", "higher", True),
    "core.spmv_reconfig_events": ("count", "lower", True),
    "fpga.cost_model_s": ("s", "lower", False),
    "fpga.modeled_spmv_ms": ("ms", "lower", True),
    "fpga.modeled_dense_ms": ("ms", "lower", True),
    "fpga.modeled_init_ms": ("ms", "lower", True),
    "fpga.modeled_spmv_share": ("ratio", "lower", True),
    "campaign.resolve_s": ("s", "lower", False),
    "campaign.entry_s": ("s", "lower", False),
    "campaign.self_s": ("s", "lower", False),
    "serve.loadgen_s": ("s", "lower", False),
    "serve.profile_s": ("s", "lower", False),
    "serve.dispatch_s": ("s", "lower", False),
    "serve.self_s": ("s", "lower", False),
    "serve.requests": ("count", "higher", True),
    "serve.batches": ("count", "lower", True),
    "serve.cache_hit_rate": ("ratio", "higher", True),
    "serve.config_loads": ("count", "lower", True),
    "serve.queue_ms_p50": ("ms", "lower", True),
    "serve.queue_ms_p99": ("ms", "lower", True),
    "serve.service_ms_p50": ("ms", "lower", True),
    "serve.service_ms_p99": ("ms", "lower", True),
    "serve.report_bytes": ("B", "lower", True),
    "cluster.trace_s": ("s", "lower", False),
    "cluster.sim_s": ("s", "lower", False),
    "cluster.requests": ("count", "higher", True),
    "cluster.requests_per_s": ("1/s", "higher", False),
    "cluster.batches": ("count", "lower", True),
    "cluster.config_loads": ("count", "lower", True),
    "cluster.local_hit_rate": ("ratio", "higher", True),
    "cluster.remote_hits": ("count", "lower", True),
    "cluster.fleets_peak": ("count", "lower", True),
    "dse.points": ("count", "higher", True),
    "dse.point_eval_s": ("s", "lower", False),
    "dse.profile_s": ("s", "lower", False),
    "dse.reduce_s": ("s", "lower", False),
    "dse.frontier_size": ("count", "higher", True),
    "trace.overhead": ("ratio", "lower", False),
    "trace.unattributed_share": ("ratio", "lower", False),
    "host.steal_share": ("ratio", "lower", False),
}
PER_LAYER.update(
    {name: (unit, better, True)
     for name, (unit, better) in WORKLOAD_OUTPUTS.items()}
)


@dataclass
class Pass:
    cpu_s: float
    wall_s: float
    kernel_s: float
    traced: bool
    result: Any
    layers: dict[str, float] | None

    @property
    def reference_s(self) -> float:
        """CPU seconds at the reference host's speed (see ReferenceKernel)."""
        return self.cpu_s / self.kernel_s * REFERENCE_KERNEL_S


class ReferenceKernel:
    """Fixed work that gauges how fast the host runs right now.

    On shared cores the speed of the same code drifts by a quarter to
    70% over seconds to minutes, with no steal to show for it.  Timed
    right before and after each pass, this kernel (a gather-multiply-
    reduce over a 5 MB working set plus dict updates, the two kinds of
    work the program does) slows down with the pass, so a pass's CPU time
    divided by the kernel's is steady where the raw time is not.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(400_000).astype(np.float32)
        self.columns = rng.integers(0, 100_000, 400_000)
        self.starts = np.arange(0, 400_000, 8)
        self.x = rng.standard_normal(100_000).astype(np.float32)
        self.reduceat = np.add.reduceat

    def __call__(self) -> float:
        start = CLOCK()
        for _ in range(4):
            self.reduceat(self.values * self.x[self.columns], self.starts)
            table: dict[int, int] = {}
            for i in range(15_000):
                table[i % 251] = table.get(i % 251, 0) + i
        return CLOCK() - start


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(v) for v in fields[1:9]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def steal_share(start: tuple[int, int] | None) -> float:
    end = cpu_times()
    if start is None or end is None or end[1] <= start[1]:
        return 0.0
    return (end[0] - start[0]) / (end[1] - start[1])


def code_digest() -> str:
    """Content hash of the program and the benchmark sources."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files += sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def percentiles(values: list[float], qs: tuple[float, ...]) -> list[float]:
    import numpy as np

    if not values:
        return [0.0 for _ in qs]
    return [float(v) for v in np.percentile(values, qs)]


def layer_metrics(tracer: Any, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and captures."""
    captured = tracer.captured
    m: dict[str, float] = {}

    calls, spmv_s, spmv_bytes = tracer.spmv()
    m["sparse.spmv_calls"] = calls
    m["sparse.spmv_s"] = spmv_s
    m["sparse.spmv_bytes"] = spmv_bytes
    m["sparse.spmv_gbps"] = spmv_bytes / spmv_s / 1e9 if spmv_s else 0.0
    m["sparse.transpose_s"] = tracer.total("sparse.CSRMatrix.transpose")

    iterations = sum(r.iterations for r in captured["solve_result"])
    solve_s = tracer.layer_total("solvers")
    m["solvers.iterations"] = iterations
    m["solvers.solve_s"] = solve_s
    m["solvers.self_s"] = tracer.layer_self("solvers")
    m["solvers.s_per_iter"] = solve_s / iterations if iterations else 0.0

    results = captured["acamar_result"]
    all_iterations = sum(a.result.iterations for r in results
                         for a in r.attempts)
    m["core.select_s"] = tracer.total(
        "core.MatrixStructureUnit.select_solver")
    m["core.plan_s"] = tracer.total("core.FineGrainedReconfigurationUnit.plan")
    m["core.attempts"] = sum(len(r.attempts) for r in results)
    m["core.solver_swaps"] = sum(r.solver_reconfigurations for r in results)
    m["core.useful_iter_share"] = (
        sum(r.final.iterations for r in results) / all_iterations
        if all_iterations else 0.0
    )
    m["core.spmv_reconfig_events"] = sum(
        r.spmv_reconfigurations for r in results)

    attempts = [a for lat in captured["latency"] for a in lat.attempts]
    spmv_ms = sum(a.spmv_seconds for a in attempts) * 1e3
    dense_ms = sum(a.dense_seconds for a in attempts) * 1e3
    init_ms = sum(a.init_seconds for a in attempts) * 1e3
    compute_ms = spmv_ms + dense_ms + init_ms
    m["fpga.cost_model_s"] = tracer.total(
        "fpga.PerformanceModel.acamar_latency")
    m["fpga.modeled_spmv_ms"] = spmv_ms
    m["fpga.modeled_dense_ms"] = dense_ms
    m["fpga.modeled_init_ms"] = init_ms
    m["fpga.modeled_spmv_share"] = spmv_ms / compute_ms if compute_ms else 0.0

    m["campaign.resolve_s"] = tracer.total("campaign.resolve_source")
    m["campaign.entry_s"] = tracer.total("campaign.build_entry")
    m["campaign.self_s"] = tracer.layer_self("campaign")

    reports = captured["serving_report"]
    done = [r for report in reports for r in report.completed]
    queue = percentiles([r.queue_s * 1e3 for r in done], (50, 99))
    service = percentiles([r.service_s * 1e3 for r in done], (50, 99))
    m["serve.loadgen_s"] = tracer.total("serve.generate_requests")
    m["serve.profile_s"] = tracer.total("serve.build_profiles")
    m["serve.dispatch_s"] = tracer.total("serve.MicroBatchScheduler.dispatch")
    m["serve.self_s"] = tracer.layer_self("serve")
    m["serve.requests"] = sum(len(report.requests) for report in reports)
    m["serve.batches"] = sum(len(report.scheduler.batches)
                             for report in reports)
    m["serve.cache_hit_rate"] = (
        sum(r.cache_hit for r in done) / len(done) if done else 0.0)
    m["serve.config_loads"] = sum(slot.config_loads for report in reports
                                  for slot in report.scheduler.slots)
    m["serve.queue_ms_p50"], m["serve.queue_ms_p99"] = queue
    m["serve.service_ms_p50"], m["serve.service_ms_p99"] = service
    m["serve.report_bytes"] = sum(len(report.to_json()) for report in reports)

    docs = [report.as_dict() for report in captured["cluster_report"]]
    lookups = [doc["cache"]["lookups"] for doc in docs]
    looked_up = sum(x["local_hits"] + x["remote_hits"] + x["misses"]
                    for x in lookups)
    sim_s = sum(s.self_s for s in tracer.spans
                if s.name == "cluster.run_cluster")
    cluster_requests = sum(doc["requests"]["generated"] for doc in docs)
    m["cluster.trace_s"] = tracer.total("cluster.generate_trace")
    m["cluster.sim_s"] = sim_s
    m["cluster.requests"] = cluster_requests
    m["cluster.requests_per_s"] = cluster_requests / sim_s if sim_s else 0.0
    m["cluster.batches"] = sum(doc["batches"]["count"] for doc in docs)
    m["cluster.config_loads"] = sum(doc["batches"]["config_loads"]
                                    for doc in docs)
    m["cluster.local_hit_rate"] = (
        sum(x["local_hits"] for x in lookups) / looked_up
        if looked_up else 0.0)
    m["cluster.remote_hits"] = sum(x["remote_hits"] for x in lookups)
    m["cluster.fleets_peak"] = max((doc["fleets"]["peak"] for doc in docs),
                                   default=0)

    dse_reports = captured["dse_report"]
    m["dse.points"] = sum(len(r.records) for r in dse_reports)
    m["dse.point_eval_s"] = tracer.total("dse.evaluate_point")
    m["dse.profile_s"] = tracer.under("serve.build_profiles", "dse")
    m["dse.reduce_s"] = tracer.total("dse.build_report")
    m["dse.frontier_size"] = sum(len(r.frontier_ids) for r in dse_reports)

    m["trace.unattributed_share"] = (
        (cpu_s - tracer.root_total()) / cpu_s if cpu_s else 0.0)
    return m


class DeterminismRecord:
    """Exact metrics per (workload, input seed, code digest), across runs."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.data = {}

    def check(self, key: str, values: dict[str, float]) -> list[str]:
        known = self.data.setdefault(key, {})
        mismatches = [
            f"{name}: {value!r} here, {known[name]!r} in an earlier run"
            for name, value in values.items()
            if name in known and known[name] != value
        ]
        for name, value in values.items():
            known.setdefault(name, value)
        return mismatches

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def exact_values(p: Pass) -> dict[str, float]:
    values = dict(p.result.modeled)
    values["solver_iterations"] = p.result.solver_iterations
    if p.layers is not None:
        values.update({name: p.layers[name] for name, spec in PER_LAYER.items()
                       if spec[2] and name in p.layers})
    return values


def set_up(workload: Any, seed: int, kernel: ReferenceKernel,
           tracer: Any) -> tuple[Any, list, list]:
    """Build the inputs ``SETUPS`` times; keep the last build.

    Returns the inputs, each build's CPU seconds at the reference host's
    speed and, when traced, each build's seconds inside the datasets
    layer.
    """
    build_s, dataset_s = [], []
    for index in range(SETUPS):
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.op = f"setup{index}"
            tracer.install()
        kernel_s = kernel()
        start = CLOCK()
        inputs = workload.build(seed)
        cpu = CLOCK() - start
        kernel_s = (kernel_s + kernel()) / 2
        build_s.append(cpu / kernel_s * REFERENCE_KERNEL_S)
        if tracer is not None:
            tracer.uninstall()
            dataset_s.append(tracer.layer_total("datasets"))
    return inputs, build_s, dataset_s


def run_passes(workload: Any, inputs: Any, seconds: float,
               kernel: ReferenceKernel,
               tracer: Any) -> tuple[list[Pass], dict[str, Any]]:
    """Repeat the workload until ``seconds`` are spent.

    Pass 0 warms lazy state (first calls, shared stand-in caches); it is
    checked like every pass but left out of the timings.  With a tracer,
    odd passes are traced and even ones are not.  Returns the passes and
    the spans of the last traced pass.
    """
    from workloads import SolveLog

    passes: list[Pass] = []
    last_spans: dict[str, Any] = {}
    deadline = time.perf_counter() + seconds
    while True:
        timed = passes[1:]
        n_traced = sum(p.traced for p in timed)
        if (time.perf_counter() >= deadline
                and len(timed) - n_traced >= MIN_PASSES
                and (tracer is None or n_traced >= MIN_TRACED_PASSES)):
            return passes, last_spans
        traced = tracer is not None and len(passes) % 2 == 1
        pass_args = workload.prepare(inputs)
        log = SolveLog()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.op = f"pass{len(passes)}"
            tracer.install()
        kernel_s = kernel()
        with log.recording():
            wall_start = time.perf_counter()
            start = CLOCK()
            output = workload.execute(pass_args)
            cpu = CLOCK() - start
            wall = time.perf_counter() - wall_start
        if traced:
            tracer.uninstall()
        kernel_s = (kernel_s + kernel()) / 2
        result = workload.evaluate(output, log)
        layers = None
        if traced:
            layers = layer_metrics(tracer, cpu)
            last_spans = {"pass": tracer.op, "cpu_s": cpu,
                          "spans": tracer.as_records(start)}
            tracer.reset()
        passes.append(Pass(cpu, wall, kernel_s, traced, result, layers))


def determinism_failures(workload_name: str, seed: int,
                         passes: list[Pass]) -> list[str]:
    """Exact values that differ between passes or from an earlier run."""
    failures = []
    reference = exact_values(passes[0])
    traced_reference = next((exact_values(p) for p in passes if p.traced), {})
    for index, p in enumerate(passes[1:], start=1):
        # Tracing must not change a modeled value, so traced passes are
        # held to the untraced reference as well.
        base = {**traced_reference, **reference} if p.traced else reference
        failures += [
            f"pass {index} {name}: {value!r} != {base[name]!r} in pass 0"
            for name, value in exact_values(p).items()
            if name in base and base[name] != value
        ]
    record = DeterminismRecord(STATE_DIR / "determinism.json")
    key = f"{workload_name}|seed={seed}|code={code_digest()}"
    failures += record.check(key, {**reference, **traced_reference})
    record.save()
    return failures


def run(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: {src} holds no repro package; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    steal_start = cpu_times()

    from workloads import WORKLOADS, input_seed

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    for module in workload.imports:
        importlib.import_module(module)
    import_s = CLOCK()  # CPU time since the process started
    kernel = ReferenceKernel()
    import_s *= REFERENCE_KERNEL_S / statistics.median(
        kernel() for _ in range(3))
    seed = input_seed(args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    inputs, build_s, dataset_s = set_up(workload, seed, kernel, tracer)
    passes, last_spans = run_passes(workload, inputs, args.seconds, kernel,
                                    tracer)

    failures = [msg for p in passes for msg in p.result.failures]
    failed = sum(p.result.failed for p in passes)
    attempted = sum(p.result.operations for p in passes)
    mismatches = determinism_failures(workload.name, seed, passes)
    failures += mismatches
    failed += len(mismatches)

    timed = [p for p in passes[1:] if not p.traced]
    untraced = [p.reference_s for p in timed]
    modeled = passes[0].result.modeled
    e2e = {
        "setup_s": import_s + statistics.median(build_s),
        "cpu_s": statistics.median(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "device_s": modeled["device_s"],
    }
    extra = {
        "error_rate": (failed / attempted, "ratio", "lower"),
        "cpu_raw_s": (statistics.median(p.cpu_s for p in timed), "s",
                      "lower"),
        "host.kernel_s": (statistics.median(p.kernel_s for p in timed), "s",
                          "lower"),
        "wall_s": (statistics.median(p.wall_s for p in timed), "s", "lower"),
        "passes": (len(passes), "count", "higher"),
        "operations": (attempted, "count", "higher"),
        "solver_iterations": (passes[0].result.solver_iterations, "count",
                              "lower"),
        "import_s": (import_s, "s", "lower"),
        "host.steal_share": (steal_share(steal_start), "ratio", "lower"),
    }
    for name, (unit, better) in WORKLOAD_OUTPUTS.items():
        if name in modeled:
            extra[name] = (modeled[name], unit, better)
    if "samples_beyond_p99" in modeled:
        extra["samples_beyond_p99"] = (modeled["samples_beyond_p99"],
                                       "count", "higher")

    print(f"e2ebench {workload.name}: seed {args.seed} (input seed {seed}), "
          f"trace {'on' if tracer else 'off'}, {len(passes)} passes")
    rows = [(name, value, *END_TO_END[name]) for name, value in e2e.items()]
    rows += [(name, *spec) for name, spec in extra.items()]
    if tracer is not None:
        # One consistent breakdown: every layer time comes from the
        # quietest traced pass (least CPU against the reference kernel),
        # so the layers add up to that pass.
        traced = [p for p in passes if p.traced]
        fastest = min(traced, key=lambda p: p.reference_s)
        layer_values = {name: fastest.layers.get(name, 0.0)
                        for name in PER_LAYER}
        layer_values.update({name: modeled.get(name, 0.0)
                             for name in WORKLOAD_OUTPUTS})
        layer_values["datasets.build_s"] = statistics.median(dataset_s)
        layer_values["trace.overhead"] = (
            statistics.median(p.reference_s for p in traced)
            / statistics.median(untraced) - 1.0)
        layer_values["host.steal_share"] = extra["host.steal_share"][0]
        rows += [(name, layer_values[name], unit, better)
                 for name, (unit, better, _) in PER_LAYER.items()
                 if name not in WORKLOAD_OUTPUTS and name != "host.steal_share"]
        metrics = {name: {"value": layer_values[name],
                          "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        STATE_DIR.mkdir(parents=True, exist_ok=True)
        (STATE_DIR / f"spans-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps({"workload": workload.name, "seed": args.seed,
                        "input_seed": seed, **last_spans}) + "\n")
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, value in e2e.items()}

    for name, value, unit, better in rows:
        print(f"  {name:28s} {value:>16.6g} {unit:9s} {better} is better")
    for message in sorted(set(failures))[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
