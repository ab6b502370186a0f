"""Outside-in layer tracer for the end-to-end benchmark.

The program is not edited: :class:`Tracer` wraps the public entry points
of each layer (the table in :func:`_entry_points`) with timing shims for
the duration of one traced pass and restores the originals afterwards.
A function imported by name into other modules (``from repro.serve
import build_profiles``) is replaced in every loaded ``repro`` module
that holds it, so call sites inside the program see the shim too.

Spans are kept in memory as parent-linked records (name, layer, start,
end, parent index, operation id).  A layer's self time is a span's
duration minus the part its child spans cover.  Return values the
per-layer metrics need (solve results, cost-model reports, serving and
cluster reports) are captured by reference; the metrics are derived
after the pass, outside the timed region.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

SPMV_NAMES = ("sparse.CSRMatrix.matvec", "sparse.CSRMatrix.rmatvec")

# Host times are CPU seconds of the single-threaded benchmark process
# (wall time on an idle host): on shared cores the hypervisor steals up to
# a fifth of the time in some stretches, and CPU time leaves that out.
CLOCK = time.process_time


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "child_s",
                 "nested", "extra")

    def __init__(self, name: str, layer: str, parent: int, op: str,
                 nested: bool) -> None:
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.child_s = 0.0
        # True when an enclosing span belongs to the same layer, so layer
        # totals count only the outermost span of each layer.
        self.nested = nested
        self.extra = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _spmv_bytes(matrix: Any, args: tuple, result: Any) -> int:
    """Bytes one SpMV streams, computed from array sizes (not measured)."""
    x = args[0] if args else None
    return int(matrix.indptr.nbytes + matrix.indices.nbytes
               + matrix.data.nbytes + getattr(x, "nbytes", 0)
               + getattr(result, "nbytes", 0))


def _entry_points() -> list[tuple[str, Any, str, str | None]]:
    """(layer, owner, attribute, capture key) for every wrapped entry point.

    ``owner`` is a module or a class; a capture key keeps the return
    value for the post-pass metric derivation.
    """
    import repro.campaign as campaign
    import repro.datasets as datasets
    import repro.dse.evaluator as dse_evaluator
    import repro.dse.report as dse_report
    import repro.serve.cluster.service as cluster_service
    import repro.serve.cluster.trace as cluster_trace
    import repro.serve.loadgen as loadgen
    import repro.serve.service as serve_service
    from repro.core.accelerator import Acamar
    from repro.core.finegrained import FineGrainedReconfigurationUnit
    from repro.core.matrix_structure import MatrixStructureUnit
    from repro.fpga.cost_model import PerformanceModel
    from repro.serve.scheduler import MicroBatchScheduler
    from repro.solvers import SOLVER_REGISTRY
    from repro.sparse.csr import CSRMatrix

    points: list[tuple[str, Any, str, str | None]] = [
        ("datasets", datasets, name, None)
        for name in datasets.__all__
        if callable(getattr(datasets, name))
        and not isinstance(getattr(datasets, name), type)
    ]
    points += [
        ("sparse", CSRMatrix, "matvec", None),
        ("sparse", CSRMatrix, "rmatvec", None),
        ("sparse", CSRMatrix, "transpose", None),
    ]
    points += [
        ("solvers", cls, "solve", "solve_result")
        for cls in SOLVER_REGISTRY.values()
        if "solve" in vars(cls)
    ]
    points += [
        ("core", MatrixStructureUnit, "select_solver", None),
        ("core", FineGrainedReconfigurationUnit, "plan", None),
        ("core", Acamar, "solve", "acamar_result"),
        ("fpga", PerformanceModel, "acamar_latency", "latency"),
        ("campaign", campaign, "run_campaign", None),
        ("campaign", campaign, "resolve_source", None),
        ("campaign", campaign, "build_entry", None),
        ("serve", serve_service, "run_loadtest", None),
        ("serve", serve_service, "run_service", "serving_report"),
        ("serve", serve_service, "build_profiles", None),
        ("serve", loadgen, "generate_requests", None),
        ("serve", MicroBatchScheduler, "dispatch", None),
        ("cluster", cluster_service, "run_cluster_loadtest", None),
        ("cluster", cluster_service, "run_cluster", "cluster_report"),
        ("cluster", cluster_trace, "generate_trace", None),
        ("dse", dse_report, "run_dse", "dse_report"),
        ("dse", dse_report, "build_report", None),
        ("dse", dse_evaluator, "run_sweep", None),
        ("dse", dse_evaluator, "evaluate_point", None),
    ]
    return points


class Tracer:
    """Span and capture store plus the shims that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.captured: dict[str, list[Any]] = defaultdict(list)
        self.op = ""
        self._stack: list[int] = []
        self._open_layers: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and captures (between passes)."""
        self.spans = []
        self.captured = defaultdict(list)
        self._stack = []
        self._open_layers = defaultdict(int)

    def _shim(self, fn: Callable, layer: str, name: str,
              capture: str | None) -> Callable:
        is_spmv = name in SPMV_NAMES
        clock = CLOCK

        @functools.wraps(fn)
        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            open_layers = self._open_layers
            parent = stack[-1] if stack else -1
            span = Span(name, layer, parent, self.op, open_layers[layer] > 0)
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            open_layers[layer] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                open_layers[layer] -= 1
                if parent >= 0:
                    self.spans[parent].child_s += span.end - span.start
            if is_spmv:
                span.extra = _spmv_bytes(args[0], args[1:], result)
            elif capture is not None:
                self.captured[capture].append(result)
            return result

        return shim

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point, including names re-imported elsewhere."""
        replacements: dict[int, Any] = {}
        for layer, owner, attr, capture in _entry_points():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if id(original) in replacements:
                continue
            qualname = attr if not isinstance(owner, type) \
                else f"{owner.__name__}.{attr}"
            shim = self._shim(original, layer, f"{layer}.{qualname}", capture)
            replacements[id(original)] = shim
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, shim)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                shim = replacements.get(id(value))
                if shim is not None and not isinstance(value, type):
                    self._restore.append((module, attr, value))
                    namespace[attr] = shim

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                vars(owner)[attr] = original
        self._restore = []

    # -- queries --------------------------------------------------------

    def _ancestors(self, span: Span) -> Iterator[Span]:
        parent = span.parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def total(self, name: str) -> float:
        """Seconds inside spans called ``name`` (outermost of the name)."""
        return sum(s.duration for s in self.spans if s.name == name
                   and all(a.name != name for a in self._ancestors(s)))

    def layer_total(self, layer: str) -> float:
        """Seconds inside the outermost spans of ``layer``."""
        return sum(s.duration for s in self.spans
                   if s.layer == layer and not s.nested)

    def layer_self(self, layer: str) -> float:
        """Exclusive seconds of ``layer``: its spans minus their children."""
        return sum(s.self_s for s in self.spans if s.layer == layer)

    def root_total(self) -> float:
        """Seconds covered by spans with no parent."""
        return sum(s.duration for s in self.spans if s.parent < 0)

    def under(self, name: str, ancestor_layer: str) -> float:
        """Seconds of ``name`` spans that run inside an ``ancestor_layer`` span."""
        return sum(s.duration for s in self.spans if s.name == name
                   and any(a.layer == ancestor_layer for a in self._ancestors(s)))

    def spmv(self) -> tuple[int, float, int]:
        """(calls, seconds, bytes) of outermost SpMV spans."""
        calls, seconds, nbytes = 0, 0.0, 0
        for span in self.spans:
            if span.name in SPMV_NAMES and not span.nested:
                calls += 1
                seconds += span.duration
                nbytes += span.extra
        return calls, seconds, nbytes

    def as_records(self, origin: float) -> list[list[Any]]:
        """Spans as ``[name, start_s, end_s, parent, op]`` rows."""
        return [[s.name, round(s.start - origin, 9), round(s.end - origin, 9),
                 s.parent, s.op] for s in self.spans]
