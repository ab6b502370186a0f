"""Declarative fleet design spaces for ``repro dse``.

A *design point* is one fleet shape crossed with one named traffic
spec.  The shape covers every deployment knob the cluster simulator
exposes — per-fleet slot count, the Dynamic-SpMV unroll budget and
solver-fallback mix each slot is built for, plan-cache and admission
sizing, and the autoscaler's fleet bounds — while the traffic spec
names an arrival-rate/mix/deadline regime.  Spaces are declared as
small axis lists (the full cross product is taken), either in code
(:func:`demo_space`, the committed space CI sweeps) or from a JSON file
(:func:`load_space`, the ``repro dse --space`` syntax documented in
``docs/dse.md``).

Everything here is pure data with strict validation: evaluation lives
in :mod:`repro.dse.evaluator`, dominance in :mod:`repro.dse.frontier`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.config import check_integer_fields
from repro.errors import ConfigurationError
from repro.serve.loadgen import validate_traffic

SOLVER_MIXES: Mapping[str, tuple[str, ...]] = {
    # The paper's Solver Modifier preference: most general method first.
    "paper-default": ("bicgstab", "cg", "jacobi"),
    # SPD-leaning fleets: CG first trades robustness for its cheaper
    # per-iteration kernel on symmetric traffic.
    "cg-first": ("cg", "bicgstab", "jacobi"),
    # Throughput-leaning fleets: try the cheapest kernel first and
    # escalate only on divergence.
    "jacobi-first": ("jacobi", "cg", "bicgstab"),
}
"""Named per-slot solver-fallback orders a fleet shape can deploy."""

#: Axis names of the fleet-shape cross product, in declaration order.
SHAPE_AXES = (
    "slots_per_fleet", "max_unroll", "solver_mix", "cache_capacity",
    "queue_capacity", "fleet_bounds",
)

#: Optional axes with their defaults: heterogeneous-placement knobs a
#: space may sweep without forcing every legacy space document to name
#: them.
OPTIONAL_SHAPE_AXES: Mapping[str, tuple[Any, ...]] = {
    "gpu_tenants": (0,),
    "cpu_assist": (False,),
}

#: Fields of a space document's traffic entry; ``deadline_ms`` may be
#: left out.
_REQUIRED_TRAFFIC_KEYS = ("name", "mix", "rate_rps", "duration_s")
_TRAFFIC_KEYS = (*_REQUIRED_TRAFFIC_KEYS, "deadline_ms")

DEMO_SOURCES = ("2C", "Wi", "Li", "Fe")
"""Registry keys of the committed demo space (small, structurally
diverse: SPD cliques, non-symmetric SDD, symmetric SDD, mixed-sign
SDD)."""


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(
        value, bool
    )


@dataclass(frozen=True)
class FleetShape:
    """One deployable cluster configuration (the hardware-side axes)."""

    slots_per_fleet: int
    max_unroll: int
    solver_mix: str
    cache_capacity: int
    queue_capacity: int
    min_fleets: int
    max_fleets: int
    gpu_tenants: int = 0
    cpu_assist: bool = False

    def __post_init__(self) -> None:
        check_integer_fields(self, (
            ("slots_per_fleet", 0), ("max_unroll", 1), ("cache_capacity", 1),
            ("queue_capacity", 1), ("min_fleets", 1), ("max_fleets", 1),
            ("gpu_tenants", 0),
        ))
        if not isinstance(self.cpu_assist, bool):
            raise ConfigurationError(
                f"cpu_assist must be true or false, got {self.cpu_assist!r}"
            )
        if self.slots_per_fleet + self.gpu_tenants < 1:
            raise ConfigurationError(
                "a fleet shape needs at least one dispatchable slot "
                "(slots_per_fleet + gpu_tenants >= 1)"
            )
        if not isinstance(self.solver_mix, str) or (
            self.solver_mix not in SOLVER_MIXES
        ):
            raise ConfigurationError(
                f"unknown solver mix {self.solver_mix!r}; expected one of "
                f"{tuple(sorted(SOLVER_MIXES))}"
            )
        if not 1 <= self.min_fleets <= self.max_fleets:
            raise ConfigurationError(
                "need 1 <= min_fleets <= max_fleets, got "
                f"{self.min_fleets} / {self.max_fleets}"
            )

    @property
    def shape_id(self) -> str:
        """Stable human-readable identity used in reports and CSV.

        Heterogeneous suffixes (``-g<n>``, ``-assist``) appear only
        when the axes are engaged, so every legacy shape id is
        unchanged.
        """
        base = (
            f"s{self.slots_per_fleet}-u{self.max_unroll}-"
            f"{self.solver_mix}-c{self.cache_capacity}-"
            f"q{self.queue_capacity}-f{self.min_fleets}:{self.max_fleets}"
        )
        if self.gpu_tenants > 0:
            base += f"-g{self.gpu_tenants}"
        if self.cpu_assist:
            base += "-assist"
        return base

    def as_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "slots_per_fleet": self.slots_per_fleet,
            "max_unroll": self.max_unroll,
            "solver_mix": self.solver_mix,
            "cache_capacity": self.cache_capacity,
            "queue_capacity": self.queue_capacity,
            "min_fleets": self.min_fleets,
            "max_fleets": self.max_fleets,
        }
        if self.gpu_tenants > 0 or self.cpu_assist:
            document["gpu_tenants"] = self.gpu_tenants
            document["cpu_assist"] = self.cpu_assist
        return document


@dataclass(frozen=True)
class TrafficSpec:
    """One named arrival regime a shape is evaluated against."""

    name: str
    mix: str
    rate_rps: float
    duration_s: float
    deadline_ms: float = 100.0

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"traffic spec name must be a non-empty string, "
                f"got {self.name!r}"
            )
        validate_traffic(
            self.mix, self.duration_s, self.rate_rps, self.deadline_ms
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "mix": self.mix,
            "rate_rps": self.rate_rps,
            "duration_s": self.duration_s,
            "deadline_ms": self.deadline_ms,
        }


@dataclass(frozen=True)
class DesignSpace:
    """Fleet shapes x traffic specs over a fixed source population."""

    shapes: tuple[FleetShape, ...]
    traffic: tuple[TrafficSpec, ...]
    sources: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ConfigurationError("design space needs at least one shape")
        if not self.traffic:
            raise ConfigurationError(
                "design space needs at least one traffic spec"
            )
        if not self.sources:
            raise ConfigurationError(
                "design space needs at least one problem source"
            )
        shape_ids = [shape.shape_id for shape in self.shapes]
        if len(set(shape_ids)) != len(shape_ids):
            raise ConfigurationError("duplicate fleet shapes in the space")
        names = [spec.name for spec in self.traffic]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate traffic spec names")
        if len(set(self.sources)) != len(self.sources):
            raise ConfigurationError("duplicate problem sources")

    def __len__(self) -> int:
        return len(self.shapes) * len(self.traffic)

    def points(self) -> list[tuple[FleetShape, TrafficSpec]]:
        """Every (shape, traffic) pair, in stable declaration order."""
        return [
            (shape, spec)
            for shape in self.shapes
            for spec in self.traffic
        ]

    def as_dict(self) -> dict[str, Any]:
        return {
            "shapes": [shape.as_dict() for shape in self.shapes],
            "traffic": [spec.as_dict() for spec in self.traffic],
            "sources": list(self.sources),
        }


def point_id(shape: FleetShape, traffic: TrafficSpec) -> str:
    """Stable identity of one design point."""
    return f"{shape.shape_id}@{traffic.name}"


def cross_shapes(axes: Mapping[str, Sequence[Any]]) -> tuple[FleetShape, ...]:
    """Cross the named axis lists into the full shape grid.

    ``axes`` must provide exactly the :data:`SHAPE_AXES` keys and may
    add any of :data:`OPTIONAL_SHAPE_AXES` (``gpu_tenants``,
    ``cpu_assist``); each axis is a non-empty list, and
    ``fleet_bounds`` entries are ``(min_fleets, max_fleets)`` integer
    pairs.  Values are taken as given, never coerced: a float or a
    ``bool`` on an integer axis, or a string on ``cpu_assist``, raises.
    """
    missing = [name for name in SHAPE_AXES if name not in axes]
    unknown = sorted(
        set(axes) - set(SHAPE_AXES) - set(OPTIONAL_SHAPE_AXES)
    )
    if missing or unknown:
        raise ConfigurationError(
            f"shape axes must be exactly {SHAPE_AXES} "
            f"(plus optional {tuple(OPTIONAL_SHAPE_AXES)}); "
            f"missing {missing}, unknown {unknown}"
        )
    for name in (*SHAPE_AXES, *OPTIONAL_SHAPE_AXES):
        if name not in axes:
            continue
        if not isinstance(axes[name], (list, tuple)):
            raise ConfigurationError(
                f"axis {name!r} must be a list, got {axes[name]!r}"
            )
        if not axes[name]:
            raise ConfigurationError(f"axis {name!r} must not be empty")
    optional = {
        name: tuple(axes.get(name, default))
        for name, default in OPTIONAL_SHAPE_AXES.items()
    }
    shapes: list[FleetShape] = []
    for slots, unroll, mix, cache, queue, bounds, tenants, assist in (
        product(
            *(axes[name] for name in SHAPE_AXES),
            optional["gpu_tenants"],
            optional["cpu_assist"],
        )
    ):
        if (
            not isinstance(bounds, (tuple, list))
            or len(bounds) != 2
            or not all(_is_integer(bound) for bound in bounds)
        ):
            raise ConfigurationError(
                f"fleet_bounds entries must be (min, max) integer pairs, "
                f"got {bounds!r}"
            )
        shapes.append(
            FleetShape(
                slots_per_fleet=slots,
                max_unroll=unroll,
                solver_mix=mix,
                cache_capacity=cache,
                queue_capacity=queue,
                min_fleets=bounds[0],
                max_fleets=bounds[1],
                gpu_tenants=tenants,
                cpu_assist=assist,
            )
        )
    return tuple(shapes)


def demo_space() -> DesignSpace:
    """The committed demo space CI sweeps (32 shapes x 2 regimes).

    Small enough to evaluate in seconds, wide enough that every
    frontier objective moves: slot count and unroll budget trade area
    against latency, and queue sizing decides whether the bursty
    regime sheds — the axis the capacity query turns on.  The solver
    mix and cache sizing are swept too, but on the four demo sources
    they move no metric: no source ever reaches the Solver Modifier,
    so both mixes profile alike, and both cache capacities exceed the
    four structures.  At seed 1 the 64 points have 12 distinct
    outcomes (the sweep runs 16 simulations; see ``docs/dse.md``,
    "Sweep cost").
    """
    shapes = cross_shapes({
        "slots_per_fleet": (2, 4),
        "max_unroll": (16, 64),
        "solver_mix": ("paper-default", "cg-first"),
        "cache_capacity": (8, 64),
        "queue_capacity": (512, 2048),
        "fleet_bounds": ((1, 3),),
    })
    traffic = (
        TrafficSpec(
            name="steady-200", mix="repeat-heavy", rate_rps=200.0,
            duration_s=8.0, deadline_ms=100.0,
        ),
        TrafficSpec(
            name="rush-600", mix="bursty", rate_rps=600.0,
            duration_s=8.0, deadline_ms=100.0,
        ),
    )
    return DesignSpace(
        shapes=shapes, traffic=traffic, sources=DEMO_SOURCES
    )


def space_from_dict(payload: Mapping[str, Any]) -> DesignSpace:
    """Build a space from the ``repro dse --space`` JSON document.

    Expected keys: ``axes`` (the :data:`SHAPE_AXES` lists), ``traffic``
    (a list of :class:`TrafficSpec` field dicts) and optionally
    ``sources`` (a list of registry keys; default: the demo sources).
    Unknown keys raise, so typos fail loudly instead of sweeping the
    defaults, and every malformed value raises
    :class:`~repro.errors.ConfigurationError` naming its key.
    """
    known = {"axes", "traffic", "sources"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigurationError(f"unknown design-space keys: {unknown}")
    if "axes" not in payload or "traffic" not in payload:
        raise ConfigurationError(
            "design-space document needs 'axes' and 'traffic' sections"
        )
    axes = payload["axes"]
    if not isinstance(axes, Mapping):
        raise ConfigurationError("'axes' must be an object of axis lists")
    shapes = cross_shapes(axes)
    if not isinstance(payload["traffic"], list):
        raise ConfigurationError(
            f"'traffic' must be a list of traffic specs, "
            f"got {payload['traffic']!r}"
        )
    traffic: list[TrafficSpec] = []
    for entry in payload["traffic"]:
        if not isinstance(entry, Mapping):
            raise ConfigurationError(
                f"traffic entries must be objects, got {entry!r}"
            )
        bad = sorted(set(entry) - set(_TRAFFIC_KEYS))
        if bad:
            raise ConfigurationError(f"unknown traffic keys: {bad}")
        missing = [
            key for key in _REQUIRED_TRAFFIC_KEYS if key not in entry
        ]
        if missing:
            raise ConfigurationError(
                f"traffic entry {entry!r} is missing keys {missing}"
            )
        traffic.append(TrafficSpec(**entry))
    sources = payload.get("sources", list(DEMO_SOURCES))
    if not isinstance(sources, list) or not all(
        isinstance(source, str) for source in sources
    ):
        raise ConfigurationError(
            f"'sources' must be a list of registry keys, got {sources!r}"
        )
    sources = tuple(sources)
    _validate_sources(sources)
    return DesignSpace(
        shapes=shapes, traffic=tuple(traffic), sources=sources
    )


def load_space(path: str | Path) -> DesignSpace:
    """Load a design space from a JSON file (``repro dse --space``)."""
    import json

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read design space {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"design space {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"design space {path} must be a JSON object"
        )
    return space_from_dict(payload)


def _validate_sources(sources: Sequence[str]) -> None:
    from repro.datasets import dataset_keys

    known = dataset_keys()
    bad = sorted(set(sources) - set(known))
    if bad:
        raise ConfigurationError(
            f"unknown problem sources {bad}; pick from the Table II "
            "registry (repro list-datasets)"
        )
