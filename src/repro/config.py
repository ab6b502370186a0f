"""Accelerator configuration.

Collects the knobs Section V of the paper sweeps and their published
defaults: convergence threshold ``1e-5`` in fp32, 4096×4096 chunking,
``SamplingRate = 32``, ``rOpt = 8`` MSID stages, MSID ``tolerance = 0.15``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError

DEFAULT_SOLVER_FALLBACK_ORDER: tuple[str, ...] = ("bicgstab", "cg", "jacobi")
"""Solver Modifier preference when the selected solver fails: most general
method first."""

_INTEGER_FIELDS: tuple[tuple[str, int], ...] = (
    ("chunk_size", 1),
    ("sampling_rate", 1),
    ("r_opt", 0),
    ("max_unroll", 1),
    ("setup_iterations", 0),
    ("max_iterations", 1),
)
"""Integer fields of :class:`AcamarConfig` and their lower bounds."""


def check_integer_fields(
    owner: object, fields: Iterable[tuple[str, int]]
) -> None:
    """Reject each named field of ``owner`` that is not an integer
    (``bool`` included) or lies below its lower bound.

    The one construction-time check of every integer knob:
    :class:`AcamarConfig`, the serving layer's ``ServiceConfig``, the
    fleet's ``FleetSpec`` and the cluster tier's ``ClusterConfig``
    each pass their ``(name, minimum)`` pairs here.
    """
    for name, minimum in fields:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(
                f"{name} must be an integer, got {value!r}"
            )
        if value < minimum:
            raise ConfigurationError(
                f"{name} must be >= {minimum}, got {value}"
            )


@dataclass(frozen=True)
class AcamarConfig:
    """Parameters of the Acamar accelerator (paper Section V defaults).

    Attributes
    ----------
    tolerance:
        Relative-residual convergence threshold (Section V-B: ``1e-5``).
    dtype:
        Floating-point precision of the compute fabric (paper: 32-bit).
    chunk_size:
        Rows per processing chunk (paper: 4096).
    sampling_rate:
        Number of row sets per chunk for the Row Length Trace (paper: 32).
    r_opt:
        MSID chain stages (paper: 8; 0 disables the optimization).
    msid_tolerance:
        MSID normalized-difference tolerance (paper experiments: 0.15).
    max_unroll:
        Largest unroll factor the Dynamic SpMV kernel region can hold.
    setup_iterations:
        Divergence-check grace period at the reference 4096 problem size
        (paper: 200); scaled with problem size by the monitor.
    max_iterations:
        Iteration cap per solver attempt.
    unroll_rounding:
        How Eq. 7 averages quantize to unroll factors ('nearest', the
        paper's behaviour; 'ceil' favours latency; 'floor' favours
        utilization) — an ablation knob.
    solver_options:
        Extra constructor arguments per solver name (e.g.
        ``{"gmres": {"restart": 1024}}``), used when the fallback order
        includes extension solvers.
    solver_fallback_order:
        Solver Modifier preference once the structure-selected solver
        fails.
    """

    tolerance: float = 1e-5
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32))
    chunk_size: int = 4096
    sampling_rate: int = 32
    r_opt: int = 8
    msid_tolerance: float = 0.15
    max_unroll: int = 64
    setup_iterations: int = 200
    max_iterations: int = 4000
    solver_fallback_order: tuple[str, ...] = DEFAULT_SOLVER_FALLBACK_ORDER
    unroll_rounding: str = "nearest"
    solver_options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for name in ("tolerance", "msid_tolerance"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.tolerance <= 0:
            raise ConfigurationError(f"tolerance must be > 0, got {self.tolerance}")
        if self.msid_tolerance < 0:
            raise ConfigurationError(
                f"msid_tolerance must be >= 0, got {self.msid_tolerance}"
            )
        check_integer_fields(self, _INTEGER_FIELDS)
        if self.unroll_rounding not in ("nearest", "ceil", "floor"):
            raise ConfigurationError(
                f"unroll_rounding must be 'nearest', 'ceil' or 'floor', "
                f"got {self.unroll_rounding!r}"
            )
        try:
            dtype = np.dtype(self.dtype)
        except TypeError:
            raise ConfigurationError(
                f"dtype must name a numpy data type, got {self.dtype!r}"
            ) from None
        object.__setattr__(self, "dtype", dtype)

    def with_overrides(self, **kwargs) -> "AcamarConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-serializable view (dtype as its name, tuples as lists)."""
        return {
            "tolerance": self.tolerance,
            "dtype": self.dtype.name,
            "chunk_size": self.chunk_size,
            "sampling_rate": self.sampling_rate,
            "r_opt": self.r_opt,
            "msid_tolerance": self.msid_tolerance,
            "max_unroll": self.max_unroll,
            "setup_iterations": self.setup_iterations,
            "max_iterations": self.max_iterations,
            "solver_fallback_order": list(self.solver_fallback_order),
            "unroll_rounding": self.unroll_rounding,
            "solver_options": {
                name: dict(options)
                for name, options in self.solver_options.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AcamarConfig":
        """Rebuild a config from :meth:`to_dict` output (or a JSON file).

        Unknown keys raise, so a typo in a config file fails loudly
        instead of silently running paper defaults.
        """
        known = {
            "tolerance", "dtype", "chunk_size", "sampling_rate", "r_opt",
            "msid_tolerance", "max_unroll", "setup_iterations",
            "max_iterations", "solver_fallback_order", "unroll_rounding",
            "solver_options",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown config keys: {sorted(unknown)}"
            )
        kwargs: dict[str, Any] = dict(payload)
        if "solver_fallback_order" in kwargs:
            kwargs["solver_fallback_order"] = tuple(
                kwargs["solver_fallback_order"]
            )
        return cls(**kwargs)
