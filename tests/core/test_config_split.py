"""The split of ``AcamarConfig`` between Acamar's two decision loops.

``Acamar.solve``'s attempt loop reads the numerics fields (the fallback
order only after an attempt fails); the Fine-Grained Reconfiguration
unit reads the plan fields.  A DSE sweep shares one solve among design
points whose configs differ only in plan fields or, while the first
attempt converges, in the fallback order, so the split must hold: a
plan field never moves an attempt and a numerics field never moves the
plan.  A new field fails :func:`test_every_field_is_classified` until
it is added to one of the two tables below.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import AcamarConfig
from repro.core import Acamar
from repro.core.accelerator import NUMERICS_FIELDS, numerics_key
from repro.datasets import load_problem

# Each field with a value other than its default.
NUMERICS = {
    "tolerance": 1e-3,
    "dtype": np.dtype(np.float64),
    "setup_iterations": 20,
    "max_iterations": 30,
    "solver_options": {"gmres": {"restart": 128}},
    "solver_fallback_order": ("jacobi", "cg", "bicgstab"),
}
PLAN = {
    "chunk_size": 1024,
    "sampling_rate": 8,
    "r_opt": 0,
    "msid_tolerance": 0.5,
    "max_unroll": 4,
    "unroll_rounding": "ceil",
}

# Bc exhausts every solver at 40 iterations, so that base config also
# covers the Solver Modifier's attempts.
BASES = (AcamarConfig(), AcamarConfig(max_iterations=40))
STAND_INS = ("2C", "Wi", "Bc", "Fe")


@pytest.fixture(scope="module")
def problems():
    return [load_problem(key) for key in STAND_INS]


def assert_same_attempts(new, old):
    assert new.solver_sequence == old.solver_sequence
    for a, b in zip(new.attempts, old.attempts):
        assert a.selected_by == b.selected_by
        assert a.result.status is b.result.status
        assert a.result.iterations == b.result.iterations
        assert a.result.x.dtype == b.result.x.dtype
        assert a.result.x.tobytes() == b.result.x.tobytes()
        assert (
            a.result.residual_history.tobytes()
            == b.result.residual_history.tobytes()
        )
        assert list(a.result.ops.counts.items()) == list(
            b.result.ops.counts.items()
        )
        assert list(a.result.ops.sizes.items()) == list(
            b.result.ops.sizes.items()
        )


def plan_state(plan):
    return (
        plan.sets,
        plan.raw_unrolls.tobytes(),
        plan.final_unrolls.tobytes(),
        plan.msid.initial.tobytes(),
        plan.msid.final.tobytes(),
        plan.msid.initial_events,
        plan.msid.final_events,
    )


def test_every_field_is_classified():
    names = {field.name for field in dataclasses.fields(AcamarConfig)}
    assert not set(NUMERICS) & set(PLAN)
    assert names == set(NUMERICS) | set(PLAN)


def test_numerics_key_holds_every_numerics_field_but_the_fallback_order():
    assert set(NUMERICS_FIELDS) == set(NUMERICS) - {"solver_fallback_order"}
    base = numerics_key(AcamarConfig())
    for name, value in NUMERICS.items():
        moved = numerics_key(AcamarConfig(**{name: value})) != base
        assert moved == (name != "solver_fallback_order"), name
    for name, value in PLAN.items():
        assert numerics_key(AcamarConfig(**{name: value})) == base, name


@pytest.mark.parametrize("base", BASES, ids=["default", "exhaust"])
@pytest.mark.parametrize("name", sorted(PLAN))
def test_plan_fields_leave_the_attempts_alone(problems, base, name):
    changed = base.with_overrides(**{name: PLAN[name]})
    plans_moved = False
    for problem in problems:
        before = Acamar(base).solve(problem.matrix, problem.b)
        after = Acamar(changed).solve(problem.matrix, problem.b)
        assert after.selection == before.selection
        assert_same_attempts(after, before)
        plans_moved |= plan_state(after.plan) != plan_state(before.plan)
    assert plans_moved, f"{name} moved no plan, so it tests nothing"


@pytest.mark.parametrize("name", sorted(NUMERICS))
def test_numerics_fields_leave_the_plan_alone(problems, name):
    base = AcamarConfig()
    changed = base.with_overrides(**{name: NUMERICS[name]})
    for problem in problems:
        assert plan_state(Acamar(changed).plan(problem.matrix)) == (
            plan_state(Acamar(base).plan(problem.matrix))
        )
