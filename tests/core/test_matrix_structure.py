"""Tests for the Matrix Structure unit's solver selection."""

import numpy as np
import pytest

from repro.core.matrix_structure import MatrixStructureUnit
from repro.datasets.generators import (
    sdd_indefinite_matrix,
    sdd_matrix,
    spd_clique_matrix,
    spd_clique_skew_matrix,
)
from repro.datasets.pde import convection_diffusion_2d_matrix
from repro.sparse import CSRMatrix


@pytest.fixture
def unit():
    return MatrixStructureUnit()


class TestSelection:
    def test_symmetric_selects_cg(self, unit):
        matrix = spd_clique_matrix(256, 6.0, seed=1)
        selection = unit.select_solver(matrix)
        assert selection.solver == "cg"
        assert selection.properties.symmetric

    def test_symmetric_and_dominant_still_prefers_cg(self, unit):
        matrix = sdd_matrix(256, 6.0, seed=2, symmetric=True)
        selection = unit.select_solver(matrix)
        assert selection.solver == "cg"
        assert selection.properties.strictly_diagonally_dominant

    def test_sdd_nonsymmetric_selects_jacobi(self, unit):
        matrix = sdd_matrix(256, 6.0, seed=3, symmetric=False)
        selection = unit.select_solver(matrix)
        assert selection.solver == "jacobi"
        assert not selection.properties.symmetric

    def test_mixed_sign_dominant_selects_jacobi(self, unit):
        matrix = sdd_indefinite_matrix(256, 6.0, seed=4)
        assert unit.select_solver(matrix).solver == "jacobi"

    def test_general_nonsymmetric_selects_bicgstab(self, unit):
        matrix = spd_clique_skew_matrix(256, 6.0, seed=5)
        selection = unit.select_solver(matrix)
        assert selection.solver == "bicgstab"
        assert not selection.properties.symmetric
        assert not selection.properties.strictly_diagonally_dominant

    @pytest.mark.parametrize("scale", [1e-7, 0.3, 0.7, 1.0])
    def test_weakly_dominant_nonsymmetric_selects_bicgstab(self, unit, scale):
        # Upwinded convection-diffusion is weakly dominant: rounding in
        # the row sums must not make it look strict at any scale.
        dense = convection_diffusion_2d_matrix(16).to_dense() * scale
        assert unit.select_solver(CSRMatrix.from_dense(dense)).solver == "bicgstab"

    def test_reason_is_informative(self, unit):
        matrix = sdd_matrix(64, 4.0, seed=6, symmetric=True)
        selection = unit.select_solver(matrix)
        assert "symmetric" in selection.reason.lower()

    def test_symmetry_tolerance_configurable(self):
        dense = np.array([[2.0, 1.0], [1.0 + 1e-8, 2.0]])
        matrix = CSRMatrix.from_dense(dense)
        loose = MatrixStructureUnit(symmetry_rtol=1e-6)
        strict = MatrixStructureUnit(symmetry_rtol=1e-12)
        assert loose.select_solver(matrix).solver == "cg"
        assert strict.select_solver(matrix).solver == "jacobi"  # SDD fallback

    def test_analyze_matches_selection_properties(self, unit):
        matrix = sdd_matrix(128, 5.0, seed=7)
        props = unit.analyze(matrix)
        selection = unit.select_solver(matrix)
        assert props == selection.properties
