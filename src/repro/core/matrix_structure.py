"""Matrix Structure unit: solver selection from cheap structural checks.

The unit examines only two properties of the CSR input — strict diagonal
dominance (trivial per-row arithmetic, Eq. 1) and symmetry (CSR→CSC
conversion and array comparison, Eq. 2) — because verifying positive
definiteness (eigenvalues) is too expensive for hardware.  The decision it
signals to the host:

- symmetric            → configure the Reconfigurable Solver as **CG**
  (symmetry alone is used as the CG proxy; the paper accepts occasional
  mispredictions and lets the Solver Modifier recover),
- else strictly diagonally dominant → **Jacobi**,
- else (non-symmetric, not SDD)     → **BiCG-STAB**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.properties import MatrixProperties, analyze_properties


@dataclass(frozen=True)
class SolverSelection:
    """Decision of the Matrix Structure unit."""

    solver: str
    properties: MatrixProperties
    reason: str


SELECTION_POLICIES = ("symmetry_first", "dominance_first", "always_bicgstab")
"""Available decision orders; ``symmetry_first`` is the default used in the
reproduction, the others exist for the selection-policy ablation."""


class MatrixStructureUnit:
    """Implements the Solver Decision loop's structural analysis stage.

    ``policy`` orders the checks: ``symmetry_first`` prefers CG whenever
    the CSR/CSC comparison passes (symmetric SDD matrices with a positive
    diagonal are SPD, and CG converges much faster than Jacobi);
    ``dominance_first`` prefers Jacobi's unconditional Eq. 1 guarantee;
    ``always_bicgstab`` skips the analysis and models a naive static
    choice of the most general solver.
    """

    def __init__(
        self, symmetry_rtol: float = 1e-6, policy: str = "symmetry_first"
    ) -> None:
        if policy not in SELECTION_POLICIES:
            raise ConfigurationError(
                f"unknown selection policy {policy!r}; "
                f"expected one of {SELECTION_POLICIES}"
            )
        self.symmetry_rtol = float(symmetry_rtol)
        self.policy = policy

    def analyze(self, matrix: CSRMatrix) -> MatrixProperties:
        """Run the two hardware checks (diag dominance, CSR-vs-CSC).

        The symmetry check first compares each column's entry count with
        the row length of the same index; where they differ the pattern
        is not symmetric and no CSC view is built.  Otherwise the CSC
        view is the matrix's cached transpose.  ``Acamar.solve`` solves
        on a copy cast to the solver precision, which shares the
        structure arrays and the cached row lengths and row ids but not
        the transpose (its values differ): a BiCG solve on that copy
        transposes it again.  Only an input already in the solver
        precision is solved as the same object, and reuses the transpose.
        """
        return analyze_properties(matrix, rtol=self.symmetry_rtol)

    def _cg_selection(self, props: MatrixProperties) -> SolverSelection:
        return SolverSelection(
            solver="cg",
            properties=props,
            reason=(
                "CSC encoding matches CSR encoding (symmetric); CG chosen "
                "with symmetry as the positive-definiteness proxy"
            ),
        )

    def _jacobi_selection(self, props: MatrixProperties) -> SolverSelection:
        return SolverSelection(
            solver="jacobi",
            properties=props,
            reason="strictly diagonally dominant (Eq. 1); Jacobi guaranteed",
        )

    def _bicgstab_selection(
        self, props: MatrixProperties, reason: str
    ) -> SolverSelection:
        return SolverSelection(solver="bicgstab", properties=props, reason=reason)

    def select_solver(self, matrix: CSRMatrix) -> SolverSelection:
        """Pick the initial Reconfigurable Solver configuration."""
        props = self.analyze(matrix)
        if self.policy == "always_bicgstab":
            return self._bicgstab_selection(
                props, "ablation policy: BiCG-STAB unconditionally"
            )
        if self.policy == "dominance_first":
            if props.strictly_diagonally_dominant:
                return self._jacobi_selection(props)
            if props.symmetric:
                return self._cg_selection(props)
        else:  # symmetry_first
            if props.symmetric:
                return self._cg_selection(props)
            if props.strictly_diagonally_dominant:
                return self._jacobi_selection(props)
        return self._bicgstab_selection(
            props,
            "non-symmetric and not diagonally dominant; BiCG-STAB chosen",
        )
