"""The Dynamic SpMV unit reads its operand with subnormals flushed to zero.

``Kernels.spmv`` and ``Kernels.rmatvec`` set every subnormal of their
operand, in the solver precision, to zero before the product, as the
fabric's floating-point operators read it.  The flush is done in place in
the array the solver-precision cast returns: a vector already in that
precision is flushed itself, a wider one is left untouched and only its
cast copy is flushed.  Zeros, normals, infinities and NaNs keep their
bytes, a flushed subnormal keeps its sign, and the tally is still one
SpMV pass of ``nnz``.
"""

import numpy as np
import pytest

from repro.solvers.kernels import Kernels
from repro.sparse import CSRMatrix

N = 13
SUBNORMAL_SLOTS = (1, 2, 8, 9)


def _operand(dtype):
    """Thirteen entries: four subnormals among every other class of value."""
    info = np.finfo(dtype)
    tiny = info.tiny
    return np.array(
        [
            1.5,
            tiny / 4,
            -tiny / 1000,
            0.0,
            -0.0,
            np.nan,
            np.inf,
            -np.inf,
            info.smallest_subnormal,
            -np.nextafter(tiny, dtype(0)),
            tiny,
            -2.5,
            -np.nan,
        ],
        dtype=dtype,
    )


def _matrix(dtype):
    """A nonsymmetric operator whose subnormal rows and columns hold only
    the diagonal, so a product of an unflushed subnormal is a nonzero
    normal number (``2**60`` times it) and shows in the result bytes."""
    dense = np.diag(np.full(N, 2.0**60))
    dense[0, 11] = 3.0
    dense[11, 0] = -1.0
    dense[0, 3] = 7.0
    dense[3, 10] = 0.5
    return CSRMatrix.from_dense(dense).astype(dtype)


def _subnormal(v):
    return (np.abs(v) < np.finfo(v.dtype).tiny) & (v != 0)


def _flushed(v):
    """``v`` with each subnormal replaced by a zero of the same sign."""
    out = v.copy()
    subnormal = _subnormal(out)
    out[subnormal] = np.copysign(0.0, out[subnormal])
    return out


def _reference(matrix, kernel, v):
    with np.errstate(all="ignore"):  # the NaN and infinities propagate
        return matrix.rmatvec(v) if kernel == "rmatvec" else matrix.matvec(v)


def _apply(kernels, kernel, v):
    with np.errstate(all="ignore"):
        if kernel == "spmv-operator":
            # Jacobi's T and multicolor Gauss-Seidel's off-diagonal part.
            return kernels.spmv(v, kernels.matrix)
        return getattr(kernels, kernel)(v)


KERNELS = ("spmv", "spmv-operator", "rmatvec")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", KERNELS)
def test_operand_in_solver_precision_is_flushed_in_place(kernel, dtype):
    matrix = _matrix(dtype)
    kernels = Kernels(matrix)
    v = _operand(dtype)
    assert tuple(np.flatnonzero(_subnormal(v))) == SUBNORMAL_SLOTS
    expected = _flushed(v)

    product = _apply(kernels, kernel, v)

    assert v.tobytes() == expected.tobytes()
    assert product.dtype == dtype
    assert product.tobytes() == _reference(matrix, kernel, expected).tobytes()
    assert kernels.ops.counts == {"spmv": 1}
    assert kernels.ops.sizes == {"spmv": matrix.nnz}


@pytest.mark.parametrize("kernel", KERNELS)
def test_float64_operand_stays_untouched_and_its_float32_cast_is_flushed(
    kernel,
):
    matrix = _matrix(np.float32)
    kernels = Kernels(matrix)
    # Normal in float64, subnormal once cast to the float32 solve.
    v = _operand(np.float32).astype(np.float64)
    assert not _subnormal(v).any()
    before = v.tobytes()

    product = _apply(kernels, kernel, v)

    assert v.tobytes() == before
    cast = _flushed(v.astype(np.float32))
    assert product.dtype == np.float64
    assert product.tobytes() == (
        _reference(matrix, kernel, cast).astype(np.float64).tobytes()
    )
    assert kernels.ops.counts == {"spmv": 1}
    assert kernels.ops.sizes == {"spmv": matrix.nnz}


def test_empty_operand_passes_through():
    # A 0x0 system still solves; the flush's argmin must not see it.
    matrix = CSRMatrix((0, 0), [0], [], []).astype(np.float32)
    kernels = Kernels(matrix)
    assert kernels.spmv(np.zeros(0, dtype=np.float32)).shape == (0,)
    assert kernels.rmatvec(np.zeros(0, dtype=np.float32)).shape == (0,)
    assert kernels.ops.counts == {"spmv": 2}
