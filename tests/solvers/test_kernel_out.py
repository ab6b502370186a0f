"""The kernels write into ``out`` exactly what their allocating calls return.

CG, BiCG-STAB and Jacobi take their vectors from ``Kernels.vector()`` once
per solve and update them through ``out``.  Each kernel that takes
``out`` must return it holding the allocating call's bits and dtype, and
record the same tally; an ``out`` of another shape or dtype is a
``ReproError``, never a silent cast or a bare numpy error.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.solvers.kernels import Kernels
from repro.sparse import CSRMatrix
from repro.sparse.csr import _aligned_empty

DTYPES = (np.float32, np.float64)
SIZES = (0, 1, 17, 2025, 65536)
N = 40


def kernels(dtype) -> Kernels:
    rng = np.random.default_rng(1)
    dense = (rng.random((N, N)) < 0.2) * rng.standard_normal((N, N))
    dense += 4.0 * np.eye(N)
    return Kernels(CSRMatrix.from_dense(dense).astype(dtype))


def vectors(dtype, count):
    rng = np.random.default_rng(2)
    out = [rng.standard_normal(N).astype(dtype) for _ in range(count)]
    out[0][:4] = [np.nan, np.inf, -np.inf, -0.0]
    return out


def dense_calls(dtype, alpha):
    """(name, call with ``out`` keyword) for every dense kernel with ``out``."""
    y, x = vectors(dtype, 2)
    return [
        ("axpy", lambda k, **kw: k.axpy(y, alpha, x, **kw)),
        ("axmy", lambda k, **kw: k.axmy(y, alpha, x, **kw)),
        ("vsub", lambda k, **kw: k.vsub(y, x, **kw)),
        ("scale", lambda k, **kw: k.scale(x, y, **kw)),
    ]


def alphas(dtype):
    return [0.37, -3, dtype(0.37), np.float32(-1.5), np.float64(2.0**-30)]


def assert_same_call(call, dtype):
    """``call`` into ``out`` against the allocating call, bits and tally."""
    alloc_k, out_k = kernels(dtype), kernels(dtype)
    with np.errstate(invalid="ignore"):
        expected = call(alloc_k)
        out = np.full(expected.shape, 7, dtype=expected.dtype)
        assert call(out_k, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert list(out_k.ops.counts.items()) == list(alloc_k.ops.counts.items())
    assert list(out_k.ops.sizes.items()) == list(alloc_k.ops.sizes.items())


class TestDenseKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("alpha_index", range(5))
    def test_out_is_bit_identical(self, dtype, alpha_index):
        alpha = alphas(dtype)[alpha_index]
        for _, call in dense_calls(dtype, alpha):
            assert_same_call(call, dtype)

    def test_a_float64_alpha_is_not_rounded_into_float32(self):
        # Under numpy 2's promotion a float64 scalar widens float32 x.
        y, x = vectors(np.float32, 2)
        alpha = np.float64(1 / 3)
        expected = kernels(np.float32).axpy(y, alpha, x)
        out = np.empty(N, dtype=expected.dtype)
        k = kernels(np.float32)
        assert k.axpy(y, alpha, x, out=out).tobytes() == expected.tobytes()
        if expected.dtype == np.float64:
            with pytest.raises(ReproError):
                k.axpy(y, alpha, x, out=np.empty(N, dtype=np.float32))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_out_may_be_an_operand(self, dtype):
        y, x = vectors(dtype, 2)
        k = kernels(dtype)
        expected = k.axpy(y, dtype(0.5), x)
        assert k.axpy(y, dtype(0.5), x, out=y) is y
        assert y.tobytes() == expected.tobytes()
        expected = k.axmy(x, dtype(0.25), x)
        assert k.axmy(x, dtype(0.25), x, out=x) is x
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_bad_out_raises_a_repro_error(self, dtype):
        other = np.float64 if dtype == np.float32 else np.float32
        read_only = np.empty(N, dtype=dtype)
        read_only.flags.writeable = False
        for _, call in dense_calls(dtype, dtype(0.5)):
            for out in (
                np.empty(N + 1, dtype=dtype),
                np.empty((N, 1), dtype=dtype),
                np.empty((1, N), dtype=dtype),
                np.empty(N, dtype=other),
                list(np.empty(N, dtype=dtype)),
                read_only,
            ):
                with pytest.raises(ReproError):
                    call(kernels(dtype), out=out)


class TestSparseKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_spmv_and_rmatvec_out_are_bit_identical(self, dtype):
        v, w = vectors(dtype, 2)
        v[:4] = 1.0  # a NaN operand would flush the two calls alike anyway
        operator = kernels(dtype).matrix.without_diagonal()
        for call in (
            lambda k, **kw: k.spmv(v.copy(), **kw),
            lambda k, **kw: k.spmv(v.copy(), operator, **kw),
            lambda k, **kw: k.rmatvec(w.copy(), **kw),
        ):
            assert_same_call(call, dtype)

    def test_a_wider_operand_takes_a_wider_out(self):
        # A float64 v in a float32 solve: the product is cast back to
        # float64, as the allocating call returns it.
        v = np.random.default_rng(3).standard_normal(N)
        for call in (
            lambda k, **kw: k.spmv(v, **kw),
            lambda k, **kw: k.rmatvec(v, **kw),
        ):
            assert_same_call(call, np.float32)
            with pytest.raises(ReproError):
                call(kernels(np.float32), out=np.empty(N, dtype=np.float32))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_out_sharing_the_operand_raises(self, dtype):
        k = kernels(dtype)
        v = vectors(dtype, 1)[0]
        with pytest.raises(ReproError):
            k.spmv(v, out=v)
        with pytest.raises(ReproError):
            k.rmatvec(v, out=v)


class TestAlignedVectors:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size", SIZES)
    def test_vector_is_zeroed_and_aligned(self, size, dtype):
        k = Kernels(CSRMatrix.identity(size, dtype))
        first, second = k.vector(), k.vector()
        for v in (first, second):
            assert v.shape == (size,)
            assert v.dtype == dtype
            assert v.ctypes.data % 64 == 0
            assert not v.any()
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("size", SIZES)
    def test_scratch_is_aligned(self, size, dtype):
        k = Kernels(CSRMatrix.identity(size, dtype))
        for scratch in (k._left, k._right, k._magnitude, k._scaled):
            assert scratch.ctypes.data % 64 == 0
        buf = _aligned_empty(size, dtype)
        assert buf.shape == (size,) and buf.ctypes.data % 64 == 0
