"""Dense float64 linear-algebra kernels used by every other module.

All kernels are pure functions over immutable inputs and are deterministic
for a fixed BLAS thread count. Everything is 64-bit internally; 32-bit
appears only at the file boundary (see model.py). The Cholesky kernels
call LAPACK dpotrf and dpotrs through the function pointers of scipy's
extension module scipy.linalg.cython_lapack, which is loaded from its file
on the first factorization or solve: commands that never factor never
load scipy, and those that do never import the scipy.linalg package.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import threading

import numpy as np

from .errors import DimensionError, ParameterError, SingularSystemError

# Condition-number ceiling for ridge_solve at eps = 0; beyond this the
# normal equations cannot meet the 1e-8 residual contract in float64.
_COND_LIMIT = 1e14


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator: identical seed gives an identical stream
    on every platform. Never share an instance; derive children with
    Generator.spawn()."""
    if seed < 0:
        raise ParameterError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def as_matrix(a, name: str = "operand") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


def ridge_solve(a: np.ndarray, b: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Solve (AtA + eps*I) X = At B, the normal equations of
    min ||A X - B||^2 + eps ||X||^2, by Cholesky factorization.

    eps = 0 requires AtA to be numerically nonsingular; otherwise a
    SingularSystemError tells the caller to pass eps > 0.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"ridge_solve row mismatch: A has {a.shape[0]} rows, B has {b.shape[0]}"
        )
    if eps < 0:
        raise ParameterError("eps must be >= 0")
    gram = a.T @ a
    n = gram.shape[0]
    if eps > 0:
        gram = gram + eps * np.eye(n)
    else:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularSystemError(
                f"normal equations singular at eps=0 (cond={cond:.3e}); pass eps > 0"
            )
    rhs = a.T @ b
    x = cho_solve(cholesky(gram, "Cholesky factorization failed; pass eps > 0"), rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("ridge_solve produced non-finite entries; pass eps > 0")
    return x


_INT_P, _DOUBLE_P, _CHAR_P = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double), ctypes.c_char_p

# The LAPACK routines the kernels call, with their argument types.
_LAPACK_ARGTYPES = {
    # dpotrf(uplo, n, a, lda, info)
    "dpotrf": (_CHAR_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P),
    # dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
    "dpotrs": (_CHAR_P, _INT_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P),
}

# Serializes the load of scipy.linalg.cython_lapack: a pool thread that
# loads it while another one is still initialising it gets the module
# half made, without its function-pointer table.
_LAPACK_LOCK = threading.Lock()


@functools.cache
def _cython_lapack():
    """scipy.linalg.cython_lapack, loaded from its file without running
    scipy/linalg/__init__.py (which imports all of scipy.linalg and, through
    its array-API support, numpy.testing and numpy.f2py). Call it only with
    _LAPACK_LOCK held."""
    linalg_dir = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg.cython_lapack", [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy.linalg.cython_lapack not found in {linalg_dir}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _lapack(name: str):
    """The LAPACK routine name ("dpotrf" or "dpotrs") that scipy links, as a
    ctypes function over the pointer scipy.linalg.cython_lapack publishes,
    looked up on first use. A ctypes CFUNCTYPE call releases the GIL for its
    duration, where scipy's own wrappers hold it. Pool threads that miss the
    cache at once each build an equal wrapper; only the module load is locked."""
    with _LAPACK_LOCK:
        capsule = _cython_lapack().__pyx_capi__[name]
    api, obj = ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(_CHAR_P, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, _CHAR_P)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *_LAPACK_ARGTYPES[name])(get_pointer(capsule, get_name(capsule)))


def cholesky(gram: np.ndarray, failure: str) -> tuple[np.ndarray, bool]:
    """Lower Cholesky factor of gram by LAPACK dpotrf, without holding the
    GIL: the pair (c, True) that scipy.linalg.cho_factor(gram, lower=True,
    check_finite=False) returns, bit for bit, since it factors the same
    Fortran-ordered copy with the same routine. c's lower triangle is the
    factor and its strict upper triangle keeps gram's entries. A gram that
    is not positive definite raises SingularSystemError(failure)."""
    c = np.array(gram, dtype=np.float64, order="F")
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError(f"cholesky needs a square 2-D gram, got shape {c.shape}")
    # LAPACK wants a leading dimension of at least 1, also for an empty gram.
    dim, lead, info = ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, c.shape[0])), ctypes.c_int(0)
    _lapack("dpotrf")(b"L", dim, c.ctypes.data_as(_DOUBLE_P), lead, info)
    if info.value > 0:
        raise SingularSystemError(failure)
    if info.value < 0:
        raise ParameterError(f"dpotrf rejected argument {-info.value}")
    return c, True


def cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """Solve A X = b from factor = cholesky(A, ...), or any factor of
    scipy.linalg.cho_factor's form, with LAPACK dpotrs, the routine scipy's
    cho_solve calls, without holding the GIL, so solves on worker threads
    overlap.

    Solves in a new Fortran-ordered copy of b, which it returns: bit for
    bit what scipy's cho_solve(factor, b, check_finite=False) returns. A
    factor with a non-positive diagonal entry is no Cholesky factor and
    raises SingularSystemError.
    """
    c, lower = factor
    c = np.asfortranarray(c, dtype=np.float64)
    x = np.array(b, dtype=np.float64, order="F")
    if c.ndim != 2 or x.ndim != 2 or not c.shape[0] == c.shape[1] == x.shape[0]:
        raise DimensionError(
            f"cho_solve needs a square factor and a matching 2-D b, got {c.shape} and {x.shape}"
        )
    if not np.all(np.diagonal(c) > 0.0):
        raise SingularSystemError("Cholesky factor has a non-positive diagonal entry")
    # LAPACK wants leading dimensions of at least 1, also for an empty system.
    dim, lead, info = ctypes.c_int(c.shape[0]), ctypes.c_int(max(1, c.shape[0])), ctypes.c_int(0)
    c_data, x_data = c.ctypes.data_as(_DOUBLE_P), x.ctypes.data_as(_DOUBLE_P)
    _lapack("dpotrs")(b"L" if lower else b"U", dim, ctypes.c_int(x.shape[1]), c_data, lead, x_data, lead, info)
    if info.value != 0:
        raise ParameterError(f"dpotrs rejected argument {-info.value}")
    return x


def relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(z, 0) elementwise, written into out when given: the one relu of
    the dense forward, the derived record arrays and the solver."""
    return np.maximum(z, 0.0, out=out)


def softmax_vec(x, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-x_i / T) normalized to sum 1.

    Low x means high weight; computed with extremum subtraction so the
    exponentials never overflow. Output sums to 1 within 1e-12 and is
    invariant to adding a constant to all inputs.
    """
    if temperature <= 0:
        raise ParameterError(f"temperature must be > 0, got {temperature}")
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ParameterError("softmax_vec needs at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("softmax_vec inputs must be finite")
    with np.errstate(over="ignore"):
        scaled = -arr / temperature
        if not np.all(np.isfinite(scaled)):
            raise ParameterError(
                f"temperature {temperature!r} is too small: importance / temperature overflows"
            )
        scaled -= scaled.max()  # an entry far below the max may go to -inf: weight 0
    w = np.exp(scaled)
    return w / w.sum()


# Bytes of a row block of a pool job over the rows of an array: a
# pooled row_softmax's, and a record statistic's (model).
BLOCK_BYTES = 1 << 20


def rows_per_block(row_bytes: int) -> int:
    """The rows of row_bytes bytes each that fill a block of BLOCK_BYTES,
    at least one."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


def row_softmax(z: np.ndarray, scale: float = 1.0, seg_len: int | None = None, run=None) -> np.ndarray:
    """Positive softmax over the columns of each row of z / scale.

    This is the attention nonlinearity used by the toy MHA blocks; each
    row of the output sums to 1. When seg_len is given, columns are
    normalized per consecutive segment of that many tokens so independent
    calibration samples never interact.

    run, a runner of model._worker_pool's signature (run(fn, items)),
    normalizes a C-contiguous z a block of rows per job, each row with
    the operations of the whole-array call, so the bits are the same; any
    other z is normalized whole in the calling thread.
    """
    if scale <= 0:
        raise ParameterError("scale must be > 0")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim < 2 or z.shape[0] < 2 or not z.flags.c_contiguous:
        run = None
    if seg_len is not None:
        if z.shape[-1] % seg_len != 0:
            raise DimensionError(
                f"token count {z.shape[-1]} not divisible by segment length {seg_len}"
            )
        shaped = z.reshape(z.shape[0], -1, seg_len)
        return row_softmax(shaped, scale, run=run).reshape(z.shape)
    if run is None:
        return _softmax_rows(z, scale)
    s = np.empty_like(z)
    height = rows_per_block(z[0].nbytes)
    run(lambda i: _softmax_rows(z[i:i + height], scale, s[i:i + height]), range(0, z.shape[0], height))
    return s


def _softmax_rows(z: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """row_softmax of z (no segments), written into out, an array of z's
    shape and memory order, or into a fresh one."""
    # Every step after the division writes into its own result, which
    # keeps the memory order of z and the values of the plain expression.
    s = np.divide(z, scale, out=out)
    np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
    np.exp(s, out=s)
    return np.divide(s, s.sum(axis=-1, keepdims=True), out=s)


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(np.asarray(a, dtype=np.float64)))))
