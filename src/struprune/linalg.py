"""Dense float64 linear-algebra kernels used by every other module.

All kernels are pure functions over immutable inputs and are deterministic
for a fixed BLAS thread count. Everything is 64-bit internally; 32-bit
appears only at the file boundary (see model.py).
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

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
    x = cho_solve(_cholesky(gram, "Cholesky factorization failed; pass eps > 0"), rhs)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("ridge_solve produced non-finite entries; pass eps > 0")
    return x


def _cholesky(gram: np.ndarray, failure: str) -> tuple[np.ndarray, bool]:
    """scipy's lower Cholesky factor of gram; a gram that is not positive
    definite raises SingularSystemError(failure)."""
    try:
        return scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(failure) from exc


def _lapack_routine(name: str, *argtypes):
    """The LAPACK routine scipy links, called through the function pointer
    scipy.linalg.cython_lapack publishes. A ctypes CFUNCTYPE call releases
    the GIL for its duration, where scipy's own wrappers hold it."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api, obj, name_p = ctypes.pythonapi, ctypes.py_object, ctypes.c_char_p
    get_name = ctypes.PYFUNCTYPE(name_p, obj)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, obj, name_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


_INT_P, _DOUBLE_P = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# dpotrs(uplo, n, nrhs, a, lda, b, ldb, info)
_DPOTRS = _lapack_routine(
    "dpotrs", ctypes.c_char_p, _INT_P, _INT_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P, _INT_P
)


def cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """Solve A X = b from factor = scipy.linalg.cho_factor(A) with LAPACK
    dpotrs, the routine scipy's cho_solve calls, without holding the GIL,
    so solves on worker threads overlap.

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
    dim, info = ctypes.c_int(c.shape[0]), ctypes.c_int(0)
    c_data, x_data = c.ctypes.data_as(_DOUBLE_P), x.ctypes.data_as(_DOUBLE_P)
    _DPOTRS(b"L" if lower else b"U", dim, ctypes.c_int(x.shape[1]), c_data, dim, x_data, dim, info)
    if info.value != 0:
        raise ParameterError(f"dpotrs rejected argument {-info.value}")
    return x


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(z, dtype=np.float64), 0.0)


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


def row_softmax(z: np.ndarray, scale: float = 1.0, seg_len: int | None = None) -> np.ndarray:
    """Positive softmax over the columns of each row of z / scale.

    This is the attention nonlinearity used by the toy MHA blocks; each
    row of the output sums to 1. When seg_len is given, columns are
    normalized per consecutive segment of that many tokens so independent
    calibration samples never interact.
    """
    if scale <= 0:
        raise ParameterError("scale must be > 0")
    z = np.asarray(z, dtype=np.float64)
    if seg_len is not None:
        if z.shape[-1] % seg_len != 0:
            raise DimensionError(
                f"token count {z.shape[-1]} not divisible by segment length {seg_len}"
            )
        shaped = z.reshape(z.shape[0], -1, seg_len)
        return row_softmax(shaped, scale).reshape(z.shape)
    # Every step after the division writes into its own result, which
    # keeps the memory order of z and the values of the plain expression.
    s = np.divide(z, scale)
    np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
    np.exp(s, out=s)
    return np.divide(s, s.sum(axis=-1, keepdims=True), out=s)


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(np.asarray(a, dtype=np.float64)))))
