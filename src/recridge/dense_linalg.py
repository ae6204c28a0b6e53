"""Dense real-matrix kernel used by every other module.

A matrix here is a 2-d, C-contiguous (row-major), float64 numpy array; the
row-major layout is part of the serialization contract in
:mod:`recridge.fmat`. All public operations validate their inputs (shape
conformance, finite entries), never mutate them, and return freshly
allocated arrays, so values can be shared freely between threads.

The symmetric positive-definite operations run on LAPACK through numpy:
``np.linalg.cholesky`` is the positive-definiteness check, then
``np.linalg.solve`` or ``np.linalg.inv`` does the work (``spd_half_solve``
solves against the Cholesky factor itself). A hand-written
Cholesky loop is kept for one purpose only: when LAPACK rejects a matrix,
the loop reruns to report the exact failing pivot index, which the
recursive-update diagnostics rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, ShapeError, ValidationError

# Alias used in signatures throughout the package: a 2-d float64 ndarray.
Matrix = np.ndarray

# Relative asymmetry tolerated by the SPD operations before rejecting input.
SYMMETRY_RTOL = 1e-9


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce ``a`` to a validated 2-d float64 C-order array.

    Raises ValidationError on non-finite entries and ShapeError when the
    input is not 2-dimensional.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return np.ascontiguousarray(m)


def _check_finite_result(m: Matrix, op: str) -> Matrix:
    # Finite inputs can still overflow; surface that instead of propagating Inf.
    if not np.isfinite(m).all():
        raise ValidationError(f"{op} produced non-finite entries (overflow?)")
    return m


def zeros(rows: int, cols: int) -> Matrix:
    if rows < 0 or cols < 0:
        raise ValidationError(f"zeros: negative dimension ({rows}, {cols})")
    return np.zeros((rows, cols), dtype=np.float64)


def identity(n: int) -> Matrix:
    if n < 0:
        raise ValidationError(f"identity: negative dimension {n}")
    return np.eye(n, dtype=np.float64)


def matmul(a, b) -> Matrix:
    """Standard matrix product; dims (a.rows x b.cols)."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return _check_finite_result(a @ b, "matmul")


def transpose(a) -> Matrix:
    a = as_matrix(a, "a")
    return np.ascontiguousarray(a.T)


def add(a, b) -> Matrix:
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ, {a.shape} vs {b.shape}")
    return _check_finite_result(a + b, "add")


def subtract(a, b) -> Matrix:
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != b.shape:
        raise ShapeError(f"subtract: shapes differ, {a.shape} vs {b.shape}")
    return _check_finite_result(a - b, "subtract")


def scale(a, s: float) -> Matrix:
    a = as_matrix(a, "a")
    s = float(s)
    if not math.isfinite(s):
        raise ValidationError("scale: scalar must be finite")
    return _check_finite_result(s * a, "scale")


def frobenius_norm(a) -> float:
    a = as_matrix(a, "a")
    return float(np.sqrt(np.sum(a * a)))


def _require_square(a: Matrix, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op}: matrix must be square, got {a.shape}")


def _require_symmetric(a: Matrix, op: str) -> None:
    scale_ = np.abs(a).max(initial=0.0)
    if scale_ == 0.0:
        return
    if np.abs(a - a.T).max() > SYMMETRY_RTOL * scale_:
        raise ValidationError(f"{op}: matrix is not symmetric within tolerance")


def _cholesky_loop(a: Matrix) -> Matrix:
    # Column-by-column Cholesky; raises at the first non-positive pivot.
    n = a.shape[0]
    low = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not math.isfinite(d):
            raise NotPositiveDefiniteError(j)
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def cholesky_lower(a) -> Matrix:
    """Lower-triangular L with L Lᵀ == a for symmetric positive-definite a.

    Only the lower triangle of ``a`` is read. Raises
    NotPositiveDefiniteError with the failing pivot index when a pivot is
    not strictly positive.
    """
    a = as_matrix(a, "a")
    _require_square(a, "cholesky_lower")
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = None
    if low is None or not np.isfinite(low).all():
        # LAPACK does not name the pivot; the loop does (and its factor is
        # returned should it succeed where LAPACK gave up).
        return _cholesky_loop(a)
    return np.ascontiguousarray(low)


def _spd_operand(a: Matrix, op: str) -> Matrix:
    # Symmetrized copy of a validated square a, checked positive definite.
    _require_symmetric(a, op)
    sym = 0.5 * (a + a.T)
    cholesky_lower(sym)
    return sym


def _solve_operands(a, b, op: str) -> tuple[Matrix, Matrix]:
    # Validated square a and conforming b for a solve of a X = b.
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    _require_square(a, op)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"{op}: a is {a.shape} but b has {b.shape[0]} rows")
    return a, b


def spd_solve(a, b) -> Matrix:
    """Solve a X = b for symmetric positive-definite a.

    The input is symmetrized as (a + aᵀ)/2 before factorization so that
    accumulated floating-point drift in nominally symmetric matrices does
    not leak into the solution. No explicit inverse is formed.
    """
    a, b = _solve_operands(a, b, "spd_solve")
    x = np.linalg.solve(_spd_operand(a, "spd_solve"), b)
    return _check_finite_result(x, "spd_solve")


def spd_half_solve(a, b) -> Matrix:
    """V = L⁻¹ b, where L is the lower Cholesky factor of (a + aᵀ)/2.

    For symmetric positive-definite a, Vᵀ V equals bᵀ a⁻¹ b, and because
    it is a product of one matrix with its own transpose it can be formed
    exactly symmetric. Checks and errors are those of spd_solve.
    """
    a, b = _solve_operands(a, b, "spd_half_solve")
    _require_symmetric(a, "spd_half_solve")
    low = cholesky_lower(0.5 * (a + a.T))
    return _check_finite_result(np.linalg.solve(low, b), "spd_half_solve")


def spd_inverse(a) -> Matrix:
    """Explicit inverse of a symmetric positive-definite matrix.

    The result is symmetrized, so spd_inverse(a) is exactly symmetric.
    Prefer spd_solve when only a product with the inverse is needed.
    """
    a = as_matrix(a, "a")
    _require_square(a, "spd_inverse")
    inv = np.linalg.inv(_spd_operand(a, "spd_inverse"))
    return _check_finite_result(np.ascontiguousarray(0.5 * (inv + inv.T)), "spd_inverse")
