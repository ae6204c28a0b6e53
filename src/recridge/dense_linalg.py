"""Dense real-matrix kernel used by every other module: validation, one
Cholesky factorization and one blocked forward substitution.

A matrix here is a 2-d, C-contiguous (row-major), float64 numpy array; the
row-major layout is part of the serialization contract in
:mod:`recridge.fmat`. All public operations validate their inputs (shape
conformance, finite entries). ``as_matrix`` returns its input itself when
that is already a C-order float64 matrix; ``cholesky_lower`` returns a new
array, and ``spd_half_solve_into`` writes over its b.

Finiteness is checked without an elementwise temporary: a float64 sum is
finite only when every entry is, so only a non-finite sum (a NaN or Inf
entry, or finite entries whose sum overflows) pays for the exact
elementwise check. Validating a d x d matrix therefore allocates nothing
of its size. Nor does checking symmetry: ``spd_half_solve_into`` compares
a with its transpose over panels of 64 rows below the diagonal and factors
an exactly symmetric a as it is; only an a that is symmetric merely within
SYMMETRY_RTOL is copied into (a + aᵀ)/2.

The Cholesky factor comes from LAPACK through ``np.linalg.cholesky``.
``spd_half_solve_into`` applies L⁻¹ in place by forward substitution over
16-row blocks, every step a matrix product: numpy has no triangular
solve, and ``np.linalg.solve(L, b)``, a pivoted LU and two sweeps, was
slower with hundreds of right-hand sides (timings in ``CHANGES.md``).

A hand-written Cholesky loop is kept for one purpose only: when LAPACK
rejects a matrix, the loop reruns to report the exact failing pivot index,
which the recursive-update diagnostics rely on.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefiniteError, ShapeError, ValidationError

# Alias used in signatures throughout the package: a 2-d float64 ndarray.
Matrix = np.ndarray

# Relative asymmetry tolerated by the SPD operations before rejecting input.
SYMMETRY_RTOL = 1e-9

# Rows per diagonal block of spd_half_solve_into's forward substitution.
_HALF_SOLVE_BLOCK = 16

# Rows per panel of the symmetry check.
_SYMMETRY_PANEL = 64


def _all_finite(m: np.ndarray) -> bool:
    # The sum is finite only if every entry is (see the module docstring).
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(m.sum()):
            return True
    return bool(np.isfinite(m).all())


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce ``a`` to a validated 2-d float64 C-order array.

    Raises ValidationError on non-finite entries and ShapeError when the
    input is not 2-dimensional.
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={m.ndim}")
    if not _all_finite(m):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return np.ascontiguousarray(m)


def _require_square(a: Matrix, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op}: matrix must be square, got {a.shape}")


def _symmetrized(a: Matrix) -> Matrix | None:
    """``a`` itself if exactly symmetric, (a + aᵀ)/2 if symmetric within
    SYMMETRY_RTOL of its largest entry, None otherwise.

    The comparison runs over panels of rows below the diagonal, so only an
    ``a`` that is not exactly symmetric costs n x n arrays.
    """
    n = a.shape[0]
    asymmetry = 0.0
    for s in range(0, n, _SYMMETRY_PANEL):
        e = min(s + _SYMMETRY_PANEL, n)
        diff = a[s:e, :e] - a[:e, s:e].T
        asymmetry = max(asymmetry, float(np.abs(diff, out=diff).max()))
    if asymmetry == 0.0:
        return a
    if asymmetry > SYMMETRY_RTOL * max(float(a.max()), -float(a.min())):
        return None
    return 0.5 * (a + a.T)


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
    if low is None or not _all_finite(low):
        # LAPACK does not name the pivot; the loop does (and its factor is
        # returned should it succeed where LAPACK gave up).
        return _cholesky_loop(a)
    return np.ascontiguousarray(low)


def spd_half_solve_into(a, b: Matrix) -> Matrix:
    """V = L⁻¹ b, L the lower Cholesky factor of (a + aᵀ)/2, written over
    ``b``, a C-order float64 matrix, and returned. For symmetric
    positive-definite a, Vᵀ V equals bᵀ a⁻¹ b and, a product of one matrix
    with its own transpose, can be formed exactly symmetric.

    Both operands must be finite (ValidationError otherwise) and conform
    (ShapeError); a must be symmetric within SYMMETRY_RTOL (ValidationError)
    and positive definite (NotPositiveDefiniteError, from
    ``cholesky_lower``). A result that overflows raises ValidationError; a
    failing check may leave ``b`` partly overwritten.

    Per block of 16 rows, with matrix products only, the rows solved so
    far are subtracted from the block's rows of b, the block's diagonal
    factor D is inverted, and x = D⁻¹ rhs is refined once,
    x += D⁻¹ (rhs - D x). For a >= I, as at both callers in
    :mod:`recridge.rilm` (I + f r fᵀ and I + hᵀh), every singular value of
    L is at least 1, so ‖L⁻¹‖₂ <= 1; each diagonal block factors a Schur
    complement of a, which is at least I as well, so ‖D⁻¹‖₂ <= 1 too. That
    bounds the norm of V, not its relative error: V is much smaller than b
    there, and an explicit inverse loses the digits that cancel, so the
    blocks are refined (``test_spd_half_solve_matches_cholesky_solve``).
    """
    a = as_matrix(a, "a")
    checked = as_matrix(b, "b")
    _require_square(a, "spd_half_solve_into")
    if a.shape[0] != checked.shape[0]:
        raise ShapeError(f"spd_half_solve_into: a is {a.shape} but b has {checked.shape[0]} rows")
    if checked is not b:
        raise ValidationError("spd_half_solve_into: b must be a C-order float64 matrix")
    sym = _symmetrized(a)
    if sym is None:
        raise ValidationError("spd_half_solve_into: matrix is not symmetric within tolerance")
    low = cholesky_lower(sym)
    for s in range(0, low.shape[0], _HALF_SOLVE_BLOCK):
        e = s + _HALF_SOLVE_BLOCK
        diag = low[s:e, s:e]
        diag_inv = np.linalg.inv(diag)
        rhs = b[s:e] - low[s:e, :s] @ b[:s]
        x = diag_inv @ rhs
        x += diag_inv @ (rhs - diag @ x)
        b[s:e] = x
    # Finite operands can still overflow; surface that instead of propagating Inf.
    if not _all_finite(b):
        raise ValidationError("spd_half_solve_into produced non-finite entries (overflow?)")
    return b
