"""Matrix kernel tests.

Core claims:
    - spd_half_solve_into solves against the Cholesky factor, checking
      shapes, symmetry and positive definiteness, writing over its
      right-hand side, which may be a row block of a wider buffer
    - cholesky_lower reports the exact failing pivot on non-PD input
    - spd_half_solve_into copies its matrix only when it is not exactly
      symmetric
    - every public operation rejects NaN/Inf inputs
"""

import tracemalloc

import numpy as np
import pytest

from recridge import dense_linalg as dl
from recridge.errors import NotPositiveDefiniteError, ShapeError, ValidationError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _half_solve(a, b):
    # spd_half_solve_into on a copy of b
    return dl.spd_half_solve_into(a, np.array(b, dtype=np.float64, order="C"))


# -- Cholesky and half solve --------------------------------------------------


@pytest.mark.parametrize("entry", [(0, 1), (130, 3), (3, 130), (199, 198)])
def test_symmetry_check_covers_every_panel(entry):
    # panels of 64 rows: (130, 3) and (199, 198) sit in the third and fourth
    g = _rng(5).standard_normal((200, 200))
    a = g + g.T
    assert dl._symmetrized(a) is a
    small = a.copy()
    small[entry] += 1e-13
    assert np.array_equal(dl._symmetrized(small), 0.5 * (small + small.T))
    large = a.copy()
    large[entry] += 1e-3
    assert dl._symmetrized(large) is None
    with pytest.raises(ValidationError, match="not symmetric"):
        _half_solve(large + 400.0 * np.eye(200), np.eye(200))


@pytest.mark.parametrize("op", [dl.spd_half_solve_into])
def test_exactly_symmetric_operand_is_not_copied(op):
    # the symmetry check runs over row panels and an exactly symmetric a is
    # factored as it is, so the only n x n array made is the factor
    n = 768
    g = _rng(6).standard_normal((n, n)) / np.sqrt(n)
    a = np.triu(g) + np.triu(g, 1).T + 2.0 * n**0.5 * np.eye(n)
    b = np.ones((n, 4))
    tracemalloc.start()
    try:
        op(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * a.nbytes


@pytest.mark.parametrize("seed", range(4))
def test_spd_half_solve_matches_cholesky_solve(seed):
    gen = _rng(300 + seed)
    n = int(gen.integers(1, 40))
    g = gen.standard_normal((n + 5, n))
    a = g.T @ g + np.eye(n)
    b = gen.standard_normal((n, 7))
    v = _half_solve(a, b)
    expected = np.linalg.solve(np.linalg.cholesky(a), b)
    assert np.linalg.norm(v - expected) <= 1e-12 * np.linalg.norm(expected)
    gram = v.T @ v
    assert np.array_equal(gram, gram.T)
    assert np.allclose(gram, b.T @ np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_spd_half_solve_into_writes_over_b():
    # 37 rows span three substitution blocks; the Woodbury loop passes a
    # row block of a wider buffer, so b may be one
    gen = _rng(9)
    g = gen.standard_normal((40, 37))
    a = g.T @ g + np.eye(37)
    b = gen.standard_normal((37, 5))
    expected = _half_solve(a, b)
    buf = b.copy()
    assert dl.spd_half_solve_into(a, buf) is buf
    assert np.array_equal(buf, expected)
    wide = np.zeros((40, 5))
    wide[:37] = b
    dl.spd_half_solve_into(a, wide[:37])
    assert np.array_equal(wide[:37], expected) and not wide[37:].any()
    for other in (np.asfortranarray(b), b.astype(np.float32), b.tolist()):
        with pytest.raises(ValidationError, match="C-order float64"):
            dl.spd_half_solve_into(a, other)


def test_spd_half_solve_checks_like_spd_solve():
    with pytest.raises(ShapeError):
        _half_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ShapeError):
        _half_solve(np.eye(3), np.ones((2, 1)))
    with pytest.raises(ValidationError):
        _half_solve([[1.0, 5.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(NotPositiveDefiniteError) as info:
        _half_solve(np.diag([1.0, 2.0, -1.0]), np.eye(3))
    assert info.value.pivot == 2


def test_non_pd_reports_pivot_index():
    with pytest.raises(NotPositiveDefiniteError) as info:
        dl.cholesky_lower(np.diag([1.0, 2.0, -1.0]))
    assert info.value.pivot == 2
    with pytest.raises(NotPositiveDefiniteError) as info:
        _half_solve(np.diag([-1.0, 1.0]), np.eye(2))
    assert info.value.pivot == 0


def test_non_pd_pivot_index_at_blocked_size():
    # LAPACK factors blocks of columns at this size; the reported pivot must
    # still be the exact first non-positive one.
    gen = _rng(5)
    n, bad = 300, 217
    g = gen.standard_normal((n, n))
    a = g @ g.T / n + np.eye(n)
    lead = a[:bad, :bad]
    schur = a[bad, bad] - a[bad, :bad] @ np.linalg.solve(lead, a[:bad, bad])
    a[bad, bad] -= schur + 1.0  # Schur complement at the pivot becomes -1
    np.linalg.cholesky(lead)  # leading block stays positive definite
    for op in (
        lambda: dl.cholesky_lower(a),
        lambda: _half_solve(a, np.eye(n)),
    ):
        with pytest.raises(NotPositiveDefiniteError) as info:
            op()
        assert info.value.pivot == bad


def test_cholesky_reconstructs():
    gen = _rng(3)
    g = gen.standard_normal((6, 6))
    a = g.T @ g + np.eye(6)
    low = dl.cholesky_lower(a)
    assert np.allclose(low @ low.T, a, rtol=1e-12, atol=1e-12)
    assert np.array_equal(low, np.tril(low))


def test_zero_size_matrices_supported():
    assert _half_solve(np.eye(0), np.zeros((0, 3))).shape == (0, 3)


# -- input validation ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ops_reject_non_finite(bad):
    poisoned = np.array([[1.0, bad], [0.0, 1.0]])
    clean = np.eye(2)
    with pytest.raises(ValidationError):
        _half_solve(clean, poisoned)
    with pytest.raises(ValidationError):
        _half_solve(poisoned, clean)


def test_ops_do_not_mutate_inputs():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = a.copy()
    _half_solve(a, np.eye(2))
    assert np.array_equal(a, before)
