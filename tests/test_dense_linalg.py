"""Matrix kernel tests.

Core claims:
    - spd_solve achieves residual <= 1e-10 relative for condition <= 1e6
    - spd_half_solve solves against the Cholesky factor with spd_solve's checks
    - cholesky_lower reports the exact failing pivot on non-PD input
    - the SPD operations copy their matrix only when it is not exactly
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


# -- constructors -------------------------------------------------------------


def test_identity_and_zeros():
    assert np.array_equal(dl.identity(3), np.eye(3))
    assert np.array_equal(dl.zeros(2, 3), np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        dl.zeros(-1, 2)


# -- spd solve / inverse ------------------------------------------------------


def test_spd_solve_scalar_matrix():
    assert np.allclose(dl.spd_solve(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3))


def test_spd_solve_diagonal():
    out = dl.spd_solve(np.diag([1.0, 4.0]), [[1.0], [2.0]])
    assert np.allclose(out, [[1.0], [0.5]])


@pytest.mark.parametrize("seed", range(4))
def test_spd_solve_residual_random(seed):
    gen = _rng(seed)
    g = gen.standard_normal((7, 5))
    a = g.T @ g + np.eye(5)
    b = gen.standard_normal((5, 2))
    x = dl.spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("seed", range(6))
def test_spd_solve_residual_conditioned(seed):
    # spectrum spanning condition number 1e6
    gen = _rng(100 + seed)
    n = int(gen.integers(8, 64))
    q, _ = np.linalg.qr(gen.standard_normal((n, n)))
    eigs = np.exp(np.linspace(0.0, -np.log(1e6), n))
    a = (q * eigs) @ q.T
    b = gen.standard_normal((n, 3))
    x = dl.spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_spd_solve_rejects_non_square():
    with pytest.raises(ShapeError):
        dl.spd_solve(np.ones((2, 3)), np.ones((2, 1)))


def test_spd_solve_rejects_asymmetric():
    with pytest.raises(ValidationError):
        dl.spd_solve([[1.0, 5.0], [0.0, 1.0]], np.eye(2))


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
        dl.spd_solve(large + 400.0 * np.eye(200), np.eye(200))


@pytest.mark.parametrize("op", [dl.spd_solve, dl.spd_half_solve])
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
    v = dl.spd_half_solve(a, b)
    expected = np.linalg.solve(np.linalg.cholesky(a), b)
    assert np.linalg.norm(v - expected) <= 1e-12 * np.linalg.norm(expected)
    gram = v.T @ v
    assert np.array_equal(gram, gram.T)
    assert np.allclose(gram, b.T @ np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_spd_half_solve_checks_like_spd_solve():
    with pytest.raises(ShapeError):
        dl.spd_half_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ShapeError):
        dl.spd_half_solve(np.eye(3), np.ones((2, 1)))
    with pytest.raises(ValidationError):
        dl.spd_half_solve([[1.0, 5.0], [0.0, 1.0]], np.eye(2))
    with pytest.raises(NotPositiveDefiniteError) as info:
        dl.spd_half_solve(np.diag([1.0, 2.0, -1.0]), np.eye(3))
    assert info.value.pivot == 2


def test_non_pd_reports_pivot_index():
    with pytest.raises(NotPositiveDefiniteError) as info:
        dl.cholesky_lower(np.diag([1.0, 2.0, -1.0]))
    assert info.value.pivot == 2
    with pytest.raises(NotPositiveDefiniteError) as info:
        dl.spd_solve(np.diag([-1.0, 1.0]), np.eye(2))
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
        lambda: dl.spd_solve(a, np.eye(n)),
        lambda: dl.spd_half_solve(a, np.eye(n)),
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
    assert dl.spd_solve(dl.identity(0), dl.zeros(0, 3)).shape == (0, 3)
    assert dl.spd_half_solve(dl.identity(0), dl.zeros(0, 3)).shape == (0, 3)


# -- input validation ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ops_reject_non_finite(bad):
    poisoned = np.array([[1.0, bad], [0.0, 1.0]])
    clean = np.eye(2)
    for op in (
        lambda: dl.spd_solve(clean, poisoned),
        lambda: dl.spd_half_solve(clean, poisoned),
    ):
        with pytest.raises(ValidationError):
            op()


def test_ops_do_not_mutate_inputs():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = a.copy()
    dl.spd_solve(a, np.eye(2))
    dl.spd_half_solve(a, np.eye(2))
    assert np.array_equal(a, before)
