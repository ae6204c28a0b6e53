"""Matrix kernel tests.

Core claims:
    - matmul/transpose/add/subtract/scale match hand values and naive oracles
    - spd_solve achieves residual <= 1e-10 relative for condition <= 1e6
    - spd_inverse reconstructs the identity to 1e-9 and stays symmetric
    - spd_half_solve solves against the Cholesky factor with spd_solve's checks
    - cholesky_lower reports the exact failing pivot on non-PD input
    - every public operation rejects NaN/Inf inputs
"""

import numpy as np
import pytest

from recridge import dense_linalg as dl
from recridge.errors import NotPositiveDefiniteError, ShapeError, ValidationError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


# -- matmul -------------------------------------------------------------------


def test_matmul_identity_left():
    m = _rng(0).standard_normal((2, 2))
    assert np.array_equal(dl.matmul(np.eye(2), m), m)


def test_matmul_hand_example():
    out = dl.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
    assert np.array_equal(out, [[3.0], [7.0]])


def test_matmul_matches_triple_loop():
    gen = _rng(1)
    a = gen.standard_normal((7, 5))
    b = gen.standard_normal((5, 3))
    expected = np.zeros((7, 3))
    for i in range(7):
        for j in range(3):
            for k in range(5):
                expected[i, j] += a[i, k] * b[k, j]
    assert np.allclose(dl.matmul(a, b), expected, rtol=1e-13, atol=1e-13)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        dl.matmul(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_matmul_associativity(seed):
    gen = _rng(seed)
    a = gen.standard_normal((6, 4))
    b = gen.standard_normal((4, 7))
    c = gen.standard_normal((7, 3))
    left = dl.matmul(dl.matmul(a, b), c)
    right = dl.matmul(a, dl.matmul(b, c))
    assert np.linalg.norm(left - right) <= 1e-10 * np.linalg.norm(left)


# -- transpose ----------------------------------------------------------------


def test_transpose_involution():
    m = _rng(2).standard_normal((4, 6))
    assert np.array_equal(dl.transpose(dl.transpose(m)), m)


def test_transpose_row_to_column():
    assert dl.transpose([[1.0, 2.0, 3.0]]).shape == (3, 1)


def test_transpose_hand_example():
    assert np.array_equal(dl.transpose([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 3.0], [2.0, 4.0]])


# -- elementwise ops ----------------------------------------------------------


def test_add_subtract_scale():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 5.0]])
    assert np.array_equal(dl.add(a, b), [[4.0, 7.0]])
    assert np.array_equal(dl.subtract(b, a), [[2.0, 3.0]])
    assert np.array_equal(dl.scale(a, 2.0), [[2.0, 4.0]])


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        dl.add(np.ones((2, 2)), np.ones((2, 3)))


def test_identity_and_zeros():
    assert np.array_equal(dl.identity(3), np.eye(3))
    assert np.array_equal(dl.zeros(2, 3), np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        dl.zeros(-1, 2)


# -- frobenius norm -----------------------------------------------------------


def test_frobenius_norm_values():
    assert dl.frobenius_norm(np.zeros((3, 3))) == 0.0
    assert dl.frobenius_norm(np.eye(4)) == pytest.approx(2.0)
    assert dl.frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0)


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


def test_spd_inverse_identity_cases():
    assert np.array_equal(dl.spd_inverse(np.eye(4)), np.eye(4))
    assert np.allclose(dl.spd_inverse(2.0 * np.eye(2)), 0.5 * np.eye(2))


@pytest.mark.parametrize("seed", range(4))
def test_spd_inverse_reconstruction(seed):
    gen = _rng(200 + seed)
    g = gen.standard_normal((9, 9))
    a = g.T @ g + np.eye(9)
    inv = dl.spd_inverse(a)
    assert np.linalg.norm(inv @ a - np.eye(9)) <= 1e-9 * np.linalg.norm(np.eye(9))
    assert np.abs(inv - inv.T).max() <= 1e-10


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
        lambda: dl.spd_inverse(a),
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
    assert dl.spd_inverse(dl.identity(0)).shape == (0, 0)
    assert dl.spd_half_solve(dl.identity(0), dl.zeros(0, 3)).shape == (0, 3)


# -- input validation ---------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ops_reject_non_finite(bad):
    poisoned = np.array([[1.0, bad], [0.0, 1.0]])
    clean = np.eye(2)
    for op in (
        lambda: dl.matmul(poisoned, clean),
        lambda: dl.matmul(clean, poisoned),
        lambda: dl.transpose(poisoned),
        lambda: dl.add(poisoned, clean),
        lambda: dl.subtract(clean, poisoned),
        lambda: dl.scale(poisoned, 2.0),
        lambda: dl.frobenius_norm(poisoned),
        lambda: dl.spd_solve(clean, poisoned),
        lambda: dl.spd_half_solve(clean, poisoned),
        lambda: dl.spd_inverse(poisoned),
    ):
        with pytest.raises(ValidationError):
            op()


def test_scale_rejects_non_finite_scalar():
    with pytest.raises(ValidationError):
        dl.scale(np.eye(2), np.inf)


def test_ops_do_not_mutate_inputs():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = a.copy()
    dl.spd_solve(a, np.eye(2))
    dl.spd_inverse(a)
    dl.spd_half_solve(a, np.eye(2))
    dl.transpose(a)
    assert np.array_equal(a, before)
