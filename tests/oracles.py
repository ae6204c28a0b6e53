"""Reference checks that only the tests use.

``kn_identity_check`` audits the algebra behind the recursive downdate
against an explicit inverse, which the library itself never forms.
"""

import numpy as np

from recridge.dense_linalg import as_matrix, identity, spd_solve
from recridge.errors import ShapeError


def kn_identity_check(r_prev, f_rp) -> float:
    """Residual of the two algebraic identities behind the recursive downdate.

    With k = (f r fᵀ + I)⁻¹ and r_next the downdated memory, checks
    k == I - k f r fᵀ and r fᵀ k == r_next fᵀ, returning the larger
    relative Frobenius residual. Empty input returns 0 by convention.
    """
    r = as_matrix(r_prev, "r_prev")
    if r.shape[0] != r.shape[1]:
        raise ShapeError(f"r_prev must be square, got {r.shape}")
    f = as_matrix(f_rp, "f_rp")
    if f.shape[1] != r.shape[0]:
        raise ShapeError(f"f_rp has width {f.shape[1]}, r_prev is {r.shape[0]} wide")
    n = f.shape[0]
    if n == 0:
        return 0.0
    g = f @ r
    inner = g @ f.T + identity(n)
    k = np.linalg.inv(inner)
    k = 0.5 * (k + k.T)
    res1 = np.linalg.norm(k - (identity(n) - k @ g @ f.T)) / max(np.linalg.norm(k), 1e-300)
    r_next = r - g.T @ spd_solve(inner, g)
    lhs = r @ f.T @ k
    rhs = r_next @ f.T
    res2 = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return float(max(res1, res2))
