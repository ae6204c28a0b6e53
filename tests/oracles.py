"""Reference checks and inputs that only the tests use.

``kn_identity_check`` audits the algebra behind the recursive downdate
against an explicit inverse, which the library itself never forms.
``gen_experiment`` builds, in memory, the experiment ``recridge run``
builds from ``recridge gen`` files.
"""

import numpy as np

from recridge import cil_harness
from recridge.dense_linalg import as_matrix, identity, spd_solve
from recridge.errors import ShapeError


def gen_experiment(seed, eta, d_rp_mult):
    """The experiment of ``recridge run`` on the files of
    ``recridge gen --dim 6 --seed <seed>`` (6 classes, 40 training and 20
    test rows each, separation 10) with a repoint config of schedule 6/3,
    that eta and ``--d-rp-mult``. Synthetic mode draws the same rows as
    gen, which FMAT stores exactly, so no file is written.
    """
    raw = {
        "pipeline": "repoint", "schedule": "6/3", "eta": repr(eta),
        "d_rp_multiplier": str(d_rp_mult), "synth_classes": "6", "synth_per_class": "40",
        "synth_test_per_class": "20", "synth_dim": "6", "synth_seed": str(seed),
    }
    return cil_harness.prepare_experiment(cil_harness.build_config(raw))


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
