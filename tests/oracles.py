"""Reference checks and inputs that only the tests use.

``kn_identity_check`` audits the algebra behind the recursive downdate
against an explicit inverse, which the library itself never forms.
``gen_experiment`` builds, in memory, the experiment ``recridge run``
builds from ``recridge gen`` files. ``random_phase_problem`` draws
Gaussian phases, and ``recursive_states`` runs the recursion over any
list of phases, outside the schedule-driven loop of ``run_phases``.
"""

import numpy as np

from recridge import cil_harness
from recridge.dense_linalg import as_matrix, spd_solve
from recridge.errors import ShapeError, ValidationError
from recridge.rilm import (
    DEFAULT_ETA,
    PhaseDataset,
    RilmState,
    batch_oracle,
    empty_state,
    rilm_update,
)


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
    inner = g @ f.T + np.eye(n)
    k = np.linalg.inv(inner)
    k = 0.5 * (k + k.T)
    res1 = np.linalg.norm(k - (np.eye(n) - k @ g @ f.T)) / max(np.linalg.norm(k), 1e-300)
    r_next = r - g.T @ spd_solve(inner, g)
    lhs = r @ f.T @ k
    rhs = r_next @ f.T
    res2 = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return float(max(res1, res2))


# ---------------------------------------------------------------------------
# Random multi-phase problems and the recursion over them.
# ---------------------------------------------------------------------------


def random_phase_problem(
    seed: int,
    n_phases: int,
    d_rp: int,
    samples_range: tuple[int, int] = (50, 200),
    classes_per_phase_range: tuple[int, int] = (2, 5),
) -> list[PhaseDataset]:
    """Synthetic multi-phase problem with Gaussian features and uniform labels."""
    if n_phases < 1:
        raise ValidationError(f"n_phases must be >= 1, got {n_phases}")
    gen = np.random.Generator(np.random.PCG64(seed))
    phases = []
    next_class = 0
    for _ in range(n_phases):
        n = int(gen.integers(samples_range[0], samples_range[1] + 1))
        c = int(gen.integers(classes_per_phase_range[0], classes_per_phase_range[1] + 1))
        ids = tuple(range(next_class, next_class + c))
        features = gen.standard_normal((n, d_rp))
        labels = next_class + gen.integers(0, c, size=n)
        phases.append(PhaseDataset(features=features, labels=labels, class_ids=ids))
        next_class += c
    return phases


def recursive_states(phases, eta: float = DEFAULT_ETA, path: str = "auto") -> list[RilmState]:
    """Run the recursion from a fresh state, returning the state after each phase.

    Every phase, including the first, is one rilm_update, which registers
    its classes, so ``path`` applies to all transitions.
    """
    phases = list(phases)
    if not phases:
        raise ValidationError("recursive_states needs at least one phase")
    # the width the first phase expands to, read off zero of its rows
    state = empty_state(phases[0].expanded_rows(None, 0, 0).shape[1], eta)
    out = []
    for ph in phases:
        state = rilm_update(state, ph, path=path)
        out.append(state)
    return out


def recursive_vs_batch_error(phases, eta: float = DEFAULT_ETA, path: str = "auto") -> float:
    """Relative Frobenius gap between the recursion's final weights and the joint fit."""
    final = recursive_states(phases, eta, path)[-1]
    reference = batch_oracle(phases, eta)
    denom = max(float(np.linalg.norm(reference)), 1e-300)
    return float(np.linalg.norm(final.weights - reference)) / denom
