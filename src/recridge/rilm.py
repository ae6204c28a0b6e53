"""Recursive ridge classifier for class-incremental learning.

The learner keeps two fixed-size summaries: the weight matrix of a linear
classifier over expanded features, and ``r``, the inverse of the
accumulated feature Gram matrix plus the ridge term. After each phase the
pair is rewritten in place of any raw data, so memory never grows with the
number of samples seen. The central guarantee, exercised heavily by the
test suite, is that updating phase by phase lands on exactly the same
weights as solving one joint ridge problem over all phases at once.

Updating ``r`` when a phase of n rows arrives can be done two ways:

* ``direct``: with r = L Lᵀ and h = f L, the new memory is
  L (I + hᵀh)⁻¹ Lᵀ, formed from d x d Cholesky factors and products
  without inverting r; about 2.7d³ + 3nd² flops,
* ``woodbury``: downdate the previous inverse through the matrix inversion
  lemma, one block of at most m = max(1, d // 4) rows at a time, so it only
  ever factors m x m systems; about 3nd²(1 + m/d) flops.

Both must agree to tight tolerance. ``auto`` takes Woodbury, except that a
phase of n >= d rows goes to the direct path when eta is below 1e-4 (see
the eta paragraph below). Measured with 2 BLAS threads on a 2-vCPU Xeon
(numpy 2.4, ReLU rows, best of 7, three runs), Woodbury against direct at
d = 768: 0.048 to 0.065 vs 0.082 to 0.098 s for n = 1000, 0.11 to 0.13 vs
0.10 to 0.13 s for n = 2000 and 0.16 to 0.17 vs 0.11 to 0.14 s for
n = 3000, so phases of more than about 2.5d rows would run faster direct;
``auto`` does not switch there, because no benchmark workload has phases
that tall to check a crossover on. The block size was compared at those
sizes, before the panelled downdate below: against d // 4, d // 8 is 15
to 26 %, d // 2 1 to 15 % and d 21 to 53 % slower, and one unblocked
solve (m = n) takes 0.11 to 0.13 s at n = 1000.

Each Woodbury block ends with r − Vᵀ V for an m x d V. It is formed in
panels of 128 rows: below and on the diagonal by matrix products and a
``syrk`` per 128 x 128 diagonal block, m d² flops in all, then copied to
the mirror entries above the diagonal. Every block updates r in place
through one 128 x d scratch panel, so an update of any height holds no
d x d array but r (and a copy if the old r is kept). On the same host
(medians of 30 or 40, three runs) one downdate took 12 to 14 ms against
20 to 27 ms for numpy's whole-matrix r − Vᵀ V at d = 1536, m = 200, and
3.0 to 3.4 against 3.5 to 4.9 ms at d = 768, m = 192: numpy mirrors the
triangle its ``syrk`` computes with a scalar, strided loop over all of
d x d. Panels of 64 and 256 rows were slower than 128 at both sizes.

States are immutable values; every operation returns a new state, except
that ``update_r`` and ``rilm_update`` with ``out=state.r`` overwrite the
old memory and consume the state: a run holds one d x d memory matrix.

``r`` is exactly symmetric in every state: the empty state's ``I/eta`` is,
both update paths return an exactly symmetric matrix from an exactly
symmetric one, and ``load_state`` symmetrizes the ``r`` it accepts. So no
phase pays for a d x d re-symmetrize pass, and round-off cannot make ``r``
drift away from symmetry however many phases run.

Every phase, the first included, is one update of this pair, starting from
the empty state (no classes, ``r = I/eta``).

The ridge strength ``eta`` may be any positive number, but on the Woodbury
path the float64 error grows roughly as 1/eta. For one phase of 50 rows at
d = 192 (Gaussian or ReLU features) the weights differ from
``np.linalg.solve`` of the normal equations by about 1.1e-13 relative at
eta = 1, 1.1e-11 at 1e-2, 1.1e-9 at 1e-4 and 1.2e-7 at 1e-6 (median of
10), the last beyond the 1e-8 weight tolerance of the tests. With 300 to
2000 ReLU rows the gap is 3e-10 to 8e-10 at eta = 1e-4 and 3e-8 to 8e-8
at 1e-6, where the direct path stays near 1e-14 on a first phase; so below
eta = 1e-4 ``auto`` keeps phases of n >= d rows on the direct path. Over
eight phases of 60 clustered ReLU rows at d = 192 the final weights'
error against the joint fit (median of 7 seeds) is 2.6e-9 on the Woodbury
path and 2.1e-9 on the direct path at eta = 1e-4, and 2.5e-7 and 1.9e-7 at
1e-6; duplicated, rank-1 and all-zero rows stay inside that envelope. The
error grows with the features' scale as well, roughly as ||F||²/eta: on
``recridge gen`` data at its default separation of 10 (d = 72, three
phases) it is 3.8e-8 (Woodbury) and 3.4e-9 (direct) at eta = 1e-4, median
of 20 seeds. The tests cover eta >= 1e-4 on both paths, at the benchmark
workloads' separation of 3, and eta = 1e-6 for ``auto`` on such a phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fmat
from .dense_linalg import (
    Matrix,
    _symmetrized,
    as_matrix,
    cholesky_lower,
    identity,
    spd_half_solve,
    spd_solve,
    zeros,
)
from .errors import (
    NotPositiveDefiniteError,
    NumericalError,
    ParseError,
    ProtocolError,
    ShapeError,
    ValidationError,
)

UPDATE_PATHS = ("auto", "woodbury", "direct")

DEFAULT_ETA = 1.0

# Below this eta, ``auto`` sends phases of n >= d rows to the direct path.
_WOODBURY_MIN_ETA = 1e-4

# Rows per panel of the Woodbury downdate r − vᵀv.
_DOWNDATE_PANEL_ROWS = 128

# Rows scored per block by ``predict_ids``.
_PREDICT_BLOCK_ROWS = 1024

# RilmState checks the symmetry of at most this many rows and columns of r.
_SYMMETRY_PROBE = 64

_CHECKPOINT_TAG = "RILM v1"


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise ValidationError(f"eta must be a positive finite number, got {eta}")
    return eta


def _check_path(path: str) -> str:
    if path not in UPDATE_PATHS:
        raise ValidationError(f"unknown update path {path!r}, expected one of {UPDATE_PATHS}")
    return path


def _check_class_ids(ids, what: str) -> tuple[int, ...]:
    ids = tuple(int(i) for i in ids)
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ProtocolError(f"{what} must be strictly increasing, got {ids}")
    return ids


@dataclass(frozen=True)
class PhaseDataset:
    """Training data for one incremental phase.

    ``labels_onehot`` has one column per entry of ``class_ids`` (which are
    global ids, strictly increasing).
    """

    features: Matrix
    labels_onehot: Matrix
    class_ids: tuple[int, ...]

    def __post_init__(self):
        f = as_matrix(self.features, "features")
        y = as_matrix(self.labels_onehot, "labels_onehot")
        ids = _check_class_ids(self.class_ids, "class_ids")
        if f.shape[0] != y.shape[0]:
            raise ShapeError(
                f"features have {f.shape[0]} rows but labels have {y.shape[0]} rows"
            )
        if y.shape[1] != len(ids):
            raise ShapeError(
                f"labels have {y.shape[1]} columns but {len(ids)} class ids were given"
            )
        if y.shape[0]:
            if not np.isin(y, (0.0, 1.0)).all():
                raise ValidationError("labels_onehot entries must be exactly 0 or 1")
            if not (y.sum(axis=1) == 1.0).all():
                raise ValidationError("each label row must contain exactly one 1")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels_onehot", y)
        object.__setattr__(self, "class_ids", ids)

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class RilmState:
    """Classifier weights plus the regularized inverse Gram memory.

    ``class_ids[j]`` is the global id of the class scored by column j of
    ``weights``; ids are listed in registration order. ``phase`` counts the
    updates applied so far.

    The constructor validates its inputs. Symmetry of ``r`` is checked
    exactly, but only on the sub-grid ``r[::s, ::s]`` with s = ceil(d / 64),
    so it makes no d x d temporary; for d <= 64 that is all of ``r``.
    """

    weights: Matrix
    r: Matrix
    eta: float
    phase: int
    class_ids: tuple[int, ...]

    def __post_init__(self):
        w = as_matrix(self.weights, "weights")
        r = as_matrix(self.r, "r")
        ids = tuple(int(i) for i in self.class_ids)
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"duplicate class ids in state: {ids}")
        if r.shape[0] != r.shape[1]:
            raise ShapeError(f"r must be square, got {r.shape}")
        if w.shape[0] != r.shape[0]:
            raise ShapeError(f"weights rows {w.shape[0]} != r size {r.shape[0]}")
        if w.shape[1] != len(ids):
            raise ShapeError(f"weights have {w.shape[1]} columns for {len(ids)} class ids")
        step = max(1, math.ceil(r.shape[0] / _SYMMETRY_PROBE))
        grid = r[::step, ::step]
        if not np.array_equal(grid, grid.T):
            raise ValidationError("r is not symmetric")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "eta", _check_eta(self.eta))
        object.__setattr__(self, "class_ids", ids)

    @property
    def d_rp(self) -> int:
        return self.r.shape[0]

    @property
    def classes_seen(self) -> int:
        return len(self.class_ids)


def empty_state(d_rp: int, eta: float = DEFAULT_ETA, class_ids=()) -> RilmState:
    """State before any data: memory is the scaled identity I/eta.

    ``class_ids`` are registered in the given order with zero weights, which
    is the joint solution for classes that have no data.
    """
    if d_rp < 1:
        raise ValidationError(f"d_rp must be >= 1, got {d_rp}")
    eta = _check_eta(eta)
    r = identity(d_rp)
    r /= eta
    return RilmState(
        weights=zeros(d_rp, len(class_ids)),
        r=r,
        eta=eta,
        phase=0,
        class_ids=class_ids,
    )


def expand_classes(state: RilmState, new_class_ids) -> RilmState:
    """Register classes arriving in a new phase.

    Columns for the new classes start at zero, which is exactly where the
    joint solution has them before any of their data is seen; ``r`` does
    not depend on the label width and is unchanged.
    """
    new_ids = _check_class_ids(new_class_ids, "new_class_ids")
    if not new_ids:
        return state
    clash = set(new_ids) & set(state.class_ids)
    if clash:
        raise ProtocolError(f"class ids already registered: {sorted(clash)}")
    padded = np.hstack([state.weights, zeros(state.d_rp, len(new_ids))])
    # Zero columns for new, checked ids keep a validated state valid, so the
    # constructor's scans are skipped and the d x d ``r`` is not read again.
    out = object.__new__(RilmState)
    vars(out).update(vars(state), weights=padded, class_ids=state.class_ids + new_ids)
    return out


def update_r(state: RilmState, f_rp, path: str = "auto", out=None) -> Matrix:
    """Memory matrix after absorbing the Gram matrix of new feature rows.

    The woodbury path never touches a d x d system. It takes the rows in
    consecutive blocks f_b of at most max(1, d // 4) rows; per block, with
    g = f_b r and L the Cholesky factor of g f_bᵀ + I, it subtracts the
    correction Vᵀ V, V = L⁻¹ g. r − Vᵀ V is formed in place, in panels of
    128 rows of its lower triangle copied to the upper one, so it is
    exactly symmetric when r is. A phase of at most d // 4 rows is one
    block. A block system that rounding leaves outside spd_half_solve's
    checks (at small eta, asymmetric beyond SYMMETRY_RTOL) raises
    NumericalError. The direct path factors r = L Lᵀ, sets h = f L and
    returns Vᵀ V for V = K⁻¹ Lᵀ, K the Cholesky factor of I + hᵀh: that is
    (r⁻¹ + fᵀf)⁻¹, exactly symmetric the same way. r itself is never
    inverted: rebuilding the Gram matrix from r that way lost accuracy with
    every phase at small eta. ``auto`` takes Woodbury unless n >= d and
    eta < 1e-4, where the direct path is the more accurate (see the module
    docstring). With ``out=None`` the result is a new array and ``state.r``
    is left as it was; the only other ``out`` accepted is ``state.r``
    itself, writable, which is then updated in place (a failure partway
    leaves it partly updated).
    """
    path = _check_path(path)
    f = as_matrix(f_rp, "f_rp")
    n, d = f.shape
    if d != state.d_rp:
        raise ShapeError(f"f_rp has width {d}, state expects {state.d_rp}")
    if out is not None and (out is not state.r or not out.flags.writeable):
        raise ShapeError("out must be None or a writable state.r")
    if n == 0:
        # no data means no Gram contribution; keep the memory bit-identical
        return state.r.copy() if out is None else out
    if path == "auto":
        path = "direct" if n >= d and state.eta < _WOODBURY_MIN_ETA else "woodbury"
    if path == "direct":
        low_t = np.ascontiguousarray(cholesky_lower(state.r).T)
        h = f @ low_t.T
        inner = h.T @ h
        del h
        inner[np.diag_indices(d)] += 1.0
        # four d x d arrays at most: inner, low_t, K and V
        v = spd_half_solve(inner, low_t)
        del inner, low_t
        return np.matmul(v.T, v, out=out)
    if out is None:
        out = state.r.copy()
    block = max(1, d // 4)
    for start in range(0, n, block):
        fb = f[start : start + block]
        g = fb @ out
        try:
            v = spd_half_solve(g @ fb.T + identity(fb.shape[0]), g)
        except ValidationError as exc:
            raise NumericalError(f"woodbury block: {exc}") from exc
        _downdate(out, v)
        del g, v  # freed before the next block's are formed
    return out


def _downdate(r, v):
    """Overwrite ``r`` with r − vᵀv, in panels of rows.

    For the rows s:e of each panel, the block left of the diagonal is one
    matrix product and the diagonal block one ``syrk`` of numpy's, which is
    exactly symmetric; both are formed in one scratch panel and subtracted,
    then the block left of the diagonal is copied to its mirror above it,
    with no temporary as the ranges are disjoint. Each panel reads only its
    own rows of ``r`` and writes those and rows earlier panels have read.
    """
    d = r.shape[0]
    panel = np.empty((min(_DOWNDATE_PANEL_ROWS, d), d))
    for s in range(0, d, _DOWNDATE_PANEL_ROWS):
        e = min(s + _DOWNDATE_PANEL_ROWS, d)
        rows = panel[: e - s, :e]
        np.matmul(v[:, s:e].T, v[:, :s], out=rows[:, :s])
        np.matmul(v[:, s:e].T, v[:, s:e], out=rows[:, s:])
        r[s:e, :e] -= rows
        r[:s, s:e] = r[s:e, :s].T


def rilm_update(
    state: RilmState, phase: PhaseDataset, path: str = "auto", out=None
) -> RilmState:
    """Absorb one phase of data into the state.

    The phase's classes must have been registered through expand_classes
    beforehand. Labels are embedded at their registered columns, then the
    weights move by the recursive least-squares correction

        w  <-  w + r_new fᵀ (y - f w)

    which reproduces the joint ridge solution over everything seen so far.
    Nothing from the phase is retained beyond the refreshed summaries, and
    an empty phase is an exact no-op. ``out`` is None or ``state.r``, as in
    ``update_r``; with ``out=state.r`` the passed state is consumed.
    """
    path = _check_path(path)
    f = phase.features
    if f.shape[1] != state.d_rp:
        raise ShapeError(f"phase features have width {f.shape[1]}, state expects {state.d_rp}")
    column = {cid: j for j, cid in enumerate(state.class_ids)}
    missing = [cid for cid in phase.class_ids if cid not in column]
    if missing:
        raise ProtocolError(f"class ids not registered before update: {missing}")
    y_full = zeros(phase.num_samples, state.classes_seen)
    cols = [column[cid] for cid in phase.class_ids]
    y_full[:, cols] = phase.labels_onehot

    r_new = update_r(state, f, path=path, out=out)
    w = state.weights
    w_new = w + r_new @ (f.T @ (y_full - f @ w))
    return RilmState(
        weights=w_new,
        r=r_new,
        eta=state.eta,
        phase=state.phase + 1,
        class_ids=state.class_ids,
    )


def batch_oracle(all_phases, eta: float = DEFAULT_ETA) -> Matrix:
    """Joint closed-form ridge fit over every phase at once.

    Stacks all features and lays the per-phase label blocks into a shared
    label matrix (classes ordered by first appearance, matching the
    registration order of the recursive updates). This is the reference the
    recursion is checked against.
    """
    eta = _check_eta(eta)
    phases = list(all_phases)
    if not phases:
        raise ValidationError("batch_oracle needs at least one phase")
    table: list[int] = []
    seen: set[int] = set()
    for ph in phases:
        overlap = set(ph.class_ids) & seen
        if overlap:
            raise ProtocolError(f"class ids appear in more than one phase: {sorted(overlap)}")
        seen.update(ph.class_ids)
        table.extend(ph.class_ids)
    d = phases[0].features.shape[1]
    for ph in phases:
        if ph.features.shape[1] != d:
            raise ShapeError("all phases must share the same feature width")
    column = {cid: j for j, cid in enumerate(table)}
    a_sum = zeros(d, d)
    c_sum = zeros(d, len(table))
    for ph in phases:
        f = ph.features
        a_sum += f.T @ f
        cols = [column[cid] for cid in ph.class_ids]
        c_sum[:, cols] += f.T @ ph.labels_onehot
    return spd_solve(a_sum + eta * identity(d), c_sum)


def predict_ids(state: RilmState, f_rp) -> np.ndarray:
    """Global class id with the highest score per row, as an int64 array.

    Ties go to the lowest id. Rows are scored in near-equal blocks of at
    most ``_PREDICT_BLOCK_ROWS``, so memory holds one block of scores, never
    the full rows x classes matrix. No block has a single row unless the
    input does: numpy scores one row by a matrix-vector product, which may
    differ from the matrix product in the last bit.
    """
    return predict_finite_ids(state, as_matrix(f_rp, "f_rp"))


def predict_finite_ids(state: RilmState, f: Matrix) -> np.ndarray:
    """``predict_ids`` for rows already known to be finite.

    ``f`` must be a 2-d float64 C-order array with finite entries, such as
    the output of ``rp_forward``, which checked them; they are not scanned
    again. The class and width checks of ``predict_ids`` still apply.
    """
    if state.classes_seen == 0:
        raise ProtocolError("cannot predict before any classes are registered")
    if f.shape[1] != state.d_rp:
        raise ShapeError(f"f_rp has width {f.shape[1]}, state expects {state.d_rp}")
    ids = np.asarray(state.class_ids)
    order = np.argsort(ids)
    # Scores are formed with the weight columns already in increasing id
    # order, so argmax's first maximum is the lowest id; permuting the d x k
    # weights is cheaper than permuting the rows x k scores.
    weights = state.weights[:, order]
    n = f.shape[0]
    blocks = -(-n // _PREDICT_BLOCK_ROWS)
    best = np.empty(n, dtype=np.intp)
    for b in range(blocks):
        rows = slice(b * n // blocks, (b + 1) * n // blocks)
        best[rows] = np.argmax(f[rows] @ weights, axis=1)
    return ids[order][best]


# ---------------------------------------------------------------------------
# Checkpoint format: RILM v1 header, weights and r as FMAT blocks, then the
# registered class ids as a LABL block. Size depends only on (d_rp, classes).
# ---------------------------------------------------------------------------


def save_state(state: RilmState, path) -> None:
    with fmat.atomic_writer(path) as fh:
        fh.write(
            f"{_CHECKPOINT_TAG} d_rp={state.d_rp} classes={state.classes_seen} "
            f"eta={state.eta!r} phase={state.phase}\n"
        )
        fmat.write_matrix_block(fh, state.weights)
        fmat.write_matrix_block(fh, state.r)
        fmat.write_labels_block(fh, state.class_ids)


def load_state(path) -> RilmState:
    cursor = fmat.open_cursor(path)
    header = cursor.next_line("RILM header")
    parts = header.split()
    if parts[:2] != ["RILM", "v1"] or len(parts) != 6:
        raise cursor.error(f"malformed checkpoint header: {header!r}")
    fields = {}
    for part in parts[2:]:
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        d_rp = int(fields["d_rp"])
        classes = int(fields["classes"])
        eta = float(fields["eta"])
        phase = int(fields["phase"])
    except (KeyError, ValueError):
        raise cursor.error(f"malformed checkpoint header: {header!r}") from None
    if phase < 0:
        raise cursor.error(f"negative phase in checkpoint header: {header!r}")
    if not (np.isfinite(eta) and eta > 0.0):
        raise cursor.error(f"eta must be positive and finite in checkpoint header: {header!r}")
    weights = fmat.read_matrix_block(cursor)
    r_line = cursor.lineno + 1
    r = fmat.read_matrix_block(cursor)
    ids = fmat.read_labels_block(cursor)
    fmat.check_consumed(cursor)
    del cursor  # frees the file's text before the checks
    if weights.shape != (d_rp, classes) or r.shape != (d_rp, d_rp) or len(ids) != classes:
        raise ParseError(path, 1, "checkpoint blocks do not match header dimensions")
    # Exact symmetry is a state invariant (see the module docstring); any r
    # this program saved comes back as itself.
    sym = _symmetrized(r)
    if sym is None:
        raise ParseError(path, r_line, "memory matrix r is not symmetric")
    try:
        cholesky_lower(r)
    except NotPositiveDefiniteError as exc:
        raise ParseError(
            path, r_line, f"memory matrix r is not positive definite (pivot {exc.pivot})"
        ) from None
    return RilmState(weights=weights, r=sym, eta=eta, phase=phase, class_ids=tuple(ids))


# ---------------------------------------------------------------------------
# Self-check helpers shared by the CLI `verify` command and the test suite.
# ---------------------------------------------------------------------------


def random_phase_problem(
    seed: int,
    n_phases: int,
    d_rp: int,
    samples_range: tuple[int, int] = (50, 200),
    classes_per_phase_range: tuple[int, int] = (2, 5),
) -> list[PhaseDataset]:
    """Synthetic multi-phase problem with Gaussian features and one-hot labels."""
    if n_phases < 1:
        raise ValidationError(f"n_phases must be >= 1, got {n_phases}")
    gen = np.random.Generator(np.random.PCG64(seed))
    phases = []
    next_class = 0
    for _ in range(n_phases):
        n = int(gen.integers(samples_range[0], samples_range[1] + 1))
        c = int(gen.integers(classes_per_phase_range[0], classes_per_phase_range[1] + 1))
        ids = tuple(range(next_class, next_class + c))
        next_class += c
        features = gen.standard_normal((n, d_rp))
        y = np.zeros((n, c))
        y[np.arange(n), gen.integers(0, c, size=n)] = 1.0
        phases.append(PhaseDataset(features=features, labels_onehot=y, class_ids=ids))
    return phases


def recursive_states(phases, eta: float = DEFAULT_ETA, path: str = "auto") -> list[RilmState]:
    """Run the recursion from a fresh state, returning the state after each phase.

    Every phase, including the first, goes through expand_classes and
    rilm_update, so ``path`` applies to all transitions.
    """
    phases = list(phases)
    if not phases:
        raise ValidationError("recursive_states needs at least one phase")
    state = empty_state(phases[0].features.shape[1], eta)
    out = []
    for ph in phases:
        state = expand_classes(state, ph.class_ids)
        state = rilm_update(state, ph, path=path)
        out.append(state)
    return out


def recursive_vs_batch_error(phases, eta: float = DEFAULT_ETA, path: str = "auto") -> float:
    """Relative Frobenius gap between the recursion's final weights and the joint fit."""
    final = recursive_states(phases, eta, path)[-1]
    reference = batch_oracle(phases, eta)
    denom = max(float(np.linalg.norm(reference)), 1e-300)
    return float(np.linalg.norm(final.weights - reference)) / denom
