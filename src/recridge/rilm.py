"""Recursive ridge classifier for class-incremental learning.

The learner keeps two fixed-size summaries: the weight matrix of a linear
classifier over expanded features, and ``r``, the inverse of the
accumulated feature Gram matrix plus the ridge term. Every phase, the
first included, rewrites the pair in place of any raw data, starting from
the empty state (no classes, ``r = I/eta``), so memory never grows with
the number of samples seen. The central guarantee, exercised heavily by
the test suite, is that updating phase by phase lands on exactly the same
weights as solving one joint ridge problem over all phases at once.

A phase, n feature rows and the global class id of each (which picks the
weight column the row trains), is one ``rilm_update``. It registers the
phase's class ids the state does not hold, in phase order, each with a
zero weight column (the joint fit's before any of the class's rows), and
absorbs the rows in blocks of m = max(1, d // 4), one of two ways:

* ``direct``: with r = L Lᵀ and h = f L, the new memory is L (I + hᵀh)⁻¹ Lᵀ,
  formed from d x d Cholesky factors and products, about 2.7d³ + 3nd² flops,
* ``woodbury``: block recursive least squares. Each block downdates r
  through the matrix inversion lemma, factoring only an m x m system;
  about 3nd²(1 + m/d) flops.

Both step the weights by one formula, the factored gain (``rilm_update``),
and must agree to tight tolerance. ``auto`` takes Woodbury, except that a
phase of n >= d rows goes to the direct path when eta is below 1e-4 (see
below); ``CHANGES.md`` records how the block size, the downdate's panel
height and the paths' speeds were measured. Each block is expanded
(``PhaseDataset.expand``) just before its use: an update of any height holds
one block of expanded rows, r (and a copy if the old r is kept) and, on the
direct path, at most four more d x d arrays.

States are immutable values; every operation returns a new state, except
that ``rilm_update`` with ``out=state.r`` overwrites the old memory and
consumes the state: a run holds one d x d memory matrix. ``r`` is exactly
symmetric in every state: the empty state's ``I/eta`` is, both update
paths return an exactly symmetric matrix from an exactly symmetric one,
and ``load_state`` symmetrizes the ``r`` it accepts. So no phase pays for
a d x d re-symmetrize pass, and round-off cannot make ``r`` drift away
from symmetry however many phases run.

The ridge strength ``eta`` may be any positive number, but the float64
error grows roughly as ||F||²/eta. The tests hold the weights within 1e-8
of the joint fit for eta >= 1e-4: on both paths at the benchmark
workloads' feature scale, and on the Woodbury path on ``recridge gen``
data at its separation of 10 (``test_woodbury_holds_joint_fit_on_gen_data``).
On a phase of n >= d rows at smaller eta the direct path is the more
accurate (``test_auto_keeps_tall_phases_direct_below_tested_eta``, and
on gen data ``test_direct_holds_joint_fit_on_gen_data``), so ``auto``
takes it there.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import fmat
from .dense_linalg import (
    Matrix,
    _symmetrized,
    as_matrix,
    cholesky_lower,
    spd_half_solve_into,
    spd_solve,
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


@dataclass(frozen=True)
class PhaseDataset:
    """Training data for one incremental phase.

    ``labels[i]``, an entry of a 1-d integer array, is the global class id
    of row i of ``features``; every label lies in ``class_ids`` (global
    ids, strictly increasing). With ``expand``, ``features`` are input
    rows, and ``expand`` maps any block of them, row by row, to the rows
    the learner trains on, so it expands no more than it is about to use.
    """

    features: Matrix
    labels: np.ndarray
    class_ids: tuple[int, ...]
    expand: Callable[[Matrix], Matrix] | None = None

    def __post_init__(self):
        f = as_matrix(self.features, "features")
        y = np.asarray(self.labels)
        ids = tuple(int(i) for i in self.class_ids)
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ProtocolError(f"class_ids must be strictly increasing, got {ids}")
        if y.shape != (f.shape[0],):
            raise ShapeError(
                f"labels must hold one id per feature row, shape ({f.shape[0]},), "
                f"got {y.shape}"
            )
        if y.dtype.kind not in "iu":
            if y.size:
                raise ValidationError(f"labels must be integer class ids, got {y.dtype}")
            y = y.astype(np.intp)
        if not np.isin(y, ids).all():
            raise ValidationError(f"labels must lie in class_ids {ids}")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "class_ids", ids)

    def expanded_rows(self, d: int | None, start: int = 0, stop: int | None = None) -> Matrix:
        """Rows ``start:stop`` as the learner trains on them, d wide unless d is None."""
        f = self.features[start:stop]
        if self.expand is not None:
            f = as_matrix(self.expand(f), "expanded features")
        if d is not None and f.shape[1] != d:
            raise ShapeError(f"phase rows have width {f.shape[1]}, expected {d}")
        return f


@dataclass(frozen=True)
class RilmState:
    """Classifier weights plus the regularized inverse Gram memory.

    ``class_ids[j]`` is the global id of the class scored by column j of
    ``weights``; ids are listed in the order updates registered them.
    ``phase`` counts the updates applied so far.

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
    r = np.eye(d_rp)
    r /= eta
    return RilmState(
        weights=np.zeros((d_rp, len(class_ids))),
        r=r,
        eta=eta,
        phase=0,
        class_ids=class_ids,
    )


def _update(state, phase, path, out, w, cols):
    """``rilm_update`` on checked inputs: returns the new r, steps ``w``.

    Row i of the phase trains column ``cols[i]`` of the d x c ``w``, which
    ``_solve_and_step`` steps in place; each block f_b is expanded just
    then. Woodbury: K factors I + g f_bᵀ for g = f_b r, [g | y_b − f_b w]
    becomes [V | K⁻¹ e] and r loses Vᵀ V (see ``_downdate``). Direct, with
    r = L Lᵀ and h_b = f_b L: e sums h_bᵀ(y_b − f_b w), w as before the
    phase, and a = I + hᵀh the Gram matrices of four h_b at a time; K factors
    a, [Lᵀ | e] becomes [V | K⁻¹ e] and r becomes Vᵀ V. Both are exactly
    symmetric. Neither inverts r, which lost accuracy at small eta.
    """
    n, d = phase.features.shape[0], state.d_rp
    if out is not None and (out is not state.r or not out.flags.writeable):
        raise ShapeError("out must be None or a writable state.r")
    if n == 0:
        phase.expanded_rows(d, 0, 0)  # the width check; rows are checked as expanded
        # no data means no Gram contribution; keep the memory bit-identical
        return state.r.copy() if out is None else out
    if path == "auto":
        path = "direct" if n >= d and state.eta < _WOODBURY_MIN_ETA else "woodbury"
    block = max(1, d // 4)
    if path == "direct":
        rhs = np.hstack([cholesky_lower(state.r).T, np.zeros((d, w.shape[1]))])
        a = np.eye(d)
        h = np.empty((min(n, 4 * block), d))  # one Gram product per block is slower
        for start in range(0, n, block):
            fb = phase.expanded_rows(d, start, start + block)
            end = start % len(h) + len(fb)
            hb = np.matmul(fb, rhs[:, :d].T, out=h[end - len(fb) : end])
            rhs[:, d:] += hb.T @ _residual(fb, w, cols[start : start + block])
            del fb
            if end == len(h) or start + block >= n:
                a += h[:end].T @ h[:end]
        v = _solve_and_step(a, rhs, w, "direct update")
        return np.matmul(v.T, v, out=out)
    if out is None:
        out = state.r.copy()
    buf = np.empty((min(block, n), d + w.shape[1]))
    panel = np.empty((min(_DOWNDATE_PANEL_ROWS, d), d))
    for start in range(0, n, block):
        fb = phase.expanded_rows(d, start, start + block)
        # the block's g = f_b r and, for the weights, e = y_b − f_b w
        rhs = buf[: fb.shape[0]]
        g = np.matmul(fb, out, out=rhs[:, :d])
        _residual(fb, w, cols[start : start + block], out=rhs[:, d:])
        a = g @ fb.T
        del fb  # freed before the next block is expanded
        a.flat[:: a.shape[0] + 1] += 1.0
        v = _solve_and_step(a, rhs, w, "woodbury block")
        del a
        _downdate(out, v, panel)
    return out


def _solve_and_step(a, rhs, w, what):
    """Turn ``rhs`` = [B | E] into [V | K⁻¹ E], K the Cholesky factor of
    ``a``, step ``w`` += Vᵀ K⁻¹ E and return V, a view of ``rhs``."""
    try:
        spd_half_solve_into(a, rhs)
    except ValidationError as exc:
        raise NumericalError(f"{what}: {exc}") from exc
    v, e = rhs[:, : w.shape[0]], rhs[:, w.shape[0] :]
    w += v.T @ e
    return v


def _residual(f, w, cols, out=None):
    # y − f w, where row i of y is 1 in column cols[i] and 0 elsewhere
    e = np.matmul(f, w, out=out)
    np.negative(e, out=e)
    e[np.arange(len(cols)), cols] += 1.0
    return e


def _downdate(r, v, panel):
    """Overwrite ``r`` with r − vᵀv, in panels of rows.

    Per panel of rows s:e, the block left of the diagonal (a matrix
    product) and the diagonal block (numpy's exactly symmetric ``syrk``)
    are formed in the min(128, d) x d scratch ``panel`` and subtracted;
    the former is then copied to its mirror above the diagonal. Each panel
    reads only its own rows of ``r`` and writes those and rows earlier
    panels have read.
    """
    d = r.shape[0]
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

    First the phase's class ids the state does not hold are registered as
    the module docstring says; each row's class id, new or held, selects
    the weight column it trains. ``r`` absorbs the rows' Gram matrix and
    the weights move by the recursive least-squares correction, which
    reproduces the joint ridge solution over everything seen so far. Both
    paths solve a buffer [B | E] in place into [V | K⁻¹ E], K a Cholesky
    factor, and step

        w  <-  w + Vᵀ K⁻¹ E

    per Woodbury block, before its downdate, or once on the direct path
    (B, E and K as in ``_update``); a system that fails the solve's checks
    (at small eta) raises NumericalError. ``path`` is one of
    ``UPDATE_PATHS``, ``auto`` as in the module docstring. Nothing from
    the phase is retained beyond the refreshed summaries, and an empty
    phase only registers its new classes: ``r`` and the old weight columns
    stay bit-identical. With ``out=None`` the passed state is left as it
    was. The only other ``out`` accepted is ``state.r`` itself, writable:
    then ``r`` is updated in place, and so are the weights unless new
    classes widen them, so the passed state is consumed (a failure partway
    leaves it partly updated).
    """
    if path not in UPDATE_PATHS:
        raise ValidationError(f"unknown update path {path!r}, expected one of {UPDATE_PATHS}")
    column = {cid: j for j, cid in enumerate(state.class_ids)}
    new = tuple(cid for cid in phase.class_ids if cid not in column)
    column.update((cid, j) for j, cid in enumerate(new, len(column)))
    # each label's index in the sorted phase.class_ids, then its weight column
    cols = np.array([column[cid] for cid in phase.class_ids], dtype=np.intp)
    cols = cols[np.searchsorted(phase.class_ids, phase.labels)]
    w = state.weights
    if new:
        w = np.hstack([w, np.zeros((state.d_rp, len(new)))])
    elif out is None or not w.flags.writeable:
        w = w.copy()
    r_new = _update(state, phase, path, out, w, cols)
    return RilmState(w, r_new, state.eta, state.phase + 1, state.class_ids + new)


def batch_oracle(all_phases, eta: float = DEFAULT_ETA) -> Matrix:
    """Joint closed-form ridge fit over every phase at once.

    Sums every phase's Gram matrix and its label block in a shared label
    matrix (classes ordered by first appearance, matching the registration
    order of the recursive updates; a class may train in several phases),
    expanding one phase at a time. This is
    the reference the recursion is checked against. It solves the normal
    equations (FᵀF + eta I) W = Fᵀ Y, so where d exceeds the rows seen it
    can be less accurate than the recursion (``CHANGES.md``); hence eta
    1e-2 in ``test_one_row_last_block_holds_joint_fit`` (d 318, 240 rows).
    """
    eta = _check_eta(eta)
    phases = list(all_phases)
    if not phases:
        raise ValidationError("batch_oracle needs at least one phase")
    column: dict[int, int] = {}
    for ph in phases:
        for cid in ph.class_ids:
            column.setdefault(cid, len(column))
    d = None  # the first phase's expanded width; every phase must match it
    for ph in phases:
        f = ph.expanded_rows(d)
        if d is None:
            d = f.shape[1]
            a_sum, c_sum = np.zeros((d, d)), np.zeros((d, len(column)))
        a_sum += f.T @ f
        cols = [column[cid] for cid in ph.class_ids]
        onehot = np.equal.outer(ph.labels, ph.class_ids).astype(np.float64)
        c_sum[:, cols] += f.T @ onehot
    return spd_solve(a_sum + eta * np.eye(d), c_sum)


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

