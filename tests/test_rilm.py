"""Recursive learner tests.

Core claims:
    - a phase's labels are one class id per row, each among its class ids
    - the first phase, one update from the empty state, matches an
      independently solved normal equation
    - recursive updates reproduce the joint closed-form fit for any split
      (both update paths), and phase order does not matter
    - r stays symmetric positive definite and consistent with the
      separately accumulated Gram matrix; it is exactly symmetric after
      every update, even over hundreds of ReLU-projected phases
    - an update registers the phase's new class ids in phase order with
      zero weight columns, next to classes the state holds; an empty phase
      changes nothing else; states never grow with sample count; the
      joint-fit reference fits a class that trains in several phases
    - duplicated, rank-1 and all-zero ReLU rows keep both paths on the
      joint fit; on ``recridge gen`` data, stepping the weights by the
      factored gain, Woodbury holds 1e-8 at eta 1e-4 and direct at eta 1e-6
      on all seeds but two named ones
    - the Woodbury downdate is exactly symmetric at every 128-row panel
      edge and, updating ``r`` in place, holds no d x d temporary
    - an update into ``out=state.r`` equals the out-of-place one bit for
      bit; any other ``out``, or a read-only ``state.r``, is rejected
    - a phase expanded on demand is expanded one Woodbury block at a time
      and updates as the phase of its expanded rows does; its width is
      checked even when it has no rows
    - the state constructor rejects an asymmetric r without a d x d
      temporary, and an update, registering or not, scans its new r once
    - prediction uses the global id table with lowest-id tie-breaking and
      scores rows in blocks, never holding the full score matrix
    - checkpoints round-trip exactly
"""

import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import dense_linalg, fmat, random_projection, rilm
from recridge.dense_linalg import cholesky_lower
from recridge.errors import ParseError, ProtocolError, ShapeError, ValidationError

from oracles import (
    gen_experiment,
    kn_identity_check,
    random_phase_problem,
    recursive_states,
    recursive_vs_batch_error,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _onehot(phase):
    # the phase's rows of the label matrix y, one column per phase class
    return np.equal.outer(phase.labels, phase.class_ids).astype(np.float64)


def _random_phase(gen, n, class_ids, d):
    ids = tuple(class_ids)
    return rilm.PhaseDataset(
        features=gen.standard_normal((n, d)),
        labels=np.asarray(ids)[gen.integers(0, len(ids), size=n)],
        class_ids=ids,
    )


def _phase_of(f):
    # rows all of class 0, for checks of r, which no label moves
    return rilm.PhaseDataset(f, np.zeros(len(f), dtype=np.int64), (0,))


def _stacked_ridge(phases, eta):
    # third implementation path: one augmented least-squares problem solved
    # by SVD, fully independent of the package's factorizations; expanded
    # phases take part as the phases of their expanded rows
    # classes in order of first appearance; a class may train in several phases
    table = list(dict.fromkeys(c for ph in phases for c in ph.class_ids))
    col = {c: j for j, c in enumerate(table)}
    f = np.vstack([ph.expanded_rows(None) for ph in phases])
    d = f.shape[1]
    labels = np.concatenate([ph.labels for ph in phases])
    y = np.zeros((f.shape[0], len(table)))
    y[np.arange(len(labels)), [col[int(c)] for c in labels]] = 1.0
    aug_a = np.vstack([f, np.sqrt(eta) * np.eye(d)])
    aug_b = np.vstack([y, np.zeros((d, len(table)))])
    return np.linalg.lstsq(aug_a, aug_b, rcond=None)[0]


def _first_fit(phase, eta, path="auto"):
    # a first phase: its classes registered on the empty state, then one update
    return recursive_states([phase], eta, path)[0]


# -- phase dataset validation -------------------------------------------------


def test_phase_dataset_rejects_soft_labels():
    # labels are integer class ids, not weights or floats that look like ids
    for labels in ([0.5], [1.0], [True]):
        with pytest.raises(ValidationError):
            rilm.PhaseDataset(np.ones((1, 2)), np.array(labels), (0, 1))


def test_phase_dataset_rejects_misshapen_labels():
    # one id per row: too few, too many, a column, a one-hot matrix, a scalar
    for labels in ([0, 1], [0, 1, 1, 0], [[0], [1], [1]], np.eye(3, 2, dtype=int), 0):
        with pytest.raises(ShapeError):
            rilm.PhaseDataset(np.ones((3, 4)), np.array(labels), (0, 1))


def test_phase_dataset_rejects_unsorted_ids():
    for ids in ((3, 2), (2, 2)):
        with pytest.raises(ProtocolError):
            rilm.PhaseDataset(np.ones((1, 2)), np.array([2]), ids)


def test_phase_dataset_rejects_rows_without_labels():
    # a row whose id is not among class_ids has no class of the phase; with
    # no class ids at all, no row has one
    for labels, ids in (([0, 0, 0], ()), ([0, 2, 1], (0, 1)), ([-1, 0, 1], (0, 1))):
        with pytest.raises(ValidationError):
            rilm.PhaseDataset(np.ones((3, 4)), np.array(labels), ids)


# -- initial fit --------------------------------------------------------------


def test_init_identity_example():
    state = _first_fit(rilm.PhaseDataset(np.eye(2), [0, 1], (0, 1)), eta=1.0)
    assert np.allclose(state.weights, 0.5 * np.eye(2))
    assert np.allclose(state.r, 0.5 * np.eye(2))
    assert state.phase == 1 and state.class_ids == (0, 1)


def test_init_small_eta_limit():
    # diagonal least squares: eta -> 0 recovers Y / F on the diagonal
    phase = rilm.PhaseDataset(np.diag([1.0, 2.0]), [0, 1], (0, 1))
    state = _first_fit(phase, eta=1e-12)
    assert np.allclose(state.weights, np.diag([1.0, 0.5]), atol=1e-9)


def test_init_matches_normal_equations_oracle():
    gen = _rng(1)
    phase = _random_phase(gen, 40, range(3), d=16)
    state = _first_fit(phase, eta=0.5)
    f, y = phase.features, _onehot(phase)
    expected = np.linalg.solve(f.T @ f + 0.5 * np.eye(16), f.T @ y)
    assert np.linalg.norm(state.weights - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("relu", [False, True], ids=["gaussian", "relu"])
@pytest.mark.parametrize("eta", [1.0, 1e-2, 1e-4])
@pytest.mark.parametrize(
    "n, path", [(50, "woodbury"), (300, "direct"), (300, "woodbury"), (400, "direct")]
)
def test_init_paths_match_normal_equations_oracle(n, path, eta, relu):
    # phase 0 is an update from the empty state, and auto takes Woodbury at
    # these eta whatever the row count: n = 50, 300 and 400 at d = 192
    d = 192
    phase = _random_phase(_rng(1), n, range(3), d=d)
    if relu:
        phase = rilm.PhaseDataset(np.maximum(phase.features, 0.0), phase.labels, (0, 1, 2))
    state = _first_fit(phase, eta)
    forced = _first_fit(phase, eta, path)
    routed = forced if path == "woodbury" else _first_fit(phase, eta, "woodbury")
    assert np.array_equal(state.weights, routed.weights)
    assert np.array_equal(state.r, routed.r)
    f, y = phase.features, _onehot(phase)
    expected = np.linalg.solve(f.T @ f + eta * np.eye(d), f.T @ y)
    for fitted in (state, forced):
        assert np.linalg.norm(fitted.weights - expected) <= 1e-8 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, routed", [(50, "woodbury"), (300, "direct")])
def test_auto_keeps_tall_phases_direct_below_tested_eta(n, routed):
    # at eta = 1e-6 Woodbury is about 1e-7 off on a phase of n >= d rows, so
    # auto takes the direct path there; shorter phases stay on Woodbury
    d, eta = 192, 1e-6
    phase = _random_phase(_rng(1), n, range(3), d=d)
    phase = rilm.PhaseDataset(np.maximum(phase.features, 0.0), phase.labels, (0, 1, 2))
    fresh = rilm.empty_state(d, eta)
    auto, forced = rilm.rilm_update(fresh, phase), rilm.rilm_update(fresh, phase, path=routed)
    assert np.array_equal(auto.weights, forced.weights)
    assert np.array_equal(auto.r, forced.r)
    if n >= d:
        f, y = phase.features, _onehot(phase)
        expected = np.linalg.solve(f.T @ f + eta * np.eye(d), f.T @ y)
        assert np.linalg.norm(auto.weights - expected) <= 1e-8 * np.linalg.norm(expected)


def test_init_rejects_bad_eta():
    phase = rilm.PhaseDataset(np.eye(2), [0, 1], (0, 1))
    for eta in (0.0, -1.0, np.nan):
        with pytest.raises(ValidationError):
            _first_fit(phase, eta)


def test_init_empty_phase_gives_fresh_state():
    phase = rilm.PhaseDataset(np.zeros((0, 4)), [], ())
    state = _first_fit(phase, eta=2.0)
    assert np.allclose(state.r, np.eye(4) / 2.0)
    assert state.weights.shape == (4, 0)
    fresh = rilm.empty_state(4, eta=2.0)
    assert np.allclose(fresh.r, state.r)


# -- class registration -------------------------------------------------------


def test_empty_phase_registers_new_ids_in_phase_order():
    # ids 1 and 3 are new, 2 is held: the new ones follow the held ones
    state = _first_fit(rilm.PhaseDataset(np.eye(2), [2, 4], (2, 4)), 1.0)
    empty = rilm.PhaseDataset(np.zeros((0, 2)), [], (1, 2, 3))
    for path in rilm.UPDATE_PATHS:
        grown = rilm.rilm_update(state, empty, path=path)
        assert grown.class_ids == (2, 4, 1, 3)
        assert np.array_equal(grown.weights, np.hstack([state.weights, np.zeros((2, 2))]))
        assert np.array_equal(grown.r, state.r)


def test_empty_phase_of_held_ids_registers_none():
    state = _first_fit(rilm.PhaseDataset(np.eye(2), [2, 4], (2, 4)), 1.0)
    empty = rilm.PhaseDataset(np.zeros((0, 2)), [], (4,))
    for path in rilm.UPDATE_PATHS:
        out = rilm.rilm_update(state, empty, path=path)
        assert out.class_ids == state.class_ids
        assert np.array_equal(out.weights, state.weights)
        assert np.array_equal(out.r, state.r)


# -- state construction -------------------------------------------------------


@pytest.mark.parametrize("d, entry", [(8, (0, 1)), (200, (4, 196))], ids=["full", "strided"])
def test_state_rejects_asymmetric_r(d, entry):
    # at d = 200 the constructor compares r[::4, ::4] with its transpose
    r = np.eye(d)
    r[entry] += 1e-13
    with pytest.raises(ValidationError):
        rilm.RilmState(np.zeros((d, 1)), r, 1.0, 0, (0,))


def test_state_construction_makes_no_d_by_d_temporary():
    # at d = 1536 a float64 copy of r is 18.9 MB and a boolean mask 2.4 MB
    d = 1536
    g = _rng(15).standard_normal((d, d))
    r = g + g.T
    weights = np.zeros((d, 4))
    tracemalloc.start()
    try:
        rilm.RilmState(weights, r, 1.0, 0, (0, 1, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _spd_state(d, seed):
    g = _rng(seed).standard_normal((d, d)) / np.sqrt(d)
    r = g @ g.T + np.eye(d)
    r = np.triu(r) + np.triu(r, 1).T
    return rilm.RilmState(np.zeros((d, 2)), r, 1.0, 1, (0, 1))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_direct_update_holds_four_d_by_d_arrays():
    # d = 768, n = 1000: the Gram term a, the [Lᵀ | …] buffer that becomes
    # [V | …], the factor K and r_new; the rows' product with the factor
    # is freed before K is formed
    d = 768
    state = _spd_state(d, seed=17)
    phase = _phase_of(_rng(18).standard_normal((1000, d)))
    peak = _peak_bytes(rilm.rilm_update, state, phase, "direct")
    assert peak < 4.2 * state.r.nbytes


def test_woodbury_update_holds_no_third_d_by_d_array():
    # d = 768, n = 1000: six blocks of at most 192 rows; updating r in
    # place, one block's m x d products and one 128 x d panel, no d x d array
    # (0.71 d x d; 0.96 when a block's products lived into the next block)
    d = 768
    state = _spd_state(d, seed=17)
    phase = _phase_of(_rng(18).standard_normal((1000, d)))
    peak = _peak_bytes(rilm.rilm_update, state, phase, "woodbury", state.r)
    assert peak < 0.85 * state.r.nbytes


def test_load_state_makes_no_d_by_d_temporary(tmp_path, monkeypatch):
    # d = 768: once the file is read, its text stays until the blocks are
    # parsed, then r and its Cholesky factor; r is checked for symmetry in
    # panels and, saved exactly symmetric, not copied
    d = 768
    state = _spd_state(d, seed=19)
    path = tmp_path / "state.rilm"
    rilm.save_state(state, path)
    open_cursor = fmat.open_cursor

    def opened(p):
        cursor = open_cursor(p)
        tracemalloc.reset_peak()
        return cursor

    monkeypatch.setattr(fmat, "open_cursor", opened)
    peak = _peak_bytes(rilm.load_state, path)
    assert peak < path.stat().st_size + 1.5 * state.r.nbytes


def _finite_scans(monkeypatch):
    # shapes of the arrays dense_linalg scans for non-finite entries
    shapes = []
    scan = dense_linalg._all_finite

    def spy(m):
        shapes.append(m.shape)
        return scan(m)

    monkeypatch.setattr(dense_linalg, "_all_finite", spy)
    return shapes


def test_derived_states_do_not_rescan_r(monkeypatch):
    d = 24
    phase = _random_phase(_rng(16), 10, (0, 1), d=d)
    shapes = _finite_scans(monkeypatch)
    state = _first_fit(phase, eta=1.0)
    # empty_state's I/eta and rilm_update's new r
    assert shapes.count((d, d)) == 2
    shapes.clear()
    # an update that registers classes scans its new r once, and no more
    grown = rilm.rilm_update(state, _random_phase(_rng(17), 10, (1, 2, 3), d=d))
    assert shapes.count((d, d)) == 1
    assert grown.class_ids == (0, 1, 2, 3)


# -- memory update ------------------------------------------------------------


def test_update_r_scalar_case():
    state = rilm.RilmState(np.zeros((1, 1)), np.array([[1.0]]), 1.0, 0, (0,))
    for path in ("woodbury", "direct"):
        out = rilm.rilm_update(state, _phase_of(np.array([[1.0]])), path=path)
        assert np.allclose(out.r, [[0.5]])


def test_update_r_empty_phase_keeps_r():
    state = rilm.empty_state(5, eta=0.7)
    for path in ("woodbury", "direct"):
        out = rilm.rilm_update(state, rilm.PhaseDataset(np.zeros((0, 5)), [], ()), path=path)
        assert np.array_equal(out.r, state.r)


@pytest.mark.parametrize("seed", range(4))
def test_update_r_matches_inverse_oracle(seed):
    gen = _rng(seed)
    state = _first_fit(_random_phase(gen, 30, range(2), d=12), eta=1.0)
    f = gen.standard_normal((8, 12))
    expected = np.linalg.inv(np.linalg.inv(state.r) + f.T @ f)
    for path in ("woodbury", "direct"):
        out = rilm.rilm_update(state, _phase_of(f), path=path).r
        assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)


def test_update_r_paths_agree():
    gen = _rng(7)
    state = _first_fit(_random_phase(gen, 50, range(3), d=20), eta=0.3)
    phase = _phase_of(gen.standard_normal((35, 20)))
    wood = rilm.rilm_update(state, phase, path="woodbury").r
    direct = rilm.rilm_update(state, phase, path="direct").r
    assert np.linalg.norm(wood - direct) <= 1e-9 * np.linalg.norm(direct)
    assert np.array_equal(wood, wood.T) and np.array_equal(direct, direct.T)


@pytest.mark.parametrize("eta", [1.0, 1e-4])
@pytest.mark.parametrize("n", [48, 49, 383, 384])
def test_blocked_woodbury_at_block_boundaries(n, eta):
    # at d = 192 Woodbury takes blocks of d // 4 = 48 rows: 48 rows are one
    # block, 49 are two, 383 end on a partial block and 384 on a full one;
    # at these eta auto takes Woodbury at every height
    d_in, d = 16, 192
    gen = _rng(60 + n)
    layer = random_projection.rp_new(d_in, d, seed=60, activation="relu")

    def relu_phase(rows, ids):
        f = random_projection.rp_forward(layer, gen.standard_normal((rows, d_in)))
        picks = gen.integers(0, len(ids), size=rows)
        return rilm.PhaseDataset(f, np.asarray(ids)[picks], ids)

    first, second = relu_phase(30, (0, 1)), relu_phase(n, (2, 3, 4))
    state = _first_fit(first, eta=eta)
    r_before = state.r.copy()
    reference = rilm.batch_oracle([first, second], eta)
    out = {}
    for path in ("woodbury", "direct", "auto"):
        out[path] = rilm.rilm_update(state, second, path=path)
        assert np.array_equal(state.r, r_before)
        assert np.array_equal(out[path].r, out[path].r.T)
        err = np.linalg.norm(out[path].weights - reference)
        assert err <= 1e-8 * np.linalg.norm(reference)
    assert np.array_equal(out["auto"].weights, out["woodbury"].weights)
    assert np.array_equal(out["auto"].r, out["woodbury"].r)


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("rows", ["one_row", "one_block", "several_blocks"])
@pytest.mark.parametrize("d", [127, 128, 129, 300])
def test_woodbury_downdate_panel_edges(d, rows, in_place):
    # the downdate works in 128-row panels: d = 127 is one partial panel,
    # 128 one full one, 129 ends on a one-row panel and 300 on a partial
    # one; later Woodbury blocks update the result in place
    block = d // 4
    n = {"one_row": 1, "one_block": block, "several_blocks": 3 * block + 5}[rows]
    state = _spd_state(d, seed=d)
    f = _rng(d + n).standard_normal((n, d)) / np.sqrt(d)
    r_before = state.r.copy()
    if in_place:
        copy = dataclasses.replace(state, r=r_before.copy())
        result = rilm.rilm_update(copy, _phase_of(f), path="woodbury", out=copy.r).r
        assert result is copy.r
    else:
        result = rilm.rilm_update(state, _phase_of(f), path="woodbury").r
    assert np.array_equal(state.r, r_before)
    assert np.array_equal(result, result.T)
    expected = state.r
    for start in range(0, n, block):
        fb = f[start : start + block]
        g = fb @ expected
        v = dense_linalg.spd_half_solve_into(g @ fb.T + np.eye(fb.shape[0]), g.copy())
        expected = expected - np.matmul(v.T, v)
    assert np.linalg.norm(result - expected) <= 1e-12 * np.linalg.norm(expected)


def test_update_r_rejects_bad_out():
    # only a writable state.r may receive the update
    state = rilm.empty_state(4, class_ids=(0,))
    read_only = rilm.empty_state(4, class_ids=(0,))
    read_only.r.setflags(write=False)
    for st, out in ((state, np.empty((4, 4))), (state, np.empty((4, 3))),
                    (read_only, read_only.r)):
        with pytest.raises(ShapeError):
            rilm.rilm_update(st, _phase_of(np.ones((2, 4))), out=out)
    assert np.array_equal(read_only.r, np.eye(4))


def test_update_r_rejects_out_overlapping_r():
    # only state.r itself may be updated in place; a view of it, reversed
    # or whole, or an array that overlaps it in part is rejected unwritten
    buf = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
    state = rilm.RilmState(np.zeros((4, 1)), buf[:16].reshape(4, 4), 1.0, 0, (0,))
    before = buf.copy()
    for out in (state.r[:, ::-1], state.r[:], buf[4:20].reshape(4, 4)):
        for path in rilm.UPDATE_PATHS:
            with pytest.raises(ShapeError):
                rilm.rilm_update(state, _phase_of(np.ones((2, 4))), path=path, out=out)
    assert np.array_equal(buf, before)


@pytest.mark.parametrize("path", ["woodbury", "direct"])
@pytest.mark.parametrize(
    "d, n", [(40, 0), (40, 10), (40, 35), (200, 130)],
    ids=["empty", "one_block", "several_blocks", "d_not_panel_multiple"],
)
def test_update_r_in_place_matches_out_of_place(path, d, n):
    state = _spd_state(d, seed=21)
    phase = _random_phase(_rng(22), n, (0, 1), d)
    expected = rilm.rilm_update(state, phase, path)
    result = rilm.rilm_update(state, phase, path, out=state.r)
    assert result.r is state.r and result.weights is state.weights
    assert np.array_equal(state.r, expected.r)
    assert np.array_equal(state.weights, expected.weights)


@pytest.mark.parametrize("path", rilm.UPDATE_PATHS)
def test_expanded_phase_matches_phase_of_its_rows(path):
    # d 40, Woodbury blocks of 10 rows: the 35 rows are expanded as
    # 10, 10, 10 and 5 rows, each block just before its update, or whole on
    # the direct path; the expansion acts on each entry, so bits match
    gen = _rng(31)
    x = gen.standard_normal((35, 20))
    labels = gen.integers(0, 2, size=35)
    sizes = []

    def expand(rows):
        sizes.append(rows.shape[0])
        return np.hstack([np.tanh(rows), rows])

    lazy = rilm.PhaseDataset(x, labels, (0, 1), expand=expand)
    whole = rilm.PhaseDataset(np.hstack([np.tanh(x), x]), labels, (0, 1))
    state = rilm.empty_state(40, 0.5, (0, 1))
    got = rilm.rilm_update(state, lazy, path=path)
    expected = rilm.rilm_update(state, whole, path=path)
    assert sizes == ([35] if path == "direct" else [10, 10, 10, 5])
    assert np.array_equal(got.weights, expected.weights)
    assert np.array_equal(got.r, expected.r)


def test_expanded_phase_checks_its_width():
    # rows of width 2 expand to width 4, which a state of width 3 does not
    # take; a phase without rows, which expands no block, is checked too
    for n in (3, 0):
        lazy = rilm.PhaseDataset(
            np.ones((n, 2)), [0] * n, (0,), expand=lambda x: np.hstack([x, x])
        )
        for path in rilm.UPDATE_PATHS:
            with pytest.raises(ShapeError):
                rilm.rilm_update(rilm.empty_state(3, class_ids=(0,)), lazy, path=path)


def test_batch_oracle_fits_expanded_phases_of_one_width():
    # the joint fit takes its width from the first phase's expanded rows and
    # fits an expanded phase as the phase of its rows; a phase expanding to
    # another width is rejected
    gen = _rng(33)
    x = gen.standard_normal((12, 3))

    def expand(rows):
        return np.hstack([rows, rows**2])

    lazy = rilm.PhaseDataset(x, [0] * 6 + [1] * 6, (0, 1), expand=expand)
    whole = rilm.PhaseDataset(expand(x), lazy.labels, (0, 1))
    assert np.array_equal(rilm.batch_oracle([lazy], 0.5), rilm.batch_oracle([whole], 0.5))
    other = rilm.PhaseDataset(np.ones((2, 6)), [2, 2], (2,))
    assert rilm.batch_oracle([lazy, other], 0.5).shape == (6, 3)
    narrow = rilm.PhaseDataset(np.ones((2, 3)), [2, 2], (2,))
    for phases in ([lazy, narrow], [narrow, lazy]):
        with pytest.raises(ShapeError):
            rilm.batch_oracle(phases, 0.5)


def test_update_r_rejects_bad_width_and_path():
    state = rilm.empty_state(4, class_ids=(0,))
    with pytest.raises(ShapeError):
        rilm.rilm_update(state, _phase_of(np.ones((2, 3))))
    with pytest.raises(ValidationError):
        rilm.rilm_update(state, _phase_of(np.ones((2, 4))), path="fast")


# -- phase update -------------------------------------------------------------


def test_update_empty_phase_is_identity_map():
    gen = _rng(2)
    state = _first_fit(_random_phase(gen, 20, range(2), d=8), eta=1.0)
    empty = rilm.PhaseDataset(np.zeros((0, 8)), [], (0, 1))
    out = rilm.rilm_update(state, empty)
    assert np.array_equal(out.weights, state.weights)
    assert np.array_equal(out.r, state.r)
    assert out.phase == state.phase + 1


def test_update_registers_new_class_next_to_known():
    # the second phase trains class 1, which the first registered, and
    # class 2, which it registers: the joint fit of both phases
    gen = _rng(3)
    first = _random_phase(gen, 20, range(2), d=8)
    second = _random_phase(gen, 12, (1, 2), d=8)
    reference = rilm.batch_oracle([first, second], 1.0)
    for path in ("woodbury", "direct"):
        state = rilm.rilm_update(_first_fit(first, 1.0, path), second, path=path)
        assert state.class_ids == (0, 1, 2)
        err = np.linalg.norm(state.weights - reference)
        assert err <= 1e-8 * np.linalg.norm(reference)


def test_two_phase_split_matches_batch_oracle():
    gen = _rng(4)
    joint = _random_phase(gen, 60, range(3), d=10)
    half = 30
    first = rilm.PhaseDataset(joint.features[:half], joint.labels[:half], (0, 1, 2))
    second = rilm.PhaseDataset(joint.features[half:], joint.labels[half:], (0, 1, 2))
    state = _first_fit(first, eta=1.0)
    state = rilm.rilm_update(state, second)
    reference = _first_fit(joint, eta=1.0)
    err = np.linalg.norm(state.weights - reference.weights)
    assert err <= 1e-8 * np.linalg.norm(reference.weights)


@pytest.mark.parametrize("path", ["woodbury", "direct"])
@pytest.mark.parametrize("seed", range(3))
def test_joint_equivalence_random_partitions(seed, path):
    phases = random_phase_problem(
        seed=seed, n_phases=4, d_rp=24, samples_range=(10, 40)
    )
    assert recursive_vs_batch_error(phases, eta=1.0, path=path) <= 1e-8


def test_sub_batched_phase_matches_single_update():
    # splitting one phase into two consecutive updates keeps equivalence
    gen = _rng(5)
    first = _random_phase(gen, 25, range(2), d=8)
    second = _random_phase(gen, 40, (2, 3), d=8)
    state = _first_fit(first, eta=1.0)
    sub_a = rilm.PhaseDataset(second.features[:18], second.labels[:18], (2, 3))
    sub_b = rilm.PhaseDataset(second.features[18:], second.labels[18:], (2, 3))
    state = rilm.rilm_update(state, sub_a)
    state = rilm.rilm_update(state, sub_b)
    reference = rilm.batch_oracle([first, second], eta=1.0)
    assert np.linalg.norm(state.weights - reference) <= 1e-8 * np.linalg.norm(reference)


def test_phase_order_invariance_small():
    phases = random_phase_problem(
        seed=11, n_phases=3, d_rp=16, samples_range=(8, 20), classes_per_phase_range=(2, 3)
    )
    results = {}
    for order in itertools.permutations(range(3)):
        final = recursive_states([phases[i] for i in order], eta=1.0)[-1]
        aligned = final.weights[:, np.argsort(np.asarray(final.class_ids))]
        results[order] = aligned
    baseline = results[(0, 1, 2)]
    for aligned in results.values():
        assert np.linalg.norm(aligned - baseline) <= 1e-8 * np.linalg.norm(baseline)


@pytest.mark.parametrize("seed", range(3))
def test_r_consistency_and_spd_preservation(seed):
    eta = 0.5
    phases = random_phase_problem(seed=40 + seed, n_phases=4, d_rp=20)
    states = recursive_states(phases, eta=eta)
    d = 20
    a_sum = np.zeros((d, d))
    for ph, state in zip(phases, states):
        a_sum += ph.features.T @ ph.features
        residual = state.r @ (a_sum + eta * np.eye(d)) - np.eye(d)
        assert np.linalg.norm(residual) <= 1e-8 * np.sqrt(d)
        assert np.abs(state.r - state.r.T).max() <= 1e-8
        cholesky_lower(state.r)  # factorization success == positive definite


@pytest.mark.parametrize("eta", [1.0, 1e-4])
def test_many_relu_phases_keep_r_exactly_symmetric(tmp_path, eta):
    # 300 single-class phases of low-rank ReLU-projected features: round-off
    # must neither break r's symmetry nor pull the weights off the joint fit
    d_in, d = 16, 192
    gen = _rng(90)
    layer = random_projection.rp_new(d_in, d, seed=90, activation="relu")
    phases = []
    for k in range(300):
        x = gen.standard_normal((10, d_in)) + gen.standard_normal(d_in)
        f = random_projection.rp_forward(layer, x)
        phases.append(rilm.PhaseDataset(f, np.full(10, k), (k,)))
    state = rilm.empty_state(d, eta)
    for ph in phases:
        state = rilm.rilm_update(state, ph, path="woodbury")
        assert np.array_equal(state.r, state.r.T)
    reference = rilm.batch_oracle(phases, eta)
    assert np.linalg.norm(state.weights - reference) <= 1e-8 * np.linalg.norm(reference)
    path = tmp_path / "state.rilm"
    rilm.save_state(state, path)
    loaded = rilm.load_state(path)
    assert np.array_equal(loaded.weights, state.weights)
    assert np.array_equal(loaded.r, state.r)


# -- degenerate rows ----------------------------------------------------------


def _degenerate_phases(case, gen, d):
    if case == "duplicates":
        # 20 distinct rows repeated within each phase and across phases
        base = gen.standard_normal((20, d))
        f0 = base[gen.integers(0, 20, size=90)]
        f1 = np.vstack([f0[:30], base[gen.integers(0, 20, size=60)]])
        feats = [f0, f1, np.vstack([f1[:20], f0[:20], f0[:20]])]
    elif case == "rank_one":
        # each phase's rows are multiples of one unit direction, phase 2
        # reusing phase 0's; at N(0, 1) scale one direction would carry
        # ||F||² ~ 1e4 and batch_oracle itself would be 5e-8 off the SVD
        # ridge solution at eta = 1e-4
        u = gen.standard_normal((2, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        feats = [np.outer(gen.standard_normal(n), u[k % 2]) for k, n in enumerate((70, 50, 90))]
    else:
        # a non-negative layer maps non-positive inputs to all-zero ReLU
        # rows; phase 1 holds nothing else
        w = np.abs(gen.standard_normal((8, d)))
        layer = random_projection.RpLayer(w, "relu", seed=None, input_dim=8, output_dim=d)

        def rows(n, zero):
            x = gen.standard_normal((n, 8))
            picked = gen.permutation(n)[:zero]
            x[picked] = -np.abs(x[picked])
            return random_projection.rp_forward(layer, x)

        feats = [rows(80, 30), rows(40, 40), rows(90, 45)]
    phases = []
    for k, f in enumerate(feats):
        labels = 2 * k + gen.integers(0, 2, size=len(f))
        phases.append(rilm.PhaseDataset(f, labels, (2 * k, 2 * k + 1)))
    return phases


@pytest.mark.parametrize("eta", [1.0, 1e-4])
@pytest.mark.parametrize("case", ["duplicates", "rank_one", "relu_zero"])
def test_degenerate_rows_keep_joint_fit(case, eta):
    # d = 96 gives Woodbury blocks of 24 rows, so every phase spans several
    d = 96
    phases = _degenerate_phases(case, _rng(95), d)
    if case == "relu_zero":
        assert not phases[1].features.any()
    reference = rilm.batch_oracle(phases, eta)
    for path in ("woodbury", "direct"):
        final = recursive_states(phases, eta, path)[-1]
        assert np.array_equal(final.r, final.r.T)
        err = np.linalg.norm(final.weights - reference)
        assert err <= 1e-8 * np.linalg.norm(reference), (path, err / np.linalg.norm(reference))


@pytest.mark.parametrize("seed", range(4))
def test_clustered_relu_phases_keep_joint_fit(seed):
    # eight phases of 60 ReLU rows around one offset each; Woodbury solves
    # two blocks per phase. Applying the whole inverse factor, inv(L) @ g,
    # put three of these four seeds above 1e-8 at eta = 1e-4
    d_in, d, eta = 16, 192, 1e-4
    gen = _rng(seed)
    layer = random_projection.rp_new(d_in, d, seed=seed, activation="relu")
    phases = []
    for k in range(8):
        x = gen.standard_normal((60, d_in)) + gen.standard_normal(d_in)
        f = random_projection.rp_forward(layer, x)
        labels = 2 * k + gen.integers(0, 2, size=60)
        phases.append(rilm.PhaseDataset(f, labels, (2 * k, 2 * k + 1)))
    for path in ("woodbury", "direct"):
        assert recursive_vs_batch_error(phases, eta, path) <= 1e-8


@pytest.mark.parametrize("mult", [12, 14])
def test_woodbury_holds_joint_fit_on_gen_data(mult):
    # ``recridge gen --dim 6`` data (separation 10) at eta 1e-4, three
    # phases of 80 rows: stepping the weights by r_new fᵀ(y − f w) after
    # the downdate put them 3.8e-8 (mult 12) and 7.0e-8 (mult 14) off the
    # joint fit, median of these seeds; the block gain step holds 1e-8
    errs = {}
    for seed in range(20):
        ex = gen_experiment(seed, 1e-4, mult)
        phases = [ch.phase_dataset(ex, k) for k in range(3)]
        errs[seed] = recursive_vs_batch_error(phases, 1e-4, "woodbury")
    bad = {seed: f"{err:.2g}" for seed, err in errs.items() if err > 1e-8}
    assert not bad, f"seeds over 1e-8: {bad}"


# ROADMAP item 5's cells: seeds whose direct-path weights miss 1e-8 at eta
# 1e-6 (9.4e-8 and 2.7e-8), each bounded here at about twice its error
_DIRECT_GEN_OUTLIERS = {0: 2e-7, 4: 6e-8}


def test_direct_holds_joint_fit_on_gen_data():
    # ``recridge gen --dim 6`` data at eta 1e-6, mult 12, three phases of
    # 80 rows against the least-squares fit of [F; √eta I]: stepping by
    # r_new fᵀ(y − f w) put every seed 7.2e-8 to 1.8e-6 off; the factored
    # gain step holds 1e-8 but on the outlier seeds
    errs = {}
    for seed in range(10):
        ex = gen_experiment(seed, 1e-6, 12)
        phases = [ch.phase_dataset(ex, k) for k in range(3)]
        weights = recursive_states(phases, 1e-6, "direct")[-1].weights
        expected = _stacked_ridge(phases, 1e-6)
        errs[seed] = np.linalg.norm(weights - expected) / np.linalg.norm(expected)
    bad = {
        seed: f"{err:.2g}"
        for seed, err in errs.items()
        if err > _DIRECT_GEN_OUTLIERS.get(seed, 1e-8)
    }
    assert not bad, f"seeds over their bound: {bad}"


# -- batch oracle -------------------------------------------------------------


def test_batch_oracle_single_phase_matches_init():
    gen = _rng(6)
    phase = _random_phase(gen, 30, range(3), d=9)
    assert np.allclose(
        rilm.batch_oracle([phase], eta=1.0),
        _first_fit(phase, eta=1.0).weights,
        rtol=1e-12,
        atol=1e-12,
    )


def test_batch_oracle_no_label_mass_gives_zero_weights():
    phase = rilm.PhaseDataset(np.zeros((0, 5)), [], (0, 1))
    assert np.array_equal(rilm.batch_oracle([phase], eta=1.0), np.zeros((5, 2)))


def test_batch_oracle_matches_stacked_ridge():
    phases = random_phase_problem(seed=13, n_phases=4, d_rp=12, samples_range=(8, 25))
    ours = rilm.batch_oracle(phases, eta=0.7)
    theirs = _stacked_ridge(phases, eta=0.7)
    assert np.linalg.norm(ours - theirs) <= 1e-8 * np.linalg.norm(theirs)


def test_batch_oracle_fits_a_class_split_over_two_phases():
    # class 1 trains in both phases: one column, ids by first appearance
    gen = _rng(8)
    a = _random_phase(gen, 9, (0, 1), d=4)
    b = _random_phase(gen, 7, (1, 2), d=4)
    ours = rilm.batch_oracle([b, a], eta=1.0)
    theirs = _stacked_ridge([b, a], eta=1.0)
    assert ours.shape == (4, 3)
    assert np.linalg.norm(ours - theirs) <= 1e-8 * np.linalg.norm(theirs)


# -- prediction ---------------------------------------------------------------


def test_predict_argmax():
    state = rilm.RilmState(np.eye(2), np.eye(2), 1.0, 0, (0, 1))
    assert rilm.predict_ids(state, np.array([[3.0, 1.0]])).tolist() == [0]


def test_predict_zero_weights_tie_breaks_low():
    state = rilm.RilmState(np.zeros((3, 2)), np.eye(3), 1.0, 0, (0, 1))
    assert rilm.predict_ids(state, np.ones((4, 3))).tolist() == [0, 0, 0, 0]


def test_predict_tie_break_uses_global_ids_not_columns():
    # registration order (4, 5, 0): a three-way tie must yield id 0
    state = rilm.RilmState(np.zeros((2, 3)), np.eye(2), 1.0, 0, (4, 5, 0))
    assert rilm.predict_ids(state, np.ones((1, 2))).tolist() == [0]


def test_predict_matches_score_argmax_oracle():
    gen = _rng(9)
    weights = gen.standard_normal((6, 4))
    state = rilm.RilmState(weights, np.eye(6), 1.0, 0, (0, 1, 2, 3))
    f = gen.standard_normal((20, 6))
    expected = [int(np.argmax(f[i] @ weights)) for i in range(20)]
    predicted = rilm.predict_ids(state, f)
    assert predicted.tolist() == expected
    assert predicted.dtype == np.int64


_BLOCK = rilm._PREDICT_BLOCK_ROWS


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_blocked_predict_matches_full_score_argmax(n):
    gen = _rng(n)
    ids = (5, 2, 9, 0, 3, 8, 1)
    weights = gen.standard_normal((24, len(ids)))
    state = rilm.RilmState(weights, np.eye(24), 1.0, 0, ids)
    f = gen.standard_normal((n, 24))
    order = np.argsort(ids)
    expected = np.asarray(ids)[order][np.argmax(f @ weights[:, order], axis=1)]
    predicted = rilm.predict_ids(state, f)
    assert predicted.dtype == np.int64
    assert np.array_equal(predicted, expected)


def test_predict_memory_stays_below_full_scores():
    # 16 blocks of rows against 64 classes: the full score matrix would be
    # 8 MiB, far above the per-block scores and the 16 x narrower finiteness
    # mask of the input
    n, d, c = 16 * _BLOCK, 8, 64
    gen = _rng(12)
    state = rilm.RilmState(gen.standard_normal((d, c)), np.eye(d), 1.0, 0, tuple(range(c)))
    f = gen.standard_normal((n, d))
    tracemalloc.start()
    try:
        predicted = rilm.predict_ids(state, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert predicted.shape == (n,)
    assert peak < n * c * 8


def test_predict_empty_rows():
    state = rilm.RilmState(np.zeros((3, 2)), np.eye(3), 1.0, 0, (0, 1))
    assert rilm.predict_ids(state, np.ones((0, 3))).tolist() == []


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_predict_ids_rejects_non_finite_rows(bad):
    state = rilm.RilmState(np.eye(3, 2), np.eye(3), 1.0, 0, (0, 1))
    f = np.ones((4, 3))
    f[2, 1] = bad
    with pytest.raises(ValidationError):
        rilm.predict_ids(state, f)


def test_predict_requires_classes():
    with pytest.raises(ProtocolError):
        rilm.predict_ids(rilm.empty_state(3), np.ones((1, 3)))


def test_predict_rejects_bad_width():
    state = rilm.RilmState(np.zeros((3, 2)), np.eye(3), 1.0, 0, (0, 1))
    with pytest.raises(ShapeError):
        rilm.predict_ids(state, np.ones((1, 4)))


# -- downdate identities ------------------------------------------------------


def test_kn_identity_scalar_exact():
    assert kn_identity_check(np.array([[1.0]]), np.array([[1.0]])) <= 1e-14


def test_kn_identity_empty_is_zero():
    assert kn_identity_check(np.eye(4), np.zeros((0, 4))) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_kn_identity_random(seed):
    gen = _rng(70 + seed)
    g = gen.standard_normal((12, 10))
    r = np.linalg.inv(g.T @ g + np.eye(10))
    f = gen.standard_normal((7, 10))
    assert kn_identity_check(r, f) <= 1e-9


# -- state size and checkpoints ----------------------------------------------


def _train_state(per_phase, seed):
    gen = _rng(seed)
    first = _random_phase(gen, per_phase, range(2), d=10)
    second = _random_phase(gen, per_phase, (2, 3), d=10)
    return rilm.rilm_update(_first_fit(first, eta=1.0), second)


def test_checkpoint_roundtrip_exact(tmp_path):
    state = _train_state(30, seed=21)
    path = tmp_path / "state.rilm"
    rilm.save_state(state, path)
    loaded = rilm.load_state(path)
    assert np.array_equal(loaded.weights, state.weights)
    assert np.array_equal(loaded.r, state.r)
    assert loaded.class_ids == state.class_ids
    assert loaded.eta == state.eta and loaded.phase == state.phase


def test_checkpoint_header_format(tmp_path):
    state = _train_state(10, seed=22)
    path = tmp_path / "state.rilm"
    rilm.save_state(state, path)
    header = path.read_text().splitlines()[0]
    assert header == f"RILM v1 d_rp=10 classes=4 eta={state.eta!r} phase={state.phase}"


def test_checkpoint_size_independent_of_sample_count(tmp_path):
    # exemplar-free contract: serialized size is a function of (d_rp, classes)
    small = tmp_path / "small.rilm"
    large = tmp_path / "large.rilm"
    rilm.save_state(_train_state(12, seed=23), small)
    rilm.save_state(_train_state(480, seed=24), large)
    assert small.stat().st_size == large.stat().st_size


def test_checkpoint_rejects_corrupt_header(tmp_path):
    path = tmp_path / "bad.rilm"
    path.write_text("RILM v2 nope\n")
    with pytest.raises(ParseError):
        rilm.load_state(path)


def test_checkpoint_rejects_truncated_file(tmp_path):
    state = _train_state(10, seed=25)
    path = tmp_path / "state.rilm"
    rilm.save_state(state, path)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:3]) + "\n")
    with pytest.raises(ParseError):
        rilm.load_state(path)


def _corrupt_r(path, transform):
    # rewrite the r block (the second FMAT block) of a saved checkpoint
    lines = path.read_text().splitlines()
    start = [i for i, line in enumerate(lines) if line.startswith("FMAT")][1] + 1
    d = len(lines[start].split())
    r = np.array([[float(v) for v in line.split()] for line in lines[start : start + d]])
    block = io.StringIO()
    fmat.write_matrix_block(block, transform(r))
    lines[start : start + d] = block.getvalue().splitlines()[1:]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "transform",
    [
        lambda r: r + np.triu(np.full_like(r, 1e-3), 1),  # asymmetric
        lambda r: -r,  # symmetric, negative definite
    ],
    ids=["asymmetric", "not_pd"],
)
def test_checkpoint_rejects_corrupt_memory(tmp_path, transform):
    path = tmp_path / "state.rilm"
    rilm.save_state(_train_state(10, seed=26), path)
    rilm.load_state(path)
    _corrupt_r(path, transform)
    with pytest.raises(ParseError) as info:
        rilm.load_state(path)
    assert info.value.lineno == 13  # FMAT header of r: after 1 + (1 + 10) lines


def test_checkpoint_rejects_negative_phase(tmp_path):
    path = tmp_path / "state.rilm"
    rilm.save_state(_train_state(10, seed=27), path)
    text = path.read_text()
    path.write_text(text.replace(" phase=2\n", " phase=-1\n", 1))
    with pytest.raises(ParseError) as info:
        rilm.load_state(path)
    assert info.value.lineno == 1


@pytest.mark.parametrize("eta", ["nan", "inf", "0", "-1"])
def test_checkpoint_rejects_bad_eta(tmp_path, eta):
    path = tmp_path / "state.rilm"
    state = _train_state(10, seed=28)
    rilm.save_state(state, path)
    text = path.read_text()
    path.write_text(text.replace(f" eta={state.eta!r} ", f" eta={eta} ", 1))
    with pytest.raises(ParseError) as info:
        rilm.load_state(path)
    assert info.value.lineno == 1


def test_checkpoint_load_makes_r_exactly_symmetric(tmp_path):
    # asymmetry within SYMMETRY_RTOL is accepted, and loading removes it
    path = tmp_path / "state.rilm"
    state = _train_state(10, seed=29)
    rilm.save_state(state, path)
    skewed = state.r + np.triu(np.full_like(state.r, 1e-12), 1)
    _corrupt_r(path, lambda r: skewed)
    loaded = rilm.load_state(path)
    assert np.array_equal(loaded.r, 0.5 * (skewed + skewed.T))
    assert np.array_equal(loaded.r, loaded.r.T)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "state.rilm"
    rilm.save_state(_train_state(10, seed=30), path)
    before = path.read_bytes()

    def fail(fh, ids):
        raise OSError("disk full")

    # weights and r are written before the label block fails
    monkeypatch.setattr(fmat, "write_labels_block", fail)
    with pytest.raises(OSError, match="disk full"):
        rilm.save_state(_train_state(10, seed=31), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.rilm"]
