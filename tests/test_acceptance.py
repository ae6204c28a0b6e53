"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with their measured margins. Criteria:

    1. recursive updates equal the joint closed-form fit (both paths)
    2. phase order does not change the final weights
    3. r stays consistent with the accumulated Gram matrix and SPD
    4. the downdate identities hold to 1e-9
    5. fusion gradients match finite differences to 1e-4
    6. the recursive pipeline matches joint training while the naive
       baseline forgets
    7. metrics reproduce hand values; result files round-trip stored values
    8. runs are byte-deterministic and state size ignores sample counts
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from recridge import cil_harness as ch
from recridge import fusion, rilm
from recridge.dense_linalg import cholesky_lower

from oracles import kn_identity_check, random_phase_problem, recursive_states

W_TOL = 1e-8
R_TOL = 1e-8
KN_TOL = 1e-9
GRAD_TOL = 1e-4

ETAS = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class _Run:
    d_rp: int
    eta: float
    phases: list
    states: dict  # path -> list of per-phase states
    errors: dict  # path -> relative weight error vs the joint fit


@pytest.fixture(scope="module")
def equivalence_runs():
    """Twenty random configurations driven through both update paths."""
    rng = np.random.Generator(np.random.PCG64(20240501))
    runs = []
    for i in range(20):
        d_rp = int(rng.integers(64, 257))
        n_phases = int(rng.integers(2, 11))
        eta = float(ETAS[int(rng.integers(0, len(ETAS)))])
        phases = random_phase_problem(
            seed=7000 + i, n_phases=n_phases, d_rp=d_rp, samples_range=(50, 200)
        )
        reference = rilm.batch_oracle(phases, eta)
        denom = np.linalg.norm(reference)
        states = {}
        errors = {}
        for path in ("woodbury", "direct"):
            trail = recursive_states(phases, eta, path)
            states[path] = trail
            errors[path] = float(np.linalg.norm(trail[-1].weights - reference) / denom)
        runs.append(_Run(d_rp=d_rp, eta=eta, phases=phases, states=states, errors=errors))
    return runs


def test_criterion_1_recursive_vs_joint_equivalence(equivalence_runs):
    worst = 0.0
    for run in equivalence_runs:
        for path in ("woodbury", "direct"):
            assert run.errors[path] <= W_TOL, (
                f"d_rp={run.d_rp} eta={run.eta} path={path}: {run.errors[path]:.3e}"
            )
            worst = max(worst, run.errors[path])
    print(
        f"\n[criterion 1] recursive-vs-joint equivalence: PASS "
        f"(20 configs, both paths, worst rel err {worst:.2e} <= {W_TOL:.0e})"
    )


def test_criterion_2_phase_order_invariance():
    worst = 0.0
    for problem in range(10):
        phases = random_phase_problem(
            seed=8100 + problem,
            n_phases=4,
            d_rp=24,
            samples_range=(10, 30),
            classes_per_phase_range=(2, 3),
        )
        aligned = {}
        for order in itertools.permutations(range(4)):
            final = recursive_states([phases[i] for i in order], eta=1.0)[-1]
            cols = np.argsort(np.asarray(final.class_ids))
            aligned[order] = final.weights[:, cols]
        baseline = aligned[(0, 1, 2, 3)]
        denom = np.linalg.norm(baseline)
        for order, weights in aligned.items():
            err = float(np.linalg.norm(weights - baseline) / denom)
            assert err <= W_TOL, f"problem {problem} order {order}: {err:.3e}"
            worst = max(worst, err)
    print(
        f"\n[criterion 2] phase-order invariance: PASS "
        f"(10 problems x 24 orders, worst rel err {worst:.2e} <= {W_TOL:.0e})"
    )


def test_criterion_3_r_consistency_and_spd(equivalence_runs):
    worst = 0.0
    checked = 0
    for run in equivalence_runs:
        eye = np.eye(run.d_rp)
        for path in ("woodbury", "direct"):
            a_sum = np.zeros((run.d_rp, run.d_rp))
            for phase, state in zip(run.phases, run.states[path]):
                a_sum += phase.features.T @ phase.features
                residual = np.linalg.norm(state.r @ (a_sum + run.eta * eye) - eye)
                bound = R_TOL * np.sqrt(run.d_rp)
                assert residual <= bound, f"d_rp={run.d_rp} path={path}: {residual:.3e}"
                cholesky_lower(state.r)  # SPD: factorization must succeed
                worst = max(worst, residual / np.sqrt(run.d_rp))
                checked += 1
    print(
        f"\n[criterion 3] r consistency + SPD: PASS "
        f"({checked} updates, worst scaled residual {worst:.2e} <= {R_TOL:.0e})"
    )


def test_criterion_4_downdate_identities():
    worst = 0.0
    for i in range(10):
        gen = np.random.Generator(np.random.PCG64(8200 + i))
        d = int(gen.integers(8, 40))
        n = int(gen.integers(1, 30))
        g = gen.standard_normal((d + 5, d))
        r_prev = np.linalg.inv(g.T @ g + np.eye(d))
        f = gen.standard_normal((n, d))
        residual = kn_identity_check(r_prev, f)
        assert residual <= KN_TOL, f"instance {i}: {residual:.3e}"
        worst = max(worst, residual)
    print(
        f"\n[criterion 4] downdate identities: PASS "
        f"(10 instances, worst residual {worst:.2e} <= {KN_TOL:.0e})"
    )


def test_criterion_5_fusion_gradient_check():
    worst = 0.0
    for i in range(10):
        gen = np.random.Generator(np.random.PCG64(8300 + i))
        d = int(gen.integers(3, 7))
        classes = int(gen.integers(2, 5))
        k = int(gen.integers(4, 10))
        params = fusion.fusion_init(d, classes, seed=8300 + i)
        f_p = gen.standard_normal((k, d))
        f_m = gen.standard_normal((k, d))
        labels = np.zeros((k, classes))
        labels[np.arange(k), gen.integers(0, classes, size=k)] = 1.0
        err = fusion.gradient_check(params, f_p, f_m, labels, step=1e-5)
        assert err <= GRAD_TOL, f"point {i}: {err:.3e}"
        worst = max(worst, err)
    print(
        f"\n[criterion 5] fusion gradient check: PASS "
        f"(10 points, all four blocks, worst rel err {worst:.2e} <= {GRAD_TOL:.0e})"
    )


def _forgetting_config(tmp_path, name="forget.cfg"):
    path = tmp_path / name
    path.write_text(
        "pipeline = repoint\nschedule = 6/3\nsynth_classes = 6\n"
        "synth_per_class = 60\nsynth_test_per_class = 40\nsynth_dim = 16\n"
        "synth_separation = 10.0\nsynth_seed = 7\n"
    )
    return ch.load_config(path)


def test_criterion_6_forgetting_demonstration(tmp_path):
    config = _forgetting_config(tmp_path)
    ex = ch.prepare_experiment(config)
    recursive_report, final_state = ch.run_phases(ex)
    phases = [ch.phase_dataset(ex, k) for k in range(ex.schedule.num_phases)]
    joint_state = rilm.RilmState(
        weights=rilm.batch_oracle(phases, config.eta),
        r=np.eye(ex.layer.output_dim),
        eta=config.eta,
        phase=0,
        class_ids=tuple(c for ids in ex.schedule.phases for c in ids),
    )
    ours = rilm.predict_ids(final_state, ex.test_features)
    joint = rilm.predict_ids(joint_state, ex.test_features)
    agreement = float(np.mean(ours == joint))
    assert agreement >= 0.999, f"agreement {agreement:.4f}"

    naive_report = ch.run_pipeline(config, naive=True)
    margin = naive_report.retention_drop - recursive_report.retention_drop
    # margin frozen from calibration runs (observed ~66.7 points)
    assert margin >= 30.0, f"margin {margin:.2f}"
    print(
        f"\n[criterion 6] forgetting demonstration: PASS "
        f"(joint agreement {100 * agreement:.2f}% >= 99.9%, naive drop "
        f"{naive_report.retention_drop:.2f} vs recursive "
        f"{recursive_report.retention_drop:.2f}, margin {margin:.2f} >= 30)"
    )


def test_criterion_7_metrics_golden(tmp_path):
    report = ch.compute_metrics([100.0, 50.0])
    assert report.avg_incremental_acc == 75.0
    assert report.retention_drop == 50.0

    golden = tmp_path / "golden.txt"
    lines = [f"phase={i} seen_classes={4 * (i + 1)} acc=96.51" for i in range(10)]
    lines.append("A=96.51 R=7.65")
    golden.write_text("\n".join(lines) + "\n")
    parsed, seen = ch.load_result(golden)
    assert parsed.avg_incremental_acc == 96.51
    assert parsed.retention_drop == 7.65
    assert seen[-1] == 40
    print(
        "\n[criterion 7] metrics golden tests: PASS "
        "([100,50] -> A=75 R=50 exact; stored A=96.51 R=7.65 round-trips)"
    )


def test_criterion_8_determinism_and_exemplar_free(tmp_path):
    # byte-identical reruns
    blobs = []
    for name in ("runa", "runb"):
        sub = tmp_path / name
        sub.mkdir()
        out = sub / "res.txt"
        cfg_path = sub / "exp.cfg"
        cfg_path.write_text(
            "pipeline = repoint\nschedule = 6/3\nsynth_classes = 6\n"
            "synth_per_class = 40\nsynth_test_per_class = 20\nsynth_dim = 12\n"
            f"synth_separation = 10.0\nsynth_seed = 13\nout = {out}\n"
        )
        ch.run_pipeline(ch.load_config(cfg_path))
        blobs.append((out.read_bytes(), (sub / "res.csv").read_bytes()))
    assert blobs[0] == blobs[1]

    # checkpoint size depends on (d_rp, classes) only, not sample counts
    sizes = []
    for per_class in (30, 120):
        cfg_path = tmp_path / f"size{per_class}.cfg"
        cfg_path.write_text(
            "pipeline = repoint\nschedule = 6/3\nsynth_classes = 6\n"
            f"synth_per_class = {per_class}\nsynth_test_per_class = 10\n"
            "synth_dim = 12\nsynth_separation = 10.0\nsynth_seed = 13\n"
        )
        ex = ch.prepare_experiment(ch.load_config(cfg_path))
        _, state = ch.run_phases(ex)
        ck = tmp_path / f"state{per_class}.rilm"
        rilm.save_state(state, ck)
        sizes.append(ck.stat().st_size)
    assert sizes[0] == sizes[1]
    print(
        f"\n[criterion 8] determinism + exemplar-free audit: PASS "
        f"(reruns byte-identical; checkpoint {sizes[0]} bytes for both "
        f"30 and 120 samples per class)"
    )
