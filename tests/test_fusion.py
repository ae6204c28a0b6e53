"""Fusion layer tests.

Core claims:
    - forward pass matches a loop-based independent reimplementation
    - attention rows are a softmax (sum to 1, strictly positive)
    - analytic gradients agree with central finite differences entrywise
    - plain gradient descent learns a separable toy problem and reports
      divergence with the failing epoch
    - checkpoints round-trip exactly and replace their file atomically
"""

import math
import os

import numpy as np
import pytest

from recridge import fmat, fusion
from recridge.errors import DivergenceError, ParseError, ShapeError, ValidationError


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _random_setup(seed, d=4, classes=3, k=6):
    gen = _rng(seed)
    params = fusion.fusion_init(d, classes, seed=seed)
    f_p = gen.standard_normal((k, d))
    f_m = gen.standard_normal((k, d))
    labels = np.zeros((k, classes))
    labels[np.arange(k), gen.integers(0, classes, size=k)] = 1.0
    return params, f_p, f_m, labels


def _forward_reference(params, f_p, f_m):
    # independent scalar-loop reimplementation of the forward pass
    k, d = f_p.shape
    classes = params.classifier_w.shape[1]
    logits = np.zeros((k, classes))
    for i in range(k):
        sp = [math.tanh(sum(f_p[i, a] * params.w_p[a, j] for a in range(d))) for j in range(d)]
        sm = [math.tanh(sum(f_m[i, a] * params.w_m[a, j] for a in range(d))) for j in range(d)]
        prod = [sp[j] * sm[j] for j in range(d)]
        mx = max(prod)
        exps = [math.exp(p - mx) for p in prod]
        total = sum(exps)
        w_spa = [e / total for e in exps]
        fused = list(f_p[i]) + [w_spa[j] * f_m[i, j] for j in range(d)]
        for c in range(classes):
            logits[i, c] = (
                sum(fused[a] * params.classifier_w[a, c] for a in range(2 * d))
                + params.classifier_b[0, c]
            )
    return logits


# -- forward ------------------------------------------------------------------


def test_forward_zero_params_uniform_attention():
    d, k = 4, 3
    params = fusion.FusionParams(
        np.zeros((d, d)), np.zeros((d, d)), np.zeros((2 * d, 2)), np.zeros((1, 2))
    )
    f_p = _rng(0).standard_normal((k, d))
    f_m = _rng(1).standard_normal((k, d))
    batch = fusion.fusion_forward(params, f_p, f_m)
    assert np.array_equal(batch.w_spa, np.full((k, d), 1.0 / d))
    assert np.allclose(batch.f_m_prime, f_m / d)


def test_forward_zero_mesh_features():
    params, f_p, _, _ = _random_setup(2)
    d = params.feature_dim
    batch = fusion.fusion_forward(params, f_p, np.zeros_like(f_p))
    assert np.array_equal(batch.score_m, np.zeros_like(f_p))
    assert np.array_equal(batch.w_spa, np.full(f_p.shape, 1.0 / d))
    assert np.array_equal(batch.f_m_prime, np.zeros_like(f_p))


def test_forward_matches_reference_implementation():
    params, f_p, f_m, _ = _random_setup(3, d=4, classes=3, k=3)
    batch = fusion.fusion_forward(params, f_p, f_m)
    assert np.allclose(batch.logits, _forward_reference(params, f_p, f_m), rtol=1e-12, atol=1e-12)


def test_forward_shape_mismatch():
    params, f_p, f_m, _ = _random_setup(4)
    with pytest.raises(ShapeError):
        fusion.fusion_forward(params, f_p[:, :2], f_m[:, :2])
    with pytest.raises(ShapeError):
        fusion.fusion_forward(params, f_p[:3], f_m)


@pytest.mark.parametrize("seed", range(4))
def test_attention_rows_sum_to_one(seed):
    params, f_p, f_m, _ = _random_setup(seed, d=5, k=8)
    batch = fusion.fusion_forward(params, f_p, f_m)
    assert np.abs(batch.w_spa.sum(axis=1) - 1.0).max() <= 1e-10
    assert (batch.w_spa > 0.0).all()


def test_scores_strictly_inside_unit_interval():
    params, f_p, f_m, _ = _random_setup(5)
    batch = fusion.fusion_forward(params, f_p, f_m)
    assert (np.abs(batch.score_p) < 1.0).all()
    assert (np.abs(batch.score_m) < 1.0).all()
    # float64 tanh rounds to exactly +-1 once saturated; the bound stays closed
    extreme = fusion.fusion_forward(params, 100.0 * f_p, 100.0 * f_m)
    assert (np.abs(extreme.score_p) <= 1.0).all()


def test_forward_permutation_equivariant():
    params, f_p, f_m, _ = _random_setup(6, k=7)
    perm = _rng(7).permutation(7)
    direct = fusion.fusion_forward(params, f_p[perm], f_m[perm])
    base = fusion.fusion_forward(params, f_p, f_m)
    for field in ("score_p", "score_m", "w_spa", "f_m_prime", "concat", "logits"):
        assert np.array_equal(getattr(direct, field), getattr(base, field)[perm])


def test_concat_layout():
    params, f_p, f_m, _ = _random_setup(8)
    batch = fusion.fusion_forward(params, f_p, f_m)
    d = params.feature_dim
    assert np.array_equal(batch.concat[:, :d], f_p)
    assert np.array_equal(batch.concat[:, d:], batch.f_m_prime)


# -- gradients ----------------------------------------------------------------


def test_backward_zero_learning_signal():
    # uniform soft labels equal the softmax of zero logits exactly
    d, k, classes = 3, 5, 4
    params = fusion.FusionParams(
        np.zeros((d, d)), np.zeros((d, d)), np.zeros((2 * d, classes)), np.zeros((1, classes))
    )
    f_p = _rng(9).standard_normal((k, d))
    f_m = _rng(10).standard_normal((k, d))
    batch = fusion.fusion_forward(params, f_p, f_m)
    labels = np.full((k, classes), 1.0 / classes)
    grads = fusion.fusion_backward(params, batch, labels)
    assert np.array_equal(grads.classifier_b, np.zeros((1, classes)))
    assert np.array_equal(grads.classifier_w, np.zeros((2 * d, classes)))


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    params, f_p, f_m, labels = _random_setup(20 + seed, d=4, classes=3, k=5)
    assert fusion.gradient_check(params, f_p, f_m, labels, step=1e-5) <= 1e-4


def test_loss_decreases_over_descent_steps():
    params, f_p, f_m, labels = _random_setup(30, d=4, classes=2, k=12)
    before = fusion.cross_entropy(fusion.fusion_forward(params, f_p, f_m).logits, labels)
    trained = fusion.fusion_train(params, (f_p, f_m, labels), lr=fusion.DEFAULT_LEARNING_RATE, epochs=50)
    after = fusion.cross_entropy(fusion.fusion_forward(trained, f_p, f_m).logits, labels)
    assert after < before


# -- training -----------------------------------------------------------------


def _separable_toy(seed=0, per_class=20, d=4, sep=3.0):
    gen = _rng(seed)
    mu = np.zeros(d)
    mu[0] = sep
    f_p = np.vstack(
        [mu + gen.standard_normal((per_class, d)), -mu + gen.standard_normal((per_class, d))]
    )
    f_m = np.vstack(
        [mu + gen.standard_normal((per_class, d)), -mu + gen.standard_normal((per_class, d))]
    )
    labels = np.zeros((2 * per_class, 2))
    labels[:per_class, 0] = 1.0
    labels[per_class:, 1] = 1.0
    return f_p, f_m, labels


def test_train_zero_epochs_is_identity():
    params, f_p, f_m, labels = _random_setup(31)
    out = fusion.fusion_train(params, (f_p, f_m, labels), epochs=0)
    assert np.array_equal(out.w_p, params.w_p)
    assert np.array_equal(out.classifier_w, params.classifier_w)


def test_default_learning_rate_wiring():
    assert fusion.DEFAULT_LEARNING_RATE == 4e-3


def test_train_reaches_95_percent_on_toy():
    f_p, f_m, labels = _separable_toy()
    params = fusion.fusion_init(4, 2, seed=1)
    trained = fusion.fusion_train(params, (f_p, f_m, labels), epochs=500)
    preds = np.argmax(fusion.fusion_forward(trained, f_p, f_m).logits, axis=1)
    accuracy = float(np.mean(preds == np.argmax(labels, axis=1)))
    assert accuracy >= 0.95


def test_train_is_deterministic():
    f_p, f_m, labels = _separable_toy(seed=3)
    a = fusion.fusion_train(fusion.fusion_init(4, 2, seed=2), (f_p, f_m, labels), epochs=40)
    b = fusion.fusion_train(fusion.fusion_init(4, 2, seed=2), (f_p, f_m, labels), epochs=40)
    assert np.array_equal(a.w_p, b.w_p)
    assert np.array_equal(a.classifier_w, b.classifier_w)


def test_train_divergence_reports_epoch():
    params, f_p, f_m, labels = _random_setup(32)
    with pytest.raises(DivergenceError) as info:
        fusion.fusion_train(params, (f_p, f_m, labels), lr=1e308, epochs=10)
    assert info.value.epoch >= 1


def test_train_rejects_bad_hyperparameters():
    params, f_p, f_m, labels = _random_setup(33)
    with pytest.raises(ValidationError):
        fusion.fusion_train(params, (f_p, f_m, labels), lr=0.0)
    with pytest.raises(ValidationError):
        fusion.fusion_train(params, (f_p, f_m, labels), epochs=-1)


# -- frozen feature extraction --------------------------------------------------


def test_fused_features_equals_concat():
    params, f_p, f_m, _ = _random_setup(34)
    batch = fusion.fusion_forward(params, f_p, f_m)
    assert np.array_equal(fusion.fused_features(params, f_p, f_m), batch.concat)


def test_fused_features_width_and_purity():
    params, f_p, f_m, _ = _random_setup(35, d=6)
    out1 = fusion.fused_features(params, f_p, f_m)
    out2 = fusion.fused_features(params, f_p, f_m)
    assert out1.shape == (f_p.shape[0], 12)
    assert np.array_equal(out1, out2)


# -- checkpoints ----------------------------------------------------------------


def test_fusion_checkpoint_roundtrip(tmp_path):
    params, _, _, _ = _random_setup(36, d=5, classes=4)
    path = tmp_path / "backbone.fuse"
    fusion.save_fusion(params, path)
    loaded = fusion.load_fusion(path)
    assert np.array_equal(loaded.w_p, params.w_p)
    assert np.array_equal(loaded.w_m, params.w_m)
    assert np.array_equal(loaded.classifier_w, params.classifier_w)
    assert np.array_equal(loaded.classifier_b, params.classifier_b)
    header = path.read_text().splitlines()[0]
    assert header == "FUSE v1 d=5 classes=4"


def test_fusion_checkpoint_rejects_corrupt(tmp_path):
    path = tmp_path / "bad.fuse"
    path.write_text("FUSE v9 x=1\n")
    with pytest.raises(ParseError):
        fusion.load_fusion(path)


def test_failed_fusion_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "backbone.fuse"
    fusion.save_fusion(_random_setup(40, d=5, classes=4)[0], path)
    before = path.read_bytes()
    write_block = fmat.write_matrix_block
    calls = []

    def fail_third(fh, m):
        # the header and two of the four blocks are written first
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        write_block(fh, m)

    monkeypatch.setattr(fmat, "write_matrix_block", fail_third)
    with pytest.raises(OSError, match="disk full"):
        fusion.save_fusion(_random_setup(41, d=5, classes=4)[0], path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["backbone.fuse"]
