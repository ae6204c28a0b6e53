"""Attention-weighted fusion of two feature modalities with a linear head.

One modality guides the re-weighting of the other: both feature blocks are
projected and squashed through tanh, their element-wise product is
normalized row-wise with a softmax to form an attention map, and the map
re-weights the second modality before the two blocks are concatenated for
classification. All shapes are (K, d) per modality, giving a (K, 2d) fused
representation.

For class-incremental use the parameters are a seeded, frozen backbone and
only ``fused_features`` is consumed downstream. ``fusion_backward`` gives
the analytic gradients of the classifier's cross-entropy, and
``gradient_check`` audits them against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dense_linalg import Matrix, as_matrix
from .errors import ShapeError, ValidationError
from .random_projection import seeded_generator


@dataclass(frozen=True)
class FusionParams:
    """Learnable blocks: two modality projections and the affine classifier."""

    w_p: Matrix
    w_m: Matrix
    classifier_w: Matrix
    classifier_b: Matrix

    def __post_init__(self):
        w_p = as_matrix(self.w_p, "w_p")
        w_m = as_matrix(self.w_m, "w_m")
        cw = as_matrix(self.classifier_w, "classifier_w")
        cb = as_matrix(self.classifier_b, "classifier_b")
        d = w_p.shape[0]
        if w_p.shape != (d, d) or w_m.shape != (d, d):
            raise ShapeError(f"projections must be square and equal-sized: {w_p.shape}, {w_m.shape}")
        if cw.shape[0] != 2 * d:
            raise ShapeError(f"classifier_w must have {2 * d} rows, got {cw.shape[0]}")
        if cb.shape != (1, cw.shape[1]):
            raise ShapeError(f"classifier_b must be 1x{cw.shape[1]}, got {cb.shape}")
        object.__setattr__(self, "w_p", w_p)
        object.__setattr__(self, "w_m", w_m)
        object.__setattr__(self, "classifier_w", cw)
        object.__setattr__(self, "classifier_b", cb)

    @property
    def feature_dim(self) -> int:
        return self.w_p.shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier_w.shape[1]


@dataclass(frozen=True)
class FusedBatch:
    """Forward-pass record for K samples; every field has K rows.

    ``w_spa`` rows are softmax outputs and sum to one. ``concat`` is the
    column-wise concatenation of the first modality and the re-weighted
    second modality.
    """

    f_p: Matrix
    f_m: Matrix
    score_p: Matrix
    score_m: Matrix
    w_spa: Matrix
    f_m_prime: Matrix
    concat: Matrix
    logits: Matrix


@dataclass(frozen=True)
class FusionGradients:
    w_p: Matrix
    w_m: Matrix
    classifier_w: Matrix
    classifier_b: Matrix


def fusion_init(d: int, classes: int, seed: int = 0) -> FusionParams:
    """Seeded Gaussian initialization, fan-in scaled."""
    if d < 1 or classes < 1:
        raise ValidationError(f"dims must be >= 1, got d={d}, classes={classes}")
    gen = seeded_generator(seed)
    return FusionParams(
        w_p=gen.standard_normal((d, d)) / np.sqrt(d),
        w_m=gen.standard_normal((d, d)) / np.sqrt(d),
        classifier_w=gen.standard_normal((2 * d, classes)) / np.sqrt(2 * d),
        classifier_b=gen.standard_normal((1, classes)),
    )


def _softmax_rows(z: Matrix) -> Matrix:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _check_modalities(params: FusionParams, f_p, f_m) -> tuple[Matrix, Matrix]:
    f_p = as_matrix(f_p, "f_p")
    f_m = as_matrix(f_m, "f_m")
    if f_p.shape != f_m.shape:
        raise ShapeError(f"modalities must have equal shape, got {f_p.shape} vs {f_m.shape}")
    if f_p.shape[1] != params.feature_dim:
        raise ShapeError(
            f"features have width {f_p.shape[1]}, params expect {params.feature_dim}"
        )
    return f_p, f_m


def fusion_forward(params: FusionParams, f_p, f_m) -> FusedBatch:
    """Score both modalities, build the attention map, re-weight and classify.

    The attention map is the row-wise softmax (over the feature axis) of
    the Hadamard product of the two tanh score blocks; it re-weights the
    second modality element-wise.
    """
    f_p, f_m = _check_modalities(params, f_p, f_m)
    score_p = np.tanh(f_p @ params.w_p)
    score_m = np.tanh(f_m @ params.w_m)
    w_spa = _softmax_rows(score_m * score_p)
    f_m_prime = w_spa * f_m
    concat = np.hstack([f_p, f_m_prime])
    logits = concat @ params.classifier_w + params.classifier_b
    if not np.isfinite(logits).all():
        raise ValidationError("fusion_forward produced non-finite logits")
    return FusedBatch(
        f_p=f_p,
        f_m=f_m,
        score_p=score_p,
        score_m=score_m,
        w_spa=w_spa,
        f_m_prime=f_m_prime,
        concat=concat,
        logits=logits,
    )


def _check_labels(labels, batch_rows: int, classes: int) -> Matrix:
    y = as_matrix(labels, "labels")
    if y.shape != (batch_rows, classes):
        raise ShapeError(f"labels must be {batch_rows}x{classes}, got {y.shape}")
    if y.size and ((y < 0).any() or np.abs(y.sum(axis=1) - 1.0).max() > 1e-9):
        raise ValidationError("label rows must be non-negative and sum to 1")
    return y


def cross_entropy(logits, labels) -> float:
    """Mean softmax cross-entropy; labels are one-hot (or a distribution)."""
    z = as_matrix(logits, "logits")
    y = _check_labels(labels, z.shape[0], z.shape[1])
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-(y * log_probs).sum() / z.shape[0])


def fusion_backward(params: FusionParams, batch: FusedBatch, labels) -> FusionGradients:
    """Analytic gradients of the mean cross-entropy for all four parameter blocks."""
    y = _check_labels(labels, batch.logits.shape[0], params.num_classes)
    k = batch.logits.shape[0]
    d = params.feature_dim
    g_logits = (_softmax_rows(batch.logits) - y) / k
    g_cw = batch.concat.T @ g_logits
    g_cb = g_logits.sum(axis=0, keepdims=True)
    g_concat = g_logits @ params.classifier_w.T
    g_fmp = g_concat[:, d:]
    g_wspa = g_fmp * batch.f_m
    # Row-wise softmax Jacobian applied to the upstream gradient.
    g_z = batch.w_spa * (g_wspa - (g_wspa * batch.w_spa).sum(axis=1, keepdims=True))
    g_score_p = g_z * batch.score_m
    g_score_m = g_z * batch.score_p
    g_pre_p = g_score_p * (1.0 - batch.score_p**2)
    g_pre_m = g_score_m * (1.0 - batch.score_m**2)
    return FusionGradients(
        w_p=batch.f_p.T @ g_pre_p,
        w_m=batch.f_m.T @ g_pre_m,
        classifier_w=g_cw,
        classifier_b=g_cb,
    )


def fused_features(params: FusionParams, f_p, f_m) -> Matrix:
    """Concatenated representation with params treated as frozen."""
    return fusion_forward(params, f_p, f_m).concat


def gradient_check(params: FusionParams, f_p, f_m, labels, step: float = 1e-5) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    The denominator is floored at 1e-3 so that entries where both gradients
    are essentially zero do not divide rounding noise by itself. A batch
    without rows or a step that is not positive and finite is rejected:
    either would read as a pass.
    """
    f_p, f_m = _check_modalities(params, f_p, f_m)
    if not f_p.shape[0]:
        raise ValidationError("gradient check needs at least one row")
    if not (np.isfinite(step) and step > 0.0):
        raise ValidationError(f"step must be positive and finite, got {step}")
    batch = fusion_forward(params, f_p, f_m)
    analytic = fusion_backward(params, batch, labels)

    def loss_at(p: FusionParams) -> float:
        return cross_entropy(fusion_forward(p, f_p, f_m).logits, labels)

    blocks = ("w_p", "w_m", "classifier_w", "classifier_b")
    worst = 0.0
    for name in blocks:
        base = getattr(params, name)
        grad = getattr(analytic, name)
        numeric = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            bumped = base.copy()
            bumped[idx] = base[idx] + step
            hi = loss_at(replace(params, **{name: bumped}))
            bumped[idx] = base[idx] - step
            lo = loss_at(replace(params, **{name: bumped}))
            numeric[idx] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-3)
        worst = max(worst, float((np.abs(grad - numeric) / denom).max()))
    return worst
