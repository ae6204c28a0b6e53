"""Frozen random feature expansion.

A projection layer is a fixed random matrix followed by an element-wise
nonlinearity. Weights are drawn once, i.i.d. Normal(0, 1/d) where d is the
input width, from numpy's PCG64 generator seeded with the layer seed; the
same (seed, d, d_rp, activation) always reconstructs bit-identical weights.
The 1/d variance keeps pre-activation magnitudes O(1) regardless of input
width. No bias term is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense_linalg import Matrix, _all_finite, as_matrix
from .errors import ShapeError, ValidationError

ACTIVATIONS = ("relu", "tanh", "identity")


def seeded_generator(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator of ``seed`` and optional ``stream`` words, for every seeded
    draw; without ``stream`` it draws what ``PCG64(seed)`` draws."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class RpLayer:
    """Immutable projection layer: weights, activation kind and provenance seed.

    Construction checks that ``w_rp`` is a finite ``input_dim`` x
    ``output_dim`` matrix (ValidationError, ShapeError) and that
    ``activation`` is one of ``ACTIVATIONS`` (ValidationError).
    """

    w_rp: Matrix
    activation: str
    seed: int
    input_dim: int
    output_dim: int

    def __post_init__(self):
        w = as_matrix(self.w_rp, "w_rp")
        if w.shape != (self.input_dim, self.output_dim):
            raise ShapeError(
                f"w_rp has shape {w.shape}, expected ({self.input_dim}, {self.output_dim})"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )
        object.__setattr__(self, "w_rp", w)


def rp_new(d: int, d_rp: int, seed: int, activation: str = "relu") -> RpLayer:
    """Create a frozen projection layer with seeded Gaussian weights."""
    if d < 1 or d_rp < 1:
        raise ValidationError(f"projection dims must be >= 1, got d={d}, d_rp={d_rp}")
    w = seeded_generator(seed).standard_normal((d, d_rp)) / np.sqrt(float(d))
    return RpLayer(w_rp=w, activation=activation, seed=int(seed), input_dim=d, output_dim=d_rp)


def rp_forward(layer: RpLayer, features) -> Matrix:
    """Project and activate: rows stay rows, width becomes layer.output_dim."""
    f = as_matrix(features, "features")
    if f.shape[1] != layer.input_dim:
        raise ShapeError(
            f"rp_forward: features have width {f.shape[1]}, layer expects {layer.input_dim}"
        )
    # An overflow is reported here as a ValidationError, not as a warning,
    # and before an activation could map it to a finite value (tanh(inf)).
    with np.errstate(over="ignore", invalid="ignore"):
        out = f @ layer.w_rp
    if not _all_finite(out):
        raise ValidationError("rp_forward produced non-finite entries")
    # The pre-activation is a fresh array, so it is activated in place.
    if layer.activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif layer.activation == "tanh":
        np.tanh(out, out=out)
    return np.ascontiguousarray(out)
