"""Projection layer tests.

Core claims:
    - seeded construction is bit-reproducible
    - forward pass matches a naive recomputation and is pure
    - relu outputs are non-negative, widths always equal output_dim
    - the weight distribution has the advertised zero mean
    - an overflowing projection is a ValidationError, whatever the activation
"""

import warnings

import numpy as np
import pytest

from recridge.errors import ShapeError, ValidationError
from recridge.random_projection import (
    rp_forward,
    rp_from_weights,
    rp_new,
)


def test_seeded_construction_bit_identical():
    a = rp_new(8, 96, 7, "relu")
    b = rp_new(8, 96, 7, "relu")
    assert np.array_equal(a.w_rp, b.w_rp)
    assert a.seed == 7 and a.input_dim == 8 and a.output_dim == 96


def test_different_seeds_differ():
    assert not np.array_equal(rp_new(8, 96, 7).w_rp, rp_new(8, 96, 8).w_rp)


def test_weight_mean_near_zero():
    # law of large numbers on the documented generator; d=1 keeps variance 1
    layer = rp_new(1, 1_000_000, 7, "identity")
    assert abs(float(layer.w_rp.mean())) <= 5e-3


def test_rejects_zero_dimensions():
    with pytest.raises(ValidationError):
        rp_new(0, 5, 1)
    with pytest.raises(ValidationError):
        rp_new(5, 0, 1)


def test_rejects_bad_seed_and_activation():
    with pytest.raises(ValidationError):
        rp_new(2, 4, -1)
    with pytest.raises(ValidationError):
        rp_new(2, 4, 2**64)
    with pytest.raises(ValidationError):
        rp_new(2, 4, 1, "sigmoid")


# -- forward ------------------------------------------------------------------


def test_forward_zeros_through_relu():
    layer = rp_new(6, 24, 3, "relu")
    out = rp_forward(layer, np.zeros((3, 6)))
    assert np.array_equal(out, np.zeros((3, 24)))


def test_forward_identity_weights_passthrough():
    layer = rp_from_weights(np.eye(5), "identity")
    f = np.random.Generator(np.random.PCG64(4)).standard_normal((7, 5))
    assert np.array_equal(rp_forward(layer, f), f)


def test_forward_matches_naive_relu():
    gen = np.random.Generator(np.random.PCG64(5))
    layer = rp_new(4, 9, 11, "relu")
    f = gen.standard_normal((6, 4))
    expected = np.zeros((6, 9))
    for i in range(6):
        for j in range(9):
            s = 0.0
            for k in range(4):
                s += f[i, k] * layer.w_rp[k, j]
            expected[i, j] = max(0.0, s)
    assert np.allclose(rp_forward(layer, f), expected, rtol=1e-13, atol=1e-13)


def test_forward_width_mismatch():
    layer = rp_new(4, 8, 1)
    with pytest.raises(ShapeError):
        rp_forward(layer, np.zeros((3, 5)))


@pytest.mark.parametrize("seed", range(4))
def test_forward_relu_non_negative_and_width(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    layer = rp_new(5, 20, seed, "relu")
    f = gen.standard_normal((8, 5))
    out = rp_forward(layer, f)
    assert out.shape == (8, 20)
    assert (out >= 0.0).all()


def test_forward_is_pure():
    layer = rp_new(3, 6, 2, "tanh")
    f = np.random.Generator(np.random.PCG64(9)).standard_normal((4, 3))
    assert np.array_equal(rp_forward(layer, f), rp_forward(layer, f))


def test_tanh_output_strictly_bounded():
    layer = rp_new(3, 6, 2, "tanh")
    f = 50.0 * np.random.Generator(np.random.PCG64(10)).standard_normal((4, 3))
    out = rp_forward(layer, f)
    assert (np.abs(out) <= 1.0).all()


def test_forward_rejects_non_finite():
    layer = rp_new(2, 4, 1)
    with pytest.raises(ValidationError):
        rp_forward(layer, np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
def test_forward_overflow_raises_without_warning(activation):
    layer = rp_new(6, 72, 1, activation)
    rows = np.ones((3, 6))
    rows[1] = 1e308  # finite input whose projection overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-finite"):
            rp_forward(layer, rows)
