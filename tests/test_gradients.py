"""Finite-difference checks for every kernel adjoint.

Each analytic backward pass is compared against central differences of a
scalar projection <upstream, f(x)>; the upstream adjoint is random so the
full Jacobian is exercised, not just the all-ones direction.
"""

import numpy as np
import pytest

from affectpipe import numerics as nm

from conftest import central_difference, channel_affine, channel_affine_backward, max_rel_error

SEEDS = range(20)
EPS = 1e-4
TOL = 1e-4


def _away_from_kinks(rng, size, margin=0.05):
    x = rng.normal(size=size)
    x = np.where(np.abs(x) < margin, x + np.sign(x + 1e-12) * margin, x)
    return x


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_adjoints(seed):
    rng = np.random.default_rng(seed)
    spec = nm.ConvSpec(4, 6, kernel=3, stride=2, padding=1, groups=2)
    x = rng.normal(size=(2, 4, 5, 6))
    w = rng.normal(size=spec.weight_shape)
    b = rng.normal(size=6)
    up = rng.normal(size=nm.conv2d(x, spec, w, b).shape)
    gx, gw, gb = nm.conv2d_backward(up, x, spec, w)
    assert max_rel_error(gx, central_difference(lambda v: float((nm.conv2d(v, spec, w, b) * up).sum()), x.copy(), EPS)) < TOL
    assert max_rel_error(gw, central_difference(lambda v: float((nm.conv2d(x, spec, v, b) * up).sum()), w.copy(), EPS)) < TOL
    assert max_rel_error(gb, central_difference(lambda v: float((nm.conv2d(x, spec, w, v) * up).sum()), b.copy(), EPS)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_adjoints_dilated_depthwise(seed):
    rng = np.random.default_rng(seed)
    spec = nm.ConvSpec(3, 6, kernel=3, stride=1, padding=2, dilation=2, groups=3)
    x = rng.normal(size=(1, 3, 6, 5))
    w = rng.normal(size=spec.weight_shape)
    up = rng.normal(size=nm.conv2d(x, spec, w).shape)
    gx, gw, _ = nm.conv2d_backward(up, x, spec, w)
    assert max_rel_error(gx, central_difference(lambda v: float((nm.conv2d(v, spec, w) * up).sum()), x.copy(), EPS)) < TOL
    assert max_rel_error(gw, central_difference(lambda v: float((nm.conv2d(x, spec, v) * up).sum()), w.copy(), EPS)) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_linear_adjoints(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=4)
    up = rng.normal(size=(3, 4))
    gx, gw, gb = nm.linear_backward(up, x, w)
    assert max_rel_error(gx, central_difference(lambda v: float((nm.linear(v, w, b) * up).sum()), x.copy(), EPS)) < TOL
    assert max_rel_error(gw, central_difference(lambda v: float((nm.linear(x, v, b) * up).sum()), w.copy(), EPS)) < TOL
    assert max_rel_error(gb, central_difference(lambda v: float((nm.linear(x, w, v) * up).sum()), b.copy(), EPS)) < TOL


def test_linear_weight_adjoint_is_outer_product():
    x = np.array([1.0, 2.0, 3.0])
    up = np.array([4.0, 5.0])
    _, gw, _ = nm.linear_backward(up, x, np.zeros((2, 3)))
    np.testing.assert_allclose(gw, np.outer(up, x))


@pytest.mark.parametrize("seed", SEEDS)
def test_global_avg_pool_adjoint(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 4, 5))
    up = rng.normal(size=(2, 3))
    gx = nm.global_avg_pool_backward(up, x.shape)
    num = central_difference(lambda v: float((nm.global_avg_pool(v) * up).sum()), x.copy(), EPS)
    assert max_rel_error(gx, num) < TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_affine_adjoints(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 3, 4))
    scale = rng.normal(size=3)
    shift = rng.normal(size=3)
    up = rng.normal(size=x.shape)
    gx, gscale, gshift = channel_affine_backward(up, x, scale)
    assert max_rel_error(gx, central_difference(lambda v: float((channel_affine(v, scale, shift) * up).sum()), x.copy(), EPS)) < TOL
    assert max_rel_error(gscale, central_difference(lambda v: float((channel_affine(x, v, shift) * up).sum()), scale.copy(), EPS)) < TOL
    assert max_rel_error(gshift, central_difference(lambda v: float((channel_affine(x, scale, v) * up).sum()), shift.copy(), EPS)) < TOL


def test_relu_adjoint_sign_cases():
    x = np.array([[2.0, -3.0], [0.5, -0.1]])
    up = np.array([[1.0, 1.0], [7.0, 7.0]])
    np.testing.assert_array_equal(nm.relu_backward(up, x), [[1.0, 0.0], [7.0, 0.0]])


@pytest.mark.parametrize("seed", SEEDS)
def test_activation_adjoints(seed):
    rng = np.random.default_rng(seed)
    x = _away_from_kinks(rng, (3, 7))
    up = rng.normal(size=(3, 7))

    gx = nm.relu_backward(up, x)
    assert max_rel_error(gx, central_difference(lambda v: float((nm.relu(v) * up).sum()), x.copy(), EPS)) < TOL
