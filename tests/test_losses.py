import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delayed_oco import (
    Box,
    Linear,
    LowerBoundInstance,
    QuadraticTracking,
    quadratic_drift_scale,
)


def finite_difference(loss, x, h=1e-6):
    fd = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        fd[i] = (loss.value(1, x + e) - loss.value(1, x - e)) / (2 * h)
    return fd


def sign_linear(signs, gain):
    """The lower-bound instance's loss: gain/sqrt(n) * <signs, x>, one round."""
    signs = np.asarray(signs, dtype=float)
    return Linear((gain / math.sqrt(signs.size)) * signs[None])


def test_linear_value_orthogonal():
    f = Linear(np.array([[1.0, -1.0]]))
    assert f.value(1, [0.5, 0.5]) == 0.0


def test_quadratic_value():
    f = QuadraticTracking(np.zeros((1, 2)), 2.0)
    assert f.value(1, [1.0, 1.0]) == pytest.approx(2.0)


def test_signlinear_value_cancellation():
    f = sign_linear([1.0, -1.0], 2.0)
    assert f.value(1, [1.0, 1.0]) == pytest.approx(0.0)


def test_linear_gradient_constant():
    f = Linear(np.array([[1.0, -1.0]]))
    assert np.array_equal(f.gradient(1, [5.0, 5.0]), [1.0, -1.0])
    assert np.array_equal(f.gradient(1, [0.0, 0.0]), [1.0, -1.0])


def test_quadratic_gradient():
    f = QuadraticTracking(np.array([[1.0, 0.0]]), 1.0)
    assert np.allclose(f.gradient(1, [0.0, 0.0]), [-1.0, 0.0])


def test_signlinear_gradient():
    f = sign_linear([1.0, 1.0], math.sqrt(2.0))
    assert np.allclose(f.gradient(1, [0.0, 0.0]), [1.0, 1.0])


@pytest.mark.parametrize("make", [
    lambda rng: Linear(rng.normal(size=(1, 3))),
    lambda rng: QuadraticTracking(rng.uniform(-0.5, 0.5, (1, 3)), rng.uniform(0.1, 2.0)),
    lambda rng: sign_linear(rng.choice([-1.0, 1.0], 3), rng.uniform(0.5, 3.0)),
])
def test_gradients_match_finite_differences(make):
    # central differences at 100 random interior points, relative error <= 1e-6
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = make(rng)
        x = rng.uniform(-0.9, 0.9, size=3)
        g = f.gradient(1, x)
        fd = finite_difference(f, x)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


def test_quadratic_drift_scale_guarantees_bound():
    # sup ||scale * (x - target)|| over the box sits at the corner farthest
    # from the target
    rng = np.random.default_rng(6)
    box = Box.from_diameter(3, 2.0)
    targets = np.array([box.random_point(rng) for _ in range(50)])
    scale = quadratic_drift_scale(1.0, box, np.linalg.norm(targets, axis=1).max())
    worst = box.half_width + np.abs(targets)
    assert np.all(scale * np.linalg.norm(worst, axis=1) <= 1.0)


def test_signs_validated():
    # the sign-linear losses come from the instance, which checks its signs
    with pytest.raises(ValueError):
        LowerBoundInstance(T=4, d=2, D=2.0, G=1.0, n=2, seed=0,
                           signs=np.array([[1.0, 0.5], [1.0, -1.0]]))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Linear(np.array([[1.0, 2.0]])).value(1, [1.0])


def test_rows_handed_out_cannot_alter_the_family():
    f = Linear(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        f.gradient(1, np.zeros(2))[0] = 5.0
    source = np.zeros((2, 1))
    q = QuadraticTracking(source, 1.0)
    source[0] = 3.0
    assert q.value(1, [0.0]) == 0.0


# --- properties of the two families -------------------------------------------

@st.composite
def family_and_points(draw):
    """A random family over T rounds in n dimensions and a (T, n) array of points."""
    T = draw(st.integers(1, 30))
    n = draw(st.integers(1, 6))
    reals = st.floats(-2.0, 2.0, allow_nan=False, width=64)
    X = draw(arrays(np.float64, (T, n), elements=reals))
    rows = draw(arrays(np.float64, (T, n), elements=reals))
    if draw(st.booleans()):
        return Linear(rows), X
    return QuadraticTracking(rows, draw(st.floats(0.1, 3.0))), X


def term_scale(f, t, x):
    """Sum of |terms| of f_t(x): the scale a sum's rounding error is relative to."""
    if isinstance(f, Linear):
        return float(np.abs(f.grads[t - 1] * x).sum())
    return abs(f.value(t, x))  # the squared terms are all nonnegative


@settings(max_examples=200, deadline=None)
@given(family_and_points())
def test_values_agree_with_value_round_by_round(case):
    # a batched row reduction may round differently from one dot product, by
    # at most 1e-12 of the terms' scale (of the value itself for quadratics)
    f, X = case
    batch = f.values(X)
    assert batch.shape == (len(f),)
    for t in range(1, len(f) + 1):
        one = f.value(t, X[t - 1])
        assert abs(batch[t - 1] - one) <= 1e-12 * term_scale(f, t, X[t - 1])


@settings(max_examples=200, deadline=None)
@given(family_and_points(), arrays(np.float64, 6, elements=st.floats(-1e6, 1e6)))
def test_linear_gradient_does_not_depend_on_x(case, elsewhere):
    f, X = case
    f = f if isinstance(f, Linear) else Linear(f.targets)
    for t in range(1, len(f) + 1):
        g = f.gradient(t, X[t - 1])
        assert np.array_equal(g, f.gradient(t, elsewhere[:X.shape[1]]))
        assert np.array_equal(g, f.grads[t - 1])


@settings(max_examples=200, deadline=None)
@given(family_and_points())
def test_len_and_indexing_round_trip(case):
    f, X = case
    T = len(f)
    assert T == X.shape[0]
    for i in range(T):
        one = f[i]
        assert len(one) == 1 and type(one) is type(f)
        assert one.value(1, X[i]) == f.value(i + 1, X[i])
        assert np.array_equal(one.gradient(1, X[i]), f.gradient(i + 1, X[i]))
    assert f[-1].value(1, X[-1]) == f.value(T, X[-1])
    with pytest.raises(IndexError):
        f[T]
