import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_oco import (
    Box,
    block_schedule,
    make_drift_environment,
    make_lowerbound_instance,
    path_length,
)
from delayed_oco.environments import (
    _drift_environments,
    block_bounds,
    comparator_block_length,
    make_path_budget_comparators,
)
from delayed_oco.harness import run_experiment
from delayed_oco.metrics import minimize_total_loss


# --- path length ------------------------------------------------------------

def test_path_length_constant_sequence():
    assert path_length(np.zeros((5, 2))) == 0.0


def test_path_length_single_jump():
    assert path_length(np.array([[0.0], [0.0], [1.0], [1.0]])) == pytest.approx(1.0)


@pytest.mark.parametrize("points", [np.array([0.0, 1.0]), np.zeros((0, 2)), np.zeros((2, 2, 1))])
def test_path_length_refuses_anything_but_a_nonempty_sequence_of_points(points):
    with pytest.raises(ValueError, match=r"\(T, n\)"):
        path_length(points)


def test_path_length_alternating():
    u = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert path_length(u) == pytest.approx(3.0)


def test_path_length_single_point():
    assert path_length(np.array([[0.3, 0.4]])) == 0.0


# --- piecewise comparators ----------------------------------------------------

def test_blocks_with_short_tail():
    assert block_bounds(5, 2) == [(1, 2), (3, 4), (5, 5)]


def test_path_budget_respected_across_grid():
    # L = ceil(T*D/max(P, D)) caps the path length by P for every budget
    box = Box.from_diameter(3, 2.0)
    T = 57
    for P in (0.0, 0.5, 2.0, 10.0, 40.0, T * box.diameter):
        for seed in range(5):
            u = make_path_budget_comparators(box, T, P, seed)
            assert path_length(u) <= P + 1e-9
            assert np.all(np.abs(u) <= box.half_width)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 300), st.sampled_from([0.0, 0.5, 1.0, 3.0, 50.0, 1e6]),
       st.integers(0, 2**32 - 1))
def test_path_budget_comparators_are_one_random_point_per_block(n, T, P, seed):
    # one bulk draw is bitwise the per-block draws: anchor z fills block z, the last one cut
    box = Box.from_diameter(n, 2.0)
    rng = np.random.default_rng(seed)
    expected = np.empty((T, n))
    for start, end in block_bounds(T, comparator_block_length(T, box.diameter, P)):
        expected[start - 1:end] = box.random_point(rng)
    u = make_path_budget_comparators(box, T, P, seed)
    assert u.shape == (T, n) and u.tobytes() == expected.tobytes()


def test_comparator_block_length_formula():
    assert comparator_block_length(10, 2.0, 0.0) == 10   # max(P, D) = D
    assert comparator_block_length(10, 2.0, 5.0) == 4
    assert comparator_block_length(100, 1.0, 1000.0) == 1


# --- drift environment ----------------------------------------------------------

def test_drift_zero_step_is_stationary():
    box = Box(2, 1.0)
    losses, targets = make_drift_environment(box, 20, 0.0, "quadratic", 1, 1.0)
    assert path_length(targets) == 0.0


def test_drift_path_length_bounded():
    box = Box(2, 1.0)
    _, targets = make_drift_environment(box, 11, 0.1, "quadratic", 2, 1.0)
    assert path_length(targets) <= 1.0 + 1e-12


def test_drift_deterministic_given_seed():
    box = Box(3, 1.0)
    l1, t1 = make_drift_environment(box, 30, 0.05, "linear", 7, 1.0)
    l2, t2 = make_drift_environment(box, 30, 0.05, "linear", 7, 1.0)
    assert np.array_equal(t1, t2)
    assert np.array_equal(l1.grads, l2.grads)


def _per_round_drift_walk(box, T, step, loss_kind, seed, grad_bound):
    """The drift build with one norm, one scaling and one clamp per round."""
    moves = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(T, box.dim))
    targets = np.empty((T, box.dim))
    theta = box.origin()
    for t in range(T):
        targets[t] = theta
        move = moves[t]
        norm = math.sqrt(move.dot(move))
        if norm > 0:
            move *= step / norm
        theta = (theta + move).clip(-box.half_width, box.half_width)
    if loss_kind == "quadratic":
        bound = 2.0 * box.half_width * math.sqrt(box.dim) \
            + float(np.linalg.norm(targets, axis=1).max())
        return targets, np.array(grad_bound / bound)
    norms = np.array([math.sqrt(row.dot(row)) for row in targets])
    grads = np.zeros((T, box.dim))
    away = norms > 1e-12
    grads[away] = (-grad_bound / norms[away])[:, None] * targets[away]
    return targets, grads


@settings(max_examples=80, deadline=None)
@given(T=st.integers(1, 300), n=st.integers(1, 10),
       step=st.sampled_from([0.0, 1e-300, 1e-9, 0.02, 0.32, 1.0, 5.0, 1e300]),
       loss_kind=st.sampled_from(["quadratic", "linear"]),
       seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       diameter=st.sampled_from([0.5, 2.0, 7.0]), grad_bound=st.sampled_from([1.0, 1.7]))
def test_drift_environment_matches_the_per_round_walk(T, n, step, loss_kind, seeds, diameter,
                                                      grad_bound):
    # steps of 0.32 and more keep the walks at the walls, where stretches end within a
    # few rows and the walk steps round by round; the walks of several seeds step
    # together, and a clamp in any of them ends a stretch
    box = Box.from_diameter(n, diameter)
    with np.errstate(all="ignore"):
        built = _drift_environments(box, T, step, loss_kind, seeds, grad_bound)
        refs = [_per_round_drift_walk(box, T, step, loss_kind, s, grad_bound) for s in seeds]
    for (losses, targets), (ref_targets, ref_losses) in zip(built, refs):
        assert targets.tobytes() == ref_targets.tobytes()
        if loss_kind == "quadratic":
            assert losses.targets.tobytes() == ref_targets.tobytes()
            assert np.array(losses.scale).tobytes() == ref_losses.tobytes()
        else:
            assert losses.grads.tobytes() == ref_losses.tobytes()


def test_drift_losses_respect_gradient_bound():
    box = Box.from_diameter(4, 3.0)
    linear, _ = make_drift_environment(box, 40, 0.2, "linear", 3, 1.7)
    assert np.all(np.linalg.norm(linear.grads, axis=1) <= 1.7 + 1e-12)
    quad, _ = make_drift_environment(box, 40, 0.2, "quadratic", 3, 1.7)
    # sup ||scale * (x - target)|| over the box sits at the corner farthest from the target
    worst = box.half_width + np.abs(quad.targets)
    assert np.all(quad.scale * np.linalg.norm(worst, axis=1) <= 1.7 + 1e-12)


def test_drift_targets_feasible():
    box = Box(2, 0.3)
    _, targets = make_drift_environment(box, 50, 0.5, "quadratic", 4, 1.0)
    assert np.all(np.abs(targets) <= box.half_width)


def test_drift_rejects_invalid_step():
    box = Box(2, 1.0)
    for step in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            make_drift_environment(box, 10, step, "quadratic", 0, 1.0)


def reference_drift(box, T, step, seed, grad_bound):
    """The drift walk one draw per round, normalized by np.linalg.norm, stepped
    through Box.project; returns the targets and the linear-drift gradients."""
    rng = np.random.default_rng(seed)
    targets = np.empty((T, box.dim))
    theta = box.origin()
    for t in range(T):
        targets[t] = theta
        move = rng.uniform(-1.0, 1.0, size=box.dim)
        norm = np.linalg.norm(move)
        if norm > 0:
            move *= step / norm
        theta = box.project(theta + move)
    grads = np.zeros((T, box.dim))
    for t, row in enumerate(targets):
        norm = np.linalg.norm(row)
        if norm > 1e-12:
            grads[t] = (-grad_bound / norm) * row
    return targets, grads


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 2, 5, 10]), st.integers(1, 300), st.floats(0.0, 3.0),
       st.floats(0.05, 5.0), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_drift_walk_matches_per_round_reference_bitwise(n, T, step, h, seed, grad_bound):
    box = Box(n, h)
    targets, grads = reference_drift(box, T, step, seed, grad_bound)
    quad, quad_targets = make_drift_environment(box, T, step, "quadratic", seed, grad_bound)
    linear, linear_targets = make_drift_environment(box, T, step, "linear", seed, grad_bound)
    for got in (quad_targets, quad.targets, linear_targets):
        assert got.tobytes() == targets.tobytes()
    assert linear.grads.tobytes() == grads.tobytes()


# --- adversarial instance ---------------------------------------------------------

def test_instance_blocks_and_schedule():
    signs, losses = make_lowerbound_instance(10, 3, 2.0, 1.0, 1, seed=0)
    assert signs.shape == (len(block_bounds(10, 3)), 1) == (4, 1) and len(losses) == 10
    trace, _ = run_experiment({"T": 10, "delay": {"kind": "blocks", "d": 3},
                               "environment": {"kind": "lowerbound"}})
    assert trace.schedule.to_list() == block_schedule(10, 3).to_list() == \
        [3, 2, 1, 3, 2, 1, 3, 2, 1, 1]


def test_instance_unit_blocks():
    signs, losses = make_lowerbound_instance(6, 1, 2.0, 1.0, 1, seed=0)
    assert np.array_equal(losses.grads, signs)  # one block, one sign per round
    assert block_schedule(6, 1).to_list() == [1] * 6


def test_instance_gradient_norm_exact():
    _, losses = make_lowerbound_instance(12, 4, 2.0, 1.0, 1, seed=1)
    box = Box.from_diameter(1, 2.0)
    assert np.allclose(np.linalg.norm(losses.grads, axis=1), 1.0)
    for t in range(1, 13):
        assert abs(losses.gradient(t, box.origin())[0]) == pytest.approx(1.0)


def test_instance_same_loss_within_block():
    signs, losses = make_lowerbound_instance(10, 3, 2.0, 1.0, 2, seed=2)
    for z, (start, end) in enumerate(block_bounds(10, 3)):
        for t in range(start, end + 1):
            assert np.array_equal(losses.grads[t - 1], signs[z] / math.sqrt(2))


def test_instance_gradients_arrive_at_block_end():
    schedule = block_schedule(23, 5)
    for start, end in block_bounds(23, 5):
        for t in range(start, end + 1):
            assert schedule.arrival_round(t) == end


def test_instance_deterministic_with_unit_signs():
    a_signs, a_losses = make_lowerbound_instance(20, 4, 2.0, 1.5, 3, seed=9)
    b_signs, b_losses = make_lowerbound_instance(20, 4, 2.0, 1.5, 3, seed=9)
    assert a_signs.tobytes() == b_signs.tobytes()
    assert a_losses.grads.tobytes() == b_losses.grads.tobytes()
    assert set(np.unique(a_signs)) == {-1.0, 1.0}
    assert not np.array_equal(a_signs, make_lowerbound_instance(20, 4, 2.0, 1.5, 3, seed=10)[0])


def test_instance_feasible_set_diameter():
    box = Box.from_diameter(4, 3.0)  # the cube a lowerbound run with n = 4, D = 3 plays on
    assert box.diameter == pytest.approx(3.0)
    assert box.half_width == pytest.approx(3.0 / (2.0 * math.sqrt(4)))


def test_instance_refuses_bad_sizes():
    for args in ((0, 1, 2.0, 1.0, 1), (4, 0, 2.0, 1.0, 1), (4, 1, 2.0, 1.0, 0),
                 (4, 1, 0.0, 1.0, 1), (4, 1, 2.0, -1.0, 1)):
        with pytest.raises(ValueError):
            make_lowerbound_instance(*args, seed=0)


# --- best fixed decision ------------------------------------------------------------

def test_best_fixed_tie_cancellation():
    signs, losses = make_lowerbound_instance(4, 2, 2.0, 1.0, 1, seed=9)
    assert signs.ravel().tolist() == [1.0, -1.0]  # the two blocks cancel exactly
    box = Box.from_diameter(1, 2.0)
    x, total = minimize_total_loss(losses, box)
    assert total == 0.0
    assert x[0] == box.half_width  # tie breaks toward +h


def test_best_fixed_single_block():
    T = 7
    signs, losses = make_lowerbound_instance(T, T, 2.0, 1.0, 1, seed=3)
    assert signs.ravel().tolist() == [1.0]
    x, total = minimize_total_loss(losses, Box.from_diameter(1, 2.0))
    assert x[0] == pytest.approx(-1.0)
    assert total == pytest.approx(-T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_best_fixed_matches_vertex_enumeration(n):
    rng = np.random.default_rng(30 + n)
    box = Box.from_diameter(n, 2.0)
    for _ in range(5):
        T = int(rng.integers(4, 40))
        _, losses = make_lowerbound_instance(T, int(rng.integers(1, 6)), 2.0, 1.0, n,
                                             seed=int(rng.integers(1 << 30)))
        x, total = minimize_total_loss(losses, box)
        brute = min(sum(losses.value(t, v) for t in range(1, T + 1)) for v in box.vertices())
        assert total == pytest.approx(brute, abs=1e-9)
        assert sum(losses.value(t, x) for t in range(1, T + 1)) == pytest.approx(total, abs=1e-9)
