import math

import numpy as np
import pytest

from delayed_oco import (
    Box,
    LowerBoundInstance,
    best_fixed_decision,
    block_bounds,
    comparator_block_length,
    make_drift_environment,
    make_lowerbound_instance,
    make_path_budget_comparators,
    make_piecewise_comparators,
    path_length,
)


# --- path length ------------------------------------------------------------

def test_path_length_constant_sequence():
    assert path_length(np.zeros((5, 2))) == 0.0


def test_path_length_single_jump():
    assert path_length(np.array([0.0, 0.0, 1.0, 1.0])) == pytest.approx(1.0)


def test_path_length_alternating():
    u = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert path_length(u) == pytest.approx(3.0)


def test_path_length_single_point():
    assert path_length(np.array([[0.3, 0.4]])) == 0.0


# --- piecewise comparators ----------------------------------------------------

def test_single_block_is_constant():
    box = Box(1, 1.0)
    u = make_piecewise_comparators(box, 6, 6, [np.array([0.5])])
    assert np.all(u == 0.5) and path_length(u) == 0.0


def test_piecewise_example():
    box = Box(1, 1.0)
    u = make_piecewise_comparators(box, 4, 2, [np.array([-1.0]), np.array([1.0])])
    assert list(u.ravel()) == [-1.0, -1.0, 1.0, 1.0]
    assert path_length(u) == pytest.approx(2.0)


def test_blocks_with_short_tail():
    assert block_bounds(5, 2) == [(1, 2), (3, 4), (5, 5)]


def test_anchor_outside_set_rejected():
    box = Box(1, 1.0)
    with pytest.raises(ValueError):
        make_piecewise_comparators(box, 4, 2, [np.array([2.0]), np.array([0.0])])


def test_path_budget_respected_across_grid():
    # L = ceil(T*D/max(P, D)) caps the path length by P for every budget
    box = Box.from_diameter(3, 2.0)
    T = 57
    for P in (0.0, 0.5, 2.0, 10.0, 40.0, T * box.diameter):
        for seed in range(5):
            u = make_path_budget_comparators(box, T, P, seed)
            assert path_length(u) <= P + 1e-9
            assert all(box.contains(x) for x in u)


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
    assert all(box.contains(x) for x in targets)


# --- adversarial instance ---------------------------------------------------------

def test_instance_blocks_and_schedule():
    inst = make_lowerbound_instance(10, 3, 2.0, 1.0, 1, seed=0)
    assert inst.num_blocks == 4
    assert inst.schedule.to_list() == [3, 2, 1, 3, 2, 1, 3, 2, 1, 1]


def test_instance_unit_blocks():
    inst = make_lowerbound_instance(6, 1, 2.0, 1.0, 1, seed=0)
    assert inst.schedule.to_list() == [1] * 6


def test_instance_gradient_norm_exact():
    inst = make_lowerbound_instance(12, 4, 2.0, 1.0, 1, seed=1)
    box = inst.box
    losses = inst.losses()
    assert np.allclose(np.linalg.norm(losses.grads, axis=1), 1.0)
    for t in range(1, inst.T + 1):
        assert abs(losses.gradient(t, box.origin())[0]) == pytest.approx(1.0)


def test_instance_same_loss_within_block():
    inst = make_lowerbound_instance(10, 3, 2.0, 1.0, 2, seed=2)
    losses = inst.losses()
    for start, end in inst.blocks:
        for t in range(start, end + 1):
            assert np.array_equal(losses.grads[t - 1], losses.grads[start - 1])


def test_instance_gradients_arrive_at_block_end():
    inst = make_lowerbound_instance(23, 5, 2.0, 1.0, 1, seed=3)
    for start, end in inst.blocks:
        for t in range(start, end + 1):
            assert inst.schedule.arrival_round(t) == end


def test_instance_deterministic_and_serializable():
    a = make_lowerbound_instance(20, 4, 2.0, 1.5, 3, seed=9)
    b = make_lowerbound_instance(20, 4, 2.0, 1.5, 3, seed=9)
    assert np.array_equal(a.signs, b.signs)
    c = LowerBoundInstance.from_dict(a.to_dict())
    assert np.array_equal(a.signs, c.signs) and c.schedule.to_list() == a.schedule.to_list()


def test_instance_feasible_set_diameter():
    inst = make_lowerbound_instance(10, 2, 3.0, 1.0, 4, seed=5)
    assert inst.box.diameter == pytest.approx(3.0)
    assert inst.box.half_width == pytest.approx(3.0 / (2.0 * math.sqrt(4)))


# --- best fixed decision ------------------------------------------------------------

def test_best_fixed_tie_cancellation():
    inst = LowerBoundInstance(T=4, d=2, D=2.0, G=1.0, n=1, seed=0,
                              signs=np.array([[1.0], [-1.0]]))
    x, total = best_fixed_decision(inst)
    assert total == 0.0
    assert x[0] == inst.box.half_width  # tie breaks toward +h


def test_best_fixed_single_block():
    T = 7
    inst = LowerBoundInstance(T=T, d=T, D=2.0, G=1.0, n=1, seed=0,
                              signs=np.array([[1.0]]))
    x, total = best_fixed_decision(inst)
    assert x[0] == pytest.approx(-1.0)
    assert total == pytest.approx(-T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
def test_best_fixed_matches_vertex_enumeration(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(5):
        inst = make_lowerbound_instance(int(rng.integers(4, 40)), int(rng.integers(1, 6)),
                                        2.0, 1.0, n, seed=int(rng.integers(1 << 30)))
        x, total = best_fixed_decision(inst)
        losses = inst.losses()
        T = len(losses)
        brute = min(sum(losses.value(t, v) for t in range(1, T + 1))
                    for v in inst.box.vertices())
        assert total == pytest.approx(brute, abs=1e-9)
        assert sum(losses.value(t, x) for t in range(1, T + 1)) == pytest.approx(total, abs=1e-9)
