import math

import numpy as np
import pytest

from delayed_oco import (
    Box,
    DelaySchedule,
    DelayedOGD,
    Linear,
    QuadraticTracking,
    bound_cor1,
    bound_lemma3,
    bound_lower,
    bound_thm1,
    bound_thm2,
    bound_thm4,
    bound_thm5,
    best_fixed_decision,
    dynamic_regret,
    joint_effect,
    make_lowerbound_instance,
    minimize_total_loss,
    path_length,
    reorder_penalty,
    simulate,
    static_regret,
    trace_to_csv,
)

SQ2 = math.sqrt(2.0)


# --- regrets -----------------------------------------------------------------

def test_dynamic_regret_zero_when_matching_comparators():
    losses = Linear(np.tile([1.0, -1.0], (4, 1)))
    xs = np.tile([0.25, 0.5], (4, 1))
    assert dynamic_regret(xs, losses, xs.copy()) == 0.0


def test_dynamic_regret_linear_example():
    losses = Linear(np.ones((5, 1)))
    xs = np.zeros((5, 1))
    us = -np.ones((5, 1))
    assert dynamic_regret(xs, losses, us) == pytest.approx(5.0)


def test_dynamic_regret_constant_comparator_is_static_at_that_point():
    rng = np.random.default_rng(40)
    losses = Linear(np.array([rng.normal(size=2) for t in range(6)]))
    xs = rng.uniform(-1, 1, size=(6, 2))
    point = np.array([0.3, -0.3])
    us = np.tile(point, (6, 1))
    direct = sum(losses.value(t, x) for t, x in enumerate(xs, start=1)) \
        - sum(losses.value(t, point) for t in range(1, 7))
    assert dynamic_regret(xs, losses, us) == pytest.approx(direct)


def test_dynamic_regret_length_mismatch():
    losses = Linear(np.ones((1, 1)))
    with pytest.raises(ValueError):
        dynamic_regret(np.zeros((2, 1)), losses, np.zeros((2, 1)))


def test_static_regret_zero_losses():
    losses = Linear(np.zeros((3, 1)))
    assert static_regret(np.zeros((3, 1)), losses, Box(1, 1.0)) == 0.0


def test_static_regret_linear_closed_form():
    losses = Linear(np.array([[1.0], [-1.0], [1.0]]))
    assert static_regret(np.zeros((3, 1)), losses, Box(1, 1.0)) == pytest.approx(1.0)


def test_static_regret_adversarial_instance_matches_vertex_oracle():
    inst = make_lowerbound_instance(30, 5, 2.0, 1.0, 3, seed=8)
    losses = inst.losses()
    xs = np.zeros((30, 3))
    _, best = best_fixed_decision(inst)
    played = sum(losses.value(t, x) for t, x in enumerate(xs, start=1))
    assert static_regret(xs, losses, inst.box) == pytest.approx(played - best)


def test_quadratic_hindsight_optimum_is_projected_mean():
    box = Box(2, 0.25)
    losses = QuadraticTracking(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
    x, _, method = minimize_total_loss(losses, box)
    assert method == "closed_quadratic"
    assert np.allclose(x, [0.25, 0.25])  # mean (0.5, 0.5) clamped


def test_closed_forms_match_grid():
    rng = np.random.default_rng(41)
    box = Box.from_diameter(2, 2.0)
    lin = Linear(np.array([rng.uniform(-1, 1, 2) for t in range(7)]))
    quad = QuadraticTracking(np.array([box.random_point(rng) for t in range(7)]), 0.5)
    for losses, lipschitz in ((lin, np.linalg.norm(lin.grads, axis=1).sum()),
                              (quad, len(quad) * quad.scale * box.diameter)):
        _, closed, _ = minimize_total_loss(losses, box)
        _, grid, flag = minimize_total_loss(losses, box, grid_resolution=1e-3, method="grid")
        assert flag.startswith("grid")
        assert grid >= closed - 1e-12          # the grid cannot beat the true optimum
        assert grid - closed <= lipschitz * 2e-3


def test_grid_above_two_dims_unsupported():
    box = Box(3, 1.0)
    for losses in (Linear(np.ones((2, 3))), QuadraticTracking(np.zeros((2, 3)), 1.0)):
        with pytest.raises(ValueError, match="n <= 2"):
            minimize_total_loss(losses, box, method="grid")


# --- joint effect -----------------------------------------------------------

def test_joint_effect_identity_log_is_zero():
    us = np.random.default_rng(42).uniform(-1, 1, size=(9, 2))
    assert joint_effect(tuple(range(1, 10)), us) == 0.0


def test_joint_effect_constant_comparators_zero_any_log():
    us = np.tile([0.3, -0.3], (4, 1))
    assert joint_effect((2, 1, 4, 3), us) == 0.0


def test_joint_effect_swap_example():
    assert joint_effect((2, 1), np.array([[0.0], [1.0]])) == pytest.approx(2.0)


def test_joint_effect_requires_permutation():
    with pytest.raises(ValueError):
        joint_effect((1, 1, 3), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        joint_effect(None, np.zeros((3, 1)))


def test_joint_effect_capped_on_runs():
    # sqrt(2dTDP), 2dP and TD all cap the measured interaction term
    rng = np.random.default_rng(43)
    box = Box.from_diameter(2, 2.0)
    for _ in range(100):
        T = int(rng.integers(2, 50))
        s = DelaySchedule(tuple(int(v) for v in rng.integers(1, 8, size=T)))
        trace = simulate(DelayedOGD(box, 0.1), Linear(np.zeros((T, 2))), s, box)
        us = np.stack([box.random_point(rng) for _ in range(T)])
        je = joint_effect(trace.c_log, us)
        P = path_length(us)
        cap = min(math.sqrt(2 * s.max_delay * T * box.diameter * P),
                  2 * s.max_delay * P, T * box.diameter)
        assert je <= cap + 1e-9


# --- bound evaluators ----------------------------------------------------------

def test_bound_thm1_values():
    assert bound_thm1(1.0, 1.0, 1.0, 1.0, 0.0, 0.0) == pytest.approx(2.0)
    base = bound_thm1(1.0, 2.0, 0.3, 5.0, 1.0, 0.0)
    assert bound_thm1(1.0, 2.0, 0.3, 5.0, 1.0, 3.0) == pytest.approx(base + 6.0)


def test_bound_thm1_at_backlog_rate_matches_shape():
    D, G, P, sum_m = 2.0, 1.5, 3.0, 40.0
    eta = D / (G * math.sqrt(sum_m))
    assert bound_thm1(D, G, eta, sum_m, P, 0.0) == \
        pytest.approx((2 * D + P) * G * math.sqrt(sum_m))


def test_bound_thm1_balanced_rate_is_near_optimal():
    D, G, P, sum_m, joint = 2.0, 1.0, 5.0, 60.0, 4.0
    eta_star = math.sqrt(D * (D + P)) / (G * math.sqrt(sum_m))
    val_star = bound_thm1(D, G, eta_star, sum_m, P, joint)
    etas = np.geomspace(1e-4, 1e3, 4000)
    val_min = min(bound_thm1(D, G, float(e), sum_m, P, joint) for e in etas)
    assert val_star <= 2.0 * val_min


def test_bound_cor1_in_order_drops_penalty():
    assert bound_cor1(1.0, 1.0, 100.0, 1.0, True, 4, 25) == pytest.approx(30.0)


def test_bound_cor1_zero_path_has_no_penalty_either_way():
    for in_order in (True, False):
        assert bound_cor1(1.0, 1.0, 64.0, 0.0, in_order, 4, 25) == pytest.approx(16.0)


def test_bound_cor1_out_of_order_example():
    got = bound_cor1(1.0, 1.0, 100.0, 1.0, False, 4, 25)
    assert got == pytest.approx(30.0 + math.sqrt(200.0), abs=1e-3)
    assert got == pytest.approx(44.142, abs=1e-3)


def test_bound_thm2_zero_path():
    D, G, S = 1.0, 1.0, 49.0
    expected = 4 * D * G * 7.0 + 2 * G * D * 7.0 * math.log(2.0)
    assert bound_thm2(D, G, S, 0.0, True, 3, 48) == pytest.approx(expected)


def test_bound_thm2_k_index():
    # P_T = 3, D = 1: k = floor(log2 sqrt(4)) + 1 = 2
    D, G, S, P = 1.0, 1.0, 16.0, 3.0
    expected = (3 * math.sqrt(D * (D + P)) + D) * G * 4.0 + 2 * G * D * 4.0 * math.log(3.0)
    assert bound_thm2(D, G, S, P, True, 2, 15) == pytest.approx(expected)


def test_bound_thm2_growth_is_sqrt_S_times_path():
    # ratio against sqrt(S*(P+1)) stays bounded over a parameter sweep
    ratios = [bound_thm2(1.0, 1.0, S, P, True, 2, 1000) / math.sqrt(S * (P + 1))
              for S in (10.0, 100.0, 1000.0, 10000.0)
              for P in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert max(ratios) <= 12.0


def test_bound_thm4_value():
    # restart variant: G*(2D+P)*sqrt(2S)/(sqrt(2)-1), no reorder penalty in order
    D, G, S, P = 1.0, 2.0, 50.0, 3.0
    expected = G * (2 * D + P) * math.sqrt(2 * S) / (SQ2 - 1.0)
    assert bound_thm4(D, G, S, P, True, 2, 40) == pytest.approx(expected)


def test_bound_thm5_value():
    D, G, S, P = 1.0, 1.0, 50.0, 3.0
    k_floor = math.floor(math.log2(math.sqrt((D + P) / D)))
    lead = (2 * math.log(k_floor + 2) + 1) * G * D + 3 * G * math.sqrt(D * D + D * P)
    expected = lead * math.sqrt(2 * S) / (SQ2 - 1.0)
    assert bound_thm5(D, G, S, P, True, 2, 40) == pytest.approx(expected)


def test_reorder_penalty_cases():
    assert reorder_penalty(2.0, 1.0, 4, 100, 5.0, True) == 0.0
    assert reorder_penalty(2.0, 1.0, 4, 100, 5.0, False) == \
        pytest.approx(math.sqrt(2 * 4 * 100 * 2.0 * 5.0))


def test_bound_lower_values():
    assert bound_lower(1000, 1, 2.0, 1.0, 0.0) == pytest.approx(11.180, abs=1e-3)
    # d > L regime: L = ceil(T*D/max(P,D)) = 2 < 3
    assert bound_lower(10, 3, 1.0, 1.0, 5.0) == pytest.approx(10.0 / (2 * SQ2))
    with pytest.raises(ValueError):
        bound_lower(10, 1, 1.0, 1.0, 11.0)


def test_bound_lemma3_values():
    assert bound_lemma3(1000, 1, 2.0, 1.0) == pytest.approx(1000.0 / math.sqrt(2000.0))
    assert bound_lemma3(1000, 1, 2.0, 1.0) == pytest.approx(22.36, abs=1e-2)
    assert bound_lemma3(1000, 10, 2.0, 1.0) == pytest.approx(2000.0 / (2 * math.sqrt(200.0)))


def test_trace_backlog_matches_schedule_recomputation():
    rng = np.random.default_rng(44)
    box = Box(1, 1.0)
    for _ in range(50):
        T = int(rng.integers(1, 60))
        s = DelaySchedule(tuple(int(v) for v in rng.integers(1, 9, size=T)))
        trace = simulate(DelayedOGD(box, 0.1), Linear(np.zeros((T, 1))), s, box)
        rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
        arrival = [k + d - 1 for k, d in enumerate(s.delays, start=1)]
        for t, row in enumerate(rows, start=1):
            live = sum(1 for k in range(1, t) if arrival[k - 1] >= t)
            F = [k for k in range(1, T + 1) if arrival[k - 1] == t]
            assert row[4:] == [str(1 + live), str(len(F)), ";".join(map(str, F))]
