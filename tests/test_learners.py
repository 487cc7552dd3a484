import math

import numpy as np
import pytest

from delayed_oco import (
    Box,
    DelaySchedule,
    DelayedOGD,
    DogdDoublingTrick,
    EpochController,
    Linear,
    MildOGD,
    MildOgdDoublingTrick,
    QuadraticTracking,
    constant_schedule,
    corollary_lr,
    delayed_hedge_update,
    dogd_dt_lr,
    expert_count,
    hedge_alpha,
    init_weights,
    make_drift_environment,
    mild_dt_params,
    mild_lr_grid,
    simulate,
    uniform_schedule,
)
from delayed_oco import learners


def feedback(stamps, *grads):
    """Arguments of ``ingest`` after ``t``: timestamps and one gradient row each."""
    return list(stamps), np.array([np.atleast_1d(np.asarray(g, dtype=float)) for g in grads])


def projected_ogd(box, eta, losses):
    """Textbook projected OGD without delays: x_{t+1} = clip(x_t - eta * grad f_t(x_t))."""
    x = np.zeros(box.dim)
    xs = np.empty((len(losses), box.dim))
    for t in range(1, len(losses) + 1):
        xs[t - 1] = x
        x = np.clip(x - eta * losses.gradient(t, x), -box.half_width, box.half_width)
    return xs


def random_schedule(rng, T_max=200, d_max=20):
    T = int(rng.integers(1, T_max + 1))
    return DelaySchedule(tuple(int(v) for v in rng.integers(1, d_max + 1, size=T)))


def zero_losses(T, n=1):
    return Linear(np.zeros((T, n)))


# --- plain projected steps --------------------------------------------------

def step(box, x, eta, grad):
    """One delivered gradient through DelayedOGD, starting from x."""
    learner = DelayedOGD(box, eta)
    learner.y = np.asarray(x, dtype=float)
    learner.ingest(1, *feedback([1], grad))
    return learner.play(2)


def test_ogd_step_descent():
    box = Box(1, 1.0)
    assert step(box, [0.0], 0.5, [1.0])[0] == -0.5


def test_ogd_step_zero_gradient():
    box = Box(1, 1.0)
    assert step(box, [0.3], 0.5, [0.0])[0] == 0.3


def test_ogd_step_clamps():
    box = Box(1, 1.0)
    assert step(box, [0.9], 0.5, [-1.0])[0] == 1.0


def test_rate_column_steps_each_row_like_a_scalar_rate():
    box = Box(2, 1.0)
    rates = np.array([[0.1], [0.7], [2.0]])
    pool = DelayedOGD(box, rates)
    singles = [DelayedOGD(box, float(eta)) for eta in rates[:, 0]]
    stamps, grads = feedback([1, 2], [0.4, -1.0], [-0.3, 0.2])
    pool.ingest(2, stamps, grads)
    for i, single in enumerate(singles):
        single.ingest(2, stamps, grads)
        assert np.array_equal(pool.play(3)[i], single.play(3))
    assert pool.c_log == [1, 2] and pool.tau == 3


def test_invalid_rates_rejected():
    box = Box(2, 1.0)
    for eta in (0.0, -1.0, np.array([[0.1], [0.0]]), np.array([0.1, 0.2]),
                np.array([[0.1, 0.2]])):
        with pytest.raises(ValueError):
            DelayedOGD(box, eta)


# --- delayed descent ---------------------------------------------------------

def test_dogd_initial_play_is_origin():
    learner = DelayedOGD(Box(3, 1.0), 0.5)
    assert np.array_equal(learner.play(1), np.zeros(3))


def test_dogd_play_does_not_mutate():
    learner = DelayedOGD(Box(2, 1.0), 0.5)
    learner.ingest(1, *feedback([1], [1.0, 0.0]))
    a, b = learner.play(2), learner.play(2)
    assert np.array_equal(a, b)
    assert np.array_equal(a, [-0.5, 0.0])


def test_dogd_hand_simulation():
    # losses f_t(x) = g_t * x with g = (1, -1), delays (2, 1), eta = 0.5:
    # both rounds play 0; round 2 consumes g_1 then g_2 and returns to 0
    box = Box(1, 1.0)
    losses = Linear(np.array([[1.0], [-1.0]]))
    trace = simulate(DelayedOGD(box, 0.5), losses, DelaySchedule((2, 1)), box)
    assert list(trace.decisions.ravel()) == [0.0, 0.0]
    assert trace.c_log == (1, 2)


def test_dogd_empty_ingest_is_noop():
    learner = DelayedOGD(Box(1, 1.0), 0.5)
    before = learner.play(1)
    learner.ingest(1, *feedback([]))
    assert np.array_equal(learner.play(2), before)
    assert learner.tau == 1


def test_dogd_rejects_unsorted_items():
    learner = DelayedOGD(Box(1, 1.0), 0.5)
    with pytest.raises(ValueError):
        learner.ingest(1, *feedback([2, 1], 1.0, 1.0))
    with pytest.raises(ValueError):
        learner.ingest(1, *feedback([1, 1], 1.0, 1.0))


def test_dogd_reduces_to_ogd_without_delay():
    rng = np.random.default_rng(20)
    for _ in range(10):
        T, n = int(rng.integers(3, 40)), int(rng.integers(1, 4))
        box = Box.from_diameter(n, float(rng.uniform(0.5, 4.0)))
        eta = float(rng.uniform(0.05, 1.0))
        losses, _ = make_drift_environment(box, T, 0.1, "quadratic",
                                           int(rng.integers(1 << 30)), 1.0)
        sched = constant_schedule(T, 1)
        tr_d = simulate(DelayedOGD(box, eta), losses, sched, box)
        assert np.array_equal(tr_d.decisions, projected_ogd(box, eta, losses))


def test_dogd_consumption_log_is_permutation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = random_schedule(rng, T_max=60, d_max=10)
        box = Box(1, 1.0)
        trace = simulate(DelayedOGD(box, 0.1), zero_losses(s.horizon), s, box)
        assert trace.c_log is not None


def test_in_order_gives_identity_log():
    rng = np.random.default_rng(22)
    for seed in range(50):
        T = int(rng.integers(1, 80))
        s = DelaySchedule(tuple([2] * T))  # constant delays are in order
        box = Box(1, 1.0)
        trace = simulate(DelayedOGD(box, 0.1), zero_losses(T), s, box)
        assert list(trace.c_log) == list(range(1, T + 1))


def test_every_play_feasible():
    rng = np.random.default_rng(23)
    box = Box.from_diameter(2, 1.5)
    losses, _ = make_drift_environment(box, 60, 0.2, "linear", 3, 2.0)
    sched = uniform_schedule(60, 1, 9, 4)
    for learner in (DelayedOGD(box, 0.4), MildOGD(box, [0.1, 0.4], 0.5),
                    DogdDoublingTrick(box, 1.5, 2.0),
                    MildOgdDoublingTrick(box, 1.5, 2.0, 60)):
        trace = simulate(learner, losses, sched, box)
        assert all(box.contains(x) for x in trace.decisions)


# --- formula-derived parameters ----------------------------------------------

def test_corollary_lr_values():
    assert corollary_lr(2.0, 1.0, 4.0) == pytest.approx(1.0)
    assert corollary_lr(1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert corollary_lr(1.0, 2.0, 100.0) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        corollary_lr(0.0, 1.0, 1.0)


def test_mild_lr_grid_values():
    grid = mild_lr_grid(1.0, 1.0, 16.0, 15)
    assert np.allclose(grid, [0.25, 0.5, 1.0])
    assert expert_count(1) == 2
    assert np.allclose(mild_lr_grid(2.0, 1.0, 4.0, 15), [1.0, 2.0, 4.0])


def test_grid_doubles_and_starts_at_base():
    grid = mild_lr_grid(2.0, 0.5, 30.0, 100)
    assert grid[0] == pytest.approx(2.0 / (0.5 * math.sqrt(30.0)))
    assert np.allclose(grid[1:] / grid[:-1], 2.0)


def test_init_weights_values():
    assert np.allclose(init_weights(3), [2 / 3, 2 / 9, 1 / 9])
    assert init_weights(3).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(init_weights(1), [1.0])
    assert np.allclose(init_weights(2), [3 / 4, 1 / 4])


def test_dogd_dt_lr_values():
    assert dogd_dt_lr(1.0, 1.0, 2) == pytest.approx(0.5)
    assert dogd_dt_lr(math.sqrt(2.0), 1.0, 1) == pytest.approx(1.0)
    assert dogd_dt_lr(1.0, 1.0, 5) == pytest.approx(2.0 * dogd_dt_lr(1.0, 1.0, 7))


def test_mild_dt_params_values():
    alpha, grid = mild_dt_params(1.0, 1.0, 15, 2)
    assert alpha == pytest.approx(0.5)
    assert len(grid) == 3
    assert grid[0] == pytest.approx(0.5)  # eta_1 = D/G scaled by 2^{-v/2}


def test_hedge_alpha():
    assert hedge_alpha(2.0, 1.0, 4.0) == pytest.approx(0.25)


# --- aggregation --------------------------------------------------------------

def mixed_play(weights, decisions):
    """MildOGD's meta play from the given weights and expert decisions."""
    decisions = np.asarray(decisions, dtype=float)
    pool = MildOGD(Box(decisions.shape[1], 1.0), np.ones(len(weights)), alpha=1.0)
    pool.log_w = np.log(np.asarray(weights, dtype=float))
    pool.pool.y = decisions
    return pool.play(1)


def test_meta_play_symmetry():
    assert mixed_play(np.array([0.5, 0.5]), np.array([[1.0], [-1.0]]))[0] == 0.0


def test_meta_play_single_expert():
    x = np.array([[0.3, -0.2]])
    assert np.array_equal(mixed_play(np.array([1.0]), x), x[0])


def test_meta_play_weighted():
    out = mixed_play(np.array([2 / 3, 1 / 3]), np.array([[0.3], [0.9]]))
    assert out[0] == pytest.approx(0.5)


def test_pool_rejects_malformed_rates():
    box = Box(1, 1.0)
    for rates in ([], [0.1, 0.0], [[0.1], [0.2]]):
        with pytest.raises(ValueError):
            MildOGD(box, rates, alpha=1.0)


def test_hedge_update_example():
    log_w = np.log([0.5, 0.5])
    new = np.exp(delayed_hedge_update(log_w, 1.0, np.array([0.0, math.log(2.0)])))
    assert np.allclose(new, [2 / 3, 1 / 3])


def test_hedge_update_empty_arrival_unchanged():
    log_w = np.log([0.7, 0.3])
    new = delayed_hedge_update(log_w, 1.0, np.zeros(2))
    assert np.allclose(np.exp(new), [0.7, 0.3])


def test_hedge_update_common_shift_cancels():
    log_w = np.log([0.25, 0.75])
    new = delayed_hedge_update(log_w, 2.0, np.array([5.0, 5.0]))
    assert np.allclose(np.exp(new), [0.25, 0.75])


def test_hedge_update_stable_for_huge_losses():
    log_w = np.log([0.5, 0.5])
    new = np.exp(delayed_hedge_update(log_w, 1.0, np.array([0.0, 5000.0])))
    assert np.isfinite(new).all() and new.sum() == pytest.approx(1.0)


def test_single_expert_pool_tracks_delayed_descent():
    # degenerate pool: weights stay 1 and the trajectory is bitwise the
    # expert's own, which is delayed descent on its surrogates
    box = Box(1, 1.0)
    T = 30
    losses, _ = make_drift_environment(box, T, 0.1, "quadratic", 9, 1.0)
    sched = constant_schedule(T, 1)
    pool = MildOGD(box, [0.3], alpha=1.0)
    tr_pool = simulate(pool, losses, sched, box)
    tr_single = simulate(DelayedOGD(box, 0.3), losses, sched, box)
    assert np.array_equal(tr_pool.decisions, tr_single.decisions)
    assert pool.weights[0] == pytest.approx(1.0)


def test_pool_round_with_no_arrivals_changes_nothing_but_play():
    box = Box(1, 1.0)
    pool = MildOGD(box, [0.2, 0.8], alpha=0.5)
    w_before = pool.weights.copy()
    x = pool.play(1)
    pool.ingest(1, *feedback([]))
    assert np.array_equal(pool.weights, w_before)
    assert x[0] == 0.0


def test_pool_weights_unchanged_while_experts_agree():
    # all experts sit at the origin until the first feedback, so the first
    # update sees identical surrogate values and keeps the prior weights
    box = Box(1, 1.0)
    pool = MildOGD(box, [0.5, 1.0], alpha=1.0)
    losses = Linear(np.array([[1.0], [-1.0], [1.0]]))
    w0 = pool.weights.copy()
    x = pool.play(1)
    pool.ingest(1, *feedback([1], losses.gradient(1, x)))
    assert np.allclose(pool.weights, w0)


def test_pool_reweights_toward_better_expert():
    box = Box(1, 1.0)
    pool = MildOGD(box, [0.01, 1.0], alpha=1.0)
    losses = Linear(np.ones((20, 1)))
    sched = constant_schedule(20, 1)
    simulate(pool, losses, sched, box)
    # constant positive gradient: the aggressive expert reaches -1 faster
    assert pool.weights[1] > pool.weights[0]


def test_pool_gradient_queries_equal_horizon():
    calls = {"n": 0}

    class Counting(QuadraticTracking):
        def gradient(self, t, x):
            calls["n"] += 1
            return super().gradient(t, x)

    box = Box(1, 1.0)
    T = 50
    losses, _ = make_drift_environment(box, T, 0.1, "quadratic", 10, 1.0)
    sched = uniform_schedule(T, 1, 7, 11)
    pool = MildOGD(box, mild_lr_grid(2.0, 1.0, sched.sum_backlog, T),
                   hedge_alpha(2.0, 1.0, sched.sum_backlog))
    simulate(pool, Counting(losses.targets, losses.scale), sched, box)
    assert calls["n"] == T


def test_pool_weight_sums_near_one_every_round():
    box = Box(1, 1.0)
    T = 80
    losses, _ = make_drift_environment(box, T, 0.2, "linear", 12, 1.0)
    sched = uniform_schedule(T, 1, 9, 13)
    pool = MildOGD(box, mild_lr_grid(2.0, 1.0, sched.sum_backlog, T),
                   hedge_alpha(2.0, 1.0, sched.sum_backlog))
    trace = simulate(pool, losses, sched, box, collect_weight_sums=True)
    assert float(np.abs(trace.weight_sums - 1.0).max()) <= 1e-9


def test_pool_surrogate_losses_bounded_by_GD(monkeypatch):
    # the Hedge analysis needs |<g_k, x_k^eta - x_k>| <= G*D for every
    # arrival; constant delays deliver one arrival per ingest, so each loss
    # vector the pool hands to the Hedge update is a single arrival's
    seen = []
    update = learners.delayed_hedge_update

    def recording(log_w, alpha, losses):
        seen.append(losses.copy())
        return update(log_w, alpha, losses)

    monkeypatch.setattr(learners, "delayed_hedge_update", recording)
    box, G, T = Box.from_diameter(3, 2.0), 1.5, 200
    for kind in ("quadratic", "linear"):
        for delay in (1, 3, 8):
            seen.clear()
            losses, _ = make_drift_environment(box, T, 0.2, kind, 5 + delay, G)
            sched = constant_schedule(T, delay)
            pool = MildOGD(box, mild_lr_grid(box.diameter, G, sched.sum_backlog, T),
                           hedge_alpha(box.diameter, G, sched.sum_backlog))
            simulate(pool, losses, sched, box)
            assert len(seen) == T
            assert max(np.abs(s).max() for s in seen) <= G * box.diameter + 1e-9


# --- doubling trick -----------------------------------------------------------

def test_epoch_controller_first_round_continues():
    ctrl = EpochController()
    assert ctrl.begin_round(1) is False
    assert ctrl.v == 1 and ctrl.epoch_start == 1


def test_epoch_controller_unit_delay_closed_form():
    # with one arrival per round the budget grows by one each round, so
    # epoch v spans 2^v rounds: starts at 1, 3, 7, 15, 31, ...
    ctrl = EpochController()
    starts = []
    for t in range(1, 200 + 1):
        if ctrl.begin_round(t):
            starts.append(t)
        ctrl.note_arrivals(1)
    assert starts == [3, 7, 15, 31, 63, 127]


def test_epoch_controller_backlogged_restart():
    # delays (2, 1): nothing arrives before round 2's check, so the budget
    # hits 1 + 2 = 3 > 2 and round 2 opens epoch 2
    ctrl = EpochController()
    assert ctrl.begin_round(1) is False
    ctrl.note_arrivals(0)
    assert ctrl.begin_round(2) is True
    assert ctrl.v == 2 and ctrl.epoch_start == 2


def test_epoch_controller_ties_continue():
    # B == 2^v exactly must not restart (strict inequality)
    ctrl = EpochController()
    ctrl.begin_round(1)   # B = 1
    ctrl.note_arrivals(1)
    assert ctrl.begin_round(2) is False  # B = 1 + 1 = 2 == 2^1
    assert ctrl.budget_used == 2


def brute_force_epoch_starts(schedule):
    """Direct evaluation of the restart rule from the arrival definition."""
    T = schedule.horizon
    v, s_v = 1, 1
    starts = [1]
    for t in range(1, T + 1):
        B = 0
        for j in range(s_v, t + 1):
            arrived = sum(len(schedule.epoch_feedback_set(s_v, i))
                          for i in range(s_v, j))
            B += (j + 1 - s_v) - arrived
        if B > 2 ** v:
            v += 1
            s_v = t
            starts.append(t)
    return starts


def test_restart_rounds_match_brute_force():
    rng = np.random.default_rng(24)
    box = Box(1, 1.0)
    for _ in range(25):
        s = random_schedule(rng, T_max=80, d_max=8)
        learner = DogdDoublingTrick(box, 2.0, 1.0)
        simulate(learner, zero_losses(s.horizon), s, box)
        assert learner.epoch_starts == brute_force_epoch_starts(s)


def test_restarting_learner_drops_stale_feedback():
    # delays (2, 1): restart at round 2 makes the round-1 gradient stale
    box = Box(1, 1.0)
    s = DelaySchedule((2, 1))
    learner = DogdDoublingTrick(box, 2.0, 1.0)
    losses = Linear(np.ones((2, 1)))
    trace = simulate(learner, losses, s, box)
    assert learner.epoch_starts == [1, 2]
    assert trace.dropped == 1
    assert trace.c_log is None  # incomplete by design


def test_restart_resets_rate_and_iterate():
    box = Box(1, 1.0)
    learner = DogdDoublingTrick(box, 2.0, 1.0)
    s = DelaySchedule((2, 1))
    losses = Linear(np.ones((2, 1)))
    simulate(learner, losses, s, box)
    assert learner.inner.eta == pytest.approx(dogd_dt_lr(2.0, 1.0, 2))


def test_mild_dt_reinitializes_weights_on_restart():
    box = Box(1, 1.0)
    T = 120
    losses, _ = make_drift_environment(box, T, 0.3, "linear", 14, 1.0)
    sched = uniform_schedule(T, 1, 6, 15)
    learner = MildOgdDoublingTrick(box, 2.0, 1.0, T)
    trace = simulate(learner, losses, sched, box, collect_weight_sums=True)
    assert len(learner.epoch_starts) > 1
    assert float(np.abs(trace.weight_sums - 1.0).max()) <= 1e-9


def test_mild_dt_rates_scale_with_epoch():
    box = Box(1, 1.0)
    learner = MildOgdDoublingTrick(box, 2.0, 1.0, 100)
    base = learner.inner.expert_rates
    s = DelaySchedule((2, 1))
    losses = Linear(np.ones((2, 1)))
    simulate(learner, losses, s, box)
    after = learner.inner.expert_rates
    assert np.allclose(np.array(base) / np.array(after), math.sqrt(2.0))
