import bisect
import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from delayed_oco import (
    Box,
    DelaySchedule,
    DelayedOGD,
    MildOGD,
    block_schedule,
    constant_schedule,
    corollary_lr,
    hedge_alpha,
    make_drift_environment,
    mild_lr_grid,
    simulate,
    uniform_schedule,
)
from delayed_oco.delay import KINDS as DELAY_KINDS, make_schedule, permuted_schedule
from delayed_oco.geometry import _WALK_ROWS
from delayed_oco.learners import (FAMILIES, delayed_hedge_update, epoch_starts, expert_count,
                                  init_weights, kept_stamps)
from delayed_oco.losses import Linear, QuadraticTracking, stack
from delayed_oco import harness, learners
from delayed_oco.invariants import (arrivals_at, consumption_log_permutation, projected_ogd,
                                    random_schedule, zero_losses)
from restart_rule import per_round_epochs


def feedback(stamps, *grads):
    """Arguments of ``ingest`` after ``t``: timestamps and one gradient row each."""
    return list(stamps), np.array([np.atleast_1d(np.asarray(g, dtype=float)) for g in grads])


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


def test_invalid_rates_rejected():
    box = Box(2, 1.0)
    for eta in (0.0, -1.0, math.nan, math.inf, -math.inf, np.array([[0.1], [0.0]]),
                np.array([[0.1], [math.nan]]), np.array([[math.inf], [0.1]]),
                np.array([0.1, 0.2]), np.array([[0.1, 0.2]])):
        with pytest.raises(ValueError):
            DelayedOGD(box, eta)


def reference_descent(box, eta, schedule, grads):
    """DelayedOGD's iterate after each arrival round, each row stepped through Box.project."""
    rows, after = np.zeros((np.size(eta), box.dim)), []
    for j, r in enumerate(schedule.rounds):
        for k in schedule.stamps[schedule.offsets[j]:schedule.offsets[j + 1]]:
            rows = np.array([box.project(y)
                             for y in rows - np.reshape(eta, (-1, 1)) * grads[k - 1]])
        after.append(rows[0] if np.ndim(eta) == 0 else rows)
    return after


@st.composite
def descent_cases(draw):
    """A box, a scalar rate or an (N, 1) rate column, a schedule and its gradients."""
    n = draw(st.integers(1, 5))
    T = draw(st.integers(1, 40))
    box = Box(n, draw(st.floats(0.05, 5.0)))
    delays = draw(st.lists(st.integers(1, 8), min_size=T, max_size=T))
    grads = draw(arrays(np.float64, (T, n), elements=st.floats(-1e3, 1e3, width=64)))
    rates = st.floats(1e-3, 1e2, width=64)
    if draw(st.booleans()):
        eta = draw(rates)
    else:
        eta = draw(arrays(np.float64, (draw(st.integers(1, 6)), 1), elements=rates))
    return box, eta, DelaySchedule(tuple(delays)), grads


@settings(max_examples=200, deadline=None)
@given(descent_cases())
def test_bare_clamp_steps_match_box_project_bitwise(case):
    box, eta, schedule, grads = case
    learner = DelayedOGD(box, eta)
    reference = reference_descent(box, eta, schedule, grads)
    for j, r in enumerate(schedule.rounds):
        stamps = schedule.stamps[schedule.offsets[j]:schedule.offsets[j + 1]].tolist()
        learner.ingest(r, stamps, grads[np.asarray(stamps) - 1])
        assert learner.play(r + 1).tobytes() == reference[j].tobytes()


@st.composite
def bursts(draw):
    """A box, a scalar rate or an (N, 1), (R, 1) or (R, N, 1) rate column, an iterate in
    the box (walls and +-0.0 included) and 1-64 gradients, or more than a walk's chunk of
    rows, laid out as ``ingest`` takes them.  The gradients are drawn by hypothesis (its
    edge values, repeats and shrinking), or uniform, or each coordinate's keep one size
    and flip sign now and then (so iterates rest on a face, pushed out, then leave it),
    the last two with +-0.0, +-inf and NaN sprinkled in or not."""
    n, N, R = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    h = draw(st.floats(0.05, 5.0))
    rate_shape, row = draw(st.sampled_from([((), (n,)), ((N, 1), (n,)), ((R, 1), (R, n)),
                                            ((R, N, 1), (R, 1, n))]))
    rates = st.floats(1e-3, 1e308)  # past about 1e305 a step overflows to +-inf
    eta = draw(arrays(np.float64, rate_shape, elements=rates)) if rate_shape else draw(rates)
    y = draw(arrays(np.float64, rate_shape[:-1] + (n,),
                    elements=st.sampled_from([-h, h, 0.0, -0.0]) | st.floats(-h, h)))
    if draw(st.booleans()):
        grads = draw(arrays(np.float64, (draw(st.integers(1, 64)), *row),
                            elements=st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)))
        return Box(n, h), eta, y, grads
    K = draw(st.integers(1, 64) | st.integers(_WALK_ROWS - 8, 2 * _WALK_ROWS + 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grads = rng.uniform(-1e3, 1e3, (K, *row))
    flips = draw(st.sampled_from([None, 0.02, 0.3]))
    if flips is not None:
        grads = np.abs(grads[0]) * np.where(np.logical_xor.accumulate(
            rng.random((K, *row)) < flips, axis=0), -1.0, 1.0)
    special = draw(st.sampled_from([0.0, 0.01, 0.2]))
    at = rng.random((K, *row)) < special
    grads[at] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(at.sum()))
    return Box(n, h), eta, y, grads


@settings(max_examples=200, deadline=None)
@given(bursts())
@example((Box(1, 1.0), np.array([[1e308], [0.5]]), np.array([[1.0], [-1.0]]),
          np.array([[1e3], [-0.0], [-1e3], [0.0]])))
def test_a_burst_steps_like_a_per_gradient_clip_loop_bitwise(case):
    box, eta, y, grads = case
    learner = DelayedOGD(box, eta)
    learner.y = y
    h, expected = box.half_width, y
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 steps are NaN
        for g in grads:
            expected = np.clip(expected - eta * g, -h, h)
        learner.ingest(1, list(range(1, len(grads) + 1)), grads)
    assert learner.play(2).tobytes() == expected.tobytes()


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


def test_dogd_rejects_unsorted_items():
    # simulate checks each arrival plan once, where it merges them: a round's
    # timestamps out of order, or one timestamp twice, never reach a learner
    box = Box(1, 1.0)
    for stamps in ([2, 1], [1, 1]):
        bad = DelaySchedule((2, 1))  # both arrive at round 2, as [1, 2]
        object.__setattr__(bad, "stamps", stamps)
        with pytest.raises(ValueError):
            simulate(DelayedOGD(box, 0.5), zero_losses(2), bad, box)
        with pytest.raises(ValueError):  # one malformed run spoils the batch
            simulate(DelayedOGD(box, np.full((2, 1), 0.5)), Linear(np.zeros((2, 2, 1))),
                     [DelaySchedule((2, 1)), bad], box)


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
    ok, detail = consumption_log_permutation(np.random.default_rng(21), runs=100, T_max=60,
                                             d_max=10)
    assert ok, detail


def test_in_order_gives_identity_log():
    rng = np.random.default_rng(22)
    for seed in range(50):
        T = int(rng.integers(1, 80))
        s = DelaySchedule(tuple([2] * T))  # constant delays are in order
        box = Box(1, 1.0)
        trace = simulate(DelayedOGD(box, 0.1), zero_losses(T), s, box)
        assert list(trace.c_log) == list(range(1, T + 1))


def stacked(learner, R: int):
    """R fresh copies of a one-run ``DelayedOGD`` or ``MildOGD``, as one learner."""
    if isinstance(learner, MildOGD):
        return MildOGD(learner.box, np.tile(learner.expert_rates, (R, 1)), np.full(R, learner.alpha))
    return DelayedOGD(learner.box, np.full((R, 1), learner.eta))


def kept_by_definition(schedule, starts) -> list[bool]:
    """Which stamps a run whose epochs open at ``starts`` (None: it never restarts) keeps,
    entry k - 1 for k: stamp k iff queried no earlier than the epoch open at the round it
    arrives at."""
    starts = starts or (1,)
    return [k >= starts[bisect.bisect_right(starts, schedule.arrival_round(k)) - 1]
            for k in range(1, schedule.horizon + 1)]


def consumption_learner(name: str, box: Box, T: int, R: int):
    """A ``name`` learner of R rows (one run when R is 1) and its arrival plans' lengths T,
    and its ``make`` as ``simulate`` takes it (a doubling row's first epoch is make(2))."""
    if name.endswith("_dt"):
        make = FAMILIES[name.removesuffix("_dt")].tuned(box, 2.0, 1.0, T)
        learner = make(2)
    else:
        make = None
        learner = DelayedOGD(box, 0.1) if name == "dogd" else MildOGD(box, [0.1, 0.4], 1.0)
    if R == 1:
        return learner, make
    return stacked(learner, R), [make] * R


@settings(max_examples=100, deadline=None)
@given(T=st.integers(1, 40), R=st.integers(1, 3),
       name=st.sampled_from(["dogd", "mild", "dogd_dt", "mild_dt"]), data=st.data())
def test_the_consumption_log_is_the_order_ingest_received(T, R, name, data):
    # the trace takes c_log from the plan; a spy on ingest sees what the learner was
    # handed, each run's column of a lockstep block less its padding: a restarting run's
    # plan less the stamps its epochs cut, which it counts; on quadratic losses every
    # learner takes the round loop
    box = Box(1, 1.0)
    schedules = [DelaySchedule(tuple(data.draw(st.lists(st.integers(1, 12), min_size=T,
                                                        max_size=T)))) for _ in range(R)]
    runs = None if R == 1 else R
    learner, make = consumption_learner(name, box, T, R)
    seen, ingest = [[] for _ in range(R)], learner.ingest

    def spied(t, stamps, grads):
        for row in ([[k] for k in stamps] if runs is None else stamps):
            for log, k in zip(seen, row):
                if k:
                    log.append(k)
        ingest(t, stamps, grads)

    learner.ingest = spied
    losses = zero_losses(T, "quadratic")
    trace = simulate(learner, losses if runs is None else stack([losses] * R),
                     schedules[0] if runs is None else schedules, box, make)
    expected = [None] * R if name.endswith("_dt") else [tuple(log) for log in seen]
    assert [run.c_log for run in trace.runs()] == expected
    for run, log in zip(trace.runs(), seen):
        keep = kept_by_definition(run.schedule, run.epoch_starts)
        kept = [k for k in run.schedule.stamps.tolist() if keep[k - 1]]
        assert log == kept
        assert run.dropped == T - len(kept)


def spy_on_descend(learner, seen: list) -> None:
    """Record, per row, the timestamps each ``descend`` of a DOGD ``learner`` walks, every
    epoch's of a restarting row."""
    descend = learner.descend
    learner.descend = lambda row, stamps, *rest: (seen[row or 0].extend(stamps.tolist()),
                                                  descend(row, stamps, *rest))


@settings(max_examples=100, deadline=None)
@given(T=st.integers(1, 40), R=st.integers(1, 3), name=st.sampled_from(["dogd", "dogd_dt"]),
       data=st.data())
def test_the_consumption_log_is_the_order_the_walk_took(T, R, name, data):
    # on linear losses DOGD walks its plan instead of ingesting it: a spy on descend sees
    # what each row walked, its plan's delivery order less the stamps its epochs dropped
    # as stale, which it counts
    box = Box(1, 1.0)
    schedules = [DelaySchedule(tuple(data.draw(st.lists(st.integers(1, 12), min_size=T,
                                                        max_size=T)))) for _ in range(R)]
    runs = None if R == 1 else R
    learner, make = consumption_learner(name, box, T, R)
    seen = [[] for _ in range(R)]
    spy_on_descend(learner, seen)
    learner.ingest = None  # the walk path never ingests
    trace = simulate(learner, zero_losses(T) if runs is None else stack([zero_losses(T)] * R),
                     schedules[0] if runs is None else schedules, box, make)
    for run, log in zip(trace.runs(), seen):
        keep = kept_by_definition(run.schedule, run.epoch_starts)
        kept = [k for k in run.schedule.stamps.tolist() if keep[k - 1]]
        assert log == kept
        assert run.dropped == T - len(kept)
        assert run.c_log == (None if name == "dogd_dt" else tuple(log))


def test_every_play_feasible():
    rng = np.random.default_rng(23)
    box = Box.from_diameter(2, 1.5)
    losses, _ = make_drift_environment(box, 60, 0.2, "linear", 3, 2.0)
    sched = uniform_schedule(60, 1, 9, 4)
    dogd_dt, mild_dt = (FAMILIES[f].tuned(box, 1.5, 2.0, 60) for f in ("dogd", "mild"))
    for learner, make in ((DelayedOGD(box, 0.4), None), (MildOGD(box, [0.1, 0.4], 0.5), None),
                          (dogd_dt(2), dogd_dt), (mild_dt(2), mild_dt)):
        trace = simulate(learner, losses, sched, box, make)
        assert np.all(np.abs(trace.decisions) <= box.half_width)


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
    def epoch_lr(D, G, v):
        return FAMILIES["dogd"].tuned(Box(1, 1.0), D, G, None)(2**v).eta
    assert epoch_lr(1.0, 1.0, 2) == pytest.approx(0.5)
    assert epoch_lr(math.sqrt(2.0), 1.0, 1) == pytest.approx(1.0)
    assert epoch_lr(1.0, 1.0, 5) == pytest.approx(2.0 * epoch_lr(1.0, 1.0, 7))


def test_mild_dt_params_values():
    inner = FAMILIES["mild"].tuned(Box(1, 1.0), 1.0, 1.0, 15)(2**2)
    assert inner.alpha == pytest.approx(0.5)
    assert len(inner.expert_rates) == 3
    assert inner.expert_rates[0] == pytest.approx(0.5)  # eta_1 = D/G scaled by 2^{-v/2}


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
    for rates in ([], [0.1, 0.0], [[0.1], [0.2]], [0.1, math.nan], [math.inf], [-math.inf]):
        with pytest.raises(ValueError):
            MildOGD(box, rates, alpha=1.0)


def test_pool_rejects_invalid_alpha():
    box = Box(1, 1.0)
    for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            MildOGD(box, [0.1, 0.2], alpha=alpha)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.floats(0.05, 5.0), st.data())
def test_meta_play_matches_box_project_bitwise(n, N, h, data):
    box = Box(n, h)
    pool = MildOGD(box, np.ones(N), alpha=1.0)
    w = data.draw(arrays(np.float64, N, elements=st.floats(1e-3, 1.0)))
    pool.log_w = np.log(w / w.sum())
    # a pool stack reaches up to the faces; beyond them exercises the clamp too
    pool.pool.y = data.draw(arrays(np.float64, (N, n), elements=st.floats(-2 * h, 2 * h)))
    assert pool.play(1).tobytes() == box.project(pool.weights @ pool.pool.y).tobytes()


def test_play_mixes_again_after_log_w_feedback_or_a_restart():
    # the mix is cached until log_w is assigned: an assignment from outside (the
    # Hedge fault the tests inject makes one), an ingest and a restart's set_row
    # (which writes its row in place) must show
    box = Box(2, 1.0)
    mild = MildOGD(box, [0.1, 0.4, 1.6], alpha=1.0)
    mild.pool.y = np.array([[0.6, -0.6], [-0.2, 0.4], [0.1, 0.9]])
    first = mild.play(1)
    first[:] = 9.0  # a caller writing into a play must not reach the cache
    before = mild.play(2)
    assert before.tobytes() == box.project(mild.weights @ mild.pool.y).tobytes()
    mild.log_w = mild.log_w + 0.05
    shifted = mild.play(3)
    assert not np.array_equal(shifted, before)
    assert shifted.tobytes() == box.project(mild.weights @ mild.pool.y).tobytes()
    mild.ingest(3, *feedback([1, 3], [1.0, -0.5], [0.2, 0.3]))
    fed = mild.play(4)
    assert not np.array_equal(fed, shifted)
    assert fed.tobytes() == box.project(mild.weights @ mild.pool.y).tobytes()
    runs = MildOGD(box, np.tile([0.1, 0.4, 1.6], (2, 1)), np.ones(2))
    runs.follow([constant_schedule(3, 1)] * 2)
    runs.play(1)
    runs.ingest(1, [[1, 1]], np.array([[[1.0, -0.5], [0.2, 0.3]]]))
    played = runs.play(2)
    assert not np.array_equal(played[0], fed)
    runs.set_row(0, mild)
    restarted = runs.play(3)
    assert restarted[0].tobytes() == fed.tobytes()
    assert restarted[1].tobytes() == played[1].tobytes()


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


# the (last) learner of the same family with(out) restarts
_OTHER_KIND = {name: [other for other, o in learners.KINDS.items()
                      if o.family == kind.family and o.restarts != kind.restarts][-1]
               for name, kind in learners.KINDS.items()}


@pytest.mark.parametrize("name", sorted(_OTHER_KIND))
def test_gradient_queries_equal_horizon(name, monkeypatch):
    # simulate asks for one gradient a round, at the played point, whatever the learner:
    # one run, and a lockstep batch of a fixed-horizon and a doubling row
    calls, gradient = [], QuadraticTracking.gradient
    monkeypatch.setattr(QuadraticTracking, "gradient",
                        lambda self, t, x: calls.append(t) or gradient(self, t, x))
    T = 50
    box = Box.from_diameter(2, 2.0)
    schedules = [uniform_schedule(T, 1, 7, 11), permuted_schedule(T, 12)]
    families = [make_drift_environment(box, T, 0.1, "quadratic", 10 + r, 1.0)[0] for r in range(2)]
    for names in ([name], [name, _OTHER_KIND[name]]):
        cfgs = [harness.normalize_config({"T": T, "n": 2, "learner": {"name": learner}})
                for learner in names]
        plans = schedules[:len(names)]
        learner, make, _ = harness._build_learner(cfgs, box, [plan.sum_backlog for plan in plans])
        calls.clear()
        if len(names) == 1:
            simulate(learner, families[0], plans[0], box, make)
        else:
            simulate(learner, stack(families), plans, box, make)
        assert calls == list(range(1, T + 1))


def test_pool_weight_sums_near_one_every_round():
    box = Box(1, 1.0)
    T = 80
    losses, _ = make_drift_environment(box, T, 0.2, "linear", 12, 1.0)
    sched = uniform_schedule(T, 1, 9, 13)
    pool = MildOGD(box, mild_lr_grid(2.0, 1.0, sched.sum_backlog, T),
                   hedge_alpha(2.0, 1.0, sched.sum_backlog))
    trace = simulate(pool, losses, sched, box)
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


@pytest.mark.parametrize("N", [3, 9, 17, 40])
@pytest.mark.parametrize("n", [2, 10])
def test_lockstep_pool_steps_each_run_as_alone_and_keeps_unfed_weights_bitwise(N, n):
    # run 0 gets feedback every round, run 1 every fifth: run 1 keeps its weights
    # bitwise on the other rounds (renormalizing them would round some differently),
    # and each run matches a one-run pool fed the same gradients; the run axis mixes
    # and forms surrogates by stacked matmul, one run by np.dot, past the paper grid's sizes
    box, rng = Box(n, 1.0), np.random.default_rng(3)
    rates = np.array([0.1, 0.2])[:, None] * np.exp2(np.arange(N) / 3)
    alphas = np.array([0.7, 1.3])
    pool = MildOGD(box, rates, alphas)
    pool.follow([constant_schedule(400, 1)] * 2)
    alone = [MildOGD(box, rates[r], alphas[r]) for r in range(2)]
    for t in range(1, 400):
        xs, x_alone = pool.play(t), [a.play(t) for a in alone]
        assert all(xs[r].tobytes() == x_alone[r].tobytes() for r in range(2))
        fed = t % 5 == 0
        grads = rng.uniform(-1, 1, (1, 2, n))
        if not fed:  # a padded slot: timestamp 0 and a +0.0 gradient, as simulate pads
            grads[0, 1] = 0.0
        stamps = [[t, t if fed else 0]]
        before = pool.log_w[1].tobytes()
        pool.ingest(t, stamps, grads)
        alone[0].ingest(t, *feedback([t], grads[0, 0]))
        if fed:
            alone[1].ingest(t, *feedback([t], grads[0, 1]))
        else:
            assert pool.log_w[1].tobytes() == before
        assert pool.log_w.tobytes() == np.stack([a.log_w for a in alone]).tobytes()


def test_a_round_played_again_reads_its_last_play():
    # every round is played before the feedback of the round before it and again after:
    # each run's surrogate reads the later play, as one run's does, and the earlier play
    # holds no slot of the run axis's spread store
    box, rng = Box(2, 1.0), np.random.default_rng(5)
    rates, alphas = np.array([[0.1, 0.4, 1.6], [0.2, 0.5, 3.0]]), np.array([0.7, 1.3])
    pool = MildOGD(box, rates, alphas)
    pool.follow([constant_schedule(60, 1)] * 2)
    alone = [MildOGD(box, rates[r], alphas[r]) for r in range(2)]
    for t in range(1, 60):
        for k in (t + 1, t):
            xs = pool.play(k)
            assert all(xs[r].tobytes() == one.play(k).tobytes() for r, one in enumerate(alone))
        grads = rng.uniform(-1, 1, (1, 2, 2))
        pool.ingest(t, [[t, t]], grads)
        for r, one in enumerate(alone):
            one.ingest(t, *feedback([t], grads[0, r]))
        assert pool.log_w.tobytes() == np.stack([one.log_w for one in alone]).tobytes()
        assert len(pool._store) <= 3


def test_mild_refuses_feedback_for_a_round_it_never_played():
    # the one guard serves every delivery: one run's single arrival (its weights untouched),
    # one run's burst, a lockstep row whose run 1 was never played at round 2, and a lockstep
    # stamp older than the ring, whose slot a later mix has taken (its weights untouched);
    # a run axis plays only once it has its runs' plans, which size the ring
    box = Box(2, 1.0)
    pool = MildOGD(box, [0.1, 0.4, 1.6], 0.7)
    pool.play(1)
    before = pool.log_w.tobytes()
    with pytest.raises(AssertionError, match="feedback for round 2 without a recorded play"):
        pool.ingest(1, *feedback([2], [0.5, -0.5]))
    assert pool.log_w.tobytes() == before
    with pytest.raises(AssertionError, match="feedback for round 3 without a recorded play"):
        pool.ingest(1, *feedback([1, 3], [0.5, -0.5], [1.0, 0.0]))
    lockstep = MildOGD(box, [[0.1, 0.4, 1.6], [0.2, 0.5, 3.0]], [0.7, 1.3])
    with pytest.raises(ValueError, match=r"follow\(schedules\)"):
        lockstep.play(1)
    lockstep.follow([constant_schedule(3, 1)] * 2)  # unit delays: a ring of one mix
    lockstep.play(1)
    with pytest.raises(AssertionError, match="feedback for round 2 without a recorded play"):
        lockstep.ingest(1, [[1, 2]], np.ones((1, 2, 2)))
    lockstep.ingest(1, [[1, 0]], np.ones((1, 2, 2)))  # run 1's feedback for round 1 waits
    lockstep.play(2)  # a new mix, in the one slot
    before = lockstep.log_w.tobytes()
    with pytest.raises(AssertionError, match="feedback for round 1 without a recorded play"):
        lockstep.ingest(2, [[2, 1]], np.ones((1, 2, 2)))
    assert lockstep.log_w.tobytes() == before


# --- doubling trick -----------------------------------------------------------

def test_epoch_starts_first_round_continues():
    assert epoch_starts(DelaySchedule((1,))) == [1]


def test_epoch_starts_unit_delay_closed_form():
    # with one arrival per round the budget grows by one each round, so
    # epoch v spans 2^v rounds: starts at 1, 3, 7, 15, 31, ...
    assert epoch_starts(constant_schedule(200, 1)) == [1, 3, 7, 15, 31, 63, 127]


def test_epoch_starts_backlogged_restart():
    # delays (2, 1): nothing arrives before round 2's check, so the budget
    # hits 1 + 2 = 3 > 2 and round 2 opens epoch 2
    assert epoch_starts(DelaySchedule((2, 1))) == [1, 2]


def test_epoch_starts_ties_continue():
    # B == 2^v exactly must not restart (strict inequality): B_2 = 1 + 1 = 2 == 2^1
    # continues epoch 1, and B_3 = 2 + (3 - 2) = 3 > 2 opens epoch 2
    assert epoch_starts(DelaySchedule((1, 1, 1))) == [1, 3]


def brute_force_epoch_starts(schedule):
    """Direct evaluation of the restart rule from the arrival definition."""
    T = schedule.horizon
    v, s_v = 1, 1
    starts = [1]
    for t in range(1, T + 1):
        B = 0
        for j in range(s_v, t + 1):
            arrived = sum(1 for i in range(s_v, j) for k in arrivals_at(schedule, i) if k >= s_v)
            B += (j + 1 - s_v) - arrived
        if B > 2 ** v:
            v += 1
            s_v = t
            starts.append(t)
    return starts


def test_restart_rounds_match_brute_force():
    rng = np.random.default_rng(24)
    box = Box(1, 1.0)
    make = FAMILIES["dogd"].tuned(box, 2.0, 1.0, None)
    for _ in range(25):
        s = random_schedule(rng, T_max=80, d_max=8)
        trace = simulate(make(2), zero_losses(s.horizon), s, box, make)
        assert list(trace.epoch_starts) == brute_force_epoch_starts(s)


@st.composite
def delay_specs(draw):
    """(T, a delay spec of any delay.KINDS kind), delays up to 3T, so past the horizon too."""
    T = draw(st.integers(1, 120))
    big = st.integers(1, 3 * T)
    kind = draw(st.sampled_from(sorted(DELAY_KINDS)))
    fields = {"constant": lambda: {"value": draw(big)},
              "uniform": lambda: {"lo": 1, "hi": draw(big)},
              "blocks": lambda: {"d": draw(big)},
              "permuted": lambda: {},
              "in_order_random": lambda: {"d_max": draw(big)},
              "list": lambda: {"values": draw(st.lists(big, min_size=T, max_size=T))}}[kind]()
    return T, {"kind": kind, **fields}


@settings(max_examples=150, deadline=None)
@given(case=delay_specs(), seed=st.integers(0, 2**16))
@example(case=(1, {"kind": "constant", "value": 3}), seed=0)
@example(case=(100, {"kind": "blocks", "d": 16}), seed=0)
def test_the_plan_pass_equals_the_controller_round_by_round(case, seed):
    T, spec = case
    schedule = make_schedule(spec, T, seed)
    starts, stale = per_round_epochs(schedule)
    assert epoch_starts(schedule) == starts
    # each delivery's stamps that kept_stamps cuts are the ones the controller finds stale
    cut, offsets = ~kept_stamps(schedule, starts), schedule.offsets.tolist()
    assert [int(cut[schedule.stamps[a:b] - 1].sum()) for a, b in zip(offsets, offsets[1:])] \
        == stale
    box = Box(1, 1.0)
    make = FAMILIES["dogd"].tuned(box, 2.0, 1.0, None)
    trace = simulate(make(2), zero_losses(T), schedule, box, make)
    assert (trace.epoch_starts, trace.dropped) == (tuple(starts), sum(stale))


@settings(max_examples=150, deadline=None)
@given(case=delay_specs(), seed=st.integers(0, 2**16))
@example(case=(100, {"kind": "blocks", "d": 16}), seed=0)
@example(case=(2000, {"kind": "permuted"}), seed=5)
def test_each_epoch_s_backlog_sum_is_within_its_budget(case, seed):
    # the restart rule keeps epoch v's B_t, its backlog sum so far, at most 2^v: so the
    # window of each epoch, the last one's too, as a schedule of its own has a backlog
    # sum of at most 2^v
    T, spec = case
    schedule = make_schedule(spec, T, seed)
    starts = epoch_starts(schedule)
    for v, (s, e) in enumerate(zip(starts, starts[1:] + [T + 1]), 1):
        assert DelaySchedule(schedule.delays[s - 1:e - 1]).sum_backlog <= 2 ** v, (v, s)


@settings(max_examples=60, deadline=None)
@given(case=delay_specs(), seed=st.integers(0, 2**16), redraw=st.integers(0, 2**16))
@example(case=(100, {"kind": "blocks", "d": 16}), seed=0, redraw=0)
def test_a_restart_reads_only_feedback_delivered_before_it(case, seed, redraw):
    # the rule is online: for each round t, redrawing the arrival rounds of the stamps that
    # arrive at t or later, to any rounds >= max(t, k), leaves the epochs that start by t
    # as they were
    T, spec = case
    schedule, rng = make_schedule(spec, T, seed), np.random.default_rng(redraw)
    starts, k = epoch_starts(schedule), np.arange(1, T + 1)
    arrival = k + schedule.delays - 1
    for t in range(1, T + 1):
        later = np.maximum(t, k) + rng.integers(0, 2 * T + 1, T)
        moved = DelaySchedule(np.where(arrival >= t, later, arrival) - k + 1)
        assert [s for s in epoch_starts(moved) if s <= t] == [s for s in starts if s <= t], t


@pytest.mark.parametrize("schedule,outgrows", [
    (permuted_schedule(2000, 5), True), (block_schedule(4096, 64), False),
    (constant_schedule(2000, 1), False), (uniform_schedule(2000, 1, 30, 3), False)],
    ids=["permuted", "blocks64", "constant1", "uniform30"])
def test_long_epochs_equal_the_controller_round_by_round(schedule, outgrows):
    # the plan pass searches an epoch first up to twice the last one's length (at least 64
    # rounds), then on to its window's end; the permuted plan's last epoch outgrows that
    starts = epoch_starts(schedule)
    assert starts == per_round_epochs(schedule)[0]
    lengths = np.diff(starts)
    assert any(b > max(64, 2 * a) for a, b in zip(lengths, lengths[1:])) == outgrows


def test_restarting_learner_drops_stale_feedback():
    # delays (2, 1): restart at round 2 makes the round-1 gradient stale
    box = Box(1, 1.0)
    s = DelaySchedule((2, 1))
    make = FAMILIES["dogd"].tuned(box, 2.0, 1.0, None)
    losses = Linear(np.ones((2, 1)))
    trace = simulate(make(2), losses, s, box, make)
    assert trace.epoch_starts == (1, 2)
    assert trace.dropped == 1
    assert trace.c_log is None  # incomplete by design


def test_restart_resets_rate_and_iterate():
    # the learner handed to simulate ends in the last epoch
    box = Box(1, 1.0)
    make = FAMILIES["dogd"].tuned(box, 2.0, 1.0, None)
    learner = make(2)
    s = DelaySchedule((2, 1))
    losses = Linear(np.ones((2, 1)))
    simulate(learner, losses, s, box, make)
    assert learner.eta == corollary_lr(2.0, 1.0, 2**2)


@st.composite
def lockstep_rows(draw):
    """(T, restarts, one arrival plan per row): a fixed-horizon row, a doubling row and maybe
    a third of either kind, in any order, each on constant delays d in {1, 20} (one-row
    deliveries, as a drift sweep's batch has) or past T, blocks of 16 or 64 (bursts, padded
    where the rows deliver apart, whose doubling rows restart inside a burst's window),
    uniform delays, or a permutation (the largest delay near T; its doubling rows see stale
    stamps)."""
    T, seeds = draw(st.integers(1, 150)), st.integers(0, 2**32 - 1)
    plans = st.one_of(st.sampled_from([1, 20]).map(lambda d: constant_schedule(T, d)),
                      st.integers(T + 1, 2 * T + 5).map(lambda d: constant_schedule(T, d)),
                      st.sampled_from([16, 64]).map(lambda d: block_schedule(T, d)),
                      st.tuples(st.integers(1, 12), seeds).map(
                          lambda a: uniform_schedule(T, 1, *a)),
                      seeds.map(lambda seed: permuted_schedule(T, seed)))
    restarts = draw(st.permutations([False, True] + draw(st.lists(st.booleans(), max_size=1))))
    return T, restarts, [draw(plans) for _ in restarts]


def lockstep_learners(family, box, T, restarts, schedules):
    """(a lockstep batch of one ``family`` row per schedule, doubling where ``restarts`` says,
    the batch's ``make`` list, and each row's learner alone with its ``make``); a doubling
    row's first epoch is make(2)."""
    D, G, alone = 2.0, 1.0, []
    make = FAMILIES[family].tuned(box, D, G, T)
    for dt, schedule in zip(restarts, schedules):
        sum_m = schedule.sum_backlog
        if dt:
            alone.append((make(2), make))
        elif family == "dogd":
            alone.append((DelayedOGD(box, corollary_lr(D, G, sum_m)), None))
        else:
            alone.append((MildOGD(box, mild_lr_grid(D, G, sum_m, T), hedge_alpha(D, G, sum_m)),
                          None))
    firsts = [learner for learner, _ in alone]
    if family == "dogd":
        batch = DelayedOGD(box, np.array([[first.eta] for first in firsts]))
    else:
        batch = MildOGD(box, np.array([first.expert_rates for first in firsts]),
                        np.array([first.alpha for first in firsts]))
    return batch, [m for _, m in alone], alone


def store_bound(schedules) -> int:
    """The most slots a run axis's spread store may hold: min(T, largest delay) + 1."""
    return min(schedules[0].horizon, max(s.max_delay for s in schedules)) + 1


def lockstep_as_alone(family, T, restarts, schedules):
    """Step one ``family`` row per schedule in lockstep, doubling where ``restarts`` says,
    and assert each row bitwise what its learner gives alone: decisions, weights, dropped
    count, epoch starts and c_log.  A fixed-horizon row never restarts and drops nothing.
    A Mild-OGD batch is also stepped by hand, as it is and with every row fixed-horizon, a
    bare run axis given its rows' arrival plans (``rows_by_hand``).  Returns the traces of
    the learners run alone."""
    box = Box(2, 1.0)
    families = [make_drift_environment(box, T, 0.2, "linear", 30 + r, 1.0)[0]
                for r in range(len(restarts))]
    batch, makes, alone = lockstep_learners(family, box, T, restarts, schedules)
    trace = simulate(batch, stack(families), schedules, box, makes)
    ones = [simulate(learner, f, s, box, make)
            for (learner, make), f, s in zip(alone, families, schedules)]
    for run, one in zip(trace.runs(), ones):
        assert run.decisions.tobytes() == one.decisions.tobytes()
        assert (run.dropped, run.epoch_starts, run.c_log) == (one.dropped, one.epoch_starts,
                                                              one.c_log)
        if family == "mild":
            assert run.weights.tobytes() == one.weights.tobytes()
    assert trace.epoch_starts == ([one.epoch_starts for one in ones] if any(restarts) else None)
    assert trace.dropped == [one.dropped for one in ones]
    if family == "mild":
        assert len(batch._store) <= store_bound(schedules)
        for flags in (restarts, [False] * len(restarts)):
            rows_by_hand(*lockstep_learners(family, box, T, flags, schedules), families,
                         schedules)
    return ones


def rows_by_hand(batch, makes, alone, families, schedules):
    """Drive a Mild-OGD ``batch`` and its rows' learners alone round by round, the batch's
    deliveries padded below as ``simulate`` pads them, and the batch given its rows' arrival
    plans (``follow``), cut to the stamps the epochs keep.  A doubling row opens epoch v at
    the rounds ``per_round_epochs`` gives: its row of the batch by ``set_row(r,
    make(2**v))``, its learner alone by a fresh ``make(2**v)``.  After every round each row
    must be its learner alone bitwise (decision, log_w, weights), and the spread store must
    hold at most ``store_bound`` slots."""
    alone = [learner for learner, _ in alone]
    R, T, n = len(alone), schedules[0].horizon, batch.box.dim
    starts = [None if make is None else per_round_epochs(s)[0]
              for s, make in zip(schedules, makes)]
    kept = [kept_by_definition(s, epochs) for s, epochs in zip(schedules, starts)]
    batch.follow(schedules, [np.array(keep) for keep in kept])
    arrivals = [{t: [k for k in s.stamps[s.offsets[j]:s.offsets[j + 1]].tolist() if keep[k - 1]]
                 for j, t in enumerate(s.rounds.tolist())} for s, keep in zip(schedules, kept)]
    grads = np.zeros((R, T, n))
    for t in range(1, max(max(a) for a in arrivals) + 1):
        for r, (epochs, make) in enumerate(zip(starts, makes)):
            if epochs is not None and t in epochs[1:]:
                beta = 2 ** (epochs.index(t) + 1)
                batch.set_row(r, make(beta))
                alone[r] = make(beta)
        if t <= T:
            x = batch.play(t)
            for r, learner in enumerate(alone):
                assert x[r].tobytes() == learner.play(t).tobytes()
                grads[r, t - 1] = families[r].gradient(t, x[r])
        cols = [a.get(t, []) for a in arrivals]
        if any(cols):
            rows = [[col[i] if i < len(col) else 0 for col in cols]
                    for i in range(max(map(len, cols)))]
            block = np.zeros((len(rows), R, n))
            for r, col in enumerate(cols):
                block[:len(col), r] = grads[r, np.array(col, dtype=int) - 1]
            batch.ingest(t, rows, block)
            for r, col in enumerate(cols):
                if col:
                    alone[r].ingest(t, col, grads[r, np.array(col) - 1])
        for r, learner in enumerate(alone):
            assert batch.log_w[r].tobytes() == learner.log_w.tobytes()
            assert batch.weights[r].tobytes() == learner.weights.tobytes()
        assert len(batch._store) <= store_bound(schedules)


@pytest.mark.parametrize("family", ["dogd", "mild"])
def test_a_fixed_row_and_a_doubling_row_step_together_each_as_alone(family):
    # permuted delays make the doubling row drop stale stamps and restart more than once
    T = 150
    _, doubling = lockstep_as_alone(family, T, [False, True],
                                    [uniform_schedule(T, 1, 9, 5), permuted_schedule(T, 6)])
    assert doubling.dropped > 0
    assert len(doubling.epoch_starts) > 2


@pytest.mark.parametrize("family", ["dogd", "mild"])
@settings(max_examples=40, deadline=None)
@given(case=lockstep_rows())
@example(case=(150, [True, False, True], [constant_schedule(150, 1), constant_schedule(150, 20),
                                          constant_schedule(150, 20)]))
@example(case=(150, [True, True, False], [block_schedule(150, 64), block_schedule(150, 16),
                                          constant_schedule(150, 1)]))
@example(case=(120, [False, True, True], [permuted_schedule(120, 3), constant_schedule(120, 130),
                                          block_schedule(120, 64)]))
def test_fixed_and_doubling_rows_step_together_each_as_alone_on_any_delays(family, case):
    lockstep_as_alone(family, *case)


def test_a_wide_mild_dt_batch_doubles_its_store_up_to_the_largest_kept_delay():
    # 32 doubling rows on permuted delays restart at different rounds, so some row gets
    # feedback nearly every round; the store still only doubles as mixes are made, up to
    # the ring's length M = min(T, the largest delay a row keeps), which the stamps cut
    # from the restarting rows' plans make shorter than the largest delay
    T, R, box = 1000, 32, Box(2, 1.0)
    schedules = [permuted_schedule(T, seed) for seed in range(R)]
    batch, make = consumption_learner("mild_dt", box, T, R)
    sizes, play = [], batch.play

    def spied(t, stop=None):
        x = play(t, stop)
        sizes.append(len(batch._store))
        return x

    batch.play = spied
    families = [make_drift_environment(box, T, 0.1, "quadratic", r, 1.0)[0] for r in range(R)]
    trace = simulate(batch, stack(families), schedules, box, make)
    longest = max(d for s, starts in zip(schedules, trace.epoch_starts)
                  for d, keep in zip(s.delays.tolist(), kept_by_definition(s, starts)) if keep)
    M = min(T, longest)
    assert M < min(T, max(s.max_delay for s in schedules))
    assert len(set(sizes)) - 1 <= math.ceil(math.log2(M)) + 1  # sizes only grow
    assert max(sizes) <= M + 1


def epoch_learners(make, losses, schedule, box):
    """Run a restarting learner of ``make`` from its first epoch, make(2); returns the
    trace and a copy of each epoch's learner as it opened, in order."""
    first = make(2)
    opened = [copy.deepcopy(first)]
    trace = simulate(first, losses, schedule, box,
                     lambda beta: opened.append(make(beta)) or opened[-1])
    return trace, opened


@settings(max_examples=60, deadline=None)
@given(D=st.floats(0.01, 100.0), G=st.floats(0.01, 100.0), T=st.integers(1, 300),
       d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(D=3.0, G=0.3, T=300, d=12, seed=0)
@example(D=3.0, G=1.5, T=300, d=1, seed=1)
def test_epoch_v_runs_the_fixed_horizon_rates_at_budget_2_to_the_v(D, G, T, d, seed):
    box = Box(1, 1.0)
    schedule, losses = uniform_schedule(T, 1, d, seed), zero_losses(T)
    cfgs = [harness.normalize_config({"T": T, "D": D, "G": G, "learner": {"name": name}})
            for name in ("dogd_dt", "mild_dt")]
    (dogd_first, dogd_make, _), (mild_first, mild_make, _) = (
        harness._build_learner([cfg], box, [schedule.sum_backlog]) for cfg in cfgs)
    dogd, inners = epoch_learners(dogd_make, losses, schedule, box)
    assert inners[0].eta == dogd_first.eta
    for v, inner in enumerate(inners, 1):
        assert inner.eta == corollary_lr(D, G, 2**v)
    mild, inners = epoch_learners(mild_make, losses, schedule, box)
    assert inners[0].expert_rates.tobytes() == mild_first.expert_rates.tobytes()
    assert inners[0].alpha == mild_first.alpha
    assert len(inners) == len(mild.epoch_starts) == len(dogd.epoch_starts)
    for v, inner in enumerate(inners, 1):
        assert inner.expert_rates.tobytes() == mild_lr_grid(D, G, 2**v, T).tobytes()
        assert inner.alpha == hedge_alpha(D, G, 2**v)


def test_mild_dt_reinitializes_weights_on_restart():
    box = Box(1, 1.0)
    T = 120
    losses, _ = make_drift_environment(box, T, 0.3, "linear", 14, 1.0)
    sched = uniform_schedule(T, 1, 6, 15)
    make = FAMILIES["mild"].tuned(box, 2.0, 1.0, T)
    trace = simulate(make(2), losses, sched, box, make)
    assert len(trace.epoch_starts) > 1
    assert float(np.abs(trace.weight_sums - 1.0).max()) <= 1e-9


def test_mild_dt_rates_scale_with_epoch():
    box = Box(1, 1.0)
    make = FAMILIES["mild"].tuned(box, 2.0, 1.0, 100)
    learner = make(2)
    base = learner.expert_rates.copy()  # a restart writes the learner's rates in place
    s = DelaySchedule((2, 1))
    losses = Linear(np.ones((2, 1)))
    simulate(learner, losses, s, box, make)
    after = learner.expert_rates
    assert np.allclose(np.array(base) / np.array(after), math.sqrt(2.0))


# --- the cached Mild-OGD against the per-round, per-arrival reference ---------

class ReferenceMild(MildOGD):
    """Mild-OGD without the cache: a fresh mix every round, one surrogate
    product per arrival, added onto zeros in timestamp order, and its own pool
    step, one ``np.clip`` per gradient."""

    def __init__(self, box, expert_rates, alpha):
        super().__init__(box, expert_rates, alpha)
        self.meta_plays, self.expert_plays = {}, {}

    def play(self, t, stop=None):
        xs = self.pool.y
        h = self.box.half_width
        x = (self.weights @ xs).clip(-h, h)
        for s in range(t, (stop or t) + 1):
            self.expert_plays[s], self.meta_plays[s] = xs, x
        return x.copy()

    def ingest(self, t, stamps, grads):
        if not stamps:
            return
        loss_sums = np.zeros(self.expert_rates.size)
        for k, g in zip(stamps, grads):
            loss_sums += (self.expert_plays.pop(k) - self.meta_plays.pop(k)) @ g
        self.log_w = delayed_hedge_update(self.log_w, self.alpha, loss_sums)
        h, y = self.box.half_width, self.pool.y
        for g in grads:
            y = np.clip(y - self.expert_rates[:, None] * g, -h, h)
        self.pool.y = y

    def set_row(self, r, other):
        """A restart: the one run becomes ``other`` whole, with none of its own state."""
        self.__dict__.update(other.__dict__)


def mild_history(learner, losses, schedule, make=None):
    """Per round: the decision, and the weights and log-weights after the round's ingest.
    A restarting learner (a ``make``) opens epoch v at the rounds ``per_round_epochs``
    gives, by ``set_row(None, make(2**v))``, and is handed only the stamps its epochs
    keep."""
    starts = None if make is None else per_round_epochs(schedule)[0]
    keep = kept_by_definition(schedule, starts)
    grads = np.empty((schedule.horizon, learner.box.dim))
    history = []
    j = 0
    for t in range(1, schedule.horizon + 1):
        if starts is not None and t in starts[1:]:
            learner.set_row(None, make(2 ** (starts.index(t) + 1)))
        x = learner.play(t)
        grads[t - 1] = losses.gradient(t, x)
        if schedule.rounds[j] == t:
            stamps = [k for k in schedule.stamps[schedule.offsets[j]:schedule.offsets[j + 1]]
                      .tolist() if keep[k - 1]]
            if stamps:
                learner.ingest(t, stamps, grads[np.asarray(stamps) - 1])
            j += 1
        history.append((t, x.tobytes(), learner.weights.tobytes(), learner.log_w.tobytes()))
    return history


def test_weight_sums_are_the_sums_of_the_recorded_weight_rows_bitwise():
    # simulate keeps a (T, [R,] N) weight history and sums it once after the loop; that
    # must equal the per-round sums of the weights each run held, alone and in a batch,
    # with N = 8 and more (NumPy's 8-lane pairwise sum) too
    box, T, alphas = Box(2, 1.0), 150, [0.7, 1.3, 2.0]
    schedules = [uniform_schedule(T, 1, 9, s) for s in range(3)]
    families = [make_drift_environment(box, T, 0.2, "linear", 20 + s, 1.0)[0] for s in range(3)]
    for N in (1, 5, 8, 9, 17):
        rates = 0.05 * np.exp2(np.arange(N))
        batch = simulate(MildOGD(box, np.tile(rates, (3, 1)), np.array(alphas)),
                         stack(families), schedules, box)
        for r, run in enumerate(batch.runs()):
            rows = [np.frombuffer(w) for _, _, w, _ in
                    mild_history(MildOGD(box, rates, alphas[r]), families[r], schedules[r])]
            sums = np.array([row.sum() for row in rows]).tobytes()
            alone = simulate(MildOGD(box, rates, alphas[r]), families[r], schedules[r], box)
            for trace in (alone, run):
                assert trace.weights.tobytes() == b"".join(row.tobytes() for row in rows)
                assert trace.weight_sums.tobytes() == sums


_MILD_DELAYS = {
    "constant": lambda T, d, seed: constant_schedule(T, d),
    "uniform": lambda T, d, seed: uniform_schedule(T, 1, d, seed),
    "permuted": lambda T, d, seed: permuted_schedule(T, seed),
    "blocks": lambda T, d, seed: block_schedule(T, d),
}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), kind=st.sampled_from(sorted(_MILD_DELAYS)), T=st.integers(1, 260),
       d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       loss=st.sampled_from(["quadratic", "linear"]),
       rates=st.none() | st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=40))
@example(n=1, kind="blocks", T=256, d=64, seed=1, loss="linear", rates=None)
@example(n=3, kind="blocks", T=200, d=64, seed=2, loss="quadratic", rates=[0.5])
@example(n=5, kind="permuted", T=260, d=1, seed=3, loss="quadratic", rates=None)
def test_cached_mild_matches_the_per_round_reference_bitwise(n, kind, T, d, seed, loss, rates):
    box, G = Box.from_diameter(n, 2.0), 1.0
    losses, _ = make_drift_environment(box, T, 0.1, loss, seed, G)
    schedule = _MILD_DELAYS[kind](T, d, seed)
    sum_m = schedule.sum_backlog
    if rates is None:
        rates = mild_lr_grid(box.diameter, G, sum_m, T)
    alpha = hedge_alpha(box.diameter, G, sum_m)
    assert mild_history(MildOGD(box, rates, alpha), losses, schedule) == \
        mild_history(ReferenceMild(box, rates, alpha), losses, schedule)
    make = FAMILIES["mild"].tuned(box, box.diameter, G, T)

    def reference(beta):  # ReferenceMild at the paper rates for budget beta
        return ReferenceMild(box, mild_lr_grid(box.diameter, G, beta, T),
                             hedge_alpha(box.diameter, G, beta))

    assert mild_history(make(2), losses, schedule, make) == \
        mild_history(reference(2), losses, schedule, reference)
