import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_oco import DelayedOGD, DogdDoublingTrick, simulate
from delayed_oco.delay import (
    DelaySchedule,
    block_schedule,
    constant_schedule,
    in_order_random_schedule,
    make_schedule,
    permuted_schedule,
    uniform_schedule,
)
from delayed_oco.geometry import Box
from delayed_oco.harness import run_experiment
from delayed_oco.invariants import (arrivals_at, delay_partition_backlog, random_schedule,
                                    zero_losses)


def plan_sets(s):
    """The arrival plan as {round: stamps}, one entry per round that receives feedback."""
    offsets = s.offsets.tolist()
    return dict(zip(s.rounds.tolist(), (s.stamps[a:b].tolist()
                                        for a, b in zip(offsets, offsets[1:]))))


def delivered(s):
    """F_1, ..., F_{T+d_max-1} as the plan delivers them."""
    plan = plan_sets(s)
    return [plan.get(t, []) for t in range(1, s.horizon + s.max_delay)]


# --- arrival sets ---------------------------------------------------------

def test_feedback_sets_example():
    s = DelaySchedule((1, 2, 1))
    assert delivered(s) == [arrivals_at(s, t) for t in range(1, 5)] == [[1], [], [2, 3], []]


def test_feedback_sets_no_delay():
    s = DelaySchedule((1, 1, 1))
    assert delivered(s) == [arrivals_at(s, t) for t in (1, 2, 3)] == [[1], [2], [3]]


def test_feedback_sets_out_of_order():
    s = DelaySchedule((3, 1, 1))
    assert delivered(s) == [arrivals_at(s, t) for t in range(1, 6)] == [[], [2], [1, 3], [], []]


def test_partition_property():
    ok, detail = delay_partition_backlog(np.random.default_rng(10), runs=300, T_max=80, d_max=12)
    assert ok, detail


def test_in_order_delivery_is_identity():
    rng, box = np.random.default_rng(11), Box(1, 1.0)
    for seed in range(100):
        s = in_order_random_schedule(int(rng.integers(1, 100)), int(rng.integers(1, 10)), seed)
        assert s.is_in_order()
        by_definition = [k for t in range(1, s.horizon + s.max_delay) for k in arrivals_at(s, t)]
        assert s.stamps.tolist() == by_definition == list(range(1, s.horizon + 1))
        c_log = simulate(DelayedOGD(box, 0.1), zero_losses(s.horizon), s, box).c_log
        assert c_log == tuple(by_definition)


def in_order_by_definition(T, d_max, seed):
    """Delays whose arrival rounds are the running max of t + r_t - 1, in Python ints."""
    draws = np.random.default_rng(seed).integers(1, d_max + 1, size=T).tolist()
    arrivals = itertools.accumulate((t + r - 1 for t, r in enumerate(draws, 1)), max)
    return [a - t + 1 for t, a in enumerate(arrivals, 1)]


@pytest.mark.parametrize("d_max", [1, 8, 64, 2**40, 2**63 - 64])
def test_in_order_random_is_the_running_max_of_its_draws(d_max):
    for seed in range(5):
        s = in_order_random_schedule(40, d_max, seed)
        assert s.delays.tolist() == in_order_by_definition(40, d_max, seed)
        assert s.is_in_order() and s.max_delay <= d_max


def test_in_order_random_refuses_a_d_max_past_int64():
    with pytest.raises(ValueError):
        in_order_random_schedule(3, 10**30, 0)


# --- in-order predicate ---------------------------------------------------

def test_is_in_order_examples():
    assert DelaySchedule((1, 1, 1)).is_in_order()
    assert not DelaySchedule((3, 1, 1)).is_in_order()
    assert DelaySchedule((2, 2, 2)).is_in_order()


# --- backlog --------------------------------------------------------------

def test_backlog_examples():
    assert list(DelaySchedule((1, 2, 1)).backlog()) == [1, 1, 2]
    assert list(DelaySchedule((1, 1, 1)).backlog()) == [1, 1, 1]
    m = DelaySchedule((3, 3, 3)).backlog()
    assert list(m) == [1, 2, 3] and m.sum() == 6 <= 9


def test_backlog_counts_outstanding_gradients():
    # m_t - 1 equals the number of queried-but-undelivered gradients
    ok, detail = delay_partition_backlog(np.random.default_rng(12), runs=200, T_max=60, d_max=10)
    assert ok, detail


def test_backlog_sum_bounds():
    ok, detail = delay_partition_backlog(np.random.default_rng(13), runs=200, T_max=60, d_max=10)
    assert ok, detail


# --- epoch-restricted sets --------------------------------------------------

def test_epoch_feedback_set_drops_stale():
    # delays (3, 1, 1) open epoch 2 at round 2; round 3 delivers F_3 = {1, 3}
    # and the restarted learner keeps only the timestamps >= 2
    s, box = DelaySchedule((3, 1, 1)), Box(1, 1.0)
    learner = DogdDoublingTrick(box, 2.0, 1.0)
    seen, make = [], learner.make

    def spied(beta):  # a restart's learner, recording the timestamps it is handed
        inner = make(beta)
        ingest = inner.ingest
        inner.ingest = lambda t, stamps, grads: (seen.extend(stamps), ingest(t, stamps, grads))
        return inner

    learner.make = spied
    trace = simulate(learner, zero_losses(3, "quadratic"), s, box)  # the round loop
    assert learner.epoch_starts == [1, 2]
    assert plan_sets(s)[3] == arrivals_at(s, 3) == [1, 3]
    assert seen == [k for t in (2, 3) for k in arrivals_at(s, t) if k >= 2]
    assert trace.dropped == 1


def test_epoch_feedback_set_drops_stale_on_the_walk_path():
    # on linear losses the epoch's learner walks the timestamps it keeps, in one descend
    s, box = DelaySchedule((3, 1, 1)), Box(1, 1.0)
    learner = DogdDoublingTrick(box, 2.0, 1.0)
    seen, make = [], learner.make

    def spied(beta):  # a restart's learner, recording the timestamps it walks
        inner = make(beta)
        descend = inner.descend
        inner.descend = lambda row, stamps, *rest: (seen.extend(stamps.tolist()),
                                                    descend(row, stamps, *rest))
        return inner

    learner.make = spied
    trace = simulate(learner, zero_losses(3), s, box)
    assert learner.epoch_starts == [1, 2]
    assert seen == [k for t in (2, 3) for k in arrivals_at(s, t) if k >= 2]
    assert trace.dropped == 1


def test_epoch_feedback_set_full_from_start():
    rng = np.random.default_rng(14)
    for _ in range(50):
        s = random_schedule(rng, T_max=40, d_max=6)
        plan = plan_sets(s)
        for t in range(1, s.horizon + 1):
            assert plan.get(t, []) == arrivals_at(s, t)


def test_epoch_feedback_set_pending_item():
    s = DelaySchedule((2, 2))  # timestamp 2 is still pending at round 2: it arrives at 3
    assert plan_sets(s) == {2: [1], 3: [2]}
    assert arrivals_at(s, 2) == [1] and arrivals_at(s, 3) == [2]


# --- generators -------------------------------------------------------------

def test_block_schedule_example():
    assert block_schedule(10, 3).to_list() == [3, 2, 1, 3, 2, 1, 3, 2, 1, 1]


def test_block_schedule_unit_blocks():
    assert block_schedule(5, 1).to_list() == [1, 1, 1, 1, 1]


def test_block_schedule_properties():
    for T, d in [(10, 3), (17, 5), (4, 9), (100, 7)]:
        s = block_schedule(T, d)
        assert all(1 <= v <= d for v in s.delays)
        assert s.is_in_order()
        # every gradient lands exactly at its block's final round
        for t in range(1, T + 1):
            z = (t - 1) // d + 1
            assert s.arrival_round(t) == min(z * d, T)


def test_constant_schedule():
    assert constant_schedule(4, 1).to_list() == [1, 1, 1, 1]


def test_generators_deterministic():
    assert uniform_schedule(50, 1, 9, 123).to_list() == uniform_schedule(50, 1, 9, 123).to_list()
    assert permuted_schedule(50, 7).to_list() == permuted_schedule(50, 7).to_list()


def test_permuted_schedule_valid():
    for seed in range(20):
        s = permuted_schedule(30, seed)
        assert all(v >= 1 for v in s.delays)


@pytest.mark.parametrize("T", [1, 2, 3, 17, 500])
def test_permuted_schedule_matches_the_per_round_formula(T):
    for seed in range(5):
        slots = np.random.default_rng(seed).permutation(T) + 1
        expected = [int(max(p, t) - t + 1) for t, p in enumerate(slots, start=1)]
        delays = permuted_schedule(T, seed).delays
        assert delays.tolist() == expected and delays.dtype == np.int64


@pytest.mark.parametrize("T", [1, 2, 3, 17, 500])
def test_generators_match_the_per_round_formulas(T):
    for d in (1, 2, 7, T, T + 5, 10**30):
        expected = [min(((t - 1) // d + 1) * d, T) - t + 1 for t in range(1, T + 1)]
        assert block_schedule(T, d).to_list() == expected
    for seed in range(3):
        draws = np.random.default_rng(seed).integers(2, 10, size=T)
        assert uniform_schedule(T, 2, 9, seed).to_list() == [int(v) for v in draws]
    assert constant_schedule(T, 4).to_list() == [4] * T
    for s in (block_schedule(T, 3), uniform_schedule(T, 1, 5, 0), constant_schedule(T, 2)):
        assert s.delays.dtype == np.int64


def test_make_schedule_dispatch():
    assert make_schedule({"kind": "constant", "value": 2}, 3, 0).to_list() == [2, 2, 2]
    assert make_schedule({"kind": "blocks", "d": 3}, 10, 0).to_list() == \
        block_schedule(10, 3).to_list()
    assert make_schedule({"kind": "list", "values": [1, 3, 2]}, 3, 0).to_list() == [1, 3, 2]
    with pytest.raises(ValueError):
        make_schedule({"kind": "list", "values": [1, 2]}, 3, 0)
    with pytest.raises(ValueError):
        make_schedule({"kind": "nope"}, 3, 0)
    # a missing field is a ValueError that names it, not a KeyError
    with pytest.raises(ValueError, match=r"^delay\.value: "):
        make_schedule({"kind": "constant"}, 3, 0)
    with pytest.raises(ValueError, match=r"^delay\.hi: "):
        make_schedule({"kind": "uniform", "lo": 1}, 3, 0)


def test_invalid_delays_rejected():
    with pytest.raises(ValueError):
        DelaySchedule((1, 0, 2))
    with pytest.raises(ValueError):
        DelaySchedule(())


def test_fractional_delays_rejected():
    with pytest.raises(ValueError):
        DelaySchedule((1.5, 2.9, 1))
    with pytest.raises(ValueError):
        make_schedule({"kind": "list", "values": [1.5, 2.9, 1]}, 3, 0)
    with pytest.raises(ValueError):
        make_schedule({"kind": "constant", "value": 2.5}, 3, 0)
    with pytest.raises(ValueError):
        DelaySchedule((1, float("nan")))
    for bad in ("2", True, False, np.bool_(True)):
        with pytest.raises(ValueError):
            DelaySchedule((1, bad))
    assert DelaySchedule((2.0, 1)).to_list() == [2, 1]
    assert make_schedule({"kind": "list", "values": [2.0, 1.0, 1]}, 3, 0).to_list() == [2, 1, 1]


# --- arrival plan -------------------------------------------------------------

@pytest.mark.parametrize("stamps", [[2, 1, 1], [3, 1, 2], [2, 3, 1]],
                         ids=["repeated", "before-its-round", "descending"])
def test_simulate_refuses_a_tampered_plan(stamps):
    s, box = DelaySchedule((3, 1, 1)), Box(1, 1.0)  # plan: round 2 gets [2], round 3 [1, 3]
    object.__setattr__(s, "stamps", np.array(stamps))  # the plan's arrays are read-only
    with pytest.raises(ValueError, match="arrival plan must deliver"):
        simulate(DelayedOGD(box, 0.1), zero_losses(3), s, box)


def test_schedule_fields_are_read_only_int64_arrays():
    s = permuted_schedule(20, 3)
    for name in ("delays", "stamps", "rounds", "offsets"):
        values = getattr(s, name)
        assert values.dtype == np.int64 and values.ndim == 1 and not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2
        with pytest.raises(ValueError, match="read-only"):
            values[:] = values.copy()
        with pytest.raises(AttributeError):
            setattr(s, name, values.copy())


def test_schedules_with_equal_delays_are_equal():
    s = uniform_schedule(30, 1, 9, 5)
    assert s == uniform_schedule(30, 1, 9, 5) == DelaySchedule(s.to_list())
    assert s != uniform_schedule(30, 1, 9, 6) and s != s.to_list()


def test_total_delay_stays_exact_past_int64():
    # an int64 sum of these delays wraps to -2^62
    assert constant_schedule(3, 2**62).total_delay == 3 * 2**62
    assert DelaySchedule((2**62, 2**62 - 1, 2**62 - 2)).total_delay == 3 * 2**62 - 3
    _, summary = run_experiment({"T": 3, "delay": {"kind": "constant", "value": 2**62}})
    assert summary["S"] == 3 * 2**62


def test_plan_example():
    s = DelaySchedule((3, 1, 1))
    assert s.stamps.tolist() == [2, 1, 3]
    assert s.rounds.tolist() == [2, 3]  # only rounds that receive feedback
    assert s.offsets.tolist() == [0, 1, 3]
    assert [plan_sets(s).get(t, []) for t in range(1, 5)] == \
        [arrivals_at(s, t) for t in range(1, 5)] == [[], [2], [1, 3], []]


def test_plan_delivers_each_timestamp_once_sorted():
    rng = np.random.default_rng(15)
    s = random_schedule(rng, T_max=50, d_max=8)
    seen = []
    for stamps in delivered(s):
        assert stamps == sorted(stamps)
        seen += stamps
    assert sorted(seen) == list(range(1, s.horizon + 1))
    assert delivered(s) == [arrivals_at(s, t) for t in range(1, s.horizon + s.max_delay)]


def test_arrivals_outside_the_window_are_empty():
    s = DelaySchedule((1, 1))
    assert plan_sets(s) == {1: [1], 2: [2]}
    assert arrivals_at(s, 0) == [] and arrivals_at(s, 3) == []
    assert arrivals_at(s, 1) == [1] and arrivals_at(s, 2) == [2]


def test_plan_memory_does_not_grow_with_the_delay():
    s = constant_schedule(10, 10**9)
    assert s.rounds.tolist() == list(range(10**9, 10**9 + 10))
    assert len(s.stamps) == 10 and len(s.offsets) == 11
    assert s.sum_backlog == 55
    assert plan_sets(s)[10**9 + 4] == arrivals_at(s, 10**9 + 4) == [5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=40))
def test_plan_properties(delays):
    s = DelaySchedule(tuple(delays))
    T = s.horizon
    arrival = [k + d - 1 for k, d in enumerate(delays, start=1)]
    # the plan delivers F_t = {k : k + d_k - 1 = t} at every round of the window,
    # ascending, and nothing outside it
    window = range(1, T + max(delays))
    plan = plan_sets(s)
    assert s.rounds.tolist() == sorted(plan) and set(plan) <= set(window)
    for t in window:
        assert plan.get(t, []) == arrivals_at(s, t) == [k for k in range(1, T + 1)
                                                        if arrival[k - 1] == t]
    # backlog: one plus the number of earlier gradients still in flight
    live = [1 + sum(1 for k in range(1, t) if arrival[k - 1] >= t) for t in range(1, T + 1)]
    assert list(s.backlog()) == live
    # in order: arrival rounds nondecreasing over every pair
    pairwise = all(arrival[i] <= arrival[j] for i in range(T) for j in range(i + 1, T))
    assert s.is_in_order() == pairwise
