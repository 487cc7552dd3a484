import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayed_oco import (
    Box,
    DelayedOGD,
    bound_lemma3,
    bound_thm2,
    dynamic_regret,
    harness,
    learners,
    make_lowerbound_instance,
    simulate,
)
from delayed_oco.delay import KINDS, constant_schedule
from delayed_oco.harness import run_experiment, run_many, trace_to_csv
from delayed_oco.losses import Linear, QuadraticTracking
from delayed_oco.metrics import (
    RunTrace,
    bound_cor1,
    bound_lower,
    bound_thm1,
    bound_thm4,
    bound_thm5,
    grid_minimum,
    joint_effect,
    minimize_total_loss,
    reorder_penalty,
    static_regret,
)
from delayed_oco.invariants import joint_effect_caps, random_schedule, zero_losses

SQ2 = math.sqrt(2.0)


# --- regrets -----------------------------------------------------------------

def trace_of(xs, losses) -> RunTrace:
    """A trace that played ``xs`` on ``losses``, its loss values as ``simulate`` records them."""
    return RunTrace(xs, losses.values(xs), constant_schedule(len(xs), 1))


def test_dynamic_regret_zero_when_matching_comparators():
    losses = Linear(np.tile([1.0, -1.0], (4, 1)))
    xs = np.tile([0.25, 0.5], (4, 1))
    assert dynamic_regret(trace_of(xs, losses), losses, xs.copy()) == 0.0


def test_dynamic_regret_linear_example():
    losses = Linear(np.ones((5, 1)))
    xs = np.zeros((5, 1))
    us = -np.ones((5, 1))
    assert dynamic_regret(trace_of(xs, losses), losses, us) == pytest.approx(5.0)


def test_dynamic_regret_constant_comparator_is_static_at_that_point():
    rng = np.random.default_rng(40)
    losses = Linear(np.array([rng.normal(size=2) for t in range(6)]))
    xs = rng.uniform(-1, 1, size=(6, 2))
    point = np.array([0.3, -0.3])
    us = np.tile(point, (6, 1))
    direct = sum(losses.value(t, x) for t, x in enumerate(xs, start=1)) \
        - sum(losses.value(t, point) for t in range(1, 7))
    assert dynamic_regret(trace_of(xs, losses), losses, us) == pytest.approx(direct)


def test_dynamic_regret_length_mismatch():
    trace = trace_of(np.zeros((2, 1)), Linear(np.ones((2, 1))))
    with pytest.raises(ValueError):
        dynamic_regret(trace, Linear(np.ones((1, 1))), np.zeros((2, 1)))


def test_static_regret_zero_losses():
    losses = Linear(np.zeros((3, 1)))
    least = minimize_total_loss(losses, Box(1, 1.0))[1]
    assert static_regret(trace_of(np.zeros((3, 1)), losses), least) == 0.0


def test_static_regret_linear_closed_form():
    losses = Linear(np.array([[1.0], [-1.0], [1.0]]))
    least = minimize_total_loss(losses, Box(1, 1.0))[1]
    assert static_regret(trace_of(np.zeros((3, 1)), losses), least) == pytest.approx(1.0)


def test_static_regret_adversarial_instance_matches_vertex_oracle():
    _, losses = make_lowerbound_instance(30, 5, 2.0, 1.0, 3, seed=8)
    box = Box.from_diameter(3, 2.0)
    xs = np.zeros((30, 3))
    best = min(sum(losses.value(t, v) for t in range(1, 31)) for v in box.vertices())
    played = sum(losses.value(t, x) for t, x in enumerate(xs, start=1))
    least = minimize_total_loss(losses, box)[1]
    assert static_regret(trace_of(xs, losses), least) == pytest.approx(played - best)


def test_quadratic_hindsight_optimum_is_projected_mean():
    box = Box(2, 0.25)
    losses = QuadraticTracking(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
    x, _ = minimize_total_loss(losses, box)
    assert np.allclose(x, [0.25, 0.25])  # mean (0.5, 0.5) clamped


def test_closed_forms_match_grid():
    rng = np.random.default_rng(41)
    box = Box.from_diameter(2, 2.0)
    lin = Linear(np.array([rng.uniform(-1, 1, 2) for t in range(7)]))
    quad = QuadraticTracking(np.array([box.random_point(rng) for t in range(7)]), 0.5)
    for losses, lipschitz in ((lin, np.linalg.norm(lin.grads, axis=1).sum()),
                              (quad, len(quad) * quad.scale * box.diameter)):
        _, closed = minimize_total_loss(losses, box)
        _, grid = grid_minimum(losses, box)
        assert grid >= closed - 1e-12          # the grid cannot beat the true optimum
        assert grid - closed <= lipschitz * 2e-3


def test_grid_above_two_dims_unsupported():
    box = Box(3, 1.0)
    for losses in (Linear(np.ones((2, 3))), QuadraticTracking(np.zeros((2, 3)), 1.0)):
        with pytest.raises(ValueError, match="n <= 2"):
            grid_minimum(losses, box)


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
    ok, detail = joint_effect_caps(np.random.default_rng(43), runs=100, T_max=49, d_max=7)
    assert ok, detail


@pytest.mark.parametrize("delay", [{"kind": "permuted"}, {"kind": "uniform", "lo": 1, "hi": 9}])
@pytest.mark.parametrize("n", [1, 3])
def test_joint_effect_and_bound_thm1_from_their_definitions(delay, n):
    # out-of-order dogd runs against random comparators; everything below is recomputed
    # from the delays alone, with Python loops: c_t orders timestamps by (k + d_k - 1, k)
    rng = np.random.default_rng(45 + n)
    T, D, G = 150, 2.0, 1.0
    h = Box.from_diameter(n, D).half_width
    for seed in range(3):
        us = rng.uniform(-h, h, (T, n))
        trace, summary = run_experiment({
            "T": T, "n": n, "D": D, "G": G, "seed": seed, "learner": {"name": "dogd"},
            "delay": delay, "environment": {"kind": "drift", "step": 0.05},
            "comparators": {"kind": "list", "points": us.tolist()}})
        d = trace.schedule.to_list()
        arrival = [k + d[k - 1] - 1 for k in range(1, T + 1)]
        c = sorted(range(1, T + 1), key=lambda k: (arrival[k - 1], k))
        u = us.tolist()

        def dist(a, b):
            return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        joint = sum(dist(u[t - 1], u[c[t - 1] - 1]) for t in range(1, T + 1))
        P_T = sum(dist(u[t - 1], u[t - 2]) for t in range(2, T + 1))
        sum_m = sum(1 + sum(1 for k in range(1, t) if arrival[k - 1] >= t)
                    for t in range(1, T + 1))
        eta = D / (G * math.sqrt(sum_m))
        bound = (D * D + D * P_T) / eta + eta * G * G * sum_m + G * joint
        assert not summary["in_order"] and joint > 0
        assert summary["joint_effect"] == pytest.approx(joint, rel=1e-12)
        assert summary["bound_thm1"] == pytest.approx(bound, rel=1e-12)


_LEARNERS = list(learners.KINDS)
_DELAY_KINDS = list(KINDS)  # a new kind needs its spec in _reference_configs
_COMPARATOR_KINDS = ["auto", "targets", "best_fixed", "constant", "piecewise", "list"]


@st.composite
def _reference_configs(draw, cover: int | None = None):
    """A valid config of any learner, delay kind and comparator kind: n <= 3, T <= 300,
    1-3 repetitions; long lists are drawn by NumPy from a drawn seed.  ``cover`` = i
    fixes the learner, delay kind and comparator kind to the i-th of each (cycling)."""
    T, n = draw(st.integers(1, 300)), draw(st.integers(1, 3))
    D, G = draw(st.sampled_from([1.0, 2.0, 3.0])), draw(st.sampled_from([0.5, 1.0, 1.5]))
    rng, h = np.random.default_rng(draw(st.integers(0, 2**32))), Box.from_diameter(n, D).half_width
    if cover is None:
        learner, kind = draw(st.sampled_from(_LEARNERS)), draw(st.sampled_from(_DELAY_KINDS))
    else:
        learner, kind = _LEARNERS[cover % len(_LEARNERS)], _DELAY_KINDS[cover]
    lo = draw(st.integers(1, 6))
    delay = {"kind": kind, **{
        "constant": {"value": lo}, "uniform": {"lo": lo, "hi": lo + draw(st.integers(0, 8))},
        "blocks": {"d": draw(st.integers(1, 40))}, "permuted": {},
        "in_order_random": {"d_max": draw(st.integers(1, 12))},
        "list": {"values": rng.integers(1, 13, T).tolist()}}[kind]}
    environment = "drift" if cover == 1 else draw(st.sampled_from(
        ["drift", "linear_list"] + (["lowerbound"] if kind == "blocks" else [])))
    environment = {"kind": environment, **{
        "drift": {"step": draw(st.sampled_from([0.0, 0.02, 0.3])),
                  "loss": draw(st.sampled_from(["quadratic", "linear"]))},
        "linear_list": {"gradients": (rng.uniform(-1, 1, (T, n)) * G / math.sqrt(n)).tolist()},
        "lowerbound": {}}[environment]}
    kinds = [k for k in _COMPARATOR_KINDS if k != "targets" or environment["kind"] == "drift"]
    kind = _COMPARATOR_KINDS[cover] if cover is not None else draw(st.sampled_from(kinds))
    comparators = {"kind": kind, **{
        "constant": {"point": draw(st.sampled_from(["origin", rng.uniform(-2 * h, 2 * h, n)
                                                                .tolist()]))},
        "piecewise": {"path_budget": draw(st.sampled_from([0.0, 1.0, 4.0, 50.0]))},
        "list": {"points": rng.uniform(-h, h, (T, n)).tolist()}}.get(kind, {})}
    return {"T": T, "n": n, "D": D, "G": G, "seed": draw(st.integers(0, 10**6)),
            "repetitions": draw(st.integers(1, 3)),
            "learner": {"name": learner},
            "delay": delay, "environment": environment, "comparators": comparators}


def _near(value, reference, terms):
    return abs(value - reference) <= 1e-12 * math.fsum(map(abs, terms))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("cover", [None, 0, 1, 2, 3, 4, 5])
def test_run_summaries_match_a_reference_from_the_definitions(cover, data):
    """S, d_max, in_order, sum_m, path_length, both regrets and, for a run that does not
    restart, the consumption log and the joint effect, recomputed with Python loops from
    each run's delays, losses, comparators and decisions; the covering cases pin each
    learner, delay kind and comparator kind in turn."""
    config = data.draw(_reference_configs(cover))
    cfg = harness.normalize_config(config)
    seeds = [cfg["seed"] + rep for rep in range(cfg["repetitions"])]
    T, n = cfg["T"], cfg["n"]
    for inputs, (trace, summary) in zip(harness._build_inputs(cfg, seeds), run_many(config)):
        losses, h = inputs.losses, inputs.box.half_width
        d = inputs.schedule.to_list()
        arrival = [k + d[k - 1] - 1 for k in range(1, T + 1)]
        landed, sum_m, before = collections.Counter(arrival), 0, 0  # landed[i] = |F_i|
        for t in range(1, T + 1):
            sum_m += t - before  # m_t = t - sum_{i<t} |F_i|
            before += landed[t]
        assert (summary["S"], summary["d_max"], summary["sum_m"]) == (sum(d), max(d), sum_m)
        assert summary["in_order"] == all(a <= b for a, b in zip(arrival, arrival[1:]))

        u, x = inputs.comparators.tolist(), trace.decisions.tolist()
        steps = [math.sqrt(sum((p - q) ** 2 for p, q in zip(u[t], u[t - 1])))
                 for t in range(1, T)]
        assert _near(summary["path_length"], math.fsum(steps), steps)
        if cfg["learner"]["name"].endswith("_dt"):  # a restart drops stale feedback
            assert trace.c_log is None and summary["joint_effect"] is None
        else:  # c_t orders the timestamps by (arrival round, timestamp)
            c = sorted(range(1, T + 1), key=lambda k: (arrival[k - 1], k))
            assert trace.c_log == tuple(c)
            shifts = [math.sqrt(sum((p - q) ** 2 for p, q in zip(u[t - 1], u[c[t - 1] - 1])))
                      for t in range(1, T + 1)]
            assert _near(summary["joint_effect"], math.fsum(shifts), shifts)
        played = [losses.value(t, np.array(x[t - 1])) for t in range(1, T + 1)]
        scored = [losses.value(t, np.array(u[t - 1])) for t in range(1, T + 1)]
        assert _near(summary["regret_dynamic"], math.fsum(played) - math.fsum(scored),
                     played + scored)
        if isinstance(losses, Linear):
            g = losses.grads.tolist()
            best = min((math.fsum(sum(gi * vi for gi, vi in zip(row, v)) for row in g), v)
                       for v in itertools.product((-h, h), repeat=n))[1]
        else:
            best = [min(h, max(-h, math.fsum(row[i] for row in losses.targets.tolist()) / T))
                    for i in range(n)]
        optimum = [losses.value(t, np.array(best)) for t in range(1, T + 1)]
        assert _near(summary["regret_static"], math.fsum(played) - math.fsum(optimum),
                     played + optimum)


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
        s = random_schedule(rng, T_max=59, d_max=8)
        T = s.horizon
        trace = simulate(DelayedOGD(box, 0.1), zero_losses(T), s, box)
        rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
        arrival = [k + d - 1 for k, d in enumerate(s.to_list(), start=1)]
        for t, row in enumerate(rows, start=1):
            live = sum(1 for k in range(1, t) if arrival[k - 1] >= t)
            F = [k for k in range(1, T + 1) if arrival[k - 1] == t]
            assert row[4:] == [str(1 + live), str(len(F)), ";".join(map(str, F))]
