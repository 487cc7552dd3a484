"""``simulate`` against the per-round loop, bitwise.

``simulate`` plays each stretch of rounds without feedback with one decision, or, for a
DOGD-family learner on linear losses, walks the whole plan; the reference below plays,
queries and records every round on its own, as the protocol reads.  Both must give the
same trace and leave the learner in the same state, for every learner, delay kind and
environment, one run and a lockstep batch; the round loop must hand the learner the same
feedback, and the walk path none.  On the walk path no decision may depend on a gradient
delivered at its round or later.
"""

import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayed_oco import harness, learners
from delayed_oco.delay import DelaySchedule, merge_plans
from delayed_oco.geometry import Box
from delayed_oco.losses import Linear, QuadraticTracking, stack


def run_starts(learner, runs: int | None) -> list:
    """Per run, the epoch starts of a restarting one, or None."""
    starts = getattr(learner, "epoch_starts", None)
    return [None] * (runs or 1) if starts is None else [starts] if runs is None else starts


def kept_by_definition(schedule, starts):
    """None for a run that does not restart (``starts`` None), or which stamps its epochs
    keep: stamp k iff queried no earlier than the epoch open at the round it arrives at."""
    return None if starts is None else np.array(
        [k >= starts[bisect.bisect_right(starts, schedule.arrival_round(k)) - 1]
         for k in range(1, schedule.horizon + 1)])


def reference_simulate(learner, losses, schedule, box):
    """The per-round loop: play round t, query its gradient at the played point and, when
    the plan delivers feedback at t, ingest it; record the weights after every round, and
    deliver the plan's rounds past the horizon at the end.  Returns the decisions and the
    weight history, or None.  A restarting learner takes its plan first, cut to the stamps
    its epochs keep (``kept_by_definition``)."""
    if hasattr(learner, "follow"):
        learner.follow(schedule)
    runs = None if isinstance(schedule, DelaySchedule) else len(schedule)
    schedules = [schedule] if runs is None else schedule
    rounds, offsets, stamps, slots = merge_plans(schedules, [
        kept_by_definition(*run) for run in zip(schedules, run_starts(learner, runs))])
    rounds, offsets, T = rounds.tolist(), offsets.tolist(), len(slots)
    lead = () if runs is None else (runs,)
    grads = np.zeros((len(stamps), *lead, box.dim))
    decisions = np.empty((T, *lead, box.dim))
    weights = np.empty((T, *learner.weights.shape)) if hasattr(learner, "weights") else None
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            decisions[t - 1] = x = learner.play(t)
            g = losses.gradient(t, x)
            if runs is None:
                grads[slots[t - 1, 0]] = g
            else:
                for r in range(runs):
                    grads[slots[t - 1, r] // runs, r] = g[r]
            if rounds[j] == t:
                block = stamps[offsets[j]:offsets[j + 1]]
                learner.ingest(t, block[:, 0].tolist() if runs is None else block.tolist(),
                               grads[offsets[j]:offsets[j + 1]])
                j += 1
            if weights is not None:
                weights[t - 1] = learner.weights
        for j in range(j, len(rounds)):
            block = stamps[offsets[j]:offsets[j + 1]]
            learner.ingest(rounds[j], block[:, 0].tolist() if runs is None else block.tolist(),
                           grads[offsets[j]:offsets[j + 1]])
    return decisions, weights


def recorded(learner) -> list:
    """Spy on ``learner.ingest``: the returned list gets (t, stamps, gradient bytes) per call."""
    calls, ingest = [], learner.ingest

    def spied(t, stamps, grads):
        calls.append((t, stamps, grads.tobytes()))
        ingest(t, stamps, grads)

    learner.ingest = spied
    return calls


def state(learner) -> tuple:
    """What a learner keeps between rounds: iterates, rates and weights as bytes, and a
    restarting learner's epoch starts."""
    inner = getattr(learner, "inner", learner)
    pool = getattr(inner, "pool", inner)
    return (pool.y.tobytes(), pool.eta.tobytes(), getattr(inner, "log_w", pool.y).tobytes(),
            getattr(learner, "epoch_starts", None))


_DELAYS = {
    "constant": lambda draw, T: {"value": draw(st.integers(1, 30))},
    "uniform": lambda draw, T: {"lo": 1, "hi": draw(st.integers(1, 20))},
    "blocks": lambda draw, T: {"d": draw(st.integers(1, 40))},
    "permuted": lambda draw, T: {},
    "in_order_random": lambda draw, T: {"d_max": draw(st.integers(1, 30))},
    "list": lambda draw, T: {"values": draw(st.lists(st.integers(1, 25), min_size=T,
                                                     max_size=T))},
}
_FAMILIES = {family: [name for name, kind in learners.KINDS.items() if kind.family == family]
             for family in learners.FAMILIES}


@st.composite
def batches(draw, families=tuple(sorted(_FAMILIES)), envs=("quadratic", "linear", "lowerbound")):
    """Normalized configs of 1-3 runs that may step in lockstep (one learner family, T, n
    and environment kind), each with its own learner, delay kind and run seed."""
    family, T, n = draw(st.sampled_from(families)), draw(st.integers(1, 120)), \
        draw(st.integers(1, 3))
    env = draw(st.sampled_from(envs))
    cfgs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = "blocks" if env == "lowerbound" else draw(st.sampled_from(sorted(_DELAYS)))
        cfgs.append(harness.normalize_config({
            "T": T, "n": n, "seed": draw(st.integers(0, 2**16)),
            "learner": {"name": draw(st.sampled_from(_FAMILIES[family]))},
            "delay": {"kind": kind, **_DELAYS[kind](draw, T)},
            "environment": {"kind": "lowerbound"} if env == "lowerbound" else
            {"kind": "drift", "step": draw(st.sampled_from([0.02, 0.3])), "loss": env}}))
    return cfgs


@settings(max_examples=120, deadline=None)
@given(batches())
@example([harness.normalize_config({"T": 120, "n": 1, "learner": {"name": "mild"},
                                    "delay": {"kind": "blocks", "d": 40},
                                    "environment": {"kind": "lowerbound"}})])
def test_simulate_matches_the_per_round_loop_bitwise(cfgs):
    inputs = [harness._build_inputs(cfg, [cfg["seed"]])[0] for cfg in cfgs]
    box, schedules = inputs[0].box, [i.schedule for i in inputs]
    sums = [s.sum_backlog for s in schedules]
    losses = inputs[0].losses if len(cfgs) == 1 else stack([i.losses for i in inputs])
    plan = schedules[0] if len(cfgs) == 1 else schedules
    learner, reference = (harness._build_learner(cfgs, box, sums)[0] for _ in range(2))
    fed, fed_reference = recorded(learner), recorded(reference)

    trace = harness.simulate(learner, losses, plan, box)
    decisions, weights = reference_simulate(reference, losses, plan, box)
    assert trace.decisions.tobytes() == decisions.tobytes()
    assert trace.loss_values.tobytes() == losses.values(decisions).tobytes()
    assert (trace.weights is None) == (weights is None)
    if weights is not None:
        assert trace.weights.tobytes() == weights.tobytes()
    # a DOGD-family learner walks linear losses, without ingest, into the same state
    walks = isinstance(losses, Linear) and isinstance(getattr(learner, "inner", learner),
                                                      learners.DelayedOGD)
    assert fed == ([] if walks else fed_reference)
    assert state(learner) == state(reference)
    for r, (run, cfg) in enumerate(zip(trace.runs(), cfgs)):  # the stamps run r was handed
        got = [row[r] for _, stamps, _ in fed_reference
               for row in ([[k] for k in stamps] if len(cfgs) == 1 else stamps) if row[r]]
        assert run.c_log == (None if cfg["learner"]["name"].endswith("_dt") else tuple(got))
    starts = getattr(reference, "epoch_starts", None)
    runs = None if len(cfgs) == 1 else len(cfgs)
    dropped = [0 if keep is None else int((~keep).sum())
               for keep in map(kept_by_definition, schedules, run_starts(reference, runs))]
    if len(cfgs) == 1:
        assert (trace.epoch_starts, trace.dropped) == \
            (None if starts is None else tuple(starts), dropped[0])
    else:
        assert trace.epoch_starts == (None if starts is None else
                                      [None if s is None else tuple(s) for s in starts])
        assert trace.dropped == dropped


@settings(max_examples=100, deadline=None)
@given(batches(families=["dogd"], envs=["linear", "lowerbound"]), st.data())
def test_no_walked_decision_reads_feedback_delivered_at_its_round_or_later(cfgs, data):
    # replace the gradient of every timestamp delivered at round t or later (timestamp k
    # arrives at round k + d_k - 1): the walk path's decisions of rounds 1..t stay bitwise
    inputs = [harness._build_inputs(cfg, [cfg["seed"]])[0] for cfg in cfgs]
    box, schedules = inputs[0].box, [i.schedule for i in inputs]
    T = schedules[0].horizon
    t, seed = data.draw(st.integers(1, T)), data.draw(st.integers(0, 2**32 - 1))
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng, replaced = np.random.default_rng(seed), []
    for i, s in zip(inputs, schedules):
        grads = i.losses.grads.copy()
        late = np.arange(T) + s.delays >= t
        grads[late] = scale * rng.standard_normal((int(late.sum()), box.dim))
        replaced.append(Linear(grads))
    plan = schedules[0] if len(cfgs) == 1 else schedules
    sums = [s.sum_backlog for s in schedules]
    played = []
    for families in ([i.losses for i in inputs], replaced):
        learner = harness._build_learner(cfgs, box, sums)[0]
        learner.ingest = None  # the walk path never ingests
        played.append(harness.simulate(learner, families[0] if len(cfgs) == 1 else
                                       stack(families), plan, box).decisions[:t].tobytes())
    assert played[0] == played[1]


def test_one_run_of_a_one_row_rate_column_takes_the_round_loop():
    # a rate column of one row holds one (1, n) iterate, not one per run: its one run
    # plays as the scalar rate does, through the round loop
    box, s = Box(2, 1.0), DelaySchedule(np.full(20, 3))
    losses = Linear(np.random.default_rng(0).standard_normal((20, 2)))
    column = learners.DelayedOGD(box, [[0.1]])
    fed = recorded(column)
    played = harness.simulate(column, losses, s, box).decisions
    assert played.tobytes() == \
        harness.simulate(learners.DelayedOGD(box, 0.1), losses, s, box).decisions.tobytes()
    assert fed


@pytest.mark.parametrize("names", [["dogd_dt"], ["mild_dt"], ["dogd", "dogd_dt"],
                                   ["mild", "mild_dt"]], ids="+".join)
def test_a_restart_between_deliveries_resets_the_decision(names):
    # blocks of 16 deliver only at rounds 16, 32, ...; the restarts at 22 and 79 fall between
    # deliveries, after feedback has moved the decision off the origin.  The doubling row
    # runs alone, or in lockstep after a fixed-horizon row, from the plan's record, and
    # equals the per-round reference, playing one stretch at a time: a stretch ends at a
    # round with feedback, before a restart, or at T.
    cfgs = [harness.normalize_config({"T": 100, "n": 2, "seed": 4, "learner": {"name": n},
                                      "delay": {"kind": "blocks", "d": 16},
                                      "environment": {"kind": "drift", "loss": "linear"}})
            for n in names]
    inputs = [harness._build_inputs(cfg, [cfg["seed"]])[0] for cfg in cfgs]
    box, schedules = inputs[0].box, [i.schedule for i in inputs]
    losses = inputs[0].losses if len(cfgs) == 1 else stack([i.losses for i in inputs])
    plan = schedules[0] if len(cfgs) == 1 else schedules
    sums = [s.sum_backlog for s in schedules]
    learner, reference = (harness._build_learner(cfgs, box, sums)[0] for _ in range(2))
    plays, play = [], learner.play
    learner.play = lambda t, stop=None: plays.append(t) or play(t, stop)

    trace = harness.simulate(learner, losses, plan, box)
    decisions, weights = reference_simulate(reference, losses, plan, box)
    assert trace.decisions.tobytes() == decisions.tobytes()
    assert trace.weights is None or trace.weights.tobytes() == weights.tobytes()
    run = trace.runs()[-1]
    restarts = run.epoch_starts[1:]
    assert restarts == (2, 4, 7, 12, 22, 32, 48, 79)
    fed = [t for t in schedules[-1].rounds.tolist() if t < 100]  # 16, 32, ..., 96
    assert len(plays) <= len(fed) + len(restarts) + 1 == 15
    for t in restarts:
        assert not run.decisions[t - 1].any()  # a fresh learner plays the origin
    assert run.decisions[20].any() and run.decisions[77].any()


class InfAtRoundOne(QuadraticTracking):
    """Quadratic losses whose gradient at round 1 is inf in the last run's row."""

    def gradient(self, t, x):
        g = super().gradient(t, x)
        if t == 1:
            g[-1] = np.inf
        return g


@pytest.mark.parametrize("names", [["dogd_dt"], ["mild_dt"], ["dogd", "dogd_dt"],
                                   ["mild", "mild_dt"]], ids="+".join)
def test_the_finite_check_reads_the_gradient_of_a_cut_stamp(names):
    # delays (3, 1, 1) open epoch 2 at round 2, so stamp 1, which arrives at round 3, is cut
    # from the doubling row's plan; its gradient still counts.  A lockstep batch's fixed row
    # keeps its stamp 1, whose gradient is finite.
    box, s = Box(1, 1.0), DelaySchedule((3, 1, 1))
    cfgs = [harness.normalize_config({"T": 3, "learner": {"name": n}}) for n in names]
    learner = harness._build_learner(cfgs, box, [s.sum_backlog] * len(cfgs))[0]
    losses = QuadraticTracking(np.zeros((3, 1)), 1.0)
    if len(cfgs) > 1:
        losses = stack([losses] * len(cfgs))
    with pytest.raises(ValueError, match="non-finite"):
        harness.simulate(learner, InfAtRoundOne(losses.targets, losses.scale),
                         s if len(cfgs) == 1 else [s] * len(cfgs), box)
