"""``simulate`` against the per-round loop, bitwise.

``simulate`` plays each stretch of rounds without feedback with one decision; the
reference below plays, queries and records every round on its own, as the protocol
reads.  Both must hand the learner the same feedback and give the same trace, for every
learner, delay kind and environment, one run and a lockstep batch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayed_oco import harness, learners
from delayed_oco.delay import DelaySchedule, merge_plans
from delayed_oco.losses import stack


def reference_simulate(learner, losses, schedule, box):
    """The per-round loop: play round t, query its gradient at the played point and, when
    the plan delivers feedback at t, ingest it; record the weights after every round, and
    deliver the plan's rounds past the horizon at the end.  Returns the decisions and the
    weight history, or None.  A restarting learner takes its plan first."""
    if hasattr(learner, "follow"):
        learner.follow(schedule)
    runs = None if isinstance(schedule, DelaySchedule) else len(schedule)
    rounds, offsets, stamps, slots = merge_plans([schedule] if runs is None else schedule)
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
def batches(draw):
    """Normalized configs of 1-3 runs that may step in lockstep (one learner family, T, n
    and environment kind), each with its own learner, delay kind and run seed."""
    family, T, n = draw(st.sampled_from(sorted(_FAMILIES))), draw(st.integers(1, 120)), \
        draw(st.integers(1, 3))
    env = draw(st.sampled_from(["quadratic", "linear", "lowerbound"]))
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
    assert fed == fed_reference
    for r, (run, cfg) in enumerate(zip(trace.runs(), cfgs)):  # the stamps run r was handed
        got = [row[r] for _, stamps, _ in fed_reference
               for row in ([[k] for k in stamps] if len(cfgs) == 1 else stamps) if row[r]]
        assert run.c_log == (None if cfg["learner"]["name"].endswith("_dt") else tuple(got))
    starts = getattr(reference, "epoch_starts", None)
    dropped = getattr(reference, "dropped", 0)
    if len(cfgs) == 1:
        assert (trace.epoch_starts, trace.dropped) == \
            (None if starts is None else tuple(starts), dropped)
    else:
        assert trace.epoch_starts == (None if starts is None else
                                      [None if s is None else tuple(s) for s in starts])
        assert trace.dropped == np.broadcast_to(dropped, len(cfgs)).tolist()


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
