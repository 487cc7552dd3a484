import contextlib
import copy
import gc
import io
import itertools
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delayed_oco import (Box, DelayedOGD, DelaySchedule, MildOGD, cli, constant_schedule,
                         harness, invariants, learners)
from delayed_oco.delay import KINDS, merge_plans
from delayed_oco.harness import (ConfigError, lowerbound_report, run_experiment, run_many,
                                 simulate, sweep, trace_to_csv)
from delayed_oco.losses import QuadraticTracking
from delayed_oco.metrics import RunTrace


def base_config(**overrides):
    cfg = {
        "T": 40, "n": 2, "D": 2.0, "G": 1.0,
        "learner": {"name": "dogd", "eta": "paper"},
        "delay": {"kind": "constant", "value": 3},
        "environment": {"kind": "drift", "step": 0.05, "loss": "quadratic"},
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


# --- config validation ---------------------------------------------------------

def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        run_experiment(base_config(typo_field=1))


def test_missing_horizon_rejected():
    cfg = base_config()
    del cfg["T"]
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_bad_learner_rejected():
    with pytest.raises(ConfigError):
        run_experiment(base_config(learner={"name": "sgd"}))


def test_doubling_learner_rejects_explicit_rates():
    with pytest.raises(ConfigError):
        run_experiment(base_config(learner={"name": "dogd_dt", "eta": 0.5}))


def test_lowerbound_env_requires_block_delays():
    with pytest.raises(ConfigError):
        run_experiment(base_config(environment={"kind": "lowerbound"}))


@pytest.mark.parametrize("seed", [-1, 2.5, "3", True])
def test_seed_argument_is_checked_like_the_config_seed(seed):
    with pytest.raises(ConfigError):
        run_experiment(base_config(), seed=seed)
    with pytest.raises(ConfigError):
        run_experiment(base_config(seed=seed))


def test_seed_argument_replaces_the_config_seed():
    trace, summary = run_experiment(base_config(seed=-1), seed=3)
    expected_trace, expected = run_experiment(base_config(seed=3))
    assert trace_to_csv(trace) == trace_to_csv(expected_trace)
    assert harness.to_json(summary) == harness.to_json(expected)


@pytest.mark.parametrize("key,value", [("T", 5.5), ("n", 1.5), ("seed", 2.5),
                                       ("repetitions", "x")])
def test_a_malformed_scalar_field_is_named(key, value):
    with pytest.raises(ConfigError, match=rf"^bad scalar field {key}: {value!r} is not"):
        run_experiment({"T": 5, key: value})


@pytest.mark.parametrize("delay,named", [
    ({"kind": "in_order_random", "d_max": d_max}, rf"d_max must lie in \[1, 2\^63\), got {d_max}$")
    for d_max in (0, -3, 10**30)] + [
    ({"kind": "uniform", "lo": 1, "hi": 10**30}, rf"lo <= hi < 2\^63, got lo = 1, hi = {10**30}$")])
def test_an_out_of_range_delay_bound_is_named(delay, named):
    with pytest.raises(ConfigError, match=named):
        run_experiment({"T": 5, "delay": delay})


def _sweep_row(cell, run, repetition=0):
    """The sweep row of ``cell`` that a (trace, summary) ``run`` gives."""
    return {"cell": cell, "repetition": repetition,
            **{k: v for k, v in run[1].items() if k != "config"}}


# one valid spec per delay kind at T = 6; a kind added to delay.KINDS needs one here
_VALID_DELAYS = {"constant": {"value": 2}, "uniform": {"lo": 1, "hi": 4}, "blocks": {"d": 3},
                 "permuted": {}, "in_order_random": {"d_max": 3}, "list": {"values": [2] * 6}}


def _malformed_delays(kind):
    """Specs of ``kind`` with one bad field: a string, a value below 1, and the kind's own
    rules (``uniform`` with lo > hi, a ``list`` of the wrong length)."""
    spec = {"kind": kind, **_VALID_DELAYS[kind]}
    for field in KINDS[kind].fields:
        yield {**spec, field: "2"}
        yield {**spec, field: [0] * 6 if field == "values" else 0}
    if kind == "uniform":
        yield {**spec, "lo": 5, "hi": 2}
    if kind == "list":
        yield {**spec, "values": [2] * 5}


@pytest.mark.parametrize("kind", KINDS)
def test_a_malformed_delay_spec_is_refused_at_the_call(kind):
    for spec in _malformed_delays(kind):
        cfg = base_config(T=6, delay=spec)
        with pytest.raises(ConfigError, match="^bad delay spec: "):
            run_experiment(cfg)
        with pytest.raises(ConfigError, match="^bad delay spec: "):
            run_many(cfg)  # the iterator is never read
    # a "d" cell sets the kind's sweep field, or is refused by name
    cfg = base_config(T=6, delay={"kind": kind, **_VALID_DELAYS[kind]})
    field = KINDS[kind].sweep
    if field is None:
        with pytest.raises(harness.SweepError, match=r"^sweep cell \{'d': 1\} failed: .*"
                                                     rf"unsupported for delay kind '{kind}'"):
            sweep(cfg, {"d": [1, 3]})
        return
    expected = [_sweep_row({"d": d}, run_experiment({**cfg, "delay": {**cfg["delay"], field: d}}))
                for d in (1, 3)]
    assert harness.to_json(sweep(cfg, {"d": [1, 3]})) == harness.to_json(expected)


def test_a_sweep_refuses_a_bad_delay_spec_before_any_batch_runs(monkeypatch):
    calls = []
    run = harness._run
    monkeypatch.setattr(harness, "_run", lambda rows: calls.append(rows) or run(rows))
    cfg = base_config(T=10, delay={"kind": "list", "values": [1] * 10})
    with pytest.raises(harness.SweepError, match=r"^sweep cell \{'T': 20\} failed: bad delay"):
        sweep(cfg, {"T": [10, 20]})  # the list fits T = 10 only
    assert calls == []


def test_a_learner_cell_keeps_the_base_learners_rates():
    # the base learner's cell runs the configured eta; another learner's runs the paper's
    cfg = {"T": 50, "learner": {"name": "dogd", "eta": 0.1}}
    own, other = sweep(cfg, {"learner": ["dogd", "ogd"]})
    assert harness.to_json(own) == harness.to_json(_sweep_row({"learner": "dogd"},
                                                              run_experiment(cfg)))
    assert (own["eta"], other["eta_source"]) == (0.1, "paper")


# (field name, the config that sets it to a value, one valid value at T = 3 and n = 2) for
# each real-valued field
_REAL_FIELDS = [
    ("D", lambda v: {"D": v}, 2.0),
    ("G", lambda v: {"G": v}, 1.0),
    ("learner.eta", lambda v: {"learner": {"name": "dogd", "eta": v}}, 0.5),
    ("learner.alpha", lambda v: {"learner": {"name": "mild", "alpha": v}}, 0.5),
    ("learner.etas", lambda v: {"learner": {"name": "mild", "etas": v}}, [0.1, 0.2]),
    ("environment.step", lambda v: {"environment": {"kind": "drift", "step": v}}, 0.1),
    ("comparators.path_budget", lambda v: {"comparators": {"kind": "piecewise",
                                                           "path_budget": v}}, 1),
    ("comparators.point", lambda v: {"comparators": {"kind": "constant", "point": v}},
     [0.1, 0.0]),
    ("comparators.points", lambda v: {"comparators": {"kind": "list", "points": v}},
     [[0.1, 0.0]] * 3),
    ("environment.gradients", lambda v: {"environment": {"kind": "linear_list",
                                                         "gradients": v}}, [[0.6, 0.0]] * 3),
]


def _as_text(value):
    """``value`` with each number written as JSON text."""
    return [_as_text(v) for v in value] if isinstance(value, list) else str(value)


def _with_a_bool(value):
    """``value`` with its first number a bool; a lone number becomes ``[True]``."""
    if not isinstance(value, list):
        return [True]
    return [_with_a_bool(value[0]) if isinstance(value[0], list) else True, *value[1:]]


@pytest.mark.parametrize("name,config,valid", _REAL_FIELDS, ids=[f[0] for f in _REAL_FIELDS])
def test_every_real_field_refuses_text_and_bools_by_name(name, config, valid):
    run_experiment({"T": 3, "n": 2, **config(valid)})
    for bad in (_as_text(valid), True, _with_a_bool(valid)):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be"):
            run_experiment({"T": 3, "n": 2, **config(bad)})


def _delay_field(kind, field):
    """The config that sets ``field`` of a valid ``kind`` delay spec, or a list's first entry."""
    spec = {"kind": kind, **_VALID_DELAYS[kind]}
    return lambda v: {"delay": {**spec, field: [v, *spec[field][1:]] if field == "values" else v}}


# (field name, the config that sets it to a value, a value out of its range) for each integer
# and text field, at T = 6 and n = 2
_INTEGER_AND_TEXT_FIELDS = [
    ("T", lambda v: {"T": v}, 0),
    ("n", lambda v: {"n": v}, 0),
    ("seed", lambda v: {"seed": v}, -1),
    ("repetitions", lambda v: {"repetitions": v}, 0),
    *[(f"delay.{field}", _delay_field(kind, field), 0)
      for kind, k in KINDS.items() for field in k.fields],
    ("learner.name", lambda v: {"learner": {"name": v}}, "sgd"),
    ("delay.kind", lambda v: {"delay": {"kind": v}}, "poisson"),
    ("environment.kind", lambda v: {"environment": {"kind": v}}, "walk"),
    ("environment.loss", lambda v: {"environment": {"kind": "drift", "loss": v}}, "hinge"),
    ("comparators.kind", lambda v: {"comparators": {"kind": v}}, "best"),
    ("comparators.point", lambda v: {"comparators": {"kind": "constant", "point": v}},
     [math.inf, 0.0]),
]


@pytest.mark.parametrize("name,config,out_of_range", _INTEGER_AND_TEXT_FIELDS,
                         ids=[f[0] for f in _INTEGER_AND_TEXT_FIELDS])
def test_every_integer_and_text_field_refuses_a_bad_value_by_name(tmp_path, capsys, name,
                                                                  config, out_of_range):
    for bad in (1.5, "3", True, out_of_range):
        path = write_config(tmp_path, {"T": 6, "n": 2, **config(bad)})
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert re.search(rf"(?<![\w.]){re.escape(name)}\b", err), (bad, err)


def test_an_integer_past_int64_is_a_number():
    # NumPy holds such ints as objects; they read as floats, and past the float range not at all
    assert harness.normalize_config({"T": 3, "D": 10**20})["D"] == 1e20
    _, summary = run_experiment({"T": 3, "learner": {"name": "mild", "etas": [0.5, 10**20]}})
    assert summary["expert_rates"] == [0.5, 1e20]
    with pytest.raises(ConfigError, match=r"^D must be a finite number > 0"):
        harness.normalize_config({"T": 3, "D": 10**400})


# one valid value per learner field, by the rate it replaces; a rate list is echoed unsorted
_VALID_RATES = {"eta": 0.1, "expert_rates": [0.2, 0.05], "alpha": 0.5}


@pytest.mark.parametrize("name", learners.KINDS)
def test_each_learner_takes_its_own_fields_and_checks_them_at_the_call(name):
    kind = learners.KINDS[name]
    for field in kind.fields:
        for bad in ("x", 0, -1, True, math.nan):
            cfg = base_config(T=6, learner={"name": name, field: bad})
            with pytest.raises(ConfigError, match=rf"^learner\.{field} must be"):
                run_experiment(cfg)
            with pytest.raises(ConfigError, match=rf"^learner\.{field} must be"):
                run_many(cfg)  # the iterator is never read
    others = {field for k in learners.KINDS.values() for field in k.fields} - set(kind.fields)
    assert others and all(k.fields == {} for k in learners.KINDS.values() if k.restarts)
    for field in others:  # etas on dogd, eta on mild, any field on a doubling learner
        cfg = base_config(T=6, learner={"name": name, field: 0.1})
        for call in (run_experiment, run_many):
            with pytest.raises(ConfigError, match=rf"^learner '{name}' takes"):
                call(cfg)
    _, summary = run_experiment(base_config(learner={"name": name}))
    assert summary["bound_check"]["bound"] == kind.bound
    # configured rates run as given, and a learner cell that names the learner keeps them
    cfg = base_config(T=20, learner={"name": name, **{
        field: _VALID_RATES[rate] for field, rate in kind.fields.items()}})
    _, summary = run_experiment(cfg)
    assert all(summary[rate] == _VALID_RATES[rate] for rate in kind.fields.values())
    assert harness.to_json(sweep(cfg, {"learner": [name]})) == \
        harness.to_json([_sweep_row({"learner": name}, run_experiment(cfg))])


def test_a_sweep_batches_runs_by_expert_count():
    # a 2-expert mild row and a 4-expert (expert_count(50)) mild_dt row are one family but
    # no one stack of rates: each row is what its cell gives alone
    cfg = {"T": 50, "learner": {"name": "mild", "etas": [0.1, 0.2]}}
    expected = [_sweep_row({"learner": name},
                           run_experiment(harness._apply_cell(cfg, {"learner": name})))
                for name in ("mild", "mild_dt")]
    assert expected[0]["expert_rates"] == [0.1, 0.2]
    assert harness.to_json(sweep(cfg, {"learner": ["mild", "mild_dt"]})) == \
        harness.to_json(expected)


# --- run ----------------------------------------------------------------------

def test_run_hand_simulation_trace():
    cfg = {
        "T": 3, "n": 1, "D": 2.0, "G": 1.0,
        "learner": {"name": "dogd", "eta": 0.5},
        "delay": {"kind": "list", "values": [2, 1, 1]},
        "environment": {"kind": "linear_list", "gradients": [[1.0], [-1.0], [1.0]]},
        "comparators": {"kind": "constant", "point": "origin"},
        "seed": 0,
    }
    trace, summary = run_experiment(cfg)
    assert list(trace.decisions.ravel()) == [0.0, 0.0, 0.0]
    assert list(trace.schedule.backlog()) == [1, 2, 1]
    assert [invariants.arrivals_at(trace.schedule, t) for t in (1, 2, 3)] == [[], [1, 2], [3]]
    rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
    assert [(r[4], r[5], r[6]) for r in rows] == [("1", "0", ""), ("2", "2", "1;2"),
                                                  ("1", "1", "3")]
    assert trace.c_log == (1, 2, 3)
    assert summary["regret_dynamic"] == 0.0
    assert summary["joint_effect"] == 0.0


def test_csv_arrival_columns_are_each_rounds_arrivals():
    # trace_to_csv walks the plan once; arrivals_at takes each F_t from its definition
    rng = np.random.default_rng(31)
    box = Box(1, 1.0)
    for _ in range(30):
        s = invariants.random_schedule(rng, T_max=40, d_max=8)
        trace = simulate(DelayedOGD(box, 0.1), invariants.zero_losses(s.horizon), s, box)
        rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
        assert [(int(r[5]), r[6]) for r in rows] == \
            [(len(F), ";".join(map(str, F)))
             for F in (invariants.arrivals_at(s, t) for t in range(1, s.horizon + 1))]


def reference_trace_to_csv(trace):
    """The per-round renderer: every decision formatted float by float."""
    out = io.StringIO()
    out.write("t,x,loss,cum_loss,m_t,n_arrivals,arrived_timestamps\n")
    schedule = trace.schedule
    stamps, rounds, offsets = schedule.stamps, schedule.rounds, schedule.offsets
    backlog = schedule.backlog()
    cum = 0.0
    j = 0
    for t in range(1, len(trace.decisions) + 1):
        cum += float(trace.loss_values[t - 1])
        x = ";".join(repr(float(v)) for v in trace.decisions[t - 1])
        F = []
        if rounds[j] == t:
            F = stamps[offsets[j]:offsets[j + 1]]
            j += 1
        out.write(f"{t},{x},{repr(float(trace.loss_values[t - 1]))},{repr(cum)},"
                  f"{int(backlog[t - 1])},{len(F)},{';'.join(map(str, F))}\n")
    return out.getvalue()


def _trace(rows, loss, delays):
    return RunTrace(decisions=np.array(rows, dtype=np.float64),
                    loss_values=np.array(loss, dtype=np.float64),
                    schedule=DelaySchedule(tuple(delays)))


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -1 / 3, 5e-324, -2.5e-300, 1e16])


@st.composite
def _renderable_traces(draw):
    """Decision rows that repeat, change only the sign of a zero, or change;
    any losses, a first loss of -0.0 often; delays reaching past the horizon."""
    T, n = draw(st.integers(1, 30)), draw(st.integers(1, 10))
    row = st.lists(_ENTRIES, min_size=n, max_size=n)
    rows = [draw(row)]
    for _ in range(T - 1):
        how = draw(st.sampled_from(["repeat", "flip zero signs", "new"]))
        if how == "new":
            rows.append(draw(row))
        else:
            rows.append([-v if how != "repeat" and v == 0 else v for v in rows[-1]])
    loss = draw(st.lists(st.floats(allow_nan=False) | _ENTRIES, min_size=T, max_size=T))
    if draw(st.booleans()):
        loss[0] = -0.0
    return _trace(rows, loss, draw(st.lists(st.integers(1, T + 5), min_size=T, max_size=T)))


@settings(max_examples=150, deadline=None)
@given(trace=_renderable_traces())
@example(trace=_trace([[-0.0]], [-0.0], [3]))  # T = 1, arrival in the flush window
@example(trace=_trace([[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
                      [-0.0, 0.0, -0.0, 1.5, -0.0], [6, 1, 2, 1, 1]))
# 0.5 in the decision, loss and cum_loss columns, -0.0 and 0.0 in one column: each
# distinct float is formatted once, and floats are told apart by their bits
@example(trace=_trace([[0.5, -0.0], [0.0, 0.5], [0.5, 0.0]], [0.5, -0.0, 0.0], [1, 2, 1]))
def test_trace_to_csv_matches_the_per_round_reference(trace):
    assert trace_to_csv(trace) == reference_trace_to_csv(trace)


@pytest.mark.parametrize("learner", ["ogd", "dogd", "mild", "dogd_dt", "mild_dt"])
def test_trace_to_csv_matches_the_per_round_reference_on_real_runs(learner, monkeypatch):
    trace, _ = run_experiment(base_config(
        T=300, n=3, learner={"name": learner}, delay={"kind": "permuted"},
        environment={"kind": "drift", "step": 1.0, "loss": "linear"}))
    repeated = np.all(trace.decisions[1:] == trace.decisions[:-1], axis=1)
    assert repeated.any() and not repeated.all()
    assert trace_to_csv(trace) == reference_trace_to_csv(trace)
    for cells in (37, 1):  # blocks of 7 rows and of 1 row, some opening on a repeated row
        monkeypatch.setattr(harness, "_CSV_CELLS", cells)
        assert trace_to_csv(trace) == reference_trace_to_csv(trace)


def test_linear_list_admits_unit_rows_that_round_above_G():
    # the computed norms are 1.0, 1.0 and 1.0000000000000002
    gradients = [[0.6, 0.8], [1 / math.sqrt(2), 1 / math.sqrt(2)],
                 [-0.9956015322215984, -0.093688788219327]]
    _, summary = run_experiment(base_config(T=3, **_gradients(gradients)))
    assert math.isfinite(summary["regret_dynamic"])


def test_run_reduction_dogd_equals_ogd():
    cfg = base_config(delay={"kind": "constant", "value": 1})
    tr_d, _ = run_experiment({**cfg, "learner": {"name": "dogd", "eta": 0.3}})
    tr_o, _ = run_experiment({**cfg, "learner": {"name": "ogd", "eta": 0.3}})
    assert np.array_equal(tr_d.decisions, tr_o.decisions)


def test_flush_window_cost_does_not_grow_with_the_delay():
    # the flush visits only rounds that receive feedback, not all T + d_max - 1
    for value in (10**6, 10**9):
        start = time.perf_counter()
        trace, summary = run_experiment(base_config(T=10, delay={"kind": "constant",
                                                                 "value": value}))
        assert time.perf_counter() - start < 1.0
        assert summary["sum_m"] == 55 and summary["d_max"] == value
        assert trace.c_log == tuple(range(1, 11))


def test_simulate_rejects_a_gradient_that_overflows():
    # finite targets and scale, but scale * (x - target) overflows to -inf
    box = Box(1, 1.0)
    losses = QuadraticTracking(np.full((5, 1), 1e300), 1e10)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        simulate(DelayedOGD(box, 0.1), losses, constant_schedule(5, 2), box)


def test_simulate_rejects_a_non_finite_play():
    class PlaysNaN:
        def play(self, t):
            return np.full(2, np.nan)

        def ingest(self, t, stamps, grads):
            pass

    box = Box(2, 1.0)
    losses = QuadraticTracking(np.zeros((4, 2)), 1.0)
    with pytest.raises(ValueError):
        simulate(PlaysNaN(), losses, constant_schedule(4, 1), box)


def test_run_is_deterministic():
    a_trace, a_summary = run_experiment(base_config())
    b_trace, b_summary = run_experiment(base_config())
    assert harness.trace_to_csv(a_trace) == harness.trace_to_csv(b_trace)
    assert harness.to_json(a_summary) == harness.to_json(b_summary)


def test_repetitions_produce_one_row_per_seed():
    results = list(run_many(base_config(repetitions=5)))
    assert len(results) == 5
    seeds = [summary["seed"] for _, summary in results]
    assert seeds == [7, 8, 9, 10, 11]
    assert len({summary["env_fingerprint"] for _, summary in results}) == 5


def test_summary_reports_resolved_rate_and_bounds():
    _, summary = run_experiment(base_config())
    sched_sum_m = summary["sum_m"]
    assert summary["eta"] == pytest.approx(2.0 / math.sqrt(sched_sum_m))
    # the config is echoed as given ("eta": "paper"), its derived rate and delays left out
    assert summary["config"] == harness.normalize_config(base_config())
    assert summary["in_order"] is True
    assert summary["joint_effect"] == 0.0
    assert summary["bound_thm1"] is not None
    assert summary["regret_dynamic"] <= summary["bound_cor1"]
    assert summary["bound_check"] == {"bound": "bound_cor1", "ok": True}


@pytest.mark.parametrize("delay", [{"kind": "constant", "value": 3}, {"kind": "permuted"}])
def test_ogd_summary_is_the_dogd_summary_but_for_the_name(delay):
    # "ogd" names the same fixed-rate DelayedOGD, so it reports bound_thm1 too
    summaries = [run_experiment(base_config(learner={"name": name}, delay=delay))[1]
                 for name in ("ogd", "dogd")]
    assert summaries[0]["bound_thm1"] is not None
    for summary in summaries:
        summary["learner"] = summary["config"]["learner"]["name"] = None
    assert harness.to_json(summaries[0]) == harness.to_json(summaries[1])


def test_mild_summary_tracks_weight_sums():
    _, summary = run_experiment(base_config(learner={"name": "mild"}))
    assert summary["weight_sum_err"] <= 1e-9
    assert len(summary["expert_rates"]) == harness.learn_mod.expert_count(40)
    assert summary["bound_check"]["bound"] == "bound_thm2"


def test_dt_summary_has_epoch_starts():
    _, summary = run_experiment(base_config(learner={"name": "dogd_dt"}))
    assert summary["epoch_starts"][0] == 1
    assert summary["bound_check"]["bound"] == "bound_thm4"


# --- sweep -----------------------------------------------------------------------

def test_sweep_monotone_delay_column():
    rows = sweep(base_config(), {"d": [1, 4, 16]})
    S = [row["S"] for row in rows]
    assert S == sorted(S) and len(S) == 3
    assert [row["cell"]["d"] for row in rows] == [1, 4, 16]


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep(base_config(), {})
    with pytest.raises(ConfigError):
        sweep(base_config(), {"d": []})


def test_sweep_learners_share_loss_stream():
    rows = sweep(base_config(), {"learner": ["dogd", "mild"]})
    fps = {row["env_fingerprint"] for row in rows}
    assert len(fps) == 1


def test_sweep_failure_identifies_cell():
    with pytest.raises(harness.SweepError, match="cell"):
        sweep(base_config(), {"T": [10, -5]})


_LEARNER_NAMES = sorted(learners.KINDS, key=lambda name: learners.KINDS[name].family)
_SWEEP_DELAYS = {"constant": {"kind": "constant", "value": 2},
                 "uniform": {"kind": "uniform", "lo": 1, "hi": 4},
                 "permuted": {"kind": "permuted"},
                 "in_order_random": {"kind": "in_order_random", "d_max": 3},
                 "blocks": {"kind": "blocks", "d": 3}}


@st.composite
def sweep_cases(draw):
    """A small config and grid: any learners, delay kind, environment, comparators
    and repetitions, with T, d and P cells where the config allows them."""
    delay = draw(st.sampled_from(sorted(_SWEEP_DELAYS)))
    environment = draw(st.sampled_from(
        ["quadratic", "linear"] + (["lowerbound"] if delay == "blocks" else [])))
    cfg = {"T": draw(st.integers(3, 16)), "n": draw(st.integers(1, 3)),
           "delay": _SWEEP_DELAYS[delay],
           "environment": ({"kind": "lowerbound"} if environment == "lowerbound" else
                           {"kind": "drift", "step": 0.1, "loss": environment}),
           "comparators": draw(st.sampled_from([{"kind": "auto"},
                                                {"kind": "piecewise", "path_budget": 1.5}])),
           "seed": draw(st.integers(0, 50)), "repetitions": draw(st.integers(1, 3))}
    grid = {"learner": draw(st.lists(st.sampled_from(_LEARNER_NAMES), min_size=1, max_size=5,
                                     unique=True))}
    small = st.lists(st.integers(1, 12), min_size=1, max_size=2, unique=True)
    if draw(st.booleans()):
        grid["T"] = draw(small)
    if delay != "permuted" and draw(st.booleans()):
        grid["d"] = draw(small)
    if draw(st.booleans()):
        grid["P"] = draw(st.lists(st.sampled_from([0.0, 1.0, 4.0]), min_size=1, max_size=2,
                                  unique=True))
    return cfg, grid


def _every_feature(delay, environment, grid):
    cfg = {"T": 12, "n": 2, "delay": _SWEEP_DELAYS[delay], "environment": environment,
           "seed": 3, "repetitions": 2}
    return cfg, {"learner": _LEARNER_NAMES, **grid}


@settings(max_examples=25, deadline=None)
@given(sweep_cases())
@example(_every_feature("constant", {"kind": "drift", "loss": "quadratic"},
                        {"T": [6, 12], "d": [1, 4]}))
@example(_every_feature("uniform", {"kind": "drift", "loss": "linear"}, {"d": [2, 5], "P": [0, 3]}))
@example(_every_feature("permuted", {"kind": "drift"}, {"T": [5, 9], "P": [2]}))
@example(_every_feature("in_order_random", {"kind": "drift"}, {"d": [1, 3], "P": [1, 6]}))
@example(_every_feature("blocks", {"kind": "lowerbound"}, {"T": [7, 12], "d": [1, 4]}))
@example(_every_feature("blocks", {"kind": "lowerbound"}, {"P": [0, 5]}))
def test_sweep_rows_equal_independent_runs(case):
    # the shared walks must not change a single byte of any row
    cfg, grid = case
    rows = sweep(cfg, grid)
    keys = sorted(grid)
    expected = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        for rep, run in enumerate(run_many(harness._apply_cell(cfg, cell))):
            expected.append(_sweep_row(cell, run, rep))
    assert harness.to_json(rows) == harness.to_json(expected)


@pytest.mark.parametrize("comparators", [{"kind": "targets"}, {"kind": "best_fixed"},
                                         {"kind": "piecewise", "path_budget": 1.0}])
def test_shared_inputs_cannot_be_written_through_a_trace_or_a_row(comparators):
    cfg = harness.normalize_config(base_config(comparators=comparators))
    fresh, = harness._build_inputs(cfg, [7])
    walks = {}
    first = None
    for name in ("dogd", "mild", "mild_dt"):
        cell_cfg = harness.normalize_config(harness._apply_cell(cfg, {"learner": name}))
        inputs, = harness._build_inputs(cell_cfg, [7], walks)
        first = first or inputs
        assert inputs.losses is first.losses  # the cells share one walk
        assert inputs.schedule == first.schedule
        assert inputs.comparators.tobytes() == first.comparators.tobytes()
        (trace, _), = harness._run([(cell_cfg, 7, inputs)])
        for a in (trace.decisions, trace.loss_values, trace.weight_sums):
            if a is not None:
                assert not np.shares_memory(a, inputs.comparators)
                assert not np.shares_memory(a, inputs.losses.targets)
        with pytest.raises(AttributeError):
            trace.schedule.delays = (1,) * cfg["T"]
    for shared in (first.comparators, first.losses.targets):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0
    assert first.comparators.tobytes() == fresh.comparators.tobytes()
    assert first.losses.targets.tobytes() == fresh.losses.targets.tobytes()
    assert first.schedule == fresh.schedule
    rows = sweep(cfg, {"learner": ["dogd", "mild"], "d": [1, 3]})
    assert not any(isinstance(v, np.ndarray) for row in rows for v in row.values())


# --- lockstep batches -------------------------------------------------------------

_BATCH_DELAYS = {"constant": {"value": 3}, "uniform": {"lo": 1, "hi": 8}, "permuted": {},
                 "in_order_random": {"d_max": 6}, "blocks": {"d": 4}, "list": None}


@st.composite
def batch_cases(draw):
    """A config with up to 3 repetitions and a grid whose cells step in lockstep: ragged
    plans (seeded delays, and d cells), restarts, n from 1 to 5 and every environment."""
    kind = draw(st.sampled_from(sorted(_BATCH_DELAYS)))
    T = draw(st.integers(2, 40))
    values = st.lists(st.integers(1, 9), min_size=T, max_size=T)
    delay = {"kind": kind, **({"values": draw(values)} if kind == "list" else _BATCH_DELAYS[kind])}
    environment = draw(st.sampled_from(
        ["quadratic", "linear"] + (["lowerbound"] if kind == "blocks" else [])))
    cfg = {"T": T, "n": draw(st.integers(1, 5)), "delay": delay,
           "environment": ({"kind": "lowerbound"} if environment == "lowerbound" else
                           {"kind": "drift", "step": 0.2, "loss": environment}),
           "seed": draw(st.integers(0, 50)), "repetitions": draw(st.integers(1, 3))}
    grid = {"learner": draw(st.lists(st.sampled_from(_LEARNER_NAMES), min_size=1, max_size=5,
                                     unique=True))}
    if kind not in ("permuted", "list") and draw(st.booleans()):
        grid["d"] = draw(st.lists(st.integers(1, 12), min_size=2, max_size=3, unique=True))
    return cfg, grid


_DRIFT_SWEEP = ({"T": 2000, "n": 5, "D": 2.0, "G": 1.0, "delay": {"kind": "constant", "value": 1},
                 "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
                 "comparators": {"kind": "targets"}, "seed": 0},
                {"learner": ["dogd", "mild", "dogd_dt", "mild_dt"], "d": [1, 20]})


@settings(max_examples=40, deadline=None)
@given(batch_cases())
@example(_DRIFT_SWEEP)
def test_lockstep_batches_render_as_runs_one_at_a_time(case):
    # sweep rows, run_many summaries and traces are byte for byte what each run
    # gives through run_experiment alone, one run with no run axis
    cfg, grid = case
    keys = sorted(grid)
    expected, cells = [], [dict(zip(keys, combo))
                           for combo in itertools.product(*(grid[k] for k in keys))]
    for cell in cells:
        cell_cfg = harness._apply_cell(cfg, cell)
        alone = [run_experiment(cell_cfg, seed=cfg["seed"] + rep)
                 for rep in range(cfg.get("repetitions", 1))]
        for rep, ((trace, summary), (one_trace, one_summary)) in \
                enumerate(zip(run_many(cell_cfg), alone, strict=True)):
            assert trace.decisions.tobytes() == one_trace.decisions.tobytes()
            assert trace_to_csv(trace) == trace_to_csv(one_trace)
            assert harness.to_json(summary) == harness.to_json(one_summary)
            expected.append({"cell": cell, "repetition": rep,
                             **{k: v for k, v in one_summary.items() if k != "config"}})
    assert harness.to_json(sweep(cfg, grid)) == harness.to_json(expected)


@pytest.mark.parametrize("learner", ["dogd_dt", "mild_dt"])
def test_lockstep_runs_restart_and_drop_stale_feedback_each_on_its_own_plan(learner):
    cfg = {"T": 40, "n": 2, "learner": {"name": learner}, "seed": 1, "repetitions": 3,
           "delay": {"kind": "uniform", "lo": 1, "hi": 9}}
    summaries = [summary for _, summary in run_many(cfg)]
    assert len({tuple(s["epoch_starts"]) for s in summaries}) == 3
    assert len({s["dropped"] for s in summaries}) > 1
    assert harness.to_json(summaries) == \
        harness.to_json([run_experiment(cfg, seed=1 + rep)[1] for rep in range(3)])


def recorded_batch_sizes(monkeypatch) -> list[int]:
    """The number of runs each ``simulate`` call steps, appended as the calls are made."""
    sizes, simulate_ = [], harness.simulate

    def recording(learner, losses, schedule, box, make=None):
        sizes.append(1 if isinstance(schedule, DelaySchedule) else len(schedule))
        return simulate_(learner, losses, schedule, box, make)

    monkeypatch.setattr(harness, "simulate", recording)
    return sizes


def test_a_batch_is_cut_on_what_it_allocates_not_on_runs_times_one_run(monkeypatch):
    cfg = base_config(T=30, n=5, repetitions=5, learner={"name": "mild"},
                      delay={"kind": "constant", "value": 1})
    norm = harness.normalize_config(cfg)
    # two runs' batch fills half of memory and three overfill it, though memory
    # holds five runs by the one-run estimate
    memory = 2 * harness._batch_bytes(norm, 2) + 1
    assert memory // harness._run_bytes(norm) >= 5
    monkeypatch.setattr(harness, "_physical_memory", lambda: memory)
    sizes = recorded_batch_sizes(monkeypatch)
    results = list(run_many(cfg))  # the batches run as the results are read
    assert sizes == [2, 2, 1]
    for rep, (_, summary) in enumerate(results):
        assert harness.to_json(summary) == harness.to_json(run_experiment(cfg, seed=7 + rep)[1])
    sizes.clear()
    sweep(cfg, {"learner": ["mild"], "P": [1.0, 2.0]})  # 10 runs of one learner and T
    assert sizes == [2, 2, 2, 2, 2]
    monkeypatch.setattr(harness, "_physical_memory", lambda: harness._run_bytes(norm) - 1)
    with pytest.raises(ConfigError, match="physical memory"):
        run_many(cfg)


def test_a_sweep_steps_each_learner_family_and_horizon_in_one_batch(monkeypatch):
    # ogd, dogd and dogd_dt are one family, mild and mild_dt the other: a fixed-horizon
    # run is a restarting run whose first epoch never ends
    sizes = recorded_batch_sizes(monkeypatch)
    rows = sweep(base_config(), {"learner": _LEARNER_NAMES, "d": [1, 3]})
    assert sizes == [6, 4] and len(rows) == 10
    sizes.clear()
    sweep(base_config(), {"learner": _LEARNER_NAMES, "T": [20, 30]})
    assert sizes == [3, 2, 3, 2]


@pytest.mark.parametrize("comparators", [{"kind": "piecewise", "path_budget": 4},
                                         {"kind": "best_fixed"}])
def test_a_sweep_solves_each_walks_hindsight_optimum_once(comparators, monkeypatch):
    # five learners x d in {1, 5} x 2 repetitions are 20 runs in two batches, one per
    # learner family, sharing the 2 run seeds' walks; each walk's hindsight optimum is
    # solved once, for best_fixed and static regret
    calls = []

    def counting(*args, _solve=harness.metrics_mod.minimize_total_loss):
        calls.append(args)
        return _solve(*args)
    monkeypatch.setattr(harness.metrics_mod, "minimize_total_loss", counting)
    rows = sweep(base_config(repetitions=2, comparators=comparators),
                 {"learner": _LEARNER_NAMES, "d": [1, 5]})
    assert len(rows) == 20
    assert len(calls) == 2


def test_sweep_raises_a_fault_of_the_batch_path_that_no_run_has_alone(monkeypatch):
    def broken(families):
        raise RuntimeError("a fault of the batch path")

    monkeypatch.setattr(harness.losses_mod, "stack", broken)  # runs alone never stack
    with pytest.raises(RuntimeError, match="batch path"):
        sweep(base_config(), {"d": [1, 2]})


@pytest.mark.parametrize("learner,n", [("dogd_dt", 1), ("mild", 3), ("dogd+dogd_dt", 1)])
def test_a_ragged_batch_allocates_less_than_its_estimate(learner, n):
    # "+" joins the learners of one family that the rows take in turn
    rows, names = [], learner.split("+")
    for seed, d in enumerate((1, 40, 400)):
        cfg = harness.normalize_config(base_config(
            T=3000, n=n, learner={"name": names[seed % len(names)]},
            delay={"kind": "blocks", "d": d}))
        rows.append((cfg, seed, *harness._build_inputs(cfg, [seed])))
    plan_rows = len(merge_plans([inputs.schedule for _, _, inputs in rows])[2])
    assert 3000 < plan_rows <= 3 * 3000  # the blocks of the three plans do not line up
    largest = max((cfg for cfg, _, _ in rows), key=harness._run_bytes)
    assert batch_peak(rows) <= harness._batch_bytes(largest, 3, plan_rows)


def test_a_batch_delivered_at_once_allocates_less_than_its_estimate():
    # one block of T: the last round delivers every run's every timestamp, and mild's
    # ingest of it holds (T, R, N, n) spreads and as many pool steps
    cfg = harness.normalize_config(base_config(T=3000, n=10, learner={"name": "mild"},
                                               delay={"kind": "blocks", "d": 3000}))
    rows = [(cfg, seed, *harness._build_inputs(cfg, [seed])) for seed in range(2)]
    assert batch_peak(rows) <= harness._batch_bytes(cfg, 2, 3000)


def batch_peak(rows: list) -> int:
    """The peak bytes tracemalloc reads while ``harness._run`` steps ``rows`` as one batch."""
    harness._run(rows)  # first calls may import or cache
    tracemalloc.start()
    try:
        harness._run(rows)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def listed(T: int, n: int) -> dict:
    """The sections that carry lists of T entries: delays, gradients and comparators."""
    rows = np.random.default_rng(0).uniform(-0.99, 0.99, (2, T, n)) / math.sqrt(n)
    return {"delay": {"kind": "list", "values": [1 + (7 * t) % 11 for t in range(T)]},
            "environment": {"kind": "linear_list", "gradients": rows[0].tolist()},  # norms < G
            "comparators": {"kind": "list", "points": rows[1].tolist()}}  # inside the box


@pytest.mark.parametrize("T,n,delay,learner,loss", [
    (20000, 1, {"kind": "blocks", "d": 16}, {"name": "dogd"}, "quadratic"),
    (20000, 5, {"kind": "constant", "value": 3}, {"name": "dogd"}, "quadratic"),
    (20000, 1, {"kind": "permuted"}, {"name": "mild"}, "quadratic"),
    (20000, 1, {"kind": "permuted"}, {"name": "mild", "etas": [0.01 * 1.1**i for i in range(40)]},
     "quadratic"),
    (20000, 1, "listed", {"name": "dogd"}, "quadratic"),
    (20000, 5, "listed", {"name": "dogd"}, "quadratic"),
    (5000, 20, "listed", {"name": "dogd"}, "quadratic"),
    (20000, 10, {"kind": "permuted"}, {"name": "dogd_dt"}, "linear")],
    ids=["1-delay0", "5-delay1", "mild-1-permuted", "mild-40-rates", "lists-1", "lists-5",
         "lists-20", "walk-dogd_dt-10-permuted"])
def test_one_run_allocates_less_than_its_estimate(T, n, delay, learner, loss):
    # the delays, the plan's lists and the consumption log cost the same bytes a round
    # whatever n is, so at n = 1 they outweigh the T*n arrays; mild adds its T*N weights,
    # N being the length of its rate list when the config gives one; a config's own lists
    # are held twice, and a row of a nested list costs more than its entries; a DOGD-family
    # run on linear losses (listed gradients too) holds its walk's path and steps instead
    # of the round loop's lists
    def config(T):
        return base_config(T=T, n=n, learner=learner,
                           **{"environment": {"kind": "drift", "step": 0.05, "loss": loss},
                              **(listed(T, n) if delay == "listed" else {"delay": delay})})

    run_experiment(config(50))  # warm up
    cfg = config(T)
    tracemalloc.start()
    try:
        run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= harness._run_bytes(harness.normalize_config(cfg))


def two_run_batches(monkeypatch, cfg: dict) -> int:
    """Cut the runs of ``cfg`` into lockstep batches of two; returns such a batch's estimate."""
    batch = harness._batch_bytes(harness.normalize_config(cfg), 2)
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2 * batch + 1)
    return batch


def traced_peak(call, cfg: dict):
    """``call(cfg)``'s result, the bytes it still holds when it returns (garbage collected),
    and its peak."""
    call({**cfg, "T": 50})  # warm up: first calls may import or cache
    tracemalloc.start()
    try:
        result = call(cfg)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def own_bytes(result) -> int:
    """The bytes ``result`` holds, measured on their own: what a copy of it allocates."""
    data = pickle.dumps(result)
    tracemalloc.start()
    try:
        copied = pickle.loads(data)  # noqa: F841 (held while the memory is read)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# what NumPy's and the interpreter's caches keep past a call's result (tracemalloc: 2 to 9 KB
# after the calls below); one kept constant-delay plan of T = 2000 holds about 230 KB
_CACHES = 2**14


# at the batch size below, all repetitions together or a sweep's plans for every cell
# outgrow one batch's estimate; a call holds its result and nothing else when it returns
def test_run_many_holds_one_batch_at_a_time(monkeypatch):
    cfg = base_config(T=2000, n=1, delay={"kind": "permuted"}, repetitions=12)
    batch = two_run_batches(monkeypatch, cfg)
    seeds, held, peak = traced_peak(
        lambda c: [summary["seed"] for _, summary in run_many(c)], cfg)
    assert seeds == list(range(7, 19)) and peak <= batch
    assert held <= own_bytes(seeds) + _CACHES


def test_run_many_holds_no_seed_of_a_later_batch(monkeypatch):
    # the repetitions' seeds are a range, cut into batches as the iterator reaches them
    cfg = base_config(T=2, n=1, repetitions=10**6)
    batch = two_run_batches(monkeypatch, cfg)
    (_, summary), _, peak = traced_peak(lambda c: next(run_many(c)), cfg)
    assert summary["seed"] == 7 and peak <= batch


def test_cli_run_holds_one_batch_at_a_time(tmp_path, monkeypatch):
    cfg = base_config(T=2000, n=1, delay={"kind": "permuted"}, repetitions=12)
    batch = two_run_batches(monkeypatch, cfg)
    out = tmp_path / "out"
    code, held, peak = traced_peak(lambda c: cli.main(["run", "--config", write_config(tmp_path, c),
                                                       "--out", str(out)]), cfg)
    assert code == 0 and peak <= batch and held <= _CACHES
    assert len(json.loads((out / "summary.json").read_text())["runs"]) == 12


def test_sweep_holds_one_batch_at_a_time_and_its_rows(monkeypatch):
    cfg = base_config(T=2000, n=1)
    batch = two_run_batches(monkeypatch, cfg)
    rows, held, peak = traced_peak(lambda c: sweep(c, {"d": list(range(1, 13))}), cfg)
    kept = own_bytes(rows)
    assert len(rows) == 12 and peak <= batch + kept and held <= kept + _CACHES


def test_a_sweep_over_several_horizons_holds_one_batch_and_its_rows(monkeypatch):
    # a horizon's environments go once its last batch has run, so the sweep never holds
    # those of every T at once; the largest T's batch bounds it
    cfg = base_config(T=2000, n=5, repetitions=6)
    batch = two_run_batches(monkeypatch, cfg)
    rows, held, peak = traced_peak(
        lambda c: sweep(c, {"T": [c["T"] // 4 * k for k in (1, 2, 3, 4)]}), cfg)
    kept = own_bytes(rows)
    assert len(rows) == 24 and peak <= batch + kept and held <= kept + _CACHES


def test_a_failing_batch_leaves_complete_traces_and_no_summary(tmp_path, monkeypatch):
    cfg = base_config(repetitions=4)
    two_run_batches(monkeypatch, cfg)
    run = harness._run

    def second_batch_fails(rows):
        if rows[0][1] == 9:  # seeds 7 and 8 make the first batch
            raise ConfigError("the second batch fails")
        return run(rows)

    monkeypatch.setattr(harness, "_run", second_batch_fails)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert sorted(path.name for path in out.iterdir()) == ["trace_rep000.csv", "trace_rep001.csv"]
    for rep in range(2):
        assert (out / f"trace_rep{rep:03d}.csv").read_text() == \
            trace_to_csv(run_experiment(cfg, seed=7 + rep)[0])


@pytest.mark.parametrize("grid", [{"T": [10.5]}, {"d": [2.5]}])
def test_sweep_rejects_fractional_cells(grid):
    with pytest.raises(harness.SweepError, match="not an integer"):
        sweep(base_config(), grid)


@pytest.mark.parametrize("value", [True, "2", [True]])
def test_sweep_refuses_a_path_budget_cell_that_is_not_a_number(value):
    # a P cell is checked as comparators.path_budget, not read through float()
    with pytest.raises(harness.SweepError,
                       match=rf"^sweep cell \{{'P': {re.escape(repr(value))}\}} failed: "
                             r"comparators\.path_budget must be"):
        sweep({"T": 20}, {"P": [value]})


# --- lowerbound report -------------------------------------------------------------

def test_lowerbound_report_shape():
    report = lowerbound_report(T=60, d=3, D=2.0, G=1.0, n=1, trials=5, base_seed=1)
    assert len(report["per_trial"]) == 5
    assert report["stderr"] is not None
    assert report["bound_lemma3"] == pytest.approx(2.0 * 60 / (2 * math.sqrt(2 * 20)))
    assert report["pass"] in (True, False)


def test_lowerbound_single_trial_suppresses_verdict():
    report = lowerbound_report(T=40, d=2, D=2.0, G=1.0, n=1, trials=1, base_seed=0)
    assert report["pass"] is None and report["stderr"] is None


# --- results kept past the runs ------------------------------------------------------

def no_run_starts(monkeypatch):
    def run(rows):
        raise AssertionError("a run started")
    monkeypatch.setattr(harness, "_run", run)


def test_kept_results_past_half_of_physical_memory_are_refused_before_any_run(
        tmp_path, capsys, monkeypatch):
    # a sweep that would keep 10^9 rows and a report of 10^15 trials; neither lists its
    # seeds nor starts a run, and the CLI prints no traceback
    no_run_starts(monkeypatch)
    with pytest.raises(ConfigError, match="half of physical memory"):
        sweep({"T": 2, "n": 1, "repetitions": 10**9}, {"d": [1]})
    with pytest.raises(ConfigError, match="half of physical memory"):
        lowerbound_report(T=8, d=2, D=1.0, G=1.0, n=1, trials=10**15)
    for argv, cfg in (
            (["sweep"], {"T": 2, "n": 1, "repetitions": 10**9, "sweep": {"d": [1]}}),
            (["lowerbound", "--trials", str(10**15)], {"T": 8, **_lowerbound(d=2)})):
        assert cli.main([*argv, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err


def test_kept_results_run_up_to_half_of_physical_memory(monkeypatch):
    cfg = base_config(T=20, repetitions=3)
    grid = {"learner": ["dogd", "mild_dt"]}
    kept = 3 * sum(harness._row_bytes(harness.normalize_config(harness._apply_cell(
        cfg, {"learner": name}))) for name in grid["learner"])
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2 * kept)
    assert len(sweep(cfg, grid)) == 6
    assert len(lowerbound_report(T=8, d=2, D=1.0, G=1.0, n=1, trials=3)["per_trial"]) == 3
    monkeypatch.setattr(harness, "_physical_memory", lambda: 2 * kept - 2)
    no_run_starts(monkeypatch)
    with pytest.raises(ConfigError, match="the sweep would keep 6 results"):
        sweep(cfg, grid)
    monkeypatch.setattr(harness, "_physical_memory", lambda: 6 * harness._TRIAL_BYTES - 2)
    with pytest.raises(ConfigError, match="lowerbound would keep 3 results"):
        lowerbound_report(T=8, d=2, D=1.0, G=1.0, n=1, trials=3)


def rendering_peak(render) -> int:
    tracemalloc.start()
    try:
        render()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kept_results_take_less_than_their_estimates():
    # every learner's sweep rows, kept and rendered as JSON, and a report's trials, kept
    # and rendered as JSON or CSV (the CLI's renderings), within _row_bytes and _TRIAL_BYTES
    cfg = base_config(T=200, n=1, repetitions=10)
    grid = {"learner": list(learners.KINDS)}
    rows = sweep(cfg, grid)
    estimate = 10 * sum(harness._row_bytes(harness.normalize_config(harness._apply_cell(
        cfg, {"learner": name}))) for name in grid["learner"])
    assert own_bytes(rows) + rendering_peak(
        lambda: harness.to_json({"grid": grid, "rows": rows})) <= estimate
    trials = 2000
    report = lowerbound_report(T=2, d=1, D=1.0, G=1.0, n=1, trials=trials)
    rows = [{"trial": i, "static_regret": r} for i, r in enumerate(report["per_trial"])]
    rendered = max(rendering_peak(lambda: harness.to_json(report)), own_bytes(rows) +
                   rendering_peak(lambda: cli._rows_to_csv(rows, ["trial", "static_regret"])))
    assert own_bytes(report) + rendered <= trials * harness._TRIAL_BYTES


# --- invariant suite -----------------------------------------------------------------

_VERIFY_CHECKS = (
    "delay_partition_backlog", "projection_optimal_idempotent", "loss_gradients",
    "ogd_dogd_reduction", "consumption_log_permutation", "epoch_starts_closed_form",
    "hedge_weight_simplex", "single_gradient_query_per_round", "measured_regret_below_bounds",
    "joint_effect_caps", "adversarial_instance_oracles", "static_regret_closed_vs_grid")


def inject_hedge_fault(monkeypatch):
    """Shift Mild-OGD's Hedge log-weights after every ``ingest``, without renormalizing."""
    ingest = MildOGD.ingest

    def shifted_ingest(self, t, stamps, grads):
        ingest(self, t, stamps, grads)
        self.log_w = self.log_w + 0.05
    monkeypatch.setattr(MildOGD, "ingest", shifted_ingest)


# --- CLI surface ------------------------------------------------------------------

def nested(levels):
    """A placeholder that ``write_config`` writes as 0.5 inside ``levels`` nested lists;
    ``json.dumps`` itself recurses too deep for 100,000 levels."""
    return f"<0.5 in {levels} lists>"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(re.sub(r'"<0\.5 in (\d+) lists>"',
                           lambda m: "[" * int(m[1]) + "0.5" + "]" * int(m[1]), json.dumps(cfg)))
    return str(path)


def test_cli_run_writes_both_renderings(tmp_path):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 1
    csv_text = (out / "trace.csv").read_text()
    assert csv_text.splitlines()[0] == "t,x,loss,cum_loss,m_t,n_arrivals,arrived_timestamps"
    assert len(csv_text.splitlines()) == 41


def test_cli_outputs_byte_identical_across_runs(tmp_path):
    path = write_config(tmp_path, base_config())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
        outs.append(((out / "summary.json").read_bytes(), (out / "trace.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_cli_seed_flag_overrides(tmp_path):
    path = write_config(tmp_path, base_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["run", "--config", path, "--out", str(out1), "--seed", "99"])
    cli.main(["run", "--config", path, "--out", str(out2), "--seed", "99"])
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert json.loads((out1 / "summary.json").read_text())["runs"][0]["seed"] == 99


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_run_exits_141_without_a_traceback_when_its_reader_closes_the_pipe(tmp_path, fmt):
    # two repetitions write far more than a pipe holds (each summary echoes the T listed
    # delays), so the writer meets the closed pipe mid-output (block-buffered:
    # PYTHONUNBUFFERED unset), or at the flush at exit
    path = write_config(tmp_path, {"T": 5000, "n": 3, "repetitions": 2,
                                   "delay": {"kind": "list", "values": [1] * 5000}})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-m", "delayed_oco.cli", "run", "--config", path,
                           "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert (proc.wait(timeout=120), "Traceback" in stderr) == (141, False), stderr


def test_cli_config_error_exit_code(tmp_path):
    path = write_config(tmp_path, base_config(typo=1))
    assert cli.main(["run", "--config", path]) == 2
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert cli.main(["run"]) == 2


def _drift(**fields):
    return {"environment": {"kind": "drift", "step": 0.05, "loss": "quadratic", **fields}}


def _gradients(value):
    return {"environment": {"kind": "linear_list", "gradients": value}}


def _piecewise(**fields):
    return {"comparators": {"kind": "piecewise", **fields}}


def _learner(name, **fields):
    return {"learner": {"name": name, **fields}}


def _comparators(kind, **fields):
    return {"comparators": {"kind": kind, **fields}}


def _lowerbound(**delay):
    return {"environment": {"kind": "lowerbound"}, "delay": {"kind": "blocks", **delay}}


# a mild learner's rates set under the name the summary gives them, once run on the paper grid
_EXPERT_RATES = {"T": 20, **_learner("mild", expert_rates=[0.1, 0.2])}


@pytest.mark.parametrize("overrides", [
    _drift(step=-0.1),
    _drift(step="fast"),
    _drift(step=math.nan),
    _drift(loss="cubic"),
    _gradients([[1.0, 0.0], [math.nan, 0.0], [0.0, 1.0]]),
    _gradients([[1.0], [0.0], [1.0]]),  # n = 2: one column short
    _gradients([[1.0, 0.0], [0.0, 1.0]]),  # T = 3: one round short
    _gradients("1.0"),
    _gradients([["1.0", "0.0"]] * 3),
    _piecewise(),
    _piecewise(path_budget=-1.0),
    _piecewise(path_budget=math.inf),
    _learner("dogd", eta=math.nan),
    _learner("dogd", eta=math.inf),
    _learner("ogd", eta=-math.inf),
    _learner("dogd", eta=0.0),
    _learner("dogd", eta=-1.0),
    _learner("dogd", eta="fast"),
    _learner("mild", etas=[0.1, math.nan]),
    _learner("mild", etas=[0.1, math.inf]),
    _learner("mild", etas=[-math.inf]),
    _learner("mild", etas=[0.1, 0.0]),
    _learner("mild", etas=[0.1, -1.0]),
    _learner("mild", etas="fast"),
    _learner("mild", etas=[0.1, "fast"]),
    _learner("mild", etas=[]),
    _learner("mild", etas=[[0.1], [0.2]]),
    _learner("mild", alpha=math.nan),
    _learner("mild", alpha=math.inf),
    _learner("mild", alpha=-math.inf),
    _learner("mild", alpha=0.0),
    _learner("mild", alpha=-1.0),
    _learner("mild", alpha="fast"),
    {"D": math.nan},
    {"D": math.inf},
    {"G": math.nan},
    {"G": math.inf},
    {"delay": 5},
    {"environment": "drift"},
    {"comparators": ["origin"]},
    _comparators("constant", point="middle"),
    _comparators("constant", point=["a", "b"]),
    _comparators("constant", point=[math.nan, 0.0]),
    _comparators("constant", point=[0.1]),
    _comparators("list"),
    _comparators("list", points=[["a", "b"]] * 3),
    _comparators("list", points=[[0.0, math.nan]] * 3),
    _comparators("list", points=[[0.0, 0.0]] * 2),
    _comparators("list", points=[[5.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    _lowerbound(),
    _lowerbound(d="x"),
    _lowerbound(d=0),
    _lowerbound(d=1.5),
    {"seed": -1},
    {"delay": {"kind": "list", "values": 3}},
    {"T": 5.7},
    {"n": 1.5},
    {"seed": 0.5},
    {"repetitions": 1.5},
    {"D": 1e308},  # T*D overflows the comparator block length
    {"D": 5e-324},  # the box's half-width rounds to 0
    {"D": 1e-320},  # the drift loss scale overflows
    {"D": 1e-320, **_learner("mild"), **_lowerbound(d=1)},  # the Hedge alpha overflows
    {"G": 1e308},  # the paper rate underflows to 0
    {"G": 1e-320},  # the paper rate overflows
    {"G": 1e308, **_drift(loss="linear")},  # the linear drift gradients overflow
    {"G": 1e308, **_learner("mild")},
    {"G": 1e308, **_learner("dogd_dt")},  # a later epoch's rate underflows to 0
    {"G": 1e308, **_learner("mild_dt")},
    {"delay": {"kind": "constant", "value": 10**30}},
    {"delay": {"kind": "constant", "value": 2**63 - 2}},  # round 3 arrives at 2^63
    {"delay": {"kind": "list", "values": [1, 1, 2**63 - 2]}},
    _lowerbound(d=10**30),
    _gradients([[1e308, 1e308]] * 3),  # the norms overflow to inf
    _gradients([[0.0, 1.0], [2.0, 0.0], [0.0, 1.0]]),  # a gradient of norm 2 G
    _learner("mild", eta=0.5),  # mild takes etas and alpha, not eta
    {"delay": {"kind": "constant", "value": 3, "extra": 1}},
    _comparators("auto", extra=1),
    _drift(stpe=0.1),
    {"T": True},
    {"D": True},
    _learner("dogd", eta=True),
    {"delay": {"kind": "constant", "value": True}},
    {"T": 10**12},  # 8 T n (N + 5) + 200 T bytes exceed physical memory
    {"T": 10**12, **_lowerbound(d=1)},
    {"D": 1e-200, "G": 1e-200, **_learner("mild")},  # G*D*sqrt(sum_m) underflows to 0
    {"D": 1e-200, "G": 1e-200, **_learner("mild_dt")},
    _learner("mild", etas=[True, 0.5]),  # np.asarray would read the bool as 1.0
    _learner("mild", expert_rates=[0.5, True]),
    _comparators("constant", point=[True, 0.0]),
    _comparators("list", points=[[0.0, 0.0], [False, 0.0], [0.0, 0.0]]),
    _gradients([[0.0, 1.0], [True, 0.0], [0.0, 1.0]]),
    _learner("mild", etas=nested(900)),  # copy.deepcopy would exhaust the recursion limit
    _learner("mild", etas=nested(100_000)),  # json.load would exhaust it
    {"D": "2.0"},  # numeric text is text, not a number
    _learner("dogd", eta="0.5"),
    _learner("mild", etas=["0.1", "0.2"]),
    _drift(step="0.1"),
    _piecewise(path_budget="1"),
    {"delay": {"kind": "constant", "value": 1, "resolved_values": ["1", "1", "1"]}},
    _EXPERT_RATES,
    {"delay": {"kind": "constant", "value": 1, "resolved_values": [1, 1, 1]}},
], ids=["negative-step", "text-step", "nan-step", "unknown-loss", "nan-gradient",
        "narrow-gradients", "short-gradients", "string-gradients", "text-gradients",
        "missing-budget", "negative-budget", "infinite-budget",
        "nan-eta", "infinite-eta", "negative-infinite-eta", "zero-eta", "negative-eta",
        "text-eta", "nan-etas", "infinite-etas", "negative-infinite-etas", "zero-etas",
        "negative-etas", "text-etas", "text-in-etas", "empty-etas", "nested-etas",
        "nan-alpha", "infinite-alpha", "negative-infinite-alpha", "zero-alpha",
        "negative-alpha", "text-alpha", "nan-D", "infinite-D", "nan-G", "infinite-G",
        "number-delay", "text-environment", "list-comparators", "text-point",
        "strings-point", "nan-point", "short-point", "missing-points", "strings-points",
        "nan-points", "short-points", "points-outside-box", "lowerbound-no-d",
        "lowerbound-text-d", "lowerbound-zero-d", "lowerbound-fractional-d", "negative-seed",
        "number-delay-values", "fractional-T", "fractional-n", "fractional-seed",
        "fractional-repetitions", "huge-D", "min-D", "tiny-D", "tiny-D-mild", "huge-G",
        "tiny-G", "huge-G-linear", "huge-G-mild", "huge-G-dogd_dt", "huge-G-mild_dt",
        "huge-delay", "arrival-past-2^63", "huge-listed-delay", "huge-lowerbound-d",
        "overflowing-gradients", "gradients-above-G", "mild-eta", "delay-extra",
        "auto-comparators-extra", "drift-stpe", "bool-T", "bool-D", "bool-eta",
        "bool-delay-value", "memory-drift", "memory-lowerbound", "tiny-DG-mild",
        "tiny-DG-mild_dt", "bool-in-etas", "bool-in-expert_rates", "bool-in-point",
        "bool-in-points", "bool-in-gradients", "nested-900", "nested-100000", "text-D",
        "numeric-text-eta", "numeric-text-etas", "numeric-text-step",
        "numeric-text-budget", "numeric-text-resolved_values", "mild-expert_rates",
        "valid-resolved_values"])
def test_cli_config_error_exit_code_on_malformed_input(tmp_path, capsys, overrides):
    cfg = base_config(**{"T": 3, **overrides})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if overrides == _EXPERT_RATES:  # a mild learner takes its rates as etas
        assert "'etas'" in err, err


@pytest.mark.parametrize("learner", _LEARNER_NAMES)
@pytest.mark.parametrize("setting", [{"delay": {"kind": "permuted"}}, _lowerbound(d=4)],
                         ids=["drift-permuted", "lowerbound"])
def test_echoed_config_replays_bitwise(learner, setting):
    trace, summary = run_experiment(base_config(learner={"name": learner}, **setting))
    echo = json.loads(harness.to_json(summary))["config"]
    replay, again = run_experiment(echo)
    assert replay.decisions.tobytes() == trace.decisions.tobytes()
    assert harness.to_json(again) == harness.to_json(summary)


_RATE = st.just("paper") | st.floats(0.01, 2.0)
_POSITIVES = st.lists(st.floats(0.01, 2.0), min_size=1, max_size=4)


def _rows(T, n):
    return st.lists(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n), min_size=T,
                    max_size=T)


def _delays(T, n):
    return st.lists(st.integers(1, 5), min_size=T, max_size=T)


# one strategy per (section, kind, field) of harness._SPEC, given T and n; every value
# is valid for D = 2 and G = 1 (the defaults) and n <= 3
_FIELD_VALUES = {
    ("learner", "ogd", "eta"): lambda T, n: _RATE,
    ("learner", "dogd", "eta"): lambda T, n: _RATE,
    ("learner", "mild", "etas"): lambda T, n: st.just("paper") | _POSITIVES,
    ("learner", "mild", "alpha"): lambda T, n: _RATE,
    ("delay", "constant", "value"): lambda T, n: st.integers(1, 5),
    ("delay", "uniform", "lo"): lambda T, n: st.integers(1, 2),
    ("delay", "uniform", "hi"): lambda T, n: st.integers(2, 5),
    ("delay", "blocks", "d"): lambda T, n: st.integers(1, 5),
    ("delay", "in_order_random", "d_max"): lambda T, n: st.integers(1, 5),
    ("delay", "list", "values"): _delays,
    ("environment", "drift", "step"): lambda T, n: st.floats(0.0, 0.5),
    ("environment", "drift", "loss"): lambda T, n: st.sampled_from(["quadratic", "linear"]),
    ("environment", "linear_list", "gradients"): _rows,
    ("comparators", "constant", "point"):
        lambda T, n: st.just("origin") | st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
    ("comparators", "piecewise", "path_budget"): lambda T, n: st.floats(0.0, 3.0),
    ("comparators", "list", "points"): _rows,
}


def _spec_fields(section, kind):
    """The required and the optional field names of one kind in harness._SPEC."""
    required, optional = harness._SPEC[section][1][kind]
    return list(required), list(optional)


def _spec_kinds():
    return [(section, kind) for section, (_, kinds) in harness._SPEC.items() for kind in kinds]


def test_spec_strategies_cover_every_field():
    assert set(_FIELD_VALUES) == {(section, kind, field) for section, kind in _spec_kinds()
                                  for fields in _spec_fields(section, kind) for field in fields}


@st.composite
def spec_cases(draw):
    """A valid config drawn from harness._SPEC with one (section, kind) pinned, and
    one mutation of that section: a dropped required field, an unknown field, or a
    field set to a bool, NaN, text (numeric or not, alone or in a list), a negative number
    or a bool in a list."""
    T, n = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    kinds = {section: list(k) for section, (_, k) in harness._SPEC.items()}
    pinned = draw(st.sampled_from(_spec_kinds()))

    def pick(section, allowed):
        return pinned[1] if pinned[0] == section else draw(st.sampled_from(allowed))

    # the cross-section rules: lowerbound owns blocks delays, targets need drift
    env = pick("environment", [
        k for k in kinds["environment"]
        if (k != "lowerbound" or pinned[0] != "delay" or pinned[1] == "blocks")
        and (k == "drift" or pinned != ("comparators", "targets"))])
    chosen = {"environment": env, "learner": pick("learner", kinds["learner"]),
              "delay": pick("delay", ["blocks"] if env == "lowerbound" else kinds["delay"]),
              "comparators": pick("comparators", [k for k in kinds["comparators"]
                                                  if k != "targets" or env == "drift"])}
    cfg = {"T": T, "n": n, "seed": draw(st.integers(0, 50))}
    for section, kind in chosen.items():
        required, optional = _spec_fields(section, kind)
        body = {harness._SPEC[section][0]: kind}
        for field in required + [f for f in optional if draw(st.booleans())]:
            body[field] = draw(_FIELD_VALUES[section, kind, field](T, n))
        cfg[section] = body
    required, optional = _spec_fields(*pinned)
    mutations = [("drop", f, None) for f in required] + [("set", "extra", 1)] + [
        ("set", f, v) for f in required + optional
        for v in (True, math.nan, "fast", -1, "1", ["1"], [True])]
    return cfg, pinned[0], draw(st.sampled_from(mutations))


def _cli_run(cfg, out):
    """Exit code, stderr and output bytes of ``delayed-oco run --strict`` on ``cfg``."""
    path = pathlib.Path(out) / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(path), "--out", out, "--strict"])
    files = {name: (pathlib.Path(out) / name).read_bytes() for name in ("summary.json", "trace.csv")
             if (pathlib.Path(out) / name).exists()}
    return code, err.getvalue(), files


@settings(max_examples=200, deadline=None)
@given(spec_cases())
def test_spec_configs_run_deterministically_and_each_mutation_exits_2(case):
    cfg, section, (how, field, value) = case
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        first = _cli_run(cfg, a)
        assert first[0] in (0, 3) and len(first[2]) == 2
        assert _cli_run(cfg, b) == first
        mutated = copy.deepcopy(cfg)
        if how == "drop":
            del mutated[section][field]
        else:
            mutated[section][field] = value
        code, err, _ = _cli_run(mutated, a)
    assert code == 2 and err.startswith("config error:") and "Traceback" not in err


def test_readme_names_every_kind_and_field_of_the_spec():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    required, optional = zip(*(_spec_fields(*pair) for pair in _spec_kinds()))
    names = {kind for _, kind in _spec_kinds()}.union(*required, *optional)
    assert sorted(name for name in names if f"`{name}`" not in readme) == []


def test_cli_lowerbound_rejects_a_bad_block_length(tmp_path, capsys):
    cfg = base_config(T=3, **_lowerbound(d=0))
    assert cli.main(["lowerbound", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("command", ["run", "lowerbound", "verify"])
def test_cli_negative_seed_flag_exit_code(tmp_path, capsys, command):
    cfg = base_config(T=3, **_lowerbound(d=1))
    assert cli.main([command, "--config", write_config(tmp_path, cfg), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [["run", "--trials", "3"], ["sweep", "--trials", "3"],
                                  ["verify", "--trials", "3"], ["lowerbound", "--strict"],
                                  ["verify", "--strict"]],
                         ids=["run-trials", "sweep-trials", "verify-trials", "lowerbound-strict",
                              "verify-strict"])
def test_cli_flag_a_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    cfg = base_config(T=3, **_lowerbound(d=1))
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, "--config", write_config(tmp_path, cfg)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_cli_fractional_delays_exit_code(tmp_path, capsys):
    cfg = base_config(T=3, delay={"kind": "list", "values": [1.5, 2.9, 1]})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert "1.5 is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    (["run"], {"T": 200, "n": 3, "G": 100.0, "learner": {"name": "mild", "alpha": 1e308},
               "delay": {"kind": "uniform", "lo": 1, "hi": 9},
               "environment": {"kind": "drift", "step": 0.3, "loss": "linear"}}),
    (["lowerbound", "--trials", "2"], {"T": 200, "learner": {"name": "mild", "alpha": 1e308},
                                       **_lowerbound(d=4)}),
], ids=["run", "lowerbound"])
def test_cli_a_diverging_run_exits_2(tmp_path, capsys, command, config):
    # the Hedge weights turn NaN, so the run plays a non-finite decision; the round loop
    # steps without NumPy's warnings, and the run's one error line says why it stopped
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*command, "--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the mild run") and "diverged" in err
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_refuses_a_summary_with_a_non_finite_value(tmp_path, capsys, command):
    # the bounds square D, and JSON has no infinity
    cfg = {"T": 50, "D": 1e200, **({"sweep": {"learner": ["dogd", "mild"]}}
                                    if command == "sweep" else {})}
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, cfg), "--strict", "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:" if command == "run" else
                          "sweep error: sweep cell {'learner': 'dogd'} failed:")
    assert "bound_thm1, bound_thm2, bound_thm5, bound_lower" in err
    assert not out.exists()


def test_cli_run_removes_the_empty_directories_it_made_when_its_first_batch_fails(tmp_path):
    # the summary is streamed to out/summary.json.part, so the directory exists before the
    # first run does; a failing run leaves none of it, while a directory that was there stays
    cfg = write_config(tmp_path, {"T": 50, "D": 1e200})
    for out in (tmp_path / "new" / "nested", tmp_path):
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["run", "sweep", "lowerbound", "verify"])
def test_cli_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    def started(*args, **kw):
        raise AssertionError("the command started its work")
    monkeypatch.setattr(harness, "_build_inputs", started)
    monkeypatch.setattr(invariants, "verify_all", started)
    path = write_config(tmp_path, base_config(T=3, **_lowerbound(d=1), sweep={"d": [1, 2]}))
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out in (taken, taken / "out"):
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"config error: --out {out}: {taken} is a file, not a directory\n"
    assert taken.read_text() == "a file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]


def test_cli_strict_bound_violation_exit_code(tmp_path, monkeypatch):
    # force a violation through a fault hook: an impossible negative bound
    monkeypatch.setattr("delayed_oco.metrics.bound_cor1", lambda *a, **k: -1.0)
    path = write_config(tmp_path, base_config())
    assert cli.main(["run", "--config", path, "--strict"]) == 3
    assert cli.main(["run", "--config", path]) == 0  # advisory without --strict


def test_cli_sweep(tmp_path, capsys):
    # sweep.json is written a row at a time, to a file or to stdout, and reads as the text
    # to_json gives for the whole document
    cfg = base_config()
    cfg["sweep"] = {"d": [1, 4]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [r["cell"]["d"] for r in rows] == [1, 4]
    grid = {"learner": ["dogd", "mild_dt"], "d": [1, 4]}
    assert cli.main(["sweep", "--config", write_config(tmp_path, {**cfg, "sweep": grid}),
                     "--out", str(out)]) == 0
    document = harness.to_json({"grid": grid, "rows": sweep(base_config(), grid)})
    assert (out / "sweep.json").read_text() == document
    capsys.readouterr()
    assert cli.main(["sweep", "--config", write_config(tmp_path, {**cfg, "sweep": grid})]) == 0
    assert capsys.readouterr().out == document
    assert "".join(cli._sweep_json(grid, [])) == harness.to_json({"grid": grid, "rows": []})
    assert cli.main(["sweep", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("cell_d,")


def test_cli_sweep_without_grid_errors(tmp_path):
    path = write_config(tmp_path, base_config())
    assert cli.main(["sweep", "--config", path]) == 2


@pytest.mark.parametrize("command, config", [
    (["run", "--seed", "3"], []),
    (["sweep"], []),
    (["sweep"], {**base_config(T=3), "sweep": [1, 2]}),
    (["sweep"], {**base_config(T=3), "sweep": {"d": 5}}),
], ids=["run-seeded-list", "sweep-list", "sweep-list-grid", "sweep-scalar-values"])
def test_cli_config_error_exit_code_on_malformed_shape(tmp_path, capsys, command, config):
    assert cli.main([*command, "--config", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_lowerbound(tmp_path, capsys):
    cfg = {
        "T": 50, "n": 1, "D": 2.0, "G": 1.0,
        "learner": {"name": "dogd", "eta": "paper"},
        "delay": {"kind": "blocks", "d": 5},
        "environment": {"kind": "lowerbound"},
        "seed": 3,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["lowerbound", "--config", path, "--trials", "4",
                     "--out", str(out)]) == 0
    report = json.loads((out / "lowerbound.json").read_text())
    assert report["trials"] == 4 and len(report["per_trial"]) == 4
    err = capsys.readouterr().err
    assert "mean static regret" in err
    # the CSV lines come straight from the per-trial regrets, as the dict rows rendered them
    assert cli.main(["lowerbound", "--config", path, "--trials", "4", "--out", str(out),
                     "--format", "csv"]) == 0
    rows = [{"trial": i, "static_regret": r} for i, r in enumerate(report["per_trial"])]
    assert (out / "lowerbound.csv").read_text() == \
        cli._rows_to_csv(rows, ["trial", "static_regret"])


def test_cli_verify_green(capsys):
    # the default JSON goes to stdout alone; the status lines go to stderr
    assert cli.main(["verify"]) == 0
    captured = capsys.readouterr()
    assert "[ok]" in captured.err and "FAIL" not in captured.err
    assert tuple(c["name"] for c in json.loads(captured.out)["checks"]) == _VERIFY_CHECKS


def test_cli_verify_stdout_parses_as_json(monkeypatch, tmp_path, capsys):
    checks = [{"name": "a", "ok": True, "detail": "fine"}, {"name": "b", "ok": True, "detail": ""}]
    monkeypatch.setattr(invariants, "verify_all", lambda seed=0: checks)
    assert cli.main(["verify", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"checks": checks}
    assert captured.err == "[ok] a\n[ok] b\n"
    # csv format and a directory sink leave stdout to the status lines
    for argv in (["--format", "csv"], ["--out", str(tmp_path)]):
        assert cli.main(["verify", *argv]) == 0
        assert capsys.readouterr().out == "[ok] a\n[ok] b\n"
    assert json.loads((tmp_path / "verify.json").read_text()) == {"checks": checks}


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(invariants, "verify_all",
                        lambda seed=0: [{"name": "x", "ok": False, "detail": "boom"}])
    assert cli.main(["verify"]) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.err and json.loads(captured.out)["checks"][0]["ok"] is False


def test_cli_verify_exits_4_under_corrupted_hedge(monkeypatch, capsys):
    inject_hedge_fault(monkeypatch)
    assert cli.main(["verify"]) == 4
    captured = capsys.readouterr()
    assert "[FAIL] hedge_weight_simplex" in captured.err
    assert not {c["name"]: c["ok"] for c in json.loads(captured.out)["checks"]}[
        "hedge_weight_simplex"]
