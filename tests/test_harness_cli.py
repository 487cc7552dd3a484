import json
import math
import time

import numpy as np
import pytest

from delayed_oco import cli, harness
from delayed_oco.harness import (ConfigError, lowerbound_report, run_experiment, run_many, sweep,
                                 trace_to_csv)


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
    assert [trace.schedule.arrivals(t) for t in (1, 2, 3)] == [[], [1, 2], [3]]
    rows = [line.split(",") for line in trace_to_csv(trace).splitlines()[1:]]
    assert [(r[4], r[5], r[6]) for r in rows] == [("1", "0", ""), ("2", "2", "1;2"),
                                                  ("1", "1", "3")]
    assert trace.c_log == (1, 2, 3)
    assert summary["regret_dynamic"] == 0.0
    assert summary["joint_effect"] == 0.0


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


def test_run_is_deterministic():
    a_trace, a_summary = run_experiment(base_config())
    b_trace, b_summary = run_experiment(base_config())
    assert harness.trace_to_csv(a_trace) == harness.trace_to_csv(b_trace)
    assert harness.to_json(a_summary) == harness.to_json(b_summary)


def test_repetitions_produce_one_row_per_seed():
    results = run_many(base_config(repetitions=5))
    assert len(results) == 5
    seeds = [summary["seed"] for _, summary in results]
    assert seeds == [7, 8, 9, 10, 11]
    assert len({summary["env_fingerprint"] for _, summary in results}) == 5


def test_summary_reports_resolved_rate_and_bounds():
    _, summary = run_experiment(base_config())
    sched_sum_m = summary["sum_m"]
    assert summary["eta"] == pytest.approx(2.0 / math.sqrt(sched_sum_m))
    assert summary["config"]["learner"]["eta"] == summary["eta"]
    assert summary["config"]["delay"]["resolved_values"] == [3] * 40
    assert summary["in_order"] is True
    assert summary["joint_effect"] == 0.0
    assert summary["bound_thm1"] is not None
    assert summary["regret_dynamic"] <= summary["bound_cor1"]
    assert summary["bound_check"] == {"bound": "bound_cor1", "ok": True}


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


# --- invariant suite -----------------------------------------------------------------

def test_verify_all_green():
    checks = harness.verify_all(seed=0)
    failed = [c for c in checks if not c["ok"]]
    assert failed == []
    assert len(checks) >= 10


def test_verify_catches_corrupted_normalization():
    checks = harness.verify_all(seed=0, corrupt_hedge=True)
    simplex = [c for c in checks if c["name"] == "hedge_weight_simplex"]
    assert simplex and not simplex[0]["ok"]


# --- CLI surface ------------------------------------------------------------------

def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
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
], ids=["negative-step", "text-step", "nan-step", "unknown-loss", "nan-gradient",
        "narrow-gradients", "short-gradients", "string-gradients", "text-gradients",
        "missing-budget", "negative-budget", "infinite-budget"])
def test_cli_config_error_exit_code_on_malformed_input(tmp_path, capsys, overrides):
    cfg = base_config(T=3, **overrides)
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_fractional_delays_exit_code(tmp_path, capsys):
    cfg = base_config(T=3, delay={"kind": "list", "values": [1.5, 2.9, 1]})
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 2
    assert "1.5 is not an integer" in capsys.readouterr().err


def test_cli_strict_bound_violation_exit_code(tmp_path, monkeypatch):
    # force a violation through a fault hook: an impossible negative bound
    monkeypatch.setattr("delayed_oco.metrics.bound_cor1", lambda *a, **k: -1.0)
    path = write_config(tmp_path, base_config())
    assert cli.main(["run", "--config", path, "--strict"]) == 3
    assert cli.main(["run", "--config", path]) == 0  # advisory without --strict


def test_cli_sweep(tmp_path):
    cfg = base_config()
    cfg["sweep"] = {"d": [1, 4]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert [r["cell"]["d"] for r in rows] == [1, 4]
    assert cli.main(["sweep", "--config", path, "--out", str(out), "--format", "csv"]) == 0
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("cell_d,")


def test_cli_sweep_without_grid_errors(tmp_path):
    path = write_config(tmp_path, base_config())
    assert cli.main(["sweep", "--config", path]) == 2


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


def test_cli_verify_green(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli.harness, "verify_all",
                        lambda seed=0: [{"name": "x", "ok": False, "detail": "boom"}])
    assert cli.main(["verify"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_exits_4_under_corrupted_hedge(monkeypatch, capsys):
    verify_all = harness.verify_all
    monkeypatch.setattr(cli.harness, "verify_all",
                        lambda seed=0: verify_all(seed=seed, corrupt_hedge=True))
    assert cli.main(["verify"]) == 4
    assert "[FAIL] hedge_weight_simplex" in capsys.readouterr().out
