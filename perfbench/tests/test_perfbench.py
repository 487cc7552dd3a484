"""Tests of the benchmark itself: failure accounting, tracing, oracle, contract.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q

Faults are injected from outside, by patching the imported package or the
benchmark's input generators, never by editing the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

dz = run.load_program()

import floor  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402


def bench(capsys, workload: str, trace: int = 0, seconds: float = 0.1):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_seed_code_passes_and_reports_every_end_to_end_metric(capsys):
    code, res = bench(capsys, "cli_run", seconds=0.5)
    assert code == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert list(res["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _corrupt_hedge(monkeypatch):
    original = dz.learners.MildOGD.ingest

    def ingest(self, t, items):
        original(self, t, items)
        if items:
            self.log_w = self.log_w + 0.05  # skip renormalization

    monkeypatch.setattr(dz.learners.MildOGD, "ingest", ingest)


def _perturb_regret(monkeypatch):
    original = dz.metrics.dynamic_regret
    monkeypatch.setattr(dz.metrics, "dynamic_regret",
                        lambda *a, **k: original(*a, **k) * (1 + 1e-6))


def _malformed_sweep_config(monkeypatch):
    original = workloads.DriftSweep.config
    monkeypatch.setattr(workloads.DriftSweep, "config",
                        lambda self, s: {**original(self, s), "n": "five"})


def _malformed_cli_config(monkeypatch):
    original = workloads.CliRun.config
    monkeypatch.setattr(workloads.CliRun, "config",
                        lambda self: {**original(self), "T": -1})


@pytest.mark.parametrize("inject, workload", [
    (_corrupt_hedge, "drift_sweep"),
    (_perturb_regret, "drift_sweep"),
    (_malformed_sweep_config, "drift_sweep"),
    (_malformed_cli_config, "cli_run"),
])
def test_injected_fault_is_counted_and_fails_the_command(monkeypatch, capsys, inject, workload):
    inject(monkeypatch)
    code, res = bench(capsys, workload)
    assert code != 0
    assert not res["correct"]
    assert res["attempted"] >= 2 and res["failed"] / res["attempted"] > 0


def test_traced_run_reports_every_layer_and_exact_counters(capsys):
    code, res = bench(capsys, "cli_run", trace=1, seconds=0.3)
    assert code == 0 and res["correct"]
    assert list(res["metrics"]) == list(layers.PER_LAYER)
    record = json.loads((run.OUT / "cli_run_trace1.json").read_text())
    counters = record["counters"]
    assert counters["losses.gradient.calls"] == counters["rounds"] == workloads.CliRun.T
    assert 0.4 < counters["learners.ingest.kept_ratio"] < 0.8  # stale gradients dropped
    assert res["metrics"]["learners.ingest.kept_ratio"]["value"] == \
        counters["learners.ingest.kept_ratio"]


def test_self_times_sum_to_the_unit_call_and_nested_calls_count_once():
    config = {"T": 60, "n": 2, "learner": {"name": "mild_dt"},
              "delay": {"kind": "uniform", "lo": 1, "hi": 5}}
    originals = (dz.geometry.as_decision, dz.losses.as_decision, dz.harness.simulate,
                 dz.learners.MildOGD.__dict__["ingest"])
    tracer = Tracer()
    with tracer:
        assert dz.losses.as_decision is not originals[1]
        with tracer.span("bench.unit_call", 0):
            dz.harness.run_experiment(config, seed=4)
    assert (dz.geometry.as_decision, dz.losses.as_decision, dz.harness.simulate,
            dz.learners.MildOGD.__dict__["ingest"]) == originals
    tab = SpanTable(tracer, 0)
    assert layers.self_time_problems(tab) == []
    assert tab.self_ns.sum() == tab.dur[tab.root]
    names = tab.by_name()
    # the restarting learner forwards to MildOGD, which forwards to each expert
    assert names["learners.DelayedOGD.ingest"]["calls"] > names["learners.MildOGD.ingest"]["calls"]
    assert "geometry.as_decision@losses" in names
    m = layers.span_metrics(tab)
    assert m["losses.gradient.calls"] == m["rounds"] == 60
    assert m["learners.experts"] == dz.learners.expert_count(60)


def test_floor_is_bitwise_equal_to_simulate_and_the_oracle_has_teeth(monkeypatch):
    inp = floor.drift_inputs(dz, 300, 3, 2.0, 1.0, 0.02, 7, run_seed=11)
    assert floor.oracle_matches(dz, inp)
    assert floor.backlog_sum(inp["delays"]) == dz.constant_schedule(300, 7).sum_backlog
    exact = floor.floor_decisions
    monkeypatch.setattr(floor, "floor_decisions",
                        lambda tg, s, d, h, eta: exact(tg, s, d, h, eta * (1 + 1e-9)))
    assert not floor.oracle_matches(dz, inp)


def test_backlog_sum_matches_the_package_on_irregular_delays():
    rng = np.random.default_rng(5)
    for _ in range(50):
        delays = rng.integers(1, 9, size=int(rng.integers(1, 80)))
        schedule = dz.DelaySchedule(tuple(int(d) for d in delays))
        assert floor.backlog_sum(delays) == schedule.sum_backlog


def test_lowerbound_total_delay_matches_block_schedule():
    wl = workloads.LowerboundMild()
    for d in wl.delays:
        assert wl.block_total_delay(d) == dz.block_schedule(wl.T, d).total_delay


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_exits_nonzero_without_printing_where_the_program_is_absent():
    root = run.OUT / "bare-checkout"
    shutil.rmtree(root, ignore_errors=True)
    try:
        shutil.copytree(BENCH, root / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", root)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_run",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=root, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(root, ignore_errors=True)
