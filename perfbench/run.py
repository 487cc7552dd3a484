"""Benchmark of the delayed_oco package: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py                      # all workloads, a table
    python3 perfbench/run.py --workload cli_run --seed 3 --seconds 30 --trace 0

One workload per process: set-up, a warm-up call, then a closed loop with one
client that starts the next unit call when the previous one returns, for
``--seconds``.  Every output is checked.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is a separate run that wraps the package's
functions from outside (see tracer.py) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every call and every check passed.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from the first line of this script

import os

# BLAS threads pinned to 1 in this process (and the set-up probes it starts)
# before NumPy is imported: the load model is one client and no extra threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import floor
import layers
import workloads
from tracer import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Claims of a gain are verified on this seed, which tuning never used.
HOLDOUT_SEED = 7919
SETUP_PROBES = 7

# name -> (unit, better); mirrors BENCHMARK.json's end_to_end.  Wall-time
# throughput and latency are printed and recorded too, but host speed on a
# shared machine moves them by up to a fifth between runs, so the bounded
# metric is their ratio to the floor timed around each call.
END_TO_END = {
    "call_floor_ratio": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import delayed_oco from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "delayed_oco" / "__init__.py").is_file():
        raise ProgramMissing(f"no delayed_oco package under {src}")
    sys.path.insert(0, str(src))
    import delayed_oco
    import delayed_oco.cli  # noqa: F401  (the cli_run workload calls it)
    if Path(delayed_oco.__file__).resolve().parent != src / "delayed_oco":
        raise ProgramMissing(f"delayed_oco imported from {delayed_oco.__file__}, not {src}")
    return delayed_oco


def make_workload(name: str):
    return workloads.WORKLOADS[name]()


def setup(name: str, seed: int, workdir: Path):
    """Import plus input generation: what a run does before its first call."""
    dz = load_program()
    wl = make_workload(name)
    workdir.mkdir(parents=True, exist_ok=True)
    return dz, wl, wl.make_inputs(dz, seed, workdir)


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs and checks unit calls, keeping the failure count."""

    def __init__(self, dz, wl):
        self.dz, self.wl = dz, wl
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def timed(self, inp):
        """One unit call; returns (seconds, output, or None when it raised)."""
        t0 = time.perf_counter()
        try:
            out = self.wl.call(self.dz, inp)
        except Exception:  # a failing call is counted, never fatal
            dt = time.perf_counter() - t0
            self._fail(traceback.format_exc())
            return dt, None
        return time.perf_counter() - t0, out

    def check(self, inp, out) -> bool:
        """Count one attempted call and check its output; True when it passed."""
        self.attempted += 1
        if out is None:
            return False
        try:
            problems = self.wl.check(self.dz, inp, out)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self._fail("; ".join(problems))
            return False
        return True

    def run(self, inp) -> tuple[float, bool]:
        dt, out = self.timed(inp)
        return dt, self.check(inp, out)

    def _fail(self, why: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = why
            print(f"{self.wl.name}: unit call failed: {why.strip()[-2000:]}", file=sys.stderr)


def run_record(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed, "holdout_seed": HOLDOUT_SEED}


def floor_gauge(dz, seed: int):
    """Times the floor on the drift_sweep dogd input for d=20; ns per round."""
    drift = make_workload("drift_sweep")
    inp = drift.floor_input(dz, drift.make_inputs(dz, seed, OUT)[0]["seed"], 20)
    return lambda: floor.time_floor(inp)


def gauged_loop(runner: Runner, pool, seconds: float, gauge, probe=None, probes: int = 0,
                min_calls: int = 1):
    """Unit calls for ``seconds`` with the floor timed on either side of each.

    The floor runs once per started half second of the previous call and the
    median is kept, so long calls get a steadier gauge.  ``probe`` runs
    ``probes`` times, spread evenly over the pass between calls, so that its
    samples see the host's speed drift as the calls do.  Returns, per call,
    (seconds, passed, floor ns per round around it) and the probe results.
    """
    def floor_ns(after_s: float) -> float:
        return statistics.median(gauge() for _ in range(1 + int(after_s / 0.5)))

    calls, probed = [], []
    dt = 0.0
    g_prev = floor_ns(dt)
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        if len(probed) < probes and \
                time.perf_counter() - start >= len(probed) * seconds / probes:
            probed.append(probe())
            g_prev = floor_ns(dt)
        dt, ok = runner.run(pool[len(calls) % len(pool)])
        g_next = floor_ns(dt)
        calls.append((dt, ok, (g_prev + g_next) / 2))
        g_prev = g_next
    while len(probed) < probes:
        probed.append(probe())
    return calls, probed


def measure(args, dz, wl, pool, runner: Runner, record: dict) -> dict:
    """The untraced pass: end-to-end metrics."""
    gauge = floor_gauge(dz, args.seed)
    runner.run(pool[0])  # warm-up: checked and counted, not timed
    record["load1_before"] = os.getloadavg()[0]
    calls, record["setup_probe_s"] = gauged_loop(
        runner, pool, args.seconds, gauge,
        probe=lambda: setup_probe(wl.name, args.seed), probes=SETUP_PROBES)
    record["load1_after"] = os.getloadavg()[0]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["call_ms"] = [dt * 1e3 for dt, _, _ in calls]
    record["floor_ns_per_round"] = [g for _, _, g in calls]
    verified = verify(dz, wl, pool, runner)
    ms = record["call_ms"]
    done = [(dt, g) for dt, ok, g in calls if ok]
    rounds = wl.rounds_per_call * len(done)
    ratios = [dt * 1e9 / wl.rounds_per_call / g for dt, g in done]
    metrics = {
        "call_floor_ratio": (statistics.median(ratios) if ratios else float("nan"),
                             f"n={len(ratios)} calls, floor timed around each"),
        "setup_s": (statistics.median(record["setup_probe_s"]),
                    f"median of n={SETUP_PROBES} fresh processes over the pass"),
        "peak_rss_mib": (peak_rss, "n=1 process"),
    }
    extra = {"rounds_per_s": (rounds / sum(dt for dt, _, _ in calls), "1/s",
                              f"{rounds} rounds in {len(calls)} calls"),
             "call_ms_p50": (statistics.median(ms), "ms", f"n={len(ms)} calls")}
    if len(ms) >= 100:  # at least ten samples beyond the 90th percentile
        extra["call_ms_p90"] = (float(np.percentile(ms, 90)), "ms", f"n={len(ms)} calls")
    extra["fail_ratio"] = (runner.failed / runner.attempted, "ratio",
                           f"{runner.failed}/{runner.attempted} calls, warm-up included")
    extra["floor.ns_per_round"] = (statistics.median(record["floor_ns_per_round"]), "ns",
                                   f"n={len(calls)} calls, gauge around each")
    return {"metrics": metrics, "extra": extra, "verified": verified}


def verify(dz, wl, pool, runner: Runner) -> dict:
    """Checks made once per run, outside the timed pass."""
    out = {}
    if wl.name == "drift_sweep":
        for d in wl.grid["d"]:
            inp = wl.floor_input(dz, pool[0]["seed"], d)
            out[f"floor_oracle_bitwise_d{d}"] = floor.oracle_matches(dz, inp)
    if wl.name == "cli_run":  # the same (config, seed) once more: identical bytes
        out["repeat_identical"] = runner.run(pool[0])[1]
    return out


def traced(args, dz, wl, pool, runner: Runner, record: dict) -> dict:
    """The traced run: per-layer metrics from spans of two calls on one input."""
    inp = pool[0]
    gauge = floor_gauge(dz, args.seed)
    runner.run(inp)  # warm-up
    # untraced calls, with only harness.simulate timed, for ns per round
    light = Tracer(only=("harness.simulate",))
    with light:
        calls, _ = gauged_loop(runner, [inp], args.seconds / 2, gauge, min_calls=3)
    untraced_s = [dt for dt, _, _ in calls]
    floor_ns = statistics.median(g for _, _, g in calls)
    arr = light.arrays()
    sim_ns = float((arr["end_ns"] - arr["start_ns"]).sum())
    sim_rounds = int(arr["value"].sum())

    tracer = Tracer()
    per_call, traced_s, problems = [], [], []
    for call_id in range(2):
        with tracer:
            with tracer.span("bench.unit_call", call_id):
                dt, out = runner.timed(inp)
        traced_s.append(dt)
        runner.check(inp, out)
        tab = SpanTable(tracer, call_id)
        problems += layers.self_time_problems(tab)
        per_call.append(layers.span_metrics(tab))
    for key in layers.COUNTERS:
        if per_call[0][key] != per_call[1][key]:
            problems.append(f"counter {key} differs: {per_call[0][key]} vs {per_call[1][key]}")
    if per_call[0]["losses.gradient.calls"] != per_call[0]["rounds"]:
        problems.append("gradient queries differ from rounds played")

    metrics = layers.mean_metrics(per_call)
    counters = {k: per_call[0][k] for k in layers.COUNTERS}
    sim_ns_round = sim_ns / sim_rounds if sim_rounds else 0.0
    metrics.update({
        "harness.simulate.ns_per_round": sim_ns_round,
        "harness.simulate.floor_ratio": sim_ns_round / floor_ns,
        "floor.ns_per_round": floor_ns,
        "trace.overhead_ratio": statistics.median(traced_s) / statistics.median(untraced_s),
    })
    metrics.pop("rounds")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"spans_{wl.name}.npz")
    record.update({"counters": counters,
                   "specific": {k: metrics[k] for k in layers.SPECIFIC},
                   "untraced_ms": [s * 1e3 for s in untraced_s],
                   "traced_ms": [s * 1e3 for s in traced_s],
                   "spans": len(tracer.name),
                   "by_span": SpanTable(tracer, 0).by_name()})
    for p in problems:
        print(f"{wl.name}: trace check failed: {p}", file=sys.stderr)
    verified = verify(dz, wl, pool, runner)
    verified["trace_checks"] = not problems
    return {"metrics": {k: (metrics[k], "") for k in layers.PER_LAYER},
            "extra": {k: (metrics[k], unit, "workload-specific")
                      for k, unit in layers.SPECIFIC.items()},
            "verified": verified}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        try:
            dz, wl, pool = setup(args.workload, args.seed, workdir)
        except ProgramMissing as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(time.perf_counter() - _T0)
            return 0
        record = run_record(args.seed)
        runner = Runner(dz, wl)
        result = (traced if args.trace else measure)(args, dz, wl, pool, runner, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0 and all(result["verified"].values())
    units = layers.PER_LAYER if args.trace else END_TO_END
    report = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k][0]}
                          for k, (v, _) in result["metrics"].items()}}
    record.update({"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                   "verified": result["verified"], "first_failure": runner.first_failure,
                   "result": report,
                   "printed": {k: v for k, (v, _, _) in result["extra"].items()}})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}_trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_table(wl.name, args, report, result, record)
    print(json.dumps(report))
    return 0 if correct else 1


def print_table(name, args, report, result, record) -> None:
    print(f"{name}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}  "
          f"attempted={report['attempted']}  failed={report['failed']}  "
          f"correct={report['correct']}")
    rows = [(k, v, report["metrics"][k]["unit"], note)
            for k, (v, note) in result["metrics"].items()]
    rows += [(k, v, unit, note) for k, (v, unit, note) in result["extra"].items()]
    for k, v, unit, note in rows:
        print(f"  {k:32s} {v:14.6g} {unit:6s} {note}")
    print(f"  checks: {result['verified']}")
    keys = ("nproc", "cpu_model", "python", "numpy", "blas_threads", "seed", "holdout_seed",
            "load1_before", "load1_after")
    print("  record: " + json.dumps({k: record[k] for k in keys if k in record}))


def run_all(args) -> int:
    """Each workload in its own process (its peak RSS is its own), then one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no output (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"] and proc.returncode == 0
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
