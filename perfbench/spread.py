"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 30 --out perfbench/out/spread.json

For every workload, runs ``run.py`` once per seed (1..runs) with tracing off,
then reports per end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With ``--traced`` it also
makes one traced run per workload and keeps its per-layer metrics and exact
counters.  Runs are sequential: one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    result = json.loads(lines[-1])
    record = json.loads((HERE / "out" / f"{workload}_trace{trace}.json").read_text())
    result["printed"] = record.get("printed", {})
    result["counters"] = record.get("counters")
    result["specific"] = record.get("specific")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "spread.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workloads:
        results = [bench(name, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        if not all(r["correct"] and r["failed"] == 0 for r in results):
            steady = False
            print(f"{name}: a run reported failures", file=sys.stderr)
        wl = {"attempted": [r["attempted"] for r in results], "metrics": {}}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in results])
            stats["bound"] = bound
            wl["metrics"][metric] = stats
            if metric == "setup_s":  # only its median is bounded, not its spread
                flag = "spread not bounded"
            elif stats["spread"] < bound / 3:
                flag = "ok"
            elif stats["spread"] <= bound:
                flag = "within bound"
            else:
                flag, steady = "TOO WIDE", False
            print(f"{name:16s} {metric:14s} median {stats['median']:12.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bound}  {flag}", flush=True)
        for metric in ("rounds_per_s", "call_ms_p50", "call_ms_p90"):
            values = [r["printed"][metric] for r in results if metric in r["printed"]]
            if len(values) == len(results):
                stats = summarize(values)
                wl["printed"] = {**wl.get("printed", {}), metric: stats}
                print(f"{name:16s} {metric:14s} median {stats['median']:12.6g}  "
                      f"spread {stats['spread']:.4f}  (printed, not bounded)", flush=True)
        if args.traced:
            traced = bench(name, args.first_seed, args.seconds, 1)
            wl["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            wl["counters"] = traced["counters"]
            wl["specific"] = traced["specific"]
        summary["workloads"][name] = wl
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
