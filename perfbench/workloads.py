"""The benchmark's three workloads: inputs from a seed, one unit call, output checks.

Each workload builds a small pool of inputs from the benchmark seed, runs one
unit call at a time on them (a closed loop with a single client) and checks
every output.  A unit call fails when it raises, exits non-zero, or any check
returns a problem.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import floor


def _pool_seeds(seed: int, salt: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _epoch_closed_form(T: int) -> list[int]:
    """Epoch starts 1, 3, 7, 15, ... of the doubling variants under unit delays."""
    out, nxt, v = [], 1, 1
    while nxt <= T:
        out.append(nxt)
        nxt, v = nxt + 2 ** v, v + 1
    return out


class DriftSweep:
    name = "drift_sweep"
    T, n, D, G, step = 2000, 5, 2.0, 1.0, 0.02
    grid = {"learner": ["dogd", "mild", "dogd_dt", "mild_dt"], "d": [1, 20]}
    pool_size = 4
    rounds_per_call = T * len(grid["learner"]) * len(grid["d"])

    def __init__(self):
        self._floor_regret: dict[tuple[int, int], float] = {}

    def config(self, run_seed: int) -> dict:
        return {"T": self.T, "n": self.n, "D": self.D, "G": self.G,
                "learner": {"name": "dogd"},
                "delay": {"kind": "constant", "value": 1},
                "environment": {"kind": "drift", "step": self.step, "loss": "quadratic"},
                "comparators": {"kind": "targets"},
                "seed": run_seed}

    def make_inputs(self, dz, seed: int, workdir: Path) -> list[dict]:
        return [self.config(s) for s in _pool_seeds(seed, 1, self.pool_size)]

    def call(self, dz, inp: dict):
        return dz.harness.sweep(inp, self.grid)

    def floor_input(self, dz, run_seed: int, d: int) -> dict:
        return floor.drift_inputs(dz, self.T, self.n, self.D, self.G, self.step, d, run_seed)

    def floor_regret(self, dz, run_seed: int, d: int) -> float:
        key = (run_seed, d)
        if key not in self._floor_regret:
            inp = self.floor_input(dz, run_seed, d)
            X = floor.floor_decisions(inp["targets"], inp["scale"], inp["delays"],
                                      inp["half_width"], inp["eta"])
            self._floor_regret[key] = floor.tracking_regret(X, inp["targets"], inp["scale"])
        return self._floor_regret[key]

    def check(self, dz, inp: dict, rows) -> list[str]:
        problems = []
        want = len(self.grid["learner"]) * len(self.grid["d"])
        if len(rows) != want:
            return [f"{len(rows)} sweep rows, expected {want}"]
        epochs = _epoch_closed_form(self.T)
        for row in rows:
            cell = row["cell"]
            learner, d = cell["learner"], cell["d"]
            if not row["bound_check"]["ok"]:
                problems.append(f"{cell}: regret above {row['bound_check']['bound']}")
            if learner in ("mild", "mild_dt") and not row["weight_sum_err"] <= 1e-9:
                problems.append(f"{cell}: weight_sum_err {row['weight_sum_err']:.3g}")
            if learner.endswith("_dt") and d == 1 and row["epoch_starts"] != epochs:
                problems.append(f"{cell}: epochs {row['epoch_starts'][:6]}")
            if learner == "dogd":
                ref = self.floor_regret(dz, row["seed"], d)
                got = row["regret_dynamic"]
                if not abs(got - ref) <= 1e-9 * max(1.0, abs(ref)):
                    problems.append(f"{cell}: regret {got!r} vs floor oracle {ref!r}")
        return problems


class LowerboundMild:
    name = "lowerbound_mild"
    T, n, D, G = 4096, 1, 2.0, 1.0
    delays = (1, 64)
    pool_size = 4
    rounds_per_call = T * len(delays)

    def make_inputs(self, dz, seed: int, workdir: Path) -> list[dict]:
        seeds = _pool_seeds(seed, 2, self.pool_size * len(self.delays))
        pool = []
        for i in range(self.pool_size):
            pool.append({d: seeds[i * len(self.delays) + j]
                         for j, d in enumerate(self.delays)})
        return pool

    def call(self, dz, inp: dict):
        return [dz.harness.lowerbound_report(self.T, d, self.D, self.G, self.n,
                                             {"name": "mild"}, trials=1,
                                             base_seed=inp[d])
                for d in self.delays]

    def block_total_delay(self, d: int) -> int:
        t = np.arange(1, self.T + 1)
        block_end = np.minimum(((t - 1) // d + 1) * d, self.T)
        return int((block_end - t + 1).sum())

    def check(self, dz, inp: dict, reports) -> list[str]:
        problems = []
        for d, rep in zip(self.delays, reports):
            bound = dz.bound_thm2(self.D, self.G, self.block_total_delay(d), 0.0,
                                  True, d, self.T)
            if len(rep["per_trial"]) != 1:
                problems.append(f"d={d}: {len(rep['per_trial'])} trials, expected 1")
            for r in rep["per_trial"]:
                if not (math.isfinite(r) and r <= bound):
                    problems.append(f"d={d}: static regret {r!r} above bound_thm2 {bound!r}")
        return problems


class CliRun:
    name = "cli_run"
    T = 2000
    pool_size = 8
    rounds_per_call = T

    def __init__(self):
        self._digests: dict[int, str] = {}

    def config(self) -> dict:
        return {"T": self.T, "n": 10, "D": 2.0, "G": 1.0,
                "learner": {"name": "dogd_dt"},
                "delay": {"kind": "permuted"},
                "environment": {"kind": "drift", "step": 0.02, "loss": "linear"},
                "comparators": {"kind": "piecewise", "path_budget": 4}}

    def make_inputs(self, dz, seed: int, workdir: Path) -> list[dict]:
        path = workdir / "cli_run_config.json"
        path.write_text(json.dumps(self.config()))
        out = workdir / "cli_run_out"
        return [{"config": str(path), "seed": s, "out": out}
                for s in _pool_seeds(seed, 3, self.pool_size)]

    def call(self, dz, inp: dict):
        for f in ("trace.csv", "summary.json"):
            (inp["out"] / f).unlink(missing_ok=True)
        argv = ["run", "--config", inp["config"], "--seed", str(inp["seed"]),
                "--strict", "--out", str(inp["out"]), "--format", "csv"]
        try:
            return dz.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            return exc.code if isinstance(exc.code, int) else 1

    def check(self, dz, inp: dict, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        trace = (inp["out"] / "trace.csv").read_bytes()
        summary = (inp["out"] / "summary.json").read_bytes()
        problems = []
        lines = trace.count(b"\n")
        if lines != self.T + 1:
            problems.append(f"trace.csv has {lines} lines, expected {self.T + 1}")
        try:
            runs = json.loads(summary)["runs"]
            if len(runs) != 1 or runs[0]["seed"] != inp["seed"]:
                problems.append("summary.json does not describe the requested run")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"summary.json does not parse: {exc}")
        digest = hashlib.sha256(trace + b"\0" + summary).hexdigest()
        first = self._digests.setdefault(inp["seed"], digest)
        if digest != first:
            problems.append(f"seed {inp['seed']}: output differs from an earlier identical run")
        return problems


WORKLOADS = {w.name: w for w in (DriftSweep, LowerboundMild, CliRun)}
