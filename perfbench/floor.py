"""Reference floor: a bare-NumPy delayed projected-descent loop.

``floor_decisions`` replays delayed OGD on quadratic tracking losses with
nothing but arrays: one clamp per delivered gradient, arrivals of a round
taken in ascending timestamp order.  It serves twice:

* as the speed floor the package is compared against, timed next to each
  unit call so that host speed, which drifts on a shared machine, cancels
  (``call_floor_ratio``, ``floor.ns_per_round``,
  ``harness.simulate.floor_ratio``);
* as an oracle: its decisions must be bitwise equal to
  ``simulate(DelayedOGD ...)`` on the same inputs, and the regret of its
  decisions must match the ``dogd`` rows of the ``drift_sweep`` workload.
"""

from __future__ import annotations

import math
import time

import numpy as np


def env_seed(seed: int) -> int:
    """Environment seed of a run seed.

    Mirrors how ``delayed_oco.harness`` splits a run seed into schedule,
    environment and comparator seeds, so the floor sees the inputs the
    harness builds for the same config and seed.
    """
    return int(np.random.SeedSequence(seed).generate_state(3, dtype=np.uint64)[1])


def backlog_sum(delays: np.ndarray) -> int:
    """sum_t m_t with m_t = t - #{k : k + d_k - 1 < t}, computed from the delays."""
    T = delays.size
    arrival = np.arange(1, T + 1) + delays - 1
    counts = np.bincount(arrival, minlength=T + 1)[:T]  # counts[r] = arrivals at round r
    m = np.arange(1, T + 1) - np.concatenate(([0], np.cumsum(counts[1:T])))
    return int(m.sum())


def floor_decisions(targets: np.ndarray, scale: float, delays: np.ndarray,
                    half_width: float, eta: float) -> np.ndarray:
    """Decisions x_1..x_T of delayed projected descent on
    f_t(x) = (scale/2) * ||x - targets[t]||^2 with per-round ``delays``."""
    T, n = targets.shape
    arrival = np.arange(1, T + 1) + delays - 1
    order = np.argsort(arrival, kind="stable")  # ascending timestamp within a round
    bounds = np.searchsorted(arrival[order], np.arange(1, T + 2))
    y = np.zeros(n)
    X = np.empty((T, n))
    G = np.empty((T, n))
    lo, hi = -half_width, half_width
    for t in range(T):
        X[t] = y
        G[t] = scale * (y - targets[t])
        for k in order[bounds[t]:bounds[t + 1]]:
            y = np.clip(y - eta * G[k], lo, hi)
    return X


def drift_inputs(dz, T: int, n: int, D: float, G: float, step: float, d: int,
                 run_seed: int):
    """Targets, scale, delays, half-width and paper rate of one drift run."""
    box = dz.Box.from_diameter(n, D)
    losses, targets = dz.make_drift_environment(box, T, step, "quadratic",
                                                env_seed(run_seed), G)
    delays = np.full(T, d, dtype=np.int64)
    eta = D / (G * math.sqrt(backlog_sum(delays)))
    return {"targets": targets, "scale": losses[0].scale, "delays": delays,
            "half_width": box.half_width, "eta": eta, "losses": losses, "box": box}


def tracking_regret(X: np.ndarray, targets: np.ndarray, scale: float) -> float:
    """Dynamic regret against the targets themselves (each comparator loss is 0)."""
    diff = X - targets
    return math.fsum(0.5 * scale * np.einsum("ij,ij->i", diff, diff))


def time_floor(inp: dict) -> float:
    """ns per round of one ``floor_decisions`` run on ``inp``."""
    t0 = time.perf_counter_ns()
    floor_decisions(inp["targets"], inp["scale"], inp["delays"], inp["half_width"], inp["eta"])
    return (time.perf_counter_ns() - t0) / inp["delays"].size


def oracle_matches(dz, inp: dict) -> bool:
    """Bitwise equality of the floor and ``simulate(DelayedOGD ...)``."""
    X = floor_decisions(inp["targets"], inp["scale"], inp["delays"],
                        inp["half_width"], inp["eta"])
    box = inp["box"]
    schedule = dz.DelaySchedule(tuple(int(v) for v in inp["delays"]))
    trace = dz.simulate(dz.DelayedOGD(box, inp["eta"]), inp["losses"], schedule, box)
    return trace.decisions.shape == X.shape and trace.decisions.tobytes() == X.tobytes()
