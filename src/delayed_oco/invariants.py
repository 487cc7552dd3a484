"""Named invariant checks, shared by ``delayed-oco verify`` and the acceptance suite.

Each check takes a NumPy ``Generator`` and its sizes, draws its instances from
it in a fixed order and returns ``(ok, detail)``.  Acceptance criteria 1-3,
6 and 9 call the checks at full size from their own seeds; ``verify_all`` runs
all twelve in order on one generator at desk scale.  The module is also the
one home of the tests' reference helpers ``random_schedule``, ``arrivals_at``,
``zero_losses`` and ``projected_ogd``.
"""

from __future__ import annotations

import math

import numpy as np

from .delay import (DelaySchedule, block_schedule, constant_schedule, in_order_random_schedule,
                    uniform_schedule)
from .environments import (block_bounds, make_drift_environment, make_lowerbound_instance,
                           path_length)
from .geometry import Box
from .harness import run_experiment, simulate
from .learners import FAMILIES, KINDS, DelayedOGD, MildOGD, hedge_alpha, mild_lr_grid
from .losses import Linear, QuadraticTracking
from .metrics import grid_minimum, joint_effect, minimize_total_loss


def random_schedule(rng: np.random.Generator, T_max: int, d_max: int) -> DelaySchedule:
    """Horizon uniform on 1..T_max, each delay uniform on 1..d_max."""
    T = int(rng.integers(1, T_max + 1))
    return DelaySchedule(rng.integers(1, d_max + 1, size=T))


def zero_losses(T: int, loss: str = "linear") -> Linear | QuadraticTracking:
    """T rounds of zero ``loss`` losses in one dimension: linear, on which a DOGD-family
    learner takes ``simulate``'s walk path, or quadratic with targets at the origin, on
    which it takes the round loop and, starting there, stays there."""
    zeros = np.zeros((T, 1))
    return Linear(zeros) if loss == "linear" else QuadraticTracking(zeros, 1.0)


def projected_ogd(box: Box, eta: float, losses: QuadraticTracking | Linear) -> np.ndarray:
    """Textbook projected OGD without delays: x_{t+1} = clip(x_t - eta * grad f_t(x_t))."""
    x = np.zeros(box.dim)
    xs = np.empty((len(losses), box.dim))
    for t in range(1, len(losses) + 1):
        xs[t - 1] = x
        x = np.clip(x - eta * losses.gradient(t, x), -box.half_width, box.half_width)
    return xs


def arrivals_at(schedule: DelaySchedule, t: int) -> list[int]:
    """F_t from its definition {k in [T] : k + d_k - 1 = t}, ascending, in O(T)."""
    return [k for k, d in enumerate(schedule.delays.tolist(), 1) if k + d - 1 == t]


def delay_partition_backlog(rng, runs: int, T_max: int, d_max: int):
    """Backlog identities, and the arrival plan against F_t from its definition."""
    for i in range(runs):
        s = random_schedule(rng, T_max, d_max)
        m, order = s.backlog(), list(range(1, s.horizon + 1))
        if not (1 <= int(m.sum()) <= s.total_delay <= s.max_delay * s.horizon):
            return False, f"schedule #{i}: sum bounds violated"
        arrival = [s.arrival_round(k) for k in order]
        live = [1 + sum(1 for a in arrival[:t - 1] if a >= t) for t in order]
        if not np.array_equal(m, live):
            return False, f"schedule #{i}: backlog != live outstanding count"
        rounds, offsets = s.rounds.tolist(), s.offsets.tolist()
        plan = dict(zip(rounds, (s.stamps[a:b].tolist() for a, b in zip(offsets, offsets[1:]))))
        window = range(1, s.horizon + s.max_delay)
        if rounds != sorted(plan) or not set(plan) <= set(window) or \
                any(plan.get(t, []) != arrivals_at(s, t) for t in window):
            return False, f"schedule #{i}: the arrival plan is not F_1, ..., F_(T+d-1)"
        in_order = all(a <= b for a, b in zip(arrival, arrival[1:]))
        if s.is_in_order() != in_order:
            return False, f"schedule #{i}: is_in_order disagrees with the arrival rounds"
    return True, f"sum(m) <= S <= d*T, m_t-1 = outstanding count, plan = F_t by definition, " \
                 f"in-order test exact on {runs} schedules"


def projection_optimal_idempotent(rng, runs: int):
    """The box projection is idempotent and no farther than any feasible point."""
    box = Box.from_diameter(4, 3.0)
    for i in range(runs):
        p = rng.normal(scale=3.0, size=4)
        proj = box.project(p)
        if not np.array_equal(box.project(proj), proj) or \
                np.linalg.norm(proj - p) > np.linalg.norm(box.random_point(rng) - p) + 1e-12:
            return False, f"point #{i}: projection not idempotent or not nearest"
    return True, f"projection idempotent and nearest on {runs} points"


def loss_gradients(rng, runs: int):
    """Analytic gradients of both families (and the sign-linear rows) vs central differences."""
    for _ in range(runs):
        n = int(rng.integers(1, 6))
        lin = Linear(rng.normal(size=(1, n)))
        quad = QuadraticTracking(rng.uniform(-0.5, 0.5, (1, n)), float(rng.uniform(0.1, 2)))
        signs, gain = rng.choice([-1.0, 1.0], (1, n)), float(rng.uniform(0.5, 3))
        x = rng.uniform(-0.9, 0.9, size=n)
        for f in (lin, quad, Linear((gain / math.sqrt(n)) * signs)):
            g = f.gradient(1, x)
            fd = np.array([(f.value(1, x + e) - f.value(1, x - e)) / 2e-6
                           for e in 1e-6 * np.eye(n)])
            if np.linalg.norm(fd - g) > 1e-6 * max(1.0, np.linalg.norm(g)):
                return False, "finite differences disagree with gradient"
    return True, f"finite differences agree with the gradients on {runs} draws"


def ogd_dogd_reduction(rng, runs: int, T_max: int):
    """Under unit delays, delayed descent is textbook projected OGD, bitwise."""
    for i in range(runs):
        T, n = int(rng.integers(5, T_max + 1)), int(rng.integers(1, 5))
        box = Box.from_diameter(n, float(rng.uniform(0.5, 4.0)))
        eta = float(rng.uniform(0.02, 1.0))
        kind = "quadratic" if rng.integers(2) else "linear"
        losses, _ = make_drift_environment(box, T, float(rng.uniform(0, 0.3)), kind,
                                           int(rng.integers(1 << 30)), 1.0)
        trace = simulate(DelayedOGD(box, eta), losses, DelaySchedule((1,) * T), box)
        if not np.array_equal(trace.decisions, projected_ogd(box, eta, losses)):
            return False, f"config #{i}: delayed and textbook descent differ"
    return True, f"{runs} unit-delay configs: delayed and textbook descent bitwise identical"


def _consumed(schedule: DelaySchedule, loss: str) -> tuple[list[int], tuple]:
    """(the stamps DOGD took over ``schedule`` on zero ``loss`` losses, in order, the trace's
    log): what ``ingest`` received in the round loop, or what ``descend`` walked."""
    box, received = Box(1, 1.0), []
    learner = DelayedOGD(box, 0.1)
    ingest, descend = learner.ingest, learner.descend

    def recording_ingest(t, stamps, grads):
        received.extend(stamps)
        ingest(t, stamps, grads)

    def recording_descend(row, stamps, *rest):
        received.extend(stamps.tolist())
        descend(row, stamps, *rest)
    learner.ingest, learner.descend = recording_ingest, recording_descend
    return received, simulate(learner, zero_losses(schedule.horizon, loss), schedule, box).c_log


def consumption_log_permutation(rng, runs: int, T_max: int, d_max: int):
    """Logs are what DOGD took, on the round loop and on the walk path, permutations; in
    order the identity, joint effect 0."""
    for i in range(runs):
        s = random_schedule(rng, T_max, d_max)
        for loss in ("quadratic", "linear"):
            received, c_log = _consumed(s, loss)
            if list(c_log) != received:
                return False, f"random schedule #{i}: consumption log is not what DOGD took " \
                              f"on {loss} losses"
            if sorted(received) != list(range(1, s.horizon + 1)):
                return False, f"random schedule #{i}: consumption log is not a permutation"
    for i in range(runs):
        T = int(rng.integers(1, T_max + 1))
        s = in_order_random_schedule(T, int(rng.integers(1, d_max + 1)), seed=2000 + i)
        for loss in ("quadratic", "linear"):
            received, c_log = _consumed(s, loss)
            if list(c_log) != received or received != list(range(1, T + 1)):
                return False, f"in-order schedule #{i}: log is not the identity on {loss} losses"
        if joint_effect(c_log, rng.uniform(-1, 1, size=(T, 1))) != 0.0:
            return False, f"in-order schedule #{i}: nonzero joint effect"
    return True, f"{runs} random logs are what DOGD took on the round loop and the walk " \
                 f"path, permutations; {runs} in-order logs are the identity with joint " \
                 "effect exactly 0"


def epoch_starts_closed_form(rng, T: int):
    """Under unit delays both doubling variants restart at rounds 1, 3, 7, 15, ..."""
    box = Box(1, 1.0)
    losses, _ = make_drift_environment(box, T, 0.02, "quadratic", int(rng.integers(1 << 30)), 1.0)
    expected, start = [], 1
    while start <= T:
        expected.append(start)
        start += 2 ** len(expected)  # epoch v spans 2^v rounds under unit delays
    for family in ("dogd", "mild"):
        make = FAMILIES[family].tuned(box, 2.0, 1.0, T)
        starts = simulate(make(2), losses, constant_schedule(T, 1), box, make).epoch_starts
        if list(starts) != expected:
            return False, f"{family}_dt: epochs start at {list(starts[:6])}"
    return True, f"epochs start at {expected[:6]} for both doubling variants (T={T})"


class _Counting(QuadraticTracking):
    queries = 0

    def gradient(self, t, x):
        self.queries += 1
        return super().gradient(t, x)


def _mild_run(rng, T: int):
    """Mild-OGD on a drifting target under delays 1..6; returns (trace, gradient queries)."""
    box = Box(1, 1.0)
    schedule = uniform_schedule(T, 1, 6, int(rng.integers(1 << 30)))
    drift, _ = make_drift_environment(box, T, 0.05, "quadratic", int(rng.integers(1 << 30)), 1.0)
    losses, sum_m = _Counting(drift.targets, drift.scale), schedule.sum_backlog
    mild = MildOGD(box, mild_lr_grid(2.0, 1.0, sum_m, T), hedge_alpha(2.0, 1.0, sum_m))
    return simulate(mild, losses, schedule, box), losses.queries


def hedge_weight_simplex(rng, T: int):
    """Mild-OGD's expert weights sum to 1 after every round."""
    err = float(np.abs(_mild_run(rng, T)[0].weight_sums - 1.0).max())
    return err <= 1e-9, f"max |sum-1| = {err:.2e}"


def single_gradient_query_per_round(rng, T: int):
    """The whole expert pool shares one gradient query per round."""
    queries = _mild_run(rng, T)[1]
    return queries == T, f"{queries} queries for T={T}"


def measured_regret_below_bounds(rng, T: int):
    """Each tuned learner's measured regret stays below its bound on one drift run."""
    seed = int(rng.integers(1 << 30))
    for name in KINDS:
        _, summary = run_experiment({"T": T, "n": 2, "learner": {"name": name},
                                     "delay": {"kind": "uniform", "lo": 1, "hi": 8},
                                     "environment": {"kind": "drift", "step": 0.02}}, seed=seed)
        if not summary["bound_check"]["ok"]:
            return False, f"{name} exceeded {summary['bound_check']['bound']} (seed {seed})"
    return True, f"{len(KINDS)} tuned learners below their bounds (seed {seed})"


def joint_effect_caps(rng, runs: int, T_max: int, d_max: int):
    """The joint effect stays below min(sqrt(2 d T D P), 2 d P, T D)."""
    box = Box.from_diameter(2, 2.0)
    for i in range(runs):
        s = random_schedule(rng, T_max, d_max)
        T, d = s.horizon, s.max_delay
        us = np.stack([box.random_point(rng) for _ in range(T)])
        P = path_length(us)
        cap = min(math.sqrt(2 * d * T * box.diameter * P), 2 * d * P, T * box.diameter)
        if joint_effect(s.stamps, us) > cap + 1e-9:  # the plan's order is DOGD's log
            return False, f"schedule #{i}: joint effect above its cap"
    return True, f"joint effect within its caps on {runs} schedules"


def adversarial_instance_oracles(rng, runs: int, T_max: int, d_max: int):
    """The closed-form optimum is the best cube vertex and gradients arrive at block ends."""
    for i in range(runs):
        n = int(rng.integers(1, 11))
        T, d = int(rng.integers(4, T_max + 1)), int(rng.integers(1, d_max + 1))
        _, losses = make_lowerbound_instance(T, d, 2.0, 1.0, n, seed=int(rng.integers(1 << 30)))
        box = Box.from_diameter(n, 2.0)
        x, total = minimize_total_loss(losses, box)
        vertices = np.stack(list(box.vertices()))
        best = float(losses.values(vertices[:, None, :]).sum(axis=1).min())
        at_x = float(losses.values(np.broadcast_to(x, (T, n))).sum())
        if abs(total - best) > 1e-9 * max(1.0, abs(best)) or abs(at_x - total) > 1e-9:
            return False, f"vertex oracle mismatch on instance #{i}"
        schedule = block_schedule(T, d)
        if any(schedule.arrival_round(t) != end
               for start, end in block_bounds(T, d) for t in range(start, end + 1)):
            return False, f"instance #{i}: a gradient arrives before its block's end"
    return True, f"closed form = best vertex and block-end arrivals on {runs} instances"


def static_regret_closed_vs_grid(rng, T: int):
    """The closed-form hindsight optimum matches a 1e-3 grid search (n = 1, 2)."""
    for n in (1, 2):
        box = Box.from_diameter(n, 2.0)
        lin = Linear(np.array([rng.uniform(-1, 1, n) for _ in range(T)]))
        quad = QuadraticTracking(np.array([box.random_point(rng) for _ in range(T)]), 0.5)
        for losses, lipschitz in ((lin, float(np.linalg.norm(lin.grads, axis=1).sum())),
                                  (quad, T * quad.scale * box.diameter)):
            _, closed = minimize_total_loss(losses, box)
            _, grid = grid_minimum(losses, box)
            if not (closed - 1e-12 <= grid <= closed + lipschitz * math.sqrt(n) * 1e-3):
                return False, f"grid/closed-form gap too large (n={n})"
    return True, f"closed forms within the 1e-3 grid's resolution (T={T}, n = 1, 2)"


def verify_all(seed: int = 0) -> list[dict]:
    """Run every check at desk scale on one generator; returns one record per check."""
    rng = np.random.default_rng(seed)
    desk_scale = (
        (delay_partition_backlog, {"runs": 200, "T_max": 60, "d_max": 8}),
        (projection_optimal_idempotent, {"runs": 200}),
        (loss_gradients, {"runs": 30}),
        (ogd_dogd_reduction, {"runs": 5, "T_max": 40}),
        (consumption_log_permutation, {"runs": 100, "T_max": 60, "d_max": 8}),
        (epoch_starts_closed_form, {"T": 200}),
        (hedge_weight_simplex, {"T": 120}),
        (single_gradient_query_per_round, {"T": 120}),
        (measured_regret_below_bounds, {"T": 300}),
        (joint_effect_caps, {"runs": 100, "T_max": 40, "d_max": 6}),
        (adversarial_instance_oracles, {"runs": 4, "T_max": 40, "d_max": 7}),
        (static_regret_closed_vs_grid, {"T": 4}),
    )
    checks = []
    for check, sizes in desk_scale:
        ok, detail = check(rng, **sizes)
        checks.append({"name": check.__name__, "ok": bool(ok), "detail": detail})
    return checks
