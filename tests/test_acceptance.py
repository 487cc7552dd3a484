"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math

import numpy as np

from delayed_oco import (
    Box,
    DelaySchedule,
    DelayedOGD,
    Linear,
    QuadraticTracking,
    best_fixed_decision,
    bound_lemma3,
    in_order_random_schedule,
    joint_effect,
    make_drift_environment,
    make_lowerbound_instance,
    minimize_total_loss,
    simulate,
)
from delayed_oco.harness import lowerbound_report, run_experiment


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_schedule(rng, T_max=200, d_max=20):
    T = int(rng.integers(1, T_max + 1))
    return DelaySchedule(tuple(int(v) for v in rng.integers(1, d_max + 1, size=T)))


def zero_losses(T):
    return Linear(np.zeros((T, 1)))


DRIFT_SWEEP = [(n, d, seed) for n in (1, 5) for d in (1, 5, 20) for seed in range(20)]


def drift_config(learner: str, n: int, d: int, seed: int, T: int = 2000) -> dict:
    return {
        "T": T, "n": n, "D": 2.0, "G": 1.0,
        "learner": {"name": learner},
        "delay": {"kind": "constant", "value": d},
        "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
        "comparators": {"kind": "targets"},
        "seed": seed,
    }


def projected_ogd(box, eta, losses):
    """Textbook projected OGD without delays: x_{t+1} = clip(x_t - eta * grad f_t(x_t))."""
    x = np.zeros(box.dim)
    xs = np.empty((len(losses), box.dim))
    for t in range(1, len(losses) + 1):
        xs[t - 1] = x
        x = np.clip(x - eta * losses.gradient(t, x), -box.half_width, box.half_width)
    return xs


def test_criterion_1_ogd_reduction():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(50):
        T = int(rng.integers(5, 120))
        n = int(rng.integers(1, 5))
        box = Box.from_diameter(n, float(rng.uniform(0.5, 4.0)))
        eta = float(rng.uniform(0.02, 1.0))
        kind = "quadratic" if rng.integers(2) else "linear"
        losses, _ = make_drift_environment(box, T, float(rng.uniform(0, 0.3)), kind,
                                           int(rng.integers(1 << 30)), 1.0)
        sched = DelaySchedule((1,) * T)
        tr_d = simulate(DelayedOGD(box, eta), losses, sched, box)
        if not np.array_equal(tr_d.decisions, projected_ogd(box, eta, losses)):
            ok = False
            break
    report(1, ok, "50 unit-delay configs: delayed and textbook projected descent "
                   "bitwise identical")


def test_criterion_2_permutation_and_in_order():
    rng = np.random.default_rng(101)
    ok, detail = True, ""
    for i in range(1000):
        s = random_schedule(rng)
        box = Box(1, 1.0)
        trace = simulate(DelayedOGD(box, 0.1), zero_losses(s.horizon), s, box)
        if trace.c_log is None:
            ok, detail = False, f"random schedule #{i}: consumption log incomplete"
            break
    if ok:
        for i in range(1000):
            T = int(rng.integers(1, 201))
            s = in_order_random_schedule(T, int(rng.integers(1, 21)), seed=2000 + i)
            box = Box(1, 1.0)
            trace = simulate(DelayedOGD(box, 0.1), zero_losses(T), s, box)
            if list(trace.c_log) != list(range(1, T + 1)):
                ok, detail = False, f"in-order schedule #{i}: log is not the identity"
                break
            us = rng.uniform(-1, 1, size=(T, 1))
            if joint_effect(trace.c_log, us) != 0.0:
                ok, detail = False, f"in-order schedule #{i}: nonzero joint effect"
                break
    report(2, ok, detail or "1000 random logs are permutations; 1000 in-order logs are "
                            "the identity with joint effect exactly 0")


def test_criterion_3_backlog_identities():
    rng = np.random.default_rng(102)
    ok, detail = True, ""
    for i in range(1000):
        s = random_schedule(rng)
        m = s.backlog()
        if not (1 <= int(m.sum()) <= s.total_delay <= s.max_delay * s.horizon):
            ok, detail = False, f"schedule #{i}: sum bounds violated"
            break
        live = np.array([1 + sum(1 for k in range(1, t) if s.arrival_round(k) >= t)
                         for t in range(1, s.horizon + 1)])
        if not np.array_equal(m, live):
            ok, detail = False, f"schedule #{i}: backlog != live outstanding count"
            break
    report(3, ok, detail or "sum(m) <= S <= d*T and m_t-1 = outstanding count, "
                            "exact integers on 1000 schedules")


def test_criterion_4_bound_cor1_domination():
    ok, detail = True, ""
    worst = 0.0
    for n, d, seed in DRIFT_SWEEP:
        _, summary = run_experiment(drift_config("dogd", n, d, seed))
        ratio = summary["regret_dynamic"] / summary["bound_cor1"]
        worst = max(worst, ratio)
        if summary["regret_dynamic"] > summary["bound_cor1"]:
            ok, detail = False, f"violated at n={n} d={d} seed={seed}"
            break
    report(4, ok, detail or f"120 tuned runs all below the backlog-rate bound "
                            f"(worst measured/bound = {worst:.3f})")


def test_criterion_5_bound_thm2_domination():
    ok, detail = True, ""
    worst = 0.0
    for n, d, seed in DRIFT_SWEEP:
        _, summary = run_experiment(drift_config("mild", n, d, seed))
        worst = max(worst, summary["regret_dynamic"] / summary["bound_thm2"])
        if summary["regret_dynamic"] > summary["bound_thm2"]:
            ok, detail = False, f"bound violated at n={n} d={d} seed={seed}"
            break
        if summary["weight_sum_err"] > 1e-9:
            ok, detail = False, f"weight sums off by {summary['weight_sum_err']:.2e}"
            break
    report(5, ok, detail or f"120 expert-pool runs below the tuned-pool bound with "
                            f"weights on the simplex (worst measured/bound = {worst:.3f})")


def test_criterion_6_doubling_trick():
    ok, detail = True, ""
    expected, nxt, v = [], 1, 1
    while nxt <= 2000:
        expected.append(nxt)
        nxt, v = nxt + 2 ** v, v + 1
    for learner in ("dogd_dt", "mild_dt"):
        _, summary = run_experiment(drift_config(learner, 1, 1, 0))
        if summary["epoch_starts"] != expected:
            ok, detail = False, f"{learner}: unit-delay epochs {summary['epoch_starts'][:6]}..."
    if ok:
        for learner, bound_key in (("dogd_dt", "bound_thm4"), ("mild_dt", "bound_thm5")):
            for n, d, seed in DRIFT_SWEEP:
                _, summary = run_experiment(drift_config(learner, n, d, seed))
                if summary["regret_dynamic"] > summary[bound_key]:
                    ok, detail = False, \
                        f"{learner} exceeded {bound_key} at n={n} d={d} seed={seed}"
                    break
            if not ok:
                break
    report(6, ok, detail or "unit-delay epochs start at 1,3,7,15,...; both restart "
                            "variants stay below their bounds on the 120-run sweep")


def test_criterion_7_lowerbound_reproduction():
    ok, details = True, []
    for d in (1, 10):
        rep = lowerbound_report(T=1000, d=d, D=2.0, G=1.0, n=1, trials=200, base_seed=0)
        mean, se, bound = rep["mean_static_regret"], rep["stderr"], rep["bound_lemma3"]
        details.append(f"d={d}: mean {mean:.2f} (se {se:.2f}) vs bound {bound:.2f}")
        if not (mean >= bound and mean - 2 * se >= 0.9 * bound):
            ok = False
    report(7, ok, "; ".join(details))


def test_criterion_8_scaling_shape():
    delays = [1, 4, 16, 64]
    means = []
    for d in delays:
        regrets = []
        for seed in range(20):
            config = {
                "T": 4096, "n": 1, "D": 2.0, "G": 1.0,
                "learner": {"name": "mild"},
                "delay": {"kind": "blocks", "d": d},
                "environment": {"kind": "lowerbound"},
                "comparators": {"kind": "best_fixed"},
                "seed": seed,
            }
            _, summary = run_experiment(config)
            regrets.append(summary["regret_dynamic"])
        means.append(float(np.mean(regrets)))
    slope = float(np.polyfit(np.log(delays), np.log(means), 1)[0])
    ok = 0.3 <= slope <= 0.7
    report(8, ok, f"log-log regret slope vs delay = {slope:.3f} "
                  f"(means: {[round(m, 1) for m in means]})")


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(103)
    ok, detail = True, ""

    # best fixed decision vs exhaustive vertex enumeration, n = 1..10
    for i in range(100):
        n = int(rng.integers(1, 11))
        inst = make_lowerbound_instance(int(rng.integers(4, 60)), int(rng.integers(1, 8)),
                                        2.0, 1.0, n, seed=int(rng.integers(1 << 30)))
        x, total = best_fixed_decision(inst)
        vertices = np.stack(list(inst.box.vertices()))
        totals = inst.losses().values(vertices[:, None, :]).sum(axis=1)
        if abs(total - totals.min()) > 1e-9 * max(1.0, abs(totals.min())):
            ok, detail = False, f"vertex oracle mismatch on instance #{i}"
            break

    # closed-form hindsight optimum vs dense grid at 1e-3, n <= 2
    if ok:
        for n in (1, 2):
            box = Box.from_diameter(n, 2.0)
            lin = Linear(np.array([rng.uniform(-1, 1, n) for t in range(10)]))
            quad = QuadraticTracking(np.array([box.random_point(rng) for t in range(10)]), 0.5)
            for losses, lipschitz in (
                    (lin, float(np.linalg.norm(lin.grads, axis=1).sum())),
                    (quad, len(quad) * quad.scale * box.diameter)):
                _, closed, _ = minimize_total_loss(losses, box)
                _, grid, _ = minimize_total_loss(losses, box, grid_resolution=1e-3,
                                                 method="grid")
                if not (closed - 1e-12 <= grid <= closed + lipschitz * math.sqrt(n) * 1e-3):
                    ok, detail = False, f"grid/closed-form gap too large (n={n})"
                    break
            if not ok:
                break

    # analytic gradients vs central differences
    if ok:
        for _ in range(100):
            n = int(rng.integers(1, 6))
            lin = Linear(rng.normal(size=(1, n)))
            quad = QuadraticTracking(rng.uniform(-0.5, 0.5, (1, n)), float(rng.uniform(0.1, 2)))
            signs, gain = rng.choice([-1.0, 1.0], (1, n)), float(rng.uniform(0.5, 3))
            fns = [lin, quad, Linear((gain / math.sqrt(n)) * signs)]  # the sign-linear loss
            x = rng.uniform(-0.9, 0.9, size=n)
            for f in fns:
                g = f.gradient(1, x)
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = 1e-6
                    fd[i] = (f.value(1, x + e) - f.value(1, x - e)) / 2e-6
                if np.linalg.norm(fd - g) > 1e-6 * max(1.0, np.linalg.norm(g)):
                    ok, detail = False, "finite differences disagree with gradient"
                    break
            if not ok:
                break

    report(9, ok, detail or "vertex oracle, grid search and finite differences all "
                            "agree with the closed forms")
