"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import numpy as np

from delayed_oco import invariants
from delayed_oco.harness import lowerbound_report, run_many


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def drift_config(learner: str, n: int, d: int, seed: int, T: int = 2000,
                 repetitions: int = 1) -> dict:
    return {
        "T": T, "n": n, "D": 2.0, "G": 1.0,
        "learner": {"name": learner},
        "delay": {"kind": "constant", "value": d},
        "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
        "comparators": {"kind": "targets"},
        "seed": seed, "repetitions": repetitions,
    }


def drift_sweep(learner: str):
    """(n, d, seed, summary) for n in {1, 5}, d in {1, 5, 20} and seeds 0-19: each
    (n, d) cell is one ``run_many`` call whose 20 repetitions step in lockstep."""
    for n in (1, 5):
        for d in (1, 5, 20):
            for _, summary in run_many(drift_config(learner, n, d, 0, repetitions=20)):
                yield n, d, summary["seed"], summary


# Criteria 1-3, 6 and 9 run the invariants ``delayed-oco verify`` runs, at full size.

def test_criterion_1_ogd_reduction():
    rng = np.random.default_rng(100)
    report(1, *invariants.ogd_dogd_reduction(rng, runs=50, T_max=119))


def test_criterion_2_permutation_and_in_order():
    rng = np.random.default_rng(101)
    report(2, *invariants.consumption_log_permutation(rng, runs=1000, T_max=200, d_max=20))


def test_criterion_3_backlog_identities():
    rng = np.random.default_rng(102)
    report(3, *invariants.delay_partition_backlog(rng, runs=1000, T_max=200, d_max=20))


def test_criterion_4_bound_cor1_domination():
    ok, detail = True, ""
    worst = 0.0
    for n, d, seed, summary in drift_sweep("dogd"):
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
    for n, d, seed, summary in drift_sweep("mild"):
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
    ok, epochs = invariants.epoch_starts_closed_form(np.random.default_rng(104), T=2000)
    detail = "" if ok else epochs
    if ok:
        for learner, bound_key in (("dogd_dt", "bound_thm4"), ("mild_dt", "bound_thm5")):
            for n, d, seed, summary in drift_sweep(learner):
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
        config = {
            "T": 4096, "n": 1, "D": 2.0, "G": 1.0,
            "learner": {"name": "mild"},
            "delay": {"kind": "blocks", "d": d},
            "environment": {"kind": "lowerbound"},
            "comparators": {"kind": "best_fixed"},
            "seed": 0, "repetitions": 20,
        }
        regrets = [summary["regret_dynamic"] for _, summary in run_many(config)]
        means.append(float(np.mean(regrets)))
    slope = float(np.polyfit(np.log(delays), np.log(means), 1)[0])
    ok = 0.3 <= slope <= 0.7
    report(8, ok, f"log-log regret slope vs delay = {slope:.3f} "
                  f"(means: {[round(m, 1) for m in means]})")


def test_criterion_9_oracle_equivalences():
    rng = np.random.default_rng(103)
    results = [invariants.adversarial_instance_oracles(rng, runs=100, T_max=59, d_max=7),
               invariants.static_regret_closed_vs_grid(rng, T=10),
               invariants.loss_gradients(rng, runs=100)]
    report(9, all(ok for ok, _ in results), "; ".join(detail for _, detail in results))
