"""Experiment orchestration: configs, runs, sweeps, adversarial validation,
and the self-check suite.

A config is a JSON-compatible dict.  Every output embeds the resolved config
(including formula-derived rates and the materialized delay list), so runs
are self-describing and replayable.  All randomness inside one run flows
from a single seed; repetitions use ``seed + repetition_index``.
"""

from __future__ import annotations

import copy
import hashlib
import io
import itertools
import json
import math

import numpy as np

from . import delay as delay_mod
from . import environments as env_mod
from . import learners as learn_mod
from . import metrics as metrics_mod
from .delay import DelaySchedule
from .geometry import Box
from .losses import Linear, QuadraticTracking
from .metrics import RunTrace


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class SweepError(RuntimeError):
    """A sweep cell failed; the message identifies the cell."""


_LEARNERS = ("ogd", "dogd", "dogd_dt", "mild", "mild_dt")
_TOP_KEYS = {"T", "n", "D", "G", "learner", "delay", "environment",
             "comparators", "seed", "repetitions"}

_DEFAULTS = {
    "n": 1,
    "D": 2.0,
    "G": 1.0,
    "learner": {"name": "dogd", "eta": "paper"},
    "delay": {"kind": "constant", "value": 1},
    "environment": {"kind": "drift", "step": 0.01, "loss": "quadratic"},
    "comparators": {"kind": "auto"},
    "seed": 0,
    "repetitions": 1,
}


def normalize_config(config: dict) -> dict:
    """Fill defaults and validate; raises ConfigError on anything off."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = copy.deepcopy(_DEFAULTS)
    cfg.update(copy.deepcopy(config))
    if "T" not in cfg:
        raise ConfigError("config must set the horizon T")
    try:
        cfg["T"] = int(cfg["T"])
        cfg["n"] = int(cfg["n"])
        cfg["D"] = float(cfg["D"])
        cfg["G"] = float(cfg["G"])
        cfg["seed"] = int(cfg["seed"])
        cfg["repetitions"] = int(cfg["repetitions"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scalar field: {exc}") from exc
    if cfg["T"] < 1 or cfg["n"] < 1 or cfg["D"] <= 0 or cfg["G"] <= 0:
        raise ConfigError("need T >= 1, n >= 1, D > 0, G > 0")
    if cfg["repetitions"] < 1:
        raise ConfigError("repetitions must be >= 1")

    learner = cfg["learner"]
    if not isinstance(learner, dict) or learner.get("name") not in _LEARNERS:
        raise ConfigError(f"learner.name must be one of {_LEARNERS}")
    if learner["name"].endswith("_dt"):
        banned = {"eta", "alpha", "etas"} & set(learner)
        if banned:
            raise ConfigError(
                f"doubling-trick learners derive rates per epoch; remove {sorted(banned)}")

    env = cfg["environment"]
    if env.get("kind") == "lowerbound" and cfg["delay"].get("kind") != "blocks":
        raise ConfigError('environment "lowerbound" requires delay {"kind": "blocks", "d": ...}'
                          " (the instance owns its block schedule)")
    return cfg


def _nonnegative_real(value, what: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not (math.isfinite(v) and v >= 0):
        raise ConfigError(f"{what} must be a finite number >= 0, got {value!r}")
    return v


def _gradient_array(env: dict, T: int, n: int) -> np.ndarray:
    """The validated (T, n) gradients of a linear_list environment."""
    try:
        grads = np.asarray(env["gradients"])
    except KeyError:
        raise ConfigError("linear_list needs a gradients array") from None
    except ValueError as exc:  # ragged rows
        raise ConfigError(f"linear_list gradients are not an array: {exc}") from None
    if grads.dtype.kind not in "iuf" or grads.shape != (T, n) \
            or not np.all(np.isfinite(grads)):
        raise ConfigError(f"linear_list gradients must be finite numbers of shape ({T}, {n}), "
                          f"one row per round")
    return grads.astype(np.float64)


def _child_seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64)]


def _build_environment(cfg: dict, box: Box, run_seed: int):
    """Return (losses, drift_targets_or_None, instance_or_None, fingerprint)."""
    sched_seed, env_seed, _ = _child_seeds(run_seed, 3)
    env = cfg["environment"]
    kind = env.get("kind")
    if kind == "lowerbound":
        inst = env_mod.make_lowerbound_instance(
            cfg["T"], int(cfg["delay"]["d"]), cfg["D"], cfg["G"], cfg["n"], env_seed)
        fp = hashlib.sha256(inst.signs.tobytes()).hexdigest()[:16]
        return inst.losses(), None, inst, fp
    if kind == "drift":
        step = _nonnegative_real(env.get("step", 0.01), "drift step")
        loss_kind = env.get("loss", "quadratic")
        if loss_kind not in ("quadratic", "linear"):
            raise ConfigError(f'drift loss must be "quadratic" or "linear", got {loss_kind!r}')
        losses, targets = env_mod.make_drift_environment(
            box, cfg["T"], step, loss_kind, env_seed, cfg["G"])
        fp = hashlib.sha256(targets.tobytes()).hexdigest()[:16]
        return losses, targets, None, fp
    if kind == "linear_list":
        grads = _gradient_array(env, cfg["T"], cfg["n"])
        fp = hashlib.sha256(grads.tobytes()).hexdigest()[:16]
        return Linear(grads), None, None, fp
    raise ConfigError(f"unknown environment kind: {kind!r}")


def _build_schedule(cfg: dict, instance, run_seed: int) -> DelaySchedule:
    if instance is not None:
        return instance.schedule
    sched_seed, _, _ = _child_seeds(run_seed, 3)
    try:
        return delay_mod.make_schedule(cfg["delay"], cfg["T"], sched_seed)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad delay spec: {exc}") from exc


def _build_comparators(cfg: dict, box: Box, losses, targets, run_seed: int) -> np.ndarray:
    _, _, comp_seed = _child_seeds(run_seed, 3)
    spec = cfg["comparators"]
    kind = spec.get("kind", "auto")
    if kind == "auto":
        kind = "targets" if targets is not None else "best_fixed"
    if kind == "targets":
        if targets is None:
            raise ConfigError('comparators "targets" need a drift environment')
        return targets.copy()
    if kind == "best_fixed":
        x, _, _ = metrics_mod.minimize_total_loss(losses, box)
        return np.tile(x, (cfg["T"], 1))
    if kind == "constant":
        point = spec.get("point", "origin")
        u = box.origin() if point == "origin" else box.project(np.asarray(point, dtype=float))
        return np.tile(u, (cfg["T"], 1))
    if kind == "piecewise":
        if "path_budget" not in spec:
            raise ConfigError('piecewise comparators need a "path_budget"')
        return env_mod.make_path_budget_comparators(
            box, cfg["T"], _nonnegative_real(spec["path_budget"], "path_budget"), comp_seed)
    if kind == "list":
        pts = np.asarray(spec["points"], dtype=np.float64)
        if pts.shape != (cfg["T"], box.dim):
            raise ConfigError(f"comparator list must have shape ({cfg['T']}, {box.dim})")
        return pts
    raise ConfigError(f"unknown comparator kind: {kind!r}")


def _build_learner(cfg: dict, box: Box, schedule: DelaySchedule):
    """Instantiate the configured learner; returns (learner, resolved params)."""
    spec = cfg["learner"]
    name = spec["name"]
    D, G, T = cfg["D"], cfg["G"], cfg["T"]
    sum_m = schedule.sum_backlog
    if name in ("ogd", "dogd"):
        eta = spec.get("eta", "paper")
        eta = learn_mod.corollary_lr(D, G, sum_m) if eta == "paper" else float(eta)
        # "ogd" names the same learner: under unit delays DelayedOGD is plain OGD
        return (learn_mod.DelayedOGD(box, eta),
                {"eta": eta, "eta_source": spec.get("eta", "paper")})
    if name == "mild":
        etas = spec.get("etas", "paper")
        alpha = spec.get("alpha", "paper")
        etas = learn_mod.mild_lr_grid(D, G, sum_m, T) if etas == "paper" \
            else np.asarray(etas, dtype=np.float64)
        alpha = learn_mod.hedge_alpha(D, G, sum_m) if alpha == "paper" else float(alpha)
        return (learn_mod.MildOGD(box, etas, alpha),
                {"expert_rates": [float(e) for e in etas], "alpha": alpha})
    if name == "dogd_dt":
        return learn_mod.DogdDoublingTrick(box, D, G), {}
    if name == "mild_dt":
        return learn_mod.MildOgdDoublingTrick(box, D, G, T), {}
    raise ConfigError(f"unknown learner: {name!r}")


def simulate(learner, losses: QuadraticTracking | Linear, schedule: DelaySchedule, box: Box,
             flush: bool = True, collect_weight_sums: bool = False):
    """Drive one learner through the delayed-feedback protocol.

    Per round: play, suffer the loss ``losses.value(t, x)``, query the
    gradient ``losses.gradient(t, x)`` at the played point (exactly once),
    then, if the schedule's arrival plan delivers feedback this round, hand
    the learner ``ingest(t, stamps, grads)``.  Queried gradients are kept in
    one (T, n) array laid out in delivery order, so each round's arrivals
    are a contiguous slice.  With ``flush`` the plan's rounds past the
    horizon are delivered too (plays suppressed), which completes the
    consumption log for diagnostics; reported losses never include flush
    rounds.
    """
    T = schedule.horizon
    stamps, rounds, offsets = schedule.stamps, schedule.rounds, schedule.offsets
    slot = [0] * T  # slot[k-1]: row of timestamp k in delivery order
    for i, k in enumerate(stamps):
        slot[k - 1] = i
    grads = np.empty((T, box.dim))
    decisions = np.empty((T, box.dim))
    loss_values = np.empty(T)
    weight_sums = np.empty(T) if collect_weight_sums else None
    j = 0  # next entry of the plan
    for t in range(1, T + 1):
        x = learner.play(t)
        decisions[t - 1] = x
        loss_values[t - 1] = losses.value(t, x)
        grads[slot[t - 1]] = losses.gradient(t, x)
        if rounds[j] == t:  # j stays in range: timestamp T arrives at round T or later
            lo, hi = offsets[j], offsets[j + 1]
            learner.ingest(t, stamps[lo:hi], grads[lo:hi])
            j += 1
        if collect_weight_sums:
            weight_sums[t - 1] = learner.weights.sum()
    if flush:
        for j in range(j, len(rounds)):
            lo, hi = offsets[j], offsets[j + 1]
            learner.ingest(rounds[j], stamps[lo:hi], grads[lo:hi])
        if sorted(stamps) != list(range(1, T + 1)):
            raise AssertionError("the arrival plan did not deliver each timestamp exactly once")
    c_log = getattr(learner, "c_log", None)
    if c_log is not None:
        c_log = tuple(c_log) if sorted(c_log) == list(range(1, T + 1)) else None
    return RunTrace(
        decisions=decisions, loss_values=loss_values, schedule=schedule, c_log=c_log,
        dropped=getattr(learner, "dropped", 0), weight_sums=weight_sums,
        epoch_starts=tuple(learner.epoch_starts) if hasattr(learner, "epoch_starts") else None,
    )


_STRICT_BOUND = {"ogd": "bound_cor1", "dogd": "bound_cor1", "mild": "bound_thm2",
                 "dogd_dt": "bound_thm4", "mild_dt": "bound_thm5"}


def run_experiment(config: dict, seed: int | None = None) -> tuple[RunTrace, dict]:
    """Run one configured experiment; returns (trace, summary).

    Deterministic given (config, seed): identical inputs give byte-identical
    CSV/JSON renderings of the outputs.
    """
    cfg = normalize_config(config)
    run_seed = cfg["seed"] if seed is None else int(seed)
    box = Box.from_diameter(cfg["n"], cfg["D"])
    losses, targets, instance, env_fp = _build_environment(cfg, box, run_seed)
    schedule = _build_schedule(cfg, instance, run_seed)
    comparators = _build_comparators(cfg, box, losses, targets, run_seed)
    learner, resolved = _build_learner(cfg, box, schedule)

    name = cfg["learner"]["name"]
    trace = simulate(learner, losses, schedule, box,
                     collect_weight_sums=name in ("mild", "mild_dt"))

    D, G, T = cfg["D"], cfg["G"], cfg["T"]
    S = schedule.total_delay
    d_max = schedule.max_delay
    in_order = schedule.is_in_order()
    sum_m = schedule.sum_backlog
    P_T = env_mod.path_length(comparators)

    summary: dict = {
        "learner": name, "T": T, "n": cfg["n"], "D": D, "G": G,
        "seed": run_seed, **resolved,
        "S": S, "d_max": d_max, "in_order": in_order, "sum_m": sum_m,
        "path_length": P_T,
        "regret_dynamic": metrics_mod.dynamic_regret(trace, losses, comparators),
        "dropped": trace.dropped,
        "env_fingerprint": env_fp,
        "regret_static": metrics_mod.static_regret(trace, losses, box),
    }
    summary["joint_effect"] = (metrics_mod.joint_effect(trace.c_log, comparators)
                               if trace.c_log is not None else None)
    summary["bound_thm1"] = (
        metrics_mod.bound_thm1(D, G, resolved["eta"], sum_m, P_T, summary["joint_effect"])
        if name == "dogd" and summary["joint_effect"] is not None else None)
    summary["bound_cor1"] = metrics_mod.bound_cor1(D, G, S, P_T, in_order, d_max, T)
    summary["bound_thm2"] = metrics_mod.bound_thm2(D, G, S, P_T, in_order, d_max, T)
    summary["bound_thm4"] = metrics_mod.bound_thm4(D, G, S, P_T, in_order, d_max, T)
    summary["bound_thm5"] = metrics_mod.bound_thm5(D, G, S, P_T, in_order, d_max, T)
    summary["bound_lower"] = metrics_mod.bound_lower(T, d_max, D, G, min(P_T, T * D))
    summary["bound_lemma3"] = metrics_mod.bound_lemma3(T, d_max, D, G)
    if trace.weight_sums is not None:
        summary["weight_sum_err"] = float(np.abs(trace.weight_sums - 1.0).max())
    if trace.epoch_starts is not None:
        summary["epoch_starts"] = list(trace.epoch_starts)

    formula_rates = all(v == "paper" for k, v in cfg["learner"].items() if k != "name")
    if formula_rates:
        field = _STRICT_BOUND[name]
        summary["bound_check"] = {
            "bound": field,
            "ok": bool(summary["regret_dynamic"] <= summary[field]),
        }

    echo = copy.deepcopy(cfg)
    echo["seed"] = run_seed
    echo["learner"].update({k: v for k, v in resolved.items() if k != "eta_source"})
    echo["delay"]["resolved_values"] = schedule.to_list()
    trace.config = echo
    summary["config"] = echo
    return trace, summary


def run_many(config: dict) -> list[tuple[RunTrace, dict]]:
    """One run per repetition, seeded base_seed + index."""
    cfg = normalize_config(config)
    return [run_experiment(cfg, seed=cfg["seed"] + rep)
            for rep in range(cfg["repetitions"])]


_SWEEP_KEYS = ("learner", "T", "d", "P")


def _apply_cell(cfg: dict, cell: dict) -> dict:
    out = copy.deepcopy(cfg)
    for key, value in cell.items():
        if key == "learner":
            out["learner"] = {"name": value}
        elif key == "T":
            out["T"] = int(value)
        elif key == "d":
            kind = out["delay"]["kind"]
            field = {"constant": "value", "blocks": "d", "uniform": "hi",
                     "in_order_random": "d_max"}.get(kind)
            if field is None:
                raise ConfigError(f'sweeping "d" unsupported for delay kind {kind!r}')
            out["delay"][field] = int(value)
        elif key == "P":
            out["comparators"] = {"kind": "piecewise", "path_budget": float(value)}
        else:
            raise ConfigError(f"unknown sweep key {key!r}; supported: {_SWEEP_KEYS}")
    return out


def sweep(config: dict, grid: dict) -> list[dict]:
    """Run the cartesian product of grid overrides.

    Rows come out in deterministic (grid key, value order, repetition) order
    regardless of any execution order, one row per repetition per cell.
    """
    cfg = normalize_config(config)
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ConfigError("sweep grid must be nonempty")
    keys = sorted(grid)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        try:
            for rep, (_, summary) in enumerate(run_many(_apply_cell(cfg, cell))):
                row = {"cell": cell, "repetition": rep}
                row.update({k: v for k, v in summary.items() if k != "config"})
                rows.append(row)
        except Exception as exc:
            raise SweepError(f"sweep cell {cell} failed: {exc}") from exc
    return rows


def lowerbound_report(T: int, d: int, D: float, G: float, n: int,
                      learner_spec: dict | None = None, trials: int = 200,
                      base_seed: int = 0) -> dict:
    """Average static regret on independent adversarial sign draws.

    Runs the learner on ``trials`` instances that differ only in their sign
    draws, then compares the mean static regret (with its standard error)
    against the expectation lower bound; the PASS flag is suppressed when
    trials == 1 since a single draw has no averaging.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    config = {
        "T": T, "n": n, "D": D, "G": G,
        "learner": learner_spec or {"name": "dogd", "eta": "paper"},
        "delay": {"kind": "blocks", "d": d},
        "environment": {"kind": "lowerbound"},
        "comparators": {"kind": "best_fixed"},
        "seed": base_seed, "repetitions": trials,
    }
    regrets = np.array([summary["regret_static"] for _, summary in run_many(config)])
    mean = float(regrets.mean())
    stderr = float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    bound = metrics_mod.bound_lemma3(T, d, D, G)
    report = {
        "T": T, "d": d, "D": D, "G": G, "n": n, "trials": trials,
        "learner": config["learner"]["name"],
        "mean_static_regret": mean, "stderr": stderr,
        "bound_lemma3": bound,
        "per_trial": [float(r) for r in regrets],
    }
    report["pass"] = bool(mean >= bound) if trials > 1 else None
    return report


# ---------------------------------------------------------------------------
# Output rendering.
# ---------------------------------------------------------------------------

def trace_to_csv(trace: RunTrace) -> str:
    """One row per round: t, x, loss, cum_loss, m_t, n_arrivals, arrived_timestamps.

    The m_t and arrival columns come from the run's schedule.  Vector fields
    are semicolon-joined; floats use shortest-roundtrip repr so identical
    runs render byte-identically.
    """
    out = io.StringIO()
    out.write("t,x,loss,cum_loss,m_t,n_arrivals,arrived_timestamps\n")
    backlog = trace.schedule.backlog()
    cum = 0.0
    for t in range(1, trace.horizon + 1):
        cum += float(trace.loss_values[t - 1])
        x = ";".join(repr(float(v)) for v in trace.decisions[t - 1])
        F = trace.schedule.arrivals(t)
        out.write(f"{t},{x},{repr(float(trace.loss_values[t - 1]))},{repr(cum)},"
                  f"{int(backlog[t - 1])},{len(F)},{';'.join(map(str, F))}\n")
    return out.getvalue()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def to_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Invariant suite (the CLI's verify subcommand).
# ---------------------------------------------------------------------------

def _random_schedule(rng: np.random.Generator, T_max: int = 60,
                     d_max: int = 8) -> DelaySchedule:
    T = int(rng.integers(1, T_max + 1))
    return DelaySchedule(tuple(int(v) for v in rng.integers(1, d_max + 1, size=T)))


def _projected_ogd(box: Box, eta: float, losses: QuadraticTracking | Linear) -> np.ndarray:
    """Textbook projected OGD without delays: x_{t+1} = clip(x_t - eta * grad f_t(x_t))."""
    x = np.zeros(box.dim)
    xs = np.empty((len(losses), box.dim))
    for t in range(1, len(losses) + 1):
        xs[t - 1] = x
        x = np.clip(x - eta * losses.gradient(t, x), -box.half_width, box.half_width)
    return xs


def verify_all(seed: int = 0, corrupt_hedge: bool = False) -> list[dict]:
    """Run every module invariant at desk scale; returns one record per check.

    ``corrupt_hedge`` is a fault-injection hook: it perturbs the aggregation
    weights mid-run without renormalizing, which must trip the weight-simplex
    invariant (used to prove the check has teeth).
    """
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # --- delay: partition, backlog, in-order delivery --------------------
    ok, detail = True, ""
    for _ in range(200):
        s = _random_schedule(rng)
        sets = s.feedback_sets()
        flat = sorted(k for F in sets for k in F)
        if flat != list(range(1, s.horizon + 1)):
            ok, detail = False, f"partition failed for {s.delays}"
            break
        m = s.backlog()
        live = [1 + sum(1 for k in range(1, t) if s.arrival_round(k) >= t)
                for t in range(1, s.horizon + 1)]
        if list(m) != live or not (1 <= m.sum() <= s.total_delay <= s.max_delay * s.horizon):
            ok, detail = False, f"backlog identity failed for {s.delays}"
            break
        if s.is_in_order():
            if [k for F in sets for k in F] != list(range(1, s.horizon + 1)):
                ok, detail = False, f"in-order delivery broken for {s.delays}"
                break
    record("delay_partition_backlog", ok, detail)

    # --- geometry: projection optimality + idempotence -------------------
    box = Box.from_diameter(4, 3.0)
    ok = True
    for _ in range(200):
        p = rng.normal(scale=3.0, size=4)
        proj = box.project(p)
        if not np.array_equal(box.project(proj), proj):
            ok = False
            break
        q = box.random_point(rng)
        if np.linalg.norm(proj - p) > np.linalg.norm(q - p) + 1e-12:
            ok = False
            break
    record("projection_optimal_idempotent", ok)

    # --- losses: finite differences ---------------------------------------
    ok = True
    fns = [Linear(np.array([[1.0, -2.0, 0.5]])),
           QuadraticTracking(np.array([[0.3, -0.1, 0.2]]), 0.7),
           Linear((2.0 / math.sqrt(3.0)) * np.array([[1.0, -1.0, 1.0]]))]
    for f in fns:
        for _ in range(30):
            x = rng.uniform(-0.9, 0.9, size=3)
            g = f.gradient(1, x)
            fd = np.empty(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd[i] = (f.value(1, x + e) - f.value(1, x - e)) / 2e-6
            if np.linalg.norm(fd - g) > 1e-6 * max(1.0, np.linalg.norm(g)):
                ok = False
    record("loss_gradients", ok)

    # --- learners: reduction, consumption log, epochs --------------------
    ok = True
    for _ in range(5):
        T = int(rng.integers(5, 40))
        box1 = Box.from_diameter(2, 2.0)
        losses, _ = env_mod.make_drift_environment(box1, T, 0.05, "quadratic",
                                                   int(rng.integers(1 << 30)), 1.0)
        tr = simulate(learn_mod.DelayedOGD(box1, 0.3), losses,
                      delay_mod.constant_schedule(T, 1), box1)
        if not np.array_equal(tr.decisions, _projected_ogd(box1, 0.3, losses)):
            ok = False
    record("ogd_dogd_reduction", ok)

    ok, detail = True, ""
    for _ in range(200):
        s = _random_schedule(rng)
        T = s.horizon
        tr = simulate(learn_mod.DelayedOGD(Box(1, 1.0), 0.1), Linear(np.zeros((T, 1))), s,
                      Box(1, 1.0))
        if tr.c_log is None:
            ok, detail = False, "incomplete consumption log"
            break
        if s.is_in_order():
            if list(tr.c_log) != list(range(1, T + 1)):
                ok, detail = False, "in-order schedule did not give identity log"
                break
            us = rng.uniform(-1.0, 1.0, size=(T, 1))
            if metrics_mod.joint_effect(tr.c_log, us) != 0.0:
                ok, detail = False, "in-order run reported a nonzero joint effect"
                break
    record("consumption_log_permutation", ok, detail)

    ok = True
    T = 200
    box1 = Box(1, 1.0)
    losses, _ = env_mod.make_drift_environment(box1, T, 0.02, "quadratic", 7, 1.0)
    dt = learn_mod.DogdDoublingTrick(box1, 2.0, 1.0)
    simulate(dt, losses, delay_mod.constant_schedule(T, 1), box1)
    expected = []
    t0 = 1
    while t0 <= T:
        expected.append(t0)
        t0 = t0 + 2 ** len(expected)  # epoch v spans 2^v rounds under unit delays
    ok = dt.epoch_starts == expected
    record("epoch_starts_closed_form", ok, f"got {dt.epoch_starts[:6]}")

    # --- aggregation: weight simplex + single gradient query per round ---
    T = 120
    sched = delay_mod.uniform_schedule(T, 1, 6, 11)
    losses, _ = env_mod.make_drift_environment(box1, T, 0.05, "quadratic", 13, 1.0)
    calls = {"n": 0}

    class _Counting(QuadraticTracking):
        def gradient(self, t, x):
            calls["n"] += 1
            return super().gradient(t, x)

    mild = learn_mod.MildOGD(box1, learn_mod.mild_lr_grid(2.0, 1.0, sched.sum_backlog, T),
                             learn_mod.hedge_alpha(2.0, 1.0, sched.sum_backlog))
    if corrupt_hedge:
        orig_ingest = mild.ingest

        def bad_ingest(t, stamps, grads):
            orig_ingest(t, stamps, grads)
            if stamps:
                mild.log_w = mild.log_w + 0.05  # skip renormalization
        mild.ingest = bad_ingest
    tr = simulate(mild, _Counting(losses.targets, losses.scale), sched, box1,
                  collect_weight_sums=True)
    record("hedge_weight_simplex", float(np.abs(tr.weight_sums - 1.0).max()) <= 1e-9,
           f"max |sum-1| = {float(np.abs(tr.weight_sums - 1.0).max()):.2e}")
    record("single_gradient_query_per_round", calls["n"] == T,
           f"{calls['n']} queries for T={T}")

    # --- bounds: domination spot checks ----------------------------------
    cfg = {"T": 300, "n": 2, "D": 2.0, "G": 1.0,
           "delay": {"kind": "uniform", "lo": 1, "hi": 8},
           "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}}
    ok = True
    for name in ("dogd", "mild", "dogd_dt", "mild_dt"):
        _, summary = run_experiment({**cfg, "learner": {"name": name}}, seed=5)
        if not summary["bound_check"]["ok"]:
            ok = False
    record("measured_regret_below_bounds", ok)

    # --- joint effect caps ------------------------------------------------
    ok = True
    for _ in range(100):
        s = _random_schedule(rng, T_max=40, d_max=6)
        T = s.horizon
        b2 = Box.from_diameter(2, 2.0)
        tr = simulate(learn_mod.DelayedOGD(b2, 0.1), Linear(np.zeros((T, 2))), s, b2)
        us = np.stack([b2.random_point(rng) for _ in range(T)])
        je = metrics_mod.joint_effect(tr.c_log, us)
        P = env_mod.path_length(us)
        cap = min(math.sqrt(2 * s.max_delay * T * b2.diameter * P),
                  2 * s.max_delay * P, T * b2.diameter)
        if je > cap + 1e-9:
            ok = False
    record("joint_effect_caps", ok)

    # --- adversarial instance oracles ------------------------------------
    ok = True
    for n in (1, 2, 3, 6):
        inst = env_mod.make_lowerbound_instance(40, 7, 2.0, 1.0, n, seed=int(rng.integers(1 << 30)))
        x, total = env_mod.best_fixed_decision(inst)
        losses_i = inst.losses()
        vertices = np.stack(list(inst.box.vertices()))
        brute = float(losses_i.values(vertices[:, None, :]).sum(axis=1).min())
        at_x = float(losses_i.values(np.broadcast_to(x, (inst.T, n))).sum())
        if not (abs(total - brute) <= 1e-9 * max(1, abs(brute))
                and abs(at_x - total) <= 1e-9):
            ok = False
        sched_i = inst.schedule
        for start, end in inst.blocks:
            for t in range(start, end + 1):
                if sched_i.arrival_round(t) != end:
                    ok = False
    record("adversarial_instance_oracles", ok)

    # --- static regret closed form vs grid -------------------------------
    box2 = Box.from_diameter(2, 2.0)
    lin = Linear(np.array([rng.uniform(-1, 1, size=2) for _ in range(8)]))
    xs = np.zeros((8, 2))
    closed = metrics_mod.static_regret(xs, lin, box2)
    _, grid_val, _ = metrics_mod.minimize_total_loss(lin, box2, grid_resolution=1e-3,
                                                     method="grid")
    played = float(lin.values(xs).sum())
    lipschitz = float(np.linalg.norm(lin.grads, axis=1).sum())
    record("static_regret_closed_vs_grid",
           abs((played - grid_val) - closed) <= lipschitz * 2e-3)

    return checks
