"""Experiment orchestration: configs, runs, sweeps, adversarial validation
and output rendering.

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
import os
from collections import namedtuple

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


_DEFAULTS = {
    "n": 1, "D": 2.0, "G": 1.0, "seed": 0, "repetitions": 1,
    "learner": {"name": "dogd", "eta": "paper"},
    "delay": {"kind": "constant", "value": 1},
    "environment": {"kind": "drift", "step": 0.01, "loss": "quadratic"},
    "comparators": {"kind": "auto"},
}


def _real(value, what: str, positive: bool = True) -> float:
    """A finite float > 0, or >= 0 unless ``positive``; bools are refused."""
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if isinstance(value, bool) or not (math.isfinite(v) and (v > 0 or v == 0 and not positive)):
        raise ConfigError(f"{what} must be a finite number {'>' if positive else '>='} 0, "
                          f"got {value!r}")
    return v


def _holds_bool(value) -> bool:
    """Whether ``value`` is a bool or a list holding one; ``np.asarray`` reads it as 0 or 1."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, (bool, np.bool_)):
            return True
    return False


_MAX_DEPTH = 32  # a valid config nests containers 4 deep (the rows of environment.gradients)


def _nests_too_deep(value) -> bool:
    """Whether lists or objects nest more than ``_MAX_DEPTH`` deep in ``value``; iterative,
    so nesting that would exhaust the recursion limit (``copy.deepcopy``'s) is measured too."""
    stack = [(value, 0)]
    while stack:
        v, depth = stack.pop()
        if depth == _MAX_DEPTH:
            return True
        stack.extend((c, depth + 1) for c in (v.values() if isinstance(v, dict) else v)
                     if isinstance(c, (dict, list, tuple)))
    return False


def _reals(value, what: str) -> np.ndarray:
    """A nonempty flat list of finite numbers > 0, as a float64 array; bools are refused."""
    try:
        a = np.empty(0) if _holds_bool(value) else np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = np.empty(0)
    if a.ndim != 1 or a.size == 0 or not np.all(np.isfinite(a) & (a > 0)):
        raise ConfigError(f"{what} must be a nonempty flat list of finite numbers > 0, "
                          f"got {value!r}")
    return a


def _finite_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape`` holding finite numbers only, no bools."""
    try:
        a = np.empty(0) if _holds_bool(value) else np.asarray(value)
    except ValueError:  # ragged rows
        a = np.empty(0)
    if a.dtype.kind not in "iuf" or a.shape != shape or not np.all(np.isfinite(a)):
        raise ConfigError(f"{what} must be finite numbers of shape {shape}")
    return a.astype(np.float64)


def _check(test, *words, **kw):
    """A ``_SPEC`` check: the value is one of ``words`` or passes ``test``."""
    def check(v, cfg, what):
        if v not in words:
            if test is None:
                raise ConfigError(f"{what} must be one of {list(words)}, got {v!r}")
            test(v, what, **kw)
    return check


def _point(v, cfg, what):
    return v == "origin" or _finite_array(v, (cfg["n"],), what)


def _points(v, cfg, what):
    pts = _finite_array(v, (cfg["T"], cfg["n"]), what)
    if not np.all(np.abs(pts) <= Box.from_diameter(cfg["n"], cfg["D"]).half_width):
        raise ConfigError(f"{what} must lie in the feasible box")


def _gradients(v, cfg, what):
    grads = _finite_array(v, (cfg["T"], cfg["n"]), what)
    with np.errstate(over="ignore"):  # an overflowing row reads inf
        worst = float(env_mod.row_norms(grads).max())
    if worst > cfg["G"] * (1 + 1e-12):  # every bound assumes ||g_t|| <= G, up to rounding
        raise ConfigError(f"{what} need norms <= G = {cfg['G']!r}, got {worst!r}")


_RATE, _LENGTH, _ECHOED = _check(_real, "paper"), _check(_real, positive=False), _check(_reals)
# section: (tag key, {kind: ({required field: check}, {optional field: check})}); no tag
# reads "auto".  check(value, cfg, what) writes nothing back, so runs echo sections as
# given.  delay.make_schedule checks delays.  Runs echo expert_rates and resolved_values.
_SPEC = {
    "learner": ("name", {
        "ogd": ({}, {"eta": _RATE}), "dogd": ({}, {"eta": _RATE}),
        "mild": ({}, {"etas": _check(_reals, "paper"), "alpha": _RATE, "expert_rates": _ECHOED}),
        "dogd_dt": ({}, {}), "mild_dt": ({}, {})}),
    "delay": ("kind", {
        kind: (dict.fromkeys(required), {"resolved_values": _ECHOED}) for kind, required in {
            "constant": ["value"], "uniform": ["lo", "hi"], "blocks": ["d"], "permuted": [],
            "in_order_random": ["d_max"], "list": ["values"]}.items()}),
    "environment": ("kind", {
        "drift": ({}, {"step": _LENGTH, "loss": _check(None, "quadratic", "linear")}),
        "lowerbound": ({}, {}), "linear_list": ({"gradients": _gradients}, {})}),
    "comparators": ("kind", {
        "auto": ({}, {}), "targets": ({}, {}), "best_fixed": ({}, {}),
        "constant": ({}, {"point": _point}), "piecewise": ({"path_budget": _LENGTH}, {}),
        "list": ({"points": _points}, {})}),
}


def normalize_config(config: dict) -> dict:
    """Fill defaults and validate against ``_SPEC``; raises ConfigError on anything off."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"T", *_DEFAULTS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if _nests_too_deep(config):
        raise ConfigError(f"config nests lists or objects more than {_MAX_DEPTH} levels deep")
    cfg = copy.deepcopy(_DEFAULTS)
    cfg.update(copy.deepcopy(config))
    if "T" not in cfg:
        raise ConfigError("config must set the horizon T")
    try:
        for key in ("T", "n", "seed", "repetitions"):
            cfg[key] = delay_mod._integer(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad scalar field: {exc}") from exc
    cfg["D"], cfg["G"] = _real(cfg["D"], "D"), _real(cfg["G"], "G")
    if min(cfg["T"], cfg["n"], cfg["repetitions"]) < 1 or cfg["seed"] < 0:
        raise ConfigError("need T, n and repetitions >= 1 and seed >= 0")
    try:
        box = Box.from_diameter(cfg["n"], cfg["D"])
    except ValueError as exc:
        raise ConfigError(f"D = {cfg['D']!r} is too small for n = {cfg['n']}: {exc}") from None
    if not math.isfinite(cfg["T"] * max(cfg["D"], box.diameter)):
        raise ConfigError(f"T*D overflows for T = {cfg['T']}, D = {cfg['D']!r}: "
                          "the comparator block length needs it finite")

    for section, (tag, kinds) in _SPEC.items():
        spec = cfg[section]
        kind = spec.get(tag, "auto") if isinstance(spec, dict) else None
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{section} must be a JSON object with {tag!r} one of "
                              f"{list(kinds)}, got {spec!r}")
        required, optional = kinds[kind]
        fields = {**required, **optional}
        if set(spec) - {tag, *fields} or set(required) - set(spec):
            raise ConfigError(f"{section} {kind!r} takes {list(fields)}, "
                              f"{list(required)} required; got {sorted(spec)}")
        for field, check in fields.items():
            if check and field in spec:
                check(spec[field], cfg, f"{section}.{field}")
    if cfg["comparators"].get("kind") == "targets" and cfg["environment"]["kind"] != "drift":
        raise ConfigError('comparators "targets" need a drift environment')
    if cfg["environment"]["kind"] == "lowerbound":
        delay = cfg["delay"]
        if delay["kind"] != "blocks":
            raise ConfigError('environment "lowerbound" requires delay {"kind": "blocks", '
                              '"d": ...} (the instance owns its block schedule)')
        try:
            delay["d"] = delay_mod._integer(delay["d"])
        except ValueError as exc:
            raise ConfigError(f"lowerbound block length d: {exc}") from exc
        if not 1 <= delay["d"] <= delay_mod.MAX_ROUND:
            raise ConfigError(f"lowerbound block length d must lie in [1, 2^63), got {delay['d']}")
    N = learn_mod.expert_count(cfg["T"]) if cfg["learner"]["name"].startswith("mild") else 0
    need = 8 * cfg["T"] * cfg["n"] * (N + 4)  # T*n floats in four arrays, and in N experts
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"T = {cfg['T']}, n = {cfg['n']} need about {need / 2**30:.3g} GiB, "
                          "more than physical memory")
    return cfg


def _child_seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64)]


def _build_environment(cfg: dict, box: Box, run_seed: int):
    """Return (losses, drift_targets_or_None, fingerprint)."""
    _, env_seed, _ = _child_seeds(run_seed, 3)
    env = cfg["environment"]
    if env["kind"] == "lowerbound":
        signs, losses = env_mod.make_lowerbound_instance(
            cfg["T"], cfg["delay"]["d"], cfg["D"], cfg["G"], cfg["n"], env_seed)
        return losses, None, hashlib.sha256(signs.tobytes()).hexdigest()[:16]
    if env["kind"] == "drift":
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                losses, targets = env_mod.make_drift_environment(
                    box, cfg["T"], float(env.get("step", 0.01)), env.get("loss", "quadratic"),
                    env_seed, cfg["G"])
        except ValueError as exc:  # the loss scale or gradients left the float range
            raise ConfigError(f"drift losses for D = {cfg['D']!r}, G = {cfg['G']!r}: {exc}") \
                from None
        targets.setflags(write=False)
        fp = hashlib.sha256(targets.tobytes()).hexdigest()[:16]
        return losses, targets, fp
    grads = np.asarray(env["gradients"], dtype=np.float64)  # linear_list
    return Linear(grads), None, hashlib.sha256(grads.tobytes()).hexdigest()[:16]


def _build_schedule(cfg: dict, run_seed: int) -> DelaySchedule:
    sched_seed, _, _ = _child_seeds(run_seed, 3)
    try:
        return delay_mod.make_schedule(cfg["delay"], cfg["T"], sched_seed)
    except ValueError as exc:
        raise ConfigError(f"bad delay spec: {exc}") from exc


def _build_comparators(cfg: dict, box: Box, losses, targets, run_seed: int) -> np.ndarray:
    _, _, comp_seed = _child_seeds(run_seed, 3)
    spec = cfg["comparators"]
    kind = spec.get("kind", "auto")
    if kind in ("auto", "targets") and targets is not None:
        return targets
    if kind in ("auto", "best_fixed"):
        x, _, _ = metrics_mod.minimize_total_loss(losses, box)
        return np.tile(x, (cfg["T"], 1))
    if kind == "constant":
        point = spec.get("point", "origin")
        return np.tile(box.origin() if point == "origin" else box.project(point), (cfg["T"], 1))
    if kind == "piecewise":
        return env_mod.make_path_budget_comparators(
            box, cfg["T"], float(spec["path_budget"]), comp_seed)
    return np.asarray(spec["points"], dtype=np.float64)  # list


def _build_learner(cfg: dict, box: Box, sum_m: int):
    """Instantiate the configured learner; returns (learner, resolved params)."""
    spec = cfg["learner"]
    name = spec["name"]
    D, G, T = cfg["D"], cfg["G"], cfg["T"]
    try:  # the learners refuse the rates the paper formulas give near the float limits
        if name in ("ogd", "dogd"):
            source = spec.get("eta", "paper")
            eta = learn_mod.corollary_lr(D, G, sum_m) if source == "paper" else float(source)
            # "ogd" names the same learner: under unit delays DelayedOGD is plain OGD
            return learn_mod.DelayedOGD(box, eta), {"eta": eta, "eta_source": source}
        if name == "mild":
            etas, alpha = spec.get("etas", "paper"), spec.get("alpha", "paper")
            etas = np.asarray(learn_mod.mild_lr_grid(D, G, sum_m, T) if etas == "paper"
                              else etas, dtype=np.float64)
            alpha = learn_mod.hedge_alpha(D, G, sum_m) if alpha == "paper" else float(alpha)
            return (learn_mod.MildOGD(box, etas, alpha),
                    {"expert_rates": etas.tolist(), "alpha": alpha})
        if name == "dogd_dt":
            learner = learn_mod.DogdDoublingTrick(box, D, G)
        else:
            learner = learn_mod.MildOgdDoublingTrick(box, D, G, T)
        # the constructor built epoch 1; an epoch v opens only once its budget
        # 2^(v-1) is below sum_m and the rates fall with v, so the last is the other end
        learner.make(2 ** sum_m.bit_length())
        return learner, {}
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"the {name} rates for D = {D!r}, G = {G!r}: {exc}") from None


def simulate(learner, losses: QuadraticTracking | Linear, schedule: DelaySchedule, box: Box):
    """Drive one learner through the delayed-feedback protocol.

    Per round: play, query the gradient ``losses.gradient(t, x)`` at the
    played point (exactly once), then, if the schedule's arrival plan
    delivers feedback this round, hand the learner ``ingest(t, stamps,
    grads)``.  The suffered losses are one ``losses.values(decisions)`` call
    after the loop, bitwise equal to ``losses.value(t, x)`` round by round.
    Queried gradients are kept in one (T, n) array laid out in delivery
    order, so each round's arrivals are a contiguous slice.  The learners
    step on bare clamps, so after the last round the run checks once that
    every decision and gradient was finite, and raises ValueError if not.
    The plan's rounds past the horizon are delivered too (plays suppressed),
    completing the consumption log; reported losses never include them.  A
    learner with ``weights`` has their sum recorded after every round.
    """
    T = schedule.horizon
    stamps, rounds, offsets = schedule.stamps, schedule.rounds, schedule.offsets
    slot = [0] * T  # slot[k-1]: row of timestamp k in delivery order
    for i, k in enumerate(stamps):
        slot[k - 1] = i
    grads = np.empty((T, box.dim))
    decisions = np.empty((T, box.dim))
    weight_sums = np.empty(T) if hasattr(learner, "weights") else None
    weights = None  # the weights last summed; the learners rebind them on every update
    j = 0  # next entry of the plan
    for t in range(1, T + 1):
        x = learner.play(t)
        decisions[t - 1] = x
        grads[slot[t - 1]] = losses.gradient(t, x)
        if rounds[j] == t:  # j stays in range: timestamp T arrives at round T or later
            lo, hi = offsets[j], offsets[j + 1]
            learner.ingest(t, stamps[lo:hi], grads[lo:hi])
            j += 1
        if weight_sums is not None:
            if learner.weights is not weights:
                weights = learner.weights
                weight_sum = weights.sum()
            weight_sums[t - 1] = weight_sum
    if not (np.isfinite(decisions).all() and np.isfinite(grads).all()):
        raise ValueError("the run played a non-finite decision or queried a non-finite gradient")
    for j in range(j, len(rounds)):
        lo, hi = offsets[j], offsets[j + 1]
        learner.ingest(rounds[j], stamps[lo:hi], grads[lo:hi])
    if sorted(stamps) != list(range(1, T + 1)):
        raise AssertionError("the arrival plan did not deliver each timestamp exactly once")
    c_log = getattr(learner, "c_log", None)
    if c_log is not None:
        c_log = tuple(c_log) if sorted(c_log) == list(range(1, T + 1)) else None
    return RunTrace(
        decisions=decisions, loss_values=losses.values(decisions), schedule=schedule,
        c_log=c_log, dropped=getattr(learner, "dropped", 0), weight_sums=weight_sums,
        epoch_starts=tuple(learner.epoch_starts) if hasattr(learner, "epoch_starts") else None,
    )


_STRICT_BOUND = {"ogd": "bound_cor1", "dogd": "bound_cor1", "mild": "bound_thm2",
                 "dogd_dt": "bound_thm4", "mild_dt": "bound_thm5"}


# what a run reads besides its learner; every array in it is read-only
_Inputs = namedtuple("_Inputs", "box losses env_fingerprint schedule comparators")


def _build_inputs(cfg: dict, run_seed: int, cache: dict | None = None,
                  cell: dict | None = None) -> _Inputs:
    """Environment, arrival plan and comparators of one normalized config and seed.

    A sweep's cells differ in their grid values only, so it passes one
    ``cache`` and the ``cell`` of ``cfg``: each input is kept under the run
    seed and the grid values it reads, and built once per sweep.
    """
    def shared(name: str, reads: tuple, build):
        if cache is None:
            return build()
        key = (name, run_seed, *(cell.get(k) for k in reads))
        if key not in cache:
            cache[key] = build()
        return cache[key]

    box = Box.from_diameter(cfg["n"], cfg["D"])
    # a lowerbound environment draws one sign vector per block of d rounds, so it reads d
    env_reads = ("T", "d") if cfg["environment"].get("kind") == "lowerbound" else ("T",)
    losses, targets, env_fp = shared(
        "environment", env_reads, lambda: _build_environment(cfg, box, run_seed))
    schedule = shared("plan", ("T", "d"), lambda: _build_schedule(cfg, run_seed))
    comparators = shared("comparators", env_reads + ("P",),
                         lambda: _build_comparators(cfg, box, losses, targets, run_seed))
    comparators.setflags(write=False)
    return _Inputs(box, losses, env_fp, schedule, comparators)


def _run(cfg: dict, run_seed: int, inputs: _Inputs) -> tuple[RunTrace, dict]:
    """Run the configured learner on prebuilt inputs; returns (trace, summary)."""
    box, losses, schedule = inputs.box, inputs.losses, inputs.schedule
    comparators = inputs.comparators
    sum_m = schedule.sum_backlog
    learner, resolved = _build_learner(cfg, box, sum_m)

    name = cfg["learner"]["name"]
    trace = simulate(learner, losses, schedule, box)

    D, G, T = cfg["D"], cfg["G"], cfg["T"]
    S = schedule.total_delay
    d_max = schedule.max_delay
    in_order = schedule.is_in_order()
    P_T = env_mod.path_length(comparators)

    summary: dict = {
        "learner": name, "T": T, "n": cfg["n"], "D": D, "G": G,
        "seed": run_seed, **resolved,
        "S": S, "d_max": d_max, "in_order": in_order, "sum_m": sum_m,
        "path_length": P_T,
        "regret_dynamic": metrics_mod.dynamic_regret(trace, losses, comparators),
        "dropped": trace.dropped,
        "env_fingerprint": inputs.env_fingerprint,
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


def run_experiment(config: dict, seed: int | None = None) -> tuple[RunTrace, dict]:
    """Run one configured experiment; returns (trace, summary).

    Deterministic given (config, seed): identical inputs give byte-identical
    CSV/JSON renderings of the outputs.
    """
    cfg = normalize_config(config)
    run_seed = cfg["seed"] if seed is None else int(seed)
    return _run(cfg, run_seed, _build_inputs(cfg, run_seed))


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
            out["T"] = value
        elif key == "d":
            kind = out["delay"]["kind"]
            field = {"constant": "value", "blocks": "d", "uniform": "hi",
                     "in_order_random": "d_max"}.get(kind)
            if field is None:
                raise ConfigError(f'sweeping "d" unsupported for delay kind {kind!r}')
            out["delay"][field] = value
        elif key == "P":
            out["comparators"] = {"kind": "piecewise", "path_budget": float(value)}
        else:
            raise ConfigError(f"unknown sweep key {key!r}; supported: {_SWEEP_KEYS}")
    return out


def sweep(config: dict, grid: dict) -> list[dict]:
    """Run the cartesian product of grid overrides.

    Rows come out in deterministic (grid key, value order, repetition) order
    regardless of any execution order, one row per repetition per cell; each
    is the summary ``run_many`` gives for its cell, less the config.
    """
    cfg = normalize_config(config)
    if not (isinstance(grid, dict) and grid
            and all(isinstance(v, (list, tuple)) and v for v in grid.values())):
        raise ConfigError(f"sweep grid must map keys to nonempty lists of values, got {grid!r}")
    keys = sorted(grid)
    rows = []
    cache: dict = {}
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        try:
            cell_cfg = normalize_config(_apply_cell(cfg, cell))
            for rep in range(cell_cfg["repetitions"]):
                run_seed = cell_cfg["seed"] + rep
                inputs = _build_inputs(cell_cfg, run_seed, cache, cell)
                _, summary = _run(cell_cfg, run_seed, inputs)
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
        "learner": learner_spec or _DEFAULTS["learner"],
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

    A decision changes only when feedback moves the learner, so each run of
    equal rows is formatted once; rows are compared on their bits, as ``==``
    would merge -0.0 into 0.0.  cum_loss starts from 0.0, so a first loss of
    -0.0 prints 0.0 + -0.0 = 0.0.  Columns are read lazily to keep memory flat.
    """
    bits = trace.decisions.view(np.uint64)
    fresh = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    schedule = trace.schedule
    stamps, rounds, offsets = schedule.stamps, schedule.rounds, schedule.offsets

    def lines():
        yield "t,x,loss,cum_loss,m_t,n_arrivals,arrived_timestamps\n"
        cum = 0.0
        j = 0  # next entry of the plan; in range, as in ``simulate``
        for t, new, l, m in zip(range(1, len(fresh) + 1), fresh,
                                map(float, trace.loss_values), map(int, schedule.backlog())):
            cum += l
            if new:
                x = repr(trace.decisions[t - 1].tolist())[1:-1].replace(", ", ";")
            F = ()
            if rounds[j] == t:
                F = stamps[offsets[j]:offsets[j + 1]]
                j += 1
            yield f"{t},{x},{l!r},{cum!r},{m},{len(F)},{';'.join(map(str, F))}\n"

    out = io.StringIO()
    out.writelines(lines())
    return out.getvalue()


def to_json(payload) -> str:
    # NumPy scalars and arrays render as their Python values; NumPy floats are floats already
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
