"""Experiment orchestration: configs, runs, sweeps, adversarial validation
and output rendering.

A config is a JSON-compatible dict.  Every summary echoes the normalized config as
given, with the run's seed set, so running the echo again replays the run bit for bit;
the rates a run derives are summary fields of their own.  All randomness inside one run
flows from a single seed; repetitions use ``seed + repetition_index``.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
import itertools
import json
import math
import os
import reprlib
from collections import namedtuple
from collections.abc import Iterator

import numpy as np

from . import delay as delay_mod
from . import environments as env_mod
from . import learners as learn_mod
from . import losses as losses_mod
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


_MAX_DEPTH = 32  # a valid config nests containers 4 deep (the rows of environment.gradients)


def _check_tree(config: dict) -> None:
    """Refuse lists or objects nested more than ``_MAX_DEPTH`` deep, and a bool anywhere,
    named by its section and field: no field takes one, and ``np.asarray`` would read one
    inside a list as 0 or 1.  Iterative, so nesting that would exhaust the recursion limit
    (``copy.deepcopy``'s) is measured too."""
    stack = [(config, 0, "")]
    while stack:
        v, depth, where = stack.pop()
        if depth == _MAX_DEPTH:
            raise ConfigError(f"config nests lists or objects more than {_MAX_DEPTH} levels deep")
        named = (((c, f"{where}.{k}" if depth == 1 else where or k) for k, c in v.items())
                 if isinstance(v, dict) else ((c, where) for c in v))
        for c, name in named:
            if isinstance(c, (dict, list, tuple)):
                stack.append((c, depth + 1, name))
            elif isinstance(c, (bool, np.bool_)):
                raise ConfigError(f"{name} must be free of bools: no field takes true or false, "
                                  f"got {c!r}")


def _numbers(value, what: str, shape: tuple[int, ...] | None = (), low: float = 0.0,
             strict: bool = True):
    """``value`` as JSON numbers of ``shape`` (a nonempty flat list where ``shape`` is None),
    each finite and > ``low`` (>= unless ``strict``): a float for shape (), else a float64
    array.  Text is refused, numeric or not; a bool inside a list is ``_check_tree``'s."""
    try:  # NumPy holds ints past int64 as objects
        a = np.asarray(value)
        if a.dtype.kind == "O" and all(type(v) in (int, float) for v in a.flat):
            a = a.astype(np.float64)
    except (ValueError, OverflowError):  # ragged rows; an int past the float range
        a = np.empty(0, dtype=object)
    fits = a.shape == shape if shape is not None else a.ndim == 1 and a.size > 0
    if not (a.dtype.kind in "iuf" and fits and np.all(np.isfinite(a) &
                                                      (a > low if strict else a >= low))):
        what_kind = ("a finite number" if shape == () else "a nonempty flat list of finite "
                     "numbers" if shape is None else f"finite numbers of shape {shape}")
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ConfigError(f"{what} must be {what_kind}{bound}, got {reprlib.repr(value)}")
    return float(a) if shape == () else a.astype(np.float64)


def _check(test, *words, **kw):
    """A ``_SPEC`` check: the value is one of ``words`` or passes ``test``."""
    def check(v, cfg, what):
        if v not in words:
            if test is None:
                raise ConfigError(f"{what} must be one of {list(words)}, got {v!r}")
            test(v, what, **kw)
    return check


def _point(v, cfg, what):
    return v == "origin" or _numbers(v, what, (cfg["n"],), low=-math.inf)


def _points(v, cfg, what):
    pts = _numbers(v, what, (cfg["T"], cfg["n"]), low=-math.inf)
    if not np.all(np.abs(pts) <= Box.from_diameter(cfg["n"], cfg["D"]).half_width):
        raise ConfigError(f"{what} must lie in the feasible box")


def _gradients(v, cfg, what):
    grads = _numbers(v, what, (cfg["T"], cfg["n"]), low=-math.inf)
    with np.errstate(over="ignore"):  # an overflowing row reads inf
        worst = float(env_mod.row_norms(grads).max())
    if worst > cfg["G"] * (1 + 1e-12):  # every bound assumes ||g_t|| <= G, up to rounding
        raise ConfigError(f"{what} need norms <= G = {cfg['G']!r}, got {worst!r}")


_RATE, _LENGTH = _check(_numbers, "paper"), _check(_numbers, strict=False)
_RATES = {"eta": _RATE, "alpha": _RATE, "expert_rates": _check(_numbers, "paper", shape=None)}
# section: (tag key, {kind: ({required field: check}, {optional field: check})}); no tag
# reads "auto".  check(value, cfg, what) writes nothing back, so runs echo sections as
# given; a learner field is checked as the rate it replaces (_RATES), and
# delay.make_schedule reads and checks the delay fields.
_SPEC = {
    "learner": ("name", {name: ({}, {field: _RATES[rate] for field, rate in k.fields.items()})
                         for name, k in learn_mod.KINDS.items()}),
    "delay": ("kind", {kind: (dict.fromkeys(k.fields), {}) for kind, k in delay_mod.KINDS.items()}),
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
    _check_tree(config)
    cfg = copy.deepcopy(_DEFAULTS)
    cfg.update(copy.deepcopy(config))
    if "T" not in cfg:
        raise ConfigError("config must set the horizon T")
    for key, low in (("T", 1), ("n", 1), ("seed", 0), ("repetitions", 1)):
        try:
            cfg[key] = delay_mod._integer(cfg[key])
        except ValueError as exc:
            raise ConfigError(f"bad scalar field {key}: {exc}") from exc
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    cfg["D"], cfg["G"] = _numbers(cfg["D"], "D"), _numbers(cfg["G"], "G")
    if cfg["repetitions"] > delay_mod.MAX_ROUND:  # the seeds are a range, whose length is int64
        raise ConfigError(f"repetitions must be below 2^63, got {cfg['repetitions']}")
    try:
        box = Box.from_diameter(cfg["n"], cfg["D"])
    except ValueError as exc:
        raise ConfigError(f"D = {cfg['D']!r} is too small for n = {cfg['n']}: {exc}") from None
    if not math.isfinite(cfg["T"] * max(cfg["D"], box.diameter)):
        raise ConfigError(f"T*D overflows for T = {cfg['T']}, D = {cfg['D']!r}: "
                          "the comparator block length needs it finite")

    for section, (tag, kinds) in _SPEC.items():
        spec = cfg[section]
        if not isinstance(spec, dict):
            raise ConfigError(f"{section} must be a JSON object, got {reprlib.repr(spec)}")
        kind = spec.get(tag, "auto")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{section}.{tag} must be one of {list(kinds)}, got {kind!r}")
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
    need = _run_bytes(cfg)
    if need > _physical_memory():
        raise ConfigError(f"T = {cfg['T']}, n = {cfg['n']} need about {need / 2**30:.3g} GiB a "
                          "run, more than physical memory holds")
    _build_schedule(cfg, 0)  # the code that builds schedules checks the delay spec
    if cfg["environment"]["kind"] == "lowerbound":
        delay = cfg["delay"]
        if delay["kind"] != "blocks":
            raise ConfigError('environment "lowerbound" requires delay {"kind": "blocks", '
                              '"d": ...} (the instance owns its block schedule)')
        delay["d"] = delay_mod._integer(delay["d"])  # the schedule took it as an integer >= 1
        if delay["d"] > delay_mod.MAX_ROUND:
            raise ConfigError(f"delay.d: lowerbound block length must lie in [1, 2^63), "
                              f"got {delay['d']}")
    return cfg


def _walks(cfg: dict) -> bool:
    """Whether a run of ``cfg`` takes ``simulate``'s walk path: a DOGD-family learner on
    linear losses (linear drift, the lowerbound instance or listed gradients)."""
    env = cfg["environment"]
    return learn_mod.KINDS[cfg["learner"]["name"]].family == "dogd" and \
        (env["kind"] != "drift" or env.get("loss", "quadratic") == "linear")


def _run_bytes(cfg: dict) -> int:
    """Memory one run holds: T*n floats in five arrays (targets, decisions, gradients, loss
    temporaries) and in N experts, T*N floats of weight history, 32 bytes a round for the
    schedule's four int64 arrays and 168 for the lists ``simulate``'s round loop builds
    from its plan (four of T ints, 40 bytes an entry; tracemalloc: 167 at T = 20000), and
    the config's own lists, held twice (``normalize_config``'s copy and the summary's echo,
    whose deep copy memoizes each row): 16 bytes an entry and 16*n + 256 a row of T rows of
    n (tracemalloc: 16 and 16*n + 250).  A run on the walk path (``_walks``) holds T*n
    floats more in two arrays, the walk's path and its steps, and no such lists.  N is the
    run's expert count (``_pool``)."""
    N = _pool(cfg)[1]
    lists = [v for section in _SPEC for v in cfg[section].values() if isinstance(v, (list, tuple))]
    rows = sum(len(v) for v in lists if v and isinstance(v[0], (list, tuple)))
    return 8 * cfg["T"] * (cfg["n"] * (N + 5 + 2 * _walks(cfg)) + N) + (32 + 168) * cfg["T"] + \
        16 * sum(map(len, lists)) + (16 * cfg["n"] + 256) * rows


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _child_seeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k, dtype=np.uint64)]


def _build_environments(cfg: dict, box: Box, seeds: list[int]) -> list[tuple]:
    """(losses, drift targets or None, fingerprint) per environment seed; walks step together."""
    env = cfg["environment"]
    if env["kind"] == "lowerbound":
        built = [env_mod.make_lowerbound_instance(cfg["T"], cfg["delay"]["d"], cfg["D"], cfg["G"],
                                                  cfg["n"], s) for s in seeds]
        return [(losses, None, hashlib.sha256(signs.tobytes()).hexdigest()[:16])
                for signs, losses in built]
    if env["kind"] == "drift":
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                built = env_mod._drift_environments(
                    box, cfg["T"], float(env.get("step", 0.01)), env.get("loss", "quadratic"),
                    seeds, cfg["G"])
        except ValueError as exc:  # the loss scale or gradients left the float range
            raise ConfigError(f"drift losses for D = {cfg['D']!r}, G = {cfg['G']!r}: {exc}") \
                from None
        for _, targets in built:
            targets.setflags(write=False)
        return [(losses, targets, hashlib.sha256(targets.tobytes()).hexdigest()[:16])
                for losses, targets in built]
    grads = np.asarray(env["gradients"], dtype=np.float64)  # linear_list
    return [(Linear(grads), None, hashlib.sha256(grads.tobytes()).hexdigest()[:16])] * len(seeds)


def _build_schedule(cfg: dict, sched_seed: int) -> DelaySchedule:
    try:
        return delay_mod.make_schedule(cfg["delay"], cfg["T"], sched_seed)
    except ValueError as exc:
        raise ConfigError(f"bad delay spec: {exc}") from exc


def _build_comparators(cfg: dict, box: Box, targets, best, comp_seed: int) -> np.ndarray:
    spec = cfg["comparators"]
    kind = spec.get("kind", "auto")
    if kind in ("auto", "targets") and targets is not None:
        return targets
    if kind in ("auto", "best_fixed"):
        return np.tile(best, (cfg["T"], 1))
    if kind == "constant":
        point = spec.get("point", "origin")
        return np.tile(box.origin() if point == "origin" else box.project(point), (cfg["T"], 1))
    if kind == "piecewise":
        return env_mod.make_path_budget_comparators(
            box, cfg["T"], float(spec["path_budget"]), comp_seed)
    return np.asarray(spec["points"], dtype=np.float64)  # list


def _configured(spec: dict) -> dict:
    """The rates a learner section's fields set, by the rate each replaces: floats or arrays."""
    return {rate: np.asarray(v, dtype=np.float64) if np.ndim(v) else float(v)
            for field, rate in learn_mod.KINDS[spec["name"]].fields.items()
            if (v := spec.get(field, "paper")) != "paper"}


def _pool(cfg: dict) -> tuple[str, int]:
    """A run's learner family and expert count: the runs that share both and T can batch."""
    family = learn_mod.KINDS[cfg["learner"]["name"]].family
    return family, learn_mod.FAMILIES[family].experts(cfg["T"], _configured(cfg["learner"]))


def _build_learner(cfgs: list[dict], box: Box, sums: list[int]):
    """The learner for runs of ``cfgs``, one ``_pool`` and T, whose backlog sums are ``sums``;
    returns (learner, make, resolved params per run).  A row's rates are the paper rates at
    its first-epoch budget (sums[r], or 2 if it restarts), less the configured ones.  More
    runs than one stack their rates on a run axis, in one learner of their family.  ``make``
    is ``simulate``'s: per row None, or for a restarting row the family's ``tuned`` learner
    at the paper rates for a budget beta, which epoch v takes at beta = 2^v; one value for
    one run, a list for more."""
    D, G, T = cfgs[0]["D"], cfgs[0]["G"], cfgs[0]["T"]
    specs = [cfg["learner"] for cfg in cfgs]
    kinds = [learn_mod.KINDS[spec["name"]] for spec in specs]
    family = learn_mod.FAMILIES[kinds[0].family]
    try:  # the learners refuse the rates the paper formulas give near the float limits
        rows = [family.paper(D, G, 2 if k.restarts else s, T, **_configured(spec))
                for k, s, spec in zip(kinds, sums, specs)]
        learner = family.build(box, **({rate: np.array([row[rate] for row in rows]) for rate
                                        in rows[0]} if len(rows) > 1 else rows[0]))
        resolved = [{} if k.restarts else {
            **{rate: np.asarray(v).tolist() for rate, v in row.items()},
            **({"eta_source": spec.get("eta", "paper")} if "eta" in row else {})}
            for k, row, spec in zip(kinds, rows, specs)]
        tuned = family.tuned(box, D, G, T)
        makes = [tuned if k.restarts else None for k in kinds]
        # an epoch v opens only once its budget 2^(v-1) is below sum_m and the rates fall
        # with v, so the last is the other end of a doubling row's rates
        for s, make in zip(sums, makes):
            if make is not None:
                make(2 ** s.bit_length())
        return learner, makes[0] if len(rows) == 1 else makes, resolved
    except (ValueError, ArithmeticError) as exc:
        names = sorted({spec["name"] for spec in specs})
        raise ConfigError(f"the {'/'.join(names)} rates for D = {D!r}, G = {G!r}: {exc}") \
            from None


def simulate(learner, losses: QuadraticTracking | Linear, schedule, box: Box,
             make=None) -> RunTrace:
    """Drive a learner through the delayed-feedback protocol.

    ``schedule`` is one ``DelaySchedule``, or a list of R for a learner with a run axis and
    losses laid out by ``losses.stack``: the runs then step together, each on its own plan.
    ``make`` is, per run, None (the run never restarts) or ``make(beta)``, the one-run
    learner at budget beta (``learners.Family.tuned``): one value for one run, a list of R,
    or None for none.  The learner holds each run's first epoch.  A restarting run's epochs
    come from its plan alone (``learners.epoch_starts``), so its restart at round t reads
    only feedback delivered before t, and epoch v >= 2 opens with ``learner.set_row(r,
    make(2**v))``, r None for one run, so the learner ends in the run's last epoch.  The
    plan is cut once to the stamps its epochs keep (``learners.kept_stamps``): a stamp
    played before a restart and delivered after it is stale, and ``RunTrace.dropped`` counts
    it.  A learner with ``follow`` (a run-axis ``MildOGD``) takes the plans and the kept
    stamps before round 1.

    The round loop walks the arrival plan one stretch of rounds without feedback at a time:
    a stretch ends at each round with feedback before T, at the round before each restart,
    and at T.  The restarts of round t come before its ``play``.  Every learner plays a
    stretch with one ``play(t, stop)``, whose decision fills the stretch's rows (and the
    weights before its feedback) by slice.  Each round of a stretch queries its gradient
    ``losses.gradient(t, x)`` at the played point, exactly once, in round order; then, if
    the plan delivers feedback at the stretch's last round, the learner gets ``ingest(t,
    stamps, grads)``.  R runs' plans are merged (checked and cut) once by
    ``delay.merge_plans``.  Queried gradients are written where the plan delivers them, so
    each round's arrivals are one slice, and a cut stamp's past the deliveries.  The
    suffered losses are one ``losses.values(decisions)`` call after the loop, bitwise equal
    to ``losses.value(t, x)`` round by round.  The learners step on bare clamps, so after
    the last round the run checks once that every decision and gradient was finite, and
    raises ValueError if not; the loop runs without NumPy's overflow and invalid-value
    warnings, which a diverging run would print before that check refuses it.  The plan's
    rounds past the horizon are delivered too (plays suppressed), so every timestamp it
    keeps is handed over in the plan's order, ``RunTrace.c_log``; reported losses never
    include them.  A learner with ``weights`` has them written to a (T, [R,] N) history
    after every round.  R runs give one trace with decisions (T, R, n), which
    ``RunTrace.runs()`` splits.

    On ``Linear`` losses a ``DelayedOGD`` with one iterate per run takes the walk path
    instead (``_walk``): a gradient there does not depend on the decision it is queried at,
    so each run's decisions come from its plan and the gradient rows, one ``descend`` per
    epoch, bitwise the round loop's, leaving the state the round loop would.  Each plan is
    checked and cut as ``merge_plans`` checks and cuts it, each round still queries its
    gradient once at the decision played, in round order, and the finite check is the same.
    """
    runs = None if isinstance(schedule, DelaySchedule) else len(schedule)
    schedules = [schedule] if runs is None else schedule
    makes = [make] if runs is None else make or [None] * runs
    starts = [None if m is None else learn_mod.epoch_starts(s) for m, s in zip(makes, schedules)]
    kept = [None if s is None else learn_mod.kept_stamps(plan, s)
            for plan, s in zip(schedules, starts)]
    if hasattr(learner, "follow"):
        learner.follow(schedules, kept)
    if isinstance(losses, Linear) and isinstance(learner, learn_mod.DelayedOGD) and \
            learner.y.ndim == (1 if runs is None else 2):  # one iterate per run
        decisions = _walk(learner, losses, schedules, runs, kept, starts, makes, box)
        weights = None
    else:
        restarts = {}  # round -> (row, its make, budget) per row opening an epoch there
        for r, (row_starts, m) in enumerate(zip(starts, makes)):
            for v, t in enumerate((row_starts or [1])[1:], 2):
                restarts.setdefault(t, []).append((None if runs is None else r, m, 2 ** v))
        decisions, weights = _round_loop(learner, losses, schedules, runs, kept, restarts, box)
    dropped = [0 if k is None else int(k.size - np.count_nonzero(k)) for k in kept]
    starts = [None if s is None else tuple(s) for s in starts]
    if runs is None:
        dropped, starts = dropped[0], starts[0]
    elif all(s is None for s in starts):
        starts = None
    return RunTrace(decisions=decisions, loss_values=losses.values(decisions), schedule=schedule,
                    dropped=dropped, epoch_starts=starts, weights=weights)


def _round_loop(learner, losses, schedules: list, runs: int | None, kept: list,
                restarts: dict, box: Box) -> tuple:
    """``simulate``'s round loop over the plans cut to ``kept``, restarting rows as
    ``restarts`` says; returns the decisions and the weight history or None."""
    lead = () if runs is None else (runs,)
    rounds, offsets, stamps, slots = delay_mod.merge_plans(schedules, kept)
    rounds, offsets, T = rounds.tolist(), offsets.tolist(), len(slots)
    # the last round of each stretch: each round with feedback before T, each round before
    # a restart, and T
    ends = sorted({*itertools.islice(rounds, bisect.bisect_left(rounds, T)),
                   *(t - 1 for t in restarts), T})
    grads = np.zeros((len(stamps), *lead, box.dim))  # in plan order; padding stays 0
    if runs is None:  # the merged plan is the schedule's own, one column
        stamps, slots, write = stamps[:, 0].tolist(), slots[:, 0].tolist(), grads
    else:  # blocks of rows of R timestamps, each made a list when delivered; a round's
        # gradients scatter entry by entry (far cheaper than row by row), so slots holds
        # each entry's flat index
        write = grads.reshape(-1)
        slots = slots[:, :, None] * box.dim + np.arange(box.dim)
    decisions = np.empty((T, *lead, box.dim))
    weights = np.empty((T, *learner.weights.shape)) if hasattr(learner, "weights") else None
    play, gradient = learner.play, losses.gradient
    j, t = 0, 1  # next entry of the plan, first round of the stretch
    # a diverging run overflows where it steps; the check after the loop refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for stop in ends:
            for row, make, beta in restarts.get(t, ()):
                learner.set_row(row, make(beta))
            if stop == t:
                x = play(t)
                decisions[t - 1] = x
                write[slots[t - 1]] = gradient(t, x)
            else:  # one decision fills the stretch; each round still queries its gradient
                x = play(t, stop)
                decisions[t - 1:stop] = x
                for s in range(t, stop + 1):
                    write[slots[s - 1]] = gradient(s, x)
                if weights is not None:
                    weights[t - 1:stop - 1] = learner.weights
            if rounds[j] == stop:  # j stays in range: stamp T is kept, and arrives at T or later
                lo, hi = offsets[j], offsets[j + 1]
                learner.ingest(stop, stamps[lo:hi] if runs is None else stamps[lo:hi].tolist(),
                               grads[lo:hi])
                j += 1
            if weights is not None:
                weights[stop - 1] = learner.weights
            t = stop + 1
        _check_finite(decisions, grads)
        for j in range(j, len(rounds)):
            lo, hi = offsets[j], offsets[j + 1]
            learner.ingest(rounds[j], stamps[lo:hi] if runs is None else stamps[lo:hi].tolist(),
                           grads[lo:hi])
    return decisions, weights  # the plan goes before the losses are read


def _walk(learner, losses: Linear, schedules: list, runs: int | None, kept: list, starts: list,
          makes: list, box: Box) -> np.ndarray:
    """``simulate``'s walk path over the plans cut to ``kept``; returns the decisions.  Each
    run walks one epoch at a time (a run that never restarts is one epoch from round 1):
    from its second epoch on it restarts, ``set_row(r, make(2**v))``, then one ``descend``
    takes the deliveries of the epoch's rounds (the last epoch's, the flush's too) and plays
    the epoch's rounds.  Then each round queries its gradient at the decision played, which
    must be bitwise the row the walk stepped on."""
    T = schedules[0].horizon
    plans = [delay_mod.checked_plan(s, T, keep)[::3]  # (stamps, at) of each
             for s, keep in zip(schedules, kept)]
    decisions = np.empty((T, *(() if runs is None else (runs,)), box.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for r, ((stamps, at), epochs, make) in enumerate(zip(plans, starts, makes)):
            row, epochs = None if runs is None else r, epochs or [1]
            for v, (s, e) in enumerate(zip(epochs, [*epochs[1:], T + 1]), 1):
                if v > 1:
                    learner.set_row(row, make(2 ** v))
                lo, hi = at.searchsorted(s), at.searchsorted(e) if e <= T else None
                learner.descend(row, stamps[lo:hi], at[lo:hi], losses.grads, decisions, s, e - 1)
        queried, gradient = np.empty_like(decisions), losses.gradient  # after the walk's arrays
        for t, x in enumerate(decisions, 1):
            queried[t - 1] = gradient(t, x)
        _check_finite(decisions, queried)
    if not np.array_equal(queried.view(np.int64), losses.grads[:T].view(np.int64)):
        raise AssertionError("a queried gradient differs from the row the walk stepped on")
    return decisions


def _check_finite(decisions: np.ndarray, grads: np.ndarray) -> None:
    if not (np.isfinite(decisions).all() and np.isfinite(grads).all()):
        raise ValueError("the run played a non-finite decision or queried a non-finite "
                         "gradient")


# what a run reads besides its learner, every array read-only; optimum: (x*, least loss)
_Inputs = namedtuple("_Inputs", "box losses env_fingerprint optimum schedule comparators")


def _build_inputs(cfg: dict, seeds: list[int], walks: dict | None = None) -> list[_Inputs]:
    """Environment, arrival plan and comparators of one normalized config at each seed.

    Each run seed splits once, into the plan's, the environment's and the comparators'
    seeds, and each run builds its own plan and comparator path.  A sweep's cells share
    their environment section, so it passes one ``walks``: each environment is kept with
    its hindsight optimum under its run seed, T and, for a lowerbound instance (one sign
    vector per block), d, and built and solved once per T.
    """
    walks, box = {} if walks is None else walks, Box.from_diameter(cfg["n"], cfg["D"])
    reads = (cfg["T"], cfg["delay"]["d"]) if cfg["environment"]["kind"] == "lowerbound" else \
        (cfg["T"],)
    children = {s: _child_seeds(s, 3) for s in seeds}  # (plan, environment, comparators)
    todo = [s for s in seeds if (s, *reads) not in walks]  # their walks step together
    for s, (losses, targets, env_fp) in zip(todo, _build_environments(
            cfg, box, [children[s][1] for s in todo]) if todo else ()):
        walks[(s, *reads)] = losses, targets, env_fp, metrics_mod.minimize_total_loss(losses, box)
    out = []
    for s in seeds:
        losses, targets, env_fp, optimum = walks[(s, *reads)]
        comparators = _build_comparators(cfg, box, targets, optimum[0], children[s][2])
        comparators.setflags(write=False)
        out.append(_Inputs(box, losses, env_fp, optimum, _build_schedule(cfg, children[s][0]),
                           comparators))
    return out


def _run(rows: list[tuple[dict, int, _Inputs]]) -> list[tuple[RunTrace, dict]]:
    """Runs of normalized configs on prebuilt inputs, in lockstep through one ``simulate``;
    the rows share the learner family, T, n, D, G and loss kind.  Returns (trace, summary)s."""
    first = rows[0][2]
    schedules = [inputs.schedule for _, _, inputs in rows]
    sums = [schedule.sum_backlog for schedule in schedules]
    cfgs = [cfg for cfg, _, _ in rows]
    learner, make, resolved = _build_learner(cfgs, first.box, sums)
    losses = first.losses if len(rows) == 1 else \
        losses_mod.stack([inputs.losses for _, _, inputs in rows])
    try:  # rates that drive a learner out of the float range end its run non-finite
        trace = simulate(learner, losses, first.schedule if len(rows) == 1 else schedules,
                         first.box, make)
    except ValueError as exc:
        names = "/".join(sorted({cfg["learner"]["name"] for cfg in cfgs}))
        raise ConfigError(f"the {names} run diverged: {exc}") from None
    return [_summarize(*row, trace, params, sum_m)
            for row, trace, params, sum_m in zip(rows, trace.runs(), resolved, sums)]


def _summarize(cfg: dict, run_seed: int, inputs: _Inputs, trace: RunTrace, resolved: dict,
               sum_m: int) -> tuple[RunTrace, dict]:
    """A run's summary: regrets, bounds, the resolved rates and the config as given."""
    losses, schedule, comparators = inputs.losses, inputs.schedule, inputs.comparators
    name = cfg["learner"]["name"]
    D, G, T = cfg["D"], cfg["G"], cfg["T"]
    S, d_max, in_order = schedule.total_delay, schedule.max_delay, schedule.is_in_order()
    P_T = env_mod.path_length(comparators)

    summary: dict = {
        "learner": name, "T": T, "n": cfg["n"], "D": D, "G": G,
        "seed": run_seed, **resolved,
        "S": S, "d_max": d_max, "in_order": in_order, "sum_m": sum_m,
        "path_length": P_T,
        "regret_dynamic": metrics_mod.dynamic_regret(trace, losses, comparators),
        "dropped": trace.dropped,
        "env_fingerprint": inputs.env_fingerprint,
        "regret_static": metrics_mod.static_regret(trace, inputs.optimum[1]),
    }
    # the consumption log, RunTrace.c_log, is the plan's delivery order unless the run restarts
    summary["joint_effect"] = (metrics_mod.joint_effect(schedule.stamps, comparators)
                               if trace.epoch_starts is None else None)
    summary["bound_thm1"] = (  # the bound of a fixed-horizon learner with one rate eta
        metrics_mod.bound_thm1(D, G, resolved["eta"], sum_m, P_T, summary["joint_effect"])
        if "eta" in resolved and summary["joint_effect"] is not None else None)
    for bound in ("bound_cor1", "bound_thm2", "bound_thm4", "bound_thm5"):
        summary[bound] = getattr(metrics_mod, bound)(D, G, S, P_T, in_order, d_max, T)
    summary["bound_lower"] = metrics_mod.bound_lower(T, d_max, D, G, min(P_T, T * D))
    summary["bound_lemma3"] = metrics_mod.bound_lemma3(T, d_max, D, G)
    if trace.weight_sums is not None:
        summary["weight_sum_err"] = float(np.abs(trace.weight_sums - 1.0).max())
    if trace.epoch_starts is not None:
        summary["epoch_starts"] = list(trace.epoch_starts)
    overflowed = [k for k, v in summary.items() if isinstance(v, float) and not math.isfinite(v)]
    if overflowed:  # JSON has no infinity
        raise ConfigError(f"the {name} run for D = {D!r}, G = {G!r}, T = {T} would write "
                          f"non-finite {', '.join(overflowed)} into its summary")

    if all(v == "paper" for k, v in cfg["learner"].items() if k != "name"):  # paper rates
        bound = learn_mod.KINDS[name].bound
        summary["bound_check"] = {"bound": bound,
                                  "ok": bool(summary["regret_dynamic"] <= summary[bound])}

    summary["config"] = {**copy.deepcopy(cfg), "seed": run_seed}
    return trace, summary


def _batch_bytes(cfg: dict, runs: int, rows: int | None = None) -> int:
    """Memory a lockstep batch of ``runs`` runs of ``cfg`` holds, its merged plan having
    ``rows`` rows; by default the most a plan has, R*T.

    Each run holds what it holds alone (``_run_bytes``, with the walk path's path and
    steps, of which a batch walks one row at a time), a stacked copy of its loss
    arrays and the int64 slots its gradients scatter to (T*n of each).
    The batch holds the padded gradient rows of the merged arrival plan (n
    floats per run and row) and its timestamp block, an int64 array (8 bytes
    an entry), of which each delivery lists only its own rows (8 bytes an
    entry more); a plan has at most R*T rows, one per arrival, when no two
    runs deliver at the same round; the timestamps cut from restarting rows'
    plans sit in rows past the blocks, still within R*T.  Measured with
    tracemalloc on batches of 2 to 4 runs (T from 500 to 20000, n from 1 to 5;
    constant, permuted and mixed-d block delays, and blocks of T, whose one
    delivery lists the whole block), a batch allocates 0.2 to 0.8 of this at
    the plan's own rows.
    ``delayed-oco run`` then writes each trace as it arrives: ``trace_to_csv``
    holds the text twice, within what the runs held, and ``_CSV_CELLS``
    formatted floats at a time, which the last term allows 256 bytes each for
    (tracemalloc: at most 160, n from 1 to 20, T from 100 to 20000).
    """
    T, n = cfg["T"], cfg["n"]
    rows = runs * T if rows is None else rows
    return runs * (_run_bytes(cfg) + 16 * T * n) + rows * runs * (8 * n + 16) + \
        256 * _CSV_CELLS


def _batches(rows, count: int, cfg: dict) -> Iterator[list]:
    """The ``count`` runs that iterating ``rows`` yields, cut into lockstep batches (lists),
    in order, of as many runs of ``cfg`` as keep ``_batch_bytes`` within half of physical
    memory; a run alone always makes a batch."""
    fit, cap, rows = 1, _physical_memory() // 2, iter(rows)
    while fit < count and _batch_bytes(cfg, fit + 1) <= cap:
        fit += 1
    while batch := list(itertools.islice(rows, fit)):
        yield batch


def _refuse_kept(what: str, count: int, kept: int) -> None:
    """Refuse, before any run, ``count`` results that keep ``kept`` bytes past half of
    physical memory."""
    if kept > _physical_memory() // 2:
        raise ConfigError(f"{what} would keep {count} results, about {kept / 2**30:.3g} GiB, "
                          "more than half of physical memory")


def _row_bytes(cfg: dict) -> int:
    """Memory a sweep row of ``cfg`` holds, kept and rendered by ``to_json``: 9 KB, and 128
    bytes for each of its N expert rates and at most 2 log2(T) + 2 epoch starts
    (tracemalloc: 2.0 and 6.9 KB at most, and 22 and 102 bytes an entry)."""
    return 9 * 2**10 + 128 * (_pool(cfg)[1] + 2 * cfg["T"].bit_length() + 2)


def run_experiment(config: dict, seed: int | None = None) -> tuple[RunTrace, dict]:
    """Run one configured experiment; returns (trace, summary).

    Deterministic given (config, seed): identical inputs give byte-identical
    CSV/JSON renderings of the outputs.  A ``seed`` replaces the config's own and is
    checked like it.
    """
    if seed is not None and isinstance(config, dict):
        config = {**config, "seed": seed}
    cfg = normalize_config(config)
    return _run([(cfg, cfg["seed"], *_build_inputs(cfg, [cfg["seed"]]))])[0]


def run_many(config: dict) -> Iterator[tuple[RunTrace, dict]]:
    """One run per repetition, seeded base_seed + index, in lockstep batches that each fit in
    half of physical memory; each is bitwise what ``run_experiment`` gives.  The config, its
    delay spec included, is checked at the call; each batch runs when the iterator reaches
    it, and only it is held, the seeds being a range."""
    cfg = normalize_config(config)
    seeds = range(cfg["seed"], cfg["seed"] + cfg["repetitions"])
    return (result for batch in _batches(seeds, len(seeds), cfg)
            for result in _run(list(zip([cfg] * len(batch), batch, _build_inputs(cfg, batch)))))


_SWEEP_KEYS = ("learner", "T", "d", "P")


def _apply_cell(cfg: dict, cell: dict) -> dict:
    out = dict(cfg)  # normalize_config copies it whole; an overridden section is a new dict
    for key, value in cell.items():
        if key == "learner":  # a cell naming the base config's own learner keeps its rates
            if out.get("learner", {}).get("name") != value:
                out["learner"] = {"name": value}
        elif key == "T":
            out["T"] = value
        elif key == "d":
            kind = out["delay"]["kind"]
            field = delay_mod.KINDS[kind].sweep
            if field is None:
                raise ConfigError(f'sweeping "d" unsupported for delay kind {kind!r}')
            out["delay"] = {**out["delay"], field: value}
        elif key == "P":
            out["comparators"] = {"kind": "piecewise", "path_budget": value}
        else:
            raise ConfigError(f"unknown sweep key {key!r}; supported: {_SWEEP_KEYS}")
    return out


def sweep(config: dict, grid: dict) -> list[dict]:
    """Run the cartesian product of grid overrides.

    Rows come out in deterministic (grid key, value order, repetition) order
    regardless of any execution order, one row per repetition per cell; each
    is the summary ``run_many`` gives for its cell, less the config.  Every
    cell's config, its delay spec included, is checked before any batch runs;
    a ``learner`` cell that names the base config's learner keeps its rates,
    and any other takes the paper rates.  The
    runs of all cells that share a learner family, expert count (``_pool``) and T
    step in lockstep.  The runs share only their environment walks; a batch's
    plans and comparator paths are built when it runs, one per run, and only the
    rows and the current T's walks outlive it.  Each cell's seeds are a range; rows
    (``_row_bytes``) past half of physical memory are refused before any run.
    """
    cfg = normalize_config(config)
    if not (isinstance(grid, dict) and grid
            and all(isinstance(v, (list, tuple)) and v for v in grid.values())):
        raise ConfigError(f"sweep grid must map keys to nonempty lists of values, got {grid!r}")
    keys = sorted(grid)
    # cells: (cell, its config); groups: per T, per _pool, (cell index, its seeds) per cell
    cells, groups = [], {}
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        try:
            cell_cfg = normalize_config(_apply_cell(cfg, cell))
        except Exception as exc:
            raise SweepError(f"sweep cell {cell} failed: {exc}") from exc
        groups.setdefault(cell_cfg["T"], {}).setdefault(_pool(cell_cfg), []).append(
            (len(cells), range(cell_cfg["seed"], cell_cfg["seed"] + cell_cfg["repetitions"])))
        cells.append((cell, cell_cfg))
    _refuse_kept("the sweep", sum(c["repetitions"] for _, c in cells),
                 sum(c["repetitions"] * _row_bytes(c) for _, c in cells))
    rows = {}
    for pools in groups.values():
        walks = {}  # this T's environments, which its pools' runs share
        for group in pools.values():
            largest = max((cells[c][1] for c, _ in group), key=_run_bytes)
            runs = ((c, seed) for c, seeds in group for seed in seeds)
            for batch in _batches(runs, sum(len(seeds) for _, seeds in group), largest):
                for (c, seed), summary in zip(batch, _sweep_batch(batch, cells, walks)):
                    rows[c, seed] = {"cell": cells[c][0],
                                     "repetition": seed - cells[c][1]["seed"],
                                     **{k: v for k, v in summary.items() if k != "config"}}
    return [rows[run] for run in sorted(rows)]


def _sweep_batch(batch: list, cells: list, walks: dict) -> list[dict]:
    """The summaries of a sweep's lockstep batch of (cell index, seed) runs; its inputs and
    traces go when it returns.  A failure names its cell in a ``SweepError``."""
    runs = []  # (cell config, seed, inputs) per run
    for c, same in itertools.groupby(batch, lambda run: run[0]):
        (cell, cell_cfg), seeds = cells[c], [seed for _, seed in same]
        try:
            runs += zip([cell_cfg] * len(seeds), seeds, _build_inputs(cell_cfg, seeds, walks))
        except Exception as exc:
            raise SweepError(f"sweep cell {cell} failed: {exc}") from exc
    try:  # the traces go at once
        return [summary for _, summary in _run(runs)]
    except Exception:  # rerun one run at a time, to name the failing cell
        for (c, _), run in zip(batch, runs):
            try:
                _run([run])
            except Exception as exc:
                raise SweepError(f"sweep cell {cells[c][0]} failed: {exc}") from exc
        raise  # no run fails alone: the fault is the batch's own


# a lowerbound trial's regret, kept and rendered (tracemalloc: 31 kept, 78 as JSON, 318 as CSV)
_TRIAL_BYTES = 512


def lowerbound_report(T: int, d: int, D: float, G: float, n: int,
                      learner_spec: dict | None = None, trials: int = 200,
                      base_seed: int = 0) -> dict:
    """Average static regret on independent adversarial sign draws.

    Runs the learner on ``trials`` instances that differ only in their sign
    draws, then compares the mean static regret (with its standard error)
    against the expectation lower bound; the PASS flag is suppressed when
    trials == 1 since a single draw has no averaging.  Trials past half of physical
    memory (``_TRIAL_BYTES`` each) are refused before any run.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    _refuse_kept("lowerbound", trials, trials * _TRIAL_BYTES)
    config = {
        "T": T, "n": n, "D": D, "G": G,
        "learner": learner_spec or _DEFAULTS["learner"],
        "delay": {"kind": "blocks", "d": d},
        "environment": {"kind": "lowerbound"},
        "comparators": {"kind": "best_fixed"},
        "seed": base_seed, "repetitions": trials,
    }
    regrets = np.fromiter((summary["regret_static"] for _, summary in run_many(config)),
                          dtype=np.float64, count=trials)
    mean = float(regrets.mean())
    stderr = float(regrets.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    bound = metrics_mod.bound_lemma3(T, d, D, G)
    report = {
        "T": T, "d": d, "D": D, "G": G, "n": n, "trials": trials,
        "learner": config["learner"]["name"],
        "mean_static_regret": mean, "stderr": stderr,
        "bound_lemma3": bound,
        "per_trial": regrets.tolist(),
    }
    report["pass"] = bool(mean >= bound) if trials > 1 else None
    return report


# ---------------------------------------------------------------------------
# Output rendering.
# ---------------------------------------------------------------------------

def _float_text(values: np.ndarray) -> np.ndarray:
    """Each float's ``repr``, as an object array; each distinct bit pattern is formatted once."""
    keys = values.view(np.uint64)
    order = np.argsort(keys)  # a sort, as np.unique loads numpy.ma
    first = np.r_[True, keys[order[1:]] != keys[order[:-1]]]
    at = np.empty_like(order)
    at[order] = np.cumsum(first) - 1  # each value's place among the distinct ones
    return np.array(repr(values[order[first]].tolist())[1:-1].split(", "), dtype=object)[at]


_CSV_CELLS = 2**11  # floats formatted at once, so rendering holds a bounded part as text


def trace_to_csv(trace: RunTrace) -> str:
    """One row per round: t, x, loss, cum_loss, m_t, n_arrivals, arrived_timestamps.

    The m_t and arrival columns come from the run's schedule.  Vector fields
    are semicolon-joined; floats use shortest-roundtrip repr so identical
    runs render byte-identically.

    Blocks of rows are built column by column and joined.  A decision changes
    only when feedback moves the learner, so a block formats only its first
    row and the rows that differ from the one before, and ``_float_text``
    formats each distinct float of those rows and of the loss and cum_loss
    columns once; rows and floats are compared on their bits, as ``==`` would
    merge -0.0 into 0.0.  cum_loss is the running sum from 0.0, so a first
    loss of -0.0 prints 0.0 + -0.0 = 0.0.
    """
    decisions, schedule = trace.decisions, trace.schedule
    T, n = decisions.shape
    bits = decisions.view(np.uint64)
    fresh = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]
    size = max(1, _CSV_CELLS // (n + 2))  # rows to a block
    fresh[::size] = True
    rounds, offsets, stamps, backlog = (schedule.rounds.tolist(), schedule.offsets.tolist(),
                                        schedule.stamps.tolist(), schedule.backlog())
    out, cum, j = ["t,x,loss,cum_loss,m_t,n_arrivals,arrived_timestamps"], 0.0, 0
    for lo in range(0, T, size):
        hi = min(lo + size, T)
        new, losses = fresh[lo:hi], trace.loss_values[lo:hi].tolist()
        sums = list(itertools.accumulate(losses, initial=cum))[1:]
        cells = _float_text(np.concatenate((decisions[lo:hi][new].ravel(), losses, sums)))
        k, cum = cells.size - 2 * (hi - lo), sums[-1]
        xs = np.array(list(map(";".join, cells[:k].reshape(-1, n).tolist())), dtype=object)
        counts, arrived = ["0"] * (hi - lo), [""] * (hi - lo)
        stop = bisect.bisect_right(rounds, hi, j)  # the plan's rounds in this block
        for t, a, b in zip(rounds[j:stop], offsets[j:stop], offsets[j + 1:stop + 1]):
            counts[t - 1 - lo], arrived[t - 1 - lo] = str(b - a), ";".join(map(str, stamps[a:b]))
        j = stop
        out.append("\n".join(map(",".join, zip(
            map(str, range(lo + 1, hi + 1)), xs[np.cumsum(new) - 1].tolist(),
            cells[k:k + hi - lo].tolist(), cells[k + hi - lo:].tolist(),
            map(str, backlog[lo:hi].tolist()), counts, arrived))))
    return "\n".join(out + [""])  # with the final newline, the text is built once


def to_json(payload) -> str:
    # NumPy scalars and arrays render as their Python values; NumPy floats are floats already
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"
