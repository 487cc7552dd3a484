#!/usr/bin/env python3
"""Check that two source trees of delayed_oco give byte-identical outputs.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree (a directory holding the ``delayed_oco`` package, such as a
checkout's ``src``) runs ``comparison_set()`` in one subprocess, which hashes
each run's decision bytes, the ``trace.csv`` and ``summary.json`` texts
``delayed-oco run`` would write (a refused run records its config error), and
the trace's consumption log ``c_log`` and weight sums ``weight_sums``.
It also hashes the ``to_json`` text of each ``lowerbound_report`` in
``report_set()``, the averaged static-regret path that single runs do not
reach, the ``sweep.json`` text of each sweep in ``sweep_set()`` and, apart,
the outputs, the log and the weight sums of every repetition of each
``run_many`` config in ``many_set()``, whose runs step in lockstep, and the
sweeps and repetitions of the lockstep Mild-OGD slice ``lockstep_mild_set()`` and
of the stale-feedback slice ``stale_set()``.  In
lockstep batches of two runs, it hashes the sweep of ``batched_sweep_set()``
and, for each ``delayed-oco run`` call of ``cli_set()``, its exit code, its
standard output and every file it writes.  The script prints, per output,
how many runs (and reports, sweeps, repetitions, calls) are byte-identical,
names the first that differ, and exits 1 on any difference.  The set is 867 runs,
24 reports, 23 sweeps, 8 CLI calls and 402 repetitions.

    python3 scripts/compare_outputs.py --write-golden SRC

writes ``golden_digests()`` of the tree SRC to ``tests/golden/digests.json``, the
digests that ``tests/test_golden.py`` checks the package against with the same
hashing functions.  Rewrite it only with a change that means to alter outputs.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

T = 300
# every learner, spelled here rather than read from delayed_oco.learners.KINDS, since the
# script also runs trees that predate the table
LEARNERS = ("ogd", "dogd", "mild", "dogd_dt", "mild_dt")
DELAYS = {"constant": {"value": 3}, "uniform": {"lo": 1, "hi": 12}, "blocks": {"d": 16},
          "permuted": {}, "in_order_random": {"d_max": 8},
          "list": {"values": [1 + (7 * t) % 11 for t in range(T)]}}
POINTS = [[0.5 * math.sin(0.05 * t + i) for i in range(3)] for t in range(T)]  # in the n = 3 box
OUTPUTS = ("decisions", "trace.csv", "summary.json", "c_log", "weight_sums")
ETAS40 = [0.01 * 2 ** (i / 4) for i in range(40)]  # a pool far past the paper grid's N = 8
GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden" / "digests.json"


def comparison_set():
    """Five learners x six delay kinds x quadratic/linear drift at step 0.02
    and 1 x n in {1, 3, 10} x seeds 0-1 at T = 300, lowerbound runs, one
    ``linear_list`` run, the benchmark's ``cli_run`` config at seeds 0-2, and
    piecewise comparators at path budgets P in {0, 1, 4, 50, 1e6} (one block to one
    block a round) x n in {1, 3} for dogd and mild, and five learners at D = 3 and
    G in {1.5, 0.3}, which are not powers of two, so that a change in how a rate
    formula rounds shows; and in-order random delays at d_max in {1, 64, 2^40} x dogd and
    mild x n in {1, 3}, the last past any horizon; and mild with 40 ``etas`` at n in {1, 10}
    on linear and quadratic drift; and dogd with each comparator kind
    (``golden_comparators``); and the walk path's slice at its benchmark sizes
    (``walk_set``)."""
    base = {"T": T, "D": 2.0, "G": 1.0}
    for learner, (kind, spec), loss, step, n, seed in itertools.product(
            LEARNERS, DELAYS.items(), ("quadratic", "linear"), (0.02, 1.0), (1, 3, 10), (0, 1)):
        yield (f"{learner}/{kind}/{loss}-{step}/n{n}/s{seed}",
               {**base, "n": n, "seed": seed, "learner": {"name": learner},
                "delay": {"kind": kind, **spec},
                "environment": {"kind": "drift", "step": step, "loss": loss}})
    for learner, d, n in itertools.product(("dogd", "mild", "mild_dt"), (1, 8), (1, 3)):
        yield (f"lowerbound/{learner}/d{d}/n{n}",
               {**base, "n": n, "seed": 5, "learner": {"name": learner},
                "delay": {"kind": "blocks", "d": d}, "environment": {"kind": "lowerbound"}})
    gradients = [[0.6, 0.8], [-1.0, 0.0], [0.0, -0.0], [0.5, 0.5]]
    yield ("linear_list", {**base, "T": 4, "n": 2, "seed": 0, "learner": {"name": "dogd"},
                           "delay": {"kind": "permuted"},
                           "environment": {"kind": "linear_list", "gradients": gradients}})
    for seed in range(3):
        yield (f"cli_run/s{seed}",
               {"T": 2000, "n": 10, "D": 2.0, "G": 1.0, "seed": seed,
                "learner": {"name": "dogd_dt"}, "delay": {"kind": "permuted"},
                "environment": {"kind": "drift", "step": 0.02, "loss": "linear"},
                "comparators": {"kind": "piecewise", "path_budget": 4}})
    for P, n, learner in itertools.product((0, 1, 4, 50, 1e6), (1, 3), ("dogd", "mild")):
        yield (f"piecewise/P{P}/n{n}/{learner}",
               {**base, "n": n, "seed": 6, "learner": {"name": learner},
                "delay": {"kind": "permuted"},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
                "comparators": {"kind": "piecewise", "path_budget": P}})
    for learner, G, kind, n, seed in itertools.product(
            LEARNERS, (1.5, 0.3), ("uniform", "permuted"), (1, 3), (0, 1)):
        yield (f"{learner}/D3-G{G}/{kind}/n{n}/s{seed}",
               {**base, "D": 3.0, "G": G, "n": n, "seed": seed, "learner": {"name": learner},
                "delay": {"kind": kind, **DELAYS[kind]},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}})
    for d_max, learner, n in itertools.product((1, 64, 2**40), ("dogd", "mild"), (1, 3)):
        yield (f"in_order_random/d{d_max}/{learner}/n{n}",
               {**base, "n": n, "seed": 7, "learner": {"name": learner},
                "delay": {"kind": "in_order_random", "d_max": d_max},
                "environment": {"kind": "drift", "step": 0.02, "loss": "linear"}})
    for n, loss in itertools.product((1, 10), ("linear", "quadratic")):
        yield (f"mild/etas40/{loss}/n{n}", etas40_config(n, loss))
    yield from golden_comparators()
    yield from walk_set()


def walk_set():
    """DOGD-family runs on linear losses, which take ``simulate``'s walk path, at sizes
    past one ``_WALK_ROWS`` = 512 stretch: dogd and dogd_dt on the lowerbound instance
    with blocks of d in {1, 4, 64} at T = 4096, n = 1; dogd on linear drift with uniform
    delays 1-30 at T = 4096, n = 1; and dogd on linear drift with unit delays at
    T = 20000, n = 5."""
    base = {"D": 2.0, "G": 1.0, "seed": 3}
    for learner, d in itertools.product(("dogd", "dogd_dt"), (1, 4, 64)):
        yield (f"walk/lowerbound/{learner}/d{d}",
               {**base, "T": 4096, "n": 1, "learner": {"name": learner},
                "delay": {"kind": "blocks", "d": d}, "environment": {"kind": "lowerbound"}})
    drift = {"kind": "drift", "step": 0.02, "loss": "linear"}
    yield ("walk/drift/uniform30", {**base, "T": 4096, "n": 1, "learner": {"name": "dogd"},
                                    "delay": {"kind": "uniform", "lo": 1, "hi": 30},
                                    "environment": drift})
    yield ("walk/drift/constant1", {**base, "T": 20000, "n": 5, "learner": {"name": "dogd"},
                                    "delay": {"kind": "constant", "value": 1},
                                    "environment": drift})


def etas40_config(n: int, loss: str) -> dict:
    """mild with the 40 ``ETAS40`` rates on uniform delays, T = 300, seed 8."""
    return {"T": T, "n": n, "D": 2.0, "G": 1.0, "seed": 8,
            "learner": {"name": "mild", "etas": ETAS40},
            "delay": {"kind": "uniform", **DELAYS["uniform"]},
            "environment": {"kind": "drift", "step": 0.02, "loss": loss}}


def report_set():
    """``lowerbound_report`` for dogd, mild and mild_dt x d in {1, 8} x n in {1, 3},
    at T = 256 with 5 trials each; and the benchmark's ``lowerbound_mild`` configs,
    mild and mild_dt x d in {1, 64} at T = 4096, n = 1, 1 trial, base seeds 0-2,
    which reach N = 8 experts (NumPy's 8-lane pairwise sum) and 64-gradient bursts."""
    for learner, d, n in itertools.product(("dogd", "mild", "mild_dt"), (1, 8), (1, 3)):
        yield (f"lowerbound_report/{learner}/d{d}/n{n}",
               {"T": 256, "d": d, "D": 2.0, "G": 1.0, "n": n, "learner_spec": {"name": learner},
                "trials": 5, "base_seed": 3})
    for learner, d, seed in itertools.product(("mild", "mild_dt"), (1, 64), range(3)):
        yield (f"lowerbound_mild/{learner}/d{d}/s{seed}",
               {"T": 4096, "d": d, "D": 2.0, "G": 1.0, "n": 1, "learner_spec": {"name": learner},
                "trials": 1, "base_seed": seed})


def sweep_set():
    """The benchmark's drift sweep grid (4 learners x d in {1, 20}, T = 2000, n = 5) at
    seeds 0-2, and ragged grids at T = 300, n = 3, 3 repetitions: 4 learners x uniform
    delays with d in {1, 5, 20}, 4 learners x permuted delays (which take no d), dogd
    and mild x the piecewise comparators' path budget P in {0, 1, 4, 50, 1e6}, and all
    five learners, whose fixed-horizon and doubling-trick runs share lockstep batches, x
    d in {1, 5, 20} on linear drift and on the lowerbound instance (T = 256); and the five
    learners with ``list`` delays and ``list`` comparators, which each run builds from
    the config's T-entry lists."""
    learners = ["dogd", "mild", "dogd_dt", "mild_dt"]
    for seed in range(3):
        yield (f"sweep/drift_sweep/s{seed}",
               {"T": 2000, "n": 5, "D": 2.0, "G": 1.0, "seed": seed,
                "learner": {"name": "dogd"}, "delay": {"kind": "constant", "value": 1},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
                "comparators": {"kind": "targets"}},
               {"learner": learners, "d": [1, 20]})
    for kind, grid in (("uniform", {"learner": learners, "d": [1, 5, 20]}),
                       ("permuted", {"learner": learners})):
        yield (f"sweep/{kind}/r3",
               {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 4, "repetitions": 3,
                "delay": {"kind": kind, **DELAYS[kind]},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}}, grid)
    yield ("sweep/P/r3",
           {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 4, "repetitions": 3,
            "delay": {"kind": "uniform", **DELAYS["uniform"]},
            "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}},
           {"learner": ["dogd", "mild"], "P": [0, 1, 4, 50, 1e6]})
    yield ("sweep/linear/five-learners/r3",
           {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 4, "repetitions": 3,
            "delay": {"kind": "uniform", **DELAYS["uniform"]},
            "environment": {"kind": "drift", "step": 0.02, "loss": "linear"}},
           {"learner": list(LEARNERS), "d": [1, 5, 20]})
    yield ("sweep/lowerbound/five-learners/r3",
           {"T": 256, "n": 3, "D": 2.0, "G": 1.0, "seed": 4, "repetitions": 3,
            "delay": {"kind": "blocks", "d": 1}, "environment": {"kind": "lowerbound"}},
           {"learner": list(LEARNERS), "d": [1, 8, 32]})
    yield ("sweep/list/five-learners/r3",
           {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 4, "repetitions": 3,
            "delay": {"kind": "list", **DELAYS["list"]},
            "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"},
            "comparators": {"kind": "list", "points": POINTS}},
           {"learner": list(LEARNERS)})


BASE = {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 4,
        "delay": {"kind": "uniform", **DELAYS["uniform"]},
        "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}}


def lockstep_mild_set():
    """(name, config, grid or None) of the lockstep Mild-OGD slice, outside
    ``golden_digests()``: ``mild`` and ``mild_dt`` in one batch, T = 300, n = 3, as sweeps at
    2 repetitions over constant delays d in {1, 20, 340} (the last past T), blocks d in
    {16, 64} (bursts, padded where a row's runs deliver apart, with doubling restarts
    inside a burst's window) and permuted delays (the largest near T), and as ``run_many``
    at 4 repetitions (grid None) on blocks of 64 and constant delays of 340; and batches of
    32 runs, whose doubling rows restart at different rounds: ``mild`` and ``mild_dt`` at
    T = 2000, n = 5 on quadratic drift with permuted and uniform delays, as ``run_many`` at
    32 repetitions and as a sweep over both at 32 repetitions."""
    base = {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 9, "repetitions": 2,
            "learner": {"name": "mild"}}
    drift = {"kind": "drift", "step": 0.02}
    for kind, d, loss in (("constant", [1, 20, 340], "quadratic"), ("blocks", [16, 64], "linear"),
                          ("permuted", None, "quadratic")):
        spec = {"kind": kind, **DELAYS[kind]}
        yield (f"lockstep/sweep/{kind}", {**base, "delay": spec,
                                          "environment": {**drift, "loss": loss}},
               {"learner": ["mild", "mild_dt"], **({"d": d} if d else {})})
    for learner, spec in itertools.product(("mild", "mild_dt"), ({"kind": "blocks", "d": 64},
                                                                 {"kind": "constant",
                                                                  "value": 340})):
        yield (f"lockstep/many/{learner}/{spec['kind']}",
               {**base, "repetitions": 4, "learner": {"name": learner}, "delay": spec,
                "environment": {**drift, "loss": "linear"}}, None)
    wide = {**base, "T": 2000, "n": 5, "repetitions": 32, "environment": {**drift,
                                                                        "loss": "quadratic"}}
    for kind in ("permuted", "uniform"):
        spec = {"kind": kind, **DELAYS[kind]}
        for learner in ("mild", "mild_dt"):
            yield (f"lockstep/r32/many/{learner}/{kind}",
                   {**wide, "learner": {"name": learner}, "delay": spec}, None)
        yield f"lockstep/r32/sweep/{kind}", {**wide, "delay": spec}, {"learner": ["mild",
                                                                                 "mild_dt"]}


def stale_set():
    """(name, config, grid or None) of the stale-feedback slice, outside ``golden_digests()``:
    dogd_dt and mild_dt, whose restarts cut stale stamps from their plans, at T = 2000,
    n = 5, on permuted and constant-20 delays x quadratic drift (the round loop) and linear
    drift (dogd_dt's walk path): as sweeps at 2 repetitions beside a fixed-horizon row of
    their family, which cuts nothing, in one lockstep batch, and as ``run_many`` at 4
    repetitions (grid None), whose permuted rows cut at different rounds."""
    base = {"T": 2000, "n": 5, "D": 2.0, "G": 1.0, "seed": 11}
    for (fixed, dt), (kind, spec), loss in itertools.product(
            (("dogd", "dogd_dt"), ("mild", "mild_dt")),
            (("permuted", {}), ("constant", {"value": 20})), ("quadratic", "linear")):
        common = {**base, "delay": {"kind": kind, **spec},
                  "environment": {"kind": "drift", "step": 0.02, "loss": loss}}
        yield (f"stale/sweep/{dt}/{kind}/{loss}",
               {**common, "repetitions": 2, "learner": {"name": fixed}}, {"learner": [fixed, dt]})
        yield (f"stale/many/{dt}/{kind}/{loss}",
               {**common, "repetitions": 4, "learner": {"name": dt}}, None)


def batched_sweep_set():
    """A sweep with memory for lockstep batches of two mild_dt runs: dogd and mild_dt x
    uniform delays with d in {1, 5, 20} at 3 repetitions, T = 300, n = 3; each learner's
    nine runs span at least three batches."""
    yield ("sweep/batches-of-two/r3", {**BASE, "learner": {"name": "mild_dt"}, "repetitions": 3},
           {"learner": ["dogd", "mild_dt"], "d": [1, 5, 20]})


def cli_set():
    """``delayed-oco run`` in lockstep batches of two, for dogd and mild_dt at T = 300, n = 3:
    ``--out`` at 1 and 4 repetitions, and ``--format json`` and ``--format csv`` to
    standard output at 4 repetitions."""
    for learner, (flags, reps) in itertools.product(
            ("dogd", "mild_dt"), ((["--out"], 1), (["--out"], 4), (["--format", "json"], 4),
                                  (["--format", "csv"], 4))):
        yield (f"cli/run{''.join(flags)}/{learner}/r{reps}",
               {**BASE, "learner": {"name": learner}, "repetitions": reps}, flags)


def many_set():
    """``run_many`` at 4 repetitions: five learners x uniform, permuted and blocks delays
    x quadratic and linear drift, n = 3, T = 300; and walks that hug the walls, whose
    four runs' drift targets step together: drift steps 0.32 and 1.0 x n in {1, 3, 10}
    x quadratic and linear drift, for dogd and mild with permuted delays; and dogd and
    mild at T = 9000, 3 repetitions, whose strided loss columns outrun NumPy's
    8192-element reduction buffer; and mild with 40 ``etas`` at n = 10 on quadratic drift."""
    for learner, kind, loss in itertools.product(LEARNERS, ("uniform", "permuted", "blocks"),
                                                 ("quadratic", "linear")):
        yield (f"many/{learner}/{kind}/{loss}",
               {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 2, "repetitions": 4,
                "learner": {"name": learner}, "delay": {"kind": kind, **DELAYS[kind]},
                "environment": {"kind": "drift", "step": 0.02, "loss": loss}})
    for learner, step, n, loss in itertools.product(("dogd", "mild"), (0.32, 1.0), (1, 3, 10),
                                                    ("quadratic", "linear")):
        yield (f"many/walls/{learner}/step{step}/n{n}/{loss}",
               {"T": T, "n": n, "D": 2.0, "G": 1.0, "seed": 5, "repetitions": 4,
                "learner": {"name": learner}, "delay": {"kind": "permuted"},
                "environment": {"kind": "drift", "step": step, "loss": loss}})
    for learner in ("dogd", "mild"):
        yield (f"many/T9000/{learner}",
               {"T": 9000, "n": 3, "D": 2.0, "G": 1.0, "seed": 3, "repetitions": 3,
                "learner": {"name": learner}, "delay": {"kind": "uniform", **DELAYS["uniform"]},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}})
    yield "many/etas40/n10/quadratic", {**etas40_config(10, "quadratic"), "repetitions": 4}


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_digests(harness, trace, summary) -> list:
    """The digests of a run's ``OUTPUTS``: its decision bytes, ``trace.csv`` and
    ``summary.json`` texts, and the values its trace derives rather than records."""
    sums = trace.weight_sums
    return [digest(trace.decisions.tobytes()), digest(harness.trace_to_csv(trace)),
            digest(harness.to_json({"runs": [summary]})), digest(repr(trace.c_log)),
            digest(b"None" if sums is None else sums.tobytes())]


def sweep_digest(harness, cfg: dict, grid: dict) -> str:
    return digest(harness.to_json({"grid": grid, "rows": harness.sweep(cfg, grid)}))


def worker() -> None:
    from delayed_oco import harness

    result = {}
    for name, cfg in comparison_set():
        try:
            (trace, summary), = harness.run_many(cfg)
        except harness.ConfigError as exc:
            result[name] = [f"config error: {exc}"] * len(OUTPUTS)
            continue
        result[name] = run_digests(harness, trace, summary)
    reports = {name: digest(harness.to_json(harness.lowerbound_report(**kw)))
               for name, kw in report_set()}
    sweeps = {name: sweep_digest(harness, cfg, grid) for name, cfg, grid in sweep_set()}
    many = {}

    def repetitions(name, cfg):
        for i, (trace, summary) in enumerate(harness.run_many(cfg)):
            decisions, csv, text, *derived = run_digests(harness, trace, summary)
            many[f"{name}/rep{i}"] = [digest(decisions + csv + text), *derived]

    for name, cfg in many_set():
        repetitions(name, cfg)
    for name, cfg, grid in itertools.chain(lockstep_mild_set(), stale_set()):
        if grid is None:
            repetitions(name, cfg)
        else:
            sweeps[name] = sweep_digest(harness, cfg, grid)
    for name, cfg, grid in batched_sweep_set():
        with two_run_batches(harness, cfg):
            sweeps[name] = sweep_digest(harness, cfg, grid)
    clis = {}
    for name, cfg, flags in cli_set():
        with two_run_batches(harness, cfg):
            clis[name] = cli_digest(cfg, flags)
    json.dump({"runs": result, "reports": reports, "sweeps": sweeps, "many": many, "cli": clis},
              sys.stdout)


GOLDEN_MANY = ("many/dogd_dt/permuted/linear", "many/mild_dt/blocks/quadratic")


def golden_comparators():
    """One dogd run at T = 300, n = 3 for each comparator kind, on uniform delays."""
    for spec in ({"kind": "auto"}, {"kind": "targets"}, {"kind": "best_fixed"},
                 {"kind": "constant"}, {"kind": "constant", "point": [0.5, -2.0, 0.25]},
                 {"kind": "piecewise", "path_budget": 4}, {"kind": "list", "points": POINTS}):
        yield (f"comparators/{spec['kind']}{'/point' if 'point' in spec else ''}",
               {**BASE, "learner": {"name": "dogd"}, "comparators": spec})


def golden_runs():
    """(name, config) of each single run ``golden_digests()`` pins: at T = 300, each learner
    on each delay kind, three learners on the lowerbound instance, the ``linear_list`` run
    and dogd with each comparator kind (``golden_comparators``)."""
    for learner, (kind, spec) in itertools.product(LEARNERS, DELAYS.items()):
        yield (f"{learner}/{kind}",
               {"T": T, "n": 3, "D": 2.0, "G": 1.0, "seed": 0, "learner": {"name": learner},
                "delay": {"kind": kind, **spec},
                "environment": {"kind": "drift", "step": 0.02, "loss": "quadratic"}})
    runs = dict(comparison_set())
    for name in ("lowerbound/dogd/d8/n3", "lowerbound/mild/d1/n1", "lowerbound/mild_dt/d8/n3",
                 "linear_list"):
        yield name, runs[name]
    yield from golden_comparators()


def golden_digests() -> dict:
    """name -> sha256 of each output that ``tests/golden/digests.json`` pins, computed with
    the ``delayed_oco`` that imports: the benchmark's shapes at seed 0 (the drift sweep grid,
    the ``lowerbound_mild`` reports at d in {1, 64} and the files of its ``cli_run`` call);
    the single runs of ``golden_runs()``; and the ``GOLDEN_MANY`` configs of ``many_set()``
    in lockstep batches of two runs."""
    from delayed_oco import harness

    name, cfg, grid = next(sweep_set())  # the drift sweep at seed 0
    out = {name: sweep_digest(harness, cfg, grid)}
    for name, kw in report_set():
        if name.startswith("lowerbound_mild/mild/") and name.endswith("/s0"):
            out[name] = digest(harness.to_json(harness.lowerbound_report(**kw)))
    out["cli_run/s0"] = cli_digest(dict(comparison_set())["cli_run/s0"],
                                   ["--seed", "0", "--strict", "--format", "csv", "--out"])
    for name, cfg in golden_runs():
        out[name] = digest("".join(run_digests(harness, *harness.run_experiment(cfg))))
    for name, cfg in many_set():
        if name in GOLDEN_MANY:
            with two_run_batches(harness, cfg):
                out[f"{name}/batches-of-two"] = digest("".join(
                    "".join(run_digests(harness, *result)) for result in harness.run_many(cfg)))
    return out


def two_run_batches(harness, cfg: dict):
    """Physical memory read as twice the estimate of a lockstep batch of two runs of ``cfg``,
    so that its runs go in batches of two."""
    memory = 2 * harness._batch_bytes(harness.normalize_config(cfg), 2) + 1
    return mock.patch.object(harness, "_physical_memory", lambda: memory)


def cli_digest(cfg: dict, flags: list) -> str:
    """The digest of a ``delayed-oco run`` call: its exit code, its standard output and the
    name and text of each file it writes (a last bare ``--out`` gets a fresh directory)."""
    from delayed_oco import cli

    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        argv = ["run", "--config", config, *flags] + ([out] if flags[-1:] == ["--out"] else [])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        files = {}
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
            with open(os.path.join(out, name)) as fh:
                files[name] = fh.read()
    return hashlib.sha256(json.dumps([code, stdout.getvalue(), files]).encode()).hexdigest()


def main(parent: str, change: str) -> int:
    procs = [subprocess.Popen([sys.executable, __file__, "--worker"], stdout=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
             for src in (parent, change)]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        sys.exit("a worker failed")
    old, new = map(json.loads, outs)
    tables = [(what, "runs", {k: v[i] for k, v in old["runs"].items()},
               {k: v[i] for k, v in new["runs"].items()}) for i, what in enumerate(OUTPUTS)]
    tables.append(("lowerbound_report", "reports", old["reports"], new["reports"]))
    tables.append(("sweep.json", "sweeps", old["sweeps"], new["sweeps"]))
    tables.append(("delayed-oco run files and stdout", "calls", old["cli"], new["cli"]))
    tables += [(f"run_many {what}", "repetitions", {k: v[i] for k, v in old["many"].items()},
                {k: v[i] for k, v in new["many"].items()})
               for i, what in enumerate(("outputs", "c_log", "weight_sums"))]
    differ = False
    for what, unit, before, after in tables:
        diff = [name for name in before if before[name] != after[name]]
        print(f"{what}: {len(before) - len(diff)}/{len(before)} {unit} byte-identical")
        for name in diff[:5]:
            print(f"  differs: {name}")
        differ |= bool(diff)
    return int(differ)


def write_golden(src: str) -> None:
    """Write ``golden_digests()`` of the tree ``src`` to ``GOLDEN``."""
    sys.path.insert(0, os.path.abspath(src))
    GOLDEN.write_text(json.dumps(golden_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    elif len(sys.argv) == 3 and sys.argv[1] == "--write-golden":
        write_golden(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit(__doc__)
