"""Command-line experiment runner.

Subcommands: run, sweep, lowerbound, verify.
Exit codes: 0 success, 2 config error, 3 strict-mode bound violation,
4 invariant failure, 141 standard output closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import sys

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUND = 3
EXIT_INVARIANT = 4
EXIT_PIPE = 141  # what a shell reports for a writer cut off by a closed pipe


def _load_config(path: str | None) -> dict:
    if path is None:
        raise harness.ConfigError("--config PATH is required for this subcommand")
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deep to parse
        raise harness.ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise harness.ConfigError(f"config {path} must hold a JSON object")
    return config


def _emit(text, out_dir: str | None, filename: str) -> None:
    """Write a string or strings to stdout, or to out_dir/filename: complete or not at all.
    A failure removes the directories this call made that are still empty."""
    pieces = [text] if isinstance(text, str) else text
    if out_dir is None:
        sys.stdout.writelines(pieces)
        return
    path = pathlib.Path(out_dir)
    made = [p for p in (path, *path.parents) if not p.exists()]  # innermost first
    path.mkdir(parents=True, exist_ok=True)
    part = path / f"{filename}.part"
    try:
        with open(part, "w") as fh:
            fh.writelines(pieces)
    except BaseException:
        part.unlink(missing_ok=True)
        for p in made:
            if any(p.iterdir()):  # a file written while the pieces were made
                break
            p.rmdir()
        raise
    part.replace(path / filename)


def _nested(value, indent: str) -> str:
    """``harness.to_json(value)`` less its newline, its lines indented as a value inside an
    indented document (``json.dumps`` indents each level alike)."""
    return harness.to_json(value)[:-1].replace("\n", "\n" + indent)


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join("" if row.get(c) is None else str(row.get(c))
                              for c in columns))
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    results = harness.run_many(config)  # checks the config; the runs start as they are read
    name = "trace.csv" if config.get("repetitions", 1) == 1 else "trace_rep{:03d}.csv"
    # a directory sink always gets both renderings; stdout gets the requested one
    formats = ("csv", "json") if args.out is not None else (args.format,)
    violations = []

    def summary_json():  # empty without "json"; each trace is written as its run arrives
        for i, (trace, summary) in enumerate(results):
            if "csv" in formats:
                _emit(harness.trace_to_csv(trace), args.out, name.format(i))
            if not violations and summary.get("bound_check") and not summary["bound_check"]["ok"]:
                violations.append(summary)
            if "json" in formats:  # the text of to_json({"runs": ...})
                yield (",\n    " if i else '{\n  "runs": [\n    ') + _nested(summary, "    ")
        yield "\n  ]\n}\n" if "json" in formats else ""

    _emit(summary_json(), args.out, "summary.json")
    if args.strict and violations:
        s = violations[0]
        print(f"strict: measured regret {s['regret_dynamic']:.6g} exceeds "
              f"{s['bound_check']['bound']} (seed {s['seed']})", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    grid = config.pop("sweep", None)
    if not grid:
        raise harness.ConfigError('sweep needs a "sweep" grid object in the config')
    rows = harness.sweep(config, grid)
    violations = [r for r in rows if r.get("bound_check") and not r["bound_check"]["ok"]]
    if args.format == "csv":
        flat = []
        columns: list[str] = []
        for row in rows:
            r = {f"cell_{k}": v for k, v in row["cell"].items()}
            r.update({k: v for k, v in row.items()
                      if k not in ("cell", "bound_check", "epoch_starts", "expert_rates")})
            flat.append(r)
            columns += [c for c in r if c not in columns]
        _emit(_rows_to_csv(flat, columns), args.out, "sweep.csv")
    else:
        _emit(_sweep_json(grid, rows), args.out, "sweep.json")
    if args.strict and violations:
        print(f"strict: bound violated in cell {violations[0]['cell']}", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _sweep_json(grid: dict, rows: list[dict]):
    """sweep.json a row at a time: the text of ``harness.to_json({"grid": grid, "rows": rows})``,
    without the whole document's text and chunks at once."""
    yield '{\n  "grid": ' + _nested(grid, "  ") + ',\n  "rows": ['
    for i, row in enumerate(rows):
        yield (",\n    " if i else "\n    ") + _nested(row, "    ")
    yield "\n  ]\n}\n" if rows else "]\n}\n"


def _trials_csv(per_trial: list[float]):
    """lowerbound.csv a line at a time, straight from the per-trial regrets: the text
    ``_rows_to_csv`` gives for one {"trial", "static_regret"} row per trial."""
    yield "trial,static_regret\n"
    for i, r in enumerate(per_trial):
        yield f"{i},{r}\n"


def _cmd_lowerbound(args) -> int:
    config = harness.normalize_config(_load_config(args.config))
    if config["environment"].get("kind") != "lowerbound":
        raise harness.ConfigError('lowerbound needs environment {"kind": "lowerbound"}')
    report = harness.lowerbound_report(
        T=config["T"], d=config["delay"]["d"], D=config["D"], G=config["G"],
        n=config["n"], learner_spec=config["learner"],
        trials=args.trials, base_seed=args.seed if args.seed is not None else config["seed"])
    if args.format == "csv":
        _emit(_trials_csv(report["per_trial"]), args.out, "lowerbound.csv")
    else:
        _emit(harness.to_json(report), args.out, "lowerbound.json")
    status = {True: "PASS", False: "FAIL", None: "n/a (single trial)"}[report["pass"]]
    print(f"mean static regret {report['mean_static_regret']:.4f} vs "
          f"bound {report['bound_lemma3']:.4f}: {status}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise harness.ConfigError(f"seed must be >= 0, got {seed}")
    from . import invariants  # only verify reads it: the other commands skip compiling it

    checks = invariants.verify_all(seed=seed)
    if args.format == "json":
        _emit(harness.to_json({"checks": checks}), args.out, "verify.json")
    # with the JSON document on standard output, the status lines go to standard error
    lines = sys.stderr if args.format == "json" and args.out is None else sys.stdout
    for check in checks:
        status = "ok" if check["ok"] else "FAIL"
        line = f"[{status}] {check['name']}"
        if check["detail"] and not check["ok"]:
            line += f": {check['detail']}"
        print(line, file=lines)
    failed = [c for c in checks if not c["ok"]]
    if failed:
        print(f"{len(failed)} invariant(s) failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayed-oco",
        description="Run online-learning experiments under delayed gradient feedback.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", _cmd_run), ("sweep", _cmd_sweep),
                     ("lowerbound", _cmd_lowerbound), ("verify", _cmd_verify)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        if name == "lowerbound":
            p.add_argument("--trials", type=int, default=200,
                           help="independent adversarial draws")
        if name in ("run", "sweep"):
            p.add_argument("--strict", action="store_true",
                           help="fail (exit 3) if a measured regret exceeds its bound")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.set_defaults(fn=fn)
    return parser


_parser = functools.cache(build_parser)  # one per process: building costs more than parsing


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.out is not None:  # refused before the work, not at the first file written
            out = pathlib.Path(args.out)
            existing = next(p for p in (out, *out.parents) if p.exists())
            if not existing.is_dir():
                raise harness.ConfigError(f"--out {out}: {existing} is a file, not a directory")
        code = args.fn(args)
        sys.stdout.flush()  # here, so a reader gone before the flush at exit is caught too
        return code
    except BrokenPipeError:
        # the reader closed standard output (as `| head` does): point it at devnull, so
        # the flush at exit has nowhere to fail (the note on SIGPIPE in `signal`'s docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except harness.SweepError as exc:
        print(f"sweep error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
