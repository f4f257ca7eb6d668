"""Command line front end.

Exit codes: 0 success (test: null not rejected), 1 runtime failure,
2 usage error, and 3 when the test command rejects the null, so shell
pipelines can branch on the decision directly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .bootstrap import STATISTICS, VARIANCES, TestConfig, run_test
from .data import ColumnSchema, DataError, load_dataset
from .designs import (
    DESK_LEVEL_REPS,
    DESK_POWER_REPS,
    FIGURE_TAGS,
    TEMPLATES,
    figure_config,
)
from .kernels import PSI_FAMILIES, PsiSpec, default_bandwidths
from .selfcheck import run_all
from .simulation import FAMILIES, ExperimentConfig, grid_cells, run_experiment
from .statistics import DegenerateStatisticError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_REJECT = 3


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


def _split_cols(value: str) -> list[str]:
    return [c.strip() for c in value.split(",") if c.strip()]


def _load_config_args(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into equivalent flags, preserving precedence of
    anything given explicitly on the command line."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise DataError("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    injected: list[str] = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" in line:
                    key, value = line.split("=", 1)
                elif ":" in line:
                    key, value = line.split(":", 1)
                else:
                    raise DataError(f"config line not key=value: {line!r}")
                key, value = key.strip().lstrip("-"), value.strip()
                if value.lower() in ("true", "yes", "on"):
                    injected.append(f"--{key}")
                elif value.lower() in ("false", "no", "off"):
                    continue
                else:
                    injected.extend([f"--{key}", value])
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    # injected flags come first: explicit command-line flags win
    return rest[:1] + injected + rest[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npsigtest",
        description="Kernel significance test for covariates in nonparametric regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run the test on a CSV dataset")
    t.add_argument("--data", required=True, help="CSV file with a header row")
    t.add_argument("--y", required=True, help="response column")
    t.add_argument("--w", required=True, help="comma-separated null-covariate columns")
    t.add_argument("--x", required=True, help="comma-separated columns under test")
    t.add_argument("--disc", default="", help="comma-separated discrete columns")
    t.add_argument("--stat", default="itilde", choices=STATISTICS)
    t.add_argument("--psi", default="normal", choices=PSI_FAMILIES)
    t.add_argument("--variance", default="var_hat", choices=VARIANCES)
    t.add_argument("--c", type=float, default=2.0, help="test bandwidth factor")
    t.add_argument("--alpha", type=float, default=0.05)
    group = t.add_mutually_exclusive_group()
    group.add_argument("--boot", type=int, default=199, help="bootstrap replications")
    group.add_argument("--asymptotic", action="store_true", help="use the normal quantile")
    t.add_argument("--seed", type=int, default=None)
    fmt = t.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    s = sub.add_parser("simulate", help="run a Monte Carlo design, write a CSV table")
    s.add_argument("--figure", choices=list(FIGURE_TAGS), help="preset design tag")
    s.add_argument("--family", choices=FAMILIES, help="explicit grid: DGP family")
    s.add_argument("--alt", default="null", help="explicit grid: comma-separated alternatives")
    s.add_argument("--n", default="100", help="explicit grid: sample sizes")
    s.add_argument("--q", default="1", help="explicit grid: dimensions under test")
    s.add_argument("--deltas", default="0", help="explicit grid: departure sizes")
    s.add_argument("--cs", default="2", help="explicit grid: bandwidth factors")
    s.add_argument(
        "--tests",
        default="lmp",
        help="explicit grid: comma-separated test names "
        f"({', '.join(sorted(TEMPLATES))})",
    )
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--boot", type=int, default=199)
    s.add_argument("--alpha", type=float, default=0.10)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--paper-scale", action="store_true", help="full replication counts")
    s.add_argument("--threads", type=int, default=1, help="worker processes")

    c = sub.add_parser("selfcheck", help="oracle, invariance, and multiplier checks")
    c.add_argument("--fast", action="store_true", help="fewer seeds per check")
    return parser


def _render_test(result, args) -> str:
    record = result.to_record()
    if args.json:
        return json.dumps(record, indent=2)
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record.keys())
        writer.writerow(record.values())
        return buf.getvalue().rstrip("\n")
    var = record["variance_estimate"]
    lines = [
        f"statistic {record['statistic']} (psi={record['psi']}, variance={record['variance']})",
        f"  raw statistic     : {record['raw']:.6g}",
        f"  variance estimate : {var:.6g}" if var is not None else "  variance estimate : n/a",
        f"  standardized      : {record['standardized']:.6g}",
        f"  critical value    : {record['critical_value']:.6g} "
        f"({record['critical_method']}, alpha={record['alpha']:g})",
        f"  p-value (approx)  : {record['p_value']:.4g}",
        f"  decision          : {'REJECT the null' if record['reject'] else 'fail to reject'}",
        f"  bandwidths        : g={record['g']:.6g} h={record['h']:.6g} (c={record['c']:g})",
        f"  seed              : {record['seed']}",
    ]
    flags = {k[5:]: v for k, v in record.items() if k.startswith("diag_") and v}
    if flags:
        lines.append(f"  diagnostics       : {flags}")
    return "\n".join(lines)


def _cmd_test(args) -> int:
    w_cols, x_cols = _split_cols(args.w), _split_cols(args.x)
    disc = set(_split_cols(args.disc))
    overlap = set(w_cols) & set(x_cols) | ({args.y} & set(w_cols + x_cols))
    if overlap:
        print(f"error: columns used in more than one role: {sorted(overlap)}", file=sys.stderr)
        return EXIT_USAGE
    if not 0.0 < args.alpha < 1.0:
        print("error: alpha must be in (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    if args.c <= 0:
        print("error: bandwidth factor c must be positive", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else _fresh_seed()
    if args.seed is None:
        print(f"seed: {seed}", file=sys.stderr)
    schema = ColumnSchema(y=args.y, w=tuple(w_cols), x=tuple(x_cols), discrete=frozenset(disc))
    data = load_dataset(args.data, schema)
    cfg = TestConfig(
        bandwidths=default_bandwidths(data.n, args.c),
        statistic=args.stat,
        psi=PsiSpec(args.psi),
        variance=args.variance,
        critical="asymptotic" if args.asymptotic else "bootstrap",
        alpha=args.alpha,
        B=args.boot,
        seed=seed,
    )
    result = run_test(data, cfg)
    print(_render_test(result, args))
    return EXIT_REJECT if result.reject else EXIT_OK


def _explicit_grid_config(args, seed: int) -> ExperimentConfig:
    names = _split_cols(args.tests)
    unknown = [t for t in names if t not in TEMPLATES]
    if unknown:
        raise DataError(f"unknown test names {unknown}; known: {sorted(TEMPLATES)}")
    alternatives = tuple(_split_cols(args.alt))
    cells = grid_cells(
        args.family,
        alternatives,
        [int(v) for v in _split_cols(args.n)],
        [int(v) for v in _split_cols(args.q)],
        [float(v) for v in _split_cols(args.deltas)],
        [float(v) for v in _split_cols(args.cs)],
    )
    reps = args.reps
    if reps is None:
        reps = DESK_LEVEL_REPS if set(alternatives) == {"null"} else DESK_POWER_REPS
    return ExperimentConfig(
        cells=cells,
        tests=tuple(TEMPLATES[t] for t in names),
        replications=reps,
        master_seed=seed,
        alpha=args.alpha,
        B=args.boot,
        workers=args.threads,
    )


def _cmd_simulate(args) -> int:
    if args.reps is not None and args.reps < 1:
        print("error: --reps must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.figure is None and args.family is None:
        print(
            "error: either --figure (one of: " + ", ".join(FIGURE_TAGS) + ") "
            "or an explicit --family grid is required",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else _fresh_seed()
    if args.seed is None:
        print(f"seed: {seed}", file=sys.stderr)
    if args.figure is not None:
        cfg = figure_config(
            args.figure,
            master_seed=seed,
            replications=args.reps,
            B=args.boot,
            alpha=args.alpha,
            workers=args.threads,
            paper_scale=args.paper_scale,
        )
    else:
        cfg = _explicit_grid_config(args, seed)
    t0 = time.perf_counter()
    table = run_experiment(cfg, progress=lambda line: print(line, file=sys.stderr))
    table.save(args.out)
    print(
        f"wrote {len(table.rows)} rows to {args.out} "
        f"in {time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    if args.fast:
        ok = run_all(oracle_seeds=range(1, 4), deco_seeds=range(100, 103))
    else:
        ok = run_all()
    return EXIT_OK if ok else EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _load_config_args(argv)
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_selfcheck(args)
    except (DataError, DegenerateStatisticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
