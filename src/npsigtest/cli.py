"""Command line front end.

Exit codes: 0 success (test: null not rejected), 1 runtime failure,
2 usage error, and 3 when the test command rejects the null, so shell
pipelines can branch on the decision directly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

from .bootstrap import MAX_DRAWS, STATISTICS, VARIANCES, TestConfig, run_test
from .data import ColumnSchema, DataError, load_dataset
from .designs import FIGURE_TAGS, TEMPLATES, figure_design, replications
from .kernels import PSI_FAMILIES, Bandwidths, default_bandwidths
from .selfcheck import run_all
from .simulation import ALTERNATIVES, FAMILIES, ExperimentConfig, grid_cells, run_experiment
from .statistics import DegenerateStatisticError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_REJECT = 3


def _seed(args) -> int:
    """The --seed value, or fresh OS entropy that is logged to stderr."""
    if args.seed is not None:
        return args.seed
    seed = int.from_bytes(os.urandom(8), "big") >> 1
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _listed(kind=str, choices=(), allow_empty=False):
    """argparse type: a comma-separated list of ``kind`` values, each one of
    ``choices`` when those are given."""

    def parse(text: str) -> tuple:
        words = [v.strip() for v in text.split(",") if v.strip()]
        if not words and not allow_empty:
            raise argparse.ArgumentTypeError("expected at least one comma-separated value")
        unknown = [v for v in words if choices and v not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown {unknown}; known: {', '.join(choices)}")
        return tuple(kind(v) for v in words)

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


def _bounded(kind, low: float, high: float = math.inf):
    """argparse type: one ``kind`` value strictly between ``low`` and ``high``
    (NaN is refused)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low < value < high:
            span = f"> {low}" if high == math.inf else f"in ({low}, {high})"
            raise argparse.ArgumentTypeError(f"expected {kind.__name__} {span}, got {text!r}")
        return value

    return parse


# bootstrap draw indices b in range(B) must each fit in one 32-bit word
_BOOT = _bounded(int, 0, MAX_DRAWS + 1)

# an explicit grid's values for the grid flags it is not given; argparse
# leaves these flags None, so --figure can refuse any that was given
_GRID_DEFAULTS = {
    "alt": ("null",),
    "n": (100,),
    "q": (1,),
    "deltas": (0.0,),
    "cs": (2.0,),
    "tests": ("lmp",),
}


# Flags that exclude each other, by command: each pair is one mutually
# exclusive group of the parser. --figure also excludes every grid flag,
# which _cmd_simulate refuses with its own message. A flag read from
# --config gives way to an explicit flag that excludes it.
_EXCLUSIVE = {
    "test": (("boot", "asymptotic"), ("json", "csv")),
    "simulate": (("figure", "family"),),
}


def _exclusive_groups(parser: argparse.ArgumentParser, command: str, required=False) -> dict:
    """One mutually exclusive group of ``parser`` per pair of
    ``_EXCLUSIVE[command]``, looked up by either flag name."""
    groups = {}
    for names in _EXCLUSIVE[command]:
        group = parser.add_mutually_exclusive_group(required=required)
        groups.update(dict.fromkeys(names, group))
    return groups


def _load_config_args(argv: list[str]) -> list[str]:
    """Expand `--config FILE` (or `--config=FILE`) into equivalent flags. A
    flag given on the command line wins: the config's value of that flag, and
    of any flag it excludes, is dropped."""
    flags = [a.split("=", 1)[0] for a in argv]
    if "--config" not in flags:
        return argv
    i = flags.index("--config")
    if argv[i] != "--config":
        path, rest = argv[i].split("=", 1)[1], argv[:i] + argv[i + 1 :]
    elif i + 1 < len(argv):
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        raise DataError("--config requires a file path")
    command = rest[0] if rest else ""
    given = {a[2:].split("=", 1)[0] for a in rest[1:] if a.startswith("--")}
    pairs = _EXCLUSIVE.get(command, ())
    if command == "simulate":
        pairs += tuple(("figure", k) for k in _GRID_DEFAULTS)
    blocked = given.union(*(pair for pair in pairs if given & set(pair)))
    injected: list[str] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
                if key in blocked:
                    continue
                if value.lower() in ("true", "yes", "on"):
                    injected.append(f"--{key}")
                elif value.lower() in ("false", "no", "off"):
                    continue
                else:
                    injected.extend([f"--{key}", value])
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return rest[:1] + injected + rest[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npsigtest",
        description="Kernel significance test for covariates in nonparametric regression",
        allow_abbrev=False,  # a config flag gives way only to the same flag spelled in full
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser(
        "test",
        help="run the test on a CSV dataset",
        description="Column lists are comma-separated.",
        allow_abbrev=False,
    )
    t.add_argument("--data", required=True, help="CSV file with a header row")
    t.add_argument("--y", required=True, help="response column")
    t.add_argument("--w", type=_listed(), required=True, help="null-covariate columns")
    t.add_argument("--x", type=_listed(), required=True, help="columns under test")
    t.add_argument("--disc", type=_listed(allow_empty=True), default="", help="discrete columns")
    t.add_argument("--stat", default="itilde", choices=STATISTICS)
    t.add_argument(
        "--psi",
        default="normal",
        choices=PSI_FAMILIES,
        help="pair weight of itilde and ihat (lv and dgm ignore it)",
    )
    t.add_argument("--variance", default="var_hat", choices=VARIANCES)
    t.add_argument("--c", type=_bounded(float, 0), default=2.0, help="test bandwidth factor")
    t.add_argument("--alpha", type=_bounded(float, 0, 1), default=0.05)
    group = _exclusive_groups(t, "test")
    group["boot"].add_argument("--boot", type=_BOOT, default=199, help="bootstrap replications")
    group["asymptotic"].add_argument(
        "--asymptotic", action="store_true", help="use the normal quantile"
    )
    t.add_argument("--seed", type=int, default=None)
    group["json"].add_argument("--json", action="store_true")
    group["csv"].add_argument("--csv", action="store_true")

    s = sub.add_parser(
        "simulate", help="run a Monte Carlo design, write a CSV table", allow_abbrev=False
    )
    group = _exclusive_groups(s, "simulate", required=True)
    group["figure"].add_argument("--figure", choices=FIGURE_TAGS, help="preset design tag")
    group["family"].add_argument("--family", choices=FAMILIES, help="explicit grid: DGP family")
    grid = s.add_argument_group(
        "explicit grid", "comma-separated lists that span the cells (not with --figure)"
    )
    for name, kind, text in (
        ("alt", _listed(choices=ALTERNATIVES), "alternatives"),
        ("n", _listed(int), "sample sizes"),
        ("q", _listed(int), "dimensions under test"),
        ("deltas", _listed(float), "departure sizes"),
        ("cs", _listed(_bounded(float, 0)), "bandwidth factors"),
        ("tests", _listed(choices=TEMPLATES), f"test names ({', '.join(TEMPLATES)})"),
    ):
        default = ",".join(map(str, _GRID_DEFAULTS[name]))
        grid.add_argument(f"--{name}", type=kind, help=f"{text}; default {default}")
    s.add_argument("--reps", type=_bounded(int, 0), default=None)
    s.add_argument("--boot", type=_BOOT, default=199, help="bootstrap replications")
    s.add_argument("--alpha", type=_bounded(float, 0, 1), default=0.10)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True, help="output CSV path")
    s.add_argument("--paper-scale", action="store_true", help="full replication counts")
    s.add_argument("--threads", type=_bounded(int, 0), default=1, help="worker processes")

    c = sub.add_parser(
        "selfcheck", help="oracle, invariance, and multiplier checks", allow_abbrev=False
    )
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
    used = [f"{k}={record[k]}" for k in ("psi", "variance") if record[k] is not None]
    lines = [
        f"statistic {record['statistic']}" + (f" ({', '.join(used)})" if used else ""),
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
    try:
        schema = ColumnSchema(y=args.y, w=args.w, x=args.x, discrete=frozenset(args.disc))
    except DataError as exc:  # argparse has checked each flag alone, not their columns
        print(f"error: --y/--w/--x/--disc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:  # checked before the data are read; the bandwidths follow from n
        cfg = TestConfig(
            bandwidths=Bandwidths(g=1.0, h=1.0),
            statistic=args.stat,
            psi=args.psi,
            variance=args.variance,
            critical="asymptotic" if args.asymptotic else "bootstrap",
            alpha=args.alpha,
            B=args.boot,
        )
    except ValueError as exc:  # argparse has checked each flag alone, not their combinations
        print(f"error: --stat/--asymptotic: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = _seed(args)
    data = load_dataset(args.data, schema)
    cfg = dataclasses.replace(cfg, bandwidths=default_bandwidths(data.n, args.c), seed=seed)
    result = run_test(data, cfg)
    print(_render_test(result, args))
    return EXIT_REJECT if result.reject else EXIT_OK


def _cmd_simulate(args) -> int:
    given = {k: v for k in _GRID_DEFAULTS if (v := getattr(args, k)) is not None}
    if args.figure is not None and given:
        flags = ", ".join(f"--{k}" for k in given)
        print(f"error: --figure takes no explicit-grid flags; got {flags}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.figure is not None:
            cells, tests = figure_design(args.figure)
        else:
            grid = {**_GRID_DEFAULTS, **given}
            cells = grid_cells(
                args.family, grid["alt"], grid["n"], grid["q"], grid["deltas"], grid["cs"]
            )
            tests = tuple(TEMPLATES[t] for t in grid["tests"])
        cfg = ExperimentConfig(
            cells=cells,
            tests=tests,
            replications=args.reps or replications(cells, args.paper_scale),
            master_seed=_seed(args),
            alpha=args.alpha,
            B=args.boot,
            workers=args.threads,
        )
    except ValueError as exc:  # argparse has checked each flag alone, not their combinations
        print(f"error: --family/--alt/--n/--q/--tests: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        open(args.out, "a").close()  # fail now, not after the last replication
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_RUNTIME
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
