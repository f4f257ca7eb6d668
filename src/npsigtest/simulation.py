"""Data-generating processes and the Monte Carlo experiment runner.

Both designs share the regression backbone (w'theta)^3 - w'theta + noise with
sd-2 Gaussian errors and a two-dimensional standard normal w. The departure
from the null is delta times a shape function: of x (continuous design) or of
w gated by the event x = 1 (Bernoulli-x design). Draw order is fixed as
(w, x, noise) so datasets with delta = 0 are identical across alternative
tags under the same seed.

Replication r of grid cell ci derives every random stream from
(master_seed, ci, r): ``substream`` gives its data generator and
``_subseed`` the bootstrap seed of each of its tests. This makes experiment
output independent of worker count and scheduling.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import TestConfig, decide_scaled
from .data import ColumnKind, Dataset, all_continuous, standardize
from .kernels import default_bandwidths
from .smoother import MAX_OBSERVATIONS, MIN_OBSERVATIONS, compute_smoother
from .statistics import (
    ITILDE_MIN_N,
    DegenerateStatisticError,
    check_bandwidth,
    fisher_min_n,
    fisher_test,
    rate_dimension,
)

THETA = np.array([1.0, -1.0]) / math.sqrt(2.0)  # w has len(THETA) columns
NOISE_SD = 2.0
BERNOULLI_P = 0.6

FAMILIES = ("continuous", "discrete_x")
ALTERNATIVES = ("null", "quadratic", "linear", "sine")


@dataclass(frozen=True)
class DgpSpec:
    family: str
    n: int
    q: int = 1
    alternative: str = "null"
    delta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown DGP family {self.family!r}")
        if self.alternative not in ALTERNATIVES:
            raise ValueError(f"unknown alternative {self.alternative!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.alternative == "null" and self.delta != 0.0:
            raise ValueError("the null DGP requires delta = 0")
        if self.family == "continuous" and self.q < 1:
            raise ValueError("continuous design needs q >= 1")
        if self.family == "discrete_x" and self.q != 1:
            raise ValueError(f"the Bernoulli-x design has one x column (q = 1); got q = {self.q}")
        if self.family == "discrete_x" and self.alternative == "linear":
            raise ValueError("the Bernoulli-x design has no linear alternative")


def _shape_of_index(alternative: str, index: np.ndarray) -> np.ndarray:
    if alternative == "quadratic":
        return (index - 1.0) ** 2 / math.sqrt(2.0)
    if alternative == "linear":
        return index
    if alternative == "sine":
        return np.sin(2.0 * index)
    return np.zeros_like(index)


def generate(spec: DgpSpec, rng: np.random.Generator) -> Dataset:
    """A sample of the design, as the module docstring describes."""
    n = spec.n
    w = rng.standard_normal((n, len(THETA)))
    widx = w @ THETA
    if spec.family == "continuous":
        x = rng.standard_normal((n, spec.q))
        x_kinds = all_continuous(spec.q)
        beta = np.ones(spec.q) / math.sqrt(spec.q)
        departure = spec.delta * _shape_of_index(spec.alternative, x @ beta)
    else:
        x = (rng.random(n) < BERNOULLI_P).astype(float).reshape(-1, 1)
        x_kinds = (ColumnKind.DISCRETE,)
        departure = spec.delta * _shape_of_index(spec.alternative, widx) * x[:, 0]
    eps = NOISE_SD * rng.standard_normal(n)
    y = widx**3 - widx + departure + eps
    return Dataset(y=y, w=w, x=x, w_kinds=all_continuous(len(THETA)), x_kinds=x_kinds)


@dataclass(frozen=True)
class TestTemplate:
    """Named test configuration to instantiate at each grid cell."""

    __test__ = False  # not a pytest class
    name: str
    statistic: str = "itilde"  # itilde | ihat | lv | dgm | fisher
    psi: str = "normal"
    critical: str = "bootstrap"


@dataclass(frozen=True)
class Cell:
    dgp: DgpSpec
    c: float


def _n_range(t: TestTemplate, dgp: DgpSpec) -> tuple[int, float]:
    """Fewest and most observations test t runs on in the design: the floors
    that the smoother and the test's statistic enforce, and the smoother's
    ceiling, which the F-test, smoothing nothing, does not have."""
    if t.statistic == "fisher":
        return fisher_min_n(len(THETA), dgp.q), math.inf
    if t.statistic in ("itilde", "lv"):
        return max(MIN_OBSERVATIONS, ITILDE_MIN_N), MAX_OBSERVATIONS
    return MIN_OBSERVATIONS, MAX_OBSERVATIONS


def _cell_configs(cell: Cell, tests, alpha: float, B: int) -> tuple[TestConfig | None, ...]:
    """Each test's configuration at the cell, with seed 0, or None for the
    F-test, which reads only alpha; ``TestConfig``, ``default_bandwidths``
    and ``check_bandwidth`` refuse a bad test here, before any replication
    runs."""
    bw = default_bandwidths(cell.dgp.n, cell.c)
    configs = []
    for t in tests:
        if t.statistic == "fisher":
            configs.append(None)
            continue
        try:
            cfg = TestConfig(bw, t.statistic, t.psi, critical=t.critical, alpha=alpha, B=B)
            configs.append(cfg)
            if cfg.weight is not None:  # dgm weighs no pairs
                check_bandwidth(bw.h, rate_dimension(len(THETA), cell.dgp.q, cfg.weight))
        except ValueError as exc:
            raise ValueError(f"test {t.name}: {exc}") from None
    return tuple(configs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A Monte Carlo design: every test at every cell, ``replications``
    times. ``configs`` holds each cell's ``_cell_configs``, built and
    checked here."""

    cells: tuple[Cell, ...]
    tests: tuple[TestTemplate, ...]
    replications: int
    master_seed: int
    alpha: float = 0.05
    B: int = 199
    workers: int = 1
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        lv = [t.name for t in self.tests if t.statistic == "lv"]
        if lv and any(cell.dgp.family == "discrete_x" for cell in self.cells):
            raise ValueError(
                f"test {', '.join(lv)} needs a continuous X, "
                "and the discrete_x family's X is discrete"
            )
        for cell in self.cells:
            n = cell.dgp.n
            for t in self.tests:
                floor, ceiling = _n_range(t, cell.dgp)
                if not floor <= n <= ceiling:
                    bound = f">= {floor}" if n < floor else f"<= {ceiling}"
                    raise ValueError(f"test {t.name} needs n {bound}, got n = {n}")
        configs = tuple(_cell_configs(cell, self.tests, self.alpha, self.B) for cell in self.cells)
        object.__setattr__(self, "configs", configs)


def grid_cells(
    family: str,
    alternatives,
    n_grid,
    q_grid,
    delta_grid,
    c_grid,
) -> tuple[Cell, ...]:
    """Cartesian grid in a fixed deterministic order."""
    cells = []
    for alt in alternatives:
        deltas = [0.0] if alt == "null" else delta_grid
        for n, q, delta, c in itertools.product(n_grid, q_grid, deltas, c_grid):
            dgp = DgpSpec(family=family, n=int(n), q=int(q), alternative=alt, delta=float(delta))
            cells.append(Cell(dgp=dgp, c=float(c)))
    return tuple(cells)


@dataclass(frozen=True)
class ResultRow:
    test: str
    n: int
    q: int
    c: float
    delta: float
    alternative: str
    alpha: float
    reps: int
    reject_rate: float
    mc_se: float
    failures: int

    @property
    def invalid(self) -> bool:
        return self.failures > 0.05 * self.reps


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]

    CSV_HEADER = (
        "test,n,q,c,delta,alternative,alpha,reps,reject_rate,mc_se,failures"
    )

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER.split(","))
        for r in self.rows:
            writer.writerow(
                [
                    r.test,
                    r.n,
                    r.q,
                    f"{r.c:g}",
                    f"{r.delta:g}",
                    r.alternative,
                    f"{r.alpha:g}",
                    r.reps,
                    f"{r.reject_rate:.6f}",
                    f"{r.mc_se:.6f}",
                    r.failures,
                ]
            )
        return buf.getvalue()

    def save(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_string())

    def rate_of(self, test: str, **match) -> ResultRow:
        """The unique row for a test name and cell coordinates."""
        hits = [
            r
            for r in self.rows
            if r.test == test
            and all(getattr(r, k) == v for k, v in match.items())
        ]
        if len(hits) != 1:
            raise KeyError(f"expected one row for {test} {match}, got {len(hits)}")
        return hits[0]


# outcome codes returned by a replication, per test
_ACCEPT, _REJECT, _FAIL = 0, 1, 2


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for a derived, order-independent substream."""
    entropy = [seed % (1 << 64), *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _subseed(master_seed: int, *path: int) -> int:
    seq = np.random.SeedSequence([master_seed % (1 << 64), *path])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_replication(args) -> list[int]:
    """One dataset, every test of the cell, given the cell's configurations
    (``_cell_configs``). Returns an outcome code per test."""
    dgp, configs, alpha, master_seed, ci, r = args
    sd = standardize(generate(dgp, substream(master_seed, ci, r, 0)))
    sm = None
    outcomes = []
    for ti, cfg in enumerate(configs):
        try:
            if cfg is None:
                _, reject = fisher_test(sd, alpha)
            else:
                if sm is None:
                    sm = compute_smoother(sd, cfg.bandwidths.g)
                cfg = dataclasses.replace(cfg, seed=_subseed(master_seed, ci, r, 1 + ti))
                reject = decide_scaled(sd, sm, cfg).reject
            outcomes.append(_REJECT if reject else _ACCEPT)
        except DegenerateStatisticError:
            outcomes.append(_FAIL)
    return outcomes


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Process pool whose workers each run one BLAS thread.

    Workers are spawned rather than forked, so each loads its BLAS library
    afresh under the thread-count variables set here instead of inheriting
    the parent's thread pool; the parent's environment is restored on exit.
    ``multiprocessing`` and ``concurrent.futures`` are imported here, so a
    process that starts no pool does not pay for their import.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            yield pool
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_experiment(cfg: ExperimentConfig, progress=None) -> ResultTable:
    """Rejection-rate table over the grid; deterministic for a fixed seed.

    ``progress`` is an optional callable taking a status line. When
    cfg.workers > 1, replications run in one pool of spawned worker
    processes with one BLAS thread each, so a script calling this must
    guard its entry point with ``if __name__ == "__main__":``.
    """
    if cfg.workers == 1:
        return _tabulate(cfg, map, progress)
    chunk = max(1, cfg.replications // (cfg.workers * 4))
    with _worker_pool(cfg.workers) as pool:
        return _tabulate(cfg, functools.partial(pool.map, chunksize=chunk), progress)


def _tabulate(cfg: ExperimentConfig, mapper, progress) -> ResultTable:
    """The grid's rows, with ``mapper`` running the replications of a cell."""
    rows = []
    for ci, (cell, configs) in enumerate(zip(cfg.cells, cfg.configs)):
        t0 = time.perf_counter()
        tasks = [
            (cell.dgp, configs, cfg.alpha, cfg.master_seed, ci, r)
            for r in range(cfg.replications)
        ]
        outcomes = list(mapper(_run_replication, tasks))
        per_test = np.array(outcomes)  # (reps, n_tests)
        for ti, t in enumerate(cfg.tests):
            col = per_test[:, ti]
            failures = int(np.sum(col == _FAIL))
            successes = cfg.replications - failures
            rejects = int(np.sum(col == _REJECT))
            rate = rejects / successes if successes else math.nan
            se = math.sqrt(rate * (1.0 - rate) / successes) if successes else math.nan
            row = ResultRow(
                test=t.name,
                n=cell.dgp.n,
                q=cell.dgp.q,
                c=cell.c,
                delta=cell.dgp.delta,
                alternative=cell.dgp.alternative,
                alpha=cfg.alpha,
                reps=cfg.replications,
                reject_rate=rate,
                mc_se=se,
                failures=failures,
            )
            rows.append(row)
            if progress is not None and row.invalid:
                progress(f"warning: cell {ci} test {t.name}: {failures} failures")
        if progress is not None:
            progress(
                f"cell {ci + 1}/{len(cfg.cells)} "
                f"[{cell.dgp.family} {cell.dgp.alternative} n={cell.dgp.n} "
                f"q={cell.dgp.q} c={cell.c:g} delta={cell.dgp.delta:g}] "
                f"done in {time.perf_counter() - t0:.1f}s"
            )
    return ResultTable(rows=tuple(rows))
