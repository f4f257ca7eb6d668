"""Wild-bootstrap critical values and the end-to-end test procedure.

Resampled responses are built as rhat_i + eta_i * (y_i - rhat_i) with i.i.d.
multipliers eta of mean zero and second and third moments one, so the null
regression is imposed while conditional heteroskedasticity is preserved.
Each bootstrap replication b draws its multipliers from an RNG stream derived
from (seed, b); results are therefore bit-for-bit reproducible regardless of
execution order or worker count. The draws are evaluated together, one block
of ``DRAW_BLOCK`` resampled responses at a time, through the same statistic
bodies as the observed response, over the pair weights it already built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .data import Dataset, ScaledDataset, standardize
from .kernels import Bandwidths, PsiSpec
from .smoother import SmootherOutput, compute_smoother, recompute_uf
from .statistics import (
    CvmEngine,
    DegenerateStatisticError,
    StatEngine,
    StatisticValue,
    studentize,
)

SQRT5 = math.sqrt(5.0)
MAMMEN_LOW = (1.0 - SQRT5) / 2.0
MAMMEN_HIGH = (1.0 + SQRT5) / 2.0
MAMMEN_P_LOW = (5.0 + SQRT5) / 10.0

STATISTICS = ("itilde", "ihat", "lv", "dgm")
VARIANCES = ("var_hat", "var_tilde")
CRITICALS = ("asymptotic", "bootstrap")

# fraction of degenerate bootstrap draws above which the test is abandoned
MAX_DEGENERATE_DRAW_FRACTION = 0.10

# bootstrap draws evaluated together; bounds the work arrays at DRAW_BLOCK x n
# (at n = 100 a block of 256 draws raised the peak memory of a Monte Carlo
# replication by about 2%, one of 64 by about 1%, at about the same speed)
DRAW_BLOCK = 64


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class
    bandwidths: Bandwidths
    statistic: str = "itilde"
    psi: PsiSpec = field(default_factory=PsiSpec)
    variance: str = "var_hat"
    critical: str = "bootstrap"
    alpha: float = 0.05
    B: int = 199
    seed: int = 0

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.variance not in VARIANCES:
            raise ValueError(f"unknown variance estimator {self.variance!r}")
        if self.critical not in CRITICALS:
            raise ValueError(f"unknown critical-value method {self.critical!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.statistic == "dgm" and self.critical != "bootstrap":
            raise ValueError(
                "the dgm statistic has a non-pivotal null law; use bootstrap "
                "critical values"
            )
        if self.critical == "bootstrap" and self.B < 1:
            raise ValueError("bootstrap size B must be >= 1")


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class
    statistic_value: StatisticValue
    critical_value: float
    reject: bool
    p_value: float
    config: TestConfig
    diagnostics: dict
    bootstrap_draws: np.ndarray | None = None

    def to_record(self) -> dict:
        """Flat key-value view for CSV/JSON serialization.

        The variance slot is None for statistics that are not studentized
        (dgm), keeping the JSON strictly parseable.
        """
        sv = self.statistic_value
        return {
            "schema_version": 1,
            "statistic": self.config.statistic,
            "psi": self.config.psi.family,
            "variance": self.config.variance,
            "critical_method": self.config.critical,
            "n": sv.n,
            "raw": sv.raw,
            "variance_estimate": None if math.isnan(sv.variance) else sv.variance,
            "standardized": sv.standardized,
            "critical_value": self.critical_value,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.config.alpha,
            "B": self.config.B if self.config.critical == "bootstrap" else 0,
            "g": self.config.bandwidths.g,
            "h": self.config.bandwidths.h,
            "c": self.config.bandwidths.c,
            "seed": self.config.seed,
            **{f"diag_{k}": v for k, v in sorted(self.diagnostics.items())},
        }


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for a derived, order-independent substream."""
    entropy = [seed % (1 << 64), *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def draw_multipliers(n: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Mammen two-point multipliers with mean 0 and second and third
    moments 1."""
    if n < 1:
        raise ValueError("need at least one multiplier")
    u = rng.random(n)
    return np.where(u < MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)


def null_resample(sm: SmootherOutput, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Null-imposing resample rhat + eta * (y - rhat); isolated observations
    keep their original response. ``eta`` may hold one draw per row.

    Where fhat_i = 0 the kernel row L_i. vanishes identically, so Y*_i is
    multiplied by zero in every pairwise statistic; carrying y_i through is
    exactly equivalent to any other finite choice and keeps the resample
    NaN-free.
    """
    with np.errstate(invalid="ignore"):
        star = sm.rhat + eta * sm.resid
    return np.where(sm.fhat > 0.0, star, y)


def _quantile_rank(alpha: float, b: int) -> int:
    """Order-statistic rank for the upper-alpha bootstrap critical value."""
    return min(max(int(math.ceil((1.0 - alpha) * (b + 1))), 1), b)


class _Runner:
    """Statistic evaluation bound to one dataset's cached pair weights."""

    def __init__(self, d: ScaledDataset, sm: SmootherOutput, cfg: TestConfig):
        self.cfg = cfg
        self.sm = sm
        self.n = d.n
        self.y = d.dataset.y
        if cfg.statistic == "dgm":
            self.engine = None
            self.cvm = CvmEngine(d)
        else:
            mode = "joint" if cfg.statistic == "lv" else "psi"
            self.engine = StatEngine(d, sm, cfg.bandwidths.h, cfg.psi, mode=mode)
            self.cvm = None

    def evaluate(self, y: np.ndarray, uf: np.ndarray):
        """(raw statistic, variance estimate, standardized statistic,
        used-variance-fallback) of a response vector, or of each row of a
        block of responses, given its leave-one-out residuals uf. A
        degenerate statistic standardizes to NaN; dgm is not studentized, so
        its variance is NaN and its standardized value is the raw one."""
        cfg = self.cfg
        if cfg.statistic == "dgm":
            raw = self.cvm.statistic(uf)
            return raw, np.full(np.shape(raw), math.nan), raw, np.zeros(np.shape(raw), dtype=bool)
        eng = self.engine
        raw = eng.ihat(uf) if cfg.statistic == "ihat" else eng.itilde(y)
        omega2 = eng.var_hat(uf) if cfg.variance == "var_hat" else eng.var_tilde(y)
        fallback = (cfg.variance == "var_tilde") & (omega2 <= 0.0)
        if fallback.any():
            omega2 = np.where(fallback, eng.var_hat(uf), omega2)
        t = studentize(raw, omega2, self.n, cfg.bandwidths.h, eng.rate_dim)
        return raw, omega2, t, fallback


def _draw_statistics(runner: _Runner, cfg: TestConfig) -> tuple[np.ndarray, np.ndarray]:
    """Standardized statistic of every multiplier draw (NaN if degenerate)
    and whether it used the variance fallback, ``DRAW_BLOCK`` draws at a
    time."""
    sm = runner.sm
    blocks = []
    for start in range(0, cfg.B, DRAW_BLOCK):
        stop = min(start + DRAW_BLOCK, cfg.B)
        eta = [draw_multipliers(runner.n, substream(cfg.seed, b)) for b in range(start, stop)]
        y = null_resample(sm, runner.y, np.stack(eta))
        blocks.append(runner.evaluate(y, recompute_uf(sm.pairwise, y))[2:])
    t, fallback = zip(*blocks)
    return np.concatenate(t), np.concatenate(fallback)


def _bootstrap_draws(runner: _Runner, cfg: TestConfig) -> tuple[np.ndarray, dict]:
    """Standardized bootstrap statistics of the nondegenerate draws."""
    t, fallback = _draw_statistics(runner, cfg)
    degenerate = np.isnan(t)
    n_degenerate = int(degenerate.sum())
    if n_degenerate > MAX_DEGENERATE_DRAW_FRACTION * cfg.B:
        raise DegenerateStatisticError(
            f"{n_degenerate} of {cfg.B} bootstrap draws had degenerate "
            "variance; the test is unreliable at this bandwidth",
            cause="draws",
        )
    diag = {"degenerate_draws": n_degenerate, "fallback_draws": int(fallback.sum())}
    return t[~degenerate], diag


def run_test(d: Dataset, cfg: TestConfig) -> TestResult:
    """Standardize, smooth, compute the configured statistic, and decide."""
    sd = standardize(d)
    sm = compute_smoother(sd, cfg.bandwidths.g)
    return decide_scaled(sd, sm, cfg)


def decide_scaled(sd: ScaledDataset, sm: SmootherOutput, cfg: TestConfig) -> TestResult:
    """Decision step on an already standardized and smoothed sample, so a
    Monte Carlo replication can share one smoother across several tests."""
    runner = _Runner(sd, sm, cfg)
    raw, omega2, t, fallback = runner.evaluate(sd.dataset.y, sm.uf)
    sv = StatisticValue(
        raw=float(raw),
        variance=float(omega2),
        standardized=float(t),
        n=sd.n,
        degenerate=bool(np.isnan(t)),
    )
    diagnostics = {
        "fallback_used": bool(fallback),
        "fhat_zeros": int(np.sum(sm.fhat <= 0.0)),
        "degenerate_variance": sv.degenerate,
    }
    if sv.degenerate:
        cause = "observed" if np.any(sm.fhat > 0.0) else "no_support"
        raise DegenerateStatisticError("test degenerate at this bandwidth", cause=cause)

    draws = None
    if cfg.critical == "asymptotic":
        critical = float(ndtri(1.0 - cfg.alpha))
        p_value = float(ndtr(-sv.standardized))
    else:
        draws, boot_diag = _bootstrap_draws(runner, cfg)
        diagnostics.update(boot_diag)
        ordered = np.sort(draws)
        critical = float(ordered[_quantile_rank(cfg.alpha, len(ordered)) - 1])
        p_value = float(
            (1 + np.sum(draws >= sv.standardized)) / (len(draws) + 1)
        )
    return TestResult(
        statistic_value=sv,
        critical_value=critical,
        reject=bool(sv.standardized > critical),
        p_value=p_value,
        config=cfg,
        diagnostics=diagnostics,
        bootstrap_draws=draws,
    )
