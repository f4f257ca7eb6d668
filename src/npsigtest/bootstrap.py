"""Wild-bootstrap critical values and the end-to-end test procedure.

Resampled responses are built as rhat_i + eta_i * (y_i - rhat_i) with i.i.d.
multipliers eta of mean zero and second and third moments one, so the null
regression is imposed while conditional heteroskedasticity is preserved.
Bootstrap draw b of a test with seed s reads the multiplier stream
``default_rng(SeedSequence([s mod 2**64, b]))``, so results are bit-for-bit
reproducible regardless of execution order or worker count. The draws are
evaluated together, one block of ``DRAW_BLOCK`` resampled responses at a
time, through the same statistic bodies as the observed response, over the
pair weights it already built.

Per test the draw path does what it can once, and per draw only what must
differ. ``_start_states`` runs the ``SeedSequence`` pool hash for up to
``_STATE_BLOCKS`` whole blocks of draw indices at once in uint32 numpy
arithmetic (all of B = 199 in one call), giving the words each draw's
``generate_state(4, uint64)`` would return. One ``ISeedSequence`` object per
block (``_Words``) hands each draw's ``PCG64`` the next row of those words,
and a ``Generator`` on it fills the draw's row of uniforms
(``_uniforms``). A Mammen multiplier takes one of two values, so each
resampled response is a selection, ``np.where(u < MAMMEN_P_LOW, y_low,
y_high)``, between the two responses ``null_resample`` gives for the two
multipliers, computed once per test by the same float operations it applies
to each element (``_resampled_blocks``). ``draw_multipliers`` reads the same
uniform fill. numpy's RNG policy (NEP 19) keeps these streams stable;
``tests/test_bootstrap.py`` checks them, and every resampled block, against
the explicit form. A draw index must fit in one 32-bit entropy word, so
B <= 2**32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .data import Dataset, standardize
from .kernels import PSI_FAMILIES, Bandwidths
from .smoother import SmootherOutput, compute_smoother, recompute_uf
from .statistics import CvmEngine, DegenerateStatisticError, StatEngine, studentize

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

# draw indices b run over range(B) and must each fit in one uint32 word
MAX_DRAWS = 1 << 32

# whole draw blocks whose start states are derived together: all of B = 199
# in one call, and at most 1024 x 4 words held at any B
_STATE_BLOCKS = 16


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class
    bandwidths: Bandwidths
    statistic: str = "itilde"
    psi: str = "normal"
    variance: str = "var_hat"
    critical: str = "bootstrap"
    alpha: float = 0.05
    B: int = 199
    seed: int = 0

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.psi not in PSI_FAMILIES:
            raise ValueError(f"unknown psi family {self.psi!r}")
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
        if self.critical == "bootstrap" and not 1 <= self.B <= MAX_DRAWS:
            raise ValueError(f"bootstrap size B must be in [1, {MAX_DRAWS}]")

    @property
    def weight(self) -> str | None:
        """The pair weight the statistic reads: ``psi`` for itilde and ihat,
        ``"joint"`` (an x kernel at h) for lv, and None for dgm, which
        weighs no pairs."""
        if self.statistic == "dgm":
            return None
        return "joint" if self.statistic == "lv" else self.psi


@dataclass(frozen=True)
class TestResult:
    """A test's statistic, its decision and how it was reached.

    ``raw`` is the statistic, ``variance_estimate`` its variance estimate
    (NaN for dgm, which is not studentized) and ``standardized`` the value
    compared with ``critical_value``. All are taken on the standardized y,
    times the power of two 2**k that brings its range into [0.5, 1); only
    ``raw``, ``variance_estimate`` and dgm's values depend on k.
    """

    __test__ = False  # not a pytest class
    raw: float
    variance_estimate: float
    standardized: float
    n: int
    critical_value: float
    reject: bool
    p_value: float
    config: TestConfig
    diagnostics: dict
    bootstrap_draws: np.ndarray | None = None

    def to_record(self) -> dict:
        """Flat key-value view for CSV/JSON serialization.

        ``psi`` is the pair weight the test used (``TestConfig.weight``).
        The variance slots are None for dgm, which is not studentized,
        keeping the JSON strictly parseable.
        """
        return {
            "schema_version": 3,
            "statistic": self.config.statistic,
            "psi": self.config.weight,
            "variance": None if self.config.statistic == "dgm" else self.config.variance,
            "critical_method": self.config.critical,
            "n": self.n,
            "raw": self.raw,
            "variance_estimate": (
                None if math.isnan(self.variance_estimate) else self.variance_estimate
            ),
            "standardized": self.standardized,
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


# numpy's SeedSequence constants (pool size 4)
_MASK32 = (1 << 32) - 1
_POOL = 4
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``count`` successive SeedSequence
    hashmix calls, as uint32 columns."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# mix_entropy makes 16 hashmix calls: calls 0-3 hash the entropy words into
# the pool, then calls 4 + 3 src + j hash word src to mix it into the j-th
# other word; generate_state(4, uint64) hashes the pool twice over into 8
# words
_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)


def _mix_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of the calls that mix word ``src`` into each pool
    word (the row of ``src`` itself is discarded)."""
    first = _POOL + (_POOL - 1) * src
    calls = list(range(first, first + _POOL - 1))
    calls.insert(src, first)
    return _ENTROPY_XOR[calls], _ENTROPY_MUL[calls]


_MIX_CONSTANTS = [_mix_constants(src) for src in range(_POOL)]
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one result row per constant row."""
    value = (value ^ xor) * mul
    return value ^ (value >> _XSHIFT)


def _start_states(seed: int, b: np.ndarray) -> np.ndarray:
    """The words ``SeedSequence([seed mod 2**64, b]).generate_state(4,
    uint64)`` returns, one row per draw index b."""
    word = seed % (1 << 64)
    words = [word & _MASK32] + ([word >> 32] if word >> 32 else [])
    entropy = np.zeros((_POOL, len(b)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = b
    pool = _hashmix(entropy, _ENTROPY_XOR[:_POOL], _ENTROPY_MUL[:_POOL])
    for src, (xor, mul) in enumerate(_MIX_CONSTANTS):
        hashed = _hashmix(pool[src], xor, mul)
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]  # a word is not mixed into itself
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MUL)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """Seeds each ``PCG64`` built on it with the next row of the start-state
    words ``_start_states`` derived, so a block of draws shares one object."""

    def __init__(self, words: np.ndarray):
        self._rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's request for 4 uint64 words is derived")
        return next(self._rows)


def _uniforms(words: np.ndarray, n: int) -> np.ndarray:
    """One row per row of start-state words: the first ``n`` doubles in
    [0, 1) of the ``PCG64`` stream those words seed."""
    u = np.empty((len(words), n))
    seeds = _Words(words)
    for row in u:
        np.random.Generator(np.random.PCG64(seeds)).random(out=row)
    return u


def _uniform_blocks(n: int, seed: int, draws):
    """``_uniforms`` of the streams ``SeedSequence([seed mod 2**64, b])`` of
    the draw indices b in ``draws`` (a range or an int array), one block of
    ``DRAW_BLOCK`` rows at a time, in order. The start states are derived
    ``_STATE_BLOCKS`` whole blocks at a time."""
    chunk = _STATE_BLOCKS * DRAW_BLOCK
    for lo in range(0, len(draws), chunk):
        part = draws[lo : lo + chunk]
        b = np.arange(part.start, part.stop) if isinstance(part, range) else part
        words = _start_states(seed, b)
        for start in range(0, len(words), DRAW_BLOCK):
            yield _uniforms(words[start : start + DRAW_BLOCK], n)


def draw_multipliers(n: int, seed: int, draws) -> np.ndarray:
    """i.i.d. Mammen two-point multipliers with mean 0 and second and third
    moments 1: one row of ``n`` per draw index b in ``draws``, row b read
    from the stream ``default_rng(SeedSequence([seed mod 2**64, b]))``."""
    if n < 1:
        raise ValueError("need at least one multiplier")
    b = np.asarray(draws, dtype=np.int64).reshape(-1)
    if b.size and not (b.min() >= 0 and b.max() < MAX_DRAWS):
        raise ValueError(f"draw indices must be in [0, {MAX_DRAWS})")
    u = np.concatenate([np.empty((0, n)), *_uniform_blocks(n, seed, b)])
    return np.where(u < MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)


def null_resample(sm: SmootherOutput, y: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Null-imposing resample rhat + eta * (y - rhat); isolated observations
    keep their original response. ``eta`` may hold one draw per row; a
    column gives each row one multiplier for every observation.

    Where fhat_i = 0 the kernel row L_i. vanishes identically, so Y*_i is
    multiplied by zero in every pairwise statistic; carrying y_i through is
    exactly equivalent to any other finite choice and keeps the resample
    NaN-free.
    """
    with np.errstate(invalid="ignore"):
        star = sm.rhat + eta * (y - sm.rhat)
    return np.where(sm.fhat > 0.0, star, y)


def _resampled_blocks(sm: SmootherOutput, y: np.ndarray, seed: int, B: int):
    """The resampled responses of draws 0 … B-1, one block of
    ``DRAW_BLOCK`` rows at a time: ``null_resample(sm, y,
    draw_multipliers(len(y), seed, draws))`` of each block, taken by
    selection. A Mammen multiplier is one of two values, so every y*_i is
    one of two responses computed once per test by the same float
    operations."""
    y_low, y_high = null_resample(sm, y, np.array([[MAMMEN_LOW], [MAMMEN_HIGH]]))
    for u in _uniform_blocks(len(y), seed, range(B)):
        yield np.where(u < MAMMEN_P_LOW, y_low, y_high)


def _quantile_rank(alpha: float, b: int) -> int:
    """Order-statistic rank for the upper-alpha bootstrap critical value."""
    return min(max(int(math.ceil((1.0 - alpha) * (b + 1))), 1), b)


def _engine(d: Dataset, sm: SmootherOutput, cfg: TestConfig):
    """The pair-weight engine of the configured statistic, built once per
    smoothed sample and kept in ``sm.cache`` under the test bandwidth and
    the pair weight (``TestConfig.weight``; dgm's weighs no pairs)."""
    key = (cfg.bandwidths.h, cfg.weight)
    if key not in sm.cache:
        sm.cache[key] = CvmEngine(d) if cfg.weight is None else StatEngine(d, sm, *key)
    return sm.cache[key]


def _evaluate(eng, cfg: TestConfig, y: np.ndarray, uf: np.ndarray):
    """(raw statistic, variance estimate, standardized statistic,
    used-variance-fallback) of a response vector, or of each row of a block
    of responses, given its leave-one-out residuals uf. A degenerate
    statistic standardizes to NaN; dgm is not studentized, so its variance
    is NaN and its standardized value is the raw one, or NaN where that is
    not finite (an overflow)."""
    if cfg.statistic == "dgm":
        raw = eng.statistic(uf)
        t = np.where(np.isfinite(raw), raw, math.nan)
        return raw, np.full(np.shape(raw), math.nan), t, np.zeros(np.shape(raw), dtype=bool)
    raw = eng.ihat(uf) if cfg.statistic == "ihat" else eng.itilde(y, uf)
    omega2 = eng.var_hat(uf) if cfg.variance == "var_hat" else eng.var_tilde(y, uf)
    fallback = (cfg.variance == "var_tilde") & (omega2 <= 0.0)
    if fallback.any():
        omega2 = np.where(fallback, eng.var_hat(uf), omega2)
    t = studentize(raw, omega2, eng.n, cfg.bandwidths.h, eng.rate_dim)
    return raw, omega2, t, fallback


def _draw_statistics(
    eng, sm: SmootherOutput, y: np.ndarray, cfg: TestConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Standardized statistic of every multiplier draw of the response y
    (NaN if degenerate) and whether it used the variance fallback,
    ``DRAW_BLOCK`` draws at a time."""
    blocks = [
        _evaluate(eng, cfg, ystar, recompute_uf(sm.pairwise, ystar))[2:]
        for ystar in _resampled_blocks(sm, y, cfg.seed, cfg.B)
    ]
    t, fallback = zip(*blocks)
    return np.concatenate(t), np.concatenate(fallback)


def run_test(d: Dataset, cfg: TestConfig) -> TestResult:
    """Standardize, smooth, compute the configured statistic, and decide."""
    sd = standardize(d)
    sm = compute_smoother(sd, cfg.bandwidths.g)
    return decide_scaled(sd, sm, cfg)


def _refusal(eng, sm: SmootherOutput, cfg: TestConfig, vanishes: bool) -> str:
    """Why the observed statistic decides no test, and what to change."""
    h, g = cfg.bandwidths.h, cfg.bandwidths.g
    if not np.any(sm.fhat > 0.0):
        return (
            "test degenerate at this bandwidth: no observation has a neighbour in the w "
            f"columns within the smoothing bandwidth g = {g:.6g} (n = {len(sm.uf)})"
        )
    if cfg.weight is not None and not eng.M.values.any():
        message = (
            f"no two observations within the test bandwidth h = {h:.6g} carry a "
            "nonzero pair weight; increase the bandwidth factor c (--c)"
        )
        if cfg.weight == "indicator":
            message += (
                "; psi=indicator weighs only pairs with equal x values, so "
                "continuous x columns need psi=normal or psi=triangular"
            )
        return message
    if vanishes:
        return (
            f"in no weighted pair within the test bandwidth h = {h:.6g} do both "
            f"observations have another neighbour within the smoothing bandwidth "
            f"g = {g:.6g}, two distinct ones, so {cfg.statistic} is 0 for every "
            "response; increase the bandwidth factor c (--c)"
        )
    return (
        f"test degenerate at this bandwidth: {cfg.statistic} standardizes to no finite "
        f"value at the test bandwidth h = {h:.6g}; change the bandwidth factor c (--c)"
    )


def decide_scaled(sd: Dataset, sm: SmootherOutput, cfg: TestConfig) -> TestResult:
    """Decision step on an already standardized and smoothed sample, so a
    Monte Carlo replication can share one smoother across several tests.

    ``sm.cache`` holds the pair-weight engines only, so tests that share an
    engine share its build; each test evaluates its own observed statistic.
    A smoother computed at another g than ``cfg.bandwidths.g`` is refused,
    and so is a degenerate observed statistic, and an ``itilde`` or ``lv``
    test on a sample where the statistic is 0 for every response
    (``StatEngine.itilde_vanishes``). The range of ``sd.y`` is in [0.5, 1)
    (``standardize``), so no scale of y overflows or underflows a statistic.
    """
    if sm.g != cfg.bandwidths.g:
        raise ValueError(
            f"the smoother was computed at g = {sm.g!r}, but the test is "
            f"configured with g = {cfg.bandwidths.g!r}"
        )
    eng = _engine(sd, sm, cfg)
    raw, omega2, t, fallback = _evaluate(eng, cfg, sd.y, sm.uf)
    vanishes = cfg.statistic in ("itilde", "lv") and eng.itilde_vanishes()
    if np.isnan(t) or vanishes:
        cause = "observed" if np.any(sm.fhat > 0.0) else "no_support"
        raise DegenerateStatisticError(_refusal(eng, sm, cfg, vanishes), cause=cause)
    t = float(t)
    diagnostics = {"fallback_used": bool(fallback), "fhat_zeros": int(np.sum(sm.fhat <= 0.0))}

    draws = None
    if cfg.critical == "asymptotic":
        critical = NormalDist().inv_cdf(1.0 - cfg.alpha)
        p_value = 0.5 * math.erfc(t / math.sqrt(2.0))
    else:
        t_draws, fallback_draws = _draw_statistics(eng, sm, sd.y, cfg)
        degenerate = np.isnan(t_draws)
        n_degenerate = int(degenerate.sum())
        if n_degenerate > MAX_DEGENERATE_DRAW_FRACTION * cfg.B:
            raise DegenerateStatisticError(
                f"{n_degenerate} of {cfg.B} bootstrap draws had degenerate "
                "variance; the test is unreliable at this bandwidth; change the "
                "bandwidth factor c (--c)",
                cause="draws",
            )
        diagnostics["degenerate_draws"] = n_degenerate
        diagnostics["fallback_draws"] = int(fallback_draws.sum())
        draws = t_draws[~degenerate]
        ordered = np.sort(draws)
        critical = float(ordered[_quantile_rank(cfg.alpha, len(ordered)) - 1])
        p_value = float((1 + np.sum(draws >= t)) / (len(draws) + 1))
    return TestResult(
        raw=float(raw),
        variance_estimate=float(omega2),
        standardized=t,
        n=sd.n,
        critical_value=critical,
        reject=bool(t > critical),
        p_value=p_value,
        config=cfg,
        diagnostics=diagnostics,
        bootstrap_draws=draws,
    )
