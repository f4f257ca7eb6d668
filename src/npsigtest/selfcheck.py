"""Self-contained verification battery: fast paths vs. enumeration oracles,
algebraic invariances, and multiplier-law moments.

Each check returns a (name, ok, detail) tuple; ``run_all`` prints one line
per check. The checks are deliberately reusable by the test suite so the
shipped command and CI exercise identical code.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bootstrap import MAMMEN_P_LOW, TestConfig, decide_scaled, draw_multipliers, null_resample
from .data import ColumnKind, Dataset, all_continuous, standardize
from .kernels import Bandwidths, default_bandwidths
from .oracles import (
    OracleTables,
    oracle_decomposition_sides,
    oracle_ihat,
    oracle_itilde,
    oracle_var_hat,
)
from .smoother import compute_smoother, recompute_uf
from .statistics import StatEngine

REL_TOL = 1e-10
ABS_TOL = 1e-12


def close(a: float, b: float, rel: float = REL_TOL, abs_floor: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(abs_floor, rel * max(abs(a), abs(b)))


def random_dataset(
    seed: int,
    n: int,
    q: int = 1,
    discrete_x: bool = False,
    discrete_w: bool = False,
) -> Dataset:
    """Seeded dataset with nondegenerate smoothing structure."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, q]))
    p = 2
    w = rng.standard_normal((n, p))
    w_kinds = list(all_continuous(p))
    if discrete_w:
        w[:, -1] = rng.integers(0, 2, size=n).astype(float)
        w_kinds[-1] = ColumnKind.DISCRETE
    if discrete_x:
        x = rng.integers(0, 3, size=(n, q)).astype(float)
        x_kinds = (ColumnKind.DISCRETE,) * q
    else:
        x = rng.standard_normal((n, q))
        x_kinds = all_continuous(q)
    y = rng.standard_normal(n) + 0.5 * w[:, 0]
    return Dataset(y=y, w=w, x=x, w_kinds=tuple(w_kinds), x_kinds=x_kinds)


def oracle_case(seed: int, n: int, q: int, psi_family: str):
    """Dataset, smoother, and oracle tables for one oracle-equivalence case."""
    discrete_x = psi_family == "indicator"
    discrete_w = seed % 3 == 0
    data = random_dataset(seed, n, q, discrete_x=discrete_x, discrete_w=discrete_w)
    sd = standardize(data)
    # generous bandwidths keep most kernel weights strictly inside the support
    bw = Bandwidths(g=1.5, h=1.2, c=1.0)
    sm = compute_smoother(sd, bw.g)
    tables = OracleTables(sd, bw.g, bw.h, psi_family)
    return data, sd, sm, bw, tables


def check_oracle_equivalence(seeds) -> tuple[str, bool, str]:
    """Fast paths match enumeration oracles at 1e-10 relative, each on a
    vector and on the same vector stacked twice as rows (the bootstrap's
    shape), at n = 6, 8 and 10."""
    families, sizes = ("normal", "triangular", "indicator"), (6, 8, 10)
    for si, seed in enumerate(seeds):
        for n in sizes:
            q = 1 + (si % 2)
            psi_family = families[si % 3]
            _, sd, sm, bw, tables = oracle_case(seed, n, q, psi_family)
            y = sd.y
            eng = StatEngine(sd, sm, bw.h, psi=psi_family)
            checks = [
                ("ihat", eng.ihat, (sm.uf,), oracle_ihat(tables)),
                ("itilde", eng.itilde, (y, sm.uf), oracle_itilde(tables)),
                ("var_hat", eng.var_hat, (sm.uf,), oracle_var_hat(tables, sm.uf)),
            ]
            if psi_family != "indicator":
                joint = OracleTables(sd, bw.g, bw.h, "joint")
                lv = StatEngine(sd, sm, bw.h, "joint")
                checks.append(("lv", lv.itilde, (y, sm.uf), oracle_itilde(joint)))
                checks.append(("lv-variance", lv.var_hat, (sm.uf,), oracle_var_hat(joint, sm.uf)))
            for name, method, args, slow in checks:
                rows = method(*(np.stack([v, v]) for v in args))
                for shape, fast in (("vector", [method(*args)]), ("rows", rows)):
                    bad = [f for f in fast if not close(f, slow)]
                    if bad:
                        return (
                            "oracle-equivalence",
                            False,
                            f"{name} ({shape}) mismatch at seed={seed} n={n} q={q} "
                            f"psi={psi_family}: {bad[0]!r} vs {slow!r}",
                        )
    return ("oracle-equivalence", True, f"{len(seeds)} seeds x {len(sizes)} sizes")


def check_decomposition_identity(seeds, v2_coefficient: float = 2.0) -> tuple[str, bool, str]:
    """Enumerated four-distinct-index total equals the enumerated pair total
    minus its coinciding-index sums (both sides brute force), at n = 8."""
    n = 8
    for si, seed in enumerate(seeds):
        psi_family = ("normal", "triangular", "indicator")[si % 3]
        tables = oracle_case(seed, n, 1 + si % 2, psi_family)[-1]
        lhs, rhs = oracle_decomposition_sides(tables, v2_coefficient)
        if not close(lhs, rhs):
            return (
                "decomposition-identity",
                False,
                f"seed={seed}: {lhs!r} vs {rhs!r}",
            )
    return ("decomposition-identity", True, f"{len(seeds)} seeds at n={n}")


class _Q5:
    """Exact arithmetic in the field Q(sqrt 5): value = a + b*sqrt(5)."""

    def __init__(self, a, b=0):
        from fractions import Fraction

        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return _Q5(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Q5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b

    def pow(self, k):
        out = _Q5(1)
        for _ in range(k):
            out = out * self
        return out


def multiplier_moment_exact(k: int) -> _Q5:
    """k-th raw moment of the two-point multiplier law, exactly."""
    from fractions import Fraction

    low = _Q5(Fraction(1, 2), Fraction(-1, 2))
    high = _Q5(Fraction(1, 2), Fraction(1, 2))
    p_low = _Q5(Fraction(1, 2), Fraction(1, 10))
    p_high = _Q5(Fraction(1, 2), Fraction(-1, 10))
    return p_low * low.pow(k) + p_high * high.pow(k)


def check_multiplier_moments():
    """Exact moments (0, 1, 1), and empirical moments of a million draws
    within 4 standard errors."""
    seed, ndraws = 20240, 1_000_000
    for k, expected in ((1, _Q5(0)), (2, _Q5(1)), (3, _Q5(1))):
        if multiplier_moment_exact(k) != expected:
            return ("multiplier-moments", False, f"exact moment {k} wrong")
    # float-level sanity on the constants actually used for sampling
    probs_ok = math.isclose(
        MAMMEN_P_LOW + (5.0 - math.sqrt(5.0)) / 10.0, 1.0, rel_tol=1e-15
    )
    if not probs_ok:
        return ("multiplier-moments", False, "two-point probabilities do not sum to 1")
    draws = draw_multipliers(ndraws, seed, range(1))[0]
    # exact moment variances: Var eta = 1, Var eta^2 = 1, Var eta^3 = 4
    for k, mean_k, var_k in ((1, 0.0, 1.0), (2, 1.0, 1.0), (3, 1.0, 4.0)):
        emp = float(np.mean(draws**k))
        band = 4.0 * math.sqrt(var_k / ndraws)
        if abs(emp - mean_k) > band:
            return (
                "multiplier-moments",
                False,
                f"empirical moment {k} = {emp} outside {mean_k} +- {band} (seed={seed})",
            )
    return ("multiplier-moments", True, f"{ndraws} draws, 4-sigma bands")


def _scale_free(sd: Dataset, bw: Bandwidths) -> list[float]:
    """What no scale of y may move, on the sample sd as it is: t of each
    studentized statistic with each variance, and dgm's p-value (B = 19)."""
    sm = compute_smoother(sd, bw.g)
    t = [
        decide_scaled(sd, sm, TestConfig(bw, s, variance=v, critical="asymptotic")).standardized
        for s in ("itilde", "ihat", "lv")
        for v in ("var_hat", "var_tilde")
    ]
    return t + [decide_scaled(sd, sm, TestConfig(bw, "dgm", B=19)).p_value]


def check_invariances() -> tuple[str, bool, str]:
    """Shift/scale/permutation/rescaling invariances of the statistics at n=50."""
    seed, n = 7, 50
    data = random_dataset(seed, n, q=2)
    sd = standardize(data)
    bw = default_bandwidths(n, 2.0)
    sm = compute_smoother(sd, bw.g)

    def raw_statistics(sd_, sm_):
        """(ihat, itilde, var_hat) of a smoothed sample."""
        eng_ = StatEngine(sd_, sm_, bw.h)
        return eng_.ihat(sm_.uf), eng_.itilde(sd_.y, sm_.uf), eng_.var_hat(sm_.uf)

    raw_ihat, raw_itilde, raw_var = raw_statistics(sd, sm)
    unit = _scale_free(sd, bw)

    def near_unit(values):
        return all(close(a, b) for a, b in zip(values, unit))

    failures = []

    # response shift leaves raw statistics unchanged
    shifted = replace(data, y=data.y + 3.7)
    sds = standardize(shifted)
    sms = compute_smoother(sds, bw.g)
    for name, a, b in zip(
        ("shift-ihat", "shift-itilde", "shift-var"),
        raw_statistics(sds, sms),
        (raw_ihat, raw_itilde, raw_var),
    ):
        if not close(a, b):
            failures.append(name)

    # on the standardized sample, the raw statistic scales by lam^2 and its
    # variance by lam^4
    lam = 3.0
    sdl = replace(sd, y=lam * sd.y)
    sml = compute_smoother(sdl, bw.g)
    _, scaled_itilde, scaled_var = raw_statistics(sdl, sml)
    if not close(scaled_itilde, lam ** 2 * raw_itilde):
        failures.append("scale-raw")
    if not close(scaled_var, lam ** 4 * raw_var):
        failures.append("scale-var")

    # any scale of y decides as unit scale does; a power of two bit for bit,
    # as the response as given does (the rescale is exact)
    if unit != _scale_free(replace(sd, y=data.y), bw):
        failures.append("scale-bits")
    for factor in (1e100, 1e-100):
        if not near_unit(_scale_free(standardize(replace(data, y=factor * data.y)), bw)):
            failures.append(f"scale-{factor:g}")
    for j in (-200, -1, 1, 200):
        if _scale_free(standardize(replace(data, y=np.ldexp(data.y, j))), bw) != unit:
            failures.append(f"scale-2^{j}-bits")

    # rescaling an input column is absorbed by standardization
    w2 = data.w.copy()
    w2[:, 0] *= 13.0
    x2 = data.x.copy()
    x2[:, 1] *= 0.25
    if not near_unit(_scale_free(standardize(replace(data, w=w2, x=x2)), bw)):
        failures.append("column-rescale")

    # permuting observations permutes nothing observable but the bootstrap
    # streams, so dgm's p-value
    perm = np.random.default_rng(seed + 1).permutation(n)
    permuted = replace(data, y=data.y[perm], w=data.w[perm], x=data.x[perm])
    if not near_unit(_scale_free(standardize(permuted), bw)[:-1]):
        failures.append("permutation")

    # unit multipliers reproduce the original statistic
    eta = np.ones(n)
    ystar = null_resample(sm, sd.y, eta)
    eng = StatEngine(sd, sm, bw.h)
    ufstar = recompute_uf(sm.pairwise, ystar)
    if not close(eng.itilde(ystar, ufstar), raw_itilde, rel=1e-12):
        failures.append("unit-eta-itilde")
    if not close(eng.var_hat(ufstar), raw_var, rel=1e-12):
        failures.append("unit-eta-var")

    if failures:
        return ("invariances", False, f"seed={seed}: " + ", ".join(failures))
    return ("invariances", True, f"n={n}, seed={seed}")


def run_all(oracle_seeds=range(1, 11), deco_seeds=range(100, 110)) -> bool:
    """Run every check, print one line per check, return overall success."""
    checks = [
        check_oracle_equivalence(list(oracle_seeds)),
        check_decomposition_identity(list(deco_seeds)),
        check_multiplier_moments(),
        check_invariances(),
    ]
    ok_all = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all &= ok
    return ok_all
