"""Brute-force arrangement-enumeration oracles.

Each oracle evaluates a statistic exactly as its defining sum is written:
explicit loops over index arrangements, scalar kernel evaluations, and exact
compensated accumulation. The scalar kernels below are written from their
definitions in plain float arithmetic, so the oracles share no code with the
matrix builders in ``kernels`` and pin every kernel value as well as every
sum, in tests and in the self-check command. Complexity is O(n^4) to O(n^6),
so keep n at 10 or below.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from .data import Dataset

SQRT6 = math.sqrt(6.0)


def eval_kernel(u) -> float:
    """Epanechnikov kernel at a difference vector: 0.75 (1 - ||u||^2) on
    ||u|| < 1, else 0."""
    s = math.fsum(float(v) * float(v) for v in u)
    return 0.75 * (1.0 - s) if s < 1.0 else 0.0


def eval_mixed_kernel(cont_diff, disc_equal, bandwidth: float) -> float:
    """h^(-p_c) K(cont_diff / h) times the product of discrete-equality flags."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    if not all(bool(f) for f in disc_equal):
        return 0.0
    scaled = [float(v) / bandwidth for v in cont_diff]
    return bandwidth ** (-len(scaled)) * eval_kernel(scaled)


def eval_psi(psi: str, x_diff) -> float:
    """Pair weight at a difference vector of (scaled) x values.

    The density families are even with unit second moment and are taken at
    the Euclidean norm t of the whole difference: the standard normal
    density, or the triangular density (1 - t / sqrt 6) / sqrt 6 on
    t < sqrt 6. The indicator requires every coordinate to match exactly.
    """
    x_diff = [float(v) for v in x_diff]
    if psi == "indicator":
        return 1.0 if all(v == 0.0 for v in x_diff) else 0.0
    t = math.sqrt(math.fsum(v * v for v in x_diff))
    if psi == "triangular":
        return max(0.0, 1.0 - t / SQRT6) / SQRT6
    if psi == "normal":
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    raise ValueError(f"unknown psi family {psi!r}")


def _pair_tables(d: Dataset, g: float, h: float, psi: str):
    """Scalar-built L, K, and psi pair tables (plain nested loops); psi
    ``"joint"`` is ``lv``'s x kernel at h."""
    n = d.n
    w_cont, w_disc = d.w_split()
    L = [[0.0] * n for _ in range(n)]
    K = [[0.0] * n for _ in range(n)]
    P = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            wd_eq = w_disc[i] == w_disc[j]
            L[i][j] = eval_mixed_kernel(w_cont[i] - w_cont[j], wd_eq, g)
            K[i][j] = eval_mixed_kernel(w_cont[i] - w_cont[j], wd_eq, h)
            if psi == "joint":  # identically 1 when x is empty, as in joint_x_kernel_matrix
                P[i][j] = eval_mixed_kernel(d.x[i] - d.x[j], (), h) if d.q else 1.0
            else:
                P[i][j] = eval_psi(psi, d.x[i] - d.x[j])
    return L, K, P


class OracleTables:
    """Pair tables plus the response vector, shared by the oracle sums below."""

    def __init__(self, d: Dataset, g: float, h: float, psi: str = "normal"):
        self.n = d.n
        self.y = [float(v) for v in d.y]
        self.L, self.K, self.P = _pair_tables(d, g, h, psi)
        self.h_power = h ** (d.p_cont + (d.q if psi == "joint" else 0))


def oracle_smoother(d: Dataset, g: float):
    """Scalar-loop leave-one-out estimates: (fhat, rhat, uf)."""
    t = OracleTables(d, g, g)
    n, y, L = t.n, t.y, t.L
    fhat, rhat, uf = [], [], []
    for i in range(n):
        ssum = math.fsum(L[i][k] for k in range(n) if k != i)
        ysum = math.fsum(y[k] * L[i][k] for k in range(n) if k != i)
        fhat.append(ssum / (n - 1))
        rhat.append(ysum / ssum if ssum > 0 else math.nan)
        uf.append(math.fsum((y[i] - y[k]) * L[i][k] for k in range(n) if k != i) / (n - 1))
    return np.array(fhat), np.array(rhat), np.array(uf)


def oracle_ihat(t: OracleTables) -> float:
    """Quadruple sum over i != j, k != i, l != j, as the pair statistic expands."""
    n, y, L, K, P = t.n, t.y, t.L, t.K, t.P
    terms = (
        (y[i] - y[k]) * (y[j] - y[l]) * L[i][k] * L[j][l] * K[i][j] * P[i][j]
        for i in range(n)
        for j in range(n)
        if j != i
        for k in range(n)
        if k != i
        for l in range(n)
        if l != j
    )
    return math.fsum(terms) / (math.perm(n, 2) * (n - 1) ** 2)


def oracle_itilde(t: OracleTables) -> float:
    """Average over arrangements of four distinct indices."""
    n, y, L, K, P = t.n, t.y, t.L, t.K, t.P
    terms = (
        (y[i] - y[k]) * (y[j] - y[l]) * L[i][k] * L[j][l] * K[i][j] * P[i][j]
        for i, j, k, l in permutations(range(n), 4)
    )
    return math.fsum(terms) / math.perm(n, 4)


def oracle_diagonal_terms(t: OracleTables) -> tuple[float, float, float]:
    """V1, V2 over three distinct indices; V3 over two."""
    n, y, L, K, P = t.n, t.y, t.L, t.K, t.P
    v1 = math.fsum(
        (y[i] - y[k]) * (y[j] - y[k]) * L[i][k] * L[j][k] * K[i][j] * P[i][j]
        for i, j, k in permutations(range(n), 3)
    ) / math.perm(n, 3)
    v2 = math.fsum(
        (y[i] - y[j]) * (y[j] - y[k]) * L[i][j] * L[j][k] * K[i][j] * P[i][j]
        for i, j, k in permutations(range(n), 3)
    ) / math.perm(n, 3)
    v3 = math.fsum(
        (y[i] - y[j]) ** 2 * L[i][j] ** 2 * K[i][j] * P[i][j]
        for i, j in permutations(range(n), 2)
    ) / math.perm(n, 2)
    return v1, v2, v3


def oracle_var_hat(t: OracleTables, uf: np.ndarray) -> float:
    """Direct double loop over the pair-sum variance estimator."""
    n, K, P = t.n, t.K, t.P
    total = math.fsum(
        uf[i] ** 2 * uf[j] ** 2 * K[i][j] ** 2 * P[i][j] ** 2
        for i, j in permutations(range(n), 2)
    )
    return 2.0 * t.h_power * total / math.perm(n, 2)


def oracle_var_tilde(t: OracleTables) -> float:
    """Exact six-distinct-index arrangement average. O(n^6): n <= 10 only."""
    n, y, L, K, P = t.n, t.y, t.L, t.K, t.P
    if n > 10:
        raise ValueError("exact six-index oracle is limited to n <= 10")
    terms = (
        (y[i] - y[k])
        * (y[i] - y[kp])
        * (y[j] - y[l])
        * (y[j] - y[lp])
        * L[i][k]
        * L[i][kp]
        * L[j][l]
        * L[j][lp]
        * K[i][j] ** 2
        * P[i][j] ** 2
        for i, j, k, kp, l, lp in permutations(range(n), 6)
    )
    return 2.0 * t.h_power * math.fsum(terms) / math.perm(n, 6)


def oracle_var_tilde_nested(t: OracleTables) -> float:
    """Enumerated form of the production six-index path: the inner index
    pairs avoid their own anchor (k, k' != i and l, l' != j) but are not
    constrained across anchors. Validates the vectorized implementation."""
    n, y, L, K, P = t.n, t.y, t.L, t.K, t.P
    if n > 10:
        raise ValueError("nested six-index oracle is limited to n <= 10")

    def anchor_terms(i):
        return [
            (y[i] - y[k]) * (y[i] - y[kp]) * L[i][k] * L[i][kp]
            for k in range(n)
            if k != i
            for kp in range(n)
            if kp != i and kp != k
        ]

    a = [math.fsum(anchor_terms(i)) for i in range(n)]
    total = math.fsum(
        a[i] * a[j] * K[i][j] ** 2 * P[i][j] ** 2
        for i in range(n)
        for j in range(n)
        if j != i
    )
    denom = math.perm(n, 2) * (n - 2) ** 2 * (n - 3) ** 2
    return 2.0 * t.h_power * total / denom


def oracle_decomposition_sides(
    t: OracleTables, v2_coefficient: float = 2.0
) -> tuple[float, float]:
    """Both sides of the distinct-index decomposition, each by enumeration.

    Left: arrangements(4) times the four-distinct-index average. Right: the
    pair-statistic total minus its coinciding-index sums, with the V2 sum
    counted ``v2_coefficient`` times (2 in the identity; any other value
    should break it).
    """
    n = t.n
    lhs = math.perm(n, 4) * oracle_itilde(t)
    v1, v2, v3 = oracle_diagonal_terms(t)
    rhs = (
        n * (n - 1) ** 3 * oracle_ihat(t)
        - math.perm(n, 3) * v1
        - v2_coefficient * math.perm(n, 3) * v2
        + math.perm(n, 2) * v3
    )
    return lhs, rhs


def oracle_dgm(d: Dataset, uf: np.ndarray) -> float:
    """Direct enumeration of the marked-process statistic."""
    n = d.n
    total = []
    for i in range(n):
        inner = math.fsum(
            uf[j]
            for j in range(n)
            if np.all(d.w[j] <= d.w[i]) and np.all(d.x[j] <= d.x[i])
        )
        total.append(inner * inner)
    return math.fsum(total)


def oracle_ols_f(d: Dataset) -> float:
    """F statistic via explicitly solved normal equations (second OLS path)."""
    n = d.n
    ones = np.ones((n, 1))
    z0 = np.hstack([ones, d.w])
    z1 = np.hstack([ones, d.w, d.x])

    def rss(z):
        beta = np.linalg.solve(z.T @ z, z.T @ d.y)
        e = d.y - z @ beta
        return math.fsum((e * e).tolist())

    rss0, rss1 = rss(z0), rss(z1)
    df2 = n - 1 - d.p - d.q
    return ((rss0 - rss1) / d.q) / (rss1 / df2)
