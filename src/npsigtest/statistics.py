"""Test statistics over pairwise kernel weights.

The main statistic is a second-order arrangement average of density-weighted
leave-one-out residual products, taken over pairs (``StatEngine.ihat``) or
with all coinciding-index ("diagonal") terms removed via a four-distinct-index
arrangement average (``StatEngine.itilde``). Two studentizations are
provided, plus the competitor statistics used in the experiments: a
jointly-smoothed variant (``StatEngine`` in ``joint`` mode), a Cramer-von-Mises
functional of the marked residual process (``CvmEngine``), and an F-test
against a linear specification (``fisher_test``).

Everything here is organized around matrices of pairwise weights so the wild
bootstrap can recompute statistics for thousands of response vectors while
reusing the kernel evaluations. Reductions accumulate row partial sums
(pairwise within a row) and combine them with exact compensated summation;
the brute-force oracles pin these paths at 1e-10 relative for n = 6, 8
and 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtri

from .data import ColumnKind, ScaledDataset
from .kernels import PsiSpec, joint_x_kernel_matrix, mixed_kernel_matrix, psi_matrix
from .smoother import SmootherOutput


class DegenerateStatisticError(RuntimeError):
    """Raised when a test cannot be standardized (nonpositive variance)."""


@dataclass(frozen=True)
class StatisticValue:
    """A raw statistic with its variance estimate and standardized form."""

    raw: float
    variance: float
    standardized: float
    n: int
    degenerate: bool = False


def _fsum(values) -> float:
    return math.fsum(np.asarray(values, dtype=float).tolist())


def _arrangements(n: int, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= n - i
    return out


def standardize_statistic(
    i_n: float, omega2: float, n: int, h: float, p_c: int
) -> StatisticValue:
    """Studentize: n h^(p_c/2) I_n / omega_n, flagging nonpositive variance."""
    if omega2 > 0.0:
        t = n * h ** (p_c / 2.0) * i_n / math.sqrt(omega2)
        return StatisticValue(raw=i_n, variance=omega2, standardized=t, n=n)
    return StatisticValue(
        raw=i_n, variance=omega2, standardized=math.nan, n=n, degenerate=True
    )


class StatEngine:
    """Pairwise-weight workspace for repeated statistic evaluation.

    Builds the test-kernel matrix once (product of the w kernel at bandwidth
    h and either the psi weight or, in ``joint`` mode, an x kernel at the
    same bandwidth) and evaluates every statistic for an arbitrary response
    vector. The wild bootstrap calls this once per multiplier draw. The
    four-distinct-index ``itilde`` needs n >= 5 and the six-index
    ``var_tilde`` n >= 7; both raise ``ValueError`` below their floor.
    """

    def __init__(
        self,
        d: ScaledDataset,
        sm: SmootherOutput,
        h: float,
        psi: PsiSpec = PsiSpec(),
        mode: str = "psi",
    ):
        if not h > 0:
            raise ValueError("test bandwidth h must be positive")
        ds = d.dataset
        self.n = ds.n
        self.L = sm.pairwise
        w_cont, w_disc = ds.w_split()
        kmat = mixed_kernel_matrix(w_cont, w_disc, h)
        if mode == "psi":
            pmat = psi_matrix(psi, ds.x)
            self.rate_dim = ds.p_cont
        elif mode == "joint":
            if any(k is not ColumnKind.CONTINUOUS for k in ds.x_kinds):
                raise ValueError("LV requires continuous X")
            pmat = joint_x_kernel_matrix(ds.x, h)
            self.rate_dim = ds.p_cont + ds.q
        else:
            raise ValueError(f"unknown engine mode {mode!r}")
        self.M = kmat * pmat
        np.fill_diagonal(self.M, 0.0)
        self.M2 = self.M * self.M
        self.h_power = h**self.rate_dim

    def _require_n(self, floor: int, name: str) -> None:
        if self.n < floor:
            raise ValueError(f"{name} needs n >= {floor} observations, got n = {self.n}")

    def ihat(self, uf: np.ndarray) -> float:
        n = self.n
        return _fsum(uf * (self.M @ uf)) / _arrangements(n, 2)

    def var_hat(self, uf: np.ndarray) -> float:
        n = self.n
        uf2 = uf * uf
        total = _fsum(uf2 * (self.M2 @ uf2))
        return 2.0 * self.h_power * total / _arrangements(n, 2)

    def _diff(self, y: np.ndarray) -> np.ndarray:
        return (y[:, None] - y[None, :]) * self.L

    def _arrangement_sums(self, y: np.ndarray):
        """Raw sums over the pair statistic and its coinciding-index parts.

        Returns (full, s1, s2, s3): ``full`` sums over all (i,j,k,l) with
        i != j, k != i, l != j; s1 collects the k = l coincidences, s2 the
        k = j ones (l = i mirrors it by symmetry), and the double
        coincidence k = j, l = i contributes -s3. The all-distinct total is
        therefore full - s1 - 2*s2 + s3.
        """
        D = self._diff(y)
        S = D.sum(axis=1)
        full = _fsum(S * (self.M @ S))
        G = D @ D.T
        s1 = _fsum(np.einsum("ij,ij->i", self.M, G))
        DM = D * self.M
        s3 = _fsum(np.einsum("ij,ij->i", DM, D))
        s2 = _fsum(DM @ S) + s3
        return full, s1, s2, s3

    def itilde(self, y: np.ndarray) -> float:
        self._require_n(5, "itilde")
        full, s1, s2, s3 = self._arrangement_sums(y)
        return (full - s1 - 2.0 * s2 + s3) / _arrangements(self.n, 4)

    def var_tilde(self, y: np.ndarray) -> float:
        """Six-index studentizer via nested distinctness.

        For each i, A_i sums (y_i - y_k)(y_i - y_k') L_ik L_ik' over k != k'
        (both != i); the cross-restrictions tying k, k' to the other pair's
        indices are dropped, which costs an O(1/n) deviation from the exact
        arrangement average. Can be negative in finite samples.
        """
        self._require_n(7, "var_tilde")
        n = self.n
        D = self._diff(y)
        S = D.sum(axis=1)
        Q = np.einsum("ij,ij->i", D, D)
        A = S * S - Q
        total = _fsum(A * (self.M2 @ A))
        denom = _arrangements(n, 2) * (n - 2) ** 2 * (n - 3) ** 2
        return 2.0 * self.h_power * total / denom


class CvmEngine:
    """Componentwise-dominance indicator matrix for the marked-process statistic."""

    def __init__(self, d: ScaledDataset):
        ds = d.dataset
        both = np.hstack([ds.w, ds.x])
        # E[i, j] = 1 iff observation j is componentwise <= observation i
        self.E = np.all(both[None, :, :] <= both[:, None, :], axis=2).astype(float)

    def statistic(self, uf: np.ndarray) -> float:
        inner = self.E @ uf
        return _fsum(inner * inner)


def fisher_test(d: ScaledDataset, alpha: float) -> tuple[float, bool]:
    """F-test of the x coefficients in a linear regression of y on (1, w, x)."""
    ds = d.dataset
    n, p, q = ds.n, ds.p, ds.q
    if q < 1:
        raise ValueError("F-test needs at least one x column")
    df2 = n - 1 - p - q
    if df2 < 1:
        raise ValueError(f"F-test needs n > 1 + p + q (n={n}, p={p}, q={q})")
    ones = np.ones((n, 1))
    z0 = np.hstack([ones, ds.w])
    z1 = np.hstack([ones, ds.w, ds.x])
    if np.linalg.matrix_rank(z1) < z1.shape[1]:
        raise ValueError("design matrix is rank deficient")
    rss0 = float(np.sum(np.square(ds.y - z0 @ np.linalg.lstsq(z0, ds.y, rcond=None)[0])))
    rss1 = float(np.sum(np.square(ds.y - z1 @ np.linalg.lstsq(z1, ds.y, rcond=None)[0])))
    scale = float(np.dot(ds.y, ds.y)) + 1.0
    if rss1 <= 1e-12 * scale:
        # exact fit under the full model: infinite F unless the restricted
        # model already fits exactly too
        if rss0 - rss1 <= 1e-12 * scale:
            return 0.0, False
        return math.inf, True
    f = ((rss0 - rss1) / q) / (rss1 / df2)
    crit = float(fdtri(q, df2, 1.0 - alpha))
    return f, f > crit
