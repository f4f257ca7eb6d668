"""Test statistics over pair weights.

The main statistic is a second-order arrangement average of density-weighted
leave-one-out residual products, taken over pairs (``StatEngine.ihat``) or
with all coinciding-index ("diagonal") terms removed via a four-distinct-index
arrangement average (``StatEngine.itilde``). Two studentizations are
provided, plus the competitor statistics used in the experiments: a
jointly-smoothed variant (``StatEngine`` with ``psi="joint"``), a Cramer-von-Mises
functional of the marked residual process (``CvmEngine``), and an F-test
against a linear specification (``fisher_test``).

Every statistic is a quadratic form in the response, over the kernel weights
L and the test weights M = K_h(w)∘psi, which ``kernels.PairWeights`` holds as
lists of their few nonzero entries. Each reads the leave-one-out residuals
uf of the response (``smoother.recompute_uf``, its one product with L) and
has one body for one vector or a block of them, one per row, so the observed
data and the wild-bootstrap draws go through the same code: a vector is
summed over the lists, a block by BLAS products with the tiles of each
matrix that hold its entries, or with the dense matrix where its
neighbourhoods are wide (``PairWeights.product``). ``itilde``'s
coefficient lists are built once per engine, from sums over the triples
(i, j, k) that M and L connect. The oracles pin both shapes at 1e-10
relative for n = 6, 8, 10.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ColumnKind, Dataset
from .kernels import joint_x_kernel_matrix, mixed_kernel_matrix, psi_matrix, search_is_cheaper
from .smoother import SmootherOutput, centred

# fewest observations of the four-distinct-index itilde
ITILDE_MIN_N = 5


class DegenerateStatisticError(RuntimeError):
    """Raised when a test cannot be standardized (nonpositive variance) or,
    for the F-test, when its design matrix is rank deficient.

    ``cause`` names what was degenerate: ``"observed"``, the statistic of the
    data; ``"no_support"``, the same when the design density estimate fhat is
    zero at every observation; ``"draws"``, too many bootstrap draws.
    """

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause


def _dots(a: np.ndarray, b: np.ndarray):
    """Dot product of a vector with a vector, or of each row of a with the
    same row of b."""
    return np.einsum("...i,...i->...", a, b)


def studentize(i_n, omega2, n: int, h: float, p_c: int) -> np.ndarray:
    """n h^(p_c/2) I_n / omega_n, elementwise; NaN marks a degenerate
    (nonpositive-variance) value."""
    with np.errstate(invalid="ignore", divide="ignore"):
        t = n * h ** (p_c / 2.0) * i_n / np.sqrt(omega2)
    return np.where(omega2 > 0.0, t, math.nan)


def check_bandwidth(h: float, rate_dim: int) -> None:
    """Refuse a test bandwidth h at which h**k or h**-k overflows a float,
    k = max(rate_dim, 2): an engine of that rate dimension takes powers of h
    up to the k-th, and divides by h * h."""
    k = max(rate_dim, 2)
    for power in (k, -k):
        try:
            h**power
        except OverflowError:
            remedy = "smaller" if power > 0 else "larger"
            raise ValueError(
                f"the test bandwidth h = {h:.6g} is out of range: h**{power} overflows "
                f"a float; choose a {remedy} bandwidth factor c (--c, or --cs of simulate)"
            ) from None


class StatEngine:
    """Pair-weight workspace for repeated statistic evaluation.

    Builds the test weights M once (the w kernel at bandwidth h times the
    pair weight ``psi``: a name from ``PSI_FAMILIES``, or ``"joint"``, the
    x kernel at the same bandwidth that ``lv`` smooths with), on the pairs
    inside the w kernel's support only. When h <= g those pairs are a
    subset of the smoother's L, so they are filtered from L's entries
    rather than searched for again (``mixed_kernel_matrix``), with the same
    result, unless a search tests so many fewer candidates that it costs
    less (``search_is_cheaper``: one continuous w column at h well below
    g); a wider h searches anew. An h at which a power the engine takes
    overflows a float is refused (``check_bandwidth``). Every statistic
    reads the residuals uf of a response, or of each row of a block;
    ``itilde`` and ``var_tilde`` read the response too, and take no product
    with L.
    ``itilde`` builds its coefficient lists on its first call; a test
    without a bootstrap holds no n-by-n matrix, except the one
    ``PairWeights.triple_sums`` scatters while it builds them if that is
    cheaper than its lists. The four-index ``itilde`` needs n >= 5 and the
    six-index ``var_tilde`` n >= 7; both raise ``ValueError`` below that.
    """

    def __init__(self, d: Dataset, sm: SmootherOutput, h: float, psi: str = "normal"):
        if not h > 0:
            raise ValueError("test bandwidth h must be positive")
        self.n = d.n
        self.L = sm.pairwise
        w_cont, w_disc = d.w_split()
        if psi == "joint" and any(k is not ColumnKind.CONTINUOUS for k in d.x_kinds):
            raise ValueError("LV requires continuous X")
        self.rate_dim = d.p_cont + d.q if psi == "joint" else d.p_cont
        check_bandwidth(h, self.rate_dim)
        within = sm.pairwise
        if h > sm.g or search_is_cheaper(w_cont, w_disc, h, within):
            within = None
        kmat = mixed_kernel_matrix(w_cont, w_disc, h, within)
        if psi == "joint":
            self.M = joint_x_kernel_matrix(d.x, h, kmat)
        else:
            self.M = psi_matrix(psi, d.x, kmat)
        self.M2 = self.M.squared()
        self.h_power = h**self.rate_dim
        self._itilde = None
        self._L2 = None

    def _require_n(self, floor: int, name: str) -> None:
        if self.n < floor:
            raise ValueError(f"{name} needs n >= {floor} observations, got n = {self.n}")

    def ihat(self, uf: np.ndarray):
        """``ihat`` of a residual vector uf, or of each row of uf."""
        return _dots(uf, self.M.product(uf)) / float(math.perm(self.n, 2))

    def var_hat(self, uf: np.ndarray):
        """``var_hat`` of a residual vector uf, or of each row of uf."""
        uf2 = uf * uf
        total = _dots(uf2, self.M2.product(uf2))
        return 2.0 * self.h_power * total / float(math.perm(self.n, 2))

    def itilde(self, y: np.ndarray, uf: np.ndarray):
        """``itilde`` of a response y and its residuals uf, or of each row of both.

        (n)_4 itilde is the sum of M_ij D_ik D_jl over distinct i, j, k, l,
        where D_ik = (y_i - y_k) L_ik. With S = (n - 1) uf the row sums of
        D, N = M∘L (c = N 1), W = M∘L∘L, G = M∘(L Lᵀ),
        H = L∘(M L) and e = diag(L M L) (the column sums of H), it is the
        quadratic form

            S'MS - 2 y'(N - diag c) S + y'(2W - G + H + Hᵀ) y - (e + 2 W 1)'(y∘y),

        taken one term at a time, in this order, over coefficients built on
        the first call (``_itilde_terms``). Where itilde is 0 in exact
        arithmetic (no arrangement has weight) the result is the rounding
        residue of these sums, and a test is decided on it (ROADMAP item 2).
        """
        self._require_n(ITILDE_MIN_N, "itilde")
        if self._itilde is None:
            self._itilde = self._itilde_terms()
        N, Q, diagonal = self._itilde
        y = centred(y, self.L)
        S = (self.n - 1) * uf
        total = _dots(S, self.M.product(S))
        total -= 2.0 * _dots(y, N.product(S) - N.row_sums * S)
        total += _dots(y, Q.product(y))
        total -= _dots(y, diagonal * y)
        return total / float(math.perm(self.n, 4))

    def _itilde_terms(self):
        """N, the symmetric Q = 2W - G + H + Hᵀ, listed on the union of the
        entries of M and L, and the diagonal e + 2 W 1 of ``itilde``."""
        n, L, M = self.n, self.L, self.M
        at = L.index_of(M.rows, M.cols)
        W = np.append(L.values, 0.0)[at]  # L on M's entries, then M∘L∘L
        G, H = M.triple_sums(L)
        e = np.bincount(L.cols, H, n)
        # L is symmetric: the mirror (k, i) of each entry (i, k) is listed
        H += H[L.index_of(L.cols, L.rows)]
        N = M.with_values(M.values * W)
        W *= N.values
        diagonal = e + 2.0 * np.bincount(M.rows, W, n)
        on_M = 2.0 * W - G
        # released before the merge: with lists as long as a dense matrix
        # is large (all pairs of a few discrete groups), this is the peak
        del W, G
        Q = L.with_values(H).plus(M.with_values(on_M), at)
        return N, Q, diagonal

    def var_tilde(self, y: np.ndarray, uf: np.ndarray):
        """Six-index studentizer via nested distinctness, of a response y and
        its residuals uf, or of each row of both.

        For each i, A_i sums (y_i - y_k)(y_i - y_k') L_ik L_ik' over k != k'
        (both != i): the square of s_i = (n - 1) uf_i less
        Q_i = sum_k (y_i - y_k)^2 L_ik^2, which is expanded with L∘L (built
        on the first call and kept, with the tiles or dense matrix of its
        block products). A_i of an
        observation with fewer than two neighbours is an empty sum, so it
        is set to exactly zero. The cross-restrictions tying k, k' to the
        other pair's indices are dropped, which costs an O(1/n) deviation
        from the exact arrangement average. Can be negative in finite
        samples.
        """
        self._require_n(7, "var_tilde")
        n = self.n
        y = centred(y, self.L)
        if self._L2 is None:
            self._L2 = self.L.squared()
        L2 = self._L2
        y2 = y * y
        Q = y2 * L2.row_sums - 2.0 * y * L2.product(y) + L2.product(y2)
        A = ((n - 1) * uf) ** 2 - Q
        A[..., self.L.degree < 2] = 0.0
        total = _dots(A, self.M2.product(A))
        denom = float(math.perm(n, 2)) * (n - 2) ** 2 * (n - 3) ** 2
        return 2.0 * self.h_power * total / denom


class CvmEngine:
    """Componentwise-dominance indicator matrix for the marked-process statistic."""

    def __init__(self, d: Dataset):
        # E[i, j] = 1 iff observation j is componentwise <= observation i,
        # built a column at a time so no n-by-n-by-(p+q) array is held
        below = np.ones((d.n, d.n), dtype=bool)
        for col in np.hstack([d.w, d.x]).T:
            below &= col[None, :] <= col[:, None]
        self.E = below.astype(float)

    def statistic(self, uf: np.ndarray):
        """The CvM statistic of a residual vector uf, or of each row of uf."""
        inner = uf @ self.E.T
        return _dots(inner, inner)


def fisher_min_n(p: int, q: int) -> int:
    """Fewest observations the F-test of q columns beside p takes: one
    residual degree of freedom."""
    return p + q + 2


def fisher_test(d: Dataset, alpha: float) -> tuple[float, bool]:
    """F-test of the x coefficients in a linear regression of y on (1, w, x)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n, p, q = d.n, d.p, d.q
    if q < 1:
        raise ValueError("F-test needs at least one x column")
    if n < fisher_min_n(p, q):
        raise ValueError(f"F-test needs n > 1 + p + q (n={n}, p={p}, q={q})")
    df2 = n - 1 - p - q
    ones = np.ones((n, 1))
    z0 = np.hstack([ones, d.w])
    z1 = np.hstack([ones, d.w, d.x])
    beta1, _, rank, _ = np.linalg.lstsq(z1, d.y, rcond=None)
    if rank < z1.shape[1]:  # e.g. a discrete x column that is constant
        raise DegenerateStatisticError("F-test design matrix is rank deficient", cause="observed")
    rss0 = float(np.sum(np.square(d.y - z0 @ np.linalg.lstsq(z0, d.y, rcond=None)[0])))
    rss1 = float(np.sum(np.square(d.y - z1 @ beta1)))
    scale = float(np.dot(d.y, d.y)) + 1.0
    if rss1 <= 1e-12 * scale:
        # exact fit under the full model: infinite F unless the restricted
        # model already fits exactly too
        if rss0 - rss1 <= 1e-12 * scale:
            return 0.0, False
        return math.inf, True
    f = ((rss0 - rss1) / q) / (rss1 / df2)
    from scipy.special import fdtri  # imported here so the package loads without scipy

    crit = float(fdtri(q, df2, 1.0 - alpha))
    return f, f > crit
