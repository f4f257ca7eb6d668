"""Test statistics over pair weights.

The main statistic is a second-order arrangement average of density-weighted
leave-one-out residual products, taken over pairs (``StatEngine.ihat``) or
with all coinciding-index ("diagonal") terms removed via a four-distinct-index
arrangement average (``StatEngine.itilde``). Two studentizations are
provided, plus the competitor statistics used in the experiments: a
jointly-smoothed variant (``StatEngine`` with ``psi="joint"``), a Cramer-von-Mises
functional of the marked residual process (``CvmEngine``), and an F-test
against a linear specification (``fisher_test``), which rejects where the
F distribution's tail probability of its statistic (``f_tail``, a continued
fraction in ``math``) is below alpha.

Every statistic is a quadratic form in the response, over the kernel weights
L and the test weights M = K_h(w)∘psi, which ``kernels.PairWeights`` holds as
lists of the few pairs inside the w kernel's support. Each reads the
leave-one-out residuals uf of the response (``smoother.recompute_uf``, its
one product with L) and has one body for one vector or a block of them, one
per row, so the observed data and the wild-bootstrap draws go through the
same code: a vector is summed over the lists, a block by BLAS products with
the tiles of each matrix that hold its entries, or with the dense matrix
where its neighbourhoods are wide (``PairWeights.product``). ``itilde``'s
coefficient lists are built once per engine, from sums over the triples
(i, j, k) that M and L connect. The oracles pin both shapes at 1e-10
relative for n = 6, 8, 10.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .data import ColumnKind, Dataset, response_exponent
from .kernels import PairWeights, joint_x_kernel_matrix, mixed_kernel_matrix, psi_matrix
from .smoother import SmootherOutput, centred

# fewest observations of the four-distinct-index itilde
ITILDE_MIN_N = 5
# the smallest normal float: a variance below it has lost significant bits
# to underflow, and studentizes like 0
_TINY = np.finfo(float).tiny
# terms of the F tail's continued fraction before it gives up: F-tests of
# up to 30 x columns and 1e8 residual degrees of freedom took at most 42,
# at every f from the 1e-9 quantile to a tail of 1e-12
_FRACTION_MAX_TERMS = 10_000


class DegenerateStatisticError(RuntimeError):
    """Raised when a test cannot be standardized (a variance that is not a
    finite normal float, or a standardized value that is not finite), when
    ``dgm``'s statistic is not finite, when ``itilde`` is 0 for every
    response (``StatEngine.itilde_vanishes``) or, for the F-test, when its
    design matrix is rank deficient.

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
    """n h^(p_c/2) I_n / omega_n, elementwise; NaN marks a degenerate value:
    a variance that is not a finite normal float (0, a value underflowed
    into the subnormals, or an overflow to inf), or a standardized value
    that is not finite."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        t = n * h ** (p_c / 2.0) * i_n / np.sqrt(omega2)
    return np.where((omega2 >= _TINY) & (omega2 < math.inf) & np.isfinite(t), t, math.nan)


def rate_dimension(p_cont: int, q: int, weight: str) -> int:
    """The power of h in an engine's studentization: the continuous w
    columns, and for the ``"joint"`` weight (``lv``, which smooths x with
    w) the q x columns as well."""
    return p_cont + q if weight == "joint" else p_cont


def check_bandwidth(h: float, rate_dim: int) -> None:
    """Refuse a test bandwidth h at which h**k or h**-k overflows a float,
    k = max(2 rate_dim, 2): an engine of that rate dimension divides by
    h * h, and its M∘M carries h**-(2 rate_dim), which overflows where h is
    small and falls below the normal floats where h**(2 rate_dim)
    overflows."""
    k = max(2 * rate_dim, 2)
    for power in (k, -k):
        try:
            h**power
        except OverflowError:
            remedy = "smaller" if power > 0 else "larger"
            raise ValueError(
                f"the test bandwidth h = {h:.6g} is out of range: h**{power} overflows "
                f"a float; choose a {remedy} bandwidth factor c (--c, or --cs of simulate)"
            ) from None


def _reached(L: PairWeights, M: PairWeights, at: np.ndarray) -> np.ndarray:
    """Whether an arrangement reaches each entry (i, j) of M, whose place in
    L's lists is ``at`` (-1 where L has no such entry).

    The entry feeds ``itilde`` through the k != l outside {i, j} with
    L_ik L_jl != 0. There is none when i or j has no neighbour besides the
    other, or when each has exactly one and it is the same one.
    """
    linked = at >= 0
    i_others = L.degree[M.rows] - linked
    j_others = L.degree[M.cols] - linked
    # with the link taken out, the sum of an observation's neighbours is
    # its one other neighbour
    sums = np.bincount(L.rows, L.cols, L.n)
    same = sums[M.rows] - M.cols * linked == sums[M.cols] - M.rows * linked
    return (i_others > 0) & (j_others > 0) & ((i_others > 1) | (j_others > 1) | ~same)


class StatEngine:
    """Pair-weight workspace for repeated statistic evaluation.

    Builds the test weights M once (the w kernel at bandwidth h times the
    pair weight ``psi``: a name from ``PSI_FAMILIES``, or ``"joint"``, the
    x kernel at the same bandwidth that ``lv`` smooths with), on the pairs
    inside the w kernel's support only, every one of them: psi reweighs
    them and drops none, also where it is 0. When h <= g those pairs are a
    subset of the smoother's L, so they are filtered from L's entries
    rather than searched for again (``mixed_kernel_matrix``), with the same
    result; a wider h searches anew, and finds all of L's pairs among
    others. An h at which a power the engine takes overflows a float is
    refused (``check_bandwidth``). Every statistic reads the residuals uf
    of a response, or of each row of a block; ``itilde`` and ``var_tilde``
    read the response too, and take no product with L.
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
            raise ValueError("LV requires continuous X: take its columns out of --disc")
        self.rate_dim = rate_dimension(d.p_cont, d.q, psi)
        check_bandwidth(h, self.rate_dim)
        self._M_within_L = h <= sm.g
        kmat = mixed_kernel_matrix(w_cont, w_disc, h, sm.pairwise if self._M_within_L else None)
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
        arithmetic (no arrangement has weight, ``itilde_vanishes``) the
        result is the rounding residue of these sums.
        """
        N, Q, diagonal, _ = self._itilde_coefficients()
        y = centred(y, self.L)
        S = (self.n - 1) * uf
        total = _dots(S, self.M.product(S))
        total -= 2.0 * _dots(y, N.product(S) - N.row_sums * S)
        total += _dots(y, Q.product(y))
        total -= _dots(y, diagonal * y)
        return total / float(math.perm(self.n, 4))

    def itilde_vanishes(self) -> bool:
        """Whether ``itilde`` is 0 in exact arithmetic for every response:
        no entry of M of nonzero weight is reached by an arrangement of four
        distinct indices (``_reached``). As computed it is then rounding
        residue, so ``decide_scaled`` decides no test on it."""
        return self._itilde_coefficients()[3]

    def _itilde_coefficients(self):
        """``_itilde_terms``, built on the first call and kept."""
        self._require_n(ITILDE_MIN_N, "itilde")
        if self._itilde is None:
            self._itilde = self._itilde_terms()
        return self._itilde

    def _itilde_terms(self):
        """N, the symmetric Q = 2W - G + H + Hᵀ and the diagonal e + 2 W 1
        of ``itilde``, and whether it vanishes (``itilde_vanishes``). N, W
        and G are listed on M's entries and H on L's. M's entries lie inside
        L's when h <= g, and L's inside M's when h > g, so Q is listed on
        the wider of the two and shares its band table and tiles."""
        n, L, M = self.n, self.L, self.M
        at = L.index_of(M.rows, M.cols)
        vanishes = not M.values[_reached(L, M, at)].any()
        W = np.append(L.values, 0.0)[at]  # L on M's entries, then M∘L∘L
        G, H = M.triple_sums(L)
        e = np.bincount(L.cols, H, n)
        # L is symmetric: the mirror (k, i) of each entry (i, k) is listed
        H += H[L.index_of(L.cols, L.rows)]
        N = M.with_values(M.values * W)
        W *= N.values
        diagonal = e + 2.0 * np.bincount(M.rows, W, n)
        on_M = 2.0 * W - G
        # released before Q is built: with lists as long as a dense matrix
        # is large (all pairs of a few discrete groups), this is the peak
        del W, G
        if self._M_within_L:
            H[at] += on_M
            return N, L.with_values(H), diagonal, vanishes
        in_L = at >= 0
        on_M[in_L] += H[at[in_L]]
        return N, M.with_values(on_M), diagonal, vanishes

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
    """F-test of the x coefficients in a linear regression of y on (1, w, x):
    the statistic f, and whether P(F >= f) < alpha (``f_tail``). y is taken
    times its power of two (``response_exponent``), so f is scale-free; a full
    model fitting within 1e-12 y·y gives inf, or 0 where the restricted does."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    n, p, q = d.n, d.p, d.q
    if q < 1:
        raise ValueError("F-test needs at least one x column")
    if n < fisher_min_n(p, q):
        raise ValueError(f"F-test needs n > 1 + p + q (n={n}, p={p}, q={q})")
    df2 = n - 1 - p - q
    y = np.ldexp(d.y, response_exponent(d.y))
    ones = np.ones((n, 1))
    z0 = np.hstack([ones, d.w])
    z1 = np.hstack([ones, d.w, d.x])
    beta1, _, rank, _ = np.linalg.lstsq(z1, y, rcond=None)
    if rank < z1.shape[1]:  # e.g. a discrete x column that is constant
        raise DegenerateStatisticError("F-test design matrix is rank deficient", cause="observed")
    if np.all(y == y[0]):  # no model explains a constant y, of any size
        return 0.0, False
    rss0 = float(np.sum(np.square(y - z0 @ np.linalg.lstsq(z0, y, rcond=None)[0])))
    rss1 = float(np.sum(np.square(y - z1 @ beta1)))
    exact = 1e-12 * float(np.dot(y, y))
    if rss1 <= exact:
        return (0.0, False) if rss0 - rss1 <= exact else (math.inf, True)
    f = ((rss0 - rss1) / q) / (rss1 / df2)
    return f, f_tail(f, q, df2) < alpha


def f_tail(f: float, d1: int, d2: int) -> float:
    """P(F >= f) for F with (d1, d2) degrees of freedom: the regularized
    incomplete beta function I_x(d2/2, d1/2) at x = d2 / (d2 + d1 f).
    An f <= 0 (rounding can make the restricted fit's rss the smaller)
    gives 1."""
    if not f > 0.0:
        return 1.0
    s = d2 + d1 * f
    # x and 1 - x each from its own quotient, so neither loses digits
    return _beta_reg(d2 / 2.0, d1 / 2.0, d2 / s, d1 * f / s)


def _beta_reg(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) with y = 1 - x, by the continued fraction where it
    converges fast, x < (a + 1) / (a + b + 2), else as 1 - I_y(b, a)."""
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    # log(x^a y^b / B(a, b)), each logarithm taken from the smaller of x
    # and y, which carries the digits
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    big, small = max(a, b), min(a, b)
    log_front = a * log_x + b * log_y + _lgamma_step(big, small) - math.lgamma(small)
    value = math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - value if flip else value


def _lgamma_step(z: float, s: float) -> float:
    """lgamma(z + s) - lgamma(z). Past z = 100 by Stirling's series, in
    which the two large terms that cancel in the plain difference (about
    13,000 at z = 2000) are never formed."""
    if z <= 100.0:
        return math.lgamma(z + s) - math.lgamma(z)

    def tail(t):
        return 1.0 / (12.0 * t) - 1.0 / (360.0 * t**3) + 1.0 / (1260.0 * t**5)

    return (z - 0.5) * math.log1p(s / z) + s * math.log(z + s) - s + tail(z + s) - tail(z)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method;
    it takes O(sqrt(max(a, b))) terms, a few dozen for an F-test's."""
    tiny = 1e-300  # stands in for a zero denominator

    def nonzero(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            fraction *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return fraction
    raise ArithmeticError(f"the F tail's continued fraction did not converge (a={a}, b={b}, x={x})")
