"""Smoothing kernels, the pair weight psi for the covariates under test, and
the bandwidth rules.

All kernels are radial: a univariate profile applied to the Euclidean norm of
the (bandwidth-scaled) difference vector. Discrete coordinates contribute
exact-equality indicators instead of being smoothed.

psi is a name from ``PSI_FAMILIES``: ``triangular`` and ``normal`` are bounded
even densities (unit second moment) applied to the norm of the difference;
``indicator`` is the all-coordinates-equal indicator for discrete covariates.

The kernel in w has compact support and a bandwidth that shrinks with n, so
each observation has few neighbours. The builders here therefore return
``PairWeights``: the (row, column, value) lists of the nonzero pair weights.
``mixed_kernel_matrix`` finds the pairs inside the support by sorting on the
first continuous w column, and ``psi_matrix`` and ``joint_x_kernel_matrix``
weigh only those pairs. Every value is computed by the same elementwise
formula a dense n-by-n build would use, so ``PairWeights.dense`` is equal to
it entry for entry.

The scalar kernel at one difference vector is written out independently in
``oracles``, which shares no code with these builders, so the oracle tests
check every kernel value as well as every sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT6 = math.sqrt(6.0)
_NORMAL_C = 1.0 / math.sqrt(2.0 * math.pi)

PSI_FAMILIES = ("triangular", "normal", "indicator")

# candidate pairs (or triples) handled at once; bounds the work arrays
_CHUNK = 1 << 18

# rows of W per block in PairWeights._dense_triple_sums; bounds its work
# arrays at a few blocks of this many rows besides the one dense matrix A
_DENSE_ROWS = 64

# PairWeights.triple_sums sums over lists while it has at most
# n^2 / _TERMS_PER_N2 terms, else densely: on one core a list term cost
# 50-100 ns, and the dense form 5-50 ns per entry of its n-by-n scatter
# (n = 50 to 2000, c = 0.5 to 8); they broke even at n^2/11 to n^2/9 terms.
# The benchmark has a workload on each side (seed 1, c = 2, one BLAS thread,
# best of 7): mc-n100 (3,411 terms against 1,000) and boot-n500 (61,167
# against 25,000), all-continuous, take the dense form, 0.15 and 1.5 ms
# against 0.18 and 4.4 ms for the lists; asym-n2000, whose w has a 3-level
# discrete column, takes the lists (117,576 against 400,000), 6.3 ms
# against 9.0 ms dense
_TERMS_PER_N2 = 10


@dataclass(frozen=True)
class Bandwidths:
    g: float
    h: float
    c: float = 1.0

    def __post_init__(self):
        if not (self.g > 0 and self.h > 0):
            raise ValueError("bandwidths must be positive")


def default_bandwidths(n: int, c: float) -> Bandwidths:
    """Estimation bandwidth n^(-1/6) and test bandwidth c * n^(-2.1/6)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not c > 0:
        raise ValueError("bandwidth factor c must be positive")
    return Bandwidths(g=n ** (-1.0 / 6.0), h=c * n ** (-2.1 / 6.0), c=c)


def _epanechnikov_of_sqnorm(s):
    """0.75 * (1 - s) on s < 1, else 0, where s is the squared norm."""
    return np.where(s < 1.0, 0.75 * (1.0 - s), 0.0)


def psi_profile(psi: str, t):
    """Univariate density profile of a psi family, evaluated at |t| = norm."""
    t = np.abs(np.asarray(t, dtype=float))
    if psi == "triangular":
        # unit-second-moment triangular density: support [-sqrt(6), sqrt(6)]
        return np.maximum(0.0, (1.0 - t / SQRT6)) / SQRT6
    if psi == "normal":
        return _NORMAL_C * np.exp(-0.5 * t * t)
    raise ValueError(f"psi family {psi!r} has no density profile")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over the pairs (s, c)."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _chunks(counts: np.ndarray):
    """Slices of consecutive entries whose counts add up to about _CHUNK."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        stop = int(np.searchsorted(ends, ends[start] - counts[start] + _CHUNK, side="right"))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _rank(order: np.ndarray) -> np.ndarray:
    """The place of each observation in ``order``."""
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    return rank


class PairWeights:
    """A symmetric n-by-n matrix of pair weights with a zero diagonal, held
    as the lists of its entries, every nonzero one among them: ``rows``,
    ``cols`` and ``values``, with (i, j) and (j, i) both listed. ``order``
    lists the observations so that each one's neighbours are close to it
    (the builders' sort), and
    ``rank`` is each observation's place in it. The entries are sorted by
    row, and within a row by the rank of the column.

    ``degree`` and ``row_sums`` (W 1) are taken from the lists once. A
    product with one vector is a gather and an ``np.bincount`` over the
    lists, so it costs O(entries). A product with a block of rows, one
    bootstrap draw per row, goes through the dense matrix instead: it is
    scattered from the lists on first use and kept, and a block is then one
    BLAS product. Which form a product takes is decided in ``product`` and
    nowhere else.
    """

    def __init__(self, n: int, rows, cols, values, order):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.values = values
        self.order = order
        self.rank = _rank(order)
        self.degree = np.bincount(rows, minlength=n)
        self.row_sums = np.bincount(rows, values, n)
        self._keys = None
        self._dense = None

    def with_values(self, values: np.ndarray) -> PairWeights:
        """Weights with the same entries and new values, one per entry."""
        out = PairWeights(self.n, self.rows, self.cols, values, self.order)
        out._keys = self._keys
        return out

    def squared(self) -> PairWeights:
        """The elementwise square W∘W."""
        return self.with_values(self.values * self.values)

    def dense(self) -> np.ndarray:
        """The n-by-n matrix, scattered on first use and kept."""
        if self._dense is None:
            self._dense = np.zeros((self.n, self.n))
            self._dense[self.rows, self.cols] = self.values
        return self._dense

    def product(self, y: np.ndarray) -> np.ndarray:
        """W y for a vector y, or y W for a block of rows."""
        if y.ndim == 1:
            return np.bincount(self.rows, self.values * y[self.cols], self.n)
        return y @ self.dense()

    def index_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The place in the lists of each entry (rows, cols), -1 where there
        is none."""
        if self._keys is None:
            self._keys = self.rows * self.n + self.rank[self.cols]
        if not len(self._keys):
            return np.full(len(rows), -1)
        keys = rows * self.n + self.rank[cols]
        at = np.searchsorted(self._keys, keys)
        np.minimum(at, len(self._keys) - 1, out=at)
        at[self._keys[at] != keys] = -1
        return at

    def values_at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The value of each entry (rows, cols), 0 where there is none (the
        place -1 picks the 0 appended to the values)."""
        return np.append(self.values, 0.0)[self.index_of(rows, cols)]

    def plus(self, other: PairWeights, at: np.ndarray) -> PairWeights:
        """W + V for pair weights V with the same ``order``, each entry
        listed once, given the place ``at`` of each entry of V in W's lists
        (``index_of``)."""
        new = at < 0
        values = self.values.copy()
        values[at[~new]] += other.values[~new]
        if not new.any():
            return self.with_values(values)
        rows = np.concatenate([self.rows, other.rows[new]])
        cols = np.concatenate([self.cols, other.cols[new]])
        by_key = np.argsort(rows * self.n + self.rank[cols])
        values = np.concatenate([values, other.values[new]])[by_key]
        return PairWeights(self.n, rows[by_key], cols[by_key], values, self.order)

    def triple_sums(self, a: PairWeights) -> tuple[np.ndarray, np.ndarray]:
        """The terms W_ij A_ik A_jk summed over k at each entry (i, j) of W,
        which gives W∘(A Aᵀ), and over j at each entry (i, k) of A, which
        gives A∘(W A); each in its list's order. ``a`` has the entries of a
        symmetric pair-weight matrix and the same ``order`` as W.

        Over the lists this enumerates, for each entry (i, j) of W, the
        entries (i, k) of A and looks (j, k) up in A. When that count, the
        sum over i of deg_W(i) deg_A(i), would cost more than the dense form
        (``_dense_triple_sums``), the sums are taken densely instead.
        """
        counts = a.degree[self.rows]
        if counts.sum() * _TERMS_PER_N2 > self.n**2:
            return self._dense_triple_sums(a)
        starts = (np.cumsum(a.degree) - a.degree)[self.rows]
        at_w, at_a = np.zeros(len(self.values)), np.zeros(len(a.values))
        for part in _chunks(counts):
            count = counts[part]
            entry = np.repeat(np.arange(part.stop - part.start), count)
            ik = _ranges(starts[part], count)
            terms = self.values[part][entry] * a.values[ik]
            terms *= a.values_at(self.cols[part][entry], a.cols[ik])
            at_w[part] = np.bincount(entry, terms, len(count))
            at_a += np.bincount(ik, terms, len(at_a))
        return at_w, at_a

    def _dense_triple_sums(self, a: PairWeights) -> tuple[np.ndarray, np.ndarray]:
        """``triple_sums`` by banded dense products.

        The observations are renumbered in ``order``, where each one's
        neighbours are close to it, and A is scattered into one dense
        matrix. W is scattered ``_DENSE_ROWS`` rows at a time, and each
        block's products span only the columns its rows reach: with discrete
        w columns, about one discrete group.
        """
        n, rank = self.n, self.rank
        dense_a = np.zeros((n, n))
        dense_a[rank[a.rows], rank[a.cols]] = a.values
        at_w, at_a = np.zeros(len(self.values)), np.zeros(len(a.values))
        w_starts = np.cumsum(self.degree) - self.degree
        a_starts = np.cumsum(a.degree) - a.degree
        for lo in range(0, n, _DENSE_ROWS):
            block_rows = self.order[lo : lo + _DENSE_ROWS]
            # the entries of W and of A in these rows, renumbered
            w_at = _ranges(w_starts[block_rows], self.degree[block_rows])
            a_at = _ranges(a_starts[block_rows], a.degree[block_rows])
            if not w_at.size or not a_at.size:
                continue
            wi, j = rank[self.rows[w_at]] - lo, rank[self.cols[w_at]]
            ai, k = rank[a.rows[a_at]] - lo, rank[a.cols[a_at]]
            j0, k0, k1 = j.min(), k.min(), k.max() + 1
            band = dense_a[j0 : j.max() + 1, k0:k1]
            block = np.zeros((len(block_rows), len(band)))
            block[wi, j - j0] = self.values[w_at]
            at_a[a_at] = a.values[a_at] * (block @ band)[ai, k - k0]
            a_rows = dense_a[lo : lo + len(block_rows), k0:k1]
            at_w[w_at] = self.values[w_at] * (a_rows @ band.T)[wi, j - j0]
        return at_w, at_a


def _disc_equal(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """True where all discrete coordinates of rows i and j agree exactly."""
    return (a[i] == a[j]).all(axis=1)


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", diff, diff)


def mixed_kernel_matrix(cont: np.ndarray, disc: np.ndarray, bandwidth: float) -> PairWeights:
    """Pair weights h^(-p_c) K((w_i - w_j)/h) times the discrete-equality
    indicator, for i != j.

    The observations are sorted by their discrete group (``np.unique``,
    which groups as ``==`` does) and then by the first continuous column
    (if any). For each observation only those in its discrete group whose
    first coordinate lies within a window slightly wider than the bandwidth
    are tested, ``_CHUNK`` candidates at a time, with the dense formula:
    squared distance / (h * h) < 1. The window never leaves the group, so
    every candidate has equal discrete columns.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    n, p_c = cont.shape
    first = cont[:, 0] if p_c else np.zeros(n)
    # complex numbers order by real part, then imaginary part
    key = np.zeros(n, dtype=complex)
    if disc.shape[1]:
        key.real = np.unique(disc, axis=0, return_inverse=True)[1].reshape(-1)
    key.imag = first
    order = np.argsort(key)
    key = key[order]
    # wide enough that rounding in the distance never drops a pair inside
    # the support; the exact test below removes any extra candidate
    reach = 1j * (bandwidth * (1.0 + 1e-9) + 1e-12 * float(np.abs(first).max(initial=0.0)))
    lo = np.searchsorted(key, key - reach, side="left")
    counts = np.searchsorted(key, key + reach, side="right") - lo
    rank = _rank(order)
    starts, counts = lo[rank], counts[rank]
    scale = bandwidth ** (-p_c)
    found = []
    for part in _chunks(counts):
        i = np.repeat(np.arange(part.start, part.stop), counts[part])
        b = _ranges(starts[part], counts[part])
        j = order[b]
        sq = _sq_norms(cont[i] - cont[j]) / (bandwidth * bandwidth)
        keep = (sq < 1.0) & (i != j)
        found.append((i[keep], j[keep], b[keep], _epanechnikov_of_sqnorm(sq[keep]) * scale))
    i, j, b, values = (np.concatenate(v) for v in zip(*found))
    pairs = PairWeights(n, i, j, values, order)
    # the entries come out by row, and within a row by rank: sorted keys
    pairs._keys = i * n + b
    return pairs


def _nonzero(pairs: PairWeights, values: np.ndarray) -> PairWeights:
    """The entries of ``pairs`` at which ``values`` is nonzero, with those
    values."""
    keep = values != 0.0
    return PairWeights(pairs.n, pairs.rows[keep], pairs.cols[keep], values[keep], pairs.order)


def psi_matrix(psi: str, x: np.ndarray, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times psi of the x difference, evaluated on
    their entries only."""
    if psi not in PSI_FAMILIES:
        raise ValueError(f"unknown psi family {psi!r}")
    i, j = pairs.rows, pairs.cols
    if psi == "indicator":
        weight = _disc_equal(x, i, j).astype(float)
    else:
        weight = psi_profile(psi, np.sqrt(_sq_norms(x[i] - x[j])))
    return _nonzero(pairs, pairs.values * weight)


def joint_x_kernel_matrix(x: np.ndarray, bandwidth: float, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times h^(-q) K((x_i - x_j)/h), evaluated on
    their entries only; ``pairs`` itself when x is empty."""
    if x.shape[1] == 0:
        return pairs
    i, j = pairs.rows, pairs.cols
    s = _sq_norms(x[i] - x[j]) / (bandwidth * bandwidth)
    weight = _epanechnikov_of_sqnorm(s) * bandwidth ** (-x.shape[1])
    return _nonzero(pairs, pairs.values * weight)
