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
``mixed_kernel_matrix`` tests candidate pairs from one of two sources: a
window search, which sorts on the first continuous w column and cuts the
second into strips, or the pairs of the same kernel at a bandwidth at least
as wide, which it filters. A sample is searched once, at the smoother's g,
and the test weights at h <= g filter those pairs, unless a search at h
tests fewer candidates by enough to cost less (``search_is_cheaper``; one
continuous w column at h well below g). ``psi_matrix`` and
``joint_x_kernel_matrix`` weigh only the pairs found. Every value is
computed by the same elementwise formula a dense n-by-n build would use, so
``PairWeights.dense`` is equal to it entry for entry, whichever the source.
An entry is looked up by its position: each row's entries lie in a band of
the search's sort order, and a table of the bands gives an entry's place in
the lists in one gather.

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
# n^2 / _TERMS_PER_N2 terms, else densely: on one core, with the lookup by
# position, a list term cost 26-75 ns from n = 500 up (40-340 ns below, where
# the fixed cost of each call weighs more), and the dense form 2-40 ns per
# entry of its n-by-n scatter (n = 50 to 2000, c = 0.5 to 8); they broke even
# at n^2/2 to n^2/19 terms. The benchmark has a workload on each side (seed
# 1, c = 2, one BLAS thread, best of 7): mc-n100 (3,411 terms against 1,000)
# and boot-n500 (61,167 against 25,000), all-continuous, take the dense form,
# 0.14 and 1.4-1.5 ms against 0.13-0.14 and 1.6 ms for the lists; asym-n2000,
# whose w has a 3-level discrete column, takes the lists (117,576 against
# 400,000), 3.3-3.5 ms against 9.8-10.3 ms dense. A lower constant would move
# mc-n100 and boot-n500 to the lists, which sum in another order, so it waits
# for a rounding-aware degeneracy rule
_TERMS_PER_N2 = 10

# a window search on one continuous w column costs about as much as
# filtering _SEARCH_PER_CANDIDATE entries per candidate it tests, plus
# _SEARCH_PER_ROW per observation (its sort and ranges). Fitted on one
# continuous column, n = 500 and 2000, g/h = 1.25 to 3, one core: the two
# sources broke even at |L| = 2.7 and 1.5 times the search's candidates
_SEARCH_PER_CANDIDATE = 1.25
_SEARCH_PER_ROW = 50

# observations per tile of PairWeights.product
_TILE = 16

# bytes of the block's columns that PairWeights.product gathers for one
# group of tiles: about a core's L2 cache
_GATHER_BYTES = 1 << 19

# PairWeights.product multiplies a block by tiles while
# _VOLUME_PER_N2 * (their padded volume + _TILE_CALL) <= n^2, else by the
# dense matrix. On one core, 64-row blocks, the dense GEMM cost 2-3 ns per
# entry of n^2 (n = 100 to 4000), and the tiles 4-11 ns per entry of their
# volume plus about 10 us a call. They broke even at about n^2/2 from n =
# 1000 up (n = 2000: 8.5 against 9.9 ms at 0.43 n^2, 16 against 9.5 ms at
# 0.55 n^2), and never paid at n = 100 (0.026-0.052 against 0.025-0.029
# ms). On the boot-n500 design (0.18 n^2) L took 0.23 against 0.81 ms; on
# w of one 3-level discrete column (0.66 n^2) tiles took 19 against 10-12
# ms at n = 2000
_VOLUME_PER_N2 = 2.5
_TILE_CALL = 4000


@dataclass(frozen=True)
class Bandwidths:
    g: float
    h: float
    c: float = 1.0

    def __post_init__(self):
        if not (self.g > 0 and self.h > 0):
            raise ValueError("bandwidths must be positive")


def default_bandwidths(n: int, c: float) -> Bandwidths:
    """Estimation bandwidth g = n^(-1/6) and test bandwidth
    h = c * n^(-2.1/6).

    h <= g exactly when c <= n^(1.1/6) (2.0 at n = 44, 2.3 at n = 100, 4.0
    at n = 2000); the test's pair weights are then found by filtering the
    smoother's pairs instead of a second search (``mixed_kernel_matrix``).
    """
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
    (the builders' sort), and ``rank`` is each observation's place in it.
    ``near`` is the window search's finer order in two dimensions (by
    discrete group, strip of the second continuous column, then first
    column), in which the rows of a short run have few neighbours between
    them; it is ``order`` when there is no second continuous column.
    The entries are sorted by row, and within a row by the rank of the
    column, so a row's entries span a band of ranks: ``index_of`` and
    ``values_at`` look an entry up in a table of these bands, built on first
    use and kept.

    ``degree`` and ``row_sums`` (W 1) are taken from the lists once. A
    product with one vector is a gather and an ``np.bincount`` over the
    lists, so it costs O(entries). A product with a block of rows, one
    bootstrap draw per row, is one of two BLAS forms. Where the
    neighbourhoods are narrow it multiplies tiles: runs of ``_TILE`` rows
    in ``near``, each with only the columns its entries touch
    (``_tile_layout``). Elsewhere it multiplies the dense matrix. Either
    is built from the lists on first use and kept; the tables behind the
    band lookup and the tiles depend only on the entries, so weights made
    by ``with_values`` share them. Which form a product takes is decided in
    ``product`` and nowhere else.
    """

    def __init__(self, n: int, rows, cols, values, order, near=None):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.values = values
        self.order = order
        self.near = order if near is None else near
        self.rank = _rank(order)
        self.degree = np.bincount(rows, minlength=n)
        self.row_sums = np.bincount(rows, values, n)
        # tables of the entries, whatever their values: shared by with_values
        self._layouts = {}
        self._dense = None
        self._tiled = None

    def with_values(self, values: np.ndarray) -> PairWeights:
        """Weights with the same entries and new values, one per entry."""
        out = PairWeights(self.n, self.rows, self.cols, values, self.order, self.near)
        out._layouts = self._layouts
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
        """W y for a vector y, or y W for a block of rows: by tiles where
        their padded volume, plus ``_TILE_CALL`` for the cost of a call, is
        at most n^2 / ``_VOLUME_PER_N2``, else by the dense matrix."""
        if y.ndim == 1:
            return np.bincount(self.rows, self.values * y[self.cols], self.n)
        layout = self._tile_layout()
        if layout is None:
            return y @ self.dense()
        cols, place, at = layout
        if self._tiled is None:
            self._tiled = np.zeros((len(cols), _TILE, cols.shape[1]))
            self._tiled.flat[at] = self.values
        # W is symmetric, so y W is (W yᵀ)ᵀ: each tile of rows of W times
        # the rows of yᵀ its columns pick, a group of tiles at a time so
        # that the rows they gather stay in cache
        yt = np.ascontiguousarray(y.T)
        tiles = np.empty((len(cols), _TILE, len(y)))
        step = max(1, _GATHER_BYTES // max(1, 8 * len(y) * cols.shape[1]))
        for lo in range(0, len(cols), step):
            part = slice(lo, lo + step)
            np.matmul(self._tiled[part], np.take(yt, cols[part], axis=0), out=tiles[part])
        return np.take(tiles.reshape(-1, len(y)), place, axis=0).T

    def _tile_layout(self):
        """The tiles of ``product``, or None where the dense product is
        cheaper; built on first use and shared by ``with_values``.

        The observations are cut into tiles of ``_TILE`` consecutive ones in
        ``near``, and each tile keeps the columns its rows' entries touch,
        in increasing order, padded to the widest tile with column 0 (at
        weight 0). Returns each tile's columns, each observation's place in
        ``near`` (its row among the tiles' rows) and the place of each entry
        in the tiles' values, an array of shape (tiles, _TILE, widest).
        """
        if "tiles" not in self._layouts:
            self._layouts["tiles"] = None
            n, count = self.n, -(-self.n // _TILE)

            def pays(volume):
                return (volume + _TILE_CALL) * _VOLUME_PER_N2 <= n * n

            # the tiles hold every entry, so more entries than the volume
            # allows rule them out before any table is built
            if pays(len(self.values)):
                place = _rank(self.near)
                # which (tile, column) pairs hold entries, as one flag each
                # (not np.unique, which loads numpy.ma on its first call)
                key = place[self.rows] // _TILE * n + self.cols
                held = np.zeros(count * n, dtype=bool)
                held[key] = True
                tile, col = np.divmod(np.flatnonzero(held), n)
                widths = np.bincount(tile, minlength=count)
                widest = int(widths.max(initial=0))
                if pays(count * _TILE * widest):
                    slot = np.arange(len(tile)) - (np.cumsum(widths) - widths)[tile]
                    cols = np.zeros((count, widest), dtype=np.intp)
                    cols[tile, slot] = col
                    # each entry's slot: its pair's place among the held ones
                    at = np.cumsum(held, dtype=np.intp)[key] - 1
                    at = place[self.rows] * widest + np.take(slot, at)
                    self._layouts["tiles"] = cols, place, at
        return self._layouts["tiles"]

    def _band_table(self):
        """The table behind ``index_of``, built on first use and kept.

        An entry (i, j) lies d = rank[j] - rank[i] != 0 places from its row
        in ``order``. Its step is d - 1 if d > 0, else d, which leaves no gap
        at the row itself. A row's entries are sorted by rank, so their steps
        span a band of consecutive integers, one slot per step, from the
        first entry's to the last's. Returns each row's lowest step, count
        of slots and first slot, and the place in the lists of the entry in
        each slot (-1 in a slot with no entry, and in one more at the end).

        A row's entries lie in its first-column window, one range of
        ``order`` that holds the row itself, so the row has fewer slots than
        that window has candidates. On all-discrete w, where a row lists all
        of its group, it has as many slots as entries.
        """
        if "band" not in self._layouts:
            n, degree = self.n, self.degree
            steps = self.rank[self.cols] - self.rank[self.rows]
            steps -= steps > 0
            starts = np.cumsum(degree) - degree
            lowest = np.zeros(n, dtype=np.intp)
            slots = np.zeros(n, dtype=np.intp)
            some = degree > 0
            lowest[some] = steps[starts[some]]
            slots[some] = steps[starts[some] + degree[some] - 1] - lowest[some] + 1
            first = np.cumsum(slots) - slots
            at = np.full(int(slots.sum()) + 1, -1, dtype=np.intp)
            at[first[self.rows] + steps - lowest[self.rows]] = np.arange(len(steps))
            self._layouts["band"] = lowest, slots, first, at
        return self._layouts["band"]

    def index_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The place in the lists of each entry (rows, cols), -1 where there
        is none: one gather from ``_band_table``."""
        lowest, slots, first, at = self._band_table()
        steps = np.take(self.rank, cols) - np.take(self.rank, rows)
        offset = steps - (steps > 0) - np.take(lowest, rows)
        inside = (offset >= 0) & (offset < np.take(slots, rows)) & (steps != 0)
        return np.take(at, np.where(inside, np.take(first, rows) + offset, -1))

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
        return PairWeights(self.n, rows[by_key], cols[by_key], values, self.order, self.near)

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
    return (np.take(a, i, axis=0) == np.take(a, j, axis=0)).all(axis=1)


def _sq_norms(diff: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return np.einsum("ij,ij->i", diff, diff)


def _sq_dists(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance between rows i and j of a, pair by pair
    (``np.take`` gathers rows several times faster than ``a[i]``, but
    slower than ``np.zeros`` when a has no columns)."""
    if not a.shape[1]:
        return np.zeros(len(i))
    return _sq_norms(np.take(a, i, axis=0) - np.take(a, j, axis=0))


def _slack(bandwidth: float, column: np.ndarray) -> float:
    """The bandwidth widened so that rounding in the distance never drops a
    pair inside the support, on the magnitude of ``column``; the exact test
    in mixed_kernel_matrix removes any extra candidate."""
    return bandwidth * (1.0 + 1e-9) + 1e-12 * float(np.abs(column).max(initial=0.0))


def _window(cont: np.ndarray, disc: np.ndarray, bandwidth: float):
    """The window search's sort ``order`` of the observations, the order
    ``source`` it searches in (``PairWeights.near``), its candidate pairs
    (i, j), ``_CHUNK`` at a time, and whether they come by row and then by
    the rank of j (else by row only).

    The observations are sorted by their discrete group (``np.unique``,
    which groups as ``==`` does) and then by the first continuous column
    (if any). The candidates of each observation are those in its discrete
    group whose first coordinate lies within a window slightly wider than
    the bandwidth: one range of ``order``. The window never leaves the
    group, so every candidate has equal discrete columns.

    With two or more continuous columns, the second one is also cut into
    strips at least as wide as the window. The strips are numbered by the
    dense rank of floor(w2 / width), so any two observations closer than
    the window lie in the same or adjacent strips, at any bandwidth. A
    second sort by (group, strip, first column) then makes the candidates
    three ranges: the window in the observation's own strip and in the
    strip on each side, which on a spread-out second column holds a few
    times fewer candidates than the window alone. They come strip by strip.
    """
    n, p_c = cont.shape
    first = cont[:, 0] if p_c else np.zeros(n)
    # complex numbers order by real part, then imaginary part
    key = np.zeros(n, dtype=complex)
    if disc.shape[1] == 1:
        # one column sorts as numbers, many times faster than as matrix rows
        key.real = np.unique(disc[:, 0], return_inverse=True)[1]
    elif disc.shape[1]:
        key.real = np.unique(disc, axis=0, return_inverse=True)[1].reshape(-1)
    key.imag = first
    order = np.argsort(key)
    reach = 1j * _slack(bandwidth, first)
    if p_c < 2:
        source = order
        key = key[source]
        centres = key[None, :]
    else:
        second = cont[:, 1]
        strips, strip = np.unique(np.floor(second / _slack(bandwidth, second)), return_inverse=True)
        # (group, strip) as one number, with room for a strip on each side
        # that never reaches the next group
        key.real = key.real * (len(strips) + 2) + strip.reshape(-1) + 1
        source = np.argsort(key)
        key = key[source]
        centres = key + np.array([[-1.0], [0.0], [1.0]])
    # one range per row of centres, each row searched in sorted order, then
    # taken back to the observations' order: (observation, range)
    shape = (len(centres), n)
    lo = np.searchsorted(key, (centres - reach).ravel(), side="left").reshape(shape)
    counts = np.searchsorted(key, (centres + reach).ravel(), side="right").reshape(shape) - lo
    back = _rank(source)
    lo, counts = lo[:, back].T, counts[:, back].T
    per_row = counts.sum(axis=1)

    def candidates():
        for part in _chunks(per_row):
            i = np.repeat(np.arange(part.start, part.stop), per_row[part])
            yield i, source[_ranges(lo[part].ravel(), counts[part].ravel())]

    return order, source, candidates(), p_c < 2


def search_is_cheaper(
    cont: np.ndarray, disc: np.ndarray, bandwidth: float, within: PairWeights
) -> bool:
    """Whether a window search at ``bandwidth`` costs less than filtering the
    pairs ``within`` of a wider one (``mixed_kernel_matrix``).

    On one continuous column (or none) the window at the bandwidth is exact,
    so a search tests about as many candidates as it keeps, while ``within``
    holds about (its bandwidth / this one) times as many. With two or more
    continuous columns the filter is taken.
    """
    if cont.shape[1] > 1:
        return False
    count = _window_count(cont, disc, bandwidth, within.order)
    return _SEARCH_PER_CANDIDATE * count + _SEARCH_PER_ROW * within.n < len(within.values)


def _window_count(cont: np.ndarray, disc: np.ndarray, bandwidth: float, order: np.ndarray) -> int:
    """The number of candidates ``_window`` tests on at most one continuous
    column, from its sort ``order``, which does not depend on the bandwidth.
    There the discrete groups lie in consecutive runs, and a row starts a
    new one where its discrete columns differ (``!=``, which groups as
    ``==`` does) from the row before."""
    key = np.zeros(len(order), dtype=complex)
    if disc.shape[1]:
        sorted_disc = np.take(disc, order, axis=0)
        key.real[1:] = np.cumsum((sorted_disc[1:] != sorted_disc[:-1]).any(axis=1))
    if cont.shape[1]:
        key.imag = np.take(cont[:, 0], order)
    reach = 1j * _slack(bandwidth, key.imag)
    lo = np.searchsorted(key, key - reach, side="left")
    return int((np.searchsorted(key, key + reach, side="right") - lo).sum())


def mixed_kernel_matrix(
    cont: np.ndarray, disc: np.ndarray, bandwidth: float, within: PairWeights | None = None
) -> PairWeights:
    """Pair weights h^(-p_c) K((w_i - w_j)/h) times the discrete-equality
    indicator, for i != j.

    The candidate pairs come from one of two sources. Without ``within``,
    a window search (``_window``) finds them. ``within`` gives the pairs of
    this kernel at a bandwidth at least this one, on the same sample (the
    smoother's L); its entries are then the candidates, as every pair inside
    this support is inside that one (h <= g gives h * h <= g * g under
    correct rounding, so s / (g * g) <= s / (h * h) < 1). Either way each
    candidate gets the dense formula: squared distance / (h * h) < 1, then
    the kernel value. The window's sort ``order`` does not depend on the
    bandwidth, and the entries are listed by row and then by the rank of
    the column in it (the strips' candidates are sorted back to it), so both
    sources list the same entries in the same order, with the same values.
    Filtered weights keep the ``near`` of ``within``.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    n, p_c = cont.shape
    if within is None:
        order, near, candidates, ordered = _window(cont, disc, bandwidth)
    else:
        order, near, ordered = within.order, within.near, True
        candidates = [
            (within.rows[k : k + _CHUNK], within.cols[k : k + _CHUNK])
            for k in range(0, max(len(within.rows), 1), _CHUNK)
        ]
    scale = bandwidth ** (-p_c)
    found = []
    for i, j in candidates:
        sq = _sq_dists(cont, i, j) / (bandwidth * bandwidth)
        # the places of the kept candidates: where few are kept, as in a
        # window on one of several continuous columns, gathering these is
        # several times faster than masking with a boolean array
        keep = np.flatnonzero((sq < 1.0) & (i != j))
        found.append((i[keep], j[keep], _epanechnikov_of_sqnorm(sq[keep]) * scale))
    i, j, values = (np.concatenate(v) for v in zip(*found))
    if not ordered:
        # each row's entries by the rank of the column; no two share a key
        by_key = np.argsort(i * n + _rank(order)[j])
        i, j, values = i[by_key], j[by_key], values[by_key]
    return PairWeights(n, i, j, values, order, near)


def _nonzero(pairs: PairWeights, values: np.ndarray) -> PairWeights:
    """The entries of ``pairs`` at which ``values`` is nonzero, with those
    values."""
    keep = values != 0.0
    return PairWeights(
        pairs.n, pairs.rows[keep], pairs.cols[keep], values[keep], pairs.order, pairs.near
    )


def psi_matrix(psi: str, x: np.ndarray, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times psi of the x difference, evaluated on
    their entries only."""
    if psi not in PSI_FAMILIES:
        raise ValueError(f"unknown psi family {psi!r}")
    i, j = pairs.rows, pairs.cols
    if psi == "indicator":
        weight = _disc_equal(x, i, j).astype(float)
    else:
        weight = psi_profile(psi, np.sqrt(_sq_dists(x, i, j)))
    return _nonzero(pairs, pairs.values * weight)


def joint_x_kernel_matrix(x: np.ndarray, bandwidth: float, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times h^(-q) K((x_i - x_j)/h), evaluated on
    their entries only; ``pairs`` itself when x is empty."""
    if x.shape[1] == 0:
        return pairs
    i, j = pairs.rows, pairs.cols
    s = _sq_dists(x, i, j) / (bandwidth * bandwidth)
    weight = _epanechnikov_of_sqnorm(s) * bandwidth ** (-x.shape[1])
    return _nonzero(pairs, pairs.values * weight)
