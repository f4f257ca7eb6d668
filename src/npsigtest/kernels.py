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
``PairWeights``: the (row, column, value) lists of the pairs inside the w
kernel's support. ``mixed_kernel_matrix`` tests candidate pairs from one of
two sources: a window search, which sorts on the first continuous w column
within strips of the second (one strip where there is no second), or the
pairs of the same kernel at a bandwidth at least as wide, which it filters.
Either way the kept pairs stay in the order their source gives them: by
row, and within a row in the search's order. A sample is searched once, at
the smoother's g, and the test weights at every h <= g filter those pairs.
``psi_matrix`` and ``joint_x_kernel_matrix`` reweigh the pairs found and
drop none. Every value is computed by the same elementwise formula a dense
n-by-n build would use, so ``PairWeights.dense`` is equal to it entry for
entry, whichever the source. An entry is looked up by its position: each
row's entries lie in a band of the search's order, and a table with a slot
for every rank of each band, the row's own included, gives an entry's
place in the lists after one bounds check, in one gather. Every loop over
candidates or list terms takes about ``_CHUNK`` of them at a time (the
triple sums in parts of whole rows), so its work arrays stay a few hundred
kB at any n and the sums do not depend on the part size.

The scalar kernel at one difference vector is written out independently in
``oracles``, which shares no code with these builders, so the oracle tests
check every kernel value as well as every sum.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

SQRT6 = math.sqrt(6.0)
_NORMAL_C = 1.0 / math.sqrt(2.0 * math.pi)

PSI_FAMILIES = ("triangular", "normal", "indicator")

# candidate pairs, or list terms of the triple sums, handled at once: bounds
# the work arrays at a few hundred kB, so they are reused from the heap and
# not mapped afresh each time. On the asym-n2000 design (one core, medians
# of 30 interleaved rounds), budgets of 2^12, 2^13, 2^14, 2^15, 2^16 and
# 2^18 gave the list triple sums 4.6, 4.0, 4.0, 4.3, 6.0 and 7.4 ms, peaks
# of 0.9, 1.2, 1.8, 3.0, 5.4 and 9.2 MB, and 121, 0, 102, 434, 1343 and 2506
# page faults a call; its search at g took 3.5-4.0 ms at every budget. At
# n = 2000 on one continuous or one 3-level discrete w column (0.63 and 1.33
# million entries) the search and the filter were within 15% of their best
# from 2^13 to 2^16
_CHUNK = 1 << 13

# rows of W per block in PairWeights._dense_triple_sums; bounds its work
# arrays at a few blocks of this many rows besides the one dense matrix A
_DENSE_ROWS = 64

# PairWeights.triple_sums sums over lists while it has at most
# n^2 / _TERMS_PER_N2 terms, else densely. On one core (best of 7, n = 50 to
# 2000, c = 0.5 to 8, two continuous w columns with or without a 3-level
# discrete one), with the lists in parts of _CHUNK terms: a list term cost
# 34-69 ns from n = 500 up (up to 190 ns on the sparsest designs, below
# n^2/300 terms, and 50 ns to 7 us below n = 500, where the fixed cost of
# each call weighs more), and the dense form 2.4-74 ns per entry of its
# n-by-n scatter; from n = 500 up they broke even at n^2/1.6 to n^2/48
# terms. The benchmark has a workload on each side (seed 1, c = 2, one BLAS
# thread, best of 7 in each of three rounds): mc-n100 (3,411 terms against
# 1,000) and boot-n500 (61,167 against 25,000), all-continuous, take the
# dense form, 0.23-0.25 and 2.0-2.3 ms against 0.19-0.22 and 2.6-2.9 ms for
# the lists; asym-n2000, whose w has a 3-level discrete column, takes the
# lists (117,576 against 400,000), 5.5-5.8 ms against 11.5-11.8 ms dense. A
# lower constant would move mc-n100 and boot-n500 to the lists, which sum in
# another order, so it waits for a rounding-aware degeneracy rule
_TERMS_PER_N2 = 10

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
    as the lists of its entries, every nonzero one among them and maybe
    some of weight 0 (the pairs of the w kernel that psi weighs 0):
    ``rows``, ``cols`` and ``values``, with (i, j) and (j, i) both listed.
    ``degree`` counts a row's entries of either kind. ``order`` is the
    window search's order of the observations (by discrete group, strip of
    the second continuous column, then first column), in which each one's
    neighbours are close to it and the rows of a short run have few
    neighbours between them; ``rank`` is each observation's place in it.
    The entries are listed by row, and within a row by the rank of the
    column, as the search finds them, so a row's entries span a band of
    ranks: ``index_of`` looks an entry up in a table of these bands
    (``_band_table``), built on first use and kept. ``block_order`` sorts
    the observations by discrete group and first column alone; it orders
    the row blocks of the dense triple sums (``_dense_triple_sums``) and
    nothing else.

    ``degree`` and ``row_sums`` (W 1) are taken from the lists once. A
    product with one vector is a gather and an ``np.bincount`` over the
    lists, so it costs O(entries). A product with a block of rows, one
    bootstrap draw per row, is one of two BLAS forms. Where the
    neighbourhoods are narrow it multiplies tiles: runs of ``_TILE`` rows
    in ``order``, each with only the columns its entries touch
    (``_tile_layout``). Elsewhere it multiplies the dense matrix. Either
    is built from the lists on first use and kept. ``rank``, ``degree`` and
    the tables behind the band lookup and the tiles depend only on the
    entries, so weights made by ``with_values`` share them. Which form a
    product takes is decided in ``product`` and nowhere else.
    """

    def __init__(self, n: int, rows, cols, values, order, block_order):
        self.n = n
        self.rows = rows
        self.cols = cols
        self.values = values
        self.order = order
        self.block_order = block_order
        self.rank = _rank(order)
        self.degree = np.bincount(rows, minlength=n)
        self.row_sums = np.bincount(rows, values, n)
        # tables of the entries, whatever their values: shared by with_values
        self._layouts = {}
        self._dense = None
        self._tiled = None

    def with_values(self, values: np.ndarray) -> PairWeights:
        """Weights with the same entries and new values, one per entry. They
        share ``rank``, ``degree`` and the band and tile tables, which
        depend on the entries only; ``row_sums``, the dense matrix and the
        tiles' values are their own."""
        out = copy.copy(self)
        out.values = values
        out.row_sums = np.bincount(self.rows, values, self.n)
        out._dense = None
        out._tiled = None
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
        ``order``, and each tile keeps the columns its rows' entries touch,
        in increasing order, padded to the widest tile with column 0 (at
        weight 0). Returns each tile's columns, each observation's place in
        ``order`` (its row among the tiles' rows) and the place of each entry
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
                place = self.rank
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

        A row's entries are sorted by the rank of their columns, so they lie
        in a band of ranks, from its first entry's to its last's. The band
        has one slot per rank, the row's own among them where it lies
        inside: that slot, and any other rank with no entry, holds -1.
        Entry (j, k) sits at slot ``first[j] + rank[k] - low[j]``, where
        ``low[j]`` is the rank of row j's first column, if
        ``0 <= rank[k] - low[j] < slots[j]``; an empty row has no slots.
        Returns ``rank``, ``low``, ``slots``, ``first`` and the place in the
        lists of the entry in each slot, after a first slot of -1 to which
        a lookup outside every band is sent. Ranks and lows are int32,
        slots uint32 (an offset viewed as unsigned makes the bounds check
        one compare), and firsts and places int32 below 2^31 slots, which
        covers every n the package accepts.

        A row's entries lie among the candidates of the search that found
        them, ranges of ``order`` in the row's strip and the strips on each
        side, so the row's slots other than its own are at most the span of
        those ranges. On all-discrete w, where a row lists the rest of its
        group, those slots are as many as its entries.
        """
        if "band" not in self._layouts:
            n, degree = self.n, self.degree
            rank = self.rank.astype(np.int32)
            col_rank = np.take(rank, self.cols)
            ends = np.cumsum(degree)
            some = np.flatnonzero(degree)
            low = np.zeros(n, dtype=np.int32)
            slots = np.zeros(n, dtype=np.int32)
            low[some] = col_rank[ends[some] - degree[some]]
            slots[some] = col_rank[ends[some] - 1] - low[some] + 1
            total = int(slots.sum()) + 1
            places = np.int32 if total < 2**31 else np.intp
            first = np.cumsum(slots, dtype=places) - slots + 1
            at = np.full(total, -1, dtype=places)
            at[np.repeat(first - low, degree) + col_rank] = np.arange(len(col_rank), dtype=places)
            self._layouts["band"] = rank, low, slots.view(np.uint32), first, at
        return self._layouts["band"]

    def index_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The place in the lists of each entry (rows, cols), -1 where there
        is none: one bounds check and one gather from ``_band_table``."""
        rank, low, slots, first, at = self._band_table()
        offset = np.take(rank, cols) - np.take(low, rows)
        place = np.take(first, rows) + offset
        # a lookup outside its row's band reads the first slot, -1
        place *= offset.view(np.uint32) < np.take(slots, rows)
        return np.take(at, place)

    def triple_sums(self, a: PairWeights) -> tuple[np.ndarray, np.ndarray]:
        """The terms W_ij A_ik A_jk summed over k at each entry (i, j) of W,
        which gives W∘(A Aᵀ), and over j at each entry (i, k) of A, which
        gives A∘(W A); each in its list's order. ``a`` has the entries of a
        symmetric pair-weight matrix on the same sample as W, and so the
        same ``block_order``; its ``order`` may differ.

        Over the lists this enumerates, for each entry (i, j) of W, the
        entries (i, k) of A and looks (j, k) up in A's band table, as
        ``index_of`` does: row j's low, slots and first slot are gathered
        once per entry of W, and k's rank once per entry of A in the part.
        When the count of terms, the sum over i of deg_W(i) deg_A(i), would
        cost more than the dense form (``_dense_triple_sums``), the sums are
        taken densely instead. Entries of zero weight change no sum: W's are
        skipped, and A's give zero terms over the lists and are skipped by
        the dense form.

        The lists are summed in parts of consecutive whole rows of W, of
        about ``_CHUNK`` terms each (a row with more is a part of its own).
        Every term of an entry (i, j) of W or (i, k) of A comes from row i
        of W, so each part's ``np.bincount`` gives its rows' entries their
        one-pass sums, and writes them to its own range of each list: the
        sums are the same at any budget, and the work arrays are bounded by
        it (or by the terms of the longest row), not by the number of terms.
        """
        counts = np.where(self.values != 0.0, a.degree[self.rows], 0)
        if counts.sum() * _TERMS_PER_N2 > self.n**2:
            return self._dense_triple_sums(a)
        rank, low, slots, first, at = a._band_table()
        # where each row's entries begin in the lists, and where the last ends
        w_bounds = np.append(0, np.cumsum(self.degree))
        a_bounds = np.append(0, np.cumsum(a.degree))
        # A's values and a 0 at the end, which the place -1 (no entry) picks
        a_values = np.append(a.values, 0.0)
        at_w, at_a = np.empty(len(self.values)), np.empty(len(a.values))
        row_terms = np.bincount(self.rows, counts, self.n).astype(np.intp)
        for part in _chunks(row_terms):
            w_part = slice(w_bounds[part.start], w_bounds[part.stop])
            a_part = slice(a_bounds[part.start], a_bounds[part.stop])
            count, j = counts[w_part], self.cols[w_part]
            entry = np.repeat(np.arange(len(count)), count)
            # each term's entry (i, k) of A, counted from the part's first
            ik = _ranges(a_bounds[self.rows[w_part]] - a_part.start, count)
            terms = np.repeat(self.values[w_part], count) * a.values[a_part][ik]
            offset = np.take(rank, a.cols[a_part])[ik] - np.repeat(low[j], count)
            place = np.repeat(first[j], count) + offset
            place *= offset.view(np.uint32) < np.repeat(slots[j], count)
            terms *= np.take(a_values, np.take(at, place))
            at_w[w_part] = np.bincount(entry, terms, len(count))
            at_a[a_part] = np.bincount(ik, terms, a_part.stop - a_part.start)
        return at_w, at_a

    def _dense_triple_sums(self, a: PairWeights) -> tuple[np.ndarray, np.ndarray]:
        """``triple_sums`` by banded dense products.

        The observations are renumbered in ``block_order``, where each
        one's neighbours are close to it along the first column, and A is
        scattered into one dense matrix. W is scattered ``_DENSE_ROWS`` rows
        at a time, and each block's products span only the columns its
        rows' entries of nonzero weight reach: with discrete w columns,
        about one discrete group. Blocked in ``order`` instead, the bands
        of the strips on either side widen each block, which made these
        sums 20% slower at n = 500 and 60% slower at n = 2000 on two
        continuous w columns.
        """
        n, rank = self.n, _rank(self.block_order)
        dense_a = np.zeros((n, n))
        dense_a[rank[a.rows], rank[a.cols]] = a.values
        at_w, at_a = np.zeros(len(self.values)), np.zeros(len(a.values))
        w_starts = np.cumsum(self.degree) - self.degree
        a_starts = np.cumsum(a.degree) - a.degree
        for lo in range(0, n, _DENSE_ROWS):
            block_rows = self.block_order[lo : lo + _DENSE_ROWS]
            # the entries of nonzero weight of W and of A in these rows
            w_at = _ranges(w_starts[block_rows], self.degree[block_rows])
            a_at = _ranges(a_starts[block_rows], a.degree[block_rows])
            w_at, a_at = w_at[self.values[w_at] != 0.0], a_at[a.values[a_at] != 0.0]
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
    """Squared Euclidean distance between rows i and j of a, pair by pair.
    Up to two columns, a column at a time: two squares add up to the same
    sum in either order, so this equals ``_sq_norms`` of the differences,
    and gathering single columns with ``np.take`` is about twice as fast as
    gathering rows."""
    if a.shape[1] > 2:
        diff = np.take(a, i, axis=0)
        diff -= np.take(a, j, axis=0)
        return _sq_norms(diff)
    if not a.shape[1]:
        return np.zeros(len(i))
    sq = None
    for column in a.T:
        diff = np.take(column, i)
        diff -= np.take(column, j)
        diff *= diff
        if sq is None:
            sq = diff
        else:
            sq += diff
    return sq


def _slack(bandwidth: float, column: np.ndarray) -> float:
    """The bandwidth widened so that rounding in the distance never drops a
    pair inside the support, on the magnitude of ``column``; the exact test
    in mixed_kernel_matrix removes any extra candidate."""
    return bandwidth * (1.0 + 1e-9) + 1e-12 * float(np.abs(column).max(initial=0.0))


def _window(cont: np.ndarray, disc: np.ndarray, bandwidth: float):
    """The window search's ``order`` of the observations, its
    ``block_order`` (``PairWeights``), and its candidate pairs (i, j),
    ``_CHUNK`` at a time, by row and then by the rank of j in ``order``.

    The candidates of each observation are those in its discrete group
    whose first continuous coordinate (if any) lies within a window
    slightly wider than the bandwidth. The groups are ranked one discrete
    column at a time with 1-D ``np.unique``, which groups as ``==`` does,
    so they come in the lexicographic order of the columns. The window
    never leaves the group, so every candidate has equal discrete columns.

    The second continuous column (0 where there is none) is cut into strips
    at least as wide as the window. The strips are numbered by the dense
    rank of floor(w2 / width), so any two observations closer than the
    window lie in the same or adjacent strips, at any bandwidth. ``order``
    sorts by (group, strip, first column), which makes the candidates three
    ranges of it: the window in the observation's own strip and in the
    strip on each side, which on a spread-out second column holds a few
    times fewer candidates than the window alone. They come strip by strip,
    so in the order of their rank. Where there is one strip (no second
    continuous column, or one narrower than the window), the ranges on
    either side are empty and ``order`` is ``block_order``, the sort by
    (group, first column).
    """
    n, p_c = cont.shape
    first = cont[:, 0] if p_c else np.zeros(n)
    second = cont[:, 1] if p_c > 1 else np.zeros(n)
    group = np.zeros(n, dtype=np.intp)
    for column in disc.T:
        # the inverse alone: a plain np.unique loads numpy.ma on its first call
        levels, level = np.unique(column, return_inverse=True)
        group = np.unique(group * len(levels) + level, return_inverse=True)[1]
    # complex numbers order by real part, then imaginary part
    key = np.zeros(n, dtype=complex)
    key.real, key.imag = group, first
    block_order = np.argsort(key)
    strips, strip = np.unique(np.floor(second / _slack(bandwidth, second)), return_inverse=True)
    # (group, strip) as one number, with room for a strip on each side
    # that never reaches the next group
    key.real = key.real * (len(strips) + 2) + strip + 1
    order = np.argsort(key)
    key = key[order]
    centres = key + np.array([[-1.0], [0.0], [1.0]])
    reach = 1j * _slack(bandwidth, first)
    # one range per strip side, each searched in sorted order, then taken
    # back to the observations' order: (observation, range)
    shape = (len(centres), n)
    lo = np.searchsorted(key, (centres - reach).ravel(), side="left").reshape(shape)
    counts = np.searchsorted(key, (centres + reach).ravel(), side="right").reshape(shape) - lo
    back = _rank(order)
    lo, counts = lo[:, back].T, counts[:, back].T
    per_row = counts.sum(axis=1)

    def candidates():
        for part in _chunks(per_row):
            i = np.repeat(np.arange(part.start, part.stop), per_row[part])
            yield i, order[_ranges(lo[part].ravel(), counts[part].ravel())]

    return order, block_order, candidates()


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
    the kernel value, which is positive there. The kept pairs stay in the
    order of the candidates: by row, and then by the rank of the column in
    the search's ``order``, which filtered weights take from ``within``.
    Both sources give each row the same entries with the same values; a
    search at this bandwidth lists them in its own strips' order.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    n, p_c = cont.shape
    if within is None:
        order, block_order, candidates = _window(cont, disc, bandwidth)
    else:
        order, block_order = within.order, within.block_order
        candidates = [
            (within.rows[k : k + _CHUNK], within.cols[k : k + _CHUNK])
            for k in range(0, max(len(within.rows), 1), _CHUNK)
        ]
    scale = bandwidth ** (-p_c)
    found = []
    for i, j in candidates:
        sq = _sq_dists(cont, i, j)
        sq /= bandwidth * bandwidth
        inside = sq < 1.0
        if within is None:  # the window holds each row itself; L does not
            inside &= i != j
        # the places of the kept candidates: where few are kept, as in a
        # window on one of several continuous columns, gathering these is
        # several times faster than masking with a boolean array
        keep = np.flatnonzero(inside)
        # the kernel where s < 1, (1 - s) 0.75 h^(-p_c), in place
        value = np.subtract(1.0, sq[keep])
        value *= 0.75
        value *= scale
        found.append((i[keep], j[keep], value))
    i, j, values = (np.concatenate(v) for v in zip(*found))
    return PairWeights(n, i, j, values, order, block_order)


def psi_matrix(psi: str, x: np.ndarray, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times psi of the x difference, evaluated on
    their entries only. Every entry is kept, also where psi is 0, so the
    weights share the entries of ``pairs`` and their tables."""
    if psi not in PSI_FAMILIES:
        raise ValueError(f"unknown psi family {psi!r}")
    i, j = pairs.rows, pairs.cols
    if psi == "indicator":
        weight = _disc_equal(x, i, j).astype(float)
    else:
        # discrete x columns are labels, never rescaled: a distance past
        # the largest float is inf, where psi is 0
        with np.errstate(over="ignore"):
            weight = psi_profile(psi, np.sqrt(_sq_dists(x, i, j)))
    return pairs.with_values(pairs.values * weight)


def joint_x_kernel_matrix(x: np.ndarray, bandwidth: float, pairs: PairWeights) -> PairWeights:
    """The pair weights ``pairs`` times h^(-q) K((x_i - x_j)/h), evaluated on
    their entries only, every one kept as in ``psi_matrix``; ``pairs``
    itself when x is empty."""
    if x.shape[1] == 0:
        return pairs
    i, j = pairs.rows, pairs.cols
    s = _sq_dists(x, i, j) / (bandwidth * bandwidth)
    weight = _epanechnikov_of_sqnorm(s) * bandwidth ** (-x.shape[1])
    return pairs.with_values(pairs.values * weight)
