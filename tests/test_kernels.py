import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import npsigtest.kernels as kernels
from npsigtest.bootstrap import TestConfig, run_test
from npsigtest.data import ColumnKind, Dataset, all_continuous
from npsigtest.designs import LMP, LMP_ASYM, LV
from npsigtest.kernels import (
    Bandwidths,
    PairWeights,
    default_bandwidths,
    joint_x_kernel_matrix,
    mixed_kernel_matrix,
    psi_matrix,
    psi_profile,
)
from npsigtest.oracles import eval_kernel, eval_mixed_kernel, eval_psi
from npsigtest.simulation import Cell, DgpSpec, ExperimentConfig, run_experiment
from npsigtest.smoother import compute_smoother
from npsigtest.statistics import StatEngine

from conftest import force_forms, make_dataset


def all_pairs(n):
    """Weight 1 on every pair i != j."""
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    return PairWeights(n, rows, cols, np.ones(len(rows)), np.arange(n), np.arange(n))


class TestEvalKernel:
    def test_at_zero(self):
        assert eval_kernel(np.zeros(3)) == pytest.approx(0.75)

    def test_support_boundary(self):
        assert eval_kernel(np.array([1.0, 0.0])) == 0.0

    def test_half_norm(self):
        assert eval_kernel(np.array([0.5])) == pytest.approx(0.5625)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_even_and_compact(self, coords):
        u = np.array(coords)
        v = eval_kernel(u)
        assert v == eval_kernel(-u)
        assert v >= 0.0
        if float(np.linalg.norm(u)) >= 1.0:
            assert v == 0.0


class TestMixedKernel:
    def test_all_continuous_reduces(self):
        assert eval_mixed_kernel(np.zeros(2), [], 1.0) == pytest.approx(0.75)

    def test_discrete_mismatch_annihilates(self):
        v = eval_mixed_kernel(np.zeros(2), [True, False], 1.0)
        assert v == 0.0

    def test_bandwidth_power(self):
        v = eval_mixed_kernel(np.zeros(1), [True], 0.5)
        assert v == pytest.approx(1.5)

    @given(
        st.lists(st.floats(-2, 2), min_size=1, max_size=3),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_discrete_columns_reduces_exactly(self, coords, h):
        diff = np.array(coords)
        got = eval_mixed_kernel(diff, [], h)
        assert got == h ** (-diff.size) * eval_kernel(diff / h)

    def test_no_continuous_columns(self):
        # distance 0 over no columns: the kernel's peak 0.75 wherever the
        # discrete columns agree, and the diagonal zeroed
        disc = np.array([[0.0], [1.0], [0.0], [1.0]])
        m = mixed_kernel_matrix(disc[:, :0], disc, 0.7).dense()
        want = 0.75 * (disc == disc.T)
        np.fill_diagonal(want, 0.0)
        assert np.array_equal(m, want)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        cont = rng.standard_normal((7, 2))
        disc = rng.integers(0, 2, size=(7, 1)).astype(float)
        m = mixed_kernel_matrix(cont, disc, 0.9).dense()
        for i in range(7):
            assert m[i, i] == 0.0
            for j in range(7):
                if i == j:
                    continue
                expected = eval_mixed_kernel(cont[i] - cont[j], disc[i] == disc[j], 0.9)
                assert m[i, j] == pytest.approx(expected, rel=1e-12)


class TestPsi:
    def test_normal_at_zero(self):
        assert eval_psi("normal", np.zeros(2)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-10
        )

    def test_triangular_at_zero(self):
        # solving for unit second moment puts the triangular peak at 1/sqrt(6)
        assert eval_psi("triangular", np.zeros(1)) == pytest.approx(
            1.0 / math.sqrt(6.0), rel=1e-12
        )

    def test_indicator(self):
        assert eval_psi("indicator", np.zeros(3)) == 1.0
        assert eval_psi("indicator", np.array([0.0, 1.0])) == 0.0

    @pytest.mark.parametrize("family", ["triangular", "normal"])
    def test_density_normalization_and_second_moment(self, family):
        t = np.linspace(-12.0, 12.0, 1_000_001)
        vals = psi_profile(family, t)
        # trapezoid rule, written out (np.trapezoid needs numpy >= 2.0)
        dt = np.diff(t)
        mass = np.sum(dt * (vals[1:] + vals[:-1])) / 2.0
        moment = t * t * vals
        second = np.sum(dt * (moment[1:] + moment[:-1])) / 2.0
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert second == pytest.approx(1.0, abs=1e-6)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(1)
        cont = rng.standard_normal((6, 2))
        disc = rng.integers(0, 2, size=(6, 1)).astype(float)
        # psi weighs the whole x difference, whatever the column kinds and order
        x = np.hstack([disc, cont])
        for family in ("normal", "triangular", "indicator"):
            m = psi_matrix(family, x, all_pairs(6)).dense()
            for i in range(6):
                for j in range(6):
                    if i == j:
                        assert m[i, j] == 0.0
                        continue
                    assert m[i, j] == pytest.approx(
                        eval_psi(family, x[i] - x[j]), rel=1e-12, abs=1e-300
                    )

    @pytest.mark.parametrize("family", ["normal", "triangular", "indicator"])
    def test_empty_x_is_constant(self, family):
        # with no x columns every pair is at distance 0: the density families
        # give their peak psi_profile(f, 0) and the indicator gives 1
        x = np.random.default_rng(3).standard_normal((5, 2))
        want = 1.0 if family == "indicator" else float(psi_profile(family, 0.0))
        m = psi_matrix(family, x[:, :0], all_pairs(5)).dense()
        assert np.array_equal(m, want * (1.0 - np.eye(5)))
        assert eval_psi(family, []) == want

    def test_unknown_family_is_named(self):
        with pytest.raises(ValueError, match="'bogus'"):
            psi_matrix("bogus", np.zeros((3, 1)), all_pairs(3))


class TestJointXKernel:
    def test_empty_x_gives_ones(self):
        m = joint_x_kernel_matrix(np.empty((4, 0)), 0.5, all_pairs(4)).dense()
        assert np.array_equal(m, 1.0 - np.eye(4))

    def test_matches_scaled_kernel(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2))
        h = 0.8
        m = joint_x_kernel_matrix(x, h, all_pairs(5)).dense()
        for i in range(5):
            for j in range(5):
                expected = 0.0 if i == j else h ** -2 * eval_kernel((x[i] - x[j]) / h)
                assert m[i, j] == pytest.approx(expected, rel=1e-12)


class TestBandwidths:
    def test_rule_at_n100(self):
        bw = default_bandwidths(100, 1.0)
        assert bw.g == pytest.approx(0.46416, abs=5e-6)
        assert bw.h == pytest.approx(0.19953, abs=5e-6)

    def test_factor_scales_h_only(self):
        one = default_bandwidths(100, 1.0)
        two = default_bandwidths(100, 2.0)
        assert two.h == pytest.approx(0.39905, abs=5e-6)
        assert two.g == one.g

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            default_bandwidths(100, 0.0)

    def test_nonpositive_bandwidths_rejected(self):
        with pytest.raises(ValueError):
            Bandwidths(g=0.0, h=1.0)


def dense_sq_dists(a):
    diff = a[:, None, :] - a[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def dense_w_kernel(cont, disc, bandwidth):
    """The n-by-n w kernel built densely, by the formula the lists reproduce."""
    s = dense_sq_dists(cont) / (bandwidth * bandwidth)
    m = np.where(s < 1.0, 0.75 * (1.0 - s), 0.0) * bandwidth ** (-cont.shape[1])
    m = m * (disc[:, None, :] == disc[None, :, :]).all(axis=2)
    np.fill_diagonal(m, 0.0)
    return m


def dense_x_weight(weight, x, h):
    if weight == "indicator":
        return (x[:, None, :] == x[None, :, :]).all(axis=2).astype(float)
    if weight == "lv":
        s = dense_sq_dists(x) / (h * h)
        return np.where(s < 1.0, 0.75 * (1.0 - s), 0.0) * h ** (-x.shape[1])
    return psi_profile(weight, np.sqrt(dense_sq_dists(x)))


def count_searches(monkeypatch):
    """The bandwidth of each window search (``kernels._window``) from now on."""
    searches = []
    window = kernels._window

    def counted(cont, disc, bandwidth):
        searches.append(bandwidth)
        return window(cont, disc, bandwidth)

    monkeypatch.setattr(kernels, "_window", counted)
    return searches


class TestPairLists:
    @pytest.mark.parametrize("design", ["continuous", "mixed", "discrete", "signed-zero"])
    @pytest.mark.parametrize("h_over_g", [0.6, 1.0, 1.7])
    @pytest.mark.parametrize("weight", ["normal", "triangular", "indicator", "lv"])
    def test_scatter_equals_dense_build(self, monkeypatch, design, h_over_g, weight):
        # every stored value is the dense formula's, entry for entry, whether
        # the engine filters the smoother's pairs (h <= g) or searches anew
        rng = np.random.default_rng(17)
        n, p_c, p_d = 150, *{
            "continuous": (2, 0), "mixed": (2, 1), "discrete": (0, 2), "signed-zero": (1, 1)
        }[design]
        cont = rng.standard_normal((n, p_c))
        disc = rng.integers(0, 3, size=(n, p_d)).astype(float)
        if design == "signed-zero":
            # -0.0 == 0.0, so the two are one discrete group
            disc[disc == 2.0] = -0.0
        x = rng.standard_normal((n, 2))
        if weight == "indicator":
            x = np.round(x)
        g = 0.5
        h = h_over_g * g
        d = Dataset(
            y=rng.standard_normal(n),
            w=np.hstack([cont, disc]),
            x=x,
            w_kinds=(ColumnKind.CONTINUOUS,) * p_c + (ColumnKind.DISCRETE,) * p_d,
            x_kinds=all_continuous(2),
        )
        sm = compute_smoother(d, g)
        L = sm.pairwise
        assert np.array_equal(L.dense(), dense_w_kernel(cont, disc, g))
        searches = count_searches(monkeypatch)
        M = StatEngine(d, sm, h, "joint" if weight == "lv" else weight).M
        assert searches == ([h] if h > g else [])
        want = dense_w_kernel(cont, disc, h) * dense_x_weight(weight, x, h)
        assert np.array_equal(M.dense(), want)
        # each pair inside the w kernel's support listed once, also where
        # the x weight is 0, by row and then by rank
        for W, bandwidth in ((L, g), (M, h)):
            assert len(W.values) == np.count_nonzero(dense_w_kernel(cont, disc, bandwidth))
            assert np.all(np.diff(W.rows * n + W.rank[W.cols]) > 0)

    @pytest.mark.parametrize("chunk", [1, kernels._CHUNK])
    @pytest.mark.parametrize("p_d", [0, 1])
    @pytest.mark.parametrize("p_c", [1, 2, 3])
    def test_lists_keep_the_search_order(self, monkeypatch, p_c, p_d, chunk):
        # the entries are listed as the window search finds them, row by
        # row and strip by strip, and sorted into no other order: each row's
        # are strictly increasing in the rank of the list order, and they
        # are exactly the dense build's pairs
        rng = np.random.default_rng(37)
        n, bandwidth = 300, 0.6
        cont = rng.standard_normal((n, p_c))
        disc = rng.integers(0, 3, size=(n, p_d)).astype(float)
        force_forms(monkeypatch, chunk=chunk)
        W = mixed_kernel_matrix(cont, disc, bandwidth)
        assert np.all(np.diff(W.rows * n + W.rank[W.cols]) > 0)
        dense = dense_w_kernel(cont, disc, bandwidth)
        assert len(W.values) == np.count_nonzero(dense)
        assert np.array_equal(W.dense(), dense)
        order, _, candidates = kernels._window(cont, disc, bandwidth)
        i, j = (np.concatenate(v) for v in zip(*candidates))
        found = dense[i, j] > 0.0
        assert np.array_equal(W.order, order)
        assert np.array_equal(W.rows, i[found])
        assert np.array_equal(W.cols, j[found])

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 300),
        p_c=st.integers(0, 3),
        p_d=st.integers(0, 2),
        grid=st.sampled_from([0, 1, 2, 8, "g", "h"]),
        duplicates=st.integers(0, 20),
        signed_zero=st.booleans(),
        g=st.one_of(st.floats(0.05, 3.0), st.sampled_from([1e-9, 1e9])),
        h_over_g=st.floats(1e-3, 1.0),
        chunk=st.sampled_from([kernels._CHUNK, 97]),
    )
    @settings(max_examples=150, deadline=None)
    def test_filter_equals_search(
        self, seed, n, p_c, p_d, grid, duplicates, signed_zero, g, h_over_g, chunk
    ):
        # the pairs at h <= g filtered from the pairs at g are the pairs a
        # fresh search at h finds, each row with the same (column, value)
        # pairs, in L's order where the search at h lists them in its own,
        # also when either source is taken a few candidates at a time; a
        # grid of step g or h puts points on the edges of the search's
        # strips, and g far below or above the data's spread finds no pairs
        # or all of them
        rng = np.random.default_rng(seed)
        h = h_over_g * g
        cont = rng.standard_normal((n, p_c))
        if grid:  # coordinates on a grid tie
            step = g if grid == "g" else h if grid == "h" else 1.0 / grid
            cont = np.round(cont / step) * step
        disc = rng.integers(-1, 2, size=(n, p_d)).astype(float)
        if signed_zero and p_d:
            disc[(disc[:, 0] == 0.0) & (rng.random(n) < 0.5), 0] = -0.0
        copies = rng.integers(0, n, size=(min(duplicates, n // 2), 2))
        cont[copies[:, 0]], disc[copies[:, 0]] = cont[copies[:, 1]], disc[copies[:, 1]]
        with pytest.MonkeyPatch.context() as patch:
            force_forms(patch, chunk=chunk)
            L = mixed_kernel_matrix(cont, disc, g)
            filtered = mixed_kernel_matrix(cont, disc, h, within=L)
            searched = mixed_kernel_matrix(cont, disc, h)
        by_pair = [np.lexsort((W.cols, W.rows)) for W in (filtered, searched)]
        for name in ("rows", "cols", "values"):
            got, want = (getattr(W, name)[at] for W, at in zip((filtered, searched), by_pair))
            assert np.array_equal(got, want), name
        assert filtered.order is L.order
        assert np.all(np.diff(L.index_of(filtered.rows, filtered.cols)) > 0)
        # the row blocks' order is by the discrete rows as np.unique(axis=0)
        # ranks them, which groups -0.0 with 0.0, then by the first
        # continuous column; without a second one the search runs in it
        key = np.zeros(n, dtype=complex)
        key.real = np.unique(disc, axis=0, return_inverse=True)[1].reshape(-1)
        key.imag = cont[:, 0] if p_c else 0.0
        assert np.array_equal(searched.block_order, np.argsort(key))
        if p_c <= 1:
            assert np.array_equal(searched.order, searched.block_order)
        for W, bandwidth in ((L, g), (searched, h)):
            assert np.array_equal(W.dense(), dense_w_kernel(cont, disc, bandwidth))
            # every (row, col) is looked up by position: its place, or -1
            place = {(i, j): k for k, (i, j) in enumerate(zip(W.rows, W.cols))}
            rows, cols = (a.ravel() for a in np.indices((n, n)))
            want = np.array([place.get(pair, -1) for pair in zip(rows, cols)])
            assert np.array_equal(W.index_of(rows, cols), want)
            # and its value, 0 where there is none (the place -1 picks the 0
            # appended), as the triple sums look their entries up
            values = np.append(W.values, 0.0)[W.index_of(rows, cols)]
            assert np.array_equal(values, W.dense().ravel())


def slots_besides_own(W):
    """Each row's slots in ``W``'s band table, less the row's own rank
    where its band holds it."""
    rank, low, slots, _, _ = W._band_table()
    own = (rank - low).view(np.uint32) < slots
    return slots.astype(np.intp) - own


class TestBandTable:
    """``index_of`` looks entries up by position in a table of each row's
    band of ranks, which is never larger than the search that found them."""

    @pytest.mark.parametrize("p_c, p_d", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 2)])
    @pytest.mark.parametrize("bandwidth", [0.2, 0.7])
    def test_slots_at_most_the_first_column_window(self, p_c, p_d, bandwidth):
        # a row's slots other than its own are at most the span in the
        # lists' order of the window search's candidates at the same
        # bandwidth, which hold its entries and the row itself; with one
        # strip (one continuous w column) that window is one range of the
        # first column
        rng = np.random.default_rng(29)
        n = 400
        cont = rng.standard_normal((n, p_c))
        disc = rng.integers(0, 3, size=(n, p_d)).astype(float)
        searched = mixed_kernel_matrix(cont, disc, bandwidth)
        filtered = mixed_kernel_matrix(cont, disc, 0.5 * bandwidth, within=searched)
        for W, at in ((searched, bandwidth), (filtered, 0.5 * bandwidth)):
            _, _, candidates = kernels._window(cont, disc, at)
            i, j = (np.concatenate(v) for v in zip(*candidates))
            lowest, highest = np.full(n, n), np.full(n, -1)
            np.minimum.at(lowest, i, W.rank[j])
            np.maximum.at(highest, i, W.rank[j])
            span = highest - lowest
            slots = slots_besides_own(W)
            assert np.all(slots <= span)
            assert slots.sum() <= span.sum()

    def test_all_discrete_w_has_a_slot_per_entry(self):
        rng = np.random.default_rng(31)
        disc = rng.integers(0, 3, size=(300, 2)).astype(float)
        W = mixed_kernel_matrix(np.empty((300, 0)), disc, 0.5)
        assert slots_besides_own(W).sum() == len(W.values)

    def test_lookups_equal_a_dict(self):
        # on one first column with ties, a row's band holds the row when it
        # has neighbours on both sides and not when they lie on one side;
        # an isolated observation has an empty row. Both the search and the
        # filter, whose bands have gaps, are looked up for every (row, col)
        first = np.array([0.0, 0.0, 0.0, 0.3, 0.3, 0.6, 5.0, 9.0, 9.2, 9.2, 9.4, 20.0, 20.0])
        n = len(first)
        cont = np.column_stack([first, 0.05 * np.random.default_rng(41).standard_normal(n)])
        searched = mixed_kernel_matrix(cont, np.zeros((n, 0)), 0.5)
        filtered = mixed_kernel_matrix(cont, np.zeros((n, 0)), 0.25, within=searched)
        rows, cols = (a.ravel() for a in np.indices((n, n)))
        for W in (searched, filtered):
            rank, low, slots, _, _ = W._band_table()
            own = (rank - low).view(np.uint32) < slots
            assert own.any() and (~own & (W.degree > 0)).any() and (W.degree == 0).any()
            place = {(i, j): k for k, (i, j) in enumerate(zip(W.rows, W.cols))}
            want = np.array([place.get(pair, -1) for pair in zip(rows, cols)])
            assert np.array_equal(W.index_of(rows, cols), want)


class TestWithValues:
    def test_shares_the_entries_tables_not_the_values(self):
        # rank, degree and the band and tile tables depend on the entries
        # only; the row sums, the dense matrix and the tiles' values are
        # the new values', so a block product after with_values uses them
        rng = np.random.default_rng(43)
        n = 200
        cont = rng.standard_normal((n, 2))
        y = rng.standard_normal((5, n))
        for products in ("tiles", "dense"):
            with pytest.MonkeyPatch.context() as patch:
                force_forms(patch, products=products)
                W = mixed_kernel_matrix(cont, np.zeros((n, 0)), 0.6)
                W.index_of(W.rows, W.cols)
                before = W.product(y)
                V = W.with_values(2.0 * W.values)
                assert V.rank is W.rank and V.degree is W.degree
                assert V._layouts is W._layouts
                assert V._dense is None and V._tiled is None
                assert np.array_equal(V.row_sums, 2.0 * W.row_sums)
                assert np.array_equal(V.product(y), 2.0 * before)
                assert np.array_equal(W.product(y), before)


class TestSearchesPerSample:
    """The pair search runs once per sample, at g; an engine at h <= g
    filters the smoother's pairs."""

    def test_asymptotic_test(self, monkeypatch):
        searches = count_searches(monkeypatch)
        bw = default_bandwidths(100, 2.0)
        assert bw.h < bw.g
        run_test(make_dataset(5, 100), TestConfig(bandwidths=bw, critical="asymptotic"))
        assert searches == [bw.g]

    def test_monte_carlo_replication(self, monkeypatch):
        # the engines of lmp (shared with lmp-asym) and lv filter L
        searches = count_searches(monkeypatch)
        cell = Cell(DgpSpec(family="continuous", n=100, q=2), c=2.0)
        cfg = ExperimentConfig(
            cells=(cell,), tests=(LMP, LMP_ASYM, LV), replications=1, master_seed=1,
            alpha=0.10, B=19,
        )
        run_experiment(cfg)
        assert searches == [default_bandwidths(100, 2.0).g]

    def test_wider_test_bandwidth_searches_again(self, monkeypatch):
        searches = count_searches(monkeypatch)
        bw = Bandwidths(g=0.5, h=0.8)
        run_test(make_dataset(5, 100), TestConfig(bandwidths=bw, critical="asymptotic"))
        assert searches == [0.5, 0.8]

    @pytest.mark.parametrize("h", [0.5, 0.1])
    def test_one_continuous_w_column_always_filters(self, monkeypatch, h):
        # on one column the window is exact, so a search at h = g / 5 would
        # test about a fifth of L's entries; L is filtered all the same
        searches = count_searches(monkeypatch)
        bw = Bandwidths(g=0.5, h=h)
        d = make_dataset(5, 400, p=1)
        run_test(d, TestConfig(bandwidths=bw, critical="asymptotic"))
        assert searches == [0.5]


@pytest.fixture
def tiles_forced(monkeypatch):
    """Every block product takes the tiles, at any n."""
    force_forms(monkeypatch, products="tiles")


def product_form(W):
    """The form ``PairWeights.product`` takes for a block: tiles or dense."""
    return "dense" if W._tile_layout() is None else "tiles"


class TestTiledProducts:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 300),
        p_c=st.integers(0, 3),
        p_d=st.integers(0, 2),
        bandwidth=st.sampled_from([0.05, 0.3, 0.8, 2.0]),
        filtered=st.booleans(),
        rows=st.sampled_from([1, 7, 64]),
    )
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_tiles_equal_the_dense_product(
        self, tiles_forced, seed, n, p_c, p_d, bandwidth, filtered, rows
    ):
        # on the pairs of a search (or filtered from a wider one), with
        # symmetric values, rows with no entries at a small bandwidth, and n
        # that is mostly not a multiple of the tile
        rng = np.random.default_rng(seed)
        cont = rng.standard_normal((n, p_c))
        disc = rng.integers(0, 3, size=(n, p_d)).astype(float)
        W = mixed_kernel_matrix(cont, disc, bandwidth)
        if filtered:
            W = mixed_kernel_matrix(cont, disc, 0.6 * bandwidth, within=W)
        W = psi_matrix("normal", rng.standard_normal((n, 2)), W)
        y = rng.standard_normal((rows, n))
        assert product_form(W) == "tiles"
        dense = W.dense()
        scale = np.abs(y) @ np.abs(dense)
        assert np.all(np.abs(W.product(y) - y @ dense) <= 1e-13 * scale)
        # the entries' layout is shared by weights with other values
        V = W.squared()
        assert V._tile_layout() is W._tile_layout()
        assert np.all(np.abs(V.product(y) - y @ V.dense()) <= 1e-13 * (np.abs(y) @ V.dense()))

    def test_gather_groups_move_no_bit(self, monkeypatch):
        # every tile is its own GEMM, so the bytes a group of tiles gathers
        # (on the boot-n500 design, 1, 2 and 11 of L's 32 tiles per group)
        # change neither the values of a block product nor their layout
        bw = default_bandwidths(500, 2.0)
        L = compute_smoother(make_dataset(1, 500, q=5), bw.g).pairwise
        assert product_form(L) == "tiles"
        y = np.random.default_rng(4).standard_normal((64, 500))
        products = []
        for budget in (1 << 13, 1 << 17, 1 << 19):
            monkeypatch.setattr(kernels, "_GATHER_BYTES", budget)
            products.append(L.product(y))
        for got in products[1:]:
            assert np.array_equal(got, products[0]) and got.strides == products[0].strides

    def test_block_product_peak(self):
        # a 64-row product with L on the boot-n500 design holds the block
        # transposed, the tiles' output and one group's gather while it
        # multiplies, about 609,000 bytes above its start; the result's
        # gather follows once the transposed block is gone. Kept to the
        # end, that block put a third 64-by-n array at the gather: 774,936
        bw = default_bandwidths(500, 2.0)
        L = compute_smoother(make_dataset(1, 500, q=5), bw.g).pairwise
        assert product_form(L) == "tiles"
        y = np.random.default_rng(4).standard_normal((64, 500))
        L.product(y)  # builds the tiles' values, which L keeps
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            L.product(y)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 650_000

    def test_no_entries(self, tiles_forced):
        W = mixed_kernel_matrix(np.arange(20.0)[:, None], np.empty((20, 0)), 0.5)
        assert len(W.values) == 0 and product_form(W) == "tiles"
        assert np.array_equal(W.product(np.ones((3, 20))), np.zeros((3, 20)))

    def test_rule(self):
        # dense where the neighbourhoods are wide (all-discrete w, or n = 100
        # as in mc-n100), tiles where they are narrow (the boot-n500 design)
        rng = np.random.default_rng(3)
        disc = rng.integers(0, 3, size=(500, 1)).astype(float)
        assert product_form(mixed_kernel_matrix(np.empty((500, 0)), disc, 1.0)) == "dense"
        for n, form in ((100, "dense"), (500, "tiles"), (2000, "tiles")):
            bw = default_bandwidths(n, 2.0)
            sm = compute_smoother(make_dataset(1, n, q=5), bw.g)
            assert product_form(sm.pairwise) == form
            assert product_form(StatEngine(make_dataset(1, n, q=5), sm, bw.h).M) == form

    def test_bootstrap_test_scatters_no_dense_matrix(self, monkeypatch):
        # B = 19 on the boot-n500 design at n = 1000: every block product
        # takes the tiles; what is left is the dense A of the triple sums
        dense = []
        scatter = PairWeights.dense

        def counted(self):
            dense.append(self.n)
            return scatter(self)

        monkeypatch.setattr(PairWeights, "dense", counted)
        n = 1000
        cfg = TestConfig(bandwidths=default_bandwidths(n, 2.0), B=19)
        d = make_dataset(2, n, q=5)
        tracemalloc.start()
        try:
            run_test(d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense == []
        assert peak < 2.0 * 8 * n * n
