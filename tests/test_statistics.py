import math
import tracemalloc

import numpy as np
import pytest

import npsigtest.kernels as kernels
from npsigtest.bootstrap import TestConfig, run_test
from npsigtest.data import ColumnKind, Dataset, all_continuous, standardize
from npsigtest.kernels import default_bandwidths
from npsigtest.oracles import (
    OracleTables,
    oracle_decomposition_sides,
    oracle_dgm,
    oracle_ihat,
    oracle_itilde,
    oracle_ols_f,
    oracle_smoother,
    oracle_var_hat,
    oracle_var_tilde,
    oracle_var_tilde_nested,
)
from npsigtest.selfcheck import close, oracle_case, random_dataset
from npsigtest.simulation import DgpSpec, generate
from npsigtest.smoother import compute_smoother, recompute_uf
from npsigtest.statistics import (
    CvmEngine,
    DegenerateStatisticError,
    StatEngine,
    f_tail,
    fisher_test,
    normal_upper_quantile,
    studentize,
)

from conftest import force_forms, make_dataset, record_forms

# every test runs in each form of the pair-weight sums (conftest.FORMS)
pytestmark = pytest.mark.usefixtures("form")


def constant_response_case(n=8):
    rng = np.random.default_rng(77)
    d = Dataset(
        y=np.full(n, 1.5),
        w=rng.standard_normal((n, 2)),
        x=rng.standard_normal((n, 1)),
        w_kinds=all_continuous(2),
        x_kinds=all_continuous(1),
    )
    sd = standardize(d)
    return sd, compute_smoother(sd, 1.5)


def close_in_both_shapes(method, args, want):
    """method of the vectors args, and of each of them stacked twice as
    rows, is close to want."""
    rows = method(*(np.stack([v, v]) for v in args))
    return close(method(*args), want) and all(close(got, want) for got in rows)


class TestOracleEquivalence:
    def test_the_form_is_taken(self, form, monkeypatch):
        # at the oracles' n the chosen form takes the dense triple sums and
        # dense block products, and the forced form the lists and the
        # tiles: a fork that stopped reading its constant would make the
        # forced form test the chosen one again
        taken = record_forms(monkeypatch)
        _, sd, sm, bw, _ = oracle_case(1, 8, 1, "normal")
        eng = StatEngine(sd, sm, bw.h)
        rows = np.stack([sd.y, sd.y[::-1]])
        ufs = recompute_uf(sm.pairwise, rows)
        eng.itilde(rows, ufs)
        eng.var_hat(ufs)
        eng.var_tilde(rows, ufs)
        forced = form == "forced"
        assert taken["triples"] == ["lists" if forced else "dense"]
        assert taken["products"] == {"tiles" if forced else "dense"}

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_battery(self, seed, n):
        psi_family = ("normal", "triangular", "indicator")[seed % 3]
        q = 1 + seed % 2
        _, sd, sm, bw, tables = oracle_case(seed, n, q, psi_family)
        eng = StatEngine(sd, sm, bw.h, psi=psi_family)
        assert close_in_both_shapes(eng.ihat, (sm.uf,), oracle_ihat(tables))
        assert close_in_both_shapes(eng.itilde, (sd.y, sm.uf), oracle_itilde(tables))
        assert close_in_both_shapes(eng.var_hat, (sm.uf,), oracle_var_hat(tables, sm.uf))

    def test_lv_against_joint_oracle(self):
        for seed in (5, 6):
            _, sd, sm, bw, _ = oracle_case(seed, 8, 2, "normal")
            joint = OracleTables(sd, bw.g, bw.h, "joint")
            lv = StatEngine(sd, sm, bw.h, "joint")
            assert close(lv.itilde(sd.y, sm.uf), oracle_itilde(joint))

    def test_decomposition_identity_brute_force(self):
        for seed in (100, 101, 102):
            _, sd, sm, bw, tables = oracle_case(seed, 8, 1, "normal")
            lhs, rhs = oracle_decomposition_sides(tables)
            assert close(lhs, rhs)

    def test_itilde_constant_x_indicator_psi(self):
        # constant x under the indicator weight makes psi identically one,
        # so the decomposition path must agree with the enumeration oracle
        # of the bare arrangement sum
        base = make_dataset(40, 8, q=1)
        d = Dataset(
            y=base.y,
            w=base.w,
            x=np.ones((8, 1)),
            w_kinds=base.w_kinds,
            x_kinds=(ColumnKind.DISCRETE,),
        )
        sd = standardize(d)
        sm = compute_smoother(sd, 1.5)
        psi = "indicator"
        tables = OracleTables(sd, 1.5, 1.2, psi=psi)
        got = StatEngine(sd, sm, 1.2, psi=psi).itilde(sd.y, sm.uf)
        assert close(got, oracle_itilde(tables))

    def test_var_tilde_matches_its_defining_sum(self):
        for seed in (7, 8, 9):
            _, sd, sm, bw, tables = oracle_case(seed, 8, 1, "normal")
            eng = StatEngine(sd, sm, bw.h)
            want = oracle_var_tilde_nested(tables)
            assert close_in_both_shapes(eng.var_tilde, (sd.y, sm.uf), want)

    def test_var_tilde_vs_exact_arrangement_average(self):
        # the production path relaxes cross-index constraints, so at n = 8
        # it only tracks the exact six-index average loosely; both must
        # vanish together and stay on a common scale
        _, sd, sm, bw, tables = oracle_case(10, 8, 1, "normal")
        eng = StatEngine(sd, sm, bw.h)
        fast = eng.var_tilde(sd.y, sm.uf)
        exact = oracle_var_tilde(tables)
        scale = eng.var_hat(sm.uf)
        assert abs(fast - exact) <= 5.0 * scale


# the forms of the triple sums behind the coefficients of itilde: dense,
# over the lists, or over the lists in parts of one row each (a budget of 1
# term: the search and the filter then take one row, or one candidate, at a
# time too)
TRIPLES = {
    "lists": {"triples": "lists"},
    "dense": {"triples": "dense"},
    "row-parts": {"triples": "lists", "chunk": 1},
}


def edge_case(name):
    """A sample of a shape the random oracle cases rarely produce, with its
    bandwidths (g, h)."""
    rng = np.random.default_rng(91)
    n = {"n5": 5, "n7": 7}.get(name, 9)
    w = rng.standard_normal((n, 2))
    w_kinds = all_continuous(2)
    g, h = 1.5, 1.2
    if name == "isolated":
        w[0] = (40.0, 40.0)
        g, h = 1.0, 0.8
    elif name == "duplicated":
        w[1::2] = w[0:-1:2]  # pairs of equal w rows: squared distance 0
    elif name == "discrete_w":
        w[:, 1] = rng.integers(0, 2, size=n)
        w_kinds = (ColumnKind.CONTINUOUS, ColumnKind.DISCRETE)
    elif name == "wide_h":
        g, h = 0.9, 1.8  # M has pairs that L does not
    d = Dataset(
        y=w[:, 0] + rng.standard_normal(n),
        w=w,
        x=rng.standard_normal((n, 1)),
        w_kinds=w_kinds,
        x_kinds=all_continuous(1),
    )
    return standardize(d), g, h


class TestListPathEdgeCases:
    @pytest.mark.parametrize(
        "name", ["isolated", "duplicated", "discrete_w", "wide_h", "n5", "n7"]
    )
    @pytest.mark.parametrize("triples", ["lists", "dense", "row-parts"])
    def test_vector_statistics_match_oracles(self, name, triples, monkeypatch):
        # the statistics over the pair lists, with the triple sums behind
        # the coefficients of itilde forced onto each of their forms;
        # itilde also on a block of two rows
        force_forms(monkeypatch, **TRIPLES[triples])
        sd, g, h = edge_case(name)
        sm = compute_smoother(sd, g)
        if name == "isolated":
            assert sm.fhat[0] == 0.0 and np.all(sm.fhat[1:] > 0.0)
        tables = OracleTables(sd, g, h)
        # fhat, rhat (NaN where fhat is 0) and uf from the same list sums
        for got, want in zip((sm.fhat, sm.rhat, sm.uf), oracle_smoother(sd, g)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, equal_nan=True)
        eng = StatEngine(sd, sm, h)
        y = sd.y
        assert close(eng.ihat(sm.uf), oracle_ihat(tables))
        assert close_in_both_shapes(eng.itilde, (y, sm.uf), oracle_itilde(tables))
        assert close(eng.var_hat(sm.uf), oracle_var_hat(tables, sm.uf))
        if sd.n >= 7:
            assert close(eng.var_tilde(y, sm.uf), oracle_var_tilde_nested(tables))

    def test_all_discrete_w_holds_less_than_the_dense_build(self):
        # dense n-by-n pair weights peaked at 6.03 matrices on this sample
        # (6.04 at n = 400 and 6.01 at n = 1000); the lists hold the pairs
        # of each discrete group, and at most one dense matrix for the
        # triple sum of itilde
        n = 600
        rng = np.random.default_rng(5)
        w = rng.integers(0, 3, size=(n, 1)).astype(float)
        d = Dataset(
            y=w[:, 0] + rng.standard_normal(n),
            w=w,
            x=rng.standard_normal((n, 2)),
            w_kinds=(ColumnKind.DISCRETE,),
            x_kinds=all_continuous(2),
        )
        cfg = TestConfig(
            bandwidths=default_bandwidths(n, 2.0), variance="var_tilde", critical="asymptotic"
        )
        tracemalloc.start()
        try:
            run_test(d, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * 8 * n * n


def without_zeros(W):
    """The pair weights W without its entries of zero weight."""
    keep = W.values != 0.0
    return kernels.PairWeights(
        W.n, W.rows[keep], W.cols[keep], W.values[keep], W.order, W.block_order
    )


class TestZeroWeightEntries:
    """psi and lv's x kernel reweigh the pairs of the w kernel at h and drop
    none, so M holds entries of zero weight."""

    @pytest.mark.parametrize("h_over_g", [0.6, 1.7])
    @pytest.mark.parametrize("weight", ["normal", "triangular", "indicator", "lv"])
    def test_q_takes_the_wider_entries(self, weight, h_over_g):
        # M's entries lie inside L's when h <= g, and L's inside M's when
        # h > g; Q takes the wider entries, with their band table and tiles
        rng = np.random.default_rng(43)
        n, g = 150, 0.5
        x = rng.standard_normal((n, 2))
        d = Dataset(
            y=rng.standard_normal(n),
            w=np.hstack([rng.standard_normal((n, 2)), rng.integers(0, 2, (n, 1))]),
            x=np.round(x) if weight == "indicator" else x,
            w_kinds=all_continuous(2) + (ColumnKind.DISCRETE,),
            x_kinds=all_continuous(2),
        )
        sm = compute_smoother(d, g)
        eng = StatEngine(d, sm, h_over_g * g, "joint" if weight == "lv" else weight)
        eng.itilde(d.y, sm.uf)
        Q = eng._itilde[1]
        wider, narrower = (eng.L, eng.M) if h_over_g <= 1.0 else (eng.M, eng.L)
        assert np.all(wider.index_of(narrower.rows, narrower.cols) >= 0)
        assert Q.rows is wider.rows and Q.cols is wider.cols
        assert Q._layouts is wider._layouts

    @staticmethod
    def weights_with_zeros():
        """W (psi on the w kernel's pairs) and A (the w kernel at a wider
        bandwidth), each with explicit zeros among its entries."""
        rng = np.random.default_rng(47)
        n = 200
        cont = rng.standard_normal((n, 2))
        disc = rng.integers(0, 3, size=(n, 1)).astype(float)
        A = kernels.mixed_kernel_matrix(cont, disc, 0.6)
        W = kernels.mixed_kernel_matrix(cont, disc, 0.4, within=A)
        W = kernels.psi_matrix("indicator", rng.integers(0, 2, size=(n, 1)), W)
        A = A.with_values(A.values * (rng.random(len(A.values)) < 0.8))
        assert 0 < np.count_nonzero(W.values) < len(W.values)
        assert 0 < np.count_nonzero(A.values) < len(A.values)
        return W, A

    @pytest.mark.parametrize("triples", ["lists", "dense", "row-parts"])
    def test_triple_sums_skip_them(self, triples, monkeypatch):
        # explicit zeros in W and in A leave every sum of the other entries
        # as it is, bit for bit, and give their own entries sums of 0
        W, A = self.weights_with_zeros()
        force_forms(monkeypatch, **TRIPLES[triples])
        at_w, at_a = W.triple_sums(A)
        want_w, want_a = without_zeros(W).triple_sums(without_zeros(A))
        assert np.array_equal(at_w[W.values != 0.0], want_w)
        assert np.array_equal(at_a[A.values != 0.0], want_a)
        assert not at_w[W.values == 0.0].any() and not at_a[A.values == 0.0].any()

    def test_dense_bands_skip_them(self, monkeypatch):
        # each block of the dense triple sums multiplies only the band of
        # the scattered A that its entries of nonzero weight reach: explicit
        # zeros leave every band's extent, and so its cost, as it is. The
        # sums alone do not tell: padding a product with zeros moves no bit.
        def bands(w, a):
            seen = []

            class Spy(np.ndarray):
                def __getitem__(self, key):
                    if isinstance(key, tuple) and all(isinstance(k, slice) for k in key):
                        seen.append(tuple((int(k.start), int(k.stop)) for k in key))
                    return np.asarray(super().__getitem__(key))

            class SpyingNumpy:
                # numpy, but the n-by-n scatter of A records its slices
                def __getattr__(self, name):
                    return getattr(np, name)

                def zeros(self, shape, *args, **kwargs):
                    out = np.zeros(shape, *args, **kwargs)
                    return out.view(Spy) if shape == (w.n, w.n) else out

            with monkeypatch.context() as patch:
                patch.setattr(kernels, "np", SpyingNumpy())
                w._dense_triple_sums(a)
            return seen

        W, A = self.weights_with_zeros()
        seen = bands(W, A)
        assert seen and seen == bands(without_zeros(W), without_zeros(A))


class TestTripleSumParts:
    """The list form of the triple sums runs in parts of whole rows of W,
    of about ``_CHUNK`` terms each."""

    @staticmethod
    def clustered_weights():
        """300 spread observations with a few neighbours each, and a tight
        cluster of 40 whose rows have 39 * 39 terms each."""
        rng = np.random.default_rng(53)
        cont = np.vstack([20.0 * rng.random((300, 2)), 30.0 + 1e-3 * rng.standard_normal((40, 2))])
        W = kernels.mixed_kernel_matrix(cont, np.zeros((340, 0)), 0.5)
        A = kernels.mixed_kernel_matrix(cont, np.zeros((340, 0)), 0.7)
        return W, A

    @pytest.mark.parametrize("budget", [1, 97, kernels._CHUNK])
    @pytest.mark.parametrize("design", ["clustered", "zeros"])
    def test_equal_to_sequential_sums(self, monkeypatch, design, budget):
        # each sum is taken term by term in list order, W's entries of
        # zero weight skipped: for each entry (i, j) of W in turn, and each
        # entry (i, k) of A in turn, (W_ij * A_ik) * A_jk is added to the
        # sums of (i, j) and (i, k), A_jk read from a dict (0 where A has
        # no such entry). Any other order of the additions fails here
        if design == "clustered":
            W, A = self.clustered_weights()
        else:
            W, A = TestZeroWeightEntries.weights_with_zeros()
        force_forms(monkeypatch, triples="lists", chunk=budget)
        at_w, at_a = W.triple_sums(A)
        a_rows, a_cols, a_values = A.rows.tolist(), A.cols.tolist(), A.values.tolist()
        a_at = dict(zip(zip(a_rows, a_cols), a_values))
        a_start = (np.cumsum(A.degree) - A.degree).tolist()
        want_w, want_a = [0.0] * len(W.values), [0.0] * len(a_values)
        for e, (i, j, w) in enumerate(zip(W.rows.tolist(), W.cols.tolist(), W.values.tolist())):
            if w == 0.0:
                continue
            for ik in range(a_start[i], a_start[i] + int(A.degree[i])):
                term = (w * a_values[ik]) * a_at.get((j, a_cols[ik]), 0.0)
                want_w[e] += term
                want_a[ik] += term
        assert np.array_equal(at_w, want_w) and np.array_equal(at_a, want_a)

    def test_equal_at_every_budget(self, monkeypatch):
        # 300 spread observations with a few neighbours each, and a tight
        # cluster of 40 whose rows have 39 * 39 terms each: more than a
        # budget of 1 or 97, and several such rows to a part of the default
        # budget; the last budget takes everything in one part. Every term
        # of an entry of W or of A comes from one row of W, so each sum is
        # the same one-pass sum whatever the budget
        W, A = self.clustered_weights()
        force_forms(monkeypatch, triples="lists")
        row_terms = np.bincount(W.rows, A.degree[W.rows], W.n)
        assert row_terms.max() > 97 and row_terms.sum() > 2 * kernels._CHUNK
        got = []
        for budget in (1, 97, kernels._CHUNK, int(row_terms.sum())):
            force_forms(monkeypatch, chunk=budget)
            got.append(W.triple_sums(A))
        for at_w, at_a in got[1:]:
            assert np.array_equal(at_w, got[0][0]) and np.array_equal(at_a, got[0][1])

    def test_asym_n2000_memory(self, monkeypatch):
        # the asym-n2000 benchmark design: n = 2000, two continuous w
        # columns and one discrete w column of 3 levels, three continuous x
        # columns, c = 2. The list form held 8.9 MB at once when it took all
        # of its 113,115 terms in one part; in parts of 2^13 terms, 1.2 MB.
        # L's band table is built first, as itilde builds it before its
        # triple sums
        n = 2000
        rng = np.random.default_rng(2000)
        d = Dataset(
            y=rng.standard_normal(n),
            w=np.hstack([rng.standard_normal((n, 2)), rng.integers(0, 3, (n, 1))]),
            x=rng.standard_normal((n, 3)),
            w_kinds=all_continuous(2) + (ColumnKind.DISCRETE,),
            x_kinds=all_continuous(3),
        )
        bw = default_bandwidths(n, 2.0)
        sd = standardize(d)
        eng = StatEngine(sd, compute_smoother(sd, bw.g), bw.h)
        L, M = eng.L, eng.M
        L.index_of(M.rows, M.cols)
        force_forms(monkeypatch, triples="lists")
        tracemalloc.start()
        try:
            M.triple_sums(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


class TestTrivialCases:
    def test_constant_response_zeroes_everything(self):
        sd, sm = constant_response_case()
        y = sd.y
        eng = StatEngine(sd, sm, 1.0)
        assert eng.ihat(sm.uf) == 0.0
        assert eng.itilde(y, sm.uf) == 0.0
        assert eng.var_hat(sm.uf) == 0.0
        assert eng.var_tilde(y, sm.uf) == 0.0
        assert CvmEngine(sd).statistic(sm.uf) == 0.0

    def test_tiny_test_bandwidth_zeroes_pair_weights(self):
        d = make_dataset(2, 8)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.5)
        eng = StatEngine(sd, sm, 1e-9)
        assert eng.ihat(sm.uf) == 0.0
        assert eng.itilde(sd.y, sm.uf) == 0.0

    def test_var_hat_single_active_residual(self):
        sd, sm = constant_response_case()
        uf = np.zeros(sd.n)
        uf[3] = 2.0
        assert StatEngine(sd, sm, 1.0).var_hat(uf) == 0.0


class TestSampleSizeFloors:
    @staticmethod
    def engine(n):
        sd = standardize(make_dataset(1, n))
        sm = compute_smoother(sd, 3.0)
        return sd.y, sm.uf, StatEngine(sd, sm, 3.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_itilde_needs_five(self, n):
        y, uf, eng = self.engine(n)
        with pytest.raises(ValueError, match="n >= 5"):
            eng.itilde(y, uf)

    def test_var_tilde_needs_seven(self):
        y, uf, eng = self.engine(6)
        assert math.isfinite(eng.itilde(y, uf))
        with pytest.raises(ValueError, match="n >= 7"):
            eng.var_tilde(y, uf)


class TestStandardize:
    def test_zero_statistic(self):
        t = studentize(np.float64(0.0), np.float64(4.0), 50, 0.3, 2)
        assert t.shape == ()
        assert t == 0.0

    def test_degenerate_flagged(self):
        t = studentize(np.float64(1.0), np.float64(0.0), 50, 0.3, 2)
        assert math.isnan(t)

    def test_not_finite_flagged(self):
        # a variance that overflowed to inf, or a standardized value that
        # did, is degenerate: NaN, never 0 or inf
        t = studentize(
            np.array([1.0, 1.0, 1e300, math.inf, 1.0]),
            np.array([math.inf, 4.0, 1e-300, 4.0, math.nan]),
            50, 0.3, 2,
        )
        assert np.isnan(t[[0, 2, 3, 4]]).all() and math.isfinite(t[1])

    def test_subnormal_variance_flagged(self):
        # a variance below the normal floats has lost bits to underflow and
        # is degenerate like 0; the smallest normal one still standardizes
        tiny = np.finfo(float).tiny
        t = studentize(
            np.full(4, 1e-160), np.array([tiny, tiny / 2, 1e-323, 5e-324]), 50, 0.3, 2
        )
        assert math.isfinite(t[0]) and np.isnan(t[1:]).all()

    def test_unit_algebra(self):
        n, h, p_c, omega = 40, 0.25, 2, 1.7
        t = studentize(np.float64(omega / (n * h ** (p_c / 2))), np.float64(omega**2), n, h, p_c)
        assert t == pytest.approx(1.0, rel=1e-12)


class TestPsiName:
    def test_unknown_family_is_named(self, small_case):
        _, sd, sm, bw, _ = small_case
        with pytest.raises(ValueError, match="unknown psi family 'bogus'"):
            StatEngine(sd, sm, bw.h, psi="bogus")


class TestLv:
    def test_discrete_x_rejected(self):
        d = random_dataset(3, 10, q=1, discrete_x=True)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.5)
        with pytest.raises(ValueError, match="LV requires continuous X"):
            StatEngine(sd, sm, 1.0, psi="joint")

    def test_empty_x_reduces_to_unit_psi(self):
        base = make_dataset(30, 10)
        d = Dataset(
            y=base.y,
            w=base.w,
            x=np.empty((10, 0)),
            w_kinds=base.w_kinds,
            x_kinds=(),
        )
        sd = standardize(d)
        sm = compute_smoother(sd, 1.5)
        lv = StatEngine(sd, sm, 1.1, psi="joint")
        # the indicator psi over zero columns is identically one
        ref = StatEngine(sd, sm, 1.1, psi="indicator").itilde(sd.y, sm.uf)
        assert close(lv.itilde(sd.y, sm.uf), ref)
        assert lv.rate_dim == 2

    def test_constant_response(self):
        sd, sm = constant_response_case()
        lv = StatEngine(sd, sm, 1.0, psi="joint")
        raw = lv.itilde(sd.y, sm.uf)
        assert raw == 0.0
        assert math.isnan(studentize(raw, lv.var_hat(sm.uf), sd.n, 1.0, lv.rate_dim))


class TestDgm:
    def test_two_point_hand_evaluation(self):
        # two observations, w and x both ordered: the dominated observation
        # marks only itself; the dominating one sums both weights
        sd_obj = standardize(
            Dataset(
                y=[1.0, 2.0],
                w=[[0.0], [1.0]],
                x=[[0.0], [1.0]],
                w_kinds=all_continuous(1),
                x_kinds=all_continuous(1),
            )
        )
        uf = np.array([0.6, -0.2])
        got = CvmEngine(sd_obj).statistic(uf)
        assert got == pytest.approx(0.6**2 + (0.6 - 0.2) ** 2, rel=1e-14)

    def test_matches_enumeration(self):
        for seed in (21, 22):
            d = random_dataset(seed, 12, q=2)
            sd = standardize(d)
            sm = compute_smoother(sd, 1.2)
            assert close(CvmEngine(sd).statistic(sm.uf), oracle_dgm(sd, sm.uf))

    def test_permutation_invariant(self):
        d = make_dataset(23, 14, q=2)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.2)
        base = CvmEngine(sd).statistic(sm.uf)
        perm = np.random.default_rng(5).permutation(14)
        dp = Dataset(
            y=d.y[perm], w=d.w[perm], x=d.x[perm], w_kinds=d.w_kinds, x_kinds=d.x_kinds
        )
        sdp = standardize(dp)
        smp = compute_smoother(sdp, 1.2)
        assert CvmEngine(sdp).statistic(smp.uf) == pytest.approx(base, rel=1e-10)

    def test_build_memory_does_not_grow_with_columns(self):
        # 22 columns: an n-by-n-by-(p+q) comparison would peak at about
        # 3 times the float E; a column at a time stays near E itself
        n = 300
        rng = np.random.default_rng(24)
        sd = standardize(
            Dataset(
                y=rng.standard_normal(n),
                w=rng.standard_normal((n, 2)),
                x=rng.standard_normal((n, 20)),
                w_kinds=all_continuous(2),
                x_kinds=all_continuous(20),
            )
        )
        tracemalloc.start()
        try:
            E = CvmEngine(sd).E
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        both = np.hstack([sd.w, sd.x])
        assert np.array_equal(E, np.all(both[None, :, :] <= both[:, None, :], axis=2))
        assert peak < 1.5 * E.nbytes


class TestFisher:
    def test_orthogonal_x_gives_zero_f(self):
        rng = np.random.default_rng(31)
        n = 40
        w = rng.standard_normal((n, 2))
        y = 1.0 + w @ np.array([0.5, -0.3]) + rng.standard_normal(n)
        z0 = np.column_stack([np.ones(n), w])
        resid = y - z0 @ np.linalg.lstsq(z0, y, rcond=None)[0]
        x = rng.standard_normal((n, 2))
        x = x - np.outer(resid, resid @ x) / float(resid @ resid)
        d = Dataset(y=y, w=w, x=x, w_kinds=all_continuous(2), x_kinds=all_continuous(2))
        f, reject = fisher_test(standardize(d), 0.05)
        assert f == pytest.approx(0.0, abs=1e-10)
        assert not reject

    def test_exact_linear_fit_rejects(self):
        rng = np.random.default_rng(32)
        n = 25
        w = rng.standard_normal((n, 2))
        x = rng.standard_normal((n, 1))
        y = 1.0 + w @ np.array([1.0, 2.0]) + 3.0 * x[:, 0]
        d = Dataset(y=y, w=w, x=x, w_kinds=all_continuous(2), x_kinds=all_continuous(1))
        f, reject = fisher_test(standardize(d), 0.05)
        assert math.isinf(f)
        assert reject

    def test_exact_fit_without_x_does_not_reject(self):
        # y exactly linear in (1, w): both models fit exactly, so f is 0
        rng = np.random.default_rng(32)
        n = 25
        w = rng.standard_normal((n, 2))
        y = 1.0 + w @ np.array([1.0, 2.0])
        x = rng.standard_normal((n, 1))
        d = Dataset(y=y, w=w, x=x, w_kinds=all_continuous(2), x_kinds=all_continuous(1))
        assert fisher_test(standardize(d), 0.05) == (0.0, False)

    @pytest.mark.parametrize("scale", [1e-300, 1e-8, 1e154, 1e300])
    def test_scale_free(self, scale):
        # y is taken times an exact power of two, so f is that of unit
        # scale at any scale of y that fits in a float, bit for bit at a
        # power of two; the exact-fit guard is relative to y·y
        d = generate(DgpSpec(family="continuous", n=200, q=2), np.random.default_rng(5))
        unit, reject = fisher_test(standardize(d), 0.05)
        assert unit == pytest.approx(1.32671017367575, rel=1e-12)

        def scaled(y):
            return standardize(Dataset(y=y, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds))

        assert fisher_test(scaled(d.y * scale), 0.05) == (pytest.approx(unit, rel=1e-10), reject)
        assert fisher_test(scaled(np.ldexp(d.y, 100)), 0.05) == (unit, reject)
        assert fisher_test(scaled(np.full(200, scale)), 0.05) == (0.0, False)
        fit = 1.0 + d.w @ [1.0, 2.0] + d.x @ [3.0, -1.0]
        assert fisher_test(scaled(fit * scale), 0.05) == (math.inf, True)

    def test_matches_normal_equations_oracle(self):
        d = make_dataset(33, 20, q=2)
        sd = standardize(d)
        f, _ = fisher_test(sd, 0.05)
        assert f == pytest.approx(oracle_ols_f(sd), rel=1e-8)

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(34)
        n = 20
        w = rng.standard_normal((n, 2))
        x = w[:, :1] * 2.0  # collinear with w
        d = Dataset(
            y=rng.standard_normal(n),
            w=w,
            x=x,
            w_kinds=all_continuous(2),
            x_kinds=all_continuous(1),
        )
        with pytest.raises(DegenerateStatisticError, match="rank"):
            fisher_test(standardize(d), 0.05)

    def test_constant_discrete_x_is_degenerate(self):
        # a Bernoulli x that came out all ones is collinear with the intercept
        base = make_dataset(36, 12, q=1)
        d = Dataset(
            y=base.y,
            w=base.w,
            x=np.ones(12),
            w_kinds=base.w_kinds,
            x_kinds=(ColumnKind.DISCRETE,),
        )
        with pytest.raises(DegenerateStatisticError, match="rank deficient") as info:
            fisher_test(standardize(d), 0.05)
        assert info.value.cause == "observed"

    def test_too_few_observations(self):
        d = make_dataset(35, 4, q=1)
        with pytest.raises(ValueError, match="n > 1"):
            fisher_test(standardize(d), 0.05)

    @pytest.mark.parametrize("alpha", [1.5, 0.0])
    def test_alpha_outside_unit_interval_refused(self, alpha):
        # unchecked, alpha = 0 would never reject and alpha = 1.5 always would
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            fisher_test(standardize(make_dataset(33, 20, q=2)), alpha)


# residual degrees of freedom from the fewest an F-test takes up to about
# the largest sample a smoothing test takes (n = 4000)
F_TAIL_DF2 = (1, 2, 3, 4, 5, 7, 10, 20, 50, 100, 200, 500, 1000, 2000, 3990, 4000)


class TestFTail:
    def test_matches_scipy(self):
        from scipy.special import fdtrc, fdtri

        # f from the lower tail through the bulk to an upper tail of 1e-12
        probs = np.concatenate([np.geomspace(1e-6, 0.5, 30), 1.0 - np.geomspace(0.5, 1e-12, 30)[1:]])
        worst = 0.0
        for q in range(1, 9):
            for df2 in F_TAIL_DF2:
                for f in fdtri(q, df2, probs):
                    want = float(fdtrc(q, df2, f))
                    if want >= 1e-12:
                        worst = max(worst, abs(f_tail(float(f), q, df2) - want) / want)
        assert worst <= 1e-10

    def test_two_numerator_degrees_of_freedom_closed_form(self):
        # P(F >= f) = (1 + 2 f / df2)^(-df2 / 2) when q = 2
        for df2 in F_TAIL_DF2:
            for f in np.geomspace(1e-6, 60.0, 40):
                want = (1.0 + 2.0 * f / df2) ** (-df2 / 2.0)
                if want >= 1e-12:
                    assert f_tail(float(f), 2, df2) == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10])
    def test_decisions_match_the_quantile(self, alpha):
        from scipy.special import fdtri

        for q in range(1, 9):
            for df2 in F_TAIL_DF2:
                crit = float(fdtri(q, df2, 1.0 - alpha))
                for f in (crit * (1.0 + 1e-9), crit * (1.0 - 1e-9)):
                    assert (f_tail(f, q, df2) < alpha) == (f > crit), (q, df2, f)

    def test_ends(self):
        # f <= 0 (the restricted fit's rss the smaller by rounding) and an
        # infinite f
        assert f_tail(0.0, 3, 10) == 1.0
        assert f_tail(-1e-17, 3, 10) == 1.0
        assert f_tail(math.inf, 3, 10) == 0.0


def stdlib_upper_quantile(alpha):
    # the standard library's AS241 quantile, loaded by this test only
    from statistics import NormalDist

    return -NormalDist().inv_cdf(alpha)


@pytest.mark.chosen_form_only  # the normal quantile builds no pair weights
class TestNormalUpperQuantile:
    def test_matches_the_standard_library(self):
        alphas = [
            *(2.0**-k for k in range(1, 1022)),
            *(10.0**-k for k in range(1, 308)),
            *np.random.default_rng(41).random(1000).tolist(),
        ]
        for alpha in alphas:
            want = stdlib_upper_quantile(alpha)
            assert abs(normal_upper_quantile(alpha) - want) <= 4e-15 * abs(want), alpha

    def test_keeps_the_digits_of_a_small_alpha(self):
        # NormalDist().inv_cdf(1 - alpha) gives 7.941444 here, because
        # 1 - 1e-15 is 1 - 9.992e-16 in floats; the true point is mpmath's
        assert normal_upper_quantile(1e-15) == pytest.approx(7.9413453261709968, rel=1e-15)

    def test_upper_half_is_the_reflection(self):
        halves = [0.5, *(1.0 - 2.0**-k for k in range(2, 54))]
        halves += (0.5 + 0.5 * np.random.default_rng(42).random(200)).tolist()
        for alpha in halves:
            assert normal_upper_quantile(alpha) == -normal_upper_quantile(1.0 - alpha), alpha
        assert normal_upper_quantile(0.5) == 0.0

    def test_does_not_increase(self):
        small = [*(2.0**-k for k in range(1, 1075)), *(10.0**-k for k in range(1, 324))]
        upper = (1.0 - a for a in small if 1.0 - a < 1.0)
        grid = sorted({*small, *upper, *np.linspace(0.001, 0.999, 999).tolist()})
        z = [normal_upper_quantile(a) for a in grid]
        assert all(b <= a for a, b in zip(z, z[1:]))

    def test_ends(self):
        # the smallest subnormal, where erfc underflows, and the largest
        # double below 1
        top, bottom = normal_upper_quantile(5e-324), normal_upper_quantile(math.nextafter(1.0, 0.0))
        assert math.isfinite(top) and math.isfinite(bottom)
        assert top == pytest.approx(stdlib_upper_quantile(5e-324), rel=4e-15)
        assert bottom == pytest.approx(stdlib_upper_quantile(math.nextafter(1.0, 0.0)), rel=4e-15)
        for alpha in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
                normal_upper_quantile(alpha)

    def test_asymptotic_decisions_match_the_p_value(self):
        rng = np.random.default_rng(43)
        decisions = set()
        for seed in range(50):
            d = make_dataset(seed, 40, q=1)
            alpha = float(rng.uniform(0.01, 0.99))
            cfg = TestConfig(default_bandwidths(d.n, 2.0), critical="asymptotic", alpha=alpha)
            r = run_test(d, cfg)
            assert r.reject == (r.p_value < alpha), (seed, alpha)
            assert r.critical_value == normal_upper_quantile(alpha)
            decisions.add(r.reject)
        assert decisions == {False, True}

    def test_smallest_alpha_decides(self):
        d = make_dataset(7, 40, q=1)
        cfg = TestConfig(default_bandwidths(d.n, 2.0), critical="asymptotic", alpha=5e-324)
        r = run_test(d, cfg)
        assert math.isfinite(r.critical_value) and r.critical_value > 38.0
        assert not r.reject


class TestInvariancesSeeded:
    def test_shift_leaves_raw_statistics(self, small_case):
        data, sd, sm, bw, psi = small_case
        base = StatEngine(sd, sm, bw.h, psi=psi).itilde(sd.y, sm.uf)
        shifted = Dataset(
            y=data.y - 11.0,
            w=data.w,
            x=data.x,
            w_kinds=data.w_kinds,
            x_kinds=data.x_kinds,
        )
        sds = standardize(shifted)
        sms = compute_smoother(sds, bw.g)
        shifted_itilde = StatEngine(sds, sms, bw.h, psi=psi).itilde(sds.y, sms.uf)
        assert shifted_itilde == pytest.approx(base, rel=1e-10)

    def test_pair_weight_symmetry(self, small_case):
        # transposing the cached pair matrices is a no-op for every statistic
        data, sd, sm, bw, psi = small_case
        eng = StatEngine(sd, sm, bw.h, psi=psi)
        M = eng.M.dense()
        assert np.allclose(M, M.T, atol=0)
        assert eng.ihat(sm.uf) == pytest.approx(
            sm.uf @ M.T @ sm.uf / (sd.n * (sd.n - 1)), rel=1e-12
        )
