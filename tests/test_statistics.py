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
from npsigtest.smoother import compute_smoother
from npsigtest.statistics import (
    CvmEngine,
    DegenerateStatisticError,
    StatEngine,
    fisher_test,
    studentize,
)

from conftest import make_dataset


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
    @pytest.mark.parametrize("triples", ["lists", "dense"])
    def test_vector_statistics_match_oracles(self, name, triples, monkeypatch):
        # the statistics over the pair lists, with the triple sums behind
        # the coefficients of itilde forced onto either of their two forms;
        # itilde also on a block of two rows
        monkeypatch.setattr(kernels, "_TERMS_PER_N2", 0.0 if triples == "lists" else math.inf)
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
        # fdtri of a probability outside [0, 1] is NaN, and f > NaN is false
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            fisher_test(standardize(make_dataset(33, 20, q=2)), alpha)


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
