"""The batched bootstrap against per-draw statistic calls, itilde of a block
against its dense arrangement sums, and the causes of degenerate tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npsigtest import bootstrap
from npsigtest.bootstrap import (
    CRITICALS,
    DRAW_BLOCK,
    MAX_DEGENERATE_DRAW_FRACTION,
    STATISTICS,
    VARIANCES,
    TestConfig,
    _draw_statistics,
    _engine,
    decide_scaled,
    null_resample,
    run_test,
)
from npsigtest.data import ColumnKind, Dataset, all_continuous, standardize
from npsigtest.kernels import PSI_FAMILIES, Bandwidths, PairWeights, default_bandwidths
from npsigtest.selfcheck import ABS_TOL, REL_TOL, close
from npsigtest.smoother import compute_smoother, recompute_uf
from npsigtest.statistics import CvmEngine, DegenerateStatisticError, StatEngine

from conftest import explicit_multipliers, make_dataset, wide_case


def fsum_dot(a, b):
    return math.fsum(np.ravel(a * b).tolist())


def pairwise_uf(L, y):
    """Leave-one-out weighted residuals from pairwise response differences."""
    return ((y[:, None] - y[None, :]) * L).sum(axis=1) / (len(y) - 1)


def fsum_ihat(eng, uf):
    n = eng.n
    return fsum_dot(uf, eng.M.dense() @ uf) / (n * (n - 1))


def fsum_var_hat(eng, uf):
    n, uf2 = eng.n, uf * uf
    return 2.0 * eng.h_power * fsum_dot(uf2, eng.M.dense() ** 2 @ uf2) / (n * (n - 1))


def fsum_var_tilde(eng, y):
    """The nested-distinctness studentizer from pairwise response differences:
    A_i = S_i^2 - Q_i with S_i and Q_i the row sums of D and D∘D."""
    n = eng.n
    D = (y[:, None] - y[None, :]) * eng.L.dense()
    A = D.sum(axis=1) ** 2 - np.einsum("ij,ij->i", D, D)
    denom = n * (n - 1) * (n - 2) ** 2 * (n - 3) ** 2
    return 2.0 * eng.h_power * fsum_dot(A, eng.M.dense() ** 2 @ A) / denom


def arrangement_sums(eng, y):
    """The sums (full, s1, s2, s3) of which (n)_4 itilde(y) is
    full - s1 - 2 s2 + s3, from the dense matrices: D_ik = (y_i - y_k) L_ik
    with row sums S, full = S'MS (all (i, j, k, l) with i != j, k != i,
    l != j), s1 = sum M∘DD' (the k = l coincidences), s3 = sum M∘D∘D and
    s2 = sum (D∘M)S + s3 (the k = j ones)."""
    L, M = eng.L.dense(), eng.M.dense()
    D = (y[:, None] - y[None, :]) * L
    S = D.sum(axis=1)
    s3 = fsum_dot(M * D, D)
    return fsum_dot(S, M @ S), fsum_dot(M, D @ D.T), fsum_dot((D * M) @ S, 1.0) + s3, s3


def fsum_cvm(cvm, uf):
    inner = cvm.E @ uf
    return fsum_dot(inner, inner)


def studentized(raw, omega2, n, h, p):
    return n * h ** (p / 2.0) * raw / math.sqrt(omega2) if omega2 > 0.0 else math.nan


def per_draw_reference(sd, sm, cfg):
    """Per draw, as the bootstrap evaluated it before batching, with the
    multipliers of each draw from its own fresh generator and in plain
    compensated sums over pairwise differences (itilde by
    ``StatEngine.itilde`` of the draw alone): the standardized value (NaN
    if degenerate), whether it used the variance fallback, whether its
    variance is rounding noise, and the standardized value of the magnitude
    of the sums that cancel to the statistic.

    A variance estimate of the third kind is zero in exact arithmetic: two
    neighbours' multipliers summing to exactly 1 can cancel their residuals,
    and var_tilde vanishes identically over three tied neighbours. The
    computed value is rounding noise that may land on zero, or on either
    side of it, so whether the draw falls back or is dropped, and its
    standardized value, are arbitrary on any evaluation path. Noise means
    within 1e-12 of the same estimator at the residuals' rounding scale
    sum_k L_ik (|y_i| + |y_k|) / (n - 1).
    """
    n, y = sd.n, sd.y
    L = sm.pairwise.dense()
    if cfg.statistic == "dgm":
        cvm = CvmEngine(sd)
    else:
        eng = StatEngine(sd, sm, cfg.bandwidths.h, cfg.weight)
    out = []
    for b in range(cfg.B):
        ystar = null_resample(sm, y, explicit_multipliers(n, cfg.seed, b))
        uf = pairwise_uf(L, ystar)
        uf_scale = (L.sum(axis=1) * np.abs(ystar) + L @ np.abs(ystar)) / (n - 1)
        if cfg.statistic == "dgm":
            out.append((fsum_cvm(cvm, uf), False, False, fsum_cvm(cvm, uf_scale)))
            continue
        if cfg.statistic == "ihat":
            raw, raw_scale = fsum_ihat(eng, uf), fsum_ihat(eng, uf_scale)
        else:
            raw = eng.itilde(ystar, uf)
            full, s1, s2, s3 = arrangement_sums(eng, ystar)
            sums = abs(full) + abs(s1) + 2.0 * abs(s2) + abs(s3)
            raw_scale = sums / (n * (n - 1) * (n - 2) * (n - 3))
        if cfg.variance == "var_hat":
            omega2 = fsum_var_hat(eng, uf)
        else:
            omega2 = fsum_var_tilde(eng, ystar)
        rounding = 1e-12 * fsum_var_hat(eng, uf_scale)
        noise = abs(omega2) <= rounding
        fallback = cfg.variance == "var_tilde" and omega2 <= 0.0
        if fallback:
            omega2 = fsum_var_hat(eng, uf)
            noise |= omega2 <= rounding
        h, p = cfg.bandwidths.h, eng.rate_dim
        t = studentized(raw, omega2, n, h, p)
        t_scale = studentized(raw_scale, omega2, n, h, p)
        out.append((t, fallback, noise, t_scale))
    return out


@st.composite
def bootstrap_cases(draw):
    """A small dataset with mixed discrete/continuous columns, optional ties
    and isolated observations, and a bootstrap configuration for it."""
    n = draw(st.integers(7, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    statistic = draw(st.sampled_from(STATISTICS))
    w_kinds = (ColumnKind.CONTINUOUS, draw(st.sampled_from(ColumnKind)))
    if statistic == "lv":
        x_kinds = all_continuous(draw(st.integers(1, 2)))
    else:
        x_kinds = tuple(draw(st.lists(st.sampled_from(ColumnKind), min_size=1, max_size=2)))

    def columns(kinds):
        out = rng.standard_normal((n, len(kinds)))
        for j, kind in enumerate(kinds):
            if kind is ColumnKind.DISCRETE:
                out[:, j] = rng.integers(0, 3, size=n)
        return out

    w, x = columns(w_kinds), columns(x_kinds)
    tie_step = draw(st.sampled_from([0.0, 0.5, 1.0]))
    if tie_step:
        w[:, 0] = np.round(w[:, 0] / tie_step) * tie_step
    n_isolated = draw(st.integers(0, 2))
    w[:n_isolated, 0] = (40.0, -40.0)[:n_isolated]
    assume(np.ptp(w[:, 0]) > 0.0)
    y = 0.5 * w[:, 0] + rng.standard_normal(n)
    data = Dataset(y=y, w=w, x=x, w_kinds=w_kinds, x_kinds=x_kinds)
    cfg = TestConfig(
        bandwidths=Bandwidths(
            g=draw(st.floats(0.3, 2.5)), h=draw(st.floats(0.3, 2.5))
        ),
        statistic=statistic,
        psi=draw(st.sampled_from(PSI_FAMILIES)),
        variance=draw(st.sampled_from(VARIANCES)),
        B=draw(st.integers(1, 140)),
        seed=draw(st.integers(0, 2**63)),
    )
    return data, cfg


class TestBatchedAgainstPerDraw:
    @given(bootstrap_cases())
    @settings(max_examples=150, deadline=None)
    def test_draws_and_counts_match(self, case):
        data, cfg = case
        sd = standardize(data)
        sm = compute_smoother(sd, cfg.bandwidths.g)
        reference = per_draw_reference(sd, sm, cfg)
        t, fallback, noise, t_scale = (np.array(v) for v in zip(*reference))
        t_batch, fallback_batch = _draw_statistics(_engine(sd, sm, cfg), sm, sd.y, cfg)
        for b in np.flatnonzero(~noise):
            assert fallback_batch[b] == fallback[b]
            assert np.isnan(t_batch[b]) == np.isnan(t[b])
            # relative to the value, or to the sums that cancel to it
            floor = max(ABS_TOL, REL_TOL * abs(t_scale[b]))
            assert np.isnan(t[b]) or close(t_batch[b], t[b], abs_floor=floor), (
                b, t_batch[b], t[b], t_scale[b]
            )
        if noise.any():
            return
        degenerate = np.isnan(t)
        try:
            res = decide_scaled(sd, sm, cfg)
        except DegenerateStatisticError as exc:
            if exc.cause == "draws":
                assert degenerate.sum() > MAX_DEGENERATE_DRAW_FRACTION * cfg.B
            return
        assert res.diagnostics["degenerate_draws"] == degenerate.sum()
        assert res.diagnostics["fallback_draws"] == fallback.sum()
        assert np.array_equal(res.bootstrap_draws, t_batch[~degenerate])


def count_scatters(monkeypatch):
    """The n of each first-time ``PairWeights.dense`` scatter from now on."""
    scatters = []
    dense = PairWeights.dense

    def counted(self):
        if self._dense is None:
            scatters.append(self.n)
        return dense(self)

    monkeypatch.setattr(PairWeights, "dense", counted)
    return scatters


class TestDrawBlocks:
    def test_blocks_do_not_change_the_draws(self):
        # the first 199 draws of B = 300 are the B = 199 run's, although the
        # last block of 199 draws is partial and the same draws of 300 are not
        assert 199 % DRAW_BLOCK and 300 // DRAW_BLOCK > 199 // DRAW_BLOCK
        _, sd, sm, bw = wide_case()
        short = decide_scaled(sd, sm, TestConfig(bandwidths=bw, B=199, seed=11))
        long = decide_scaled(sd, sm, TestConfig(bandwidths=bw, B=300, seed=11))
        assert len(long.bootstrap_draws) == 300
        assert np.allclose(long.bootstrap_draws[:199], short.bootstrap_draws, rtol=1e-12, atol=0)

    def test_scatters_do_not_grow_with_the_blocks(self, monkeypatch):
        # each dense n-by-n scatter is made once per test, not once per
        # block of draws: B = 64 is one block and B = 199 four
        assert 199 // DRAW_BLOCK > 64 // DRAW_BLOCK == 1
        scatters = count_scatters(monkeypatch)
        d = make_dataset(61, 40, q=1)
        counts = []
        for B in (64, 199):
            cfg = TestConfig(bandwidths=default_bandwidths(40, 2.0), variance="var_tilde", B=B)
            scatters.clear()
            run_test(d, cfg)
            counts.append(len(scatters))
        assert counts[0] > 0 and counts[0] == counts[1]

    @pytest.mark.parametrize("variance", VARIANCES)
    def test_one_smoother_product_per_block(self, monkeypatch, variance):
        # recompute_uf takes the one product of a block with the smoother's
        # weights L; itilde and var_tilde read its uf
        smoothed, blocks = [], []
        compute = bootstrap.compute_smoother
        product = PairWeights.product

        def kept(sd, g):
            smoothed.append(compute(sd, g))
            return smoothed[-1]

        def counted(self, v):
            if v.ndim == 2 and any(self is sm.pairwise for sm in smoothed):
                blocks.append(v.shape)
            return product(self, v)

        monkeypatch.setattr(bootstrap, "compute_smoother", kept)
        monkeypatch.setattr(PairWeights, "product", counted)
        cfg = TestConfig(bandwidths=default_bandwidths(40, 2.0), variance=variance, B=DRAW_BLOCK)
        run_test(make_dataset(61, 40, q=1), cfg)
        assert blocks == [(DRAW_BLOCK, 40)]


class TestIsolatedResponses:
    @pytest.mark.parametrize(
        "statistic, variance",
        [("itilde", "var_hat"), ("itilde", "var_tilde"), ("ihat", "var_hat"), ("dgm", "var_hat")],
    )
    def test_isolated_responses_leave_the_draws_bit_identical(self, statistic, variance):
        # an isolated observation's kernel row and column vanish, so its
        # response may be anything: the draws must not move by one bit
        d = make_dataset(43, 40, q=1)
        cfg = TestConfig(
            bandwidths=Bandwidths(g=0.35, h=0.5),
            statistic=statistic,
            variance=variance,
            B=99,
            seed=5,
        )
        isolated = compute_smoother(standardize(d), cfg.bandwidths.g).fhat == 0.0
        assert isolated.sum() == 13
        draws = []
        for y in (d.y, d.y + 123.0 * isolated):
            sd = standardize(Dataset(y=y, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds))
            sm = compute_smoother(sd, cfg.bandwidths.g)
            draws.append(decide_scaled(sd, sm, cfg).bootstrap_draws)
        assert np.array_equal(draws[0], draws[1])


class TestItildeOperator:
    @pytest.mark.parametrize("psi", ["normal", "joint"])
    def test_quadratic_form_is_itilde(self, psi):
        # each row of a block is itilde of that row alone, and the
        # decomposition of the four-index sum from the dense matrices
        _, sd, sm, bw = wide_case(seed=44, n=30)
        eng = StatEngine(sd, sm, bw.h, psi)
        y = sd.y
        rows = np.stack([y, null_resample(sm, y, explicit_multipliers(30, 3, 0))])
        ufs = recompute_uf(sm.pairwise, rows)
        n4 = 30 * 29 * 28 * 27
        for got, row, uf in zip(eng.itilde(rows, ufs), rows, ufs):
            full, s1, s2, s3 = arrangement_sums(eng, row)
            assert close(got, eng.itilde(row, uf))
            assert close(got, (full - s1 - 2.0 * s2 + s3) / n4)

    def test_constant_rows_give_exact_zeros(self):
        _, sd, sm, bw = wide_case()
        eng = StatEngine(sd, sm, bw.h)
        rows = np.zeros((3, sd.n))
        assert np.array_equal(eng.itilde(rows, recompute_uf(sm.pairwise, rows)), np.zeros(3))

    def test_var_tilde_of_lone_neighbours_is_exactly_zero(self):
        # three isolated pairs and an isolated point: no observation has two
        # neighbours, so every A_i is an empty sum and var_tilde vanishes
        w = np.array([[0.0], [0.1], [3.0], [3.1], [6.0], [6.1], [-4.0]])
        d = Dataset(
            y=np.arange(7.0) ** 2,
            w=w,
            x=np.zeros((7, 1)),
            w_kinds=all_continuous(1),
            x_kinds=(ColumnKind.DISCRETE,),
        )
        sd = standardize(d)
        sm = compute_smoother(sd, 0.3)
        eng = StatEngine(sd, sm, 20.0, psi="indicator")
        y = np.random.default_rng(3).standard_normal((5, 7))
        uf = recompute_uf(sm.pairwise, y)
        assert eng.var_tilde(y[0], uf[0]) == 0.0
        assert np.array_equal(eng.var_tilde(y, uf), np.zeros(5))

    def test_asymptotic_test_never_builds_the_operator(self, monkeypatch):
        # a test without a bootstrap sums every statistic over the lists
        # and scatters no dense n-by-n matrix; a bootstrap test does
        scatters = count_scatters(monkeypatch)
        d = make_dataset(57, 40, q=1)
        bw = default_bandwidths(40, 2.0)
        for statistic, variance in (
            ("itilde", "var_hat"),
            ("itilde", "var_tilde"),
            ("lv", "var_hat"),
        ):
            cfg = TestConfig(
                bandwidths=bw, statistic=statistic, variance=variance, critical="asymptotic"
            )
            run_test(d, cfg)
        assert scatters == []
        run_test(d, TestConfig(bandwidths=bw, B=9))
        assert scatters


class TestDegenerateCause:
    def test_observed(self):
        rng = np.random.default_rng(12)
        d = Dataset(
            y=np.full(30, 1.0),
            w=rng.standard_normal((30, 2)),
            x=rng.standard_normal((30, 1)),
            w_kinds=all_continuous(2),
            x_kinds=all_continuous(1),
        )
        with pytest.raises(DegenerateStatisticError, match="test degenerate") as info:
            run_test(d, TestConfig(bandwidths=default_bandwidths(30, 2.0)))
        assert info.value.cause == "observed"

    def test_no_support(self):
        # a tiny estimation bandwidth leaves every observation isolated
        d = make_dataset(58, 30, q=1)
        cfg = TestConfig(bandwidths=Bandwidths(g=1e-6, h=1.0), critical="asymptotic")
        with pytest.raises(DegenerateStatisticError, match="test degenerate") as info:
            run_test(d, cfg)
        assert info.value.cause == "no_support"

    def test_dgm_draws_that_overflow_are_degenerate(self):
        # y times 2^k scales dgm's statistic and draws by exactly 4^k. At
        # the first k where a draw overflows, the observed statistic stays
        # finite; the draws that overflow are counted as degenerate and
        # dropped, and the others are kept, scaled
        d = make_dataset(5, 200, q=2)
        cfg = TestConfig(bandwidths=default_bandwidths(200, 2.0), statistic="dgm", B=99)
        base = run_test(d, cfg)
        assert base.diagnostics["degenerate_draws"] == 0
        k = 0
        while not np.any(base.bootstrap_draws > sys.float_info.max / 4.0**k):
            k += 1
        over = base.bootstrap_draws > sys.float_info.max / 4.0**k
        assert base.raw <= sys.float_info.max / 4.0**k
        assert 0 < over.sum() <= MAX_DEGENERATE_DRAW_FRACTION * cfg.B
        scaled = Dataset(
            y=d.y * 2.0**k, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds
        )
        got = run_test(scaled, cfg)
        assert got.diagnostics["degenerate_draws"] == over.sum()
        assert np.array_equal(got.bootstrap_draws, base.bootstrap_draws[~over] * 4.0**k)
        assert got.raw == base.raw * 4.0**k

    @pytest.mark.parametrize("critical", CRITICALS)
    @pytest.mark.parametrize("variance, scale", [("var_hat", 1e78), ("var_tilde", 1e75)])
    def test_variance_overflow(self, variance, scale, critical):
        # at this scale of y the variance overflows to inf; the test is
        # refused, not decided on t = 0
        d = make_dataset(5, 200, q=2)
        d = Dataset(y=d.y * scale, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds)
        cfg = TestConfig(
            bandwidths=default_bandwidths(200, 2.0), variance=variance, critical=critical, B=19
        )
        with pytest.raises(DegenerateStatisticError, match="overflows.*rescale y") as info:
            run_test(d, cfg)
        assert info.value.cause == "observed"

    @pytest.mark.parametrize("critical", CRITICALS)
    @pytest.mark.parametrize("statistic", ["itilde", "lv"])
    def test_itilde_of_lone_triangles(self, statistic, critical):
        # three far-apart triangles: the two ends of each weighted pair have
        # one other neighbour each, the same one, so no arrangement of four
        # distinct indices has weight and itilde is 0 for every response;
        # ihat, which keeps the coinciding indices, still decides
        w = np.repeat([0.0, 3.0, 6.0], 3)[:, None] + np.tile([0.0, 0.1, 0.2], 3)[:, None]
        d = Dataset(
            y=np.arange(9.0) ** 2,
            w=w,
            x=w.copy(),
            w_kinds=all_continuous(1),
            x_kinds=all_continuous(1),
        )
        bw = Bandwidths(g=0.3, h=0.3)
        cfg = TestConfig(bandwidths=bw, statistic=statistic, critical=critical, B=19)
        with pytest.raises(DegenerateStatisticError, match=r"0 for every response.*--c") as info:
            run_test(d, cfg)
        assert info.value.cause == "observed"
        eng = StatEngine(standardize(d), compute_smoother(standardize(d), bw.g), bw.h)
        assert len(eng.M.values) == 18 and eng.itilde_vanishes()
        run_test(d, TestConfig(bandwidths=bw, statistic="ihat", critical=critical, B=19))

    def test_draws(self):
        # two mutually-nearest pairs, each isolated from the rest, with
        # responses 0 and 1: a pair's resampled responses coincide exactly
        # when its two multipliers differ (they sum to 1), so both pairs'
        # weighted residuals vanish in about 16% of draws
        w = np.array([[0.0, 0.0], [0.1, 0.05], [3.0, 0.0], [3.1, 0.05], [-4.0, 1.0]])
        d = Dataset(
            y=np.array([0.0, 1.0, 0.0, 1.0, 0.3]),
            w=w,
            x=np.array([[0.0], [1.0], [0.5], [1.5], [2.0]]),
            w_kinds=all_continuous(2),
            x_kinds=all_continuous(1),
        )
        cfg = TestConfig(bandwidths=Bandwidths(g=0.3, h=5.0), B=199, seed=1)
        with pytest.raises(DegenerateStatisticError, match="29 of 199 bootstrap draws") as info:
            run_test(d, cfg)
        assert info.value.cause == "draws"
