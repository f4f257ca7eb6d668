import math
import tracemalloc

import numpy as np
import pytest

import npsigtest.bootstrap as bootstrap
from npsigtest.bootstrap import (
    DRAW_BLOCK,
    MAMMEN_HIGH,
    MAMMEN_LOW,
    MAMMEN_P_LOW,
    MAX_DRAWS,
    TestConfig,
    decide_scaled,
    draw_multipliers,
    null_resample,
    run_test,
)
from npsigtest.data import Dataset, all_continuous, response_exponent, standardize
from npsigtest.kernels import Bandwidths, default_bandwidths
from npsigtest.oracles import OracleTables, oracle_dgm, oracle_smoother
from npsigtest.selfcheck import multiplier_moment_exact, _Q5
from npsigtest.smoother import compute_smoother, recompute_uf
from npsigtest.statistics import CvmEngine, DegenerateStatisticError, StatEngine

from conftest import explicit_multipliers, explicit_uniforms, make_dataset, wide_case


class TestMultipliers:
    def test_probabilities_sum_to_one(self):
        assert MAMMEN_P_LOW + (5.0 - math.sqrt(5.0)) / 10.0 == pytest.approx(1.0, rel=1e-15)

    def test_exact_moments_symbolically(self):
        assert multiplier_moment_exact(1) == _Q5(0)
        assert multiplier_moment_exact(2) == _Q5(1)
        assert multiplier_moment_exact(3) == _Q5(1)

    def test_two_point_support(self):
        draws = draw_multipliers(1000, 3, range(1))
        assert set(np.unique(draws)) == {MAMMEN_LOW, MAMMEN_HIGH}

    def test_empirical_moments(self):
        n = 1_000_000
        draws = draw_multipliers(n, 99, range(1))
        assert abs(draws.mean()) < 3e-3
        assert abs((draws**2).mean() - 1.0) < 4e-3
        assert abs((draws**3).mean() - 1.0) < 8e-3


class TestMultiplierStreams:
    """Row b of a block is the stream default_rng(SeedSequence([seed mod
    2**64, b])), whichever block it is drawn in."""

    @pytest.mark.parametrize(
        "seed", [0, 7, 12345, -1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**70 + 5]
    )
    @pytest.mark.parametrize("n", [1, 100])
    def test_rows_are_the_explicit_streams(self, seed, n):
        for draws in (
            range(0, DRAW_BLOCK + 5),
            range(2 * DRAW_BLOCK - 3, 3 * DRAW_BLOCK + 2),
            range(MAX_DRAWS - 4, MAX_DRAWS),
        ):
            want = np.stack([explicit_multipliers(n, seed, b) for b in draws])
            assert np.array_equal(draw_multipliers(n, seed, draws), want)

    def test_bootstrap_reads_draws_in_blocks_in_order(self, monkeypatch):
        calls, uniforms = [], bootstrap._uniforms

        def spy(words, n):
            calls.append((words.copy(), uniforms(words, n)))
            return calls[-1][1]

        monkeypatch.setattr(bootstrap, "_uniforms", spy)
        _, sd, sm, bw = wide_case()
        B = 2 * DRAW_BLOCK + 22
        decide_scaled(sd, sm, TestConfig(bandwidths=bw, B=B, seed=2**64 + 9))
        assert [len(words) for words, _ in calls] == [DRAW_BLOCK, DRAW_BLOCK, 22]
        want_words = bootstrap._start_states(9, np.arange(B))
        assert np.array_equal(np.concatenate([words for words, _ in calls]), want_words)
        want = np.stack([explicit_uniforms(sd.n, 9, b) for b in range(B)])
        assert np.array_equal(np.concatenate([u for _, u in calls]), want)

    def test_start_states_are_the_seed_sequence_words(self):
        seed, b = 2**63 + 1, np.array([0, 1, DRAW_BLOCK, MAX_DRAWS - 1])
        words = bootstrap._start_states(seed, b)
        assert words.dtype == np.uint64
        for row, bi in zip(words, b):
            want = np.random.SeedSequence([seed, int(bi)]).generate_state(4, np.uint64)
            assert np.array_equal(row, want)
        seeds = bootstrap._Words(words)
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ValueError, match="4 uint64 words"):
                seeds.generate_state(n_words, dtype)
        # a refused request takes no row; each accepted one takes the next
        for row, dtype in zip(words, (np.uint64, np.dtype("<u8"), "uint64", np.uint64)):
            assert np.array_equal(seeds.generate_state(4, dtype), row)

    def test_start_states_are_derived_a_bounded_number_at_a_time(self, monkeypatch):
        sizes, start_states = [], bootstrap._start_states

        def spy(seed, b):
            sizes.append(len(b))
            return start_states(seed, b)

        monkeypatch.setattr(bootstrap, "_start_states", spy)
        chunk = bootstrap._STATE_BLOCKS * DRAW_BLOCK
        first = next(bootstrap._uniform_blocks(3, 5, range(MAX_DRAWS)))
        assert sizes == [chunk] and first.shape == (DRAW_BLOCK, 3)
        want = np.stack([explicit_uniforms(3, 5, b) for b in range(DRAW_BLOCK)])
        assert np.array_equal(first, want)
        sizes.clear()
        _, sd, sm, bw = wide_case()
        decide_scaled(sd, sm, TestConfig(bandwidths=bw, B=199, seed=3))
        assert sizes == [199]
        # chunks of one block: the rows read across two chunk boundaries
        sizes.clear()
        monkeypatch.setattr(bootstrap, "_STATE_BLOCKS", 1)
        draws = range(5, 2 * DRAW_BLOCK + 9)
        want = np.stack([explicit_multipliers(4, 2**64 - 1, b) for b in draws])
        assert np.array_equal(draw_multipliers(4, 2**64 - 1, draws), want)
        assert sizes == [DRAW_BLOCK, DRAW_BLOCK, 4]

    def test_draw_index_beyond_one_word_refused(self):
        with pytest.raises(ValueError, match="draw indices"):
            draw_multipliers(3, 0, range(MAX_DRAWS - 1, MAX_DRAWS + 1))
        with pytest.raises(ValueError, match="draw indices"):
            draw_multipliers(3, 0, [-1])

    def test_bootstrap_size_at_most_one_word_of_draws(self):
        bw = Bandwidths(g=1.0, h=1.0)
        assert TestConfig(bandwidths=bw, B=MAX_DRAWS).B == 2**32
        with pytest.raises(ValueError, match="bootstrap size"):
            TestConfig(bandwidths=bw, B=2**32 + 1)
        # an asymptotic test draws nothing, so B is not checked
        assert TestConfig(bandwidths=bw, B=2**32 + 1, critical="asymptotic")


class TestResample:
    def test_zero_eta_returns_fit(self):
        d, _, sm, _ = wide_case()
        ystar = null_resample(sm, d.y, np.zeros(25))
        assert np.allclose(ystar, sm.rhat, atol=0)

    def test_unit_eta_returns_response(self):
        d, _, sm, _ = wide_case()
        ystar = null_resample(sm, d.y, np.ones(25))
        assert np.allclose(ystar, d.y, rtol=1e-14)

    def test_constant_response_fixed_point(self):
        rng = np.random.default_rng(8)
        d = Dataset(
            y=np.full(12, 2.5),
            w=rng.standard_normal((12, 2)),
            x=rng.standard_normal((12, 1)),
            w_kinds=all_continuous(2),
            x_kinds=all_continuous(1),
        )
        sd = standardize(d)
        sm = compute_smoother(sd, 5.0)
        eta = draw_multipliers(12, 8, range(1))[0]
        assert np.allclose(null_resample(sm, d.y, eta), d.y, atol=1e-12)

    def test_null_resample_neutralizes_isolated(self):
        d = make_dataset(43, 40, q=1)
        sd = standardize(d)
        sm = compute_smoother(sd, 0.35)  # narrow enough to isolate someone
        isolated = sm.fhat <= 0
        assert isolated.any()
        ystar = null_resample(sm, d.y, np.full(40, -0.6))
        assert np.all(np.isfinite(ystar))
        assert np.array_equal(ystar[isolated], d.y[isolated])

    def test_isolated_response_value_is_irrelevant(self):
        # the kernel row of an isolated observation vanishes, so any choice
        # of its resampled response leaves every statistic unchanged
        d = make_dataset(43, 40, q=1)
        sd = standardize(d)
        bw = Bandwidths(g=0.35, h=0.5, c=1.0)
        sm = compute_smoother(sd, bw.g)
        isolated = np.where(sm.fhat <= 0)[0]
        assert isolated.size > 0
        eng = StatEngine(sd, sm, bw.h)
        ystar = null_resample(sm, d.y, np.full(40, 1.3))
        poked = ystar.copy()
        poked[isolated] += 123.0
        uf, uf_poked = recompute_uf(sm.pairwise, ystar), recompute_uf(sm.pairwise, poked)
        assert eng.itilde(ystar, uf) == eng.itilde(poked, uf_poked)
        assert eng.var_hat(uf) == eng.var_hat(uf_poked)


class TestResampledBlocks:
    """The draw path takes each resampled response by selection between two
    responses computed once per test; every block must equal
    null_resample of the block's multipliers."""

    @pytest.mark.parametrize("isolated", [False, True])
    @pytest.mark.parametrize("seed", [2**64 + 9, 12345])
    @pytest.mark.parametrize("state_blocks", [2, None])
    def test_blocks_are_the_resampled_multipliers(self, monkeypatch, isolated, seed, state_blocks):
        if state_blocks is not None:  # a chunk boundary of the start states at draw 128
            monkeypatch.setattr(bootstrap, "_STATE_BLOCKS", state_blocks)
        if isolated:
            sd = standardize(make_dataset(43, 40, q=1))
            sm = compute_smoother(sd, 0.35)
            assert (sm.fhat <= 0).any()
        else:
            _, sd, sm, _ = wide_case()
        B = 2 * DRAW_BLOCK + 22
        blocks = list(bootstrap._resampled_blocks(sm, sd.y, seed, B))
        assert [len(ystar) for ystar in blocks] == [DRAW_BLOCK, DRAW_BLOCK, 22]
        for start, ystar in zip(range(0, B, DRAW_BLOCK), blocks):
            eta = draw_multipliers(sd.n, seed, range(start, min(start + DRAW_BLOCK, B)))
            assert np.array_equal(ystar, null_resample(sm, sd.y, eta))


class TestDrawMemory:
    def test_draw_phase_peak(self):
        # the boot-n500 design (n = 500, two continuous w columns, itilde,
        # var_hat, B = 199, c = 2). The draws hold one centred block, not
        # its uniforms or a second copy, and a block product gathers at
        # most 2^17 bytes of rows at a time: they peak 2.93 MB above their
        # start, 1.35 MB of it the tiles' values that the first block
        # products build. At 3.58 MB, each of a process's repeated tests
        # handed its heap back to the system and faulted it in again,
        # about 1,000 minor page faults a test
        sd = standardize(make_dataset(5, 500, q=5))
        cfg = TestConfig(bandwidths=default_bandwidths(sd.n, 2.0), B=199)
        sm = compute_smoother(sd, cfg.bandwidths.g)
        eng = bootstrap._engine(sd, sm, cfg)
        bootstrap._evaluate(eng, cfg, sd.y, sm.uf)  # builds itilde's coefficients
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bootstrap._draw_statistics(eng, sm, sd.y, cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3.4 * 2**20


class TestBootstrapCriticalValue:
    def test_single_draw_is_critical(self):
        d, sd, sm, bw = wide_case()
        cfg = TestConfig(bandwidths=bw, B=1, seed=5, alpha=0.05)
        res = decide_scaled(sd, sm, cfg)
        assert len(res.bootstrap_draws) == 1
        assert res.critical_value == res.bootstrap_draws[0]

    def test_rank_convention_199(self):
        d, sd, sm, bw = wide_case()
        cfg = TestConfig(bandwidths=bw, B=199, seed=6, alpha=0.05)
        res = decide_scaled(sd, sm, cfg)
        assert len(res.bootstrap_draws) == 199
        # ceil(0.95 * 200) = 190th
        assert res.critical_value == np.sort(res.bootstrap_draws)[189]

    def test_deterministic_bit_for_bit(self):
        d, sd, sm, bw = wide_case()
        cfg = TestConfig(bandwidths=bw, B=37, seed=123)
        r1 = decide_scaled(sd, sm, cfg)
        r2 = decide_scaled(sd, sm, cfg)
        assert r1.critical_value == r2.critical_value
        assert np.array_equal(r1.bootstrap_draws, r2.bootstrap_draws)

    def test_alpha_monotonicity_on_stored_draws(self):
        d, sd, sm, bw = wide_case()
        cfg = TestConfig(bandwidths=bw, B=99, seed=9, alpha=0.05)
        draws = decide_scaled(sd, sm, cfg).bootstrap_draws
        ordered = np.sort(draws)
        crits = []
        for alpha in (0.01, 0.05, 0.10, 0.25, 0.5):
            rank = min(max(math.ceil((1 - alpha) * (len(draws) + 1)), 1), len(draws))
            crits.append(ordered[rank - 1])
        assert all(a >= b for a, b in zip(crits, crits[1:]))


class TestRunTest:
    def test_asymptotic_critical_value(self):
        d = make_dataset(51, 60, q=1)
        cfg = TestConfig(
            bandwidths=default_bandwidths(60, 2.0), critical="asymptotic", alpha=0.10
        )
        res = run_test(d, cfg)
        assert res.critical_value == pytest.approx(1.2816, abs=5e-5)

    def test_constant_response_bootstrap_degenerate(self):
        rng = np.random.default_rng(12)
        d = Dataset(
            y=np.full(30, 1.0),
            w=rng.standard_normal((30, 2)),
            x=rng.standard_normal((30, 1)),
            w_kinds=all_continuous(2),
            x_kinds=all_continuous(1),
        )
        cfg = TestConfig(bandwidths=default_bandwidths(30, 2.0))
        with pytest.raises(DegenerateStatisticError, match="degenerate"):
            run_test(d, cfg)

    def test_reproducible_results(self):
        d = make_dataset(52, 50, q=2)
        cfg = TestConfig(bandwidths=default_bandwidths(50, 2.0), B=99, seed=314)
        r1 = run_test(d, cfg)
        r2 = run_test(d, cfg)
        assert r1.standardized == r2.standardized
        assert r1.critical_value == r2.critical_value
        assert np.array_equal(r1.bootstrap_draws, r2.bootstrap_draws)

    def test_pinned_reference_values(self):
        # recorded from an earlier implementation of the pair-weight path;
        # a refactor of the statistics or the bootstrap must reproduce them
        d = make_dataset(52, 50, q=2)
        cfg = TestConfig(bandwidths=default_bandwidths(50, 2.0), B=99, seed=314)
        res = run_test(d, cfg)
        assert res.standardized == pytest.approx(
            0.12955121253630508, rel=1e-12
        )
        assert res.critical_value == pytest.approx(0.5330923590625313, rel=1e-12)
        assert res.p_value == pytest.approx(0.32, rel=1e-12)
        assert res.reject is False

    def test_reject_consistency_flag(self):
        d = make_dataset(53, 50, q=1)
        cfg = TestConfig(bandwidths=default_bandwidths(50, 2.0), B=49, seed=2, alpha=0.5)
        res = run_test(d, cfg)
        assert res.reject == (res.standardized > res.critical_value)

    def test_unknown_psi_is_named(self):
        with pytest.raises(ValueError, match="unknown psi family 'bogus'"):
            TestConfig(bandwidths=Bandwidths(g=1.0, h=1.0), psi="bogus")

    def test_dgm_requires_bootstrap(self):
        with pytest.raises(ValueError, match="non-pivotal"):
            TestConfig(
                bandwidths=Bandwidths(g=1.0, h=1.0),
                statistic="dgm",
                critical="asymptotic",
            )

    def test_dgm_end_to_end(self):
        d = make_dataset(54, 40, q=1)
        cfg = TestConfig(
            bandwidths=default_bandwidths(40, 2.0), statistic="dgm", B=49, seed=3
        )
        res = run_test(d, cfg)
        assert res.raw >= 0.0
        assert res.standardized == res.raw
        assert math.isnan(res.variance_estimate)

    def test_lv_discrete_x_message(self):
        from npsigtest.selfcheck import random_dataset

        d = random_dataset(4, 30, q=1, discrete_x=True)
        cfg = TestConfig(bandwidths=default_bandwidths(30, 2.0), statistic="lv")
        with pytest.raises(ValueError, match="LV requires continuous X"):
            run_test(d, cfg)

    def test_var_tilde_fallback_flagged(self):
        # at this small h the six-index estimator comes out negative
        # (about -1.3e-7) while the pair-sum one is positive, so the test
        # falls back to the pair-sum estimator and says so
        d = make_dataset(55, 30, q=1)
        cfg = TestConfig(
            bandwidths=Bandwidths(g=1.0, h=0.2, c=1.0),
            variance="var_tilde",
            critical="asymptotic",
        )
        res = run_test(d, cfg)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.0)
        engine = StatEngine(sd, sm, 0.2)
        assert engine.var_tilde(sd.y, sm.uf) < 0
        assert res.diagnostics["fallback_used"] is True
        assert res.variance_estimate == engine.var_hat(sm.uf)

    def test_record_is_flat_and_versioned(self):
        d = make_dataset(56, 40, q=1)
        cfg = TestConfig(bandwidths=default_bandwidths(40, 2.0), B=29, seed=8)
        rec = run_test(d, cfg).to_record()
        assert rec["schema_version"] == 3
        assert "diag_degenerate_variance" not in rec
        assert all(np.isscalar(v) or isinstance(v, (bool, str)) for v in rec.values())


class TestScaleOfY:
    @pytest.mark.parametrize(
        "statistic, critical",
        [("itilde", "asymptotic"), ("itilde", "bootstrap"), ("lv", "asymptotic"), ("dgm", "bootstrap")],
    )
    def test_powers_of_two_decide_with_the_bits_of_y_as_given(self, statistic, critical):
        # standardize's rescale is exact: y times 2**j, j = -200 ... 200,
        # decides with the t, critical value and p-value that the response
        # as given has on the same smoother, bit for bit; dgm's statistic
        # and critical value carry y's units squared, so they are 4**k of
        # those, for the power of two 2**k that standardize applies to y
        d = make_dataset(62, 40, q=1)
        cfg = TestConfig(
            bandwidths=default_bandwidths(40, 2.0),
            statistic=statistic,
            critical=critical,
            B=19,
            seed=3,
        )
        sd = standardize(d)
        as_given = Dataset(y=d.y, w=sd.w, x=sd.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds)
        want = decide_scaled(as_given, compute_smoother(as_given, cfg.bandwidths.g), cfg)
        units = 2 * response_exponent(d.y) if statistic == "dgm" else 0
        for j in range(-200, 201, 4):
            y = np.ldexp(d.y, j)
            got = run_test(Dataset(y=y, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds), cfg)
            assert got.standardized == np.ldexp(want.standardized, units)
            assert got.critical_value == np.ldexp(want.critical_value, units)
            assert (got.p_value, got.reject) == (want.p_value, want.reject)


class TestReuseCorrectness:
    def test_scratch_equals_cached(self):
        d, sd, sm, bw = wide_case(seed=60, n=30)
        eng = StatEngine(sd, sm, bw.h, psi="normal")
        eta = draw_multipliers(30, 17, range(1))[0]
        ystar = null_resample(sm, sd.y, eta)
        fast_uf = recompute_uf(sm.pairwise, ystar)
        fast_itilde = eng.itilde(ystar, fast_uf)
        fast_var = eng.var_hat(fast_uf)

        fresh = Dataset(
            y=ystar, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds
        )
        sdf = standardize(fresh)
        smf = compute_smoother(sdf, bw.g)
        scratch = StatEngine(sdf, smf, bw.h, psi="normal")

        # standardize takes ystar times its own power of two, 2**k: back in
        # the units of ystar, times 2**-k, 4**-k and 16**-k (exact)
        k = response_exponent(ystar)
        assert np.array_equal(sdf.y, np.ldexp(ystar, k))
        assert np.allclose(np.ldexp(smf.uf, -k), fast_uf, rtol=1e-12, atol=1e-15)
        assert np.ldexp(scratch.itilde(sdf.y, smf.uf), -2 * k) == pytest.approx(
            fast_itilde, rel=1e-12
        )
        assert np.ldexp(scratch.var_hat(smf.uf), -4 * k) == pytest.approx(fast_var, rel=1e-12)


class TestSampleSharing:
    def test_tests_share_engines_not_observed_statistics(self, monkeypatch):
        sd = standardize(make_dataset(61, 100, q=2))
        bw = default_bandwidths(100, 2.0)
        sm = compute_smoother(sd, bw.g)
        built = []
        init = StatEngine.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(StatEngine, "__init__", counted)
        lmp = decide_scaled(sd, sm, TestConfig(bw, B=9, seed=3))
        lmp_asym = decide_scaled(sd, sm, TestConfig(bw, critical="asymptotic"))
        decide_scaled(sd, sm, TestConfig(bw, statistic="lv", B=9, seed=3))
        decide_scaled(sd, sm, TestConfig(bw, statistic="dgm", B=9, seed=3))

        assert lmp.raw == lmp_asym.raw
        assert lmp.variance_estimate == lmp_asym.variance_estimate
        assert lmp.standardized == lmp_asym.standardized
        assert len(built) == 2  # lmp and lmp-asym share one, lv builds the other
        assert all(isinstance(v, (StatEngine, CvmEngine)) for v in sm.cache.values())
        assert len(sm.cache) == 3  # one per pair weight: normal, joint, and dgm's None

    def test_smoother_at_another_g_is_refused(self):
        # the smoother's weights at g enter every statistic, so one computed
        # at another g would decide a different test than the record reports
        _, sd, sm, bw = wide_case()
        cfg = TestConfig(Bandwidths(g=2.0, h=bw.h), B=9)
        with pytest.raises(ValueError, match=r"computed at g = 4\.0.*configured with g = 2\.0"):
            decide_scaled(sd, sm, cfg)
        assert sm.cache == {}  # refused before any engine is built


class TestDgmDrawByHand:
    def test_draws_match_scalar_loops(self):
        # every dgm bootstrap draw, rebuilt from its definition with scalar
        # loops and no production code beyond the multiplier stream:
        # y*_i = rhat_i + eta_i (y_i - rhat_i) where observation i has a
        # neighbour, y_i elsewhere; uf* over the oracle's L; then the CvM sum
        sd = standardize(make_dataset(5, 9, q=2))
        g, B, seed = 1.2, 5, 77
        cfg = TestConfig(bandwidths=Bandwidths(g=g, h=g), statistic="dgm", B=B, seed=seed)
        draws = decide_scaled(sd, compute_smoother(sd, g), cfg).bootstrap_draws
        assert len(draws) == B
        t = OracleTables(sd, g, g)
        n, y, L = t.n, t.y, t.L
        _, rhat, _ = oracle_smoother(sd, g)
        for b in range(B):
            eta = explicit_multipliers(n, seed, b)
            ystar = [
                rhat[i] + eta[i] * (y[i] - rhat[i]) if math.fsum(L[i]) > 0.0 else y[i]
                for i in range(n)
            ]
            ufstar = [
                math.fsum((ystar[i] - ystar[k]) * L[i][k] for k in range(n) if k != i) / (n - 1)
                for i in range(n)
            ]
            assert draws[b] == pytest.approx(oracle_dgm(sd, ufstar), rel=1e-10)
