import numpy as np
import pytest

from npsigtest.data import Dataset, all_continuous, standardize
from npsigtest.oracles import oracle_smoother
from npsigtest.smoother import MAX_OBSERVATIONS, compute_smoother, recompute_uf

from conftest import make_dataset


def smooth(data, g):
    return standardize(data), compute_smoother(standardize(data), g)


class TestComputeSmoother:
    def test_constant_response(self):
        d = Dataset(
            y=np.full(8, 3.25),
            w=np.linspace(0, 1, 8).reshape(-1, 1),
            x=np.ones((8, 0)),
            w_kinds=all_continuous(1),
            x_kinds=(),
        )
        sd = standardize(d)
        sm = compute_smoother(sd, 2.0)
        assert np.all(sm.fhat > 0)
        assert np.allclose(sm.rhat, 3.25, atol=1e-12)
        assert np.allclose(sm.uf, 0.0, atol=1e-12)

    def test_tiny_bandwidth_empty_support(self):
        d = make_dataset(4, 10)
        sd = standardize(d)
        sm = compute_smoother(sd, 1e-9)
        assert np.all(sm.fhat == 0.0)
        assert np.all(np.isnan(sm.rhat))
        assert np.all(sm.uf == 0.0)

    def test_n3_hand_oracle(self):
        d = make_dataset(9, 3, q=1)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.7)
        fhat, rhat, uf = oracle_smoother(sd, 1.7)
        assert np.allclose(sm.fhat, fhat, rtol=1e-12)
        assert np.allclose(sm.rhat, rhat, rtol=1e-12, equal_nan=True)
        assert np.allclose(sm.uf, uf, rtol=1e-12)

    def test_uf_identity(self):
        d = make_dataset(12, 30, q=2)
        sd = standardize(d)
        sm = compute_smoother(sd, 0.8)
        mask = sm.fhat > 0
        assert np.allclose(
            sm.uf[mask],
            sm.fhat[mask] * (d.y[mask] - sm.rhat[mask]),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_requires_three_observations(self):
        d = Dataset(
            y=[1.0, 2.0],
            w=[[0.0], [1.0]],
            x=np.ones((2, 0)),
            w_kinds=all_continuous(1),
            x_kinds=(),
        )
        with pytest.raises(ValueError, match="n >= 3"):
            compute_smoother(standardize(d), 1.0)

    def test_refuses_more_than_max_observations(self):
        d = make_dataset(21, MAX_OBSERVATIONS + 1, q=1)
        with pytest.raises(ValueError) as exc:
            compute_smoother(standardize(d), 0.9)
        message = str(exc.value)
        assert "4001" in message and "4000" in message
        assert "122 MB each" in message and "1221 MB in all" in message
        assert "subsample" in message

    def test_pairwise_symmetric_zero_diagonal(self):
        d = make_dataset(6, 15)
        L = compute_smoother(standardize(d), 1.1).pairwise.dense()
        assert np.array_equal(L, L.T)
        assert np.all(np.diag(L) == 0.0)


class TestEquivariance:
    def test_shift(self):
        d = make_dataset(13, 25)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.0)
        shifted = Dataset(
            y=d.y + 5.5, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds
        )
        sms = compute_smoother(standardize(shifted), 1.0)
        assert np.allclose(sms.uf, sm.uf, atol=1e-12)
        assert np.allclose(sms.rhat, sm.rhat + 5.5, rtol=1e-12, equal_nan=True)

    def test_scale(self):
        d = make_dataset(14, 25)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.0)
        lam = 2.0  # power of two keeps the scaling exact in floating point
        scaled = Dataset(
            y=lam * d.y, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds
        )
        sms = compute_smoother(standardize(scaled), 1.0)
        assert np.array_equal(sms.uf, lam * sm.uf)
        mask = sm.fhat > 0
        assert np.allclose(sms.rhat[mask], lam * sm.rhat[mask], rtol=1e-12)

    def test_permutation(self):
        d = make_dataset(15, 25)
        perm = np.random.default_rng(0).permutation(25)
        permuted = Dataset(
            y=d.y[perm],
            w=d.w[perm],
            x=d.x[perm],
            w_kinds=d.w_kinds,
            x_kinds=d.x_kinds,
        )
        sm = compute_smoother(standardize(d), 1.0)
        smp = compute_smoother(standardize(permuted), 1.0)
        assert np.allclose(smp.uf, sm.uf[perm], rtol=1e-10, atol=1e-13)
        assert np.allclose(smp.fhat, sm.fhat[perm], rtol=1e-10)


class TestRecomputeUf:
    def test_matches_smoother_on_same_response(self):
        d = make_dataset(16, 20)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.0)
        again = recompute_uf(sm.pairwise, d.y)
        assert np.array_equal(again, sm.uf)

    def test_linear_in_response(self):
        d = make_dataset(17, 20)
        sd = standardize(d)
        sm = compute_smoother(sd, 1.0)
        y2 = np.random.default_rng(1).standard_normal(20)
        both = recompute_uf(sm.pairwise, d.y + y2)
        assert np.allclose(
            both, sm.uf + recompute_uf(sm.pairwise, y2), rtol=1e-10, atol=1e-14
        )
