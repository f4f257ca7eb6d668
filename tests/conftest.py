import numpy as np
import pytest

from npsigtest.bootstrap import MAMMEN_HIGH, MAMMEN_LOW, MAMMEN_P_LOW
from npsigtest.data import Dataset, all_continuous, standardize
from npsigtest.kernels import Bandwidths
from npsigtest.smoother import compute_smoother


@pytest.fixture
def rng():
    return np.random.default_rng(20240201)


def make_dataset(seed: int, n: int, q: int = 1, p: int = 2) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, q, p]))
    w = rng.standard_normal((n, p))
    x = rng.standard_normal((n, q))
    y = 0.7 * w[:, 0] + rng.standard_normal(n)
    return Dataset(y=y, w=w, x=x, w_kinds=all_continuous(p), x_kinds=all_continuous(q))


def explicit_multipliers(n: int, seed: int, b: int) -> np.ndarray:
    """Bootstrap draw b's Mammen multipliers, built the explicit way: a fresh
    SeedSequence and Generator for the stream (seed mod 2**64, b)."""
    u = np.random.default_rng(np.random.SeedSequence([seed % 2**64, b])).random(n)
    return np.where(u < MAMMEN_P_LOW, MAMMEN_LOW, MAMMEN_HIGH)


@pytest.fixture
def small_case():
    """Standardized n=12 dataset with wide-bandwidth smoother outputs."""
    data = make_dataset(3, 12, q=2)
    sd = standardize(data)
    bw = Bandwidths(g=1.5, h=1.2, c=1.0)
    sm = compute_smoother(sd, bw.g)
    return data, sd, sm, bw, "normal"


def wide_case(seed: int = 41, n: int = 25):
    """Dataset, its standardized copy, smoother and bandwidths, with g wide
    enough that no observation is isolated (every leave-one-out density is
    positive)."""
    d = make_dataset(seed, n, q=1)
    sd = standardize(d)
    bw = Bandwidths(g=4.0, h=1.0, c=1.0)
    sm = compute_smoother(sd, bw.g)
    assert np.all(sm.fhat > 0)
    return d, sd, sm, bw
