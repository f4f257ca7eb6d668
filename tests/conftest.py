import math

import numpy as np
import pytest

import npsigtest.kernels as kernels
from npsigtest.bootstrap import MAMMEN_HIGH, MAMMEN_LOW, MAMMEN_P_LOW
from npsigtest.data import Dataset, all_continuous, standardize
from npsigtest.kernels import Bandwidths
from npsigtest.smoother import compute_smoother


# the forms in which the oracle and batched-draw suites run: ``chosen``
# leaves each fork of the pair-weight sums to its rule, which at their n
# (6 to 100) mostly takes the dense forms; ``forced`` takes the list triple
# sums and the tiled block products at any n. The forks are independent
# (the triple sums make itilde's coefficients, the products multiply
# whatever values they are given), so one forced form covers both
FORMS = ("chosen", "forced")


def force_forms(patch, triples=None, products=None, chunk=None):
    """Pins, through ``patch`` (a ``pytest.MonkeyPatch``), the form of
    ``PairWeights.triple_sums`` (``triples``: "lists" or "dense") and of a
    block ``PairWeights.product`` (``products``: "tiles" or "dense") at any
    n, and the number of candidates or list terms a loop takes at once
    (``chunk``). What is not given keeps its rule or value."""
    pinned = {"lists": 0.0, "tiles": 0.0, "dense": math.inf}
    if triples is not None:
        patch.setattr(kernels, "_TERMS_PER_N2", pinned[triples])
    if products is not None:
        patch.setattr(kernels, "_VOLUME_PER_N2", pinned[products])
    if chunk is not None:
        patch.setattr(kernels, "_CHUNK", chunk)


def pytest_generate_tests(metafunc):
    # the chosen form keeps each test's own id; a test marked
    # chosen_form_only is not collected in the forced form
    if "form" in metafunc.fixturenames:
        forms = FORMS[:1] if metafunc.definition.get_closest_marker("chosen_form_only") else FORMS
        ids = [pytest.HIDDEN_PARAM, "forced"][: len(forms)]
        metafunc.parametrize("form", forms, ids=ids, indirect=True)


@pytest.fixture
def form(request, monkeypatch):
    """The form of the pair-weight sums a test runs in (``FORMS``)."""
    if request.param == "forced":
        force_forms(monkeypatch, triples="lists", products="tiles")
    return request.param


def record_forms(monkeypatch):
    """From now on, the form each ``PairWeights.triple_sums`` call takes,
    in a list ("lists" or "dense"), and the set of forms that block
    ``PairWeights.product`` calls take ("tiles" or "dense")."""
    taken = {"triples": [], "products": set()}
    weights = kernels.PairWeights
    triple_sums, dense_sums, product = (
        weights.triple_sums, weights._dense_triple_sums, weights.product
    )

    def sums(self, a):
        taken["triples"].append("lists")
        return triple_sums(self, a)

    def dense(self, a):
        taken["triples"][-1] = "dense"
        return dense_sums(self, a)

    def products(self, y):
        out = product(self, y)
        if y.ndim == 2:  # only a tiled product builds the tiles' values
            taken["products"].add("dense" if self._tiled is None else "tiles")
        return out

    monkeypatch.setattr(weights, "triple_sums", sums)
    monkeypatch.setattr(weights, "_dense_triple_sums", dense)
    monkeypatch.setattr(weights, "product", products)
    return taken


@pytest.fixture
def rng():
    return np.random.default_rng(20240201)


def make_dataset(seed: int, n: int, q: int = 1, p: int = 2) -> Dataset:
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, q, p]))
    w = rng.standard_normal((n, p))
    x = rng.standard_normal((n, q))
    y = 0.7 * w[:, 0] + rng.standard_normal(n)
    return Dataset(y=y, w=w, x=x, w_kinds=all_continuous(p), x_kinds=all_continuous(q))


def explicit_uniforms(n: int, seed: int, b: int) -> np.ndarray:
    """The first n doubles of bootstrap draw b's stream, built the explicit
    way: a fresh SeedSequence and Generator for (seed mod 2**64, b)."""
    return np.random.default_rng(np.random.SeedSequence([seed % 2**64, b])).random(n)


def explicit_multipliers(n: int, seed: int, b: int) -> np.ndarray:
    """Bootstrap draw b's Mammen multipliers, from ``explicit_uniforms``."""
    u = explicit_uniforms(n, seed, b)
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
