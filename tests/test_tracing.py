"""The benchmark's per-layer trace finds every layer it times.

``perfbench/tracing.py`` looks each layer up by module and attribute name and
reports a name it cannot find as absent, with 0 calls, so renaming a layer
would otherwise go unnoticed.
"""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    return tracing


def test_every_boundary_resolves(tracing):
    absent = [
        name
        for name, sites in tracing.BOUNDARIES
        if not any(tracing._resolve(site) is not None for site in sites)
    ]
    assert absent == []


def test_sweep_reads_the_library(tracing, monkeypatch):
    # the layer sweep calls the library directly, outside the tracer's
    # lookups; one small size and one call per step keep this quick
    monkeypatch.setattr(tracing, "SWEEP_SIZES", (30,))

    def once(fn):
        fn()
        return 1.0

    monkeypatch.setattr(tracing, "_median_ms", once)
    out, absent = tracing.sweep(1)
    for name in ("smoother.compute_smoother", "statistics.StatEngine.build", "smoother.recompute_uf"):
        key = f"sweep.n30.{name}.ms_per_call"
        assert key in out and key not in absent
