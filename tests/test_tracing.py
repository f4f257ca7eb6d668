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
