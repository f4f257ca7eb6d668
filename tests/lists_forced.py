"""A pytest plugin that makes every triple sum of pair weights take the
lists, at any n: ``python -m pytest -p lists_forced ...`` with ``tests/`` on
the path (CI runs the oracle and batched-draw suites so)."""

import npsigtest.kernels as kernels


def pytest_configure(config):
    kernels._TERMS_PER_N2 = 0
