"""A pytest plugin that makes every block product of pair weights take the
tiles, at any n: ``python -m pytest -p tiles_forced ...`` with ``tests/`` on
the path (``tests/test_kernels.py`` runs the oracle and batched-draw suites
so)."""

import npsigtest.kernels as kernels


def pytest_configure(config):
    kernels._VOLUME_PER_N2 = 0
