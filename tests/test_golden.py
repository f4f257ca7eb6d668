"""Every --figure preset, run at a tiny size, reproduces its committed CSV
byte for byte. This covers every test template and DGP family, so a change
that moves any number of any preset shows up here.

A change that is meant to move a number re-records the goldens, from the
repository root, with

    for t in level-cont power-quad power-n power-alt level-disc power-disc; do
        PYTHONPATH=src python -m npsigtest.cli simulate --figure $t \\
            --reps 3 --boot 19 --seed 11 --out tests/golden/$t.csv
    done

and says so in CHANGES.md.
"""

import os

import pytest

from npsigtest.cli import EXIT_OK, main
from npsigtest.designs import FIGURE_TAGS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("tag", FIGURE_TAGS)
def test_figure_matches_golden(tag, tmp_path):
    out = tmp_path / f"{tag}.csv"
    args = ["simulate", "--figure", tag, "--reps", "3", "--boot", "19", "--seed", "11"]
    assert main(args + ["--out", str(out)]) == EXIT_OK
    with open(os.path.join(GOLDEN, f"{tag}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()
