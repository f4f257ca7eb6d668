"""Preset Monte Carlo designs behind the simulate command's --figure tags.

A design is its grid cells and its test battery; ``figure_design`` looks one
up by tag. ``replications`` is the one rule for the default replication
count of any design, preset or explicit grid: desk-scale counts keep a full
design under a coffee break on a laptop, and --paper-scale switches to
publication-grade 5000/2000-replication runs (budget hours, depending on
workers). Delta grids were calibrated once so power sweeps the interesting
range (from the nominal level up the curve) and are recorded here as plain
constants.
"""

from __future__ import annotations

from .simulation import Cell, TestTemplate, grid_cells

DESK_LEVEL_REPS = 500
DESK_POWER_REPS = 300
PAPER_LEVEL_REPS = 5000
PAPER_POWER_REPS = 2000

C_GRID = (0.5, 1.0, 2.0, 4.0)

LMP = TestTemplate(name="lmp", statistic="itilde", psi="normal")
LMP_TRI = TestTemplate(name="lmp-tri", statistic="itilde", psi="triangular")
LMP_ASYM = TestTemplate(name="lmp-asym", statistic="itilde", psi="normal", critical="asymptotic")
LV = TestTemplate(name="lv", statistic="lv")
DGM = TestTemplate(name="dgm", statistic="dgm")
FISHER = TestTemplate(name="fisher", statistic="fisher")
IND = TestTemplate(name="ind", statistic="itilde", psi="indicator")
IND_ASYM = TestTemplate(name="ind-asym", statistic="itilde", psi="indicator", critical="asymptotic")

# delta grids calibrated at n=100 (see README): lmp power runs from
# near-level up the curve across each grid (sine saturates slowly in
# dimension 5; its top end needs the larger bandwidth factors)
DELTA_QUAD = (0.8, 1.6, 2.4, 3.2)
DELTA_LINEAR = (1.0, 2.0, 4.0, 6.0)
DELTA_SINE = (2.0, 4.0, 6.0, 8.0)
DELTA_DISC_QUAD = (1.0, 2.0, 3.0, 4.0)
DELTA_DISC_SINE = (2.0, 4.0, 6.0, 8.0)

TEMPLATES = {
    t.name: t
    for t in (LMP, LMP_TRI, LMP_ASYM, LV, DGM, FISHER, IND, IND_ASYM)
}

# tag -> (cells, tests); a power design lists the null (delta = 0) cells
# of its first alternative ahead of the alternative cells
_FIGURES = {
    "level-cont": (
        grid_cells("continuous", ("null",), (100,), (1, 2, 5), (0.0,), C_GRID),
        (LMP, LMP_TRI, LMP_ASYM, LV, DGM),
    ),
    "power-quad": (
        grid_cells("continuous", ("null", "quadratic"), (100,), (1, 2, 5), DELTA_QUAD, C_GRID),
        (LMP, LV, DGM, FISHER),
    ),
    "power-n": (
        grid_cells("continuous", ("null", "quadratic"), (50, 100, 200), (5,), DELTA_QUAD, (2.0,)),
        (LMP, LV, DGM, FISHER),
    ),
    "power-alt": (
        grid_cells("continuous", ("null", "linear"), (100,), (5,), DELTA_LINEAR, (1.0, 2.0, 4.0))
        + grid_cells("continuous", ("sine",), (100,), (5,), DELTA_SINE, (1.0, 2.0, 4.0)),
        (LMP, LV, DGM, FISHER),
    ),
    "level-disc": (
        grid_cells("discrete_x", ("null",), (100,), (1,), (0.0,), C_GRID),
        (LMP, LMP_ASYM, IND, IND_ASYM),
    ),
    "power-disc": (
        grid_cells("discrete_x", ("null", "quadratic"), (100,), (1,), DELTA_DISC_QUAD, C_GRID)
        + grid_cells("discrete_x", ("sine",), (100,), (1,), DELTA_DISC_SINE, C_GRID),
        (LMP, IND),
    ),
}

FIGURE_TAGS = tuple(_FIGURES)


def figure_design(tag: str) -> tuple[tuple[Cell, ...], tuple[TestTemplate, ...]]:
    """The grid cells and the test battery of a named figure design."""
    if tag not in _FIGURES:
        raise ValueError(f"unknown figure tag {tag!r}; known: {', '.join(FIGURE_TAGS)}")
    return _FIGURES[tag]


def replications(cells, paper_scale: bool) -> int:
    """Default replication count: a design whose cells are all null measures
    level and gets more replications than a power design."""
    level = all(cell.dgp.alternative == "null" for cell in cells)
    if paper_scale:
        return PAPER_LEVEL_REPS if level else PAPER_POWER_REPS
    return DESK_LEVEL_REPS if level else DESK_POWER_REPS
