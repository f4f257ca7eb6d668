"""Dataset container, column-role schema, CSV ingestion, and standardization.

A dataset holds a response vector ``y``, a matrix ``w`` of covariates kept
under the null hypothesis, and a matrix ``x`` of covariates under test.
Columns are either continuous (finite reals, rescaled before smoothing) or
discrete (real-coded labels compared by exact equality, never rescaled).
"""

from __future__ import annotations

import csv
import enum
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files, schemas, or dataset contents."""


class ColumnKind(enum.Enum):
    CONTINUOUS = "cont"
    DISCRETE = "disc"


def _as_kind_tuple(kinds, count: int, what: str) -> tuple[ColumnKind, ...]:
    kinds = tuple(kinds)
    if len(kinds) != count:
        raise DataError(f"{what}: expected {count} column kinds, got {len(kinds)}")
    for k in kinds:
        if not isinstance(k, ColumnKind):
            raise DataError(f"{what}: invalid column kind {k!r}")
    return kinds


def _check_finite(arr: np.ndarray, what: str) -> None:
    if arr.size and not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        where = f"row {int(bad[0])}" + (f", column {int(bad[1])}" if len(bad) > 1 else "")
        raise DataError(f"{what}: non-finite entry at {where}")


def _as_columns(a, n: int, what: str) -> np.ndarray:
    """A float copy of ``a`` as a matrix; a vector is one column (none if empty)."""
    a = np.array(a, dtype=float, order="C")
    if a.ndim == 1:
        a = a.reshape(-1, 1) if a.size else a.reshape(n, 0)
    if a.ndim != 2:
        raise DataError(f"{what} must be a vector or a matrix")
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable (y, w, x) sample with per-column kinds.

    y, w and x are the dataset's own read-only float copies of what it was
    given, so later edits to the caller's arrays do not reach it; a vector w
    or x is one column. The floor ``n >= 2`` is enforced here; each statistic
    imposes its own larger floor (pair statistics need 3, four-index
    arrangements 5, the six-index variance estimator 7) at the point of use.
    """

    y: np.ndarray
    w: np.ndarray
    x: np.ndarray
    w_kinds: tuple[ColumnKind, ...]
    x_kinds: tuple[ColumnKind, ...]

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        if y.ndim != 1:
            raise DataError("y must be a vector")
        n = len(y)
        if n < 2:
            raise DataError("need at least 2 observations")
        w = _as_columns(self.w, n, "w")
        x = _as_columns(self.x, n, "x")
        if w.shape[0] != n or x.shape[0] != n:
            raise DataError(
                f"row mismatch: y has {n}, w has {w.shape[0]}, x has {x.shape[0]}"
            )
        if w.shape[1] < 1:
            raise DataError("w must have at least one column")
        _check_finite(y, "y")
        _check_finite(w, "w")
        _check_finite(x, "x")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(
            self, "w_kinds", _as_kind_tuple(self.w_kinds, w.shape[1], "w_kinds")
        )
        object.__setattr__(
            self, "x_kinds", _as_kind_tuple(self.x_kinds, x.shape[1], "x_kinds")
        )
        for arr in (y, w, x):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return self.w.shape[1]

    @property
    def q(self) -> int:
        return self.x.shape[1]

    @property
    def p_cont(self) -> int:
        """Number of continuous w columns (the effective smoothing dimension)."""
        return sum(k is ColumnKind.CONTINUOUS for k in self.w_kinds)

    def w_split(self) -> tuple[np.ndarray, np.ndarray]:
        """(continuous w columns, discrete w columns)."""
        cont = [i for i, k in enumerate(self.w_kinds) if k is ColumnKind.CONTINUOUS]
        disc = [i for i, k in enumerate(self.w_kinds) if k is ColumnKind.DISCRETE]
        return self.w[:, cont], self.w[:, disc]

    @property
    def dataset(self) -> Dataset:
        # the sample itself: perfbench/tracing.py::sweep reads
        # standardize(...).dataset.y outside its try, and perfbench/ changes
        # only with the benchmark; delete once the sweep reads .y
        return self


def all_continuous(count: int) -> tuple[ColumnKind, ...]:
    return (ColumnKind.CONTINUOUS,) * count


@dataclass(frozen=True)
class ColumnSchema:
    """Maps CSV column names onto the y/w/x roles and marks discrete columns."""

    y: str
    w: tuple[str, ...]
    x: tuple[str, ...]
    discrete: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "discrete", frozenset(self.discrete))
        roles = [self.y, *self.w, *self.x]
        repeated = sorted({c for c in roles if roles.count(c) > 1})
        if repeated:
            raise DataError(
                f"columns used in more than one role: {repeated}; y, w and x must be disjoint"
            )
        if not self.w:
            raise DataError("schema must name at least one w column")
        unknown = self.discrete - set(roles[1:])
        if unknown:
            raise DataError(
                f"discrete columns not among w/x: {sorted(unknown)}"
            )

    def kinds_for(self, names: tuple[str, ...]) -> tuple[ColumnKind, ...]:
        return tuple(
            ColumnKind.DISCRETE if c in self.discrete else ColumnKind.CONTINUOUS
            for c in names
        )


def _parse_rows(path: Path, rows: list[list[str]], width: int, positions: dict) -> dict:
    """The columns named in ``positions`` (name: place in the header) of the
    rows ``csv.reader`` read, as ``float(cell)`` parses each stripped cell.
    Read row by row, and in each row in the order of ``positions``, the
    first row not ``width`` fields wide or cell that is not a finite number
    is a ``DataError``."""
    values = {name: np.empty(len(rows)) for name in positions}
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r + 1} has {len(row)} fields, header has {width}")
        for name, place in positions.items():
            cell = row[place].strip()
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell at row {r + 1}, column '{name}': {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}: non-finite value at row {r + 1}, column '{name}'")
            values[name][r] = v
    return values


def _load_table(path: Path, width: int) -> np.ndarray | None:
    """The data rows (all but the first line) as one float table, parsed by
    numpy's C reader, or None where the table is not one ``load_dataset``
    would take as it stands: the reader raises or warns (as on an empty
    table), the width is not ``width``, or a value is not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, encoding="utf-8-sig", ndmin=2
            )
    except (ValueError, Warning):
        return None
    if table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def load_dataset(path: str | Path, schema: ColumnSchema) -> Dataset:
    """Read a delimited numeric table with a header row into a Dataset.

    The header is read by ``csv.reader``. The rows are read first by
    ``np.loadtxt``, whose C parser reads a well-formed file (every row as
    wide as the header, every cell a finite number, blank lines skipped)
    about twice as fast, with the same values. Any file it refuses (a
    quoted, empty or non-numeric cell, a whitespace-only line, a short or
    long row, a non-finite value, no data rows) is read again by
    ``csv.reader`` and parsed row by row with ``float()``. An error names
    the first bad row or cell in that order: its row (1-based, excluding
    the header) and column.
    """
    path = Path(path)
    try:
        # utf-8-sig: a byte-order mark, as Excel writes, is not part of the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [c.strip() for c in header]
            table = _load_table(path, len(header))
            if table is None:
                rows = [row for row in reader if "".join(row).strip()]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    wanted = [schema.y, *schema.w, *schema.x]
    positions = {}
    for name in wanted:
        if name not in header:
            raise DataError(f"missing column '{name}' in {path}")
        if header.count(name) > 1:
            raise DataError(f"column '{name}' appears more than once in the header of {path}")
        positions[name] = header.index(name)

    if table is not None:
        n = len(table)
        values = {name: table[:, positions[name]] for name in wanted}
    else:
        n = len(rows)
        values = _parse_rows(path, rows, len(header), positions)

    w = np.column_stack([values[c] for c in schema.w]) if schema.w else np.empty((n, 0))
    if schema.x:
        x = np.column_stack([values[c] for c in schema.x])
    else:
        x = np.empty((n, 0))
    return Dataset(
        y=values[schema.y],
        w=w,
        x=x,
        w_kinds=schema.kinds_for(schema.w),
        x_kinds=schema.kinds_for(schema.x),
    )


def save_dataset(path: str | Path, dataset: Dataset, schema: ColumnSchema) -> None:
    """Write a Dataset back to CSV using shortest round-trip float formatting."""
    names = [schema.y, *schema.w, *schema.x]
    if len(schema.w) != dataset.p or len(schema.x) != dataset.q:
        raise DataError("schema column counts do not match dataset")
    cols = [dataset.y] + [dataset.w[:, j] for j in range(dataset.p)] + [
        dataset.x[:, j] for j in range(dataset.q)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in range(dataset.n):
            writer.writerow([repr(float(col[r])) for col in cols])


def response_exponent(y: np.ndarray) -> int:
    """The k for which 2**k times the range of y lies in [0.5, 1), or 0 for
    a constant y. The ends are halved only where their difference could
    overflow (an end of size 1 or more), so a subnormal range is not lost."""
    top, bottom = float(np.max(y)), float(np.min(y))
    if top == bottom:
        return 0
    halve = top >= 1.0 or bottom <= -1.0
    spread = top / 2.0 - bottom / 2.0 if halve else top - bottom
    return -math.frexp(spread)[1] - halve


def _scale_columns(m: np.ndarray, kinds, role: str) -> np.ndarray:
    """m with its continuous columns divided by their sample sd; an error
    names a constant one by its role and 1-based place, as in ``x column 2``.
    Each is first taken times its power of two (``response_exponent``), an
    exact product, so no squared deviation overflows."""
    out = m.copy()
    for j, kind in enumerate(kinds):
        if kind is not ColumnKind.CONTINUOUS:
            continue
        column = m[:, j]
        if column.min() == column.max():
            raise DataError(
                f"{role} column {j + 1} has zero sample standard deviation; "
                "mark it discrete or remove it"
            )
        column = np.ldexp(column, response_exponent(column))
        out[:, j] = column / np.std(column, ddof=1)
    return out


def standardize(d: Dataset) -> Dataset:
    """The sample with its continuous w/x columns divided by their sample sd
    (n-1 denominator), and y times the power of two that brings its range
    into [0.5, 1) (``response_exponent``). That product is exact, so no
    studentized statistic, p-value or decision depends on the scale of y,
    and no scale of y makes one overflow or underflow.
    """
    w = _scale_columns(d.w, d.w_kinds, "w")
    x = _scale_columns(d.x, d.x_kinds, "x")
    y = np.ldexp(d.y, response_exponent(d.y))
    return Dataset(y=y, w=w, x=x, w_kinds=d.w_kinds, x_kinds=d.x_kinds)
