import numpy as np
import pytest

import npsigtest.data as data
from npsigtest.data import (
    ColumnKind,
    ColumnSchema,
    DataError,
    Dataset,
    all_continuous,
    load_dataset,
    save_dataset,
    standardize,
)

from conftest import make_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadDataset:
    def test_three_row_csv(self, tmp_path):
        path = write(tmp_path, "y,w1,w2,x1\n1,2,3,4\n5,6,7,8\n9,10,11,12\n")
        schema = ColumnSchema(y="y", w=("w1", "w2"), x=("x1",))
        d = load_dataset(path, schema)
        assert (d.n, d.p, d.q) == (3, 2, 1)
        assert np.array_equal(d.y, [1, 5, 9])
        assert np.array_equal(d.w[:, 1], [3, 7, 11])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "y,w1,x1\n1,2,3\n4,5,6\n")
        schema = ColumnSchema(y="y", w=("w9",), x=("x1",))
        with pytest.raises(DataError, match="missing column 'w9'"):
            load_dataset(path, schema)

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,w1,x1\n1,2,3\n4,5,6\n")
        d = load_dataset(path, ColumnSchema(y="y", w=("w1",), x=("x1",)))
        assert np.array_equal(d.y, [1, 4])

    def test_repeated_named_column_refused(self, tmp_path):
        path = write(tmp_path, "y,w1,w2,x1,x1\n1,2,3,4,5\n6,7,8,9,10\n")
        schema = ColumnSchema(y="y", w=("w1", "w2"), x=("x1",))
        with pytest.raises(DataError, match="column 'x1' appears more than once"):
            load_dataset(path, schema)

    def test_repeated_unnamed_column_allowed(self, tmp_path):
        path = write(tmp_path, "y,w1,x1,z,z\n1,2,3,4,5\n6,7,8,9,10\n")
        d = load_dataset(path, ColumnSchema(y="y", w=("w1",), x=("x1",)))
        assert np.array_equal(d.x[:, 0], [3, 8])

    def test_nan_cell_named(self, tmp_path):
        path = write(tmp_path, "y,w1,x1\n1,2,3\n4,nan,6\n")
        schema = ColumnSchema(y="y", w=("w1",), x=("x1",))
        with pytest.raises(DataError, match="row 2, column 'w1'"):
            load_dataset(path, schema)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "y,w1,x1\n1,2,3\n4,oops,6\n")
        schema = ColumnSchema(y="y", w=("w1",), x=("x1",))
        with pytest.raises(DataError, match="non-numeric cell at row 2"):
            load_dataset(path, schema)

    def test_cells_parse_as_float_does(self, tmp_path):
        # padded, signed, exponent, underscore and non-ASCII-digit cells
        # convert to exactly the double float(cell) gives
        rng = np.random.default_rng(8)
        scaled = rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)
        cells = [repr(float(v)) for v in scaled]
        cells += [" 1.5", "2.25 ", "\t-0.0", "\xa07e-3", "+4", "1_000.5", "\u0661\u0662"]
        cells += [".5", "5."]
        lines = "".join(f"{c},{i}.0,1\n" for i, c in enumerate(cells))
        path = tmp_path / "cells.csv"
        path.write_text("y,w1,x1\n" + lines, encoding="utf-8")
        d = load_dataset(path, ColumnSchema(y="y", w=("w1",), x=("x1",)))
        want = np.array([float(c) for c in cells])
        assert d.y.tobytes() == want.tobytes()

    def test_first_bad_cell_in_row_order(self, tmp_path):
        # the error names the first bad cell reading row by row, whichever
        # column it is in, and a short row only when no cell before it is bad
        schema = ColumnSchema(y="y", w=("w1",), x=("x1",))
        cases = [
            ("y,w1,x1", "1,2,3\n4,5,oops\n7,inf,9\n", "non-numeric cell at row 2, column 'x1'"),
            ("y,w1,x1", "1,2,3\n4,5,inf\noops,8,9\n", "non-finite value at row 2, column 'x1'"),
            ("y,w1,x1", "1,2,3\n4,5\n7,oops,9\n", "row 2 has 2 fields, header has 3"),
            ("y,w1,x1", "1,oops,3\n4,5\n", "non-numeric cell at row 1, column 'w1': 'oops'"),
            # the short row's own cells are not read
            ("y,w1,x1", "1,2,3\n4,oops\n", "row 2 has 2 fields, header has 3"),
            # z is in no role, so its cells are not read
            ("y,w1,x1,z", "1,2,3,4\n4,5,6,oops\n7,8,nan,10\n",
             "non-finite value at row 3, column 'x1'"),
            # within a row, y is read first, wherever the header puts it
            ("w1,x1,y", "1,2,3\noops,5,inf\n", "non-finite value at row 2, column 'y'"),
        ]
        for i, (header, body, message) in enumerate(cases):
            path = write(tmp_path, header + "\n" + body, name=f"bad{i}.csv")
            with pytest.raises(DataError, match=message):
                load_dataset(path, schema)

    def test_discrete_kinds_assigned(self, tmp_path):
        path = write(tmp_path, "y,w1,x1\n1,2,0\n4,5,1\n7,8,0\n")
        schema = ColumnSchema(y="y", w=("w1",), x=("x1",), discrete=frozenset({"x1"}))
        d = load_dataset(path, schema)
        assert d.x_kinds == (ColumnKind.DISCRETE,)
        assert d.w_kinds == (ColumnKind.CONTINUOUS,)

    def test_roundtrip_bit_exact(self, tmp_path):
        d = make_dataset(11, 20, q=2)
        schema = ColumnSchema(y="y", w=("w1", "w2"), x=("x1", "x2"))
        path = tmp_path / "roundtrip.csv"
        save_dataset(path, d, schema)
        d2 = load_dataset(path, schema)
        assert np.array_equal(d.y, d2.y)
        assert np.array_equal(d.w, d2.w)
        assert np.array_equal(d.x, d2.x)


# files on which numpy's reader and csv.reader must agree; True where numpy's
# reader takes the file as it stands
INGEST_CASES = {
    "byte-order mark": ("\ufeffy,w1,w2,x1\n1,2,3,4\n5,6,7,8\n", True),
    "CRLF": ("y,w1,w2,x1\r\n1,2,3,4\r\n5,6,7,8\r\n", True),
    "blank lines": ("y,w1,w2,x1\n\n1,2,3,4\n\n5,6,7,8\n\n", True),
    "whitespace-only lines": ("y,w1,w2,x1\n1,2,3,4\n  \n\t\n5,6,7,8\n", False),
    "comma-only row": ("y,w1,w2,x1\n1,2,3,4\n,,,\n5,6,7,8\n", False),
    "quoted cells": ('y,w1,w2,x1\n"1",2,3,4\n5,"6",7,8\n', False),
    "spaces and tabs": ("y,w1,w2,x1\n 1 ,\t2,3\t, 4\n5 , 6,7 ,8\n", True),
    "underscore": ("y,w1,w2,x1\n1_000,2,3,4\n5,6,7,8\n", False),
    "hexadecimal": ("y,w1,w2,x1\n0x10,2,3,4\n5,6,7,8\n", False),
    "hash": ("y,w1,w2,x1\n1,2#x,3,4\n5,6,7,8\n", False),
    "nan": ("y,w1,w2,x1\n1,2,nan,4\n5,6,7,8\n", False),
    "inf": ("y,w1,w2,x1\n1,2,3,4\n5,-inf,7,8\n", False),
    "short row": ("y,w1,w2,x1\n1,2,3,4\n5,6,7\n", False),
    "every row one field longer": ("y,w1,w2,x1\n1,2,3,4,9\n5,6,7,8,9\n", False),
    "unwanted non-numeric column": ("y,w1,note,w2,x1\n1,2,a,3,4\n5,6,b,7,8\n", False),
    "header only": ("y,w1,w2,x1\n", False),
}


@pytest.mark.parametrize("case", list(INGEST_CASES))
def test_numpy_reader_agrees_with_csv_reader(tmp_path, monkeypatch, case):
    # load_dataset reads a file with np.loadtxt where it can and with
    # csv.reader where numpy refuses it: the two give the same Dataset, or
    # the same error, on every file
    text, numpy_reads_it = INGEST_CASES[case]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    schema = ColumnSchema(y="y", w=("w1", "w2"), x=("x1",))
    csv_reads = []
    parse_rows = data._parse_rows
    monkeypatch.setattr(
        data, "_parse_rows", lambda *a: csv_reads.append(1) or parse_rows(*a)
    )

    def load():
        try:
            d = load_dataset(path, schema)
        except DataError as exc:
            return str(exc)
        return d.y, d.w, d.x

    as_is = load()
    assert csv_reads == ([] if numpy_reads_it else [1])

    def refuse(*args, **kwargs):
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    csv_only = load()
    if isinstance(csv_only, str):
        assert as_is == csv_only
    else:
        assert all(np.array_equal(a, b) for a, b in zip(as_is, csv_only, strict=True))
    if case == "header only":
        assert csv_only.endswith("need at least 2 observations")


class TestSchema:
    def test_roles_must_be_disjoint(self):
        with pytest.raises(DataError, match="disjoint"):
            ColumnSchema(y="y", w=("a", "b"), x=("b",))

    def test_unknown_discrete_column(self):
        with pytest.raises(DataError, match="discrete"):
            ColumnSchema(y="y", w=("a",), x=("b",), discrete=frozenset({"zz"}))


class TestDataset:
    def test_rejects_nonfinite(self):
        with pytest.raises(DataError, match="non-finite"):
            Dataset(
                y=[1.0, np.inf, 3.0],
                w=np.ones((3, 1)),
                x=np.ones((3, 1)),
                w_kinds=all_continuous(1),
                x_kinds=all_continuous(1),
            )

    def test_immutable_arrays(self):
        d = make_dataset(1, 6)
        with pytest.raises(ValueError):
            d.y[0] = 99.0

    def test_callers_arrays_stay_writable_and_apart(self):
        # contiguous float64 inputs are the case numpy would not copy
        y, w, x = np.arange(4.0), np.ones((4, 2)), np.zeros((4, 1))
        d = Dataset(y=y, w=w, x=x, w_kinds=all_continuous(2), x_kinds=all_continuous(1))
        for given in (y, w, x):
            assert given.flags.writeable
        y[0], w[0, 0], x[0, 0] = 9.0, 9.0, 9.0
        assert d.y[0] == 0.0 and d.w[0, 0] == 1.0 and d.x[0, 0] == 0.0

    def test_vector_w_and_x_are_one_column(self):
        d = Dataset(
            y=[1.0, 2.0, 4.0],
            w=np.array([0.5, 1.5, 2.5]),
            x=np.array([1.0, 0.0, 1.0]),
            w_kinds=all_continuous(1),
            x_kinds=(ColumnKind.DISCRETE,),
        )
        assert d.w.shape == (3, 1) and d.x.shape == (3, 1)
        assert np.array_equal(d.w[:, 0], [0.5, 1.5, 2.5])

    def test_p_cont_counts_continuous_only(self):
        d = Dataset(
            y=[1.0, 2.0, 3.0],
            w=np.column_stack([np.arange(3.0), [0.0, 1.0, 0.0]]),
            x=np.ones((3, 0)),
            w_kinds=(ColumnKind.CONTINUOUS, ColumnKind.DISCRETE),
            x_kinds=(),
        )
        assert d.p_cont == 1
        cont, disc = d.w_split()
        assert cont.shape == (3, 1) and disc.shape == (3, 1)


class TestStandardize:
    def test_divides_by_sample_sd(self):
        d = Dataset(
            y=[1.0, 2.0, 3.0],
            w=np.array([[0.0], [2.0], [4.0]]),
            x=np.ones((3, 0)),
            w_kinds=all_continuous(1),
            x_kinds=(),
        )
        sd = standardize(d)
        assert np.allclose(sd.w[:, 0], [0.0, 1.0, 2.0])

    def test_unit_sd_column_unchanged(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(40)
        col = col / col.std(ddof=1)
        d = Dataset(
            y=rng.standard_normal(40),
            w=col.reshape(-1, 1),
            x=np.ones((40, 0)),
            w_kinds=all_continuous(1),
            x_kinds=(),
        )
        sd = standardize(d)
        assert np.allclose(sd.w[:, 0], col, atol=1e-12)

    def test_constant_continuous_column_errors(self):
        d = Dataset(
            y=[1.0, 2.0, 3.0],
            w=np.ones((3, 1)),
            x=np.ones((3, 0)),
            w_kinds=all_continuous(1),
            x_kinds=(),
        )
        with pytest.raises(DataError, match="mark it discrete"):
            standardize(d)

    def test_discrete_passthrough(self):
        d = Dataset(
            y=[1.0, 2.0, 3.0, 4.0],
            w=np.column_stack([np.arange(4.0), [0.0, 1.0, 0.0, 1.0]]),
            x=np.ones((4, 0)),
            w_kinds=(ColumnKind.CONTINUOUS, ColumnKind.DISCRETE),
            x_kinds=(),
        )
        sd = standardize(d)
        assert np.array_equal(sd.w[:, 1], d.w[:, 1])

    def test_idempotent(self):
        d = make_dataset(7, 25, q=2)
        once = standardize(d)
        twice = standardize(once)
        assert np.allclose(twice.w, once.w, rtol=0.0, atol=1e-12)
        assert np.allclose(twice.x, once.x, rtol=0.0, atol=1e-12)

    def test_y_untouched(self):
        d = make_dataset(8, 15)
        sd = standardize(d)
        assert np.array_equal(sd.y, d.y)
