import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import npsigtest
from npsigtest import cli
from npsigtest.bootstrap import STATISTICS, VARIANCES
from npsigtest.cli import EXIT_OK, EXIT_REJECT, EXIT_RUNTIME, EXIT_USAGE, main
from npsigtest.data import ColumnKind, ColumnSchema, Dataset, save_dataset
from npsigtest.designs import TEMPLATES, figure_design
from npsigtest.kernels import PSI_FAMILIES
from npsigtest.simulation import DgpSpec, ResultTable, generate, grid_cells

SRC = os.path.dirname(os.path.dirname(os.path.abspath(npsigtest.__file__)))


@pytest.fixture
def null_csv(tmp_path):
    """Seeded null dataset pre-screened not to reject at the defaults."""
    d = generate(
        DgpSpec(family="continuous", n=60, q=1), np.random.default_rng(1)
    )
    path = tmp_path / "null.csv"
    save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
    return path


@pytest.fixture
def discrete_csv(tmp_path):
    d = generate(DgpSpec(family="discrete_x", n=40), np.random.default_rng(2))
    path = tmp_path / "disc.csv"
    save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
    return path


def scaled_sample(tmp_path, scale: float):
    """A CSV of the n = 200, q = 2 continuous sample with y times scale."""
    d = generate(DgpSpec(family="continuous", n=200, q=2), np.random.default_rng(5))
    d = Dataset(y=d.y * scale, w=d.w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds)
    path = tmp_path / f"scaled-{scale:g}.csv"
    save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1", "x2")))
    return path


def sample_args(path):
    return ["test", "--data", str(path), "--y", "y", "--w", "w1,w2", "--x", "x1,x2"]


def scaled_decision(tmp_path, capsys, scale: float, extra) -> dict:
    """The --json record of a test of ``scaled_sample``, which must decide
    with nothing on stderr."""
    code = main(sample_args(scaled_sample(tmp_path, scale)) + ["--seed", "1", "--json", *extra])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_REJECT) and captured.err == ""
    return json.loads(captured.out)


def assert_same_decision(got: dict, unit: dict, dgm: bool) -> None:
    """The decision of a rescaled y is that of unit scale: the same p-value
    for dgm, whose values carry the units of the standardized y, and t
    within 1e-10 relative for a studentized statistic."""
    if dgm:
        assert got["p_value"] == unit["p_value"]
    else:
        assert abs(got["standardized"] - unit["standardized"]) <= 1e-10 * abs(unit["standardized"])
    assert got["reject"] == unit["reject"]


def base_args(path):
    return ["test", "--data", str(path), "--y", "y", "--w", "w1,w2", "--x", "x1"]


class TestCmdTest:
    def test_null_dataset_accepts(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--seed", "99"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "fail to reject" in out

    def test_json_output_schema(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--seed", "99", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        for key in (
            "schema_version",
            "statistic",
            "raw",
            "standardized",
            "critical_value",
            "reject",
            "p_value",
            "seed",
        ):
            assert key in record
        assert record["schema_version"] == 3

    @pytest.mark.parametrize(
        "flags, psi, variance",
        [
            (["--psi", "triangular"], "triangular", "var_hat"),
            (["--stat", "lv", "--psi", "indicator"], "joint", "var_hat"),
            (["--stat", "dgm", "--variance", "var_tilde"], None, None),
        ],
    )
    def test_output_names_the_weight_the_test_used(self, null_csv, capsys, flags, psi, variance):
        # lv weighs pairs by its own x kernel and dgm weighs none, so
        # neither reports the --psi (nor dgm the --variance) it ignored
        args = base_args(null_csv) + flags + ["--boot", "19", "--seed", "99"]
        assert main(args + ["--json"]) in (EXIT_OK, EXIT_REJECT)
        record = json.loads(capsys.readouterr().out)
        assert (record["psi"], record["variance"]) == (psi, variance)
        assert record["schema_version"] == 3
        main(args)
        used = f" (psi={psi}, variance={variance})" if psi else ""
        assert capsys.readouterr().out.splitlines()[0] == f"statistic {record['statistic']}{used}"

    def test_csv_output_two_lines(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--seed", "99", "--csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == EXIT_OK
        assert len(lines) == 2
        assert lines[0].startswith("schema_version,statistic")

    def test_overlapping_roles_usage_error(self, null_csv, capsys):
        code = main(
            ["test", "--data", str(null_csv), "--y", "y", "--w", "w1,w2", "--x", "w2"]
        )
        assert code == EXIT_USAGE
        assert "more than one role" in capsys.readouterr().err

    def test_unknown_discrete_column_usage_error(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--disc", "zz", "--seed", "1"])
        assert code == EXIT_USAGE
        assert "error: --y/--w/--x/--disc: discrete columns not among w/x: ['zz']" in (
            capsys.readouterr().err
        )

    def test_lv_discrete_x_runtime_error(self, discrete_csv, capsys):
        code = main(
            base_args(discrete_csv)
            + ["--disc", "x1", "--stat", "lv", "--seed", "1"]
        )
        assert code == EXIT_RUNTIME
        assert "LV requires continuous X" in capsys.readouterr().err

    def test_missing_column_runtime_error(self, null_csv, capsys):
        code = main(
            ["test", "--data", str(null_csv), "--y", "y", "--w", "w9", "--x", "x1"]
        )
        assert code == EXIT_RUNTIME
        assert "missing column" in capsys.readouterr().err

    def test_oversized_sample_runtime_error(self, tmp_path, capsys):
        d = generate(
            DgpSpec(family="continuous", n=4001, q=1), np.random.default_rng(3)
        )
        path = tmp_path / "big.csv"
        save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
        code = main(base_args(path) + ["--seed", "1", "--asymptotic"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "4000" in err and "MB in all" in err

    def test_byte_order_mark_csv_loads(self, null_csv, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + null_csv.read_bytes())
        code = main(base_args(bom) + ["--seed", "99", "--boot", "29"])
        assert code == EXIT_OK, capsys.readouterr().err

    def test_repeated_named_column_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "rep.csv"
        path.write_text("y,w1,w2,x1,x1\n" + "".join(
            f"{i % 3},{i},{i * i % 7},{i % 5},{i % 2}\n" for i in range(12)))
        code = main(base_args(path) + ["--seed", "1", "--asymptotic"])
        assert code == EXIT_RUNTIME
        assert "column 'x1' appears more than once" in capsys.readouterr().err

    def test_constant_column_named_by_role(self, tmp_path, capsys):
        # x2, the second x column, is constant; the CSV's column 1 is w1
        path = tmp_path / "const.csv"
        path.write_text("y,w1,x1,x2\n" + "".join(
            f"{i % 3},{i},{i * i % 7},5\n" for i in range(12)))
        code = main(["test", "--data", str(path), "--y", "y", "--w", "w1",
                     "--x", "x1,x2", "--seed", "1", "--asymptotic"])
        assert code == EXIT_RUNTIME
        assert ("error: x column 2 has zero sample standard deviation; "
                "mark it discrete or remove it") in capsys.readouterr().err

    def test_var_tilde_below_its_floor_runtime_error(self, tmp_path, capsys):
        d = generate(
            DgpSpec(family="continuous", n=6, q=1), np.random.default_rng(4)
        )
        path = tmp_path / "six.csv"
        save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
        code = main(base_args(path) + ["--seed", "1", "--variance", "var_tilde"])
        assert code == EXIT_RUNTIME
        assert "var_tilde needs n >= 7" in capsys.readouterr().err

    def test_no_weighted_pair_names_the_remedy(self, tmp_path, capsys):
        # psi=indicator weighs only pairs with equal x, and x1 is continuous
        d = generate(DgpSpec(family="continuous", n=80, q=1), np.random.default_rng(1))
        path = tmp_path / "cont.csv"
        save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
        code = main(base_args(path) + ["--seed", "1", "--asymptotic", "--psi", "indicator"])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "no two observations within the test bandwidth h = 0.431468" in err
        assert "increase the bandwidth factor c (--c)" in err
        assert "continuous x columns need psi=normal or psi=triangular" in err

    def test_variance_at_a_scale_that_overflows_decides(self, tmp_path, capsys):
        # y at 1e78, where var_hat of the unscaled y overflows a float: the
        # test decides, with the unit-scale t and nothing on stderr
        unit = scaled_decision(tmp_path, capsys, 1.0, ["--asymptotic"])
        got = scaled_decision(tmp_path, capsys, 1e78, ["--asymptotic"])
        assert_same_decision(got, unit, dgm=False)

    @pytest.mark.parametrize(
        "extra, statistic",
        [
            (["--stat", "dgm", "--boot", "19"], "dgm statistic"),
            (["--asymptotic"], "itilde statistic or its variance"),
            (["--asymptotic", "--variance", "var_tilde"], "itilde statistic or its variance"),
        ],
    )
    def test_overflow_is_one_error_line(self, tmp_path, capsys, extra, statistic):
        # y at 1e300, where dgm's statistic, var_hat's uf * uf and
        # var_tilde's y * y of the unscaled y overflow a float: the test
        # decides as at unit scale, with nothing on stderr, no numpy warning
        # included. A fresh process, so that no warning filter of the tests
        # applies
        unit = scaled_decision(tmp_path, capsys, 1.0, extra)
        args = sample_args(scaled_sample(tmp_path, 1e300)) + ["--seed", "1", "--json", *extra]
        proc = subprocess.run(
            [sys.executable, "-m", "npsigtest.cli", *args],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (EXIT_OK, EXIT_REJECT)
        assert proc.stderr == ""
        assert_same_decision(json.loads(proc.stdout), unit, statistic.startswith("dgm"))

    def test_empty_csv_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(base_args(path) + ["--seed", "1"]) == EXIT_RUNTIME
        assert "empty file" in capsys.readouterr().err

    def test_missing_data_file_runtime_error(self, tmp_path, capsys):
        assert main(base_args(tmp_path / "none.csv") + ["--seed", "1"]) == EXIT_RUNTIME
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("data", ["null.csv", "missing.csv"])
    def test_dgm_with_asymptotic_usage_error(self, null_csv, capsys, data):
        # a usage error whatever the data: it is found before they are read
        args = base_args(null_csv.with_name(data))
        code = main(args + ["--seed", "1", "--stat", "dgm", "--asymptotic"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --stat/--asymptotic: ")
        assert "use bootstrap critical values" in err

    @pytest.mark.parametrize("c, power", [("1e300", "h**4"), ("1e-300", "h**-4")])
    def test_overflowing_bandwidth_factor_is_refused(self, null_csv, capsys, c, power):
        # h**4 or h**-4 (M∘M's power of h on two continuous w columns) would
        # overflow a float: refused with a message, not an OverflowError
        # past main
        code = main(base_args(null_csv) + ["--seed", "1", "--asymptotic", "--c", c])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: the test bandwidth h = ")
        assert f"{power} overflows a float" in err and "bandwidth factor c (--c" in err

    @pytest.mark.parametrize("variance", ["var_hat", "var_tilde"])
    def test_bandwidth_overflowing_the_squared_weights_is_refused(self, tmp_path, capsys, variance):
        # w rows in 30 identical pairs: at c = 1e-80 each pair weighs
        # 0.75 h**-2, finite, but M∘M holds h**-4, which overflows. Refused
        # before any weight is built, with the one error line naming h and
        # --c, not y; from c = 1e-76, where M∘M is finite, the test decides
        d = generate(DgpSpec(family="continuous", n=60, q=1), np.random.default_rng(1))
        w = d.w.copy()
        w[1::2] = w[0::2]
        path = tmp_path / "pairs.csv"
        d = Dataset(y=d.y, w=w, x=d.x, w_kinds=d.w_kinds, x_kinds=d.x_kinds)
        save_dataset(path, d, ColumnSchema(y="y", w=("w1", "w2"), x=("x1",)))
        args = base_args(path) + ["--seed", "1", "--asymptotic", "--variance", variance]
        assert main(args + ["--c", "1e-80"]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the test bandwidth h = 2.38587e-81 is out of range: h**-4 overflows a "
            "float; choose a larger bandwidth factor c (--c, or --cs of simulate)\n"
        )
        for c in ("1e-76", "1e-75", "1e-60"):
            assert main(args + ["--c", c]) in (EXIT_OK, EXIT_REJECT)
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "scale, extra, statistic",
        [
            (1e-80, ["--asymptotic"], "itilde statistic or its variance"),
            (1e-80, ["--asymptotic", "--variance", "var_tilde"], "itilde statistic or its variance"),
            (1e-80, ["--boot", "19"], "itilde statistic or its variance"),
            (1e-80, ["--boot", "19", "--variance", "var_tilde"], "itilde statistic or its variance"),
            (1e-300, ["--stat", "dgm", "--boot", "19"], "dgm statistic"),
            # the variance of the unscaled y underflows into the subnormal
            # floats, not to 0 (1e-323, 5e-324 and 8.3e-321)
            (1e-80, ["--stat", "lv", "--asymptotic"], "lv statistic or its variance"),
            (1e-80, ["--stat", "lv", "--asymptotic", "--variance", "var_tilde"], "lv statistic or its variance"),
            (1e-79, ["--asymptotic"], "itilde statistic or its variance"),
        ],
    )
    def test_underflow_names_the_scale_of_y(self, tmp_path, capsys, scale, extra, statistic):
        # at this scale of the unscaled y the variance, or dgm's statistic,
        # underflows to 0; the standardized y decides, with the unit-scale
        # t (dgm: the same p-value) and nothing on stderr
        unit = scaled_decision(tmp_path, capsys, 1.0, extra)
        got = scaled_decision(tmp_path, capsys, scale, extra)
        assert_same_decision(got, unit, statistic.startswith("dgm"))

    def test_asymptotic_flag(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--seed", "99", "--asymptotic", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert record["critical_method"] == "asymptotic"
        assert code in (EXIT_OK, EXIT_REJECT)

    def test_omitted_seed_is_logged(self, null_csv, capsys):
        code = main(base_args(null_csv) + ["--boot", "29"])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_REJECT)
        assert "seed:" in err

    def test_config_file_supplies_flags(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 99\nboot = 29\njson = true\n")
        code = main(base_args(null_csv) + ["--config", str(cfg)])
        record = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert record["seed"] == 99
        assert record["B"] == 29

    def test_explicit_flag_beats_config(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 1\n")
        code = main(base_args(null_csv) + ["--config", str(cfg), "--seed", "99", "--json"])
        record = json.loads(capsys.readouterr().out)
        assert record["seed"] == 99
        assert code == EXIT_OK

    def test_false_config_value_drops_its_flag(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 99\nboot = 29\njson = false\n")
        code = main(base_args(null_csv) + ["--config", str(cfg)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("statistic itilde")

    @pytest.mark.parametrize(
        "line, flags, key, want",
        [("boot = 99", ["--asymptotic"], "critical_method", "asymptotic"),
         ("asymptotic = true", ["--boot", "29"], "B", 29)],
    )
    def test_explicit_flag_beats_config_flag_it_excludes(
        self, null_csv, tmp_path, capsys, line, flags, key, want
    ):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{line}\nseed = 99\n")
        code = main(base_args(null_csv) + ["--config", str(cfg), *flags, "--json"])
        assert code in (EXIT_OK, EXIT_REJECT)
        assert json.loads(capsys.readouterr().out)[key] == want

    def test_explicit_csv_beats_config_json(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("json = true\nseed = 99\nboot = 29\n")
        code = main(base_args(null_csv) + ["--config", str(cfg), "--csv"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("schema_version,statistic")

    @pytest.mark.parametrize("config", ["", "boot = 29\n"])
    def test_abbreviated_flag_usage_error(self, null_csv, tmp_path, capsys, config):
        cfg = tmp_path / "run.conf"
        cfg.write_text(config)
        code = main(base_args(null_csv) + ["--config", str(cfg), "--seed", "1", "--asym"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --asym" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 99\nboot = 29\njson = true\n", encoding="utf-8-sig")
        code = main(base_args(null_csv) + ["--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_config_colon_lines(self, null_csv, tmp_path, capsys):
        # `key: value`, as the README documents, reads as `key = value`
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed: 99\nboot: 29\njson: true\n")
        code = main(base_args(null_csv) + ["--config", str(cfg)])
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert (record["seed"], record["B"]) == (99, 29)

    def test_config_equals_file(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 99\nboot = 29\njson = true\n")
        code = main(base_args(null_csv) + [f"--config={cfg}"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["B"] == 29

    def test_config_values_are_checked_like_flags(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("boot = 0\n")
        assert main(base_args(null_csv) + ["--config", str(cfg)]) == EXIT_USAGE
        assert "argument --boot" in capsys.readouterr().err

    def test_missing_config_file_runtime_error(self, null_csv, tmp_path, capsys):
        code = main(base_args(null_csv) + ["--config", str(tmp_path / "none.conf")])
        assert code == EXIT_RUNTIME
        assert "cannot read config" in capsys.readouterr().err

    def test_config_without_path_runtime_error(self, null_csv, capsys):
        assert main(base_args(null_csv) + ["--config"]) == EXIT_RUNTIME
        assert "--config requires a file path" in capsys.readouterr().err

    def test_config_line_without_separator_runtime_error(self, null_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed 99\n")
        assert main(base_args(null_csv) + ["--config", str(cfg)]) == EXIT_RUNTIME
        assert "not key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--x", ""), ("--w", " , "), ("--boot", "0"), ("--alpha", "nan"),
         ("--alpha", "1"), ("--c", "0"), ("--c", "nan"), ("--boot", "4294967297")],
    )
    def test_bad_flag_value_usage_error(self, null_csv, capsys, flag, value):
        code = main(base_args(null_csv) + [flag, value, "--seed", "1"])
        assert code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err


class TestCmdSimulate:
    def test_zero_reps_usage_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--figure", "level-disc", "--reps", "0", "--out", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_USAGE

    def test_unknown_figure_usage_error(self, tmp_path):
        code = main(
            ["simulate", "--figure", "level-nope", "--out", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_USAGE

    def test_missing_figure_usage_error(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "t.csv"), "--reps", "2"])
        assert code == EXIT_USAGE

    def test_explicit_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["simulate", "--family", "continuous", "--alt", "null,quadratic",
             "--n", "40", "--q", "1,2", "--deltas", "1.0", "--cs", "1,2",
             "--tests", "lmp,fisher", "--reps", "2", "--boot", "9",
             "--seed", "5", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        # cells: null (1 delta) x 2 q x 2 c + quadratic x 2 q x 2 c, 2 tests each
        assert len(lines) == 1 + (4 + 4) * 2

    def test_explicit_grid_unknown_test_name(self, tmp_path, capsys):
        code = main(
            ["simulate", "--family", "continuous", "--tests", "nope",
             "--reps", "1", "--out", str(tmp_path / "t.csv")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "argument --tests" in err and "unknown ['nope']" in err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--family", "continuous", "--n", "abc"], "--n"),
            (["--family", "continuous", "--q", "1,x"], "--q"),
            (["--family", "continuous", "--cs", ""], "--cs"),
            (["--family", "continuous", "--cs", "2,0"], "--cs"),
            (["--family", "continuous", "--alt", "bogus"], "--alt"),
            (["--figure", "level-disc", "--family", "continuous"], "--family"),
            (["--figure", "level-disc", "--threads", "0"], "--threads"),
            (["--figure", "level-disc", "--alpha", "0"], "--alpha"),
        ],
    )
    def test_bad_flag_usage_error(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "t.csv"
        code = main(["simulate", *extra, "--reps", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--alt", "null"), ("--n", "30"), ("--q", "1"), ("--deltas", "0"), ("--cs", "2"),
         ("--tests", "lmp")],
    )
    def test_figure_refuses_grid_flags(self, tmp_path, capsys, flag, value):
        out = tmp_path / "t.csv"
        code = main(["simulate", "--figure", "level-disc", flag, value, "--reps", "1",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"--figure takes no explicit-grid flags; got {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_flag_defaults(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "run_experiment", lambda cfg, progress: seen.append(cfg) or ResultTable(rows=())
        )
        code = main(["simulate", "--family", "continuous", "--n", "40", "--seed", "1",
                     "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_OK
        [cfg] = seen
        assert cfg.cells == grid_cells("continuous", ("null",), (40,), (1,), (0.0,), (2.0,))
        assert cfg.tests == (TEMPLATES["lmp"],)

    def test_explicit_figure_beats_config_grid(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(
            cli, "run_experiment", lambda cfg, progress: seen.append(cfg) or ResultTable(rows=())
        )
        conf = tmp_path / "e.conf"
        conf.write_text("family = continuous\nn = 50\n")
        code = main(["simulate", "--config", str(conf), "--figure", "level-disc", "--reps", "1",
                     "--boot", "9", "--seed", "1", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_OK
        [cfg] = seen
        assert cfg.cells == figure_design("level-disc")[0]

    @pytest.mark.parametrize(
        "cs, tests, refused",
        [
            ("1e300", "lmp", "test lmp: the test bandwidth h = 3.50461e+299 is out of range: h**4"),
            ("1e-300", "dgm,lmp", "test lmp: the test bandwidth h = 3.50461e-301 is out of range: h**-4"),
            # lv's M∘M carries h**-2(p + q), p + q = 2 + 5
            ("2,1e-60", "lmp,lv", "test lv: the test bandwidth h = 3.50461e-61 is out of range: h**-14"),
        ],
    )
    def test_overflowing_bandwidth_factor_usage_error(self, tmp_path, capsys, cs, tests, refused):
        out = tmp_path / "t.csv"
        code = main(["simulate", "--family", "continuous", "--n", "20", "--q", "5", "--cs", cs,
                     "--tests", tests, "--reps", "1", "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: --family/--alt/--n/--q/--tests: {refused} overflows a float" in err
        assert "bandwidth factor c (--c" in err
        assert "cell 1/" not in err  # refused before any replication
        assert not out.exists()

    def test_lv_on_discrete_family_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["simulate", "--family", "discrete_x", "--tests", "lmp,lv", "--reps", "1",
                     "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "error: --family/--alt/--n/--q/--tests: test lv needs a continuous X" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--family", "continuous", "--n", "4"], "test lmp needs n >= 5, got n = 4"),
            (["--family", "continuous", "--n", "4", "--tests", "fisher"],
             "test fisher needs n >= 5, got n = 4"),
            (["--family", "continuous", "--n", "2", "--tests", "dgm"],
             "test dgm needs n >= 3, got n = 2"),
            (["--family", "continuous", "--n", "100,4"], "test lmp needs n >= 5, got n = 4"),
            (["--family", "discrete_x", "--alt", "linear"],
             "the Bernoulli-x design has no linear alternative"),
            (["--family", "continuous", "--n", "1"], "n must be at least 2"),
            (["--family", "continuous", "--q", "0"], "continuous design needs q >= 1"),
            (["--family", "discrete_x", "--q", "3,-1", "--n", "30", "--boot", "9"],
             "the Bernoulli-x design has one x column (q = 1); got q = 3"),
            (["--family", "continuous", "--n", "4001", "--boot", "9", "--tests", "lmp-asym"],
             "test lmp-asym needs n <= 4000, got n = 4001"),
        ],
    )
    def test_grid_the_design_cannot_take_usage_error(self, tmp_path, capsys, extra, message):
        out = tmp_path / "t.csv"
        code = main(["simulate", *extra, "--reps", "1", "--seed", "1", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"error: --family/--alt/--n/--q/--tests: {message}" in err
        assert "cell 1/" not in err  # refused before any replication
        assert not out.exists()

    def test_rank_deficient_fisher_replications_count_as_failures(self, tmp_path):
        # at n = 5 the Bernoulli x column of a replication is constant with
        # chance 0.6**5 + 0.4**5, about 9%; the F-test cannot be fitted there
        out = tmp_path / "f.csv"
        code = main(["simulate", "--family", "discrete_x", "--n", "5", "--tests", "fisher",
                     "--reps", "50", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        [row] = list(csv.DictReader(out.open()))
        assert int(row["failures"]) > 0

    def test_unwritable_out_fails_before_running(self, tmp_path):
        out = tmp_path / "missing" / "t.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "npsigtest.cli", "simulate", "--figure", "level-disc",
             "--reps", "1", "--boot", "9", "--seed", "1", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_RUNTIME
        assert f"error: cannot write --out {out}" in proc.stderr
        assert "cell 1/" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (["--family", "discrete_x", "--paper-scale"], 5000),
            (["--family", "discrete_x", "--alt", "null,sine", "--deltas", "1"], 300),
            (["--figure", "power-disc", "--paper-scale"], 2000),
            (["--figure", "level-disc", "--paper-scale", "--reps", "3"], 3),
        ],
    )
    def test_replication_count_reaches_config(self, tmp_path, monkeypatch, extra, expected):
        # nothing is simulated: the stand-in records the experiment it is given
        seen = []
        monkeypatch.setattr(
            cli, "run_experiment", lambda cfg, progress: seen.append(cfg) or ResultTable(rows=())
        )
        code = main(["simulate", *extra, "--seed", "1", "--out", str(tmp_path / "t.csv")])
        assert code == EXIT_OK
        assert [cfg.replications for cfg in seen] == [expected]

    def test_level_cont_covers_design_cells(self, tmp_path):
        out = tmp_path / "level.csv"
        code = main(
            ["simulate", "--figure", "level-cont", "--reps", "2", "--boot", "9",
             "--seed", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()[1:]
        cells = {tuple(line.split(",")[:4]) for line in lines}
        # one row per (test, q, c) combination of the level design
        assert len(lines) == 5 * 3 * 4
        assert ("lmp", "100", "1", "0.5") in cells
        assert ("dgm", "100", "5", "4") in cells

    def test_writes_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--figure", "power-n", "--reps", "2", "--boot", "9",
            "--seed", "7",
        ]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "test,n,q,c,delta,alternative,alpha,reps,reject_rate,mc_se,failures"


class TestCmdSelfcheck:
    def test_fast_selfcheck_passes(self, capsys):
        code = main(["selfcheck", "--fast"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_thread_variable_is_ignored(self, monkeypatch):
        # --threads alone sets the worker count; no variable is read
        monkeypatch.setenv("NPSIGTEST_THREADS", "two")
        assert main(["selfcheck", "--fast"]) == EXIT_OK


class TestNegativeControl:
    def test_corrupted_decomposition_constant_fails(self):
        # mutation check: the identity must be sensitive to its coefficients
        from npsigtest.selfcheck import check_decomposition_identity

        name, ok, detail = check_decomposition_identity(range(100, 103), v2_coefficient=1.9)
        assert not ok


def test_import_does_not_load_scipy_stats(null_csv, tmp_path):
    # the package needs numpy only: importing any of scipy (scipy.special
    # alone took about 0.3 s) would be most of the start-up time. A bootstrap
    # test, an asymptotic var_tilde test and a one-worker simulation with the
    # F-test load none of it, nor numpy.ma, which a plain np.unique loads on
    # its first call (numpy 2.4), nor multiprocessing and concurrent, which
    # only a pool of workers needs; the third run groups a 3-level discrete
    # w column, as the pair search does with np.unique
    d = generate(DgpSpec(family="continuous", n=60, q=1), np.random.default_rng(4))
    levels = np.random.default_rng(5).integers(0, 3, size=(60, 1)).astype(float)
    disc_w = tmp_path / "disc_w.csv"
    save_dataset(
        disc_w,
        Dataset(
            y=d.y, w=np.hstack([d.w, levels]), x=d.x,
            w_kinds=(*d.w_kinds, ColumnKind.DISCRETE), x_kinds=d.x_kinds,
        ),
        ColumnSchema(y="y", w=("w1", "w2", "w3"), x=("x1",)),
    )
    runs = [
        base_args(null_csv) + ["--boot", "9", "--seed", "1"],
        base_args(null_csv) + ["--asymptotic", "--variance", "var_tilde"],
        ["test", "--data", str(disc_w), "--y", "y", "--w", "w1,w2,w3", "--x", "x1",
         "--disc", "w3", "--asymptotic"],
        ["simulate", "--family", "continuous", "--alt", "null,linear", "--n", "40",
         "--deltas", "1.0", "--cs", "2", "--tests", "lmp-asym,fisher", "--reps", "4",
         "--threads", "1", "--seed", "3", "--out", str(tmp_path / "sim.csv")],
    ]
    check = (
        "loaded = [m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent') "
        "or m.split('.')[:2] == ['numpy', 'ma']]; "
        "assert not loaded, loaded"
    )
    code = (
        "import sys, npsigtest, npsigtest.cli, npsigtest.selfcheck, npsigtest.designs\n"
        f"{check}\n"
        f"for args in {runs!r}:\n"
        "    code = npsigtest.cli.main(args)\n"
        f"    assert code in ({EXIT_OK}, {EXIT_REJECT}), (args, code)\n"
        f"    {check}\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert len((tmp_path / "sim.csv").read_text().splitlines()) == 1 + 2 * 2


def test_parser_is_built_once(null_csv, capsys):
    # one parser serves every call in a process: a usage error leaves
    # nothing behind that a later call would see
    runs = [
        base_args(null_csv) + ["--boot", "0"],
        base_args(null_csv) + ["--asymptotic", "--json", "--seed", "1"],
        base_args(null_csv) + ["--bogus"],
        ["test", "--help"],
        base_args(null_csv) + ["--asymptotic", "--csv", "--seed", "1"],
    ]

    def outcome(args):
        code = main(args)
        return code, capsys.readouterr()

    alone = []
    for args in runs:
        cli._build_parser.cache_clear()
        alone.append(outcome(args))
    cli._build_parser.cache_clear()
    together = [outcome(args) for args in runs]
    assert cli._build_parser.cache_info().misses == 1
    assert together == alone
    assert [code for code, _ in alone] == [EXIT_USAGE, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]


# an error line names what to change: a flag, a column, or n
NAMES_A_REMEDY = re.compile(r"--[a-z]|column|\bn\b|observations")


@st.composite
def generated_tables(draw):
    """A CSV table (header and rows of cells) and the flags of a test on it:
    1-3 w and x columns, y of magnitude 1e-300 to 1e300, n at and below
    each floor of the statistics, and now and then a quoted, empty, NaN or
    inf cell, a constant column or a column that repeats another."""
    n = draw(st.one_of(st.integers(0, 7), st.sampled_from([12, 30, 60])))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ["y"] + [f"w{j + 1}" for j in range(p)] + [f"x{j + 1}" for j in range(q)]
    columns = rng.standard_normal((p + q + 1, n))
    columns[0] = (columns[0] + columns[1]) * 10.0 ** draw(st.integers(-300, 300))
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.integers(0, p + q))
        if draw(st.booleans()):
            columns[column] = columns[column][:1].sum()  # its first value (0 when n = 0)
        else:
            columns[column] = columns[draw(st.integers(0, p + q))]
    cells = [[repr(float(v)) for v in row] for row in columns.T]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row, column = draw(st.integers(0, n - 1)), draw(st.integers(0, p + q))
        cell = cells[row][column]
        odd = [f'"{cell}"', f'" {cell} "', "", "nan", "inf", "-inf"]
        cells[row][column] = draw(st.sampled_from(odd))
    flags = ["--stat", draw(st.sampled_from(STATISTICS)), "--psi", draw(st.sampled_from(PSI_FAMILIES))]
    flags += ["--variance", draw(st.sampled_from(VARIANCES))]
    flags += draw(st.sampled_from([["--asymptotic"], ["--boot", "9"]]))
    flags += ["--c", draw(st.sampled_from(["0.5", "2", "8"])), "--seed", "1", "--json"]
    if draw(st.booleans()):
        flags += ["--disc", f"x{q}"]
    return names, cells, p, q, flags


class TestGeneratedInputs:
    @given(generated_tables())
    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_every_input_decides_or_names_a_remedy(self, tmp_path, capsys, table):
        # no input ends in a traceback or a numpy warning (Tier-1 makes a
        # RuntimeWarning an error): a decision gives a finite statistic and
        # a p-value in (0, 1], a refusal one error line naming what to change
        names, cells, p, q, flags = table
        path = tmp_path / "generated.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(names) + "\n")
            for row in cells:
                fh.write(",".join(row) + "\n")
        w = ",".join(names[1 : 1 + p])
        x = ",".join(names[1 + p :])
        code = main(["test", "--data", str(path), "--y", "y", "--w", w, "--x", x, *flags])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_REJECT)
        if code in (EXIT_OK, EXIT_REJECT):
            record = json.loads(captured.out)
            assert math.isfinite(record["standardized"])
            assert 0.0 < record["p_value"] <= 1.0
        else:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
            assert NAMES_A_REMEDY.search(lines[0]), lines[0]
