"""The three benchmark workloads: inputs made from a seed, one op, its output.

Every op calls a public entry point of the package:

* ``mc-n100``: one Monte Carlo replication through
  ``simulation.run_experiment`` (replications=1, master_seed = seed + i).
* ``boot-n500``: one in-process ``npsigtest test`` bootstrap call through
  ``cli.main`` on a CSV with n=500.
* ``asym-n2000``: one in-process ``npsigtest test --asymptotic`` call through
  ``cli.main`` on a CSV with n=2000.

Op ``i`` uses input ``i mod cycle``, so a run of any length stays within the
recorded references. This module imports numpy and the package lazily, so a
worker can time the package import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

MC_TESTS = ("lmp", "lmp-asym", "lv", "dgm", "fisher")
REL_TOL = 1e-10  # relative tolerance on the floating-point CLI outputs
FLOAT_KEYS = ("standardized", "critical_value", "p_value")


@dataclass(frozen=True)
class Size:
    """Problem size of a workload; ``tiny`` is the self-test size."""

    n: int
    B: int
    cycle: int


SIZES = {
    "mc-n100": {"full": Size(n=100, B=199, cycle=256), "tiny": Size(n=30, B=19, cycle=4)},
    "boot-n500": {"full": Size(n=500, B=199, cycle=16), "tiny": Size(n=40, B=19, cycle=2)},
    "asym-n2000": {"full": Size(n=2000, B=0, cycle=1), "tiny": Size(n=60, B=0, cycle=1)},
}
WORKLOADS = tuple(SIZES)

# traced ops per --seconds of run time: about half the run untraced and half
# traced at the seed commit's speed, and a fixed count so calls repeat exactly
TRACE_OPS_PER_SECOND = {"mc-n100": 3.5, "boot-n500": 0.25, "asym-n2000": 0.7}


def make_columns(seed: int, tag: int, n: int, n_wc: int, n_wd: int, n_xc: int):
    """(y, w, x) arrays from the benchmark's own generator: null regression
    (w'theta)^3 - w'theta + 2*noise on the continuous w columns; discrete w
    columns take values in {0, 1, 2}."""
    import numpy as np

    rng = np.random.default_rng([seed % (1 << 63), tag])
    wc = rng.standard_normal((n, n_wc))
    wd = rng.integers(0, 3, size=(n, n_wd)).astype(float)
    x = rng.standard_normal((n, n_xc))
    index = wc.sum(axis=1) / math.sqrt(n_wc)
    y = index**3 - index + 2.0 * rng.standard_normal(n)
    return y, np.hstack([wc, wd]), x


def _write_csv(path: str, y, w, x) -> tuple[list[str], list[str]]:
    import numpy as np

    w_names = [f"w{j + 1}" for j in range(w.shape[1])]
    x_names = [f"x{j + 1}" for j in range(x.shape[1])]
    np.savetxt(
        path,
        np.column_stack([y, w, x]),
        fmt="%.17g",
        delimiter=",",
        header=",".join(["y", *w_names, *x_names]),
        comments="",
    )
    return w_names, x_names


class Workload:
    """Inputs of one workload for one seed, and the op that consumes them."""

    def __init__(self, name: str, seed: int, size: str, workdir: str):
        self.name = name
        self.seed = seed
        self.size = SIZES[name][size]
        if name == "mc-n100":
            self._build_mc()
        else:
            self._build_cli(workdir)

    def _build_mc(self) -> None:
        from npsigtest.designs import TEMPLATES
        from npsigtest.simulation import Cell, DgpSpec, ExperimentConfig

        cell = Cell(dgp=DgpSpec(family="continuous", n=self.size.n, q=2), c=2.0)
        tests = tuple(TEMPLATES[t] for t in MC_TESTS)
        self.configs = [
            ExperimentConfig(
                cells=(cell,),
                tests=tests,
                replications=1,
                master_seed=self.seed + i,
                alpha=0.10,
                B=self.size.B,
                workers=1,
            )
            for i in range(self.size.cycle)
        ]

    def _build_cli(self, workdir: str) -> None:
        n = self.size.n
        if self.name == "boot-n500":
            y, w, x = make_columns(self.seed, 500, n, n_wc=2, n_wd=0, n_xc=5)
            disc = []
        else:
            y, w, x = make_columns(self.seed, 2000, n, n_wc=2, n_wd=1, n_xc=3)
            disc = ["w3"]
        path = os.path.join(workdir, f"{self.name}-seed{self.seed}.csv")
        w_names, x_names = _write_csv(path, y, w, x)
        base = ["test", "--data", path, "--y", "y", "--w", ",".join(w_names),
                "--x", ",".join(x_names), "--json"]
        if disc:
            base += ["--disc", ",".join(disc)]
        if self.name == "boot-n500":
            base += ["--stat", "itilde", "--variance", "var_hat", "--boot", str(self.size.B)]
        else:
            base += ["--stat", "itilde", "--variance", "var_tilde", "--asymptotic"]
        self.argvs = [base + ["--seed", str(self.seed + i)] for i in range(self.size.cycle)]

    def op(self, i: int):
        """Run op ``i`` and return its output in comparable form."""
        k = i % self.size.cycle
        if self.name == "mc-n100":
            from npsigtest import simulation

            table = simulation.run_experiment(self.configs[k])
            return {
                r.test: [None if math.isnan(r.reject_rate) else r.reject_rate, r.failures]
                for r in table.rows
            }
        from npsigtest import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(self.argvs[k]))
        record = json.loads(out.getvalue()) if code in (0, 3) else {}
        return {"exit": code, "reject": record.get("reject"),
                **{key: record.get(key) for key in FLOAT_KEYS}}


def invariant_errors(name: str, out: dict) -> list[str]:
    """Checks that hold for any seed, with or without a reference."""
    errors = []
    if name == "mc-n100":
        for test in MC_TESTS:
            rate, failures = out.get(test, (None, None))
            if not ((failures == 0 and rate in (0.0, 1.0)) or (failures == 1 and rate is None)):
                errors.append(f"{test}: reject_rate {rate} with {failures} failures")
        return errors
    if out["exit"] not in (0, 3):
        return [f"exit code {out['exit']}"]
    if (out["exit"] == 3) != out["reject"]:
        errors.append(f"exit code {out['exit']} disagrees with reject={out['reject']}")
    for key in FLOAT_KEYS:
        if not isinstance(out[key], float) or not math.isfinite(out[key]):
            errors.append(f"{key} is {out[key]!r}")
    if not errors and not 0.0 < out["p_value"] <= 1.0:
        errors.append(f"p_value {out['p_value']} outside (0, 1]")
    return errors


def reference_errors(name: str, out: dict, ref: dict) -> list[str]:
    """Differences from a recorded reference output: decisions exactly,
    floating-point outputs within REL_TOL relative."""
    if name == "mc-n100":
        return [f"{t}: {out.get(t)} != reference {ref[t]}" for t in ref if out.get(t) != ref[t]]
    errors = [f"{k}: {out[k]} != reference {ref[k]}" for k in ("exit", "reject") if out[k] != ref[k]]
    for key in FLOAT_KEYS:
        a, b = out[key], ref[key]
        if a is None or b is None:
            if a != b:
                errors.append(f"{key}: {a} != reference {b}")
        elif abs(a - b) > REL_TOL * max(abs(b), 1e-300):
            errors.append(f"{key}: {a!r} differs from reference {b!r}")
    return errors


REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(refdir: str, name: str, seed: int, size: str) -> str:
    return os.path.join(refdir, f"{name}.{size}.seed{seed}.json")


def load_reference(refdir: str, name: str, seed: int, size: str):
    """Recorded outputs indexed by op input, or None when none was recorded."""
    try:
        with open(reference_path(refdir, name, seed, size)) as fh:
            return json.load(fh)["outputs"]
    except FileNotFoundError:
        return None
