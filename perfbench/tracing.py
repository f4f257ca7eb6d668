"""Spans around the package's layer boundaries, and the layer sweep.

The tracer replaces each boundary name where its caller looks it up (for
example ``npsigtest.simulation.compute_smoother``) with a wrapper that records
a span: name, start, end, parent span and op id. Spans stay in memory until
the run ends. A boundary whose name no longer exists is reported as absent.
"""

from __future__ import annotations

import gzip
import statistics as stats
import time
from collections import Counter, defaultdict
from importlib import import_module

from workloads import MC_TESTS, make_columns

# (boundary, the places its callers look it up)
BOUNDARIES = (
    ("cli.main", ("cli:main",)),
    ("data.load_dataset", ("cli:load_dataset",)),
    ("data.standardize", ("bootstrap:standardize", "simulation:standardize")),
    ("kernels.mixed_kernel_matrix", ("statistics:mixed_kernel_matrix",)),
    ("kernels.psi_matrix", ("statistics:psi_matrix",)),
    ("kernels.joint_x_kernel_matrix", ("statistics:joint_x_kernel_matrix",)),
    ("smoother.compute_smoother", ("bootstrap:compute_smoother", "simulation:compute_smoother")),
    ("smoother.recompute_uf", ("bootstrap:recompute_uf", "smoother:recompute_uf", "statistics:recompute_uf")),
    ("statistics.StatEngine.build", ("statistics:StatEngine.__init__",)),
    ("statistics.StatEngine.itilde", ("statistics:StatEngine.itilde",)),
    ("statistics.StatEngine.ihat", ("statistics:StatEngine.ihat",)),
    ("statistics.StatEngine.var_hat", ("statistics:StatEngine.var_hat",)),
    ("statistics.StatEngine.var_tilde", ("statistics:StatEngine.var_tilde",)),
    ("statistics.CvmEngine.build", ("statistics:CvmEngine.__init__",)),
    ("statistics.CvmEngine.statistic", ("statistics:CvmEngine.statistic",)),
    ("statistics.fisher_test", ("simulation:fisher_test",)),
    ("bootstrap.run_test", ("cli:run_test",)),
    ("bootstrap.decide_scaled", ("bootstrap:decide_scaled", "simulation:decide_scaled")),
    ("bootstrap.draw_multipliers", ("bootstrap:draw_multipliers",)),
    ("bootstrap.null_resample", ("bootstrap:null_resample",)),
    ("simulation.run_experiment", ("simulation:run_experiment",)),
    ("simulation.generate", ("simulation:generate",)),
)

# boundaries called on every workload; only their self times go into the
# result line, so that no reported time is zero by construction
SELF_TIME_BOUNDARIES = (
    "data.standardize",
    "kernels.mixed_kernel_matrix",
    "kernels.psi_matrix",
    "smoother.compute_smoother",
    "smoother.recompute_uf",
    "statistics.StatEngine.build",
    "statistics.StatEngine.itilde",
    "bootstrap.decide_scaled",
)

SWEEP_SIZES = (100, 400, 800)
SWEEP_BOUNDARIES = (
    "smoother.compute_smoother",
    "statistics.StatEngine.build",
    "statistics.StatEngine.itilde",
    "smoother.recompute_uf",
)

COUNTERS = (
    ("bootstrap.draws_attempted", "count"),
    ("bootstrap.degenerate_draws", "count"),
    ("bootstrap.fallback_draws", "count"),
    ("bootstrap.kept_draw_ratio", "ratio"),
    *((f"simulation.degenerate_outcomes.{t}", "count") for t in MC_TESTS),
    ("statistics.itilde.gflop_computed", "GFLOP"),
    ("statistics.itilde.gflops_per_s_computed", "GFLOP/s"),
    ("statistics.StatEngine.nxn_bytes_computed", "B"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the result line, with its unit."""
    units = {f"{b}.calls": "count" for b, _ in BOUNDARIES}
    units.update({f"{b}.self_s": "s" for b in SELF_TIME_BOUNDARIES})
    units["op.residual_s"] = "s"
    units.update(dict(COUNTERS))
    units.update({
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_share": "ratio",
    })
    for n in SWEEP_SIZES:
        units.update({f"sweep.n{n}.{b}.ms_per_call": "ms" for b in SWEEP_BOUNDARIES})
    return units


def _resolve(site: str):
    """(owner object, attribute name) for 'module:Attr.attr', or None."""
    module, _, path = site.partition(":")
    owner = import_module(f"npsigtest.{module}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """In-memory spans plus the counts read at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.nxn_bytes = 0
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "statistics.StatEngine.build": self._after_engine_build,
            "statistics.StatEngine.itilde": self._after_itilde,
            "bootstrap.decide_scaled": self._after_decide,
            "simulation.run_experiment": self._after_experiment,
        }
        for name, sites in BOUNDARIES:
            found = [s for s in map(_resolve, sites) if s is not None]
            if not found:
                self.absent.append(name)
            for owner, attr in found:
                original = getattr(owner, attr)
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def run_op(self, i: int, fn):
        self.op = i
        try:
            return self.wrap("op", fn)(i)
        finally:
            self.op = -1

    def _after_engine_build(self, args, _):
        import numpy as np

        eng = args[0]
        n = eng.n
        held = {id(v): v.nbytes for v in vars(eng).values()
                if isinstance(v, np.ndarray) and v.shape == (n, n)}
        self.nxn_bytes = max(self.nxn_bytes, sum(held.values()))

    def _after_itilde(self, args, _):
        self.counts["itilde_flop"] += 2 * args[0].n ** 3

    def _after_decide(self, args, result):
        cfg = args[2]
        if cfg.critical == "bootstrap":
            self.counts["bootstrap.draws_attempted"] += cfg.B
            self.counts["kept"] += len(result.bootstrap_draws)
        for key in ("degenerate_draws", "fallback_draws"):
            self.counts[f"bootstrap.{key}"] += int(result.diagnostics.get(key, 0))

    def _after_experiment(self, _, table):
        for row in table.rows:
            self.counts[f"simulation.degenerate_outcomes.{row.test}"] += row.failures

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-boundary calls, self seconds and total (inclusive) seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[k]
            total_s[name] += end - start
        return dict(calls), dict(self_s), dict(total_s)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")

    def layer_metrics(self, ops_untraced: float, ops_traced: float) -> dict:
        calls, self_s, total_s = self.summary()
        out = {f"{b}.calls": calls.get(b, 0) for b, _ in BOUNDARIES}
        out.update({f"{b}.self_s": self_s.get(b, 0.0) for b, _ in BOUNDARIES})
        out.update({f"{b}.total_s": total_s.get(b, 0.0) for b, _ in BOUNDARIES})
        out["op.residual_s"] = self_s.get("op", 0.0)
        out["op.total_s"] = total_s.get("op", 0.0)
        c = self.counts
        attempted = c["bootstrap.draws_attempted"]
        for key in ("bootstrap.draws_attempted", "bootstrap.degenerate_draws",
                    "bootstrap.fallback_draws", *(f"simulation.degenerate_outcomes.{t}" for t in MC_TESTS)):
            out[key] = c[key]
        # no draws attempted means none wasted
        out["bootstrap.kept_draw_ratio"] = c["kept"] / attempted if attempted else 1.0
        gflop = c["itilde_flop"] / 1e9
        itilde_s = self_s.get("statistics.StatEngine.itilde", 0.0)
        out["statistics.itilde.gflop_computed"] = gflop
        out["statistics.itilde.gflops_per_s_computed"] = gflop / itilde_s if itilde_s else 0.0
        out["statistics.StatEngine.nxn_bytes_computed"] = self.nxn_bytes
        out["trace.ops_per_s_untraced"] = ops_untraced
        out["trace.ops_per_s_traced"] = ops_traced
        out["trace.overhead_share"] = 1.0 - ops_traced / ops_untraced
        return out


def _median_ms(fn, min_seconds: float = 0.15, min_reps: int = 3) -> float:
    times = []
    t_start = time.perf_counter()
    while len(times) < min_reps or (time.perf_counter() - t_start < min_seconds and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * stats.median(times)


def sweep(seed: int) -> tuple[dict, list[str]]:
    """Milliseconds per call of four boundaries at several n (continuous
    design, 2 w and 5 x columns, c=2), with the names found absent."""
    from npsigtest import smoother, statistics
    from npsigtest.data import ColumnKind, Dataset, standardize
    from npsigtest.kernels import default_bandwidths

    out, absent = {}, []
    cont = ColumnKind.CONTINUOUS
    for n in SWEEP_SIZES:
        y, w, x = make_columns(seed, 800 + n, n, n_wc=2, n_wd=0, n_xc=5)
        sd = standardize(Dataset(y=y, w=w, x=x, w_kinds=(cont,) * 2, x_kinds=(cont,) * 5))
        bw = default_bandwidths(n, 2.0)
        ys = sd.dataset.y
        state = {}
        steps = {
            "smoother.compute_smoother": lambda: state.__setitem__("sm", smoother.compute_smoother(sd, bw.g)),
            "statistics.StatEngine.build": lambda: state.__setitem__(
                "eng", statistics.StatEngine(sd, state["sm"], bw.h)),
            "statistics.StatEngine.itilde": lambda: state["eng"].itilde(ys),
            "smoother.recompute_uf": lambda: smoother.recompute_uf(state["sm"].pairwise, ys),
        }
        for name, step in steps.items():
            key = f"sweep.n{n}.{name}.ms_per_call"
            try:
                out[key] = _median_ms(step)
            except (AttributeError, TypeError, KeyError):
                absent.append(key)
                out[key] = 0.0
    return out, absent
