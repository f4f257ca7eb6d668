"""npsigtest benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload mc-n100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. Each
workload runs in fresh worker processes (perfbench/worker.py): set-up is
measured in SETUP_SAMPLES of them and reported as the median, and the last
one also runs the closed loop. With ``--trace 1`` one worker runs a fixed
number of ops untraced, the same ops traced, and the layer sweep, and the
per-layer metrics are printed instead. Every metric is printed as
``<workload> <name> <value> <unit> (samples=...)``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import machine
import tracing
from workloads import REFERENCE_DIR, SIZES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
P90_MIN_SAMPLES = 100


class BenchError(RuntimeError):
    """The benchmark could not measure: no result line is printed."""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is the self-test size")
    p.add_argument("--reference-dir", default=REFERENCE_DIR)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _worker(mode: str, workload: str, args, workdir: str, deadline: float) -> dict:
    env = dict(os.environ, **{var: "1" for var in machine.THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--reference-dir", args.reference_dir, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: {mode} worker passed the time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _report(workload: str, name: str, value, unit: str, samples: str) -> None:
    print(f"{workload} {name} {value!r} {unit} (samples={samples})")


def _measure(workload: str, args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, and its worker's result."""
    setups = [_worker("setup", workload, args, workdir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _worker("run", workload, args, workdir, deadline)
    setups.append(run["setup_s"])
    op_ms = [1e3 * t for t in run["op_s"]]
    n_ops = len(op_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n_ops / run["wall_s"],
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    counts = {"setup_s": f"{len(setups)} processes", "ops_per_s": f"{n_ops} ops in {run['wall_s']:.3f} s",
              "peak_rss_mb": "1 process"}
    for name, unit in END_TO_END.items():
        _report(workload, name, metrics[name], unit, counts[name])
    # printed for reading, not declared: the median of mc-n100 jumps with the host's slow phases
    _report(workload, "op_ms_p50", statistics.median(op_ms), "ms", n_ops)
    if n_ops >= P90_MIN_SAMPLES:
        _report(workload, "op_ms_p90", statistics.quantiles(op_ms, n=10)[8], "ms", n_ops)
    else:
        print(f"# {workload} op_ms_p90 not reported: {n_ops} ops < {P90_MIN_SAMPLES}")
    _report(workload, "failed_share", run["failed"] / run["attempted"], "ratio", run["attempted"])
    print(f"# {workload} set-up of the loop process: import {run['import_s']:.3f} s, "
          f"inputs {run['inputs_s']:.3f} s, warm-up op {run['warmup_s']:.3f} s")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, run


def _trace(workload: str, args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics of one workload from a traced worker."""
    run = _worker("trace", workload, args, workdir, deadline)
    layers = run["layers"]
    n = run["traced_ops"]
    print(f"# {workload} traced run: {n} ops untraced, then the same {n} ops traced; "
          f"{run['spans']} spans written to {os.path.relpath(run['spans_file'], ROOT)}")
    for name in run["absent"]:
        print(f"# {workload} {name} absent: not found in the package")
    units = tracing.per_layer_units()
    for name, value in layers.items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        _report(workload, name, value, unit, f"{n} ops" if not name.startswith("sweep.") else "median")
    return {k: {"value": layers[k], "unit": u} for k, u in units.items()}, run


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "npsigtest", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    results = {}
    try:
        print("# machine " + json.dumps(machine.host_facts(ROOT)))
        for name in names:
            sizes = SIZES[name][args.size]
            print(f"# {name}: seed={args.seed} n={sizes.n} B={sizes.B} size={args.size}")
            measure = _trace if args.trace else _measure
            results[name] = measure(name, args, workdir, deadline)
            run = results[name][1]
            print("# software " + json.dumps({k: run[k] for k in ("blas", "blas_threads_worker", "python", "numpy", "scipy")}))
            print(f"# {name} reference check: {run['reference']}")
            for problem in run["problems"]:
                print(f"# {name} problem: {problem}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [run for _, run in results.values()]
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{w}.{k}": v for w, (m, _) in results.items() for k, v in m.items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["n_problems"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
