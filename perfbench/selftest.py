"""Self-test of the benchmark at tiny size; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it records tiny-size
references, then checks that a run prints every end-to-end metric of
BENCHMARK.json with its unit and no failure, that a traced run prints every
per-layer metric with its unit, and that a deliberately perturbed reference
value makes failed_share > 0. Last, it checks that the benchmark refuses to
run without the package source next to it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "selftest")
SEED = 1


def _run(script: str, *args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"))
    cmd = [sys.executable, os.path.join(cwd, "perfbench", script), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def _bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = _run("run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny", "--reference-dir", OUT)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def _check_metrics(workload: str, result: dict, lines: list[str], declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _expect(got == want, f"{workload}: result line has every declared metric with its unit")
    printed = {tuple(line.split()[1:4:2]) for line in lines if line.startswith(workload + " ")}
    missing = sorted(n for n, u in want.items() if (n, u) not in printed)
    _expect(not missing, f"{workload}: every metric printed by name with unit {missing or ''}")


def _perturb(workload: str) -> None:
    path = os.path.join(OUT, f"{workload}.tiny.seed{SEED}.json")
    with open(path) as fh:
        ref = json.load(fh)
    first = ref["outputs"][0]
    if workload == "mc-n100":
        first["fisher"][0] = 1.0 - first["fisher"][0]
    else:
        first["critical_value"] *= 1.0 + 1e-6
    with open(path, "w") as fh:
        json.dump(ref, fh)


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run("record.py", "--seed", str(SEED), "--size", "tiny", "--out", OUT)
    _expect(proc.returncode == 0, f"record tiny references {proc.stderr[-500:]}")
    for workload in ("mc-n100", "boot-n500", "asym-n2000"):
        result, lines = _bench(workload, 0)
        _check_metrics(workload, result, lines, spec["end_to_end"])
        _expect(result["correct"] and result["failed"] == 0, f"{workload}: correct, no failed op")
        result, lines = _bench(workload, 1)
        _check_metrics(workload, result, lines, spec["per_layer"])
        _perturb(workload)
        result, lines = _bench(workload, 0)
        share = [float(line.split()[2]) for line in lines if line.startswith(f"{workload} failed_share ")]
        _expect(result["failed"] > 0 and share and share[0] > 0 and not result["correct"],
                f"{workload}: a perturbed reference gives failed_share > 0")

    bare = os.path.join(OUT, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run("run.py", "--workload", "mc-n100", "--seconds", "1", cwd=bare)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "without the package source: non-zero exit and no result line")
    shutil.rmtree(OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
