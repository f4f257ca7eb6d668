"""Record the reference outputs that run.py checks every op against.

    PYTHONPATH=src python3 perfbench/record.py --seed 1 --seed 2

Run from the root of a checkout. Writes one file per workload and seed into
perfbench/reference (or --out): the output of every distinct op input.
References are recorded once, at the commit that defined the benchmark, and
are not re-recorded to make a later change pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile

import machine
from workloads import REFERENCE_DIR, WORKLOADS, Workload, invariant_errors, reference_path


def record(name: str, seed: int, size: str, out_dir: str, workdir: str) -> str:
    wl = Workload(name, seed, size, workdir)
    outputs = []
    for k in range(wl.size.cycle):
        out = wl.op(k)
        errors = invariant_errors(name, out)
        if errors:
            raise SystemExit(f"{name} seed {seed} op {k}: {errors}")
        outputs.append(out)
    path = reference_path(out_dir, name, seed, size)
    head = {"workload": name, "seed": seed, "size": size,
            "commit": machine.host_facts(os.getcwd())["git_commit"]}
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "outputs": [\n')
        fh.write(",\n".join(json.dumps(o) for o in outputs))
        fh.write("\n]}\n")
    return path


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--workload", choices=WORKLOADS, action="append")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=REFERENCE_DIR)
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.out)
    try:
        for name in args.workload or WORKLOADS:
            for seed in args.seed:
                print(record(name, seed, args.size, args.out, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
