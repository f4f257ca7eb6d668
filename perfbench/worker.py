"""One workload in a fresh process; started by run.py, which reads the JSON
line this prints last.

Modes:
  setup  import the package, build the inputs, run one untimed warm-up op
  run    setup, then a closed loop of ops (one client) for --seconds
  trace  setup, then a fixed number of ops untraced and the same number
         traced, then the layer sweep

Set-up time runs from the first line of this file to the end of the warm-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--reference-dir", required=True)
    p.add_argument("--workdir", required=True)
    return p.parse_args(argv)


def _run_op(call, i):
    """(output, error) of one op; an exception is a failed op, not a crash."""
    try:
        return call(i), None
    except Exception as exc:  # noqa: BLE001 - every escaping exception is a failure
        return None, f"{type(exc).__name__}: {exc}"


def _timed_loop(call, seconds):
    """Closed loop until ``seconds`` have passed; returns op times, results, wall."""
    clock = time.perf_counter
    times, results = [], []
    start = clock()
    end = start
    i = 0
    while end - start < seconds:
        t0 = clock()
        out, err = _run_op(call, i)
        end = clock()
        times.append(end - t0)
        results.append((i, out, err))
        i += 1
    return times, results, end - start


def _counted_loop(count, call):
    clock = time.perf_counter
    results = []
    start = clock()
    for i in range(count):
        out, err = _run_op(call, i)
        results.append((i, out, err))
    return results, clock() - start


def _check(wl, warmup, results, reference):
    """(failed op count, problems) over the timed ops and the warm-up."""
    from workloads import invariant_errors, reference_errors

    failed, problems, first = 0, [], {}
    for label, (i, out, err) in [("warm-up", warmup)] + [(f"op {r[0]}", r) for r in results]:
        bad = [err] if err else []
        k = i % wl.size.cycle
        if not err:
            if reference is not None:
                bad += reference_errors(wl.name, out, reference[k])
            elif wl.name != "mc-n100" and out["exit"] not in (0, 3):
                bad.append(f"exit code {out['exit']}")
            errors = invariant_errors(wl.name, out)
            if k in first and first[k] != out:
                errors.append(f"output differs from an earlier op on the same input: {out} != {first[k]}")
            first.setdefault(k, out)
            problems += [f"{label}: {e}" for e in errors]
        if bad:
            problems += [f"{label}: {e}" for e in bad]
            if label != "warm-up":
                failed += 1
    return failed, problems


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    import npsigtest

    src = os.path.realpath(os.path.join(root, "src", "npsigtest"))
    if os.path.dirname(os.path.realpath(npsigtest.__file__)) != src:
        sys.exit(f"npsigtest was imported from {npsigtest.__file__}, not from {src}")

    import machine
    import workloads

    t_import = time.perf_counter()
    wl = workloads.Workload(args.workload, args.seed, args.size, args.workdir)
    t_inputs = time.perf_counter()
    warmup = (0, *_run_op(wl.op, 0))
    t_end = time.perf_counter()
    result = {"setup_s": t_end - T_START, "import_s": t_import - T_START,
              "inputs_s": t_inputs - t_import, "warmup_s": t_end - t_inputs}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    reference = workloads.load_reference(args.reference_dir, wl.name, wl.seed, args.size)
    result["reference"] = "checked" if reference is not None else "skipped (no reference for this seed)"
    result.update(machine.software_facts())
    if args.mode == "run":
        times, results, wall = _timed_loop(wl.op, args.seconds)
        result.update(op_s=times, wall_s=wall)
    else:
        import tracing

        count = max(1, round(workloads.TRACE_OPS_PER_SECOND[wl.name] * args.seconds))
        results, wall_untraced = _counted_loop(count, wl.op)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, wall_traced = _counted_loop(count, lambda i: tracer.run_op(i, wl.op))
        finally:
            tracer.uninstall()
        results += traced
        layers = tracer.layer_metrics(count / wall_untraced, count / wall_traced)
        sweep, sweep_absent = tracing.sweep(wl.seed)
        layers.update(sweep)
        spans_path = os.path.join(os.path.dirname(args.workdir), f"spans-{wl.name}-seed{wl.seed}.tsv.gz")
        tracer.write(spans_path)
        result.update(layers=layers, absent=tracer.absent + sweep_absent,
                      traced_ops=count, spans=len(tracer.spans), spans_file=spans_path)
    failed, problems = _check(wl, warmup, results, reference)
    result.update(attempted=len(results), failed=failed, problems=problems[:20],
                  n_problems=len(problems),
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
