"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible under ``pytest -s``) after its
assertions; the criterion number, design constants, and tolerance bands are
fixed here and must not be loosened. Heavier criteria reuse frozen master
seeds so reruns are bit-for-bit reproducible.
"""

import math
import os
import time

import numpy as np
import scipy.stats

from npsigtest.cli import EXIT_OK, main
from npsigtest.data import standardize
from npsigtest.kernels import default_bandwidths
from npsigtest.selfcheck import (
    check_decomposition_identity,
    check_invariances,
    check_multiplier_moments,
    check_oracle_equivalence,
)
from npsigtest.simulation import (
    Cell,
    DgpSpec,
    ExperimentConfig,
    TestTemplate,
    generate,
    run_experiment,
)
from npsigtest.smoother import compute_smoother
from npsigtest.statistics import StatEngine

WORKERS = min(4, os.cpu_count() or 1)


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    name, ok, detail = check_oracle_equivalence(seeds=list(range(1, 51)), sizes=(6, 8, 10))
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 30.0, f"oracle battery took {elapsed:.1f}s (budget 30s)"
    report(1, "oracle equivalence", f"{detail}, {elapsed:.1f}s")


def test_criterion_2_decomposition_identity():
    t0 = time.perf_counter()
    name, ok, detail = check_decomposition_identity(seeds=list(range(100, 150)), n=8)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 10.0, f"decomposition battery took {elapsed:.1f}s (budget 10s)"
    report(2, "decomposition identity", f"{detail}, {elapsed:.1f}s")


def test_criterion_3_multiplier_law():
    t0 = time.perf_counter()
    name, ok, detail = check_multiplier_moments(seed=20240, ndraws=1_000_000)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 5.0, f"multiplier checks took {elapsed:.1f}s (budget 5s)"
    report(3, "multiplier law", f"{detail}, {elapsed:.1f}s")


def test_criterion_4_bootstrap_level():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        cells=(Cell(dgp=DgpSpec(family="continuous", n=100, q=2), c=2.0),),
        tests=(
            TestTemplate(name="lmp", statistic="itilde", psi="normal"),
            # asymptotic twin logged for comparison, not asserted
            TestTemplate(name="lmp-asym", statistic="itilde", psi="normal", critical="asymptotic"),
        ),
        replications=500,
        master_seed=20240301,
        alpha=0.10,
        B=199,
        workers=WORKERS,
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    row = table.rate_of("lmp", delta=0.0)
    asym = table.rate_of("lmp-asym", delta=0.0)
    assert row.failures == 0, f"{row.failures} replications failed"
    assert 0.06 <= row.reject_rate <= 0.14, (
        f"bootstrap level {row.reject_rate:.3f} outside [0.06, 0.14]"
    )
    assert elapsed < 900.0
    report(
        4,
        "bootstrap level",
        f"rate {row.reject_rate:.3f} in [0.06, 0.14] at alpha=0.10 "
        f"(asymptotic twin {asym.reject_rate:.3f}, logged only), {elapsed:.0f}s",
    )


def test_criterion_5_null_asymptotic_normality():
    # frozen design: n=200, q=2, c=1, psi normal, six-index studentizer
    n, q, c, reps = 200, 2, 1.0, 500
    bw = default_bandwidths(n, c)
    tns = np.empty(reps)
    t0 = time.perf_counter()
    for r in range(reps):
        data = generate(
            DgpSpec(family="continuous", n=n, q=q), np.random.default_rng((991, r))
        )
        sd = standardize(data)
        sm = compute_smoother(sd, bw.g)
        eng = StatEngine(sd, sm, bw.h, psi="normal")
        raw = eng.itilde(sd.y, sm.uf)
        omega2 = eng.var_tilde(sd.y, sm.uf)
        if omega2 <= 0.0:
            omega2 = eng.var_hat(sm.uf)
        tns[r] = n * bw.h ** (eng.rate_dim / 2.0) * raw / math.sqrt(omega2)
    elapsed = time.perf_counter() - t0
    mean, sdev = float(tns.mean()), float(tns.std(ddof=1))
    ks = float(scipy.stats.kstest(tns, "norm").statistic)
    assert -0.2 <= mean <= 0.2, f"null mean {mean:.3f} outside [-0.2, 0.2]"
    assert 0.75 <= sdev <= 1.25, f"null sd {sdev:.3f} outside [0.75, 1.25]"
    assert ks <= 0.12, f"KS distance {ks:.3f} exceeds 0.12"
    report(
        5,
        "null asymptotic normality",
        f"mean {mean:+.3f}, sd {sdev:.3f}, KS {ks:.3f} over {reps} reps, {elapsed:.0f}s",
    )


def test_criterion_6_power_ordering():
    # delta grid and the power~0.6 point were calibrated once at this design
    # (quadratic, n=100, q=5, c=2, alpha=0.10, B=199) and frozen
    delta_grid = (0.8, 1.6, 2.4, 3.2)
    delta_star = 2.4
    t0 = time.perf_counter()
    cells = tuple(
        Cell(
            dgp=DgpSpec(
                family="continuous",
                n=100,
                q=5,
                alternative="quadratic" if d else "null",
                delta=d,
            ),
            c=2.0,
        )
        for d in (0.0, *delta_grid)
    )
    cfg = ExperimentConfig(
        cells=cells,
        tests=(
            TestTemplate(name="lmp", statistic="itilde", psi="normal"),
            TestTemplate(name="dgm", statistic="dgm"),
        ),
        replications=300,
        master_seed=777,
        alpha=0.10,
        B=199,
        workers=WORKERS,
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - t0

    lmp_star = table.rate_of("lmp", delta=delta_star)
    dgm_star = table.rate_of("dgm", delta=delta_star)
    lmp_null = table.rate_of("lmp", delta=0.0)
    jse_dgm = 3.0 * math.hypot(lmp_star.mc_se, dgm_star.mc_se)
    jse_null = 3.0 * math.hypot(lmp_star.mc_se, lmp_null.mc_se)
    assert 0.45 <= lmp_star.reject_rate <= 0.75, (
        f"calibration drifted: lmp power {lmp_star.reject_rate:.3f} at delta*"
    )
    assert lmp_star.reject_rate - dgm_star.reject_rate > jse_dgm, (
        f"lmp {lmp_star.reject_rate:.3f} vs dgm {dgm_star.reject_rate:.3f} "
        f"not separated by {jse_dgm:.3f}"
    )
    assert lmp_star.reject_rate - lmp_null.reject_rate > jse_null
    power = [table.rate_of("lmp", delta=d).reject_rate for d in delta_grid]
    inversions = sum(b < a for a, b in zip(power, power[1:]))
    assert inversions <= 1, f"power not monotone: {power}"
    report(
        6,
        "power ordering",
        f"lmp {lmp_star.reject_rate:.3f} > dgm {dgm_star.reject_rate:.3f} "
        f"> level {lmp_null.reject_rate:.3f} at delta*={delta_star}; "
        f"curve {power} ({inversions} inversions), {elapsed:.0f}s",
    )


def test_criterion_7_invariance_suite():
    t0 = time.perf_counter()
    name, ok, detail = check_invariances(seed=7, n=50)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 10.0
    report(7, "invariance suite", f"{detail}, {elapsed:.1f}s")


def test_criterion_8_simulate_determinism(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"workers{workers}.csv"
        code = main(
            [
                "simulate",
                "--figure",
                "level-disc",
                "--reps",
                "6",
                "--boot",
                "19",
                "--seed",
                "4711",
                "--threads",
                str(workers),
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    assert outputs[0] == outputs[1] == outputs[2], "CSV differs across worker counts"
    report(
        8,
        "simulate determinism",
        f"byte-identical CSVs across 1/4/8 workers, {elapsed:.0f}s",
    )


def test_criterion_9_dimension_of_x():
    # lmp smooths only in w, so its rate depends on the dimension of w alone;
    # lv smooths jointly in (w, x) and at q=5 runs out of neighbours, which is
    # the paper's point. Bounds calibrated once on master seeds 101, 202, ...,
    # 808 (lmp 0.92-0.975 at q=1 and 0.545-0.625 at q=5, lv 0.72-0.825 at
    # q=1, 196-199 of 200 lv failures at q=5) and frozen
    reps = 200
    t0 = time.perf_counter()
    cells = tuple(
        Cell(
            dgp=DgpSpec(family="continuous", n=100, q=q, alternative="quadratic", delta=2.4),
            c=2.0,
        )
        for q in (1, 5)
    )
    cfg = ExperimentConfig(
        cells=cells,
        tests=(
            TestTemplate(name="lmp", statistic="itilde", psi="normal"),
            TestTemplate(name="lv", statistic="lv"),
        ),
        replications=reps,
        master_seed=909,
        alpha=0.10,
        B=99,
        workers=WORKERS,
    )
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    lmp1, lmp5 = (table.rate_of("lmp", q=q) for q in (1, 5))
    lv1, lv5 = (table.rate_of("lv", q=q) for q in (1, 5))
    assert lmp1.failures == lmp5.failures == lv1.failures == 0
    assert lmp1.reject_rate >= 0.85, f"lmp power {lmp1.reject_rate:.3f} at q=1"
    assert lv1.reject_rate >= 0.6, f"lv power {lv1.reject_rate:.3f} at q=1"
    assert 0.45 <= lmp5.reject_rate <= 0.75, f"lmp power {lmp5.reject_rate:.3f} at q=5"
    assert lv5.failures >= 0.95 * reps, f"lv failed only {lv5.failures} of {reps} at q=5"
    assert elapsed < 10.0, f"criterion 9 took {elapsed:.1f}s (budget 10s)"
    report(
        9,
        "dimension of x",
        f"lmp {lmp1.reject_rate:.3f} -> {lmp5.reject_rate:.3f} from q=1 to q=5; "
        f"lv {lv1.reject_rate:.3f} at q=1, {lv5.failures} of {reps} failed at q=5, "
        f"{elapsed:.1f}s",
    )
