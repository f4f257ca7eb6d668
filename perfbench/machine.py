"""Facts about the machine and software a benchmark run measured."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, "unknown")
    try:
        for entry in os.listdir(base):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
            except (OSError, ValueError):
                continue
            if level > best[0]:
                best = (level, f"L{level} {size}")
    except OSError:
        pass
    return best[1]


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def software_facts() -> dict:
    """Facts that need numpy and scipy loaded (called in a worker)."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "blas": blas_name,
        "blas_threads_worker": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def host_facts(root: str) -> dict:
    """Facts readable without numpy (called in the run.py process)."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "git_commit": commit,
    }
