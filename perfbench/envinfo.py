"""Machine and software description printed with every benchmark run.

numpy is imported lazily so that :func:`limit_blas_threads` can run first.
"""

import ctypes
import glob
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def limit_blas_threads():
    """Cap BLAS at nproc threads; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    """{'L2': '4096K', 'L3': '107520K'} for cpu0's unified caches."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind == "Unified":
            out[f"L{level}"] = size
    return out


def _blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = int(fn())
            break
    return name, threads


def environment():
    import numpy as np
    import scipy

    blas_name, blas_threads = _blas()
    caches = _cache_sizes()
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }
