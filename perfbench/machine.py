"""The machine block of the report, and run-time control of BLAS threads."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import platform
import subprocess

import numpy
import scipy


def _lapack_library():
    """The OpenBLAS bundled with scipy, which scipy.linalg calls, opened through ctypes."""
    here = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    for path in sorted(glob.glob(os.path.join(here, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            return lib
    raise RuntimeError(f"no scipy-openblas with thread control under {here}")


def blas_threads() -> int:
    get = _lapack_library().scipy_openblas_get_num_threads
    get.restype = ctypes.c_int
    get.argtypes = []
    return get()


@contextlib.contextmanager
def limit_blas_threads(count: int):
    """Run the block with scipy's LAPACK on ``count`` threads, then restore."""
    setter = _lapack_library().scipy_openblas_set_num_threads
    setter.restype = None
    setter.argtypes = [ctypes.c_int]
    before = blas_threads()
    setter(count)
    try:
        yield
    finally:
        setter(before)


def last_level_cache_bytes() -> int | None:
    """The L3 cache size glibc reports, or None where it reports none."""
    try:
        out = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() and int(out) > 0 else None


def machine_block() -> dict:
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "lapack": f"{lapack['name']} {lapack['version']}",
        "lapack_threads": blas_threads(),
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "llc_bytes": last_level_cache_bytes(),
    }
