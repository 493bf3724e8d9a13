"""Run-time control of the BLAS thread pools, and the rule that sizes them.

numpy and scipy each bundle their own OpenBLAS, and each library keeps its
own pool of worker threads: numpy's serves the matmuls of feature
evaluation, assembly and evaluation, scipy's the LAPACK calls of the solve.
Both export a thread setter, reached here through ``ctypes``.  Where a
library or its setter is missing (another BLAS build), there is nothing to
control and every call below does nothing.

The rule: a run builds and assembles on one thread, since those calls are
small (the feature matmuls have an inner dimension of the space dimension,
and the largest call, the ``rm="auto"`` tone selection's QR of the 1550x500
Hankel transpose, is followed by an SVD of only 500x500).  That
selection also enters its own one-thread scope, so the value
``rfm.basis.select_rm_from_forcing`` memoizes is the same whoever calls it.
Once the system's shape is known, a system with ``min(rows, cols) >=
SMALL_SYSTEM`` solves and evaluates on the count that was in force when the
run began; a smaller one stays on one thread.  No pool ever runs above its
count at entry, so ``OPENBLAS_NUM_THREADS``, which both libraries read when
they load, stays the cap.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from typing import Callable

import numpy
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS, so the lookup below finds it)

# Smallest min(rows, cols) that solves on more than one thread.  Whole
# run_experiment with rescale, solve and evaluation on 1 thread over the
# same on 2, 2 vCPU, median of 9 (below 1: one thread is faster):
# 416x400 0.93, 501x1200 0.76, 560x1600 0.79, 624x600 1.02, 660x1600 0.93,
# 728x700 1.04, 768x1600 0.99, 802x800 1.09, 832x800 1.13, 1140x1600 1.29.
# The column count alone does not separate these; the smaller dimension
# crosses over between 600 and 770.
SMALL_SYSTEM = 700

# (package, getter, setter) of each bundled OpenBLAS; the libraries sit in
# the ``<package>.libs`` directory next to the package.
_LIBRARIES = (
    (numpy, "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    (scipy, "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)

Pool = tuple[Callable[[], int], Callable[[int], None]]


def find_pools(libraries=_LIBRARIES) -> tuple[Pool, ...]:
    """The (get, set) thread functions of every loaded OpenBLAS that has them.

    A library is opened only if the process has loaded it already, so the
    lookup starts no thread pool of its own.
    """
    pools = []
    for package, getter, setter in libraries:
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
            except (OSError, AttributeError):  # not loaded, or no RTLD_NOLOAD here
                continue
            if hasattr(lib, getter) and hasattr(lib, setter):
                get, put = getattr(lib, getter), getattr(lib, setter)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
    return tuple(pools)


POOLS = find_pools()


def threads_for(shape: tuple[int, int], cap: int) -> int:
    """BLAS threads for a system of ``shape`` when at most ``cap`` are allowed."""
    return cap if min(shape) >= SMALL_SYSTEM else 1


@contextlib.contextmanager
def blas_threads(pools: tuple[Pool, ...] = POOLS):
    """Run the block with every pool on one thread; restore each pool's count on exit.

    Yields ``fit(shape)``, which moves every pool to ``threads_for(shape,
    cap)`` and returns that count, where the cap is the lowest count in
    force on entry; without pools it changes nothing and returns None.
    The entry counts come back also when the block raises.
    """
    entry = [get() for get, _ in pools]
    cap = min(entry, default=None)

    def use(count: int) -> None:
        for _, put in pools:
            put(count)

    def fit(shape: tuple[int, int]) -> int | None:
        if cap is None:
            return None
        count = threads_for(shape, cap)
        use(count)
        return count

    use(1)
    try:
        yield fit
    finally:
        for (_, put), count in zip(pools, entry):
            put(count)
