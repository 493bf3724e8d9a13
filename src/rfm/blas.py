"""The one OpenBLAS a run uses: its LAPACK calls, its thread pool, and the
rule that sizes that pool.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*``, an
ILP64 build (64-bit integer arguments) whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix.  numpy loads it for its matmuls; this module
opens the already loaded copy through ``ctypes`` and binds four of its
symbols: the thread getter and setter of its one pool of worker threads,
and the LAPACK routines ``dgelsd`` (the SVD solve) and ``dgeqrf`` (the QR
of a tall row group).  So the matmuls of feature evaluation, assembly and
evaluation and the LAPACK calls of the solve run in one library on one
pool.  Where numpy loaded no such library (an MKL or system-BLAS numpy),
importing this module raises ImportError naming the missing symbol.

The rule: a run builds and assembles on one thread, since those calls are
small (the feature matmuls have an inner dimension of the space dimension,
and the largest call, the ``rm="auto"`` tone selection's QR of the 1550x500
Hankel transpose, is followed by an SVD of only 500x500).  That
selection also enters its own one-thread scope, so the value
``rfm.basis.select_rm_from_forcing`` memoizes is the same whoever calls it.
Once the system's shape is known, a system with ``min(rows, cols) >=
SMALL_SYSTEM`` solves and evaluates on the count that was in force when the
run began; a smaller one stays on one thread.  The pool never runs above
its count at entry, so ``OPENBLAS_NUM_THREADS``, which OpenBLAS reads when
it loads, stays the cap.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
from typing import Callable

import numpy as np

# Smallest min(rows, cols) that solves on more than one thread.  Whole
# run_experiment with rescale, solve and evaluation on 1 thread over the
# same on 2, 2 vCPU, median of 9 (below 1: one thread is faster):
# 416x400 0.93, 501x1200 0.76, 560x1600 0.79, 624x600 1.02, 660x1600 0.93,
# 728x700 1.04, 768x1600 0.99, 802x800 1.09, 832x800 1.13, 1140x1600 1.29.
# The column count alone does not separate these; the smaller dimension
# crosses over between 600 and 770.
SMALL_SYSTEM = 700

_NUMPY_LIBS = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)


def find_openblas(libs: str = _NUMPY_LIBS) -> ctypes.CDLL | None:
    """The ILP64 OpenBLAS under ``libs`` that the process has loaded, or None.

    A library is opened only if it is loaded already, so the lookup loads
    no second copy and starts no thread pool of its own.
    """
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so*"))):
        try:
            return ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LOCAL)
        except OSError:  # on disk but not loaded
            continue
    return None


def bind(lib: ctypes.CDLL | None, name: str, restype, *argtypes):
    """``lib``'s function ``name`` with its C signature; ImportError naming
    ``name`` where there is no library or it lacks that symbol."""
    if lib is None or not hasattr(lib, name):
        raise ImportError(
            "rfm calls LAPACK through the ILP64 OpenBLAS that numpy's wheels bundle, "
            "but numpy %s loaded no library exporting %s" % (np.__version__, name)
        )
    func = getattr(lib, name)
    func.restype, func.argtypes = restype, list(argtypes)
    return func


_LIB = find_openblas()
Pool = tuple[Callable[[], int], Callable[[int], None]]
POOL: Pool = (
    bind(_LIB, "scipy_openblas_get_num_threads64_", ctypes.c_int),
    bind(_LIB, "scipy_openblas_set_num_threads64_", None, ctypes.c_int),
)
# dgelsd(m, n, nrhs, a, lda, b, ldb, s, rcond, rank, work, lwork, iwork, info)
_DGELSD = bind(
    _LIB, "scipy_dgelsd_64_", None,
    _INT, _INT, _INT, _DOUBLE, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _DOUBLE, _INT, _INT, _INT,
)
# dgeqrf(m, n, a, lda, tau, work, lwork, info)
_DGEQRF = bind(_LIB, "scipy_dgeqrf_64_", None, _INT, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _INT)


def _in_place(*arrays: np.ndarray) -> None:
    for x in arrays:
        if x.dtype != np.float64 or not x.flags.f_contiguous or not x.flags.writeable:
            raise ValueError("LAPACK works in place on writable Fortran-ordered float64 arrays")


def _ptr(x: np.ndarray):
    return x.ctypes.data_as(_INT if x.dtype == np.int64 else _DOUBLE)


def gelsd(a: np.ndarray, b: np.ndarray, rcond: float) -> tuple[np.ndarray, int, int]:
    """LAPACK ``dgelsd`` on ``a`` (m x n) and ``b`` (at least max(m, n)
    rows), in place: ``b``'s first n rows become the minimum-norm solution
    and ``a`` is destroyed.  Returns the singular values, the rank (those
    above ``rcond`` times the largest) and LAPACK's ``info``.  A failed
    workspace query raises ValueError.
    """
    _in_place(a, b)
    m, n = a.shape
    if b.ndim not in (1, 2) or len(b) < max(m, n):
        raise ValueError("gelsd needs b of 1 or 2 axes and max(m, n) = %d rows, got shape %s"
                         % (max(m, n), b.shape))
    c = ctypes.c_int64
    s, rank, info = np.empty(min(m, n)), c(), c()
    head = (c(m), c(n), c(1 if b.ndim == 1 else b.shape[1]), _ptr(a), c(max(1, m)), _ptr(b),
            c(max(1, len(b))), _ptr(s), ctypes.c_double(rcond), rank)
    size, isize = np.zeros(1), np.zeros(1, np.int64)
    _DGELSD(*head, _ptr(size), c(-1), _ptr(isize), info)
    if info.value != 0:
        raise ValueError("gelsd workspace query failed (info=%d)" % info.value)
    work, iwork = np.empty(max(1, int(size[0]))), np.empty(max(1, int(isize[0])), np.int64)
    _DGELSD(*head, _ptr(work), c(len(work)), _ptr(iwork), info)
    return s, rank.value, info.value


def geqrf(a: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK ``dgeqrf`` on ``a`` in place: R on and above the diagonal,
    the Householder vectors below it.  Returns their scalars (tau) and
    LAPACK's ``info``.  A failed workspace query raises ValueError."""
    _in_place(a)
    m, n = a.shape
    c = ctypes.c_int64
    tau, info, size = np.empty(min(m, n)), c(), np.zeros(1)
    head = (c(m), c(n), _ptr(a), c(max(1, m)), _ptr(tau))
    _DGEQRF(*head, _ptr(size), c(-1), info)
    if info.value != 0:
        raise ValueError("geqrf workspace query failed (info=%d)" % info.value)
    work = np.empty(max(1, int(size[0])))
    _DGEQRF(*head, _ptr(work), c(len(work)), info)
    return tau, info.value


def threads_for(shape: tuple[int, int], cap: int) -> int:
    """BLAS threads for a system of ``shape`` when at most ``cap`` are allowed."""
    return cap if min(shape) >= SMALL_SYSTEM else 1


@contextlib.contextmanager
def blas_threads(pool: Pool = POOL):
    """Run the block with the pool on one thread; restore its count on exit.

    Yields ``fit(shape)``, which moves the pool to ``threads_for(shape,
    cap)`` and returns that count, where the cap is the count in force on
    entry.  The entry count comes back also when the block raises.
    """
    get, put = pool
    entry = get()

    def fit(shape: tuple[int, int]) -> int:
        count = threads_for(shape, entry)
        put(count)
        return count

    put(1)
    try:
        yield fit
    finally:
        put(entry)
