"""The one OpenBLAS a run uses: its LAPACK calls, its thread pool, and the
rule that sizes that pool.

numpy's wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*``, an
ILP64 build (64-bit integer arguments) whose symbols carry a ``scipy_``
prefix and a ``64_`` suffix.  numpy loads it for its matmuls; this module
opens the already loaded copy through ``ctypes`` and binds five of its
symbols: the thread getter and setter of its one pool of worker threads,
and the LAPACK routines ``dgelsd`` (the SVD solve), ``dgeqrf`` (the QR of
a tall row group, and the LQ of a wide expansion's columns, taken as the QR
of their transpose) and ``dormqr`` (which applies the orthogonal factor of
that LQ to the solution of the compressed system).  ``gelsd_workspace``
asks ``dgelsd`` for the workspace it takes, for the memory budget.  So the
matmuls of feature evaluation, assembly and evaluation and the LAPACK
calls of the solve run in one library on one pool.  Where numpy loaded no
such library (an MKL or system-BLAS numpy), importing this module raises
ImportError naming the missing symbol.

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
# dormqr(side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork, info), then
# the hidden lengths of its two character arguments, which gfortran appends
_DORMQR = bind(
    _LIB, "scipy_dormqr_64_", None,
    ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT,
    _DOUBLE, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t,
)


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
    nrhs = 1 if b.ndim == 1 else b.shape[1]
    size, isize = gelsd_workspace(m, n, nrhs)
    s, rank, info = np.empty(min(m, n)), c(), c()
    work, iwork = np.empty(size), np.empty(isize, np.int64)
    _DGELSD(c(m), c(n), c(nrhs), _ptr(a), c(max(1, m)), _ptr(b), c(max(1, len(b))), _ptr(s),
            ctypes.c_double(rcond), rank, _ptr(work), c(len(work)), _ptr(iwork), info)
    return s, rank.value, info.value


def gelsd_workspace(m: int, n: int, nrhs: int = 1) -> tuple[int, int]:
    """The lengths of the float64 ``work`` and int64 ``iwork`` arrays that
    ``gelsd`` allocates for an m x n system with ``nrhs`` right-hand sides,
    from LAPACK's workspace query, which reads no matrix.  Where n is well
    above m, gelsd first takes an LQ factorization and ``work`` holds an m
    x m block.  A failed query raises ValueError."""
    c = ctypes.c_int64
    size, isize, rank, info, unread = np.zeros(1), np.zeros(1, np.int64), c(), c(), np.zeros(1)
    _DGELSD(c(m), c(n), c(nrhs), _ptr(unread), c(max(1, m)), _ptr(unread), c(max(1, m, n)),
            _ptr(unread), ctypes.c_double(0.0), rank, _ptr(size), c(-1), _ptr(isize), info)
    if info.value != 0:
        raise ValueError("gelsd workspace query failed (info=%d)" % info.value)
    return max(1, int(size[0])), max(1, int(isize[0]))


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


def ormqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray, trans: str = "N") -> int:
    """LAPACK ``dormqr`` from the left, in place: ``c`` (m rows, 1 or 2
    axes) becomes Q c, or Q^T c with ``trans`` "T", where Q is the m x m
    orthogonal factor that ``geqrf`` left in ``a`` (m x k) and ``tau``.
    LAPACK restores what it overwrites of ``a`` during the call, so ``a``
    must be writable too.  Returns LAPACK's ``info``; a failed workspace
    query raises ValueError."""
    _in_place(a, c)
    m, k = a.shape
    if c.ndim not in (1, 2) or len(c) != m or tau.shape != (k,) or k > m or trans not in ("N", "T"):
        raise ValueError("ormqr needs a of m x k with k <= m, tau of k, c of m rows and trans "
                         "'N' or 'T', got a %s, tau %s, c %s, trans %r"
                         % (a.shape, tau.shape, c.shape, trans))
    tau = np.require(tau, np.float64, "C")
    n = 1 if c.ndim == 1 else c.shape[1]
    i, info, size, one = ctypes.c_int64, ctypes.c_int64(), np.zeros(1), ctypes.c_size_t(1)
    head = (b"L", trans.encode(), i(m), i(n), i(k), _ptr(a), i(max(1, m)), _ptr(tau), _ptr(c),
            i(max(1, m)))
    _DORMQR(*head, _ptr(size), i(-1), info, one, one)
    if info.value != 0:
        raise ValueError("ormqr workspace query failed (info=%d)" % info.value)
    work = np.empty(max(1, int(size[0])))
    _DORMQR(*head, _ptr(work), i(len(work)), info, one, one)
    return info.value


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
