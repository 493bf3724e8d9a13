"""Minimum-norm least-squares solve and conditioning diagnostics.

A collocation system is solved in three steps.  Assembly lays it out as row
groups, the rows that touch the same column blocks (see ``rfm.assembly``); a
group with at least two more rows than columns is replaced by the R factor
of its orthogonal QR, as in TSQR (Demmel, Grigori, Hoemmen & Langou, SISC
2012).  An orthogonal transform of a row group leaves A^T A and A^T b
unchanged, so the singular values, the set of minimizers and the
minimum-norm solution are those of the full system.

The dual step cuts columns.  An expansion is wide when fewer rows of the
row-compressed system touch its columns, over all its components, than it
has columns (r_n < w_n, ``rfm.assembly.wide_expansions``).  Let C be those
r_n rows over its w_n columns, and C^T = Q [R; 0] the QR of its transpose.
The expansion's columns times Q are [R^T 0] at those rows and zero at every
other row, so its w_n columns become the r_n columns of L = R^T, and after
the solve its coefficients are Q [y; 0].  V = blockdiag(Q_n, I) is
orthogonal, so the nonzero singular values and the minimum-norm solution
x = V y are again those of the full system, and the rank cut-off stays
eps * max(rows, cols) of the full shape.  The compressed system then goes
through one SVD solve (gelsd); the report's ``solved_rows`` and
``solved_cols`` give its shape.

The solve works through the tall groups in group order: it fills a
group's block, weighs its rows, takes its R factor from a weighted copy and
drops the block before the next group is filled, so one tall block is
alive at a time.  It then fills the other groups in one pass, hands the
heap's free pages back to the system, and only then allocates the gelsd
buffer, at the compressed width, and each wide expansion's C^T, which its
QR overwrites with the reflectors kept for the expansion of the solution.
The system keeps no block, so it is left as it was.  With the tall
blocks gone the loss is kept per group: the R factor of ``[W A | W b]`` is
``[R c; 0 rho]``, and as the orthogonal factor keeps the norm, the group's
part of the squared loss is ||R x - c||^2 + rho^2.

The LAPACK routines, ``dgeqrf``, ``dormqr`` and ``dgelsd``, are called
through ``rfm.blas`` in numpy's bundled OpenBLAS, the one library and
thread pool that also runs assembly's and evaluation's matmuls.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .assembly import RowGroup, WeightedSystem, row_weights, scaled_norm
from .blas import gelsd, geqrf, ormqr

# Elements per block of the finiteness check (8 MB of float64).
FINITE_CHECK_BLOCK = 1 << 20

# glibc's malloc_trim(pad), which returns every free page of the heap to the
# system; None where the C library has none.  The solve needs it because
# glibc raises its mmap threshold to the size of the largest mmapped chunk
# freed so far: after the first tall group's weighted copy (about 18 MB on
# the 14400x1600 beam) is freed, later blocks of that size come from the brk
# heap, and once freed under the live R factors their pages stay resident.
# Beam-tall's in-process max RSS went 194 -> 155 MB with the trim, which
# takes 1-4 ms there (2 vCPU).
try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


@dataclass(frozen=True)
class LstsqReport:
    """What the SVD solve saw: size, rank, spectrum edges, residual, time."""

    n_rows: int
    n_cols: int
    solved_rows: int  # rows the SVD factorized, after any row compression
    solved_cols: int  # columns the SVD factorized, after any column compression
    rank: int
    sigma_max: float
    sigma_min_kept: float
    residual_norm: float
    wall_time_s: float

    @property
    def condition(self) -> float:
        """Spread of the retained spectrum (max over smallest kept sigma)."""
        if self.sigma_min_kept == 0.0:
            return np.inf
        return self.sigma_max / self.sigma_min_kept

    @property
    def rank_deficient(self) -> bool:
        return self.rank < min(self.n_rows, self.n_cols)


def solve_min_norm(
    a: np.ndarray,
    b: np.ndarray,
    rank_tol: float | None = None,
    *,
    overwrite_a: bool = False,
) -> tuple[np.ndarray, LstsqReport]:
    """Minimum-norm solution of min ||a x - b||_2 via SVD (gelsd).

    Singular values below rank_tol * sigma_max are discarded; the default
    tolerance is eps * max(n_rows, n_cols), matching the numerical-rank
    convention.  Among all residual minimizers the returned x has the
    smallest Euclidean norm, which is what keeps vastly overparametrized
    feature expansions stable.

    ``a`` is copied once into Fortran order and gelsd factorizes the copy in
    place.  With ``overwrite_a`` the caller hands over ``a`` itself: a
    writable Fortran-ordered float64 array is factorized, and so destroyed,
    as it is, any other array is copied once; the report's residual norm
    is NaN because ``a`` no longer holds the matrix.  A NaN or inf in ``a``
    or ``b`` raises ValueError, and an SVD that does not converge
    ``numpy.linalg.LinAlgError``.
    """
    a = np.asarray(a)
    b = np.asarray(b, float)
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("matrix has %d rows but the right-hand side %d" % (m, b.shape[0]))
    work = np.require(a, float, "FW") if overwrite_a else np.array(a, float, order="F")
    # gelsd returns the solution in the right-hand side, which needs max(m, n) rows
    rhs = np.zeros((max(m, n),) + b.shape[1:], order="F")
    rhs[:m] = b
    _require_finite(work)
    _require_finite(rhs)
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(m, n)
    t0 = time.perf_counter()
    sv, rank, info = gelsd(work, rhs, rank_tol)
    wall = time.perf_counter() - t0
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge in linear least squares")
    if info < 0:
        raise ValueError("illegal value in argument %d of gelsd" % -info)
    x = rhs[:n]
    sigma_max = float(sv[0]) if len(sv) else 0.0
    sigma_min_kept = float(sv[rank - 1]) if rank > 0 else 0.0
    residual = np.nan if overwrite_a else float(np.linalg.norm(a @ x - b))
    report = LstsqReport(
        n_rows=m,
        n_cols=n,
        solved_rows=m,
        solved_cols=n,
        rank=int(rank),
        sigma_max=sigma_max,
        sigma_min_kept=sigma_min_kept,
        residual_norm=residual,
        wall_time_s=wall,
    )
    return x, report


def _require_finite(a: np.ndarray) -> None:
    """Raise ValueError if ``a`` holds a NaN or inf.

    Works through blocks of columns (contiguous in Fortran order), so no
    mask the size of the matrix is allocated.
    """
    a = a.reshape(len(a), -1)
    step = max(1, FINITE_CHECK_BLOCK // max(1, len(a)))
    for j in range(0, a.shape[1], step):
        if not np.isfinite(a[:, j : j + step]).all():
            raise ValueError("array must not contain infs or NaNs")


def solve_system(
    system: WeightedSystem, rank_tol: float | None = None
) -> tuple[np.ndarray, LstsqReport]:
    """Solve a weighted collocation system in the rescaled norm.

    Every tall group is QR-compressed exactly (see the module docstring),
    one at a time in group order: its block is filled
    (``WeightedSystem.blocks``), its rows weighed (``row_weights``), its R
    factor taken, and the block dropped.  Then the groups that are not tall
    are filled in one pass, the heap's free pages go back to the system
    (glibc ``malloc_trim``), and the weighted, compressed system is written
    into one Fortran-ordered buffer that gelsd factorizes in place: the
    rows of the other groups first, in their order in the system, then the
    R factors; the columns of the expansions that are not wide, in their
    order, then, per wide expansion (``WeightedSystem.wide``), the L factor
    of the LQ of its columns, whose rows are gathered from every group that
    touches it.  At its peak a solve holds either one tall block, its
    weighted copy and the R factors taken so far, or the short groups'
    blocks, all R factors, the buffer and the wide expansions' reflectors.
    Each group is filled once, and the system keeps none of the blocks, so
    it is left as it was and can be used, or solved, again.  The rank
    cut-off is taken from the full system's shape.

    The report's ``n_rows`` and ``n_cols`` are the system's shape,
    ``solved_rows`` and ``solved_cols`` the compressed one's, and its
    residual norm is the system's weighted loss at the solution.  The short
    groups' part of it is taken from their blocks as ``WeightedSystem.loss``
    takes it, over a full-length residual that is zero at the tall groups'
    rows; a tall group's part is ||R x - c||^2 + rho^2, where ``[R c; 0
    rho]`` tops the R factor of ``[W A | W b]`` over the group: the
    orthogonal factor keeps the norm, so the sum is exact, and it is the
    direct loss where no group is tall.
    """
    n_rows, n_cols = system.shape
    rhs, groups = system.rhs, system.groups
    weights = np.ones(n_rows)
    which = [i for i, g in enumerate(groups) if not g.tall]
    kept = np.sort(np.concatenate([groups[i].rows for i in which] + [np.empty(0, int)]))
    factors = _take_tall_factors(system, weights, len(kept))
    short = list(zip([groups[i] for i in which], system.blocks(which)))
    for g, block in short:
        weights[g.rows] = row_weights(block, system.scale, rhs[g.rows])[0]
    if factors and _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)  # the freed blocks' pages, before the buffer is mapped
    # the groups of the row-compressed system, at their rows of the buffer
    placed = [RowGroup(np.searchsorted(kept, g.rows), g.cols) for g, _ in short]
    placed += [at for at, _, _, _ in factors]
    columns = _ColumnCompression(system.wide, placed, n_cols)
    solved = len(kept) + sum(len(at.rows) for at, _, _, _ in factors)
    a = np.zeros((solved, columns.width), order="F")
    b = np.empty(len(a))
    b[: len(kept)] = weights[kept] * rhs[kept]
    for at, (g, block) in zip(placed, short):
        columns.place(a, at, weights[g.rows, None] * block)
    for at, r, c, _ in factors:
        columns.place(a, at, r)
        b[at.rows] = c
    columns.compress(a)
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(n_rows, n_cols)
    y, report = solve_min_norm(a, b, rank_tol, overwrite_a=True)
    x = columns.expand(y)
    residual = np.zeros(n_rows)
    residual[kept] = -rhs[kept]
    for g, block in short:
        residual[g.rows] += block @ g.take(x)
    loss = math.hypot(
        scaled_norm(weights * residual),
        *(scaled_norm(np.append(r @ at.take(x) - c, rho)) for at, r, c, rho in factors),
    )
    return x, replace(report, n_rows=n_rows, n_cols=n_cols, residual_norm=loss)


@dataclass
class _WideColumns:
    """A wide expansion in the solve buffer: its columns in the system, the
    buffer rows that touch them, ``lq`` (first the transpose of those rows
    over those columns, then its QR as ``geqrf`` leaves it), its scalars
    ``tau``, and the first buffer column of its L factor."""

    cols: np.ndarray
    rows: np.ndarray
    lq: np.ndarray
    first: int
    tau: np.ndarray | None = None


class _ColumnCompression:
    """The columns of the solve buffer: those of the expansions that are not
    wide, in their order, then each wide expansion's L factor.

    ``place`` writes a group's block into the buffer, or, at a wide
    expansion's columns, into that expansion's ``lq``; ``compress`` takes
    each ``lq``'s QR, C^T = Q [R; 0], and writes L = R^T into the buffer,
    since the expansion's columns times Q are [R^T 0] at its rows and zero
    at every other row; ``expand`` turns the buffer's solution y into the
    system's, x = Q [y; 0] at each wide expansion's columns.  The column
    transform is orthogonal, so the singular values and the minimum-norm
    solution do not change.

    The column map is kept as runs of columns, not as arrays over them, and
    where nothing is wide ``expand`` returns y itself, so such a solve
    allocates no array it did not allocate before.  That matters for peak
    memory: once glibc has raised its mmap threshold, a buffer comes from
    the heap, and a small array allocated after one buffer is freed can
    split it, so that the next buffer extends the heap while the old one
    stays resident (square-1d's peak RSS went 70 -> 89 MB that way in one
    checkout when the map was a mask and an index array).
    """

    def __init__(self, wide: list[tuple[list[slice], int]], placed: list[RowGroup], n_cols: int):
        bounds = sorted((c.start, c.stop) for cols, _ in wide for c in cols)
        starts, stops = [0] + [b for _, b in bounds], [a for a, _ in bounds] + [n_cols]
        # the runs of system columns that no wide expansion holds, as (start, stop)
        self.kept = [(lo, hi) for lo, hi in zip(starts, stops) if hi > lo]
        self.n_cols = n_cols
        self.wide: list[_WideColumns] = []
        self.where: dict[tuple[int, int], tuple[_WideColumns, int]] = {}
        first = sum(hi - lo for lo, hi in self.kept)
        for cols, _ in wide:
            rows = [at.rows for at in placed if any(c in cols for c in at.cols)]
            rows = np.sort(np.concatenate(rows + [np.empty(0, int)]))
            index = np.concatenate([np.arange(c.start, c.stop) for c in cols])
            w = _WideColumns(index, rows, np.zeros((len(index), len(rows)), order="F"), first)
            offset = 0
            for c in cols:
                self.where[c.start, c.stop] = w, offset
                offset += c.stop - c.start
            self.wide.append(w)
            first += len(rows)
        self.width = first

    def _column(self, j: int) -> int:
        """The buffer column of system column ``j``, which no wide expansion holds."""
        offset = 0
        for lo, hi in self.kept:
            if j < hi:
                return offset + j - lo
            offset += hi - lo
        return offset

    def place(self, a: np.ndarray, at: RowGroup, values: np.ndarray) -> None:
        """Write ``values``, rows ``at.rows`` of the buffer ``a`` over the
        group's columns, at the buffer's columns or a wide expansion's."""
        offset = 0
        for c in at.cols:
            width = c.stop - c.start
            part = values[:, offset : offset + width]
            if (c.start, c.stop) in self.where:
                w, col = self.where[c.start, c.stop]
                w.lq.T[np.searchsorted(w.rows, at.rows), col : col + width] = part
            else:
                start = self._column(c.start)
                a[at.rows, start : start + width] = part
            offset += width

    def compress(self, a: np.ndarray) -> None:
        """Write each wide expansion's L factor into the buffer ``a``.  A NaN
        or inf in an expansion's rows raises ValueError."""
        for w in self.wide:
            w.tau = _qr(w.lq)
            n = len(w.rows)
            a[w.rows, w.first : w.first + n] = np.triu(w.lq[:n]).T

    def expand(self, y: np.ndarray) -> np.ndarray:
        """The system's solution from the buffer's solution ``y``."""
        if not self.wide:
            return y
        x = np.empty(self.n_cols)
        offset = 0
        for lo, hi in self.kept:
            x[lo:hi] = y[offset : offset + hi - lo]
            offset += hi - lo
        for w in self.wide:
            c = np.zeros(len(w.cols))
            c[: len(w.rows)] = y[w.first : w.first + len(w.rows)]
            info = ormqr(w.lq, w.tau, c)
            if info != 0:
                raise ValueError("illegal value in argument %d of ormqr" % -info)
            x[w.cols] = c
        return x


def _take_tall_factors(
    system: WeightedSystem, weights: np.ndarray, top: int
) -> list[tuple[RowGroup, np.ndarray, np.ndarray, float]]:
    """The R factors of the tall groups, in group order, for the solve buffer.

    Each tall group's block is filled when its turn comes, its rows of
    ``weights`` set, and the block dropped once the R factor is taken, so
    it is freed before the next group is filled.  Per tall group this
    returns a row group over the group's columns whose rows are R's rows in
    the buffer (from ``top`` on), then R, c and rho (see ``_group_r``).
    """
    factors = []
    for i, g in enumerate(system.groups):
        if not g.tall:
            continue
        (block,) = system.blocks([i])
        weights[g.rows] = row_weights(block, system.scale, system.rhs[g.rows])[0]
        rc, rho = _group_r(g.rows, block, weights, system.rhs)
        del block  # freed before the next group is filled
        n = len(rc)
        factors.append((RowGroup(np.arange(top, top + n), g.cols), rc[:, :n], rc[:, n], rho))
        top += n
    return factors


def _group_r(
    rows: np.ndarray, block: np.ndarray, weights: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, float]:
    """The R factor of ``[W A | W b]`` over a group's ``rows`` and ``block``.

    ``rhs`` is unweighted.  Returns ``[R c]``, one row per column of the
    group, and rho, the last diagonal entry, whose magnitude is the norm of
    the part of ``W b`` that the group's columns cannot reach.  A NaN or
    inf in the group raises ValueError.
    """
    n = block.shape[1]
    work = np.empty((len(rows), n + 1), order="F")
    np.multiply(weights[rows, None], block, out=work[:, :n])
    np.multiply(weights[rows], rhs[rows], out=work[:, n])
    _qr(work)
    return np.triu(work[:n]), float(work[n, n])


def _qr(work: np.ndarray) -> np.ndarray:
    """``geqrf`` of ``work`` in place; returns tau.  A NaN or inf in
    ``work`` raises ValueError."""
    _require_finite(work)
    tau, info = geqrf(work)
    if info != 0:
        raise ValueError("illegal value in argument %d of geqrf" % -info)
    return tau
