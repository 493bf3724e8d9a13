"""Minimum-norm least-squares solve and conditioning diagnostics.

A collocation system is solved in two steps.  Rows that touch the same set
of column blocks (one block per component and expansion, the global patch
included) form a row group; a group with at least two more rows than
columns is replaced by the R factor of its orthogonal QR, as in TSQR
(Demmel, Grigori, Hoemmen & Langou, SISC 2012).  An orthogonal transform of a row
group leaves A^T A and A^T b unchanged, so the singular values, the set of
minimizers and the minimum-norm solution are those of the full system.
The compressed system then goes through one SVD solve (gelsd).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgelsd, dgelsd_lwork, dgeqrf, dgeqrf_lwork

from .assembly import ROW_CHUNK, WeightedSystem
from .basis import RfmModel

# Elements per block of the finiteness check (8 MB of float64).
FINITE_CHECK_BLOCK = 1 << 20


@dataclass(frozen=True)
class LstsqReport:
    """What the SVD solve saw: size, rank, spectrum edges, residual, time."""

    n_rows: int
    n_cols: int
    solved_rows: int  # rows the SVD factorized, after any row compression
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
    place.  With ``overwrite_a`` the caller hands over ``a`` itself (ideally
    a Fortran-ordered float64 array, which gelsd then destroys); the report's
    residual norm is NaN because ``a`` no longer holds the matrix.  A NaN or
    inf in ``a`` or ``b`` raises ValueError.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    m, n = a.shape
    if b.shape[0] != m:
        raise ValueError("matrix has %d rows but the right-hand side %d" % (m, b.shape[0]))
    work = a if overwrite_a else np.array(a, order="F")
    # gelsd returns the solution in the right-hand side, which needs max(m, n) rows
    rhs = np.zeros((max(m, n),) + b.shape[1:])
    rhs[:m] = b
    _require_finite(work)
    _require_finite(rhs)
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(m, n)
    t0 = time.perf_counter()
    lwork, iwork, info = dgelsd_lwork(m, n, 1 if b.ndim == 1 else b.shape[1], rank_tol)
    if info != 0:
        raise ValueError("gelsd workspace query failed (info=%d)" % info)
    x, sv, rank, info = dgelsd(
        work, rhs, int(lwork), iwork, rank_tol, overwrite_a=1, overwrite_b=1
    )
    wall = time.perf_counter() - t0
    if info > 0:
        raise LinAlgError("SVD did not converge in linear least squares")
    if info < 0:
        raise ValueError("illegal value in argument %d of gelsd" % -info)
    x = x[:n]
    sigma_max = float(sv[0]) if len(sv) else 0.0
    sigma_min_kept = float(sv[rank - 1]) if rank > 0 else 0.0
    residual = np.nan if overwrite_a else float(np.linalg.norm(a @ x - b))
    report = LstsqReport(
        n_rows=m,
        n_cols=n,
        solved_rows=m,
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

    Tall row groups are QR-compressed exactly (see the module docstring)
    and the weighted, compressed system is written into one Fortran-ordered
    buffer that gelsd factorizes in place, so a solve holds at most two
    matrix-sized arrays: the raw matrix and that buffer.  The rank cut-off
    is taken from the full system's shape.  ``system.matrix``, ``rhs`` and
    ``weights`` are left as they were; the report's ``n_rows`` is the
    system's row count, ``solved_rows`` the compressed one, and its residual
    norm is the system's weighted loss at the solution.
    """
    a, b = _compress_rows(system)
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(system.shape)
    x, report = solve_min_norm(a, b, rank_tol, overwrite_a=True)
    return x, replace(report, n_rows=system.shape[0], residual_norm=system.loss(x))


def column_blocks(model: RfmModel) -> list[slice]:
    """The model's column blocks, in column order: one per component and expansion."""
    return [
        model.col_slice(comp, n)
        for comp in range(model.n_components)
        for n in range(len(model.expansions))
    ]


def _row_groups(matrix: np.ndarray, blocks: list[slice]) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by the set of column blocks they hold a nonzero in.

    Returns ``(sets, labels)``: ``sets[g, j]`` says whether group ``g``
    touches ``blocks[j]``, and ``labels[i]`` is the group of row ``i``.
    Rows are scanned in chunks, so no matrix-sized temporary is made.
    """
    touched = np.empty((len(matrix), len(blocks)), bool)
    step = max(1, ROW_CHUNK // max(1, matrix.shape[1]))
    for start in range(0, len(matrix), step):
        rows = slice(start, start + step)
        nonzero = matrix[rows] != 0
        for j, cols in enumerate(blocks):
            np.any(nonzero[:, cols], axis=1, out=touched[rows, j])
    # one byte string per row, so any number of blocks makes a sortable key
    packed = np.packbits(touched, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    unique, labels = np.unique(keys, return_inverse=True)
    sets = np.unpackbits(
        unique.view(np.uint8).reshape(len(unique), -1), axis=1, count=len(blocks)
    ).astype(bool)
    return sets, labels.ravel()


def _compress_rows(system: WeightedSystem) -> tuple[np.ndarray, np.ndarray]:
    """The weighted system with every tall row group replaced by its R factor.

    A group is tall when it has more rows than its column count + 1.  The
    other rows come first, in their original order, weighted exactly as
    ``weights[:, None] * matrix`` would; each tall group then contributes
    as many rows as it has columns.  Returns a Fortran-ordered matrix and
    its right-hand side.
    """
    matrix, weights = system.matrix, system.weights
    rhs = system.weighted_rhs()
    blocks = column_blocks(system.model)
    sets, labels = _row_groups(matrix, blocks)
    widths = sets @ np.array([b.stop - b.start for b in blocks])
    tall = np.flatnonzero(np.bincount(labels, minlength=len(sets)) > widths + 1)
    kept = np.flatnonzero(~np.isin(labels, tall))
    out = np.empty((len(kept) + widths[tall].sum(), matrix.shape[1]), order="F")
    out_rhs = np.empty(len(out))
    top = 0
    # kept rows by runs of consecutive rows, with no temporary
    for run in np.split(kept, np.flatnonzero(np.diff(kept) != 1) + 1):
        if len(run):
            rows = slice(run[0], run[-1] + 1)
            np.multiply(weights[rows, None], matrix[rows], out=out[top : top + len(run)])
            top += len(run)
    out_rhs[:top] = rhs[kept]
    for g in tall:
        cols = [blocks[j] for j in np.flatnonzero(sets[g])]
        r = _group_r(matrix, weights, rhs, np.flatnonzero(labels == g), cols)
        n = widths[g]
        out[top : top + n] = 0.0
        offset = 0
        for c in cols:
            out[top : top + n, c] = r[:, offset : offset + c.stop - c.start]
            offset += c.stop - c.start
        out_rhs[top : top + n] = r[:, n]
        top += n
    return out, out_rhs


def _group_r(
    matrix: np.ndarray,
    weights: np.ndarray,
    rhs: np.ndarray,
    rows: np.ndarray,
    cols: list[slice],
) -> np.ndarray:
    """Top rows of the R factor of ``[W A | W b]`` over a group's rows and columns.

    ``rhs`` is already weighted.  The result has one row per column: the
    last row of R, which holds only the group's orthogonal residual, is
    dropped.  A NaN or inf in the group raises ValueError.
    """
    n = sum(c.stop - c.start for c in cols)
    group = np.empty((len(rows), n + 1), order="F")
    step = max(1, ROW_CHUNK // (n + 1))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        offset = 0
        for c in cols:
            width = c.stop - c.start
            np.multiply(
                weights[chunk, None],
                matrix[chunk, c],
                out=group[start : start + len(chunk), offset : offset + width],
            )
            offset += width
    group[:, n] = rhs[rows]
    _require_finite(group)
    lwork, info = dgeqrf_lwork(*group.shape)
    if info != 0:
        raise ValueError("geqrf workspace query failed (info=%d)" % info)
    qr, _, _, info = dgeqrf(group, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise ValueError("illegal value in argument %d of geqrf" % -info)
    return np.triu(qr[:n])
