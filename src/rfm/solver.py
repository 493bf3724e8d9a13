"""Minimum-norm least-squares solve and conditioning diagnostics."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgelsd, dgelsd_lwork

from .assembly import WeightedSystem

# Elements per block of the finiteness check (8 MB of float64).
FINITE_CHECK_BLOCK = 1 << 20


@dataclass(frozen=True)
class LstsqReport:
    """What the SVD solve saw: size, rank, spectrum edges, residual, time."""

    n_rows: int
    n_cols: int
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

    The weighted matrix is written into one Fortran-ordered buffer that
    gelsd factorizes in place, so a solve holds two matrix-sized arrays:
    the raw matrix and that buffer.  ``system.matrix``, ``rhs`` and
    ``weights`` are left as they were; the report's residual norm is the
    system's weighted loss at the solution.
    """
    weighted = np.empty(system.shape, order="F")
    np.multiply(system.weights[:, None], system.matrix, out=weighted)
    x, report = solve_min_norm(weighted, system.weighted_rhs(), rank_tol, overwrite_a=True)
    return x, replace(report, residual_norm=system.loss(x))


def condition_report(a: np.ndarray) -> dict:
    """Full-spectrum conditioning summary of a matrix (for diagnostics)."""
    sv = np.linalg.svd(a, compute_uv=False)
    tol = np.finfo(float).eps * max(a.shape) * sv[0]
    rank = int((sv > tol).sum())
    return {
        "sigma_max": float(sv[0]),
        "sigma_min": float(sv[-1]),
        "rank": rank,
        "n_singular": len(sv),
        "condition": float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf,
    }
