"""Collocation system assembly.

Rows are grouped as interior conditions, boundary conditions, patch
interface continuity conditions, then pointwise pins; within each group
points run in collocation order with the condition rows of one point kept
adjacent.  Columns follow the model's layout (component-major, patches in
construction order, global features last within each component).

The matrix is stored unweighted; per-row rescale factors live alongside it
so rescaling is exactly reproducible and can be recomputed at any time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import RfmModel, feature_block
from .geometry import CollocationSet
from .problems import PdeProblem, Stencil, Term

# Elements of matrix rows that a pass over the whole matrix (rescaling, row
# grouping) handles at a time: 2 MB of float64.  An 8 MB chunk raised peak
# RSS through allocator retention.
ROW_CHUNK = 1 << 18


@dataclass
class WeightedSystem:
    """A @ u ~ b with per-row rescale weights kept separate from A.

    The four row counts give each row family as a contiguous slice, in the
    order interior, boundary, interface, pin.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    weights: np.ndarray
    model: RfmModel
    problem: PdeProblem
    n_interior_rows: int
    n_boundary_rows: int
    n_interface_rows: int
    n_pin_rows: int
    zero_rows: np.ndarray = field(default_factory=lambda: np.empty(0, int))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def weighted_matrix(self) -> np.ndarray:
        return self.weights[:, None] * self.matrix

    def weighted_rhs(self) -> np.ndarray:
        return self.weights * self.rhs

    def rescale(self, scale: float = 100.0) -> "WeightedSystem":
        """Set each row's weight to scale / max_j |A_ij| (1 for zero rows).

        Weights are always computed from the raw matrix, so calling this
        twice is the same as calling it once.  The row maxima are taken in
        chunks of rows, so no matrix-sized temporary is made.
        """
        rowmax = np.empty(len(self.matrix))
        step = max(1, ROW_CHUNK // max(1, self.matrix.shape[1]))
        for start in range(0, len(self.matrix), step):
            rows = slice(start, start + step)
            np.abs(self.matrix[rows]).max(axis=1, out=rowmax[rows])
        zero = rowmax == 0.0
        w = np.ones_like(rowmax)
        np.divide(scale, rowmax, out=w, where=~zero)
        self.weights = w
        self.zero_rows = np.flatnonzero(zero)
        return self

    def residual(self, coefficients: np.ndarray) -> np.ndarray:
        return self.matrix @ coefficients - self.rhs

    def loss(self, coefficients: np.ndarray) -> float:
        """Norm of the weighted residual, the quantity least squares minimizes."""
        return float(np.linalg.norm(self.weights * self.residual(coefficients)))

    def dump(self, path) -> None:
        """Raw binary dump: int64 header (rows, cols, interior-condition count),
        then the matrix row-major, the right-hand side, and the weights."""
        n, m = self.matrix.shape
        with open(path, "wb") as fh:
            fh.write(np.asarray([n, m, self.problem.k_interior], np.int64).tobytes())
            fh.write(np.ascontiguousarray(self.matrix, np.float64).tobytes())
            fh.write(np.asarray(self.rhs, np.float64).tobytes())
            fh.write(np.asarray(self.weights, np.float64).tobytes())


def load_system_dump(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Read back a dump(): (matrix, rhs, weights, interior-condition count)."""
    raw = np.fromfile(path, np.uint8)
    n, m, k = np.frombuffer(raw[:24].tobytes(), np.int64)
    body = np.frombuffer(raw[24:].tobytes(), np.float64)
    a = body[: n * m].reshape(n, m)
    b = body[n * m : n * m + n]
    w = body[n * m + n :]
    return a, b, w, int(k)


# ----------------------------------------------------------------------
# row construction
# ----------------------------------------------------------------------


def _fill_stencil_rows(
    a: np.ndarray,
    start: int,
    model: RfmModel,
    points: np.ndarray,
    stencil: Stencil,
    normals: np.ndarray | None = None,
) -> None:
    """Scatter one stencil's conditions for a batch of points into ``a``.

    Row index of condition ``row`` at point ``p`` is start + p*n_rows + row.
    Every expansion of the model (local patches and the global patch) adds
    its block at the points in its support.  Term coefficients are
    evaluated once on the whole point set.
    """
    base = start + np.arange(len(points)) * stencil.n_rows
    coeffs = [t.coeff_at(points, normals) for t in stencil.terms]
    comps = sorted({t.comp for t in stencil.terms})
    for n in range(len(model.expansions)):
        mask = model.support_mask(n, points)
        if not mask.any():
            continue
        sub, rows = points[mask], base[mask]
        for comp in comps:
            blocks = model.basis_block(n, comp, sub, stencil.alphas_for(comp))
            cols = model.col_slice(comp, n)
            for t, coeff in zip(stencil.terms, coeffs):
                if t.comp == comp:
                    a[rows + t.row, cols] += coeff[mask, None] * blocks[t.alpha]


def _fill_interface_rows(
    a: np.ndarray, start: int, model: RfmModel, colloc: CollocationSet
) -> None:
    """Continuity of value and normal first derivative across patch facets.

    Each interface point contributes, per component, a value row and a
    derivative row; the lower patch enters with +, the upper with -.  Only
    the two adjacent local feature blocks are involved: any global
    expansion is smooth across the facet, so its columns cancel.
    """
    iface = colloc.interface
    pts = iface.points
    axes = np.argmax(np.abs(iface.normals), axis=1)
    block = 2 * model.n_components
    for (m, n, axis) in {
        (int(p[0]), int(p[1]), int(ax)) for p, ax in zip(iface.pairs, axes)
    }:
        sel = np.flatnonzero(
            (iface.pairs[:, 0] == m) & (iface.pairs[:, 1] == n) & (axes == axis)
        )
        sub = pts[sel]
        alpha0 = (0,) * model.dim
        alpha1 = tuple(1 if ax == axis else 0 for ax in range(model.dim))
        base = start + sel * block
        for comp in range(model.n_components):
            lo = feature_block(model.patches[m], comp, sub, [alpha0, alpha1])
            hi = feature_block(model.patches[n], comp, sub, [alpha0, alpha1])
            for k, alpha in enumerate((alpha0, alpha1)):
                rows = base + 2 * comp + k
                a[rows, model.col_slice(comp, m)] += lo[alpha]
                a[rows, model.col_slice(comp, n)] -= hi[alpha]


def available_memory_bytes() -> int | None:
    """MemAvailable from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _check_memory(n_rows: int, n_cols: int) -> None:
    """Refuse a system whose matrix and weighted copy would not fit in memory.

    A solve holds at most two matrix-sized arrays: the raw matrix and the
    weighted copy that the SVD factorizes in place, which is as large as the
    matrix when no row group compresses.
    """
    need = 2 * n_rows * n_cols * 8
    available = available_memory_bytes()
    if available is not None and need > available:
        raise ValueError(
            "a %dx%d system needs %.0f MB for its matrix and weighted copy, "
            "but only %.0f MB of memory is available" % (n_rows, n_cols, need / 1e6, available / 1e6)
        )


def assemble(
    problem: PdeProblem, model: RfmModel, colloc: CollocationSet
) -> WeightedSystem:
    """Build the full collocation system for a problem/model pair."""
    if model.dim != problem.domain.dim or model.n_components != problem.n_components:
        raise ValueError("model does not match the problem layout")
    sampled = set(colloc.boundary_tags)
    missing = [t for t in problem.domain.boundary_tags() if t not in sampled]
    if missing:
        raise ValueError("boundary segments %s have no collocation points" % missing)

    k_i, k_b = problem.k_interior, problem.k_boundary
    n_int = colloc.n_interior * k_i
    n_bnd = colloc.n_boundary * k_b
    n_ifc = colloc.n_interface * 2 * model.n_components
    pins = problem.extra_point_conditions
    n_rows = n_int + n_bnd + n_ifc + len(pins)
    _check_memory(n_rows, model.n_columns)
    a = np.zeros((n_rows, model.n_columns))
    b = np.zeros(n_rows)

    # interior conditions
    _fill_stencil_rows(a, 0, model, colloc.interior, problem.operator)
    b[:n_int] = problem.forcing_values(colloc.interior).ravel()

    # boundary conditions, grouped per stencil but kept in collocation order
    tags = np.asarray(colloc.boundary_tags)
    values = problem.boundary_values(
        colloc.boundary_points, colloc.boundary_normals, colloc.boundary_tags
    )
    start = n_int
    for st in problem.boundary:
        sel = np.flatnonzero(np.isin(tags, st.tags))
        _fill_stencil_rows(
            a, start, model, colloc.boundary_points[sel], st, colloc.boundary_normals[sel]
        )
        b[start : start + len(sel) * k_b] = values[sel].ravel()
        start += len(sel) * k_b

    # interface continuity (right-hand side stays zero)
    if colloc.n_interface:
        _fill_interface_rows(a, start, model, colloc)
        start += n_ifc

    # pointwise pins: one-point Dirichlet conditions on one component
    for j, (point, comp, value) in enumerate(pins):
        pin = Stencil((Term(0, comp, (0,) * model.dim, 1.0),), 1, model.n_components, model.dim)
        _fill_stencil_rows(a, start + j, model, np.asarray([point], float), pin)
        b[start + j] = value

    return WeightedSystem(
        matrix=a,
        rhs=b,
        weights=np.ones(n_rows),
        model=model,
        problem=problem,
        n_interior_rows=n_int,
        n_boundary_rows=n_bnd,
        n_interface_rows=n_ifc,
        n_pin_rows=len(pins),
    )
