"""Collocation system assembly.

Rows are grouped as interior conditions, boundary conditions, patch
interface continuity conditions, then pointwise pins; within each group
points run in collocation order with the condition rows of one point kept
adjacent.  Columns follow the model's layout (component-major, patches in
construction order, global features last within each component).

Every row family is a ``Stencil`` applied at a point set, filled by one
loop.  Interface continuity is the stencil of value and normal derivative
per component, fed the facet normals; its lower patch enters with + and its
upper patch with -.

The matrix is block-sparse: a row touches only the column blocks (one per
component and expansion) of the expansions that hold its point (at an
interface point, the two patches that meet there), and of the components
its condition involves.  Rows that touch the same blocks form a row group,
stored as a dense block over those columns alone, so the full matrix is
only built on request (``WeightedSystem.matrix``).  The system is stored
unweighted; per-row rescale factors live alongside it so rescaling is
exactly reproducible and can be recomputed at any time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import basis
# feature_block stays importable here: perfbench/bench.py traces rfm.assembly.feature_block
from .basis import RfmModel, feature_block  # noqa: F401
from .geometry import CollocationSet, Domain
from .problems import PdeProblem, Stencil, Term

def _tall(n_rows, width):
    """Whether the solver replaces a row group by its R factor: more rows than
    its column count + 1 (elementwise for arrays)."""
    return n_rows > width + 1


@dataclass
class RowGroup:
    """Rows that touch the same column blocks, stored over those columns only.

    ``rows`` are the group's rows in the system, ascending, and ``cols`` its
    column blocks in column order.  ``block[i]`` holds row ``rows[i]`` at
    those columns; the row is zero at every other column.
    """

    rows: np.ndarray
    cols: list[slice]
    block: np.ndarray

    @property
    def tall(self) -> bool:
        return _tall(*self.block.shape)

    def take(self, x: np.ndarray) -> np.ndarray:
        """The entries of a full-length column vector at the group's columns."""
        return np.concatenate([x[:0]] + [x[c] for c in self.cols])

    def place(self, out: np.ndarray, at, values: np.ndarray) -> None:
        """Write ``values``, rows over the group's columns, into rows ``at`` of
        the full-width ``out``; the other columns of ``out`` are left alone."""
        offset = 0
        for c in self.cols:
            width = c.stop - c.start
            out[at, c] = values[:, offset : offset + width]
            offset += width


@dataclass
class WeightedSystem:
    """A @ u ~ b with per-row rescale weights kept separate from A.

    A is held as row groups, every row in exactly one.  The four row counts
    give each row family as a contiguous slice, in the order interior,
    boundary, interface, pin.  ``solve_system`` takes the groups over
    (``release_groups``) and frees them as it goes; ``groups`` is None from
    then on, and every method that needs the matrix raises ValueError.
    """

    groups: list[RowGroup] | None
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
        return len(self.rhs), self.model.n_columns

    @property
    def matrix(self) -> np.ndarray:
        """The full matrix, stacked from the row groups: a new dense copy per call."""
        a = np.zeros(self.shape)
        for g in self._live_groups():
            g.place(a, g.rows, g.block)
        return a

    def _live_groups(self) -> list[RowGroup]:
        """The row groups; every use of the matrix goes through this check."""
        if self.groups is None:
            raise ValueError(
                "solve_system has released this system's row groups: assemble it "
                "again, or solve a copy.deepcopy of it"
            )
        return self.groups

    def release_groups(self) -> list[RowGroup]:
        """Hand the row groups over, for the caller to free; the system then
        refuses every use that needs them."""
        groups = self._live_groups()
        self.groups = None
        return groups

    def weighted_matrix(self) -> np.ndarray:
        a = self.matrix
        a *= self.weights[:, None]
        return a

    def weighted_rhs(self) -> np.ndarray:
        return self.weights * self.rhs

    def rescale(self, scale: float = 100.0) -> "WeightedSystem":
        """Set each row's weight to scale / max_j |A_ij| (1 for zero rows).

        Weights are always computed from the raw matrix, so calling this
        twice is the same as calling it once.  max|a| is taken as
        max(max a, -min a), so no temporary as large as a group is made.
        """
        rowmax = np.zeros(self.shape[0])
        for g in self._live_groups():
            rowmax[g.rows] = np.maximum(
                g.block.max(axis=1, initial=0.0), -g.block.min(axis=1, initial=0.0)
            )
        zero = rowmax == 0.0
        w = np.ones_like(rowmax)
        np.divide(scale, rowmax, out=w, where=~zero)
        self.weights = w
        self.zero_rows = np.flatnonzero(zero)
        return self

    def residual(self, coefficients: np.ndarray) -> np.ndarray:
        out = -self.rhs
        for g in self._live_groups():
            out[g.rows] += g.block @ g.take(coefficients)
        return out

    def loss(self, coefficients: np.ndarray) -> float:
        """Norm of the weighted residual, the quantity least squares minimizes."""
        return float(np.linalg.norm(self.weights * self.residual(coefficients)))

    def dump(self, path) -> None:
        """Raw binary dump: int64 header (rows, cols, interior-condition count),
        then the matrix row-major, the right-hand side, and the weights.  The
        matrix is stacked from the row groups, one dense copy."""
        n, m = self.shape
        matrix = self.matrix  # before the file is opened: a solved system leaves none
        with open(path, "wb") as fh:
            fh.write(np.asarray([n, m, self.problem.k_interior], np.int64).tobytes())
            fh.write(matrix.tobytes())
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


class _GroupFill:
    """Row groups being filled: the group of every system row, its row in the
    group's block, and where each (component, expansion) column block sits
    in that block.

    ``touched[i, comp, n]`` says whether row ``i`` touches the column block
    of component ``comp`` and expansion ``n``.  Rows that touch the same
    blocks form a group, and a group that is not tall joins the first tall
    group that holds all of its blocks, whose QR then takes its rows at no
    extra width (the Dirichlet rows of a patch join its interior rows).
    Blocks are allocated by ``allocate``.
    """

    def __init__(self, model: RfmModel, touched: np.ndarray):
        n_exp = len(model.expansions)
        blocks = [
            model.col_slice(comp, n) for comp in range(model.n_components) for n in range(n_exp)
        ]
        touched = touched.reshape(len(touched), len(blocks))
        # one byte string per row, so any number of blocks makes a sortable key
        packed = np.packbits(touched, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        unique, labels = np.unique(keys, return_inverse=True)
        sets = np.unpackbits(
            unique.view(np.uint8).reshape(len(unique), -1), axis=1, count=len(blocks)
        ).astype(bool)
        counts = np.bincount(labels.ravel(), minlength=len(sets))
        is_tall = _tall(counts, sets @ np.array([c.stop - c.start for c in blocks]))
        tall = np.flatnonzero(is_tall)
        target = np.arange(len(sets))
        for g in np.flatnonzero(~is_tall):
            holds = ~np.any(sets[g] & ~sets[tall], axis=1)
            if holds.any():
                target[g] = tall[np.argmax(holds)]
        kept = np.unique(target)
        self.labels = np.searchsorted(kept, target)[labels.ravel()]
        order = np.argsort(self.labels, kind="stable")
        counts = np.bincount(self.labels, minlength=len(kept))
        self.local = np.empty(len(order), int)
        self.local[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.rows = np.split(order, np.cumsum(counts)[:-1])
        self.cols: list[list[slice]] = []
        self.offsets: list[dict[tuple[int, int], int]] = []
        for key in sets[kept]:
            cols, offsets, width = [], {}, 0
            for j in np.flatnonzero(key):
                offsets[divmod(int(j), n_exp)] = width
                cols.append(blocks[j])
                width += blocks[j].stop - blocks[j].start
            self.cols.append(cols)
            self.offsets.append(offsets)
        self.groups: list[RowGroup] = []

    @property
    def sizes(self) -> list[tuple[int, int]]:
        """(rows, columns) of every group's block."""
        return [
            (len(rows), sum(c.stop - c.start for c in cols))
            for rows, cols in zip(self.rows, self.cols)
        ]

    def allocate(self) -> list[RowGroup]:
        self.groups = [
            RowGroup(rows, cols, np.zeros(size))
            for rows, cols, size in zip(self.rows, self.cols, self.sizes)
        ]
        return self.groups

    def add(self, rows: np.ndarray, comp: int, n: int, values: np.ndarray) -> None:
        """Add ``values`` at system rows ``rows`` and column block (comp, n)."""
        labels = self.labels[rows]
        present = np.flatnonzero(np.bincount(labels))
        for g in present:
            sel = slice(None) if len(present) == 1 else labels == g
            at = self.offsets[g][comp, n]
            self.groups[g].block[self.local[rows[sel]], at : at + values.shape[1]] += values[sel]


def _fill_stencil_rows(
    fill: _GroupFill,
    start: int,
    model: RfmModel,
    points: np.ndarray,
    stencil: Stencil,
    signs: np.ndarray,
    normals: np.ndarray | None = None,
) -> None:
    """Add one stencil's conditions for a batch of points into the row groups.

    Row index of condition ``row`` at point ``p`` is start + p*n_rows + row.
    Every expansion ``n`` of the model (local patches and the global patch)
    adds its block, times ``signs[n]``, at the points where that sign is
    nonzero.  Term coefficients are evaluated once on the whole point set (a
    coefficient field may cache its values by the points array); the basis
    blocks are taken a chunk of an expansion's points at a time (see
    ``basis.point_chunks``), so their temporaries stay bounded however many
    points the set has.
    """
    base = start + np.arange(len(points)) * stencil.n_rows
    coeffs = [t.coeff_at(points, normals) for t in stencil.terms]
    comps = sorted({t.comp for t in stencil.terms})
    for n, sign in enumerate(signs):
        where = np.flatnonzero(sign)
        for chunk in basis.point_chunks(len(where)):
            at = where[chunk]
            for comp in comps:
                blocks = model.basis_block(n, comp, points[at], stencil.alphas_for(comp))
                for t, coeff in zip(stencil.terms, coeffs):
                    if t.comp == comp:
                        weight = coeff[at] * sign[at]
                        fill.add(base[at] + t.row, comp, n, weight[:, None] * blocks[t.alpha])
                del blocks  # before the next component's blocks are made


def _interface_stencil(model: RfmModel) -> Stencil:
    """Continuity across a patch facet, fed the facet normals: per component
    ``c``, the value (row 2c) and the normal derivative (row 2c+1)."""
    dim, k = model.dim, model.n_components
    terms = []
    for c in range(k):
        terms.append(Term(2 * c, c, (0,) * dim, 1.0))
        for ax in range(dim):
            e = tuple(int(i == ax) for i in range(dim))
            terms.append(Term(2 * c + 1, c, e, lambda _, normals, ax=ax: normals[:, ax]))
    return Stencil(tuple(terms), 2 * k, k, dim)


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


def _check_memory(
    shape: tuple[int, int], sizes: list[tuple[int, int]], available: int | None
) -> None:
    """Refuse a system whose row groups and solve buffers would not fit in memory.

    ``sizes`` gives each row group's (rows, columns).  A solve first takes
    the R factor of each tall group, with its rotated right-hand side, from
    a weighted copy of the group, then frees the group's block; it then
    fills the weighted buffer that the SVD factorizes in place (one
    full-width row for each row of a group that is not tall, and for each
    column of a tall one).  The budget is the larger of the two phases: all
    blocks, the largest weighted copy and the R factors, or the blocks of
    the groups that are not tall, the R factors and the buffer.  ``available``
    is the memory available in bytes, or None to skip the check.
    """
    n_rows, n_cols = shape
    tall = [(r, w) for r, w in sizes if _tall(r, w)]
    solved = n_rows - sum(r for r, _ in tall) + sum(w for _, w in tall)
    blocks = sum(r * w for r, w in sizes)
    short_blocks = blocks - sum(r * w for r, w in tall)
    factors = sum(w * (w + 1) for _, w in tall)
    copy = max((r * (w + 1) for r, w in tall), default=0)
    need = 8 * (factors + max(blocks + copy, short_blocks + solved * n_cols))
    _refuse_unless_fits(
        need, available, "a %dx%d system" % shape, "its row groups and solve buffers"
    )


def check_sampling_memory(
    domain: Domain, interior_counts: tuple[int, ...], boundary_counts: dict[str, int]
) -> None:
    """Refuse per-axis interior counts and boundary counts whose point arrays
    would not fit in memory, before any point is sampled
    (``Domain.sampling_bytes``)."""
    need = domain.sampling_bytes(interior_counts, boundary_counts)
    grid = "x".join(map(str, interior_counts))
    subject = "sampling a %s-point interior grid and its boundary" % grid
    _refuse_unless_fits(need, available_memory_bytes(), subject, "the point arrays")


def _refuse_unless_fits(need: int, available: int | None, subject: str, purpose: str) -> None:
    """Raise ValueError when ``need`` bytes exceed ``available`` (None: no check)."""
    if available is not None and need > available:
        raise ValueError(
            "%s needs %.1f MB for %s, but only %.1f MB of memory is available"
            % (subject, need / 1e6, purpose, available / 1e6)
        )


def assemble(
    problem: PdeProblem, model: RfmModel, colloc: CollocationSet
) -> WeightedSystem:
    """Build the collocation system for a problem/model pair, as row groups."""
    if model.dim != problem.domain.dim or model.n_components != problem.n_components:
        raise ValueError("model does not match the problem layout")
    sampled = set(colloc.boundary_tags)
    missing = [t for t in problem.domain.boundary_tags() if t not in sampled]
    if missing:
        raise ValueError("boundary segments %s have no collocation points" % missing)

    if colloc.n_interface and model.pou != "a":
        raise ValueError(
            "interface continuity rows need the sharp partition (pou 'a'), not pou %r"
            % model.pou
        )

    k_i, k_b, k = problem.k_interior, problem.k_boundary, model.n_components
    n_int = colloc.n_interior * k_i
    n_bnd = colloc.n_boundary * k_b
    n_ifc = colloc.n_interface * 2 * k
    pins = problem.extra_point_conditions
    n_rows = n_int + n_bnd + n_ifc + len(pins)
    n_exp = len(model.expansions)

    # every interior row lies in a group at least as wide as the narrowest
    # expansion, so these blocks alone are a lower bound on _check_memory's
    # budget: refuse them before the point sets' temporaries are built
    available = available_memory_bytes()
    narrowest = min(p.n_features for p in model.expansions)
    _refuse_unless_fits(
        8 * n_int * narrowest,
        available,
        "a %dx%d system" % (n_rows, model.n_columns),
        "the blocks of its %d interior rows" % n_int,
    )

    # every stencil's point set as (first row, points, normals, stencil, data,
    # signs): the interior, the boundary per stencil in collocation order, the
    # interface, and the pins, one-point Dirichlet conditions on one component.
    # signs[n, p] weighs expansion n's block at point p: 1 (True) where the
    # model ``supports`` it, +1 / -1 for the lower / upper patch at an interface
    # point, 0 elsewhere (the global patch is smooth across a facet)
    tags = np.asarray(colloc.boundary_tags)
    values = problem.boundary_values(
        colloc.boundary_points, colloc.boundary_normals, colloc.boundary_tags
    )
    interior, forcing = colloc.interior, problem.forcing_values(colloc.interior)
    sets = [(0, interior, None, problem.operator, forcing, model.supports(interior))]
    start = n_int
    for st in problem.boundary:
        sel = np.flatnonzero(np.isin(tags, st.tags))
        pts = colloc.boundary_points[sel]
        sets.append((start, pts, colloc.boundary_normals[sel], st, values[sel], model.supports(pts)))
        start += len(sel) * k_b
    iface = colloc.interface
    signs = np.zeros((n_exp, len(iface)))
    signs[iface.pairs[:, 0], np.arange(len(iface))] = 1.0
    signs[iface.pairs[:, 1], np.arange(len(iface))] = -1.0
    ifc = _interface_stencil(model)
    sets.append((start, iface.points, iface.normals, ifc, np.zeros(n_ifc), signs))
    start += n_ifc
    for j, (point, comp, value) in enumerate(pins):
        pin = Stencil((Term(0, comp, (0,) * model.dim, 1.0),), 1, k, model.dim)
        pts = np.asarray([point], float)
        sets.append((start + j, pts, None, pin, np.asarray(value), model.supports(pts)))

    # the column blocks each row touches: those of its terms' components at
    # the expansions with a nonzero sign at its point
    touched = np.zeros((n_rows, k, n_exp), bool)
    for first, points, _, st, _, signs in sets:
        acts = np.zeros((st.n_rows, k), bool)  # acts[row, comp]: a term of row acts on comp
        for t in st.terms:
            acts[t.row, t.comp] = True
        rows = slice(first, first + len(points) * st.n_rows)
        touched[rows] = (acts[None, :, :, None] & (signs != 0.0).T[:, None, None, :]).reshape(
            -1, k, n_exp
        )

    fill = _GroupFill(model, touched)
    _check_memory((n_rows, model.n_columns), fill.sizes, available)
    groups = fill.allocate()
    b = np.zeros(n_rows)
    for first, points, normals, st, data, signs in sets:
        _fill_stencil_rows(fill, first, model, points, st, signs, normals)
        b[first : first + data.size] = data.ravel()

    return WeightedSystem(
        groups=groups,
        rhs=b,
        weights=np.ones(n_rows),
        model=model,
        problem=problem,
        n_interior_rows=n_int,
        n_boundary_rows=n_bnd,
        n_interface_rows=n_ifc,
        n_pin_rows=len(pins),
    )
