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
only built on request (``WeightedSystem.matrix``).

``assemble`` lays the system out without filling it: it builds the point
sets with their supports and term coefficients, the row groups' rows and
columns, and the right-hand side.  A system keeps no block: each use fills
the blocks it needs, from the points that own rows in them, and lets them
go, so a solved system stays usable.  ``solve_system`` fills the tall groups
one at a time, so only one tall block is alive at once.  The layout also
names the wide expansions (``wide_expansions``), whose columns the solver
replaces by the L factor of their LQ (see ``rfm.solver``).  The system is
stored unweighted; ``rescale`` keeps only its scale, and each row's weight
is taken from its group's block, so rescaling is exactly reproducible and
can be recomputed at any time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import basis
# feature_block stays importable here: perfbench/bench.py traces rfm.assembly.feature_block
from .basis import RfmModel, feature_block  # noqa: F401
from .blas import blas_threads, gelsd_workspace
from .geometry import CollocationSet, available_memory_bytes
from .problems import PdeProblem, Stencil, Term


def _tall(n_rows, width):
    """Whether the solver replaces a row group by its R factor: more rows than
    its column count + 1 (elementwise for arrays)."""
    return n_rows > width + 1


def _wide(n_rows, width):
    """Whether the solver replaces an expansion's columns by the L factor of
    their LQ: fewer rows of the row-compressed system touch them than there
    are columns, the dual of ``_tall``."""
    return n_rows < width


@dataclass
class RowGroup:
    """Rows that touch the same column blocks, stored over those columns only.

    ``rows`` are the group's rows in the system, ascending, and ``cols`` its
    column blocks in column order.  The group's block holds row ``rows[i]``
    at those columns in its row ``i``; the row is zero at every other column.
    """

    rows: np.ndarray
    cols: list[slice]

    @property
    def width(self) -> int:
        return sum(c.stop - c.start for c in self.cols)

    @property
    def tall(self) -> bool:
        return _tall(len(self.rows), self.width)

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


def wide_expansions(groups: list[RowGroup], model: RfmModel) -> list[tuple[list[slice], int]]:
    """Each wide expansion's column blocks, one per component in column order,
    and the number of rows of the row-compressed system that touch them.

    A group that is not tall enters with its rows, a tall one with its R
    factor, one row per column of the group, whenever one of the group's
    column blocks is one of the expansion's (``_wide`` decides).
    """
    out = []
    for n in range(len(model.expansions)):
        cols = [model.col_slice(comp, n) for comp in range(model.n_components)]
        rows = sum(
            g.width if g.tall else len(g.rows) for g in groups if any(c in cols for c in g.cols)
        )
        if _wide(rows, sum(c.stop - c.start for c in cols)):
            out.append((cols, rows))
    return out


def row_weights(
    block: np.ndarray, scale: float | None, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rescale weight, scale / max_j |a_ij| (1 for a zero row, and
    for every row when ``scale`` is None), and which rows are zero.

    max|a| is taken as max(max a, -min a), so no temporary as large as the
    block is made.  A row's weight depends on that row alone, so weighing a
    system group by group, or its dense matrix whole, gives the same bits.
    A scale that gives a nonzero finite row a weight that is not a normal
    float, or makes a weighted row or its entry of ``rhs`` (the rows'
    right-hand side) overflow, raises ValueError naming 'rescale_scale'.
    The check only reads, so the weights it passes keep their bits; NaN and
    inf entries are left to the solver's finiteness check.
    """
    rowmax = np.maximum(block.max(axis=1, initial=0.0), -block.min(axis=1, initial=0.0))
    zero = rowmax == 0.0
    w = np.ones_like(rowmax)
    if scale is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(scale, rowmax, out=w, where=~zero)
            normal = (w >= np.finfo(float).tiny) & (w <= np.finfo(float).max)
            bad = (~normal & ~zero & np.isfinite(rowmax)) | np.isinf(w * rowmax)
            bad |= np.isinf(w * rhs) & np.isfinite(rhs)
        if bad.any():
            raise ValueError(
                "'rescale_scale' must keep every row weight (the scale over the row's "
                "largest entry) a normal float and every weighted row and right-hand "
                "side finite, got %r" % (scale,)
            )
    return w, zero


def scaled_norm(x: np.ndarray) -> float:
    """||x||_2 that neither overflows nor underflows: x is divided by 2^e,
    the power of two at max |x|, and the norm multiplied back.  Both steps
    are exact, so a norm that is in range keeps its bits, and one too large
    for a float is inf."""
    e = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


@dataclass
class WeightedSystem:
    """A @ u ~ b with per-row rescale weights kept separate from A.

    The system holds its layout, its right-hand side and its scale, and no
    block of A.  The layout (``_GroupFill``) gives the row groups, every row
    in exactly one, and fills the blocks of any of them on request
    (``blocks``); each use of A asks for the blocks it needs and lets them
    go, so a system gives the same matrix, weights and loss however often it
    is used or solved.  The four row counts give each row family as a
    contiguous slice, in the order interior, boundary, interface, pin.
    ``scale`` is the one that ``rescale`` set, or None for unit weights.
    """

    layout: _GroupFill
    rhs: np.ndarray
    model: RfmModel
    problem: PdeProblem
    n_interior_rows: int
    n_boundary_rows: int
    n_interface_rows: int
    n_pin_rows: int
    scale: float | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rhs), self.model.n_columns

    @property
    def groups(self) -> list[RowGroup]:
        return self.layout.groups

    @property
    def wide(self) -> list[tuple[list[slice], int]]:
        """The wide expansions' column blocks and row counts (``wide_expansions``)."""
        return self.layout.wide

    def blocks(self, which) -> list[np.ndarray]:
        """New blocks of groups ``which``, filled in one pass; none is kept."""
        return self.layout.blocks(list(which))

    def _all_blocks(self) -> list[tuple[RowGroup, np.ndarray]]:
        return list(zip(self.groups, self.blocks(range(len(self.groups)))))

    @property
    def matrix(self) -> np.ndarray:
        """The full matrix, a new dense copy per call, stacked from the
        blocks of one fill.  A copy that would not fit in memory, with the
        blocks it is stacked from, is refused with ValueError."""
        n, m = self.shape
        blocks = sum(len(g.rows) * g.width for g in self.groups)
        _refuse_unless_fits(
            8 * (n * m + blocks), available_memory_bytes(), "a %dx%d system" % self.shape,
            "a dense copy of its matrix",
        )
        a = np.zeros(self.shape)
        for g, block in self._all_blocks():
            g.place(a, g.rows, block)
        return a

    def _walk(self, coefficients: np.ndarray | None = None):
        """One fill of every block: each row's weight (``row_weights``), which
        rows are zero, and the residual at ``coefficients`` (-rhs without)."""
        w, zero, out = np.ones(self.shape[0]), np.zeros(self.shape[0], bool), -self.rhs
        if self.scale is None and coefficients is None:
            return w, zero, out  # unit weights need no block
        for g, block in self._all_blocks():
            if self.scale is not None:
                w[g.rows], zero[g.rows] = row_weights(block, self.scale, self.rhs[g.rows])
            if coefficients is not None:
                out[g.rows] += block @ g.take(coefficients)
        return w, zero, out

    @property
    def weights(self) -> np.ndarray:
        """Each row's weight (``row_weights``): 1 until ``rescale``, then taken
        from the raw matrix."""
        return self._walk()[0]

    @property
    def zero_rows(self) -> np.ndarray:
        """Which rows are zero in the raw matrix, a mask over the rows; those
        rows keep weight 1.  None is flagged until ``rescale``."""
        return self._walk()[1]

    def weighted_matrix(self) -> np.ndarray:
        a = self.matrix
        a *= row_weights(a, self.scale, self.rhs)[0][:, None]
        return a

    def weighted_rhs(self) -> np.ndarray:
        return self.weights * self.rhs

    def rescale(self, scale: float = 100.0) -> "WeightedSystem":
        """Weigh each row by scale / max_j |A_ij| (1 for zero rows).

        Only the scale is kept.  The weights are taken from the raw matrix
        where they are needed, by ``weights`` for the whole system and by
        ``solve_system`` one group at a time, so calling this twice is the
        same as calling it once, and it fills no block.
        """
        self.scale = scale
        return self

    def residual(self, coefficients: np.ndarray) -> np.ndarray:
        return self._walk(coefficients)[2]

    def loss(self, coefficients: np.ndarray) -> float:
        """Norm of the weighted residual, the quantity least squares minimizes."""
        w, _, residual = self._walk(coefficients)
        return scaled_norm(w * residual)

    def dump(self, path) -> None:
        """Raw binary dump: int64 header (rows, cols, interior-condition count),
        then the matrix row-major, the right-hand side, and the weights, all
        taken from one dense copy of the matrix (``matrix``)."""
        n, m = self.shape
        matrix = self.matrix  # before the file is opened, so a refused copy writes none
        with open(path, "wb") as fh:
            fh.write(np.asarray([n, m, self.problem.k_interior], np.int64).tobytes())
            matrix.tofile(fh)
            np.asarray(self.rhs, np.float64).tofile(fh)
            row_weights(matrix, self.scale, self.rhs)[0].tofile(fh)


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


@dataclass
class _PointSet:
    """One stencil's conditions at a batch of points.

    Condition ``row`` at point ``p`` is system row first + p*n_rows + row.
    ``signs[n, p]`` weighs expansion n's block at point p: 1 (True) where the
    model ``supports`` it, +1 / -1 for the lower / upper patch at an interface
    point, 0 elsewhere (the global patch is smooth across a facet).
    ``coeffs`` holds each term's coefficient at the points, evaluated once on
    the whole set (a coefficient field may cache its values by the points
    array).
    """

    first: int
    points: np.ndarray
    stencil: Stencil
    signs: np.ndarray
    coeffs: list[np.ndarray]


class _GroupFill:
    """The row groups of a system, and the point sets that fill their blocks.

    ``touched[i, comp, n]`` says whether row ``i`` touches the column block
    of component ``comp`` and expansion ``n``.  Rows that touch the same
    blocks form a group, and a group that is not tall joins the first tall
    group that holds all of its blocks, whose QR then takes its rows at no
    extra width (the Dirichlet rows of a patch join its interior rows).
    Kept per group: its rows and columns (``groups``), ``local`` (a system
    row's row in its group's block), and where each (component, expansion)
    column block sits in the block; per expansion that is wide once the tall
    groups are compressed, its column blocks and row count (``wide``, see
    ``wide_expansions``); per point set, once a fill asks for some groups
    only, its points ordered by the groups they own rows in (``owners``).
    ``blocks`` fills new blocks of any groups, walking only their points,
    and keeps none of them.
    """

    def __init__(self, model: RfmModel, sets: list[_PointSet], touched: np.ndarray):
        self.model, self.sets = model, sets
        n_exp = len(model.expansions)
        blocks = [
            model.col_slice(comp, n) for comp in range(model.n_components) for n in range(n_exp)
        ]
        touched = touched.reshape(len(touched), len(blocks))
        # one byte string per row, so any number of blocks makes a sortable key
        packed = np.packbits(touched, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        unique, labels = np.unique(keys, return_inverse=True)
        sets_of_blocks = np.unpackbits(
            unique.view(np.uint8).reshape(len(unique), -1), axis=1, count=len(blocks)
        ).astype(bool)
        counts = np.bincount(labels.ravel(), minlength=len(sets_of_blocks))
        is_tall = _tall(counts, sets_of_blocks @ np.array([c.stop - c.start for c in blocks]))
        tall = np.flatnonzero(is_tall)
        target = np.arange(len(sets_of_blocks))
        for g in np.flatnonzero(~is_tall):
            holds = ~np.any(sets_of_blocks[g] & ~sets_of_blocks[tall], axis=1)
            if holds.any():
                target[g] = tall[np.argmax(holds)]
        kept = np.unique(target)
        self.labels = np.searchsorted(kept, target)[labels.ravel()]
        order = np.argsort(self.labels, kind="stable")
        counts = np.bincount(self.labels, minlength=len(kept))
        self.local = np.empty(len(order), int)
        self.local[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.groups: list[RowGroup] = []
        self.offsets: list[dict[tuple[int, int], int]] = []
        for rows, key in zip(np.split(order, np.cumsum(counts)[:-1]), sets_of_blocks[kept]):
            cols, offsets, width = [], {}, 0
            for j in np.flatnonzero(key):
                offsets[divmod(int(j), n_exp)] = width
                cols.append(blocks[j])
                width += blocks[j].stop - blocks[j].start
            self.groups.append(RowGroup(rows, cols))
            self.offsets.append(offsets)
        self.wide = wide_expansions(self.groups, model)

    @cached_property
    def owners(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per point set, its points ordered by the groups they own rows in:
        those of group g are ``points[bounds[g] : bounds[g + 1]]``, ascending."""
        owners = []
        for s in self.sets:
            n_pts = max(len(s.points), 1)
            group_of = self.labels[s.first : s.first + len(s.points) * s.stencil.n_rows]
            pairs = np.unique(group_of * n_pts + np.arange(len(group_of)) // s.stencil.n_rows)
            bounds = np.searchsorted(pairs // n_pts, np.arange(len(self.groups) + 1))
            owners.append((pairs % n_pts, bounds))
        return owners

    def blocks(self, which: list[int]) -> list[np.ndarray]:
        """New blocks of groups ``which``, filled in one pass over the point
        sets that visits only the points owning rows in them (every point
        when every group is filled)."""
        if not which:
            return []
        out = {g: np.zeros((len(self.groups[g].rows), self.groups[g].width)) for g in which}
        needed = {key for g in which for key in self.offsets[g]}
        every = len(out) == len(self.groups)
        with blas_threads():  # small matmuls, on one thread as in the rest of assembly
            for i, s in enumerate(self.sets):
                if every:
                    points = np.arange(len(s.points))
                else:
                    owners, bounds = self.owners[i]
                    points = [owners[bounds[g] : bounds[g + 1]] for g in which]
                    points = points[0] if len(points) == 1 else np.unique(np.concatenate(points))
                _fill_stencil_rows(self, out, needed, s, points)
        return [out[g] for g in which]

    def add(
        self, out: dict[int, np.ndarray], rows: np.ndarray, comp: int, n: int, values: np.ndarray
    ) -> None:
        """Add ``values`` at system rows ``rows`` and column block (comp, n) to
        the blocks ``out`` being filled; rows of other groups are skipped."""
        labels = self.labels[rows]
        present = np.flatnonzero(np.bincount(labels))
        for g in present:
            if g not in out:
                continue
            sel = slice(None) if len(present) == 1 else labels == g
            at = self.offsets[g][comp, n]
            out[g][_as_slice(self.local[rows[sel]]), at : at + values.shape[1]] += values[sel]


def _as_slice(index: np.ndarray) -> np.ndarray | slice:
    """``index``, strictly increasing, as a slice where it is an arithmetic
    progression, so that an update through it works in place instead of
    through a copy.  A progression spans step * (len - 1), and with step 1
    nothing else strictly increasing does."""
    n = len(index)
    if n < 2:
        return index
    lo, hi = int(index[0]), int(index[-1])
    step = int(index[1]) - lo
    if hi - lo == step * (n - 1) and (step == 1 or np.all(np.diff(index) == step)):
        return slice(lo, hi + 1, step)
    return index


def _fill_stencil_rows(
    fill: _GroupFill,
    out: dict[int, np.ndarray],
    needed: set[tuple[int, int]],
    s: _PointSet,
    points: np.ndarray,
) -> None:
    """Add one point set's conditions at ``points`` (indices into the set,
    ascending) to the blocks ``out`` being filled, which hold the
    (component, expansion) column blocks ``needed``.

    Every expansion ``n`` whose blocks those groups hold adds its block,
    times ``signs[n]``, at the points where that sign is nonzero.  The basis
    blocks are taken a chunk of an expansion's points at a time (see
    ``basis.point_chunks``), so their temporaries stay bounded however many
    points the set has.  Each row's terms are added in the same order
    whichever groups are filled, so a block has the same bits filled alone
    or with every other.
    """
    st = s.stencil
    comps = sorted({t.comp for t in st.terms})
    for n, sign in enumerate(s.signs):
        kept = [comp for comp in comps if (comp, n) in needed]
        if not kept:
            continue
        where = points[sign[points] != 0]
        if len(where) == 1 and np.count_nonzero(sign) > 1:
            # a lone point would go through a matrix-vector product, which
            # rounds differently (basis.point_chunks); another point of the
            # expansion, whose rows lie in no group being filled, joins it
            where = np.union1d(where, np.flatnonzero(sign)[:2])
        for chunk in basis.point_chunks(len(where)):
            at = where[chunk]
            for comp in kept:
                blocks = fill.model.basis_block(n, comp, s.points[at], st.alphas_for(comp))
                # a row's terms on comp, summed in term order: the block starts
                # at 0 there, so one add gives the bits of one add per term
                sums: dict[int, np.ndarray] = {}
                for t, coeff in zip(st.terms, s.coeffs):
                    if t.comp == comp:
                        value = (coeff[at] * sign[at])[:, None] * blocks[t.alpha]
                        if t.row in sums:
                            sums[t.row] += value
                        else:
                            sums[t.row] = value
                del blocks  # before the next component's blocks are made
                for row, values in sums.items():
                    fill.add(out, s.first + at * st.n_rows + row, comp, n, values)


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


def _check_memory(
    shape: tuple[int, int],
    sizes: list[tuple[int, int]],
    wide: list[tuple[int, int]],
    available: int | None,
) -> None:
    """Refuse a system whose row groups and solve buffers would not fit in memory.

    ``sizes`` gives each row group's (rows, columns), and ``wide`` each wide
    expansion's (rows touching it, columns).  A solve first fills each tall
    group in turn, takes its R factor, with its rotated right-hand side,
    from a weighted copy of the group, and frees the group's block; it then
    fills the groups that are not tall, the weighted buffer that the SVD
    factorizes in place (one row for each row of a group that is not tall,
    and for each column of a tall one; one column for each column of an
    expansion that is not wide, and for each row touching a wide one), the
    wide expansions' LQ reflectors (rows x columns each), which stay until
    the solution is expanded, and gelsd's workspace for the buffer.  The
    budget is the R factors plus the larger of the two phases: the largest
    tall block with its weighted copy, or the blocks of the groups that are
    not tall with the buffer, the reflectors and the workspace.
    ``available`` is the memory available in bytes, or None to skip the
    check.
    """
    n_rows, n_cols = shape
    tall = [(r, w) for r, w in sizes if _tall(r, w)]
    solved = n_rows - sum(r for r, _ in tall) + sum(w for _, w in tall)
    solved_cols = n_cols - sum(w for _, w in wide) + sum(r for r, _ in wide)
    short_blocks = sum(r * w for r, w in sizes) - sum(r * w for r, w in tall)
    factors = sum(w * (w + 1) for _, w in tall)
    reflectors = sum(r * w for r, w in wide)
    largest = max((r * w + r * (w + 1) for r, w in tall), default=0)
    workspace = sum(gelsd_workspace(solved, solved_cols))
    second = short_blocks + solved * solved_cols + reflectors + workspace
    need = 8 * (factors + max(largest, second))
    _refuse_unless_fits(
        need, available, "a %dx%d system" % shape, "its row groups and solve buffers"
    )


def check_memory(need: int, subject: str, purpose: str) -> None:
    """Refuse ``need`` bytes for ``purpose`` that would not fit in memory,
    before they are allocated."""
    _refuse_unless_fits(need, available_memory_bytes(), subject, purpose)


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
    """Lay out the collocation system for a problem/model pair as row groups
    whose blocks are filled on request (see the module docstring)."""
    if model.dim != problem.domain.dim or model.n_components != problem.n_components:
        raise ValueError("model does not match the problem layout")
    problem.domain.check_every_segment(set(colloc.boundary_tags))

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

    # a lower bound on what assembly allocates before _check_memory: the
    # interior points' coordinates in every expansion that ``supports`` takes,
    # and the block flags of every row; refuse it before either is built
    available = available_memory_bytes()
    _refuse_unless_fits(
        8 * n_exp * colloc.n_interior * model.dim + n_rows * k * n_exp,
        available,
        "a %dx%d system" % (n_rows, model.n_columns),
        "the supports and block flags of its %d interior rows" % n_int,
    )

    # every stencil's point set (see _PointSet) and its right-hand side: the
    # interior, the boundary per stencil in collocation order, the interface,
    # and the pins, one-point Dirichlet conditions on one component
    tags = np.asarray(colloc.boundary_tags)
    values = problem.boundary_values(
        colloc.boundary_points, colloc.boundary_normals, colloc.boundary_tags
    )
    b = np.zeros(n_rows)
    sets = []

    def add_set(first, points, normals, stencil, data, signs):
        coeffs = [t.coeff_at(points, normals) for t in stencil.terms]
        sets.append(_PointSet(first, points, stencil, signs, coeffs))
        b[first : first + data.size] = data.ravel()

    interior = colloc.interior
    add_set(0, interior, None, problem.operator, problem.forcing_values(interior),
            model.supports(interior))
    start = n_int
    for st in problem.boundary:
        sel = np.flatnonzero(np.isin(tags, st.tags))
        pts = colloc.boundary_points[sel]
        add_set(start, pts, colloc.boundary_normals[sel], st, values[sel], model.supports(pts))
        start += len(sel) * k_b
    iface = colloc.interface
    signs = np.zeros((n_exp, len(iface)))
    signs[iface.pairs[:, 0], np.arange(len(iface))] = 1.0
    signs[iface.pairs[:, 1], np.arange(len(iface))] = -1.0
    add_set(start, iface.points, iface.normals, _interface_stencil(model), np.zeros(n_ifc), signs)
    start += n_ifc
    for j, (point, comp, value) in enumerate(pins):
        pin = Stencil((Term(0, comp, (0,) * model.dim, 1.0),), 1, k, model.dim)
        pts = np.asarray([point], float)
        add_set(start + j, pts, None, pin, np.asarray(value), model.supports(pts))

    # the column blocks each row touches: those of its terms' components at
    # the expansions with a nonzero sign at its point
    touched = np.zeros((n_rows, k, n_exp), bool)
    for s in sets:
        st = s.stencil
        acts = np.zeros((st.n_rows, k), bool)  # acts[row, comp]: a term of row acts on comp
        for t in st.terms:
            acts[t.row, t.comp] = True
        rows = slice(s.first, s.first + len(s.points) * st.n_rows)
        touched[rows] = (acts[None, :, :, None] & (s.signs != 0.0).T[:, None, None, :]).reshape(
            -1, k, n_exp
        )

    layout = _GroupFill(model, sets, touched)
    sizes = [(len(g.rows), g.width) for g in layout.groups]
    wide = [(rows, sum(c.stop - c.start for c in cols)) for cols, rows in layout.wide]
    _check_memory((n_rows, model.n_columns), sizes, wide, available)
    return WeightedSystem(
        layout=layout,
        rhs=b,
        model=model,
        problem=problem,
        n_interior_rows=n_int,
        n_boundary_rows=n_bnd,
        n_interface_rows=n_ifc,
        n_pin_rows=len(pins),
    )
