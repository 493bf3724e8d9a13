"""Domains, collocation grids, and interface sampling.

Supported geometries: intervals, axis-aligned boxes with optional circular
holes, and disks.  A domain is its table of boundary segments
(``Domain.segments``): each has a tag, a signed distance that is positive
inside, and a sampler.  The boundary tags, membership and boundary sampling
all read that table.  Collocation points are cell-centered grids
(``cell_centres``, ``grid_points``): in the interior, on each box side, and
on the shared facets of the patch grid (``grid_patch_layout``), whose index
neighbours glue the local expansions together.  An interval end and a 1D
patch facet are single points, so their counts are 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, NamedTuple

import numpy as np

# Points closer than this to a boundary are treated as lying on it.
BOUNDARY_TOL = 1e-12


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


def axis_counts(counts, dim: int, name: str) -> tuple[int, ...]:
    """Per-axis counts on a ``dim``-dimensional domain: a scalar or one entry
    applies to every axis and ``dim`` entries are used as given; any other
    length, or an entry that is not an integer >= 0 (a bool is not), raises
    ValueError naming ``name``."""
    counts = (counts,) if np.isscalar(counts) else tuple(counts)
    counts = counts * dim if len(counts) == 1 else counts
    if len(counts) != dim:
        raise ValueError("%r needs 1 or %d counts for a %dD domain, got %r" % (name, dim, dim, list(counts)))
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 0 for c in counts):
        raise ValueError("%r counts must be integers >= 0, got %r" % (name, list(counts)))
    return tuple(map(int, counts))


def cell_centres(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of ``n`` equal cells tiling [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def grid_points(axes) -> np.ndarray:
    """Tensor grid of per-axis coordinates as (points, axes), first axis
    varying slowest."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])


class Segment(NamedTuple):
    """One piece of a domain's boundary."""

    tag: str
    # signed distance of (points, axes) to the segment, positive inside
    distance: Callable[[np.ndarray], np.ndarray]
    # count -> (points, outward normals)
    sample: Callable[[int], tuple[np.ndarray, np.ndarray]]


def _side(lo: np.ndarray, hi: np.ndarray, axis: int, upper: bool) -> Segment:
    """The lower or upper side of the box [lo, hi] across ``axis``, sampled
    cell-centered along the other axes; in 1D it is one end point."""
    dim = len(lo)
    tag = (("left", "right"), ("bottom", "top"))[axis][upper]
    at, sign = (hi[axis], 1.0) if upper else (lo[axis], -1.0)
    normal = np.zeros(dim)
    normal[axis] = sign

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        axes = [[at] if a == axis else cell_centres(lo[a], hi[a], count) for a in range(dim)]
        pts = grid_points(axes)
        return pts, np.broadcast_to(normal, pts.shape)

    return Segment(tag, lambda x: sign * (at - x[:, axis]), sample)


def _circle(tag: str, center, radius: float, sign: float) -> Segment:
    """A circle that bounds the domain from outside (``sign`` +1, a disk) or
    from inside (``sign`` -1, a hole), sampled uniformly in angle from angle
    0; the normals point out of the domain."""
    center = np.asarray(center, float)

    def sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        th = 2.0 * np.pi * np.arange(count) / count
        radial = np.column_stack([np.cos(th), np.sin(th)])
        return center + radius * radial, sign * radial

    return Segment(tag, lambda x: sign * (radius - np.hypot(*(x - center).T)), sample)


@dataclass(frozen=True)
class Hole:
    """Circular exclusion inside a 2D box domain."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("hole radius must be positive")


@dataclass(frozen=True)
class Domain:
    """Interval (d=1), box with optional circular holes, or disk (d=2).

    ``lo``/``hi`` bound the domain; for a disk they bound the enclosing
    square and the domain is the inscribed circle.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    holes: tuple[Hole, ...] = ()
    disk: bool = False

    def __post_init__(self) -> None:
        lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size not in (1, 2):
            raise ValueError("domain must be 1D or 2D with matching bounds")
        if np.any(hi <= lo):
            raise ValueError("upper bounds must exceed lower bounds")
        if self.holes and (self.dim != 2 or self.disk):
            raise ValueError("holes are only supported in 2D box domains")
        if self.disk:
            if self.dim != 2:
                raise ValueError("disk domains are 2D")
            if not np.isclose(hi[0] - lo[0], hi[1] - lo[1]):
                raise ValueError("disk bounding box must be square")
        for h in self.holes:
            c = np.asarray(h.center, float)
            if np.any(c - h.radius <= lo) or np.any(c + h.radius >= hi):
                raise ValueError("hole %s is not strictly inside the box" % (h,))
        for i, a in enumerate(self.holes):
            for b in self.holes[i + 1 :]:
                gap = np.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
                if gap < a.radius + b.radius:
                    raise ValueError("holes overlap: %s and %s" % (a, b))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, float), np.asarray(self.hi, float)

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """The boundary: a disk's circle, or the box sides (an interval's two
        ends; left, right, bottom, top) and then the holes."""
        lo, hi = self.bounds
        if self.disk:
            return (_circle("circle", 0.5 * (lo + hi), 0.5 * float(hi[0] - lo[0]), 1.0),)
        sides = [_side(lo, hi, axis, upper) for axis in range(self.dim) for upper in (False, True)]
        holes = [_circle("hole%d" % i, h.center, h.radius, -1.0) for i, h in enumerate(self.holes)]
        return tuple(sides + holes)

    def boundary_tags(self) -> tuple[str, ...]:
        return tuple(s.tag for s in self.segments)

    def _depth(self, points: np.ndarray) -> np.ndarray:
        """The least signed distance of each point to a segment."""
        pts = np.atleast_2d(np.asarray(points, float))
        return np.min([s.distance(pts) for s in self.segments], axis=0)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for points in the closed domain, within ``BOUNDARY_TOL`` of it."""
        return self._depth(points) >= -BOUNDARY_TOL

    def strictly_inside(self, points: np.ndarray) -> np.ndarray:
        """True for points in the open interior, more than ``BOUNDARY_TOL``
        from the boundary."""
        return self._depth(points) > BOUNDARY_TOL

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample_interior(self, counts: int | tuple[int, ...]) -> np.ndarray:
        """Cell-centered uniform grid over the bounding box, holes excluded.

        Returned points are ordered lexicographically by axis (first axis
        varies slowest) so runs are reproducible.  ``counts`` follows
        ``axis_counts``.
        """
        counts = axis_counts(counts, self.dim, "interior")
        lo, hi = self.bounds
        pts = grid_points([cell_centres(lo[a], hi[a], c) for a, c in enumerate(counts)])
        return pts[self.strictly_inside(pts)]

    def sampling_bytes(self, counts: int | tuple[int, ...], boundary_counts: dict[str, int]) -> int:
        """A lower bound on the peak bytes of ``sample_interior(counts)`` and
        ``sample_boundary(boundary_counts)``, computed without sampling.

        The interior's meshgrid and its stacked copy hold every grid point
        at once, before the points outside the domain are dropped; the
        boundary's pieces, their concatenation and the concatenated normals
        coexist.  The interior points kept while the boundary is sampled are
        not counted, since holes drop a share that only sampling tells.
        """
        grid = prod(axis_counts(counts, self.dim, "interior"))
        tags = self.boundary_tags()
        edge = sum(c for t, c in boundary_counts.items() if t in tags)
        return 8 * self.dim * max(2 * grid, 3 * edge)

    def check_boundary_counts(self, counts: dict[str, int]) -> None:
        """Refuse a tag of ``counts`` that names no boundary segment, or a
        count above 1 on an interval end, which is one point."""
        tags = self.boundary_tags()
        unknown = [t for t in counts if t not in tags]
        if unknown:
            raise ValueError(
                "unknown boundary tags in 'boundary': %s (the domain's: %s)"
                % (", ".join(map(repr, unknown)), ", ".join(map(repr, tags)))
            )
        over = [(t, c) for t, c in counts.items() if c > 1] if self.dim == 1 else []
        if over:
            raise ValueError(
                "boundary %r of an interval is one point: its count must be 0 or 1, got %d" % over[0]
            )

    def check_every_segment(self, tags) -> None:
        """Refuse a boundary segment that ``tags`` leaves out, which would
        get no collocation rows."""
        missing = [t for t in self.boundary_tags() if t not in tags]
        if missing:
            raise ValueError("boundary segments %s have no collocation points" % missing)

    def facet_points(self, per_edge: int) -> int:
        """Points on one shared facet of a patch grid over the domain, with
        ``per_edge`` along each of its axes.  A 1D facet is one point, so
        there ``per_edge`` must be 0 or 1."""
        if self.dim == 1 and per_edge > 1:
            raise ValueError(
                "'interface_per_edge' must be 0 or 1 on a 1D domain, whose patch facets "
                "are points, got %d" % per_edge
            )
        return per_edge ** (self.dim - 1)

    def sample_boundary(
        self, counts: dict[str, int]
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Uniform points on each requested boundary segment, in the order of
        ``segments``.

        ``counts`` maps segment tags to point counts, which
        ``check_boundary_counts`` checks first.  Box edges are sampled
        cell-centered in arc length (no corner duplicates); an interval end
        is one point, so its count is 0 or 1; circles are sampled uniformly
        in angle starting at angle 0.  Normals point out of the domain, which
        on a hole means toward the hole center.
        """
        self.check_boundary_counts(counts)
        pieces = [(s.tag, *s.sample(counts[s.tag])) for s in self.segments if counts.get(s.tag, 0)]
        if not pieces:
            return np.zeros((0, self.dim)), np.zeros((0, self.dim)), []
        tags = [tag for tag, p, _ in pieces for _ in p]
        return np.concatenate([p for _, p, _ in pieces]), np.concatenate([n for *_, n in pieces]), tags


def interval(a: float, b: float) -> Domain:
    return Domain(lo=(a,), hi=(b,))


def box(
    lo: tuple[float, float],
    hi: tuple[float, float],
    holes: tuple[Hole, ...] | list[Hole] = (),
) -> Domain:
    return Domain(lo=tuple(lo), hi=tuple(hi), holes=tuple(holes))


def disk(center: tuple[float, float], radius: float) -> Domain:
    cx, cy = center
    return Domain(lo=(cx - radius, cy - radius), hi=(cx + radius, cy + radius), disk=True)


# ----------------------------------------------------------------------
# the patch grid and its interfaces
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """A regular grid of patches over a domain's bounding box, one row per
    cell, cells in grid order (first axis slowest).

    Cell n sits at ``index[n]`` on the grid's ``counts``, centered at
    ``centers[n]`` with the grid's common ``radius``; ``clamp_lo[n]`` and
    ``clamp_hi[n]`` flag its sides that face the domain boundary, where its
    index is 0 or the count - 1.
    """

    counts: tuple[int, ...]
    index: np.ndarray  # (cells, axes)
    centers: np.ndarray  # (cells, axes)
    radius: np.ndarray  # (axes,)
    clamp_lo: np.ndarray  # (cells, axes)
    clamp_hi: np.ndarray  # (cells, axes)


def grid_patch_layout(domain: Domain, counts: int | tuple[int, ...]) -> PatchGrid:
    """The regular patch grid over the bounding box: cell i on an axis is
    centered at ``lo + (2i + 1) r``.  ``counts`` follows ``axis_counts``, and
    every axis needs at least one patch."""
    counts = axis_counts(counts, domain.dim, "patch_counts")
    if 0 in counts:
        raise ValueError("'patch_counts' must be >= 1 on every axis, got %r" % (list(counts),))
    lo, hi = domain.bounds
    radius = (hi - lo) / (2.0 * np.asarray(counts, float))
    index = np.indices(counts).reshape(len(counts), -1).T.copy()
    centers = lo + (2.0 * index + 1.0) * radius
    return PatchGrid(counts, index, centers, radius, index == 0, index == np.subtract(counts, 1))


@dataclass
class InterfaceSet:
    """Points on the shared facets of a patch grid.

    ``pairs[i] = (m, n)`` are the indices of the two patches meeting at
    ``points[i]``; ``normals[i]`` is the facet normal pointing from patch
    ``m`` into patch ``n`` (the positive-axis direction).
    """

    points: np.ndarray
    normals: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def sample_interface(domain: Domain, grid: PatchGrid, per_edge: int) -> InterfaceSet:
    """Sample the shared facets of the patch grid ``grid`` over ``domain``.

    Patches m and n that are index neighbours along an axis share the facet
    at ``center + radius`` of the lower patch m on that axis.  It gets
    ``per_edge`` points cell-centered along the other axes; in 1D the facet
    is one point, so ``per_edge`` must be 0 or 1 (``Domain.facet_points``).
    Facets come axis by axis, and on each axis by the lower patch's index on
    that axis, then by its patch index.  Points outside the domain interior
    (inside a hole, outside a disk) are dropped.
    """
    dim = domain.dim
    per_facet = domain.facet_points(per_edge)
    pts, nrm, prs = [], [], []
    for axis in range(dim):
        lower = np.flatnonzero(~grid.clamp_hi[:, axis])
        m = lower[np.argsort(grid.index[lower, axis], kind="stable")]
        lo, hi = grid.centers[m] - grid.radius, grid.centers[m] + grid.radius
        p = np.empty((len(m), per_facet, dim))
        p[..., axis] = hi[:, axis, None]
        if dim == 2:  # cell-centered along the facet
            p[..., 1 - axis] = cell_centres(lo[:, 1 - axis, None], hi[:, 1 - axis, None], per_edge)
        p = p.reshape(-1, dim)
        keep = domain.strictly_inside(p)
        pts.append(p[keep])
        nrm.append(np.broadcast_to(np.eye(dim)[axis], pts[-1].shape))
        pairs = np.column_stack([m, m + prod(grid.counts[axis + 1 :])])
        prs.append(np.repeat(pairs, per_facet, axis=0)[keep])
    return InterfaceSet(np.concatenate(pts), np.concatenate(nrm), np.concatenate(prs))


def interface_bytes(domain: Domain, patch_counts: int | tuple[int, ...], per_edge: int) -> int:
    """A lower bound on the peak bytes of the interface points that
    ``build_collocation`` samples, ``per_edge`` to a facet of the patch grid
    of ``patch_counts``, computed without sampling.

    ``sample_interface`` holds every point on one axis's facets at once, and
    ``strictly_inside`` takes one distance array per boundary segment and
    their stacked copy beside them.  The points kept from earlier axes are
    not counted, since holes drop a share that only sampling tells.
    """
    if per_edge == 0:
        return 0
    counts = axis_counts(patch_counts, domain.dim, "patch_counts")
    facets = max(prod(c - (b == a) for b, c in enumerate(counts)) for a in range(domain.dim))
    return 8 * facets * domain.facet_points(per_edge) * (domain.dim + 2 * len(domain.segments))


# ----------------------------------------------------------------------
# collocation bundles
# ----------------------------------------------------------------------


@dataclass
class CollocationSet:
    """All point sets one assembly pass consumes."""

    interior: np.ndarray
    boundary_points: np.ndarray
    boundary_normals: np.ndarray
    boundary_tags: list[str]
    interface: InterfaceSet

    @property
    def n_interior(self) -> int:
        return len(self.interior)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_points)

    @property
    def n_interface(self) -> int:
        return len(self.interface.points)


def build_collocation(
    domain: Domain,
    interior_counts: int | tuple[int, ...],
    boundary_counts: dict[str, int],
    patch_counts: int | tuple[int, ...] | None = None,
    interface_per_edge: int = 0,
) -> CollocationSet:
    """Sample interior and boundary points, and, given the patch grid's
    ``patch_counts`` and ``interface_per_edge > 0``, the interface points
    on its shared facets (``sample_interface``)."""
    interior = domain.sample_interior(interior_counts)
    bp, bn, bt = domain.sample_boundary(boundary_counts)
    if patch_counts is not None and interface_per_edge > 0:
        iface = sample_interface(domain, grid_patch_layout(domain, patch_counts), interface_per_edge)
    else:
        d = domain.dim
        iface = InterfaceSet(np.zeros((0, d)), np.zeros((0, d)), np.zeros((0, 2), dtype=int))
    return CollocationSet(interior, bp, bn, bt, iface)
