"""Domains, collocation grids, and interface sampling.

Supported geometries: intervals, axis-aligned boxes with optional circular
holes, and disks.  Collocation points are cell-centered uniform grids in the
interior, uniformly spaced points on each boundary segment, and uniformly
spaced points along shared facets of a box partition (used to glue local
expansions together).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

# Points closer than this to a boundary are treated as lying on it.
BOUNDARY_TOL = 1e-12


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


@dataclass(frozen=True)
class Hole:
    """Circular exclusion inside a 2D box domain."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("hole radius must be positive")

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the circle, negative inside the hole."""
        d = np.hypot(points[:, 0] - self.center[0], points[:, 1] - self.center[1])
        return d - self.radius


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

    @property
    def disk_center(self) -> np.ndarray:
        lo, hi = self.bounds
        return 0.5 * (lo + hi)

    @property
    def disk_radius(self) -> float:
        lo, hi = self.bounds
        return 0.5 * float(hi[0] - lo[0])

    def boundary_tags(self) -> tuple[str, ...]:
        if self.dim == 1:
            return ("left", "right")
        if self.disk:
            return ("circle",)
        tags = ["left", "right", "bottom", "top"]
        tags += ["hole%d" % i for i in range(len(self.holes))]
        return tuple(tags)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """True for points in the closed domain, within ``BOUNDARY_TOL`` of it."""
        tol = BOUNDARY_TOL
        pts = np.atleast_2d(np.asarray(points, float))
        lo, hi = self.bounds
        inside = np.all(pts >= lo - tol, axis=1) & np.all(pts <= hi + tol, axis=1)
        if self.disk:
            r = np.hypot(*(pts - self.disk_center).T)
            inside &= r <= self.disk_radius + tol
        for h in self.holes:
            inside &= h.signed_distance(pts) >= -tol
        return inside

    def strictly_inside(self, points: np.ndarray) -> np.ndarray:
        """True for points in the open interior, more than ``BOUNDARY_TOL``
        from the boundary."""
        tol = BOUNDARY_TOL
        pts = np.atleast_2d(np.asarray(points, float))
        lo, hi = self.bounds
        inside = np.all(pts > lo + tol, axis=1) & np.all(pts < hi - tol, axis=1)
        if self.disk:
            r = np.hypot(*(pts - self.disk_center).T)
            inside &= r < self.disk_radius - tol
        for h in self.holes:
            inside &= h.signed_distance(pts) > tol
        return inside

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
        axes = [
            lo[a] + (hi[a] - lo[a]) * (np.arange(c) + 0.5) / c
            for a, c in enumerate(counts)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
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
        edge = sum(min(c, 1) if self.dim == 1 else c for t, c in boundary_counts.items() if t in tags)
        return 8 * self.dim * max(2 * grid, 3 * edge)

    def sample_boundary(
        self, counts: dict[str, int]
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Uniform points on each requested boundary segment.

        ``counts`` maps segment tags to point counts.  Box edges are sampled
        cell-centered in arc length (no corner duplicates); circles uniformly
        in angle starting at angle 0.  Normals point out of the domain, which
        on a hole means toward the hole center.
        """
        valid = set(self.boundary_tags())
        unknown = set(counts) - valid
        if unknown:
            raise ValueError("unknown boundary tags: %s" % sorted(unknown))
        lo, hi = self.bounds
        points, normals, tags = [], [], []

        def emit(p: np.ndarray, n: np.ndarray, tag: str) -> None:
            points.append(p)
            normals.append(np.broadcast_to(n, p.shape) if n.ndim == 1 else n)
            tags.extend([tag] * len(p))

        if self.dim == 1:
            if counts.get("left", 0):
                emit(np.array([[lo[0]]]), np.array([-1.0]), "left")
            if counts.get("right", 0):
                emit(np.array([[hi[0]]]), np.array([1.0]), "right")
        elif self.disk:
            c = counts.get("circle", 0)
            if c:
                th = 2.0 * np.pi * np.arange(c) / c
                ctr, rad = self.disk_center, self.disk_radius
                nrm = np.column_stack([np.cos(th), np.sin(th)])
                emit(ctr + rad * nrm, nrm, "circle")
        else:
            edges = {
                "left": (0, lo[0], np.array([-1.0, 0.0])),
                "right": (0, hi[0], np.array([1.0, 0.0])),
                "bottom": (1, lo[1], np.array([0.0, -1.0])),
                "top": (1, hi[1], np.array([0.0, 1.0])),
            }
            for tag in ("left", "right", "bottom", "top"):
                c = counts.get(tag, 0)
                if not c:
                    continue
                axis, val, nrm = edges[tag]
                other = 1 - axis
                t = lo[other] + (hi[other] - lo[other]) * (np.arange(c) + 0.5) / c
                p = np.empty((c, 2))
                p[:, axis] = val
                p[:, other] = t
                emit(p, nrm, tag)
            for i, h in enumerate(self.holes):
                tag = "hole%d" % i
                c = counts.get(tag, 0)
                if not c:
                    continue
                th = 2.0 * np.pi * np.arange(c) / c
                radial = np.column_stack([np.cos(th), np.sin(th)])
                p = np.asarray(h.center, float) + h.radius * radial
                emit(p, -radial, tag)

        if not points:
            return np.zeros((0, self.dim)), np.zeros((0, self.dim)), []
        return np.concatenate(points), np.concatenate(normals).reshape(-1, self.dim), tags


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
# interfaces between patch boxes
# ----------------------------------------------------------------------


@dataclass
class InterfaceSet:
    """Points on shared facets of a box partition.

    ``pairs[i] = (m, n)`` are the indices of the two patches meeting at
    ``points[i]``; ``normals[i]`` is the facet normal pointing from patch
    ``m`` into patch ``n`` (the positive-axis direction).
    """

    points: np.ndarray
    normals: np.ndarray
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def sample_interface(
    domain: Domain,
    boxes: list[tuple[np.ndarray, np.ndarray]],
    per_edge: int,
) -> InterfaceSet:
    """Sample shared facets between adjacent patch boxes.

    1D partitions get the single junction point of each adjacent pair; 2D
    partitions get ``per_edge`` points cell-centered along each shared edge.
    Boxes meet where their bounds agree to ``BOUNDARY_TOL``.  Points falling
    outside the domain interior (inside a hole, outside a disk) are dropped.
    """
    tol = BOUNDARY_TOL
    dim = domain.dim
    pts, nrm, prs = [], [], []
    facets = []
    for m in range(len(boxes)):
        for n in range(len(boxes)):
            if m == n:
                continue
            lo_m, hi_m = boxes[m]
            lo_n, hi_n = boxes[n]
            for axis in range(dim):
                if abs(hi_m[axis] - lo_n[axis]) > tol:
                    continue
                if dim == 1:
                    facets.append((axis, hi_m[axis], 0.0, 0.0, m, n))
                    continue
                other = 1 - axis
                a = max(lo_m[other], lo_n[other])
                b = min(hi_m[other], hi_n[other])
                if b - a > tol:
                    facets.append((axis, hi_m[axis], a, b, m, n))
    facets.sort(key=lambda f: (f[0], f[1], f[2], f[4], f[5]))
    for axis, coord, a, b, m, n in facets:
        if dim == 1:
            p = np.array([[coord]])
        else:
            if per_edge < 1:
                continue
            t = a + (b - a) * (np.arange(per_edge) + 0.5) / per_edge
            p = np.empty((per_edge, 2))
            p[:, axis] = coord
            p[:, 1 - axis] = t
        p = p[domain.strictly_inside(p)]
        if not len(p):
            continue
        e = np.zeros(dim)
        e[axis] = 1.0
        pts.append(p)
        nrm.append(np.broadcast_to(e, p.shape))
        prs.append(np.broadcast_to(np.array([m, n]), (len(p), 2)))
    if not pts:
        return InterfaceSet(
            np.zeros((0, dim)), np.zeros((0, dim)), np.zeros((0, 2), dtype=int)
        )
    return InterfaceSet(np.concatenate(pts), np.concatenate(nrm), np.concatenate(prs))


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
    boxes: list[tuple[np.ndarray, np.ndarray]] | None = None,
    interface_per_edge: int = 0,
) -> CollocationSet:
    """Sample interior, boundary, and (optionally) interface points."""
    interior = domain.sample_interior(interior_counts)
    bp, bn, bt = domain.sample_boundary(boundary_counts)
    if boxes is not None and interface_per_edge > 0:
        iface = sample_interface(domain, boxes, interface_per_edge)
    else:
        d = domain.dim
        iface = InterfaceSet(np.zeros((0, d)), np.zeros((0, d)), np.zeros((0, 2), dtype=int))
    return CollocationSet(interior, bp, bn, bt, iface)
