"""Domain membership, collocation sampling, and interface facets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfm.geometry import (
    Hole,
    axis_counts,
    box,
    build_collocation,
    cell_centres,
    disk,
    grid_patch_layout,
    grid_points,
    interval,
    sample_interface,
)
from rfm.problems import STOKES_HOLES


def test_interval_membership_includes_endpoints():
    dom = interval(0.0, 8.0)
    pts = np.array([[0.0], [4.0], [8.0], [-0.1], [8.1]])
    assert dom.contains(pts).tolist() == [True, True, True, False, False]
    assert dom.strictly_inside(pts).tolist() == [False, True, False, False, False]


def test_box_membership_and_holes():
    dom = box((0.0, 0.0), (1.0, 1.0), holes=(Hole((0.5, 0.5), 0.2),))
    pts = np.array([[0.5, 0.5], [0.5, 0.65], [0.5, 0.75], [0.25, 0.25], [1.5, 0.5]])
    assert dom.contains(pts).tolist() == [False, False, True, True, False]


def test_disk_membership():
    dom = disk((0.0, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [0.999, 0.0], [1.001, 0.0], [0.7, 0.7], [0.7, 0.71]])
    got = dom.contains(pts)
    assert got[0] and got[1] and not got[2] and got[3]
    # 0.7^2 + 0.71^2 = 0.9941 < 1 so the last point is inside too
    assert got[4]


def test_axis_counts_applies_one_entry_to_every_axis():
    assert axis_counts(3, 2, "interior") == (3, 3)
    assert axis_counts((3,), 2, "interior") == (3, 3)
    assert axis_counts(np.array([4, 5]), 2, "interior") == (4, 5)


@pytest.mark.parametrize(
    "counts,message",
    [
        ((3, 3, 99), r"'interior' needs 1 or 2 counts for a 2D domain"),
        ((), r"'interior' needs 1 or 2 counts"),
        ((3, -1), r"'interior' counts must be integers >= 0"),
        ((3, 2.5), r"'interior' counts must be integers >= 0"),
        ((True, 3), r"'interior' counts must be integers >= 0"),
    ],
)
def test_axis_counts_refuses_a_malformed_count(counts, message):
    with pytest.raises(ValueError, match=message):
        axis_counts(counts, 2, "interior")
    with pytest.raises(ValueError, match=message):
        box((0.0, 0.0), (1.0, 1.0)).sample_interior(counts)


def test_interior_sampling_is_cell_centered():
    dom = interval(0.0, 8.0)
    pts = dom.sample_interior(400)
    assert pts.shape == (400, 1)
    h = 8.0 / 400
    assert pts[0, 0] == pytest.approx(h / 2)
    assert pts[-1, 0] == pytest.approx(8.0 - h / 2)
    assert np.allclose(np.diff(pts[:, 0]), h)


def test_interior_sampling_excludes_holes():
    hole = Hole((0.5, 0.5), 0.25)
    dom = box((0.0, 0.0), (1.0, 1.0), holes=(hole,))
    pts = dom.sample_interior((20, 20))
    assert len(pts) < 400
    assert np.all(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) > 0.25)
    full = box((0.0, 0.0), (1.0, 1.0)).sample_interior((20, 20))
    assert len(full) == 400


def test_interior_sampling_disk_inside_circle():
    dom = disk((1.0, 2.0), 0.5)
    pts = dom.sample_interior((30, 30))
    r = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 2.0)
    assert len(pts) > 0 and np.all(r < 0.5)
    # area ratio of disk to bounding box is pi/4
    assert len(pts) == pytest.approx(900 * np.pi / 4, rel=0.05)


def test_boundary_sampling_interval():
    dom = interval(0.0, 8.0)
    pts, normals, tags = dom.sample_boundary({"left": 1, "right": 1})
    assert pts.shape == (2, 1)
    assert tags == ["left", "right"]
    assert normals[tags.index("left")][0] == -1.0
    assert normals[tags.index("right")][0] == 1.0


def test_boundary_sampling_box_counts_normals():
    dom = box((0.0, 0.0), (2.0, 1.0))
    counts = {"left": 3, "right": 3, "bottom": 5, "top": 5}
    pts, normals, tags = dom.sample_boundary(counts)
    assert len(pts) == 16
    for tag, want in (("left", (-1, 0)), ("right", (1, 0)), ("bottom", (0, -1)), ("top", (0, 1))):
        idx = [i for i, t in enumerate(tags) if t == tag]
        assert len(idx) == counts[tag]
        assert np.allclose(normals[idx], want)
    left = pts[[i for i, t in enumerate(tags) if t == "left"]]
    assert np.allclose(left[:, 0], 0.0)


def test_boundary_sampling_hole_normals_point_out_of_domain():
    hole = Hole((0.5, 0.5), 0.2)
    dom = box((0.0, 0.0), (1.0, 1.0), holes=(hole,))
    pts, normals, tags = dom.sample_boundary(
        {"left": 2, "right": 2, "bottom": 2, "top": 2, "hole0": 8}
    )
    idx = [i for i, t in enumerate(tags) if t == "hole0"]
    assert len(idx) == 8
    hp, hn = pts[idx], normals[idx]
    assert np.allclose(np.hypot(hp[:, 0] - 0.5, hp[:, 1] - 0.5), 0.2, atol=1e-12)
    # the domain's outward normal on a hole rim points toward the hole center
    radial = (np.array([0.5, 0.5]) - hp) / 0.2
    assert np.allclose(hn, radial, atol=1e-12)
    assert np.allclose(np.hypot(hn[:, 0], hn[:, 1]), 1.0, atol=1e-12)


def test_boundary_sampling_disk_normals_radial():
    dom = disk((0.0, 0.0), 2.0)
    pts, normals, tags = dom.sample_boundary({"circle": 16})
    assert len(pts) == 16 and set(tags) == {"circle"}
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 2.0, atol=1e-12)
    assert np.allclose(normals, pts / 2.0, atol=1e-12)


def test_boundary_sampling_unknown_tag_raises():
    dom = interval(0.0, 1.0)
    with pytest.raises((KeyError, ValueError)):
        dom.sample_boundary({"left": 1, "nope": 2})


def test_interval_ends_are_single_points():
    dom = interval(0.0, 8.0)
    with pytest.raises(ValueError, match=r"boundary 'left' of an interval is one point: .* 0 or 1, got 5"):
        dom.sample_boundary({"left": 5, "right": 1})
    with pytest.raises(ValueError, match=r"'interface_per_edge' must be 0 or 1 on a 1D domain"):
        sample_interface(dom, grid_patch_layout(dom, 4), per_edge=5)


def test_interface_1d_junction_points():
    dom = interval(0.0, 8.0)
    iface = sample_interface(dom, grid_patch_layout(dom, 4), per_edge=1)
    assert len(iface) == 3
    assert np.allclose(sorted(iface.points[:, 0]), [2.0, 4.0, 6.0])
    assert np.allclose(iface.normals, 1.0)
    for (m, n), p in zip(iface.pairs, iface.points[:, 0]):
        assert n == m + 1
        assert p == pytest.approx(2.0 * (m + 1))


def test_interface_2d_facets_and_hole_filtering():
    dom = box((0.0, 0.0), (1.0, 1.0))
    iface = sample_interface(dom, grid_patch_layout(dom, (2, 2)), per_edge=4)
    # 4 shared facets (2 vertical + 2 horizontal), 4 points each
    assert len(iface) == 16
    vertical = np.isclose(iface.points[:, 0], 0.5) & (iface.normals[:, 0] == 1.0)
    horizontal = np.isclose(iface.points[:, 1], 0.5) & (iface.normals[:, 1] == 1.0)
    assert vertical.sum() == 8 and horizontal.sum() == 8

    holed = box((0.0, 0.0), (1.0, 1.0), holes=(Hole((0.5, 0.5), 0.2),))
    filtered = sample_interface(holed, grid_patch_layout(holed, (2, 2)), per_edge=8)
    assert len(filtered) < 32
    assert np.all(np.hypot(*(filtered.points - 0.5).T) > 0.2)


def test_build_collocation_counts():
    dom = box((0.0, 0.0), (1.0, 1.0))
    colloc = build_collocation(
        dom,
        (10, 10),
        {"left": 5, "right": 5, "bottom": 5, "top": 5},
        (2, 2),
        interface_per_edge=3,
    )
    assert colloc.n_interior == 100
    assert colloc.n_boundary == 20
    assert colloc.n_interface == 12


def test_sampling_is_deterministic():
    dom = box((0.0, 0.0), (1.0, 1.0), holes=(Hole((0.5, 0.5), 0.1),))
    a = dom.sample_interior((13, 13))
    b = dom.sample_interior((13, 13))
    assert np.array_equal(a, b)
    pa, na, ta = dom.sample_boundary({"left": 3, "right": 3, "bottom": 3, "top": 3, "hole0": 9})
    pb, nb, tb = dom.sample_boundary({"left": 3, "right": 3, "bottom": 3, "top": 3, "hole0": 9})
    assert np.array_equal(pa, pb) and np.array_equal(na, nb) and ta == tb


# ----------------------------------------------------------------------
# properties of the segment table and of the patch grid's interfaces
# ----------------------------------------------------------------------


@st.composite
def domains(draw):
    """An interval, a disk, or a box with 0-2 holes, each hole in its own
    column of the box with a gap of at least 5 % of that column around it."""
    coord, size = st.floats(-5.0, 5.0), st.floats(0.5, 10.0)
    kind = draw(st.sampled_from(["interval", "disk", "box"]))
    if kind == "interval":
        a = draw(coord)
        return interval(a, a + draw(size))
    if kind == "disk":
        return disk((draw(coord), draw(coord)), draw(size) / 2)
    lo = np.array([draw(coord), draw(coord)])
    ext = np.array([draw(size), draw(size)])
    n = draw(st.integers(0, 2))
    holes = []
    for i in range(n):
        w = ext[0] / n
        fx, fy = draw(st.floats(0.3, 0.7)), draw(st.floats(0.3, 0.7))
        r = draw(st.floats(0.05, 0.25)) * min(w, ext[1])
        holes.append(Hole((lo[0] + (i + fx) * w, lo[1] + fy * ext[1]), r))
    return box(tuple(lo), tuple(lo + ext), holes)


@settings(max_examples=150, deadline=None, database=None)
@given(domains(), st.integers(0, 2**32 - 1))
def test_strictly_inside_implies_contains(dom, seed):
    lo, hi = dom.bounds
    pad = 0.1 * (hi - lo)
    pts = np.random.default_rng(seed).uniform(lo - pad, hi + pad, (200, dom.dim))
    pts = np.vstack([pts, dom.sample_boundary({t: 1 for t in dom.boundary_tags()})[0]])
    assert np.all(dom.contains(pts)[dom.strictly_inside(pts)])


@settings(max_examples=150, deadline=None, database=None)
@given(domains(), st.data())
def test_boundary_samples_lie_on_the_boundary_with_outward_normals(dom, data):
    top = 1 if dom.dim == 1 else 12
    counts = {t: data.draw(st.integers(1, top)) for t in dom.boundary_tags()}
    pts, normals, tags = dom.sample_boundary(counts)
    assert len(pts) == len(tags) == sum(counts.values())
    assert np.all(dom.contains(pts)) and not np.any(dom.strictly_inside(pts))
    lo, hi = dom.bounds
    step = 1e-6 * np.max(hi - lo) * normals
    assert not np.any(dom.contains(pts + step))
    assert np.all(dom.strictly_inside(pts - step))


@settings(max_examples=150, deadline=None, database=None)
@given(domains(), st.data())
def test_interface_pairs_are_grid_neighbours_on_their_shared_facet(dom, data):
    counts = tuple(data.draw(st.integers(1, 4)) for _ in range(dom.dim))
    per_edge = 1 if dom.dim == 1 else data.draw(st.integers(1, 5))
    grid = grid_patch_layout(dom, counts)
    iface = sample_interface(dom, grid, per_edge)
    for p, e, (m, n) in zip(iface.points, iface.normals, iface.pairs):
        axis = int(np.argmax(e))
        assert np.array_equal(e, np.eye(dom.dim)[axis])
        step = np.subtract(np.unravel_index(n, counts), np.unravel_index(m, counts))
        assert np.array_equal(step, np.eye(dom.dim, dtype=int)[axis])
        for k in (m, n):
            assert np.all(np.abs(p - grid.centers[k]) <= grid.radius * (1 + 1e-12))
        lower_hi = grid.centers[m, axis] + grid.radius[axis]
        upper_lo = grid.centers[n, axis] - grid.radius[axis]
        assert p[axis] == lower_hi and upper_lo == pytest.approx(lower_hi, abs=1e-12)
    assert np.all(dom.strictly_inside(iface.points))
    if not dom.holes and not dom.disk:
        facets = sum((c - 1) * np.prod(counts) // c for c in counts)
        assert len(iface) == per_edge * facets


@settings(max_examples=150, deadline=None, database=None)
@given(domains(), st.data())
def test_grid_patch_layout_is_the_per_cell_formula(dom, data):
    """Cell i on an axis is centered at lo + (2i + 1) r, clamped below at
    i = 0 and above at i = count - 1, cells in ``np.ndindex`` order."""
    counts = tuple(data.draw(st.integers(1, 6)) for _ in range(dom.dim))
    grid = grid_patch_layout(dom, counts)
    lo, hi = dom.bounds
    radius = (hi - lo) / (2.0 * np.asarray(counts, float))
    cells = list(np.ndindex(*counts))
    assert grid.counts == counts
    assert np.array_equal(grid.radius, radius)
    assert np.array_equal(grid.index, np.array(cells).reshape(-1, dom.dim))
    for n, idx in enumerate(cells):
        assert np.array_equal(grid.centers[n], lo + (2.0 * np.asarray(idx, float) + 1.0) * radius)
        assert grid.clamp_lo[n].tolist() == [i == 0 for i in idx]
        assert grid.clamp_hi[n].tolist() == [i == c - 1 for i, c in zip(idx, counts)]


def _facet_by_facet(domain, counts, per_edge):
    """The interface points, normals and pairs sampled one facet at a time:
    the reference that ``sample_interface`` must reproduce bit for bit."""
    dim = domain.dim
    lo_box, hi_box = domain.bounds
    radius = (hi_box - lo_box) / (2.0 * np.asarray(counts, float))
    cells = list(np.ndindex(*counts))
    pts, nrm, prs = [np.zeros((0, dim))], [np.zeros((0, dim))], [np.zeros((0, 2), dtype=int)]
    for axis in range(dim):
        step = int(np.prod(counts[axis + 1 :]))
        lower = sorted((idx[axis], m) for m, idx in enumerate(cells) if idx[axis] < counts[axis] - 1)
        for _, m in lower:
            center = lo_box + (2.0 * np.asarray(cells[m], float) + 1.0) * radius
            lo, hi = center - radius, center + radius
            axes = [[hi[a]] if a == axis else cell_centres(lo[a], hi[a], per_edge) for a in range(dim)]
            p = grid_points(axes)
            p = p[domain.strictly_inside(p)]
            pts.append(p)
            nrm.append(np.broadcast_to(np.eye(dim)[axis], p.shape))
            prs.append(np.broadcast_to([m, m + step], (len(p), 2)))
    return np.concatenate(pts), np.concatenate(nrm), np.concatenate(prs)


STOKES_DOMAIN = box((0.0, 0.0), (1.0, 1.0), holes=STOKES_HOLES)


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(domains(), st.just(STOKES_DOMAIN), st.just(disk((0.0, 0.0), 1.0))), st.data())
def test_sample_interface_equals_sampling_facet_by_facet(dom, data):
    counts = tuple(data.draw(st.integers(1, 6)) for _ in range(dom.dim))
    per_edge = 1 if dom.dim == 1 else data.draw(st.integers(1, 5))
    iface = sample_interface(dom, grid_patch_layout(dom, counts), per_edge)
    points, normals, pairs = _facet_by_facet(dom, counts, per_edge)
    assert np.array_equal(iface.points, points)
    assert np.array_equal(iface.normals, normals)
    assert np.array_equal(iface.pairs, pairs) and iface.pairs.dtype == pairs.dtype
