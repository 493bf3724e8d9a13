"""Feature/partition-of-unity evaluation: frozen values, finite-difference
oracles, partition-of-unity identities, and sampling determinism."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfm import basis
from rfm.basis import (
    FeatureSampler,
    Patch,
    RfmModel,
    activation_eval,
    build_model,
    dominant_frequencies,
    feature_block,
    pou_eval,
    sample_features,
    select_rm_from_forcing,
)
from rfm.geometry import box, grid_patch_layout, interval

RNG = np.random.default_rng(1234)


def _patch(center, radius, k, b, activation="sin"):
    center = np.atleast_1d(np.asarray(center, float))
    radius = np.atleast_1d(np.asarray(radius, float))
    k = np.asarray(k, float)
    if k.ndim == 1:
        k = k[None, None, :]  # one component, one feature
    b = np.asarray(b, float)
    if b.ndim == 0:
        b = b[None, None]
    return Patch(center=center, radius=radius, k=k, b=b, activation=activation)


# ----------------------------------------------------------------------
# frozen single values
# ----------------------------------------------------------------------


def test_pou_b_frozen_values():
    assert pou_eval(np.array([0.0]), 0)[0] == pytest.approx(1.0)
    assert pou_eval(np.array([-1.0]), 0)[0] == pytest.approx(0.5)
    assert pou_eval(np.array([1.0]), 1)[0] == pytest.approx(-np.pi)


def test_pou_a_is_half_open_indicator():
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(interval(0.0, 4.0), 2, 5, sampler, pou="a")
    # the left patch's lower edge, its inside, its facet with the right
    # patch, the clamped domain end, and a point past the end
    x = np.array([[0.0], [1.999], [2.0], [4.0], [4.5]])
    held = model.supports(x)
    assert held.tolist() == [
        [True, True, False, False, False],
        [False, False, True, True, False],
    ]


def test_pou_b_is_c1_at_transition_junctions():
    # one-sided limits taken 1e-14 away so the smooth branch's own slope
    # contributes ~2e-13 at most
    for node in (-1.25, -0.75, 0.75, 1.25):
        left = np.array([node - 1e-14])
        right = np.array([node + 1e-14])
        for order in (0, 1):
            jump = abs(pou_eval(left, order)[0] - pou_eval(right, order)[0])
            assert jump < 1e-12


def test_feature_frozen_values():
    p = _patch([0.0], [1.0], [0.0], 0.0, activation="tanh")
    assert feature_block(p, 0, np.array([[0.3]]), [(0,)])[(0,)][0, 0] == 0.0

    p = _patch([0.0], [1.0], [1.0], 0.0, activation="sin")
    assert feature_block(p, 0, np.array([[0.0]]), [(1,)])[(1,)][0, 0] == pytest.approx(1.0)

    p = _patch([0.0], [1.0], [2.0], 0.0, activation="tanh")
    assert feature_block(p, 0, np.array([[0.0]]), [(2,)])[(2,)][0, 0] == pytest.approx(0.0)

    p = _patch([4.0], [4.0], [2.0], 0.0, activation="sin")
    got = feature_block(p, 0, np.array([[6.0]]), [(2,)])[(2,)][0, 0]
    assert got == pytest.approx(-((2.0 / 4.0) ** 2) * np.sin(1.0), rel=1e-12)


# ----------------------------------------------------------------------
# finite-difference oracles
# ----------------------------------------------------------------------


def test_activation_derivatives_match_finite_differences():
    h = 1e-5
    for name in ("tanh", "sin", "cos"):
        z = RNG.uniform(-3, 3, size=100)
        for order in (1, 2):
            lower = activation_eval(name, z - h, order - 1)
            upper = activation_eval(name, z + h, order - 1)
            fd = (upper - lower) / (2 * h)
            got = activation_eval(name, z, order)
            scale = np.abs(fd).max()
            assert np.abs(got - fd).max() <= 1e-6 * max(scale, 1.0), name


# the multi-indices of each derivative order in 2D
ALPHAS_2D = {0: [(0, 0)], 1: [(1, 0), (0, 1)], 2: [(2, 0), (1, 1), (0, 2)]}


def _activation_reference(name, z, order):
    """One derivative order of an activation, evaluating it afresh."""
    if name == "tanh":
        t = np.tanh(z)
        return (t, 1.0 - t * t, -2.0 * t * (1.0 - t * t))[order]
    return {"sin": (np.sin, np.cos, lambda z: -np.sin(z)),
            "cos": (np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z))}[name][order](z)


@pytest.mark.parametrize("activation", ["tanh", "sin", "cos"])
@pytest.mark.parametrize(
    "orders", [s for n in (1, 2, 3) for s in itertools.combinations((0, 1, 2), n)]
)
def test_feature_block_equals_the_per_order_activation_products(activation, orders):
    """Sharing one activation evaluation across orders changes no bit
    against evaluating it once per order."""
    radius = np.array([1.5, 0.75])
    p = Patch(
        center=np.array([0.5, -0.25]),
        radius=radius,
        k=RNG.uniform(-3, 3, size=(1, 40, 2)),
        b=RNG.uniform(-3, 3, size=(1, 40)),
        activation=activation,
    )
    pts = np.column_stack([RNG.uniform(-1.0, 2.0, 300), RNG.uniform(-1.0, 0.5, 300)])
    alphas = [a for o in orders for a in ALPHAS_2D[o]]
    got = feature_block(p, 0, pts, alphas)
    k = p.k[0]
    z = p.normalize(pts) @ k.T + p.b[0]
    s = [_activation_reference(activation, z, o) for o in range(3)]
    want = {
        (0, 0): s[0],
        (1, 0): s[1] * (k[:, 0] / radius[0]),
        (0, 1): s[1] * (k[:, 1] / radius[1]),
        (2, 0): s[2] * (k[:, 0] * k[:, 0] / (radius[0] * radius[0])),
        (1, 1): s[2] * (k[:, 0] * k[:, 1] / (radius[0] * radius[1])),
        (0, 2): s[2] * (k[:, 1] * k[:, 1] / (radius[1] * radius[1])),
    }
    for o in orders:
        assert np.array_equal(activation_eval(activation, z, o), s[o]), o
    assert sorted(got) == sorted(alphas)
    for a in alphas:
        assert np.array_equal(got[a], want[a]), a


@pytest.mark.parametrize(
    "k_shape,b_shape", [((40, 2), (40,)), ((40,), (1, 40))], ids=["2d-k", "1d-k"]
)
def test_patch_refuses_feature_arrays_that_are_not_per_component(k_shape, b_shape):
    """k must be (K, J, d) and b (K, J): a 2-D k is not taken as one component."""
    with pytest.raises(ValueError, match="inconsistent shapes"):
        Patch(center=np.zeros(2), radius=np.ones(2), k=np.zeros(k_shape), b=np.zeros(b_shape))


def test_feature_derivatives_match_finite_differences_2d():
    h = 1e-5
    for activation in ("tanh", "sin", "cos"):
        k = RNG.uniform(-2, 2, size=(1, 1, 2))
        p = Patch(
            center=np.array([0.5, -0.25]),
            radius=np.array([1.5, 0.75]),
            k=k,
            b=np.array([[0.3]]),
            activation=activation,
        )
        pts = np.column_stack(
            [RNG.uniform(-1.0, 2.0, 100), RNG.uniform(-1.0, 0.5, 100)]
        )

        def val(q):
            return feature_block(p, 0, q, [(0, 0)])[(0, 0)][:, 0]

        for axis, alpha in ((0, (1, 0)), (1, (0, 1))):
            e = np.zeros(2)
            e[axis] = h
            fd = (val(pts + e) - val(pts - e)) / (2 * h)
            got = feature_block(p, 0, pts, [alpha])[alpha][:, 0]
            assert np.abs(got - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)

        # second derivatives: finite differences of the analytic gradient
        for alpha, axis, base in (
            ((2, 0), 0, (1, 0)),
            ((0, 2), 1, (0, 1)),
            ((1, 1), 1, (1, 0)),
        ):
            e = np.zeros(2)
            e[axis] = h
            g = lambda q: feature_block(p, 0, q, [base])[base][:, 0]
            fd = (g(pts + e) - g(pts - e)) / (2 * h)
            got = feature_block(p, 0, pts, [alpha])[alpha][:, 0]
            assert np.abs(got - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


# Where each kind's PoU factor is not smooth, in normalized patch coordinates:
# the kind-"a" facets and the kind-"b" transition junctions.
POU_BREAKS = {"a": (-1.0, 1.0), "b": (-1.25, -0.75, 0.75, 1.25)}


@settings(max_examples=80, deadline=None, database=None)
@given(
    pou=st.sampled_from(["a", "b"]),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_basis_block_derivatives_match_central_differences_of_its_values(pou, dim, seed, data):
    """Every |alpha| <= 2 block, the mixed (1, 1) included, against central
    differences of the value block at a point inside the patch's support and
    clear of the PoU's breaks (kind "b" exercises the product rule)."""
    dom = interval(0.0, 3.0) if dim == 1 else box((0.0, 0.0), (3.0, 2.0))
    sampler = FeatureSampler(rm=2.0, mode="uniform_random", seed=seed)
    model = build_model(dom, 3 if dim == 1 else (3, 2), 6, sampler, pou=pou)
    n = data.draw(st.integers(0, len(model.patches) - 1), label="patch")
    p = model.patches[n]
    reach = 0.98 if pou == "a" else 1.23
    xt = np.array([data.draw(st.floats(-reach, reach), label="xt") for _ in range(dim)])
    assume(all(abs(u - c) > 0.02 for u in xt for c in POU_BREAKS[pou]))
    x = p.center + p.radius * xt
    assert model.supports(x[None])[n, 0]

    zero = (0,) * dim
    h = 5e-4 * p.radius
    unit = np.eye(dim)

    def value(shift):
        """The value block at x + shift * h, shift in steps per axis."""
        return model.basis_block(n, 0, (x + shift * h)[None], [zero])[zero][0]

    alphas = [a for a in np.ndindex(*(3,) * dim) if sum(a) <= 2]
    got = model.basis_block(n, 0, x[None], alphas)
    for a in alphas:
        axes = [ax for ax in range(dim) for _ in range(a[ax])]
        if not axes:
            fd = value(np.zeros(dim))
        elif len(axes) == 1:
            e = unit[axes[0]]
            fd = (value(e) - value(-e)) / (2 * h[axes[0]])
        elif axes[0] == axes[1]:
            e = unit[axes[0]]
            fd = (value(e) - 2 * value(np.zeros(dim)) + value(-e)) / h[axes[0]] ** 2
        else:
            e, f = unit[axes[0]], unit[axes[1]]
            fd = (value(e + f) - value(e - f) - value(f - e) + value(-e - f)) / (4 * h[0] * h[1])
        scale = 1.0 + np.abs(got[a]).max()
        assert np.abs(got[a][0] - fd).max() <= 1e-4 * scale, a


def test_model_eval_matches_finite_differences_pou_b():
    dom = interval(0.0, 8.0)
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=7)
    model = build_model(dom, 4, 30, sampler, pou="b", activation="tanh")
    coef = RNG.standard_normal(model.n_columns)
    pts = RNG.uniform(0.3, 7.7, size=(100, 1))
    h = 1e-5
    fd1 = (model.eval(coef, pts + h) - model.eval(coef, pts - h)) / (2 * h)
    got1 = model.eval(coef, pts, (1,))
    assert np.abs(got1 - fd1).max() <= 1e-6 * max(np.abs(fd1).max(), 1.0)
    fd2 = (model.eval(coef, pts + h, (1,)) - model.eval(coef, pts - h, (1,))) / (2 * h)
    got2 = model.eval(coef, pts, (2,))
    assert np.abs(got2 - fd2).max() <= 1e-6 * max(np.abs(fd2).max(), 1.0)


def test_model_eval_is_linear_in_coefficients():
    dom = box((0.0, 0.0), (1.0, 1.0))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=3)
    model = build_model(dom, (2, 2), 20, sampler, pou="b", global_features=10)
    a = RNG.standard_normal(model.n_columns)
    b = RNG.standard_normal(model.n_columns)
    pts = RNG.uniform(0.0, 1.0, size=(50, 2))
    lhs = model.eval(2.0 * a - 3.0 * b, pts)
    rhs = 2.0 * model.eval(a, pts) - 3.0 * model.eval(b, pts)
    scale = np.abs(rhs).max()
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(scale, 1.0)


# ----------------------------------------------------------------------
# partition-of-unity identities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pou", ["a", "b"])
def test_pou_sums_to_one_1d(pou):
    dom = interval(0.0, 8.0)
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(dom, 8, 5, sampler, pou=pou)
    pts = np.random.default_rng(5).uniform(0.0, 8.0, size=(10_000, 1))
    total = np.zeros(len(pts))
    for n in range(len(model.patches)):
        total += model.pou_weight(n, pts)
    assert np.abs(total - 1.0).max() < 1e-12


@pytest.mark.parametrize("pou", ["a", "b"])
def test_pou_sums_to_one_2d(pou):
    dom = box((0.0, 0.0), (2.0, 1.0))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(dom, (4, 2), 5, sampler, pou=pou)
    rng = np.random.default_rng(6)
    pts = np.column_stack([rng.uniform(0, 2, 10_000), rng.uniform(0, 1, 10_000)])
    total = np.zeros(len(pts))
    for n in range(len(model.patches)):
        total += model.pou_weight(n, pts)
    assert np.abs(total - 1.0).max() < 1e-12


def test_pou_a_support_is_half_open_tiling():
    dom = interval(0.0, 8.0)
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(dom, 4, 5, sampler, pou="a")
    # patch edges at 2, 4, 6: each interior edge belongs to the right patch
    edge = np.array([[2.0]])
    assert model.supports(edge)[0, 0] == False  # noqa: E712
    assert model.supports(edge)[1, 0] == True  # noqa: E712
    # the domain's right endpoint stays in the last patch
    end = np.array([[8.0]])
    assert model.supports(end)[3, 0] == True  # noqa: E712
    # also where its normalized coordinate rounds to just above 1
    model = build_model(interval(0.82, 1.12), 1, 5, sampler, pou="a")
    assert model.patches[0].normalize(np.array([[1.12]]))[0, 0] > 1.0
    assert model.supports(np.array([[1.12]]))[0, 0] == True  # noqa: E712


@st.composite
def _pou_grids(draw):
    """A patch grid of either kind, with or without a global patch, over a
    random 1D or 2D box, and points of the closed box: arbitrary ones plus
    patch edges, centers and kind-"b" transition nodes (multiples of an
    eighth of a patch width)."""
    dim = draw(st.sampled_from([1, 2]))
    lo = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(dim)])
    hi = lo + np.array([draw(st.floats(0.1, 10.0)) for _ in range(dim)])
    counts = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    pou = draw(st.sampled_from(["a", "b"]))
    global_features = draw(st.sampled_from([0, 2]))
    dom = interval(lo[0], hi[0]) if dim == 1 else box(tuple(lo), tuple(hi))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(
        dom, counts if dim > 1 else counts[0], 2, sampler, pou=pou, global_features=global_features
    )
    axis_fractions = [
        st.one_of(st.floats(0.0, 1.0), st.integers(0, 8 * c).map(lambda i, c=c: i / (8 * c)))
        for c in counts
    ]
    fractions = draw(st.lists(st.tuples(*axis_fractions), min_size=1, max_size=20))
    pts = np.clip(lo + np.asarray(fractions) * (hi - lo), lo, hi)
    return model, pts


@settings(max_examples=200, deadline=None, database=None)
@given(grid=_pou_grids())
def test_supports_cover_pou_derivatives_and_weights_sum_to_one(grid):
    model, pts = grid
    held = model.supports(pts)
    assert held.shape == (len(model.expansions), len(pts))
    if model.global_patch is not None:
        assert held[-1].all()
    if model.pou == "a":
        assert np.all(held[: len(model.patches)].sum(axis=0) == 1)
    alphas = [a for a in np.ndindex(*(3,) * model.dim) if sum(a) <= 2]
    total = np.zeros(len(pts))
    for n in range(len(model.patches)):
        total += model.pou_weight(n, pts)
        outside = ~held[n]
        for alpha in alphas:
            assert np.all(model.pou_weight(n, pts[outside], alpha) == 0.0)
    assert np.abs(total - 1.0).max() < 1e-12


# ----------------------------------------------------------------------
# feature sampling
# ----------------------------------------------------------------------


def test_sample_features_uniform_bounds_and_determinism():
    s = FeatureSampler(rm=2.5, mode="uniform_random", seed=11)
    k1, b1 = sample_features(s, 2, 200, stream=(3, 0))
    k2, b2 = sample_features(s, 2, 200, stream=(3, 0))
    assert np.array_equal(k1, k2) and np.array_equal(b1, b2)
    assert np.abs(k1).max() <= 2.5 and np.abs(b1).max() <= 2.5
    k3, _ = sample_features(s, 2, 200, stream=(4, 0))
    assert not np.array_equal(k1, k3)
    k4, _ = sample_features(s, 2, 200, stream=(3, 1))
    assert not np.array_equal(k1, k4)
    s2 = FeatureSampler(rm=2.5, mode="uniform_random", seed=12)
    k5, _ = sample_features(s2, 2, 200, stream=(3, 0))
    assert not np.array_equal(k1, k5)


def test_sample_features_grid_1d_is_full_factorial():
    s = FeatureSampler(rm=1.0, mode="equispaced_grid", seed=0)
    k, b = sample_features(s, 1, 100, stream=(0, 0))
    vals = -1.0 + 2.0 * np.arange(1, 11) / 10.0
    got = sorted(set(np.round(k.ravel(), 12)))
    assert np.allclose(got, np.round(vals, 12))
    pairs = {(round(ki, 12), round(bi, 12)) for ki, bi in zip(k.ravel(), b.ravel())}
    assert len(pairs) == 100


def test_sample_features_grid_2d_factorial():
    s = FeatureSampler(rm=2.0, mode="equispaced_grid", seed=0)
    k, b = sample_features(s, 2, 1000, stream=(0, 0))
    assert k.shape == (1000, 2) and b.shape == (1000,)
    triples = {
        (round(k[i, 0], 12), round(k[i, 1], 12), round(b[i], 12)) for i in range(1000)
    }
    assert len(triples) == 1000


def test_sample_features_grid_rejects_non_factorial_count():
    s = FeatureSampler(rm=1.0, mode="equispaced_grid", seed=0)
    with pytest.raises(ValueError):
        sample_features(s, 1, 90, stream=(0, 0))


# ----------------------------------------------------------------------
# frequency-guided rm
# ----------------------------------------------------------------------


def test_select_rm_single_tone():
    xs = np.linspace(0.0, 8.0, 2049)
    fs = np.sin(4.0 * xs)
    assert select_rm_from_forcing(xs, fs, radius=1.0) == pytest.approx(4.0, rel=0.02)
    assert select_rm_from_forcing(xs, fs, radius=2.0) == pytest.approx(8.0, rel=0.02)


def test_select_rm_zero_forcing_defaults_to_one():
    xs = np.linspace(0.0, 8.0, 512)
    assert select_rm_from_forcing(xs, np.zeros_like(xs), radius=3.0) == 1.0


def test_select_rm_picks_highest_significant_tone():
    xs = np.linspace(0.0, 8.0, 4097)
    fs = 5.0 * np.sin(1.0 * xs) + 0.01 * np.sin(16.0 * xs)
    got = select_rm_from_forcing(xs, fs, radius=1.0)
    assert got == pytest.approx(16.0, rel=0.02)


@settings(max_examples=60, deadline=None, database=None)
@given(
    tones=st.lists(
        st.tuples(
            st.floats(1.0, 60.0),  # angular frequency
            st.floats(0.1, 2.0),  # amplitude
            st.floats(0.0, 2.0 * np.pi),  # phase
        ),
        min_size=1,
        max_size=4,
    )
)
def test_dominant_frequencies_recovers_every_tone_of_a_sum(tones):
    freqs = sorted(w for w, _, _ in tones)
    assume(np.all(np.diff(freqs) >= 0.1))  # tones closer than this are one
    xs = np.linspace(0.0, 8.0, 2049)
    fs = sum(a * np.sin(w * xs + phase) for w, a, phase in tones)
    got = np.array([w for w, _ in dominant_frequencies(xs, fs)])
    for w in freqs:
        assert np.min(np.abs(got - w)) <= 1e-6 * w


def test_dominant_frequencies_never_takes_the_svd_of_the_wide_hankel_matrix(monkeypatch):
    """The 500x1550 Hankel matrix of 2049 samples reaches the SVD only through
    its 500x500 triangular factor."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    xs = np.linspace(0.0, 8.0, 2049)
    tones = dominant_frequencies(xs, np.sin(4.0 * xs) + 0.5 * np.cos(9.0 * xs))
    assert [round(w, 9) for w, _ in tones] == [4.0, 9.0]
    assert shapes and all(shape[-1] <= 500 for shape in shapes)


# ----------------------------------------------------------------------
# model layout
# ----------------------------------------------------------------------


def test_grid_patch_layout_centers_and_radii():
    dom = box((0.0, 0.0), (8.0, 8.0))
    grid = grid_patch_layout(dom, (2, 2))
    assert np.allclose(grid.radius, 2.0)
    assert grid.centers.tolist() == [[2.0, 2.0], [2.0, 6.0], [6.0, 2.0], [6.0, 6.0]]
    assert grid.index.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    # clamps mark the outward-facing sides of edge patches
    assert grid.clamp_lo[0].tolist() == [True, True] and grid.clamp_hi[0].tolist() == [False, False]
    assert grid.clamp_lo[-1].tolist() == [False, False] and grid.clamp_hi[-1].tolist() == [True, True]


def test_grid_patch_layout_refuses_more_counts_than_axes():
    with pytest.raises(ValueError, match=r"'patch_counts' needs 1 or 2 counts"):
        grid_patch_layout(box((0.0, 0.0), (8.0, 8.0)), (2, 2, 2))


@pytest.mark.parametrize("domain,counts", [(interval(0.0, 8.0), 0), (box((0.0, 0.0), (8.0, 8.0)), (2, 0))])
def test_build_model_refuses_a_zero_patch_count_before_dividing(domain, counts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"'patch_counts' must be >= 1 on every axis"):
            build_model(domain, counts, 10, FeatureSampler(1.0))


def test_model_refuses_a_draw_list_that_is_not_one_draw_per_grid_cell():
    draw = (np.zeros((1, 3, 2)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="3 feature draws for a grid of 4 patches"):
        RfmModel(box((0.0, 0.0), (8.0, 8.0)), (2, 2), [draw] * 3, pou="a")


def test_build_model_column_layout_and_global_patch():
    dom = box((0.0, 0.0), (10.0, 10.0))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=1)
    model = build_model(
        dom, (2, 2), 160, sampler, n_components=2, global_features=160
    )
    assert model.n_features == 800
    assert model.n_columns == 1600
    s = model.col_slice(1, 0)
    assert s.start == 800 and s.stop == 960
    assert model.expansions == model.patches + [model.global_patch]
    g = model.col_slice(0, len(model.patches))
    assert g.start == 640 and g.stop == 800
    gp = model.global_patch
    assert np.allclose(gp.center, (5.0, 5.0)) and np.allclose(gp.radius, (5.0, 5.0))


def test_model_eval_single_unit_coefficient_matches_basis_block():
    dom = interval(0.0, 4.0)
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=2)
    model = build_model(dom, 2, 10, sampler, pou="b")
    coef = np.zeros(model.n_columns)
    coef[13] = 1.0
    pts = np.linspace(0.0, 4.0, 37)[:, None]
    block = model.basis_block(1, 0, pts, [(0,)])[(0,)]  # patch 1 holds cols 10..19
    want = block[:, 3]
    got = model.eval(coef, pts)[:, 0]
    assert np.allclose(got, want, atol=1e-14)


def _eval_one_alpha_unchunked(model, coef, pts, alpha):
    """The per-multi-index evaluation loop over all points at once, as reference."""
    out = np.zeros((len(pts), model.n_components))
    for comp in range(model.n_components):
        for n in range(len(model.patches)):
            mask = model.supports(pts)[n]
            if mask.any():
                block = model.basis_block(n, comp, pts[mask], [alpha])[alpha]
                out[mask, comp] += block @ coef[model.col_slice(comp, n)]
        if model.global_patch is not None:
            block = feature_block(model.global_patch, comp, pts, [alpha])[alpha]
            out[:, comp] += block @ coef[model.col_slice(comp, len(model.patches))]
    return out


@pytest.mark.parametrize("pou", ["a", "b"])
def test_eval_many_matches_per_alpha_loop_across_chunks(pou, monkeypatch):
    monkeypatch.setattr(basis, "EVAL_CHUNK", 7)  # 50 points: 7 full chunks and a partial one
    dom = box((0.0, 0.0), (1.0, 1.0))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=5)
    model = build_model(dom, (2, 2), 20, sampler, pou=pou, n_components=2, global_features=10)
    coef = RNG.standard_normal(model.n_columns)
    pts = RNG.uniform(0.0, 1.0, size=(50, 2))
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    got = model.eval_many(coef, pts, alphas)
    assert set(got) == set(alphas)
    for alpha in alphas:
        want = _eval_one_alpha_unchunked(model, coef, pts, alpha)
        assert np.abs(got[alpha] - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(model.eval(coef, pts, alpha), got[alpha])


def test_eval_on_a_lone_last_point_matches_one_pass(monkeypatch):
    """A grid of EVAL_CHUNK + 1 points gives the bits of a single pass: its
    last point is not evaluated on its own (a matrix-vector product, which
    rounds differently), on a solve whose coefficients reach 1e11."""
    from rfm.assembly import assemble
    from rfm.evaluation import evaluation_grid
    from rfm.experiments import build_run, load_suite
    from rfm.solver import solve_system

    config = load_suite("helmholtz-pou")[0]
    problem, model, colloc = build_run(config)
    coef, _ = solve_system(assemble(problem, model, colloc).rescale(config.rescale_scale), None)
    assert np.linalg.norm(coef) > 1e11
    pts = evaluation_grid(problem.domain, (basis.EVAL_CHUNK + 1,))
    chunked = model.eval(coef, pts)
    monkeypatch.setattr(basis, "EVAL_CHUNK", 2 * basis.EVAL_CHUNK)
    assert np.array_equal(chunked, model.eval(coef, pts))
