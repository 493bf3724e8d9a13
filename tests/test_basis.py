"""Feature/partition-of-unity evaluation: frozen values, finite-difference
oracles, partition-of-unity identities, and sampling determinism."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rfm import basis
from rfm.basis import (
    FeatureSampler,
    Patch,
    activation_eval,
    build_model,
    feature_block,
    grid_patch_layout,
    pou_eval,
    sample_features,
    select_rm_from_forcing,
)
from rfm.geometry import box, interval

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
    assert pou_eval("b", np.array([0.0]), 0)[0] == pytest.approx(1.0)
    assert pou_eval("b", np.array([-1.0]), 0)[0] == pytest.approx(0.5)
    assert pou_eval("b", np.array([1.0]), 1)[0] == pytest.approx(-np.pi)


def test_pou_a_is_half_open_indicator():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 0.999, 1.0, 1.5])
    got = pou_eval("a", x, 0)
    assert got.tolist() == [1, 1, 1, 1, 1, 0, 0]
    # a clamped right edge keeps the endpoint inside
    got_hi = pou_eval("a", x, 0, clamp_hi=True)
    assert got_hi.tolist() == [1, 1, 1, 1, 1, 1, 0]


def test_pou_b_is_c1_at_transition_junctions():
    # one-sided limits taken 1e-14 away so the smooth branch's own slope
    # contributes ~2e-13 at most
    for node in (-1.25, -0.75, 0.75, 1.25):
        left = np.array([node - 1e-14])
        right = np.array([node + 1e-14])
        for order in (0, 1):
            jump = abs(pou_eval("b", left, order)[0] - pou_eval("b", right, order)[0])
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
    assert model.support_mask(n, x[None])[0]

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
    assert model.support_mask(0, edge)[0] == False  # noqa: E712
    assert model.support_mask(1, edge)[0] == True  # noqa: E712
    # the domain's right endpoint stays in the last patch
    end = np.array([[8.0]])
    assert model.support_mask(3, end)[0] == True  # noqa: E712
    # also where its normalized coordinate rounds to just above 1
    model = build_model(interval(0.82, 1.12), 1, 5, sampler, pou="a")
    assert model.patches[0].normalize(np.array([[1.12]]))[0, 0] > 1.0
    assert model.support_mask(0, np.array([[1.12]]))[0] == True  # noqa: E712


@st.composite
def _pou_grids(draw):
    """A patch grid of either kind over a random 1D or 2D box, and points of
    the closed box: arbitrary ones plus patch edges, centers and kind-"b"
    transition nodes (multiples of an eighth of a patch width)."""
    dim = draw(st.sampled_from([1, 2]))
    lo = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(dim)])
    hi = lo + np.array([draw(st.floats(0.1, 10.0)) for _ in range(dim)])
    counts = tuple(draw(st.integers(1, 5)) for _ in range(dim))
    pou = draw(st.sampled_from(["a", "b"]))
    dom = interval(lo[0], hi[0]) if dim == 1 else box(tuple(lo), tuple(hi))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(dom, counts if dim > 1 else counts[0], 2, sampler, pou=pou)
    axis_fractions = [
        st.one_of(st.floats(0.0, 1.0), st.integers(0, 8 * c).map(lambda i, c=c: i / (8 * c)))
        for c in counts
    ]
    fractions = draw(st.lists(st.tuples(*axis_fractions), min_size=1, max_size=20))
    pts = np.clip(lo + np.asarray(fractions) * (hi - lo), lo, hi)
    return model, pts


@settings(max_examples=200, deadline=None, database=None)
@given(grid=_pou_grids())
def test_support_mask_covers_pou_derivatives_and_weights_sum_to_one(grid):
    model, pts = grid
    alphas = [a for a in np.ndindex(*(3,) * model.dim) if sum(a) <= 2]
    total = np.zeros(len(pts))
    for n in range(len(model.patches)):
        total += model.pou_weight(n, pts)
        outside = ~model.support_mask(n, pts)
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


# ----------------------------------------------------------------------
# model layout
# ----------------------------------------------------------------------


def test_grid_patch_layout_centers_and_radii():
    dom = box((0.0, 0.0), (8.0, 8.0))
    layout = grid_patch_layout(dom, (2, 2))
    centers = [entry[0] for entry in layout]
    radii = [entry[1] for entry in layout]
    assert np.allclose(radii, 2.0)
    want = {(2.0, 2.0), (2.0, 6.0), (6.0, 2.0), (6.0, 6.0)}
    assert {tuple(c) for c in centers} == want
    # clamps mark the outward-facing sides of edge patches
    first = layout[0]
    assert first[2].tolist() == [True, True] and first[3].tolist() == [False, False]
    last = layout[-1]
    assert last[2].tolist() == [False, False] and last[3].tolist() == [True, True]


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
            mask = model.support_mask(n, pts)
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
