"""Manufactured solutions and PDE stencils: closed-form derivatives vs
finite differences, stencil self-consistency, and frozen spot values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfm.geometry import interval
from rfm.problems import (
    HomogenizationCoefficient,
    ManufacturedSolution,
    PdeProblem,
    Stencil,
    Term,
    beam_solution,
    four_tones_1d,
    make_beam_problem,
    make_channel_flow,
    make_helmholtz_1d,
    make_plate_problem,
    make_poisson_2d,
    make_stokes_manufactured,
    make_varcoef_elliptic,
    plate_solution,
    stokes_poly_solution,
    two_band_2d,
    wave_product_1d,
)

RNG = np.random.default_rng(99)

# fourth-order central difference weights for first and second derivatives
_D1 = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
_D2 = ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12))


def _fd_deriv(fun, pts, alpha, h):
    """Fourth-order finite difference of a scalar field for |alpha| <= 2."""
    dim = pts.shape[1]
    axes = [a for a in range(dim) for _ in range(alpha[a])]
    if len(axes) == 0:
        return fun(pts)
    if len(axes) == 1:
        e = np.zeros(dim)
        e[axes[0]] = h
        return sum(w * fun(pts + s * e) for s, w in _D1) / h
    if axes[0] == axes[1]:
        e = np.zeros(dim)
        e[axes[0]] = h
        return sum(w * fun(pts + s * e) for s, w in _D2) / h**2
    ex, ey = np.zeros(dim), np.zeros(dim)
    ex[axes[0]] = h
    ey[axes[1]] = h
    out = 0.0
    for sx, wx in _D1:
        for sy, wy in _D1:
            out = out + wx * wy * fun(pts + sx * ex + sy * ey)
    return out / h**2


def _all_alphas(dim, max_order=2):
    out = []
    for ax in np.ndindex(*(max_order + 1,) * dim):
        if 0 < sum(ax) <= max_order:
            out.append(tuple(int(a) for a in ax))
    return out


def _check_solution_derivs(exact, n_components, pts, h, scale_floor=1.0):
    for comp in range(n_components):
        fun = lambda q: exact.deriv(comp, q, (0,) * pts.shape[1])
        base = np.abs(fun(pts)).max()
        for alpha in _all_alphas(pts.shape[1]):
            got = exact.deriv(comp, pts, alpha)
            want = _fd_deriv(fun, pts, alpha, h)
            scale = max(np.abs(want).max(), base, scale_floor)
            assert np.abs(got - want).max() <= 1e-6 * scale, (comp, alpha)


# ----------------------------------------------------------------------
# manufactured solutions vs finite differences
# ----------------------------------------------------------------------


def test_wave_product_derivatives():
    pts = RNG.uniform(0.5, 7.5, size=(100, 1))
    _check_solution_derivs(wave_product_1d(), 1, pts, h=1e-3)


def test_four_tones_derivatives():
    pts = RNG.uniform(0.5, 7.5, size=(100, 1))
    _check_solution_derivs(four_tones_1d(), 1, pts, h=1e-3)


def test_two_band_derivatives():
    pts = RNG.uniform(0.1, 0.9, size=(100, 2))
    _check_solution_derivs(two_band_2d(0.5, 0.5), 1, pts, h=1e-4)


def test_beam_solution_derivatives():
    pts = np.column_stack([RNG.uniform(1, 9, 100), RNG.uniform(-4, 4, 100)])
    _check_solution_derivs(beam_solution(), 2, pts, h=1e-3, scale_floor=1e-6)


def test_plate_solution_derivatives():
    pts = np.column_stack([RNG.uniform(0.5, 7.5, 100), RNG.uniform(0.5, 7.5, 100)])
    _check_solution_derivs(plate_solution(), 2, pts, h=1e-4)


def test_stokes_solution_derivatives():
    pts = RNG.uniform(0.1, 0.9, size=(100, 2))
    _check_solution_derivs(stokes_poly_solution(), 3, pts, h=1e-4)


_COEFF = st.floats(-2.0, 2.0)


@st.composite
def _separable(draw):
    """A solution of the one separable form: bare monomials, c t^p cos(w t + phi)
    and c t^p exp(w t + phi) terms, summed per axis factor."""
    dim = draw(st.sampled_from([1, 2]))
    power, angle = st.integers(0, 3), st.floats(0.0, 2 * np.pi)
    term = st.one_of(
        st.tuples(_COEFF, power),
        st.tuples(_COEFF, power, angle, angle),
        st.tuples(_COEFF, power, st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.just("exp")),
    )
    factor = st.lists(term, min_size=1, max_size=3).map(tuple)
    parts = st.lists(st.tuples(_COEFF, st.tuples(*[factor] * dim)), min_size=1, max_size=3)
    return ManufacturedSolution(draw(st.lists(parts, min_size=1, max_size=3))), dim


@settings(max_examples=60, deadline=None, database=None)
@given(drawn=_separable())
def test_generic_solutions_match_finite_differences(drawn):
    exact, dim = drawn
    pts = np.random.default_rng(7).uniform(0.05, 0.95, size=(40, dim))
    _check_solution_derivs(exact, exact.n_components, pts, h=1e-3)


@pytest.mark.parametrize(
    "exact,dim,lo,hi",
    [
        (wave_product_1d(), 1, 0.5, 7.5),
        (two_band_2d(0.5, 0.5), 2, 0.1, 0.9),
        (beam_solution(), 2, 1.0, 4.0),
        (plate_solution(), 2, 0.5, 7.5),
        (stokes_poly_solution(), 2, 0.1, 0.9),
    ],
)
def test_third_derivatives_match_finite_differences_of_the_second(exact, dim, lo, hi):
    """No order cap: D^3 along an axis is the difference quotient of D^2."""
    pts = RNG.uniform(lo, hi, size=(50, dim))
    for comp in range(exact.n_components):
        for axis in range(dim):
            along = lambda order: tuple(order if a == axis else 0 for a in range(dim))
            second = lambda q: exact.deriv(comp, q, along(2))
            want = _fd_deriv(second, pts, along(1), h=1e-4)
            got = exact.deriv(comp, pts, along(3))
            scale = max(np.abs(want).max(), np.abs(second(pts)).max(), 1e-6)
            assert np.abs(got - want).max() <= 1e-6 * scale, (comp, axis)


# ----------------------------------------------------------------------
# frozen spot values
# ----------------------------------------------------------------------


def test_wave_product_left_boundary_value():
    u = wave_product_1d()
    want = np.sin(3 * np.pi * 0.0 + 3 * np.pi / 20) * np.cos(2 * np.pi * 0.0 + np.pi / 10) + 2.0
    assert u(np.array([[0.0]]))[0, 0] == pytest.approx(want, rel=1e-14)


def test_replaced_solutions_match_their_closed_forms():
    pts = np.array([[0.3, 0.7], [2.9, -3.1], [7.4, 4.6]])
    x, y = pts[:, 0], pts[:, 1]
    L, D, nu = 10.0, 10.0, 0.3
    c = 1000.0 / (6.0 * 3e7 * (D**3 / 12.0))
    beam = {
        0: -c * y * ((6 * L - 3 * x) * x + (2 + nu) * (y * y - D * D / 4)),
        1: c * (3 * nu * y * y * (L - x) + (4 + 5 * nu) * D * D * x / 4 + (3 * L - x) * x * x),
    }
    stokes = {
        0: x + x * x - 2 * x * y + x**3 - 3 * x * y * y + x * x * y,
        1: -y - 2 * x * y + y * y - 3 * x * x * y + y**3 - x * y * y,
        2: x * y + x + y + x**3 * y * y - 4.0 / 3.0,
    }
    plate = {
        0: 0.1 * y * ((x + 10) * np.sin(y) + (y + 5) * np.cos(x)),
        1: y * ((30 + 5 * x * np.sin(5 * x)) * (4 + np.exp(-5 * y)) - 100) / 60,
    }
    wave = np.sin(3 * np.pi * x + 3 * np.pi / 20) * np.cos(2 * np.pi * x + np.pi / 10) + 2.0
    # abs=0: the beam's displacements are ~1e-5, below approx's default absolute tolerance
    solutions = ((beam_solution(), beam), (stokes_poly_solution(), stokes), (plate_solution(), plate))
    for exact, want in solutions:
        for comp, value in want.items():
            assert exact.deriv(comp, pts, (0, 0)) == pytest.approx(value, rel=1e-14, abs=0)
    assert wave_product_1d()(pts[:, :1])[:, 0] == pytest.approx(wave, rel=1e-14, abs=0)


def test_two_band_corner_value():
    u = two_band_2d(1.0, 0.0)
    g0 = 1.5 * np.cos(2 * np.pi / 5) + 2.0 * np.cos(-np.pi / 5)
    assert u(np.array([[0.0, 0.0]]))[0, 0] == pytest.approx(-(g0**2), rel=1e-14)


def test_helmholtz_constant_solution_forcing():
    class Flat:
        n_components = 1

        def deriv(self, comp, pts, alpha):
            if sum(alpha) == 0:
                return np.full(len(pts), 2.0)
            return np.zeros(len(pts))

        def __call__(self, pts):
            return np.full((len(pts), 1), 2.0)

    prob = make_helmholtz_1d(lam=4.0, exact=Flat())
    pts = np.linspace(1, 7, 9)[:, None]
    f = prob.forcing_values(pts)
    assert np.allclose(f, -8.0)


def test_stokes_pressure_pin_value():
    prob = make_stokes_manufactured()
    (point, comp, value), = prob.extra_point_conditions
    assert np.allclose(point, (0.0, 0.0))
    assert comp == 2
    assert value == pytest.approx(-4.0 / 3.0, rel=1e-14)


# ----------------------------------------------------------------------
# stencil self-consistency
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory,sample_box",
    [
        (make_helmholtz_1d, ((0.5,), (7.5,))),
        (make_poisson_2d, ((0.1, 0.1), (0.9, 0.9))),
        (make_beam_problem, ((0.5, -4.5), (9.5, 4.5))),
        (make_plate_problem, ((0.1, 0.1), (1.2, 1.2))),
        (make_stokes_manufactured, ((0.05, 0.05), (0.15, 0.15))),
    ],
)
def test_forcing_matches_operator_applied_to_exact(factory, sample_box):
    prob = factory()
    lo, hi = np.asarray(sample_box[0]), np.asarray(sample_box[1])
    pts = lo + (hi - lo) * RNG.uniform(size=(200, len(lo)))
    forcing = prob.forcing_values(pts)
    applied = prob.operator.apply_to_exact(prob.exact, pts)
    scale = max(np.abs(forcing).max(), 1.0)
    assert np.abs(forcing - applied).max() <= 1e-9 * scale


def test_boundary_data_matches_stencil_applied_to_exact():
    prob = make_beam_problem()
    pts, normals, tags = prob.domain.sample_boundary(
        {"left": 7, "right": 7, "bottom": 7, "top": 7}
    )
    data = prob.boundary_values(pts, normals, tags)
    for tag in ("left", "right", "bottom", "top"):
        idx = [i for i, t in enumerate(tags) if t == tag]
        (stencil,) = [st for st in prob.boundary if tag in st.tags]
        want = stencil.apply_to_exact(prob.exact, pts[idx], normals[idx])
        got = np.array([data[i] for i in idx])
        scale = max(np.abs(want).max(), 1.0)
        assert np.abs(got - want).max() <= 1e-9 * scale


def test_stencil_order_limit_follows_its_tags():
    second = (Term(0, 0, (2,), 1.0),)
    assert Stencil(second, 1, 1, 1).tags == ()
    with pytest.raises(ValueError, match="boundary terms must have"):
        Stencil(second, 1, 1, 1, ("left",))
    with pytest.raises(ValueError, match="operator terms must have"):
        Stencil((Term(0, 0, (3,), 1.0),), 1, 1, 1)


def test_problem_rejects_a_tagged_operator_and_an_untagged_boundary_stencil():
    op = Stencil((Term(0, 0, (2,), 1.0),), 1, 1, 1)
    dirichlet = (Term(0, 0, (0,), 1.0),)
    bc = Stencil(dirichlet, 1, 1, 1, ("left", "right"))
    exact = wave_product_1d()
    PdeProblem("ok", interval(0.0, 1.0), op, (bc,), 1, exact=exact)
    tagged_op = Stencil((Term(0, 0, (1,), 1.0),), 1, 1, 1, ("left",))
    with pytest.raises(ValueError, match="operator must not carry"):
        PdeProblem("p", interval(0.0, 1.0), tagged_op, (bc,), 1, exact=exact)
    untagged = Stencil(dirichlet, 1, 1, 1)
    with pytest.raises(ValueError, match="must name its segment tags"):
        PdeProblem("p", interval(0.0, 1.0), op, (bc, untagged), 1, exact=exact)


def test_elasticity_rigid_translation_in_kernel():
    class Rigid:
        n_components = 2

        def deriv(self, comp, pts, alpha):
            if sum(alpha) == 0:
                return np.full(len(pts), 1.0 if comp == 0 else -2.0)
            return np.zeros(len(pts))

        def __call__(self, pts):
            out = np.ones((len(pts), 2))
            out[:, 1] = -2.0
            return out

    prob = make_beam_problem()
    pts = np.column_stack([RNG.uniform(1, 9, 50), RNG.uniform(-4, 4, 50)])
    applied = prob.operator.apply_to_exact(Rigid(), pts)
    assert np.abs(applied).max() == 0.0


def test_stokes_still_flow_in_kernel():
    class Still:
        n_components = 3

        def deriv(self, comp, pts, alpha):
            if comp == 2 and sum(alpha) == 0:
                return np.full(len(pts), 3.5)
            return np.zeros(len(pts))

        def __call__(self, pts):
            out = np.zeros((len(pts), 3))
            out[:, 2] = 3.5
            return out

    prob = make_stokes_manufactured()
    pts = RNG.uniform(0.05, 0.15, size=(50, 2))
    applied = prob.operator.apply_to_exact(Still(), pts)
    assert np.abs(applied).max() == 0.0


def test_beam_problem_tags_cover_all_edges():
    prob = make_beam_problem()
    covered = set()
    for stencil in prob.boundary:
        covered.update(stencil.tags)
    assert covered == set(prob.domain.boundary_tags())


# ----------------------------------------------------------------------
# variable-coefficient field
# ----------------------------------------------------------------------


def test_coefficient_field_is_seed_deterministic():
    a1 = HomogenizationCoefficient(seed=1, bound=2)
    a2 = HomogenizationCoefficient(seed=1, bound=2)
    a3 = HomogenizationCoefficient(seed=2, bound=2)
    pts = RNG.uniform(-0.5, 0.5, size=(40, 2))
    assert np.array_equal(a1.value(pts), a2.value(pts))
    assert not np.array_equal(a1.value(pts), a3.value(pts))


def test_coefficient_field_positive_and_contrast():
    a = HomogenizationCoefficient(seed=1, bound=2)
    pts = RNG.uniform(-0.7, 0.7, size=(2000, 2))
    vals = a.value(pts)
    assert np.all(vals > 0)
    assert vals.max() / vals.min() > 2.0


def test_coefficient_gradient_matches_finite_differences():
    a = HomogenizationCoefficient(seed=3, bound=2)
    pts = RNG.uniform(-0.6, 0.6, size=(100, 2))
    h = 1e-5
    value, got = a.value_and_grad(pts)
    assert np.array_equal(value, a.value(pts))
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (a.value(pts + e) - a.value(pts - e)) / (2 * h)
        scale = max(np.abs(fd).max(), 1.0)
        assert np.abs(got[:, axis] - fd).max() <= 1e-6 * scale


def test_varcoef_flat_field_reduces_to_poisson():
    flat = HomogenizationCoefficient(seed=0, bound=2, amp=0.0)
    prob = make_varcoef_elliptic(flat, forcing_value=1.0)
    pts = RNG.uniform(-0.5, 0.5, size=(50, 2))

    class Quad:
        n_components = 1

        def deriv(self, comp, pts, alpha):
            x, y = pts[:, 0], pts[:, 1]
            table = {
                (0, 0): x**2 + 3 * y**2,
                (1, 0): 2 * x,
                (0, 1): 6 * y,
                (2, 0): np.full(len(pts), 2.0),
                (0, 2): np.full(len(pts), 6.0),
            }
            return table.get(tuple(alpha), np.zeros(len(pts)))

    applied = prob.operator.apply_to_exact(Quad(), pts)
    # -div(1 * grad u) = -(2 + 6) = -8
    assert np.allclose(applied, -8.0, atol=1e-12)


def test_varcoef_forcing_is_constant():
    a = HomogenizationCoefficient(seed=1, bound=2)
    prob = make_varcoef_elliptic(a, forcing_value=1.0)
    pts = RNG.uniform(-0.5, 0.5, size=(20, 2))
    assert np.allclose(prob.forcing_values(pts), 1.0)
    assert prob.exact is None


def test_channel_flow_profile_and_pin():
    prob = make_channel_flow()
    pts, normals, tags = prob.domain.sample_boundary(
        {t: 6 for t in prob.domain.boundary_tags()}
    )
    data = prob.boundary_values(pts, normals, tags)
    for i, (p, t) in enumerate(zip(pts, tags)):
        if t in ("left", "right"):
            want = p[1] * (1.0 - p[1])
            assert data[i][0] == pytest.approx(want, abs=1e-14)
            assert data[i][1] == 0.0
        elif t.startswith("hole") or t in ("bottom", "top"):
            assert np.allclose(data[i], 0.0)
    assert prob.extra_point_conditions[0][2] == 0.0
