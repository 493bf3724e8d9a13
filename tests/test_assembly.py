"""System assembly: frozen row values, row ordering, the row-group layout,
rescaling invariants, interface structure, memory, and the dump/load round
trip."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from given_blocks import given_system
from rfm import assembly, basis
from rfm.assembly import RowGroup, assemble, load_system_dump, row_weights, scaled_norm
from rfm.basis import FeatureSampler, RfmModel, build_model, feature_block
from rfm.blas import gelsd_workspace
from rfm.experiments import build_run, load_suite, suite_config
from rfm.geometry import CollocationSet, InterfaceSet, build_collocation, interval
from rfm.problems import (
    HomogenizationCoefficient,
    PdeProblem,
    Stencil,
    Term,
    make_beam_problem,
    make_helmholtz_1d,
    make_poisson_2d,
    make_stokes_manufactured,
)
from rfm.solver import solve_system

RNG = np.random.default_rng(41)


def _single_feature_setup(k=2.0, b=0.0, activation="sin"):
    """One patch covering [0,8] with one hand-picked feature."""
    problem = make_helmholtz_1d(lam=4.0)
    draw = (np.array([[[k]]]), np.array([[b]]))
    model = RfmModel(interval(0.0, 8.0), 1, [draw], pou="a", activation=activation)
    colloc = CollocationSet(
        interior=np.array([[6.0]]),
        boundary_points=np.array([[0.0], [8.0]]),
        boundary_normals=np.array([[-1.0], [1.0]]),
        boundary_tags=["left", "right"],
        interface=InterfaceSet(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros((0, 2), dtype=int)),
    )
    return problem, model, colloc


def test_frozen_interior_row_value():
    problem, model, colloc = _single_feature_setup()
    system = assemble(problem, model, colloc)
    # operator row at x=6 (normalized coordinate 0.5, feature phase 1):
    # second-derivative term -(2/4)^2 sin(1) plus the -4 u term
    want = -0.25 * np.sin(1.0) - 4.0 * np.sin(1.0)
    assert system.matrix[0, 0] == pytest.approx(want, rel=1e-14)
    # boundary rows are plain feature values at the endpoints
    assert system.matrix[1, 0] == pytest.approx(np.sin(-2.0), rel=1e-14)
    assert system.matrix[2, 0] == pytest.approx(np.sin(2.0), rel=1e-14)


def test_rhs_carries_forcing_and_boundary_data():
    problem, model, colloc = _single_feature_setup()
    system = assemble(problem, model, colloc)
    assert system.rhs[0] == pytest.approx(problem.forcing_values(np.array([[6.0]]))[0, 0])
    exact = problem.exact(np.array([[0.0], [8.0]]))[:, 0]
    assert system.rhs[1] == pytest.approx(exact[0])
    assert system.rhs[2] == pytest.approx(exact[1])


def test_row_ordering_and_meta_kinds():
    problem = make_helmholtz_1d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(interval(0.0, 8.0), 4, 25, sampler, pou="a")
    colloc = build_collocation(
        interval(0.0, 8.0), 40, {"left": 1, "right": 1}, 4, 1
    )
    system = assemble(problem, model, colloc)
    assert system.n_interior_rows == 40
    assert system.n_boundary_rows == 2
    assert system.n_interface_rows == 6
    assert system.n_pin_rows == 0
    assert system.shape == (48, 100)
    # interior rows preserve collocation order, which runs left to right
    xs = colloc.interior[:, 0]
    assert xs.tolist() == sorted(xs)
    assert np.array_equal(system.rhs[:40], problem.forcing_values(colloc.interior)[:, 0])
    # boundary rows follow, then interface rows with a zero right-hand side
    assert np.array_equal(system.rhs[40:42], problem.exact(colloc.boundary_points)[:, 0])
    assert np.all(system.rhs[42:] == 0.0)


def _interface_setup(dim):
    """A kind-"a" model with a global patch and its collocation set with
    interface points: 1D Helmholtz on two patches, or the 2D two-component
    beam on a 2x2 grid, whose facets are normal to x and to y."""
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=5)
    if dim == 1:
        problem = make_helmholtz_1d()
        counts = 2
        model = build_model(problem.domain, counts, 10, sampler, pou="a", global_features=10)
        boundary, interior, per_edge = {"left": 1, "right": 1}, 20, 1
    else:
        problem = make_beam_problem()
        counts = (2, 2)
        model = build_model(
            problem.domain, counts, 12, sampler, pou="a", n_components=2, global_features=8
        )
        boundary, interior, per_edge = {t: 4 for t in ("left", "right", "bottom", "top")}, 6, 3
    colloc = build_collocation(problem.domain, interior, boundary, counts, per_edge)
    return problem, model, colloc


def test_interface_rows_have_opposite_sign_blocks_and_no_global_columns():
    for dim in (1, 2):
        problem, model, colloc = _interface_setup(dim)
        system = assemble(problem, model, colloc)
        k = model.n_components
        assert k == dim and system.n_interface_rows == colloc.n_interface * 2 * k
        first = system.n_interior_rows + system.n_boundary_rows
        rows = system.matrix[first : first + system.n_interface_rows]
        assert np.all(system.rhs[first : first + system.n_interface_rows] == 0.0)
        iface = colloc.interface
        axes = np.argmax(np.abs(iface.normals), axis=1)
        assert set(axes.tolist()) == set(range(dim))  # facets normal to every axis
        if dim == 1:
            assert np.array_equal(iface.points, [[4.0]])
        for i, (x, (lo, hi), axis) in enumerate(zip(iface.points, iface.pairs, axes)):
            _check_interface_point(model, rows[2 * k * i : 2 * k * (i + 1)], x, lo, hi, axis)


def _check_interface_point(model, rows, x, lo, hi, axis):
    """Per component, the value row and the normal-derivative row of one
    interface point are +features of the lower patch and -features of the
    upper one, and 0 at every other column, the global patch's among them."""
    derivative = tuple(int(ax == axis) for ax in range(model.dim))
    gcols = len(model.patches)
    for comp in range(model.n_components):
        for j, alpha in enumerate(((0,) * model.dim, derivative)):
            row = rows[2 * comp + j]
            left = feature_block(model.patches[lo], comp, x[None], [alpha])[alpha][0]
            right = feature_block(model.patches[hi], comp, x[None], [alpha])[alpha][0]
            assert np.allclose(row[model.col_slice(comp, lo)], left, rtol=1e-13, atol=1e-14)
            assert np.allclose(row[model.col_slice(comp, hi)], -right, rtol=1e-13, atol=1e-14)
            assert np.all(row[model.col_slice(comp, gcols)] == 0.0)
            rest = np.ones(model.n_columns, bool)
            rest[model.col_slice(comp, lo)] = rest[model.col_slice(comp, hi)] = False
            assert np.all(row[rest] == 0.0)


def test_interface_points_need_the_sharp_partition():
    problem = make_helmholtz_1d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(problem.domain, 4, 25, sampler, pou="b")
    colloc = build_collocation(
        problem.domain, 40, {"left": 1, "right": 1}, 4, 1
    )
    assert colloc.n_interface == 3
    with pytest.raises(ValueError, match="sharp partition"):
        assemble(problem, model, colloc)


def test_pou_b_assembly_has_no_interface_rows():
    problem = make_helmholtz_1d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(interval(0.0, 8.0), 4, 25, sampler, pou="b")
    colloc = build_collocation(interval(0.0, 8.0), 40, {"left": 1, "right": 1})
    system = assemble(problem, model, colloc)
    assert system.n_interface_rows == 0
    assert system.shape[0] == 42


def test_rescale_sets_uniform_row_maxima():
    problem = make_poisson_2d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=2)
    model = build_model(problem.domain, (2, 2), 50, sampler, pou="a")
    colloc = build_collocation(
        problem.domain,
        (12, 12),
        {t: 12 for t in ("left", "right", "bottom", "top")},
        (2, 2),
        6,
    )
    for c in (10.0, 100.0):
        system = assemble(problem, model, colloc).rescale(c)
        row_max = np.abs(system.weighted_matrix()).max(axis=1)
        assert np.abs(row_max - c).max() <= 1e-9 * c


def test_rescale_is_idempotent_and_preserves_raw_matrix():
    problem, model, colloc = _single_feature_setup()
    base = assemble(problem, model, colloc)
    raw = base.matrix.copy()
    once = base.rescale(100.0)
    twice = once.rescale(100.0)
    assert np.array_equal(once.weights, twice.weights)
    assert np.array_equal(once.matrix, raw)


def test_rescale_flags_zero_rows_with_unit_weight():
    problem, model, colloc = _single_feature_setup(k=0.0, b=0.0, activation="tanh")
    system = assemble(problem, model, colloc).rescale(100.0)
    # tanh(0) = 0 everywhere: every row of the matrix is identically zero
    assert np.all(system.matrix == 0.0)
    assert system.zero_rows.all()
    assert np.all(system.weights == 1.0)


def _one_block_system(matrix: np.ndarray):
    """A system whose one row group is ``matrix`` over every column."""
    rows, cols = matrix.shape
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(interval(0.0, 1.0), 1, cols, sampler)
    group = RowGroup(np.arange(rows), [slice(0, cols)])
    return given_system([group], [matrix], np.zeros(rows), model)


def test_rescale_row_maxima_are_exact_for_signed_and_zero_rows():
    rows, cols = 500, 300
    matrix = RNG.standard_normal((rows, cols)) * 10.0 ** RNG.integers(-8, 8, (rows, 1))
    matrix[5] = -np.abs(matrix[5])  # a row whose largest magnitude is its minimum
    zero = [0, 250, 251, rows - 1]
    matrix[zero] = 0.0
    system = _one_block_system(matrix).rescale(100.0)
    assert system.shape == (rows, cols)
    rowmax = np.abs(matrix).max(axis=1)
    want = np.ones(len(matrix))
    np.divide(100.0, rowmax, out=want, where=rowmax != 0)
    assert np.array_equal(system.weights, want)
    assert np.flatnonzero(system.zero_rows).tolist() == zero


def test_a_zero_first_row_is_flagged():
    """``zero_rows`` is a mask over the rows, so a system whose only zero row
    is row 0 has ``zero_rows.any()``."""
    system = _one_block_system(np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 3.0]])).rescale(100.0)
    assert system.zero_rows.tolist() == [True, False, False]
    assert system.zero_rows.any()
    assert system.weights.tolist() == [1.0, 50.0, 100.0 / 3.0]


def test_weighted_residual_and_loss():
    problem, model, colloc = _single_feature_setup()
    system = assemble(problem, model, colloc).rescale(10.0)
    u = np.array([0.7])
    res = system.residual(u)
    assert np.allclose(res, system.matrix @ u - system.rhs)
    assert system.loss(u) == pytest.approx(np.linalg.norm(system.weights * res))


# entries whose squares are normal floats, so numpy's norm takes them in range
_IN_RANGE = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=_IN_RANGE), st.integers(-500, 500))
def test_scaled_norm_is_numpys_in_range_and_exact_under_powers_of_two(x, k):
    assert scaled_norm(x) == np.linalg.norm(x)
    assert scaled_norm(np.ldexp(x, k)) == math.ldexp(scaled_norm(x), k)


def test_stokes_assembly_has_pin_row():
    problem = make_stokes_manufactured()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=1)
    model = build_model(problem.domain, (2, 2), 20, sampler, pou="a", n_components=3)
    boundary = {t: 4 for t in ("left", "right", "bottom", "top")}
    boundary.update({f"hole{i}": 6 for i in range(3)})
    colloc = build_collocation(problem.domain, (10, 10), boundary, (2, 2), 4)
    system = assemble(problem, model, colloc)
    assert system.n_pin_rows == 1
    assert system.shape[0] == (
        system.n_interior_rows + system.n_boundary_rows + system.n_interface_rows + 1
    )
    pin_row = system.matrix[-1]
    # the pin anchors the pressure component only
    for comp in (0, 1):
        for p in range(4):
            assert np.all(pin_row[model.col_slice(comp, p)] == 0.0)
    assert system.rhs[-1] == pytest.approx(-4.0 / 3.0)
    # interior block: 3 operator rows per point, point-major
    assert system.n_interior_rows == 3 * colloc.n_interior
    want = problem.forcing_values(colloc.interior).ravel()
    assert np.array_equal(system.rhs[: system.n_interior_rows], want)


def test_stokes_pin_and_global_block_share_the_stencil_fill():
    problem = make_stokes_manufactured()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=3)
    model = build_model(
        problem.domain, (2, 2), 20, sampler, pou="a", n_components=3, global_features=12
    )
    boundary = {t: 4 for t in ("left", "right", "bottom", "top")}
    boundary.update({f"hole{i}": 6 for i in range(3)})
    colloc = build_collocation(problem.domain, (10, 10), boundary, (2, 2), 4)
    system = assemble(problem, model, colloc)
    glob = len(model.patches)
    zero = (0, 0)

    # the pin row holds the bare pressure basis of every patch containing the
    # pin point, plus the global features, and nothing else
    ((point, comp, value),) = problem.extra_point_conditions
    pt = np.asarray([point], float)
    want = np.zeros(model.n_columns)
    holders = 0
    for n in range(len(model.patches)):
        if model.supports(pt)[n, 0]:
            want[model.col_slice(comp, n)] = model.basis_block(n, comp, pt, [zero])[zero][0]
            holders += 1
    bare = feature_block(model.global_patch, comp, pt, [zero])[zero]
    want[model.col_slice(comp, glob)] = bare[0]
    assert holders >= 1
    assert np.array_equal(system.matrix[-1], want)
    assert system.rhs[-1] == value

    # interior rows: each global block is the operator applied to the bare
    # global features
    n_int = system.n_interior_rows
    k = problem.k_interior
    want = np.zeros((n_int, model.n_columns))
    for t in problem.operator.terms:
        block = feature_block(model.global_patch, t.comp, colloc.interior, [t.alpha])[t.alpha]
        coeff = t.coeff_at(colloc.interior)
        want[t.row :: k, model.col_slice(t.comp, glob)] += coeff[:, None] * block
    for c in range(model.n_components):
        cols = model.col_slice(c, glob)
        assert np.any(want[:, cols] != 0.0)
        assert np.allclose(system.matrix[:n_int, cols], want[:, cols], rtol=1e-14, atol=1e-14)


def test_term_coefficients_run_once_per_point_set():
    plain = make_poisson_2d()
    calls = []

    def counted(label, value):
        def coeff(points, normals=None):
            calls.append((label, len(points)))
            return np.full(len(points), value)

        return coeff

    terms = plain.operator.terms
    op = Stencil(tuple(Term(t.row, 0, t.alpha, counted(str(t.alpha), 1.0)) for t in terms), 1, 1, 2)
    tags = plain.domain.boundary_tags()
    bc = Stencil((Term(0, 0, (0, 0), counted("bc", 1.0)),), 1, 1, 2, tags)
    problem = PdeProblem(
        plain.domain, op, (bc,), 1,
        forcing=plain.forcing_values, boundary_data=plain.boundary_values,
    )
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=2)
    model = build_model(plain.domain, (2, 2), 10, sampler, pou="b", global_features=6)
    colloc = build_collocation(plain.domain, (8, 8), {t: 5 for t in tags})
    system = assemble(problem, model, colloc)
    # five expansions (four patches and the global one) share each evaluation
    assert len(model.expansions) == 5
    assert sorted(calls) == sorted(
        [("(0, 2)", colloc.n_interior), ("(2, 0)", colloc.n_interior), ("bc", colloc.n_boundary)]
    )
    want = assemble(plain, model, colloc)
    assert np.array_equal(system.matrix, want.matrix) and np.array_equal(system.rhs, want.rhs)


def test_coefficient_field_is_evaluated_once_per_point_set(monkeypatch):
    """The four terms of -div(a grad u) share one Fourier phase matrix."""
    problem, model, colloc = build_run(load_suite("homogenization-desk")[0])
    calls = []
    phase = HomogenizationCoefficient._phase

    def counted(self, points):
        calls.append(len(points))
        return phase(self, points)

    monkeypatch.setattr(HomogenizationCoefficient, "_phase", counted)
    assemble(problem, model, colloc)
    assert calls == [colloc.n_interior]


def _stokes_setup(pou):
    """A Stokes system with a global patch and the pressure pin; kind "a" has
    interface rows, kind "b" overlapping supports."""
    problem = make_stokes_manufactured()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=3)
    model = build_model(
        problem.domain, (2, 2), 20, sampler, pou=pou, n_components=3, global_features=12
    )
    boundary = {t: 4 for t in ("left", "right", "bottom", "top")}
    boundary.update({f"hole{i}": 6 for i in range(3)})
    counts, per_edge = ((2, 2), 4) if pou == "a" else (None, 0)
    colloc = build_collocation(problem.domain, (10, 10), boundary, counts, per_edge)
    return problem, model, colloc


@pytest.mark.parametrize("pou", ["a", "b"])
def test_supports_runs_once_per_point_set(pou, monkeypatch):
    """The interior, each boundary stencil and the pin ask ``supports`` once
    each, not once per expansion; the interface takes its patches from its
    facet pairs."""
    problem, model, colloc = _stokes_setup(pou)
    calls = []
    supports = RfmModel.supports

    def counted(self, points):
        calls.append(len(points))
        return supports(self, points)

    monkeypatch.setattr(RfmModel, "supports", counted)
    assemble(problem, model, colloc)
    tags = np.asarray(colloc.boundary_tags)
    per_stencil = [int(np.isin(tags, st.tags).sum()) for st in problem.boundary]
    assert len(model.expansions) == 5
    assert calls == [colloc.n_interior] + per_stencil + [1] * len(problem.extra_point_conditions)


@pytest.mark.parametrize("pou", ["a", "b"])
def test_row_groups_stack_to_a_dense_fill(pou, monkeypatch):
    problem, model, colloc = _stokes_setup(pou)
    grouped = assemble(problem, model, colloc)
    assert grouped.n_pin_rows == 1 and (grouped.n_interface_rows > 0) == (pou == "a")
    # only kind "b" has interior rows on two local patches at once
    local = [model.col_slice(0, n) for n in range(len(model.patches))]
    interior = [g for g in grouped.groups if g.rows[0] < grouped.n_interior_rows]
    assert any(sum(c in g.cols for c in local) > 1 for g in interior) == (pou == "b")

    class OneGroup(assembly._GroupFill):
        """Every row touches every column block: one group over the model's own columns."""

        def __init__(self, model, sets, touched):
            super().__init__(model, sets, np.ones_like(touched))

    monkeypatch.setattr(assembly, "_GroupFill", OneGroup)
    dense = assemble(problem, model, colloc)
    (group,) = dense.groups
    assert np.array_equal(group.rows, np.arange(dense.shape[0]))
    assert np.array_equal(np.r_[tuple(group.cols)], np.arange(model.n_columns))
    assert len(grouped.groups) > 1
    assert np.array_equal(grouped.matrix, dense.blocks([0])[0])
    assert np.array_equal(grouped.rhs, dense.rhs)


@pytest.mark.parametrize("chunk", [7, 8])
def test_chunked_fill_matches_the_default_chunk(chunk, monkeypatch):
    """Walking each expansion's points in small chunks, several full ones
    and a partial one, fills the same bits as the default chunk.  With 8,
    each local patch's 9 interior points leave a lone last point, which
    would round differently if it were evaluated on its own."""
    problem, model, colloc = _interface_setup(2)
    whole = assemble(problem, model, colloc)
    monkeypatch.setattr(basis, "EVAL_CHUNK", chunk)
    chunked = assemble(problem, model, colloc)
    assert colloc.n_interior > 2 * chunk and colloc.n_interface > chunk
    assert len(whole.groups) == len(chunked.groups) > 1
    every = range(len(whole.groups))
    for g, h in zip(whole.groups, chunked.groups):
        assert np.array_equal(g.rows, h.rows) and g.cols == h.cols
    for block, chunked_block in zip(whole.blocks(every), chunked.blocks(every)):
        assert np.array_equal(block, chunked_block)
    assert np.array_equal(whole.rhs, chunked.rhs)


@st.composite
def _fill_cases(draw):
    """A small problem, model and collocation set: 1D Helmholtz with pou "a",
    2D Poisson with pou "a" (interface rows) or "b" (overlapping supports),
    or Stokes with its pressure pin.  Random patch grids, feature counts and
    point counts make groups tall or not, and put a Stokes point's rows in
    different groups."""
    kind = draw(st.sampled_from(["interval", "pou-a", "pou-b", "stokes"]))
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=draw(st.integers(0, 2**16)))
    features, glob = draw(st.integers(1, 12)), draw(st.sampled_from([0, 4]))
    if kind == "interval":
        problem = make_helmholtz_1d()
        counts = draw(st.integers(1, 4))
        model = build_model(problem.domain, counts, features, sampler, global_features=glob)
        colloc = build_collocation(
            problem.domain, draw(st.integers(2, 40)), {"left": 1, "right": 1}, counts, 1
        )
        return problem, model, colloc
    stokes = kind == "stokes"
    problem = make_stokes_manufactured() if stokes else make_poisson_2d()
    pou = draw(st.sampled_from("ab")) if stokes else kind[-1]
    counts = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    model = build_model(
        problem.domain, counts, features, sampler, pou=pou,
        n_components=problem.n_components, global_features=glob,
    )
    boundary = {t: draw(st.integers(1, 8)) for t in problem.domain.boundary_tags()}
    per_edge = draw(st.integers(1, 3)) if pou == "a" else 0
    interior = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    return problem, model, build_collocation(problem.domain, interior, boundary, counts, per_edge)


@settings(max_examples=60, deadline=None, database=None)
@given(case=_fill_cases(), data=st.data())
def test_filling_groups_one_at_a_time_matches_one_pass(case, data):
    """The solve fills the tall groups one at a time, the rest in one pass:
    any order of single fills gives the blocks, and the weights and zero
    rows taken from them, of one pass over every group, bit for bit."""
    problem, model, colloc = case
    system = assemble(problem, model, colloc).rescale(100.0)
    every = range(len(system.groups))
    whole = system.blocks(every)
    weights, zero = np.ones(system.shape[0]), np.zeros(system.shape[0], bool)
    for i in data.draw(st.permutations(every)):
        (block,) = system.blocks([i])
        assert np.array_equal(block, whole[i])
        rows = system.groups[i].rows
        weights[rows], zero[rows] = row_weights(block, system.scale, system.rhs[rows])
    assert np.array_equal(system.weights, weights)
    assert np.array_equal(system.zero_rows, zero)


@pytest.mark.parametrize("pou", ["a", "b"])
def test_every_row_lies_in_exactly_one_group(pou):
    problem, model, colloc = _stokes_setup(pou)
    system = assemble(problem, model, colloc)
    rows = np.concatenate([g.rows for g in system.groups])
    assert np.array_equal(np.sort(rows), np.arange(system.shape[0]))
    for g, block in zip(system.groups, system.blocks(range(len(system.groups)))):
        assert np.all(np.diff(g.rows) > 0)
        assert block.shape == (len(g.rows), sum(c.stop - c.start for c in g.cols))


@pytest.mark.parametrize(
    "suite,name,shape,solved",
    [
        ("timoshenko", "M=800 Q=6400", (14400, 1600), (3200, 1600)),
        ("holed-plate", None, (1082, 6392), (1082, 1790)),
    ],
)
def test_assemble_rescale_solve_peak_stays_below_one_dense_matrix(suite, name, shape, solved):
    """Assembly fills no block, and the solve fills each tall group when it
    reaches it and frees the block once its R factor is taken, so the peak is
    the R factors plus the larger of two phases: one tall block with its
    weighted copy, or the short groups' blocks with the gelsd buffer, at the
    compressed width, the wide expansions' reflectors and gelsd's
    workspace.  On the beam that
    is 50 MB, where the blocks alone take 72 MB and the dense matrix would
    take 184 MB; on the holed plate, whose columns are compressed, the
    buffer is 1082x1790 where the dense matrix is 1082x6392."""
    config = suite_config(suite, name)
    problem, model, colloc = build_run(config)
    tracemalloc.start()
    try:
        system = assemble(problem, model, colloc).rescale(config.rescale_scale)
        sizes = [(len(g.rows), g.width) for g in system.groups]
        _, report = solve_system(system, config.rank_tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.shape == shape
    tall = [(r, w) for r, w in sizes if r > w + 1]
    factors = sum(w * (w + 1) for _, w in tall)
    one_tall = max((r * w + r * (w + 1) for r, w in tall), default=0)
    short = sum(r * w for r, w in sizes) - sum(r * w for r, w in tall)
    reflectors = sum(r * sum(c.stop - c.start for c in cols) for cols, r in system.wide)
    buffer = report.solved_rows * report.solved_cols
    workspace = sum(gelsd_workspace(report.solved_rows, report.solved_cols))
    budget = 8 * (factors + max(one_tall, short + buffer + reflectors + workspace))
    assert peak <= 1.1 * budget < 8 * shape[0] * shape[1]
    # the beam: the Dirichlet rows join their patch's tall group, so each
    # patch reaches the SVD as 640 rows, next to eight interface groups of 80
    assert (report.solved_rows, report.solved_cols) == solved


def test_dump_and_load_round_trip(tmp_path):
    problem = make_helmholtz_1d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=0)
    model = build_model(interval(0.0, 8.0), 4, 25, sampler, pou="a")
    colloc = build_collocation(
        interval(0.0, 8.0), 40, {"left": 1, "right": 1}, 4, 1
    )
    system = assemble(problem, model, colloc).rescale(100.0)
    path = tmp_path / "system.bin"
    system.dump(path)
    a, b, w, k_interior = load_system_dump(path)
    assert np.array_equal(a, system.matrix)
    assert np.array_equal(b, system.rhs)
    assert np.array_equal(w, system.weights)
    assert k_interior == problem.k_interior == 1


def test_assembly_is_deterministic():
    problem = make_poisson_2d()
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=7)
    model = build_model(problem.domain, (2, 2), 30, sampler, pou="a")
    colloc = build_collocation(
        problem.domain,
        (8, 8),
        {t: 8 for t in ("left", "right", "bottom", "top")},
        (2, 2),
        4,
    )
    s1 = assemble(problem, model, colloc)
    s2 = assemble(problem, model, colloc)
    assert np.array_equal(s1.matrix, s2.matrix)
    assert np.array_equal(s1.rhs, s2.rhs)


def test_assemble_refuses_a_system_that_would_not_fit(monkeypatch):
    problem, model, colloc = _single_feature_setup()
    # the 3x1 system is one tall group.  While its R factor is taken the solve
    # holds its block (3 values) and its weighted copy with the right-hand
    # side (6); the second phase holds the solve buffer (1) and gelsd's
    # workspace for it, several hundred values, so it outweighs the first.
    # R with the rotated right-hand side (2) is held in both
    need = (2 + max(3 + 6, 1 + sum(gelsd_workspace(1, 1)))) * 8
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=r"3x1 system needs 0.0 MB .* only 0.0 MB"):
        assemble(problem, model, colloc)
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: need)
    assert assemble(problem, model, colloc).shape == (3, 1)
    # an unreadable probe skips the guard
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: None)
    assert assemble(problem, model, colloc).shape == (3, 1)
    # a 21x8 system with two tall groups of 10x2 and a short one of 1x4: the R
    # factors (2 x 6), and the larger of one tall block with its weighted
    # copy (20 + 30), the other tall block not yet filled, or the short block,
    # the buffer of 1 + 2 + 2 rows (4 + 40) and gelsd's workspace for it
    sizes = [(10, 2), (10, 2), (1, 4)]
    need = 12 + max(50, 44 + sum(gelsd_workspace(5, 8)))
    assembly._check_memory((21, 8), sizes, [], 8 * need)
    with pytest.raises(ValueError, match=r"21x8 system needs 0.0 MB"):
        assembly._check_memory((21, 8), sizes, [], 8 * need - 1)
    # a 3x10 system of one short group, whose one expansion is wide: its
    # block (30), the buffer of 3 x 3 columns (9), the reflectors (30) and
    # gelsd's workspace for the buffer
    need = 30 + 9 + 30 + sum(gelsd_workspace(3, 3))
    assembly._check_memory((3, 10), [(3, 10)], [(3, 10)], 8 * need)
    with pytest.raises(ValueError, match=r"3x10 system needs 0.0 MB"):
        assembly._check_memory((3, 10), [(3, 10)], [(3, 10)], 8 * need - 1)


def test_a_dense_copy_that_would_not_fit_is_refused(monkeypatch, tmp_path):
    """The dense matrix, and so its weighted copy and the dump, is refused
    when it and the blocks it is stacked from would not fit: here the 3x1
    matrix (3 values) and the system's one block (3)."""
    problem, model, colloc = _single_feature_setup()
    system = assemble(problem, model, colloc).rescale(100.0)
    need = (3 + 3) * 8
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: need - 1)
    path = tmp_path / "system.bin"
    for use in (lambda: system.matrix, system.weighted_matrix, lambda: system.dump(path)):
        with pytest.raises(ValueError, match=r"3x1 system needs 0.0 MB for a dense copy"):
            use()
    assert not path.exists()
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: need)
    system.dump(path)
    assert np.array_equal(load_system_dump(path)[0], system.matrix)


def test_assemble_refuses_interior_blocks_that_would_not_fit_before_building_supports(
    monkeypatch,
):
    config = load_suite("helmholtz-adaptive")[0]
    problem, model, colloc = build_run(replace(config, interior=(100000,)))

    def unreachable(*args, **kwargs):
        pytest.fail("supports ran for a system that does not fit")

    # the coordinates of 100000 points in 4 expansions (3.2 MB) and the flags
    # of 4 column blocks for each of 100008 rows (0.4 MB)
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**6)
    monkeypatch.setattr(RfmModel, "supports", unreachable)
    with pytest.raises(
        ValueError,
        match=r"100008x400 system needs 3.6 MB for the supports and block flags of its "
        r"100000 interior rows, but only 1.0 MB",
    ):
        assemble(problem, model, colloc)


def test_available_memory_probe_reads_a_positive_byte_count():
    available = assembly.available_memory_bytes()
    assert available is None or available > 0
