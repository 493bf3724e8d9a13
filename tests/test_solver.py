"""Minimum-norm least squares: hand-checkable oracles, rank reporting,
null-space behavior, scaling equivariance, agreement with
numpy.linalg.lstsq (gelsd in the same OpenBLAS) on random matrices and on
every suite, and exactness of the row and column compression that
solve_system applies first."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from given_blocks import GivenBlocks, given_system
from rfm import assembly
from rfm.assembly import RowGroup, assemble
from rfm.basis import FeatureSampler, build_model
from rfm.experiments import SUITE_NAMES, build_run, load_suite
from rfm.geometry import interval
from rfm import solver
from rfm.solver import solve_min_norm, solve_system

RNG = np.random.default_rng(77)


def test_min_norm_drops_unreachable_rows():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    x, report = solve_min_norm(a, b)
    assert np.allclose(x, [1.0, 0.0], atol=1e-14)
    assert report.rank == 1
    assert report.residual_norm == pytest.approx(1.0)


def test_min_norm_splits_duplicated_columns_evenly():
    a = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    x, report = solve_min_norm(a, b)
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)
    assert report.rank == 1
    # any other exact solution has a strictly larger norm
    for t in (0.5, -1.0, 2.0):
        other = np.array([1.0 + t, 1.0 - t])
        assert np.linalg.norm(other) > np.linalg.norm(x)


def test_min_norm_solution_is_orthogonal_to_null_space():
    # build a rank-3 matrix in 5 columns with a known null space
    basis = RNG.standard_normal((5, 3))
    a = RNG.standard_normal((20, 3)) @ basis.T
    b = a @ RNG.standard_normal(5) + 0.01 * RNG.standard_normal(20)
    x, report = solve_min_norm(a, b)
    assert report.rank == 3
    _, _, vt = np.linalg.svd(a)
    null = vt[3:]
    assert np.abs(null @ x).max() < 1e-10
    # adding any null-space direction keeps the residual, grows the norm
    for v in null:
        shifted = x + 0.3 * v
        assert np.linalg.norm(a @ shifted - b) == pytest.approx(
            np.linalg.norm(a @ x - b), rel=1e-12
        )
        assert np.linalg.norm(shifted) > np.linalg.norm(x)


def test_full_rank_square_solve_matches_direct():
    a = RNG.standard_normal((6, 6)) + 6 * np.eye(6)
    b = RNG.standard_normal(6)
    x, report = solve_min_norm(a, b)
    assert report.rank == 6
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)
    assert report.residual_norm < 1e-10


def test_rank_reporting_identity_and_duplicate():
    x, report = solve_min_norm(np.eye(3), np.ones(3))
    assert report.rank == 3 and not report.rank_deficient
    x, report = solve_min_norm(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    assert report.rank == 1 and report.rank_deficient


def test_rank_tolerance_is_adjustable():
    a = np.diag([1.0, 1e-4, 1e-12])
    _, strict = solve_min_norm(a, np.ones(3), rank_tol=1e-8)
    _, loose = solve_min_norm(a, np.ones(3), rank_tol=1e-2)
    assert strict.rank == 2
    assert loose.rank == 1


def test_report_fields_and_condition():
    a = np.diag([4.0, 2.0, 1.0])
    x, report = solve_min_norm(a, np.ones(3))
    assert report.n_rows == 3 and report.n_cols == 3
    assert report.sigma_max == pytest.approx(4.0)
    assert report.sigma_min_kept == pytest.approx(1.0)
    assert report.condition == pytest.approx(4.0)
    assert report.wall_time_s >= 0.0


@pytest.mark.parametrize(
    "order, dtype, writable", [("F", float, True), ("C", float, True), ("F", np.float32, True), ("F", float, False)]
)
def test_overwrite_a_factorizes_a_writable_fortran_float_array_in_place_and_copies_any_other(order, dtype, writable):
    a = np.array(RNG.integers(-9, 10, (12, 5)), dtype, order=order)
    a.flags.writeable = writable
    b = RNG.standard_normal(12)
    before = a.copy()
    x, report = solve_min_norm(a, b, overwrite_a=True)
    x_ref, _ = solve_min_norm(before, b)
    assert np.array_equal(x, x_ref) and np.isnan(report.residual_norm)
    in_place = order == "F" and dtype is float and writable
    assert np.array_equal(a, before) != in_place


def test_uniform_row_scaling_equivariance():
    a = RNG.standard_normal((30, 10))
    b = RNG.standard_normal(30)
    x1, _ = solve_min_norm(a, b)
    x2, _ = solve_min_norm(10.0 * a, 10.0 * b)
    assert np.allclose(x1, x2, atol=1e-12)


# ----------------------------------------------------------------------
# agreement with numpy.linalg.lstsq, which calls gelsd in the same library
# ----------------------------------------------------------------------

# tenths in [-10, 10]: zeros and repeats make rank deficiency common, and no
# tiny (subnormal) entry pushes the solution past the float range
ENTRIES = st.integers(-100, 100).map(lambda k: k / 10)


def _assert_matches_numpy_lstsq(x, report, a, b, rank_tol=None):
    cond = np.finfo(float).eps * max(a.shape) if rank_tol is None else rank_tol
    x_ref, _, rank, sv = np.linalg.lstsq(a, b, rcond=cond)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert report.rank == rank
    assert report.sigma_max == pytest.approx(sv[0], rel=1e-12)
    assert report.sigma_min_kept == pytest.approx(sv[rank - 1] if rank else 0.0, rel=1e-12)


@st.composite
def _problems(draw, kind):
    """(a, b) of one shape kind; a rank-deficient a is a product through r < min(m, n)."""
    if kind == "tall":
        n = draw(st.integers(1, 12))
        m = draw(st.integers(n, 3 * n))
        a = draw(arrays(float, (m, n), elements=ENTRIES))
    elif kind == "wide":
        m = draw(st.integers(1, 11))
        n = draw(st.integers(m + 1, 24))
        a = draw(arrays(float, (m, n), elements=ENTRIES))
    else:
        m, n = draw(st.integers(2, 16)), draw(st.integers(2, 16))
        r = draw(st.integers(1, min(m, n) - 1))
        a = draw(arrays(float, (m, r), elements=ENTRIES)) @ draw(
            arrays(float, (r, n), elements=ENTRIES)
        )
    return a, draw(arrays(float, m, elements=ENTRIES))


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient"])
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_solve_min_norm_matches_numpy_lstsq(kind, data):
    a, b = data.draw(_problems(kind))
    a_before, b_before = a.copy(), b.copy()
    x, report = solve_min_norm(a, b)
    assert x.shape == (a.shape[1],)
    _assert_matches_numpy_lstsq(x, report, a, b)
    assert report.residual_norm == np.linalg.norm(a @ x - b)
    # the caller's arrays are copied, never factorized in place
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def _system(suite, name=None):
    """The assembled, rescaled system of a suite config (by default the first, smallest)."""
    configs = load_suite(suite)
    config = configs[0] if name is None else {c.name: c for c in configs}[name]
    problem, model, colloc = build_run(config)
    system = assemble(problem, model, colloc)
    if config.rescale_on:
        system.rescale(config.rescale_scale)
    return system, config.rank_tol


# the suites whose first config has a tall row group, and those whose first
# config has a wide expansion
COMPRESS_ROWS = {"poisson-multiscale"}
COMPRESS_COLS = {
    "poisson-pou", "helmholtz-adaptive", "poisson-adaptive", "timoshenko", "holed-plate",
    "stokes-exact", "homogenization-desk",
}
# (suite, config name or None for the first, whether the solve compresses
# rows, whether it compresses columns): the first config of every suite, a
# larger beam, and square-1d's system, which compresses nothing
SUITE_CASES = [
    (suite, None, suite in COMPRESS_ROWS, suite in COMPRESS_COLS) for suite in SUITE_NAMES
] + [("timoshenko", "M=800 Q=1600", True, False), ("helmholtz-pou", "pou-a M=1600", False, False)]


@pytest.fixture(scope="module")
def suite_solve(request):
    """A case's rescaled system, its rank tolerance, and the direct gelsd
    solve of the full weighted system, plus whether the case compresses.

    Module scope lets the two tests below share one assembly and one
    full-system solve per case: pytest runs the tests of one case together
    and drops the system before the next case.
    """
    suite, name, rows, cols = request.param
    system, rank_tol = _system(suite, name)
    x, report = solve_min_norm(system.weighted_matrix(), system.weighted_rhs(), rank_tol)
    return system, rank_tol, x, report, rows, cols


@pytest.mark.parametrize(
    "suite_solve", SUITE_CASES[: len(SUITE_NAMES)], ids=SUITE_NAMES, indirect=True
)
def test_solve_system_matches_numpy_lstsq_on_each_suite(suite_solve):
    """The LAPACK wrapper on the full weighted system of every suite.

    solve_system itself compresses rows first, which moves the solution
    along near-null directions; test_row_compression_matches_direct_gelsd
    covers it against this direct solve.
    """
    system, rank_tol, x, report, _, _ = suite_solve
    a, b = system.weighted_matrix(), system.weighted_rhs()
    _assert_matches_numpy_lstsq(x, report, a, b, rank_tol)
    assert (report.solved_rows, report.solved_cols) == system.shape
    assert (report.n_rows, report.n_cols) == system.shape


def _assert_loss_matches_direct(report, direct, system, x):
    """The report's loss against the system's direct weighted loss: equal
    where no group is tall; where tall groups enter through their R factors
    and rho, within 4 eps (||W b|| + ||W A||_2 ||x||), a few roundings of
    the orthogonal transform.  Both losses take W A x, whose rounding
    scales with ||W A||_2 ||x||, the largest singular value of the direct
    solve ``direct`` times ||x||."""
    loss = system.loss(x)
    if any(g.tall for g in system.groups):
        size = np.linalg.norm(system.weighted_rhs()) + direct.sigma_max * np.linalg.norm(x)
        assert abs(report.residual_norm - loss) <= 4 * np.finfo(float).eps * size
    else:
        assert report.residual_norm == loss


@pytest.mark.parametrize(
    "suite_solve",
    SUITE_CASES,
    ids=[f"{s}-{n or 'first'}" for s, n, _, _ in SUITE_CASES],
    indirect=True,
)
def test_row_compression_matches_direct_gelsd(suite_solve):
    """Row and column compression against the direct gelsd of the full
    weighted system.  Both are exact, so the rank and sigma_max agree; the
    fitted values W A x agree to 1e-8 of ||W b||, or, where the system's
    conditioning moves the direct solve itself further (helmholtz-adaptive,
    rank 48 of 208), to twice the shift of the direct solve of one seeded
    row and column permutation.  The loss agrees to 1e-4, or, where it is
    rounding (a consistent system), within 4 eps (||W b|| + sigma_max ||x||).
    """
    system, rank_tol, x_d, direct, rows, cols = suite_solve
    x, report = solve_system(system, rank_tol)
    assert (report.n_rows, report.n_cols) == system.shape
    _assert_loss_matches_direct(report, direct, system, x)
    assert (report.solved_rows < report.n_rows, report.solved_cols < report.n_cols) == (rows, cols)
    if not (rows or cols):
        # nothing compressed: the same gelsd call on the same bits
        assert np.array_equal(x, x_d)
        ignore = dict(wall_time_s=0.0, residual_norm=0.0)
        assert replace(report, **ignore) == replace(direct, **ignore)
        return
    assert report.rank == direct.rank
    assert report.sigma_max == pytest.approx(direct.sigma_max, rel=1e-12)
    wb = np.linalg.norm(system.weighted_rhs())
    bound, shift = 1e-8 * wb, _fitted(system, x - x_d)
    if shift > bound:
        a, b = system.weighted_matrix(), system.weighted_rhs()
        rng = np.random.default_rng(0)
        p, q = rng.permutation(a.shape[0]), rng.permutation(a.shape[1])
        x_p = np.empty_like(x_d)
        x_p[q] = solve_min_norm(a[p][:, q], b[p], rank_tol)[0]
        bound = max(bound, 2 * _fitted(system, x_p - x_d))
    assert shift <= bound
    loss = system.loss(x_d)
    rounding = 4 * np.finfo(float).eps * (wb + direct.sigma_max * np.linalg.norm(x))
    assert abs(report.residual_norm - loss) <= max(1e-4 * loss, rounding)


def _fitted(system, dx):
    """||W A dx||, the change in the weighted fitted values."""
    return np.linalg.norm(system.weights * (system.matrix @ dx))


@st.composite
def _block_systems(draw):
    """A weighted system on a real column layout, as row groups that each
    touch a random set of column blocks, plus a group of up to three rows
    that touch none.  Every block lies in some group with at least two more
    Gaussian rows than columns, so the tall groups, and the whole system,
    have full column rank.  Each group's rows are a random subset of the
    system's rows."""
    model = build_model(
        interval(0.0, 1.0),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 6)),
        FeatureSampler(rm=1.0, mode="uniform_random", seed=0),
        n_components=draw(st.integers(1, 2)),
        global_features=draw(st.sampled_from([0, 3])),
    )
    blocks = [
        model.col_slice(comp, n)
        for comp in range(model.n_components)
        for n in range(len(model.expansions))
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    some_blocks = st.sets(st.integers(0, len(blocks) - 1), max_size=len(blocks))
    sets = [draw(some_blocks) | {j} for j in range(len(blocks))]
    tall = len(sets)
    sets += draw(st.lists(some_blocks, max_size=4))
    parts = []
    for g, chosen in enumerate(sets):
        cols = [blocks[j] for j in sorted(chosen)]
        width = sum(c.stop - c.start for c in cols)
        count = draw(st.integers(width + 2, 2 * width + 4) if g < tall else st.integers(1, width + 1))
        block = rng.standard_normal((count, width)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
        parts.append((cols, block))
    count = draw(st.integers(0, 3))
    parts.append(([], np.zeros((count, 0))))
    n = sum(len(block) for _, block in parts)
    order = rng.permutation(n)
    groups, top = [], 0
    for cols, block in parts:
        groups.append(RowGroup(np.sort(order[top : top + len(block)]), cols))
        top += len(block)
    blocks = [block for _, block in parts]
    return given_system(groups, blocks, rng.standard_normal(n), model).rescale()


@settings(max_examples=40, deadline=None, database=None)
@given(system=_block_systems())
def test_row_compression_is_exact_on_random_block_systems(system):
    x_d, direct = solve_min_norm(system.weighted_matrix(), system.weighted_rhs())
    x, report = solve_system(system)
    assert report.solved_rows < report.n_rows == system.shape[0]
    assert report.rank == direct.rank == system.shape[1]
    assert np.linalg.norm(x - x_d) <= 1e-10 * np.linalg.norm(x_d)
    _assert_loss_matches_direct(report, direct, system, x)


@st.composite
def _wide_systems(draw):
    """A weighted system on a two-component column layout whose row-compressed
    form has full row rank, with a wide expansion: expansion 0 has one tall
    group over its first component only and, on its second, one short group
    of fewer rows than that component has columns, and no other group
    touches it.  Every other column block is either a tall block, in one of
    up to three tall groups, or a free one, which at most one short group
    owns.  A short group owns one free block, with at most as many rows as
    it has columns, and touches any blocks of other expansions besides.  So
    each R row and each short row has columns of its own, and the Gaussian
    rows are independent.  A free block that no group owns is touched only
    as another group's extra block, or not at all."""
    f = draw(st.integers(2, 6))
    model = build_model(
        interval(0.0, 1.0),
        draw(st.integers(1, 3)),
        f,
        FeatureSampler(rm=1.0, mode="uniform_random", seed=0),
        n_components=2,
        global_features=draw(st.sampled_from([0, 3])),
    )
    n_exp = len(model.expansions)
    blocks = [model.col_slice(comp, n) for comp in range(2) for n in range(n_exp)]
    first = (0, n_exp)  # the blocks of expansion 0, one per component
    others = [j for j in range(len(blocks)) if j not in first]
    # each other block joins tall group 0, 1 or 2, or is free (-1); a free
    # block has an owner or none
    labels = {j: draw(st.integers(-1, 2)) for j in others}
    free = [j for j in others if labels[j] < 0 and draw(st.booleans())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    some_others = st.sets(st.sampled_from(others)) if others else st.just(set())
    parts = [([first[0]], draw(st.integers(f + 2, 2 * f + 4)))]
    parts += [
        ([j for j in others if labels[j] == k], None) for k in range(3)
        if any(labels[j] == k for j in others)
    ]
    second = [first[1]] + ([first[0]] if draw(st.booleans()) else [])
    parts += [(second, draw(st.integers(1, f - 1)))]
    for j in free:
        width = blocks[j].stop - blocks[j].start
        parts.append((sorted({j} | draw(some_others)), draw(st.integers(1, width))))
    sized = []
    for chosen, count in parts:
        cols = [blocks[j] for j in sorted(chosen)]
        width = sum(c.stop - c.start for c in cols)
        count = count or draw(st.integers(width + 2, 2 * width + 4))
        scales = 10.0 ** rng.uniform(-3, 3, (count, 1))
        sized.append((cols, rng.standard_normal((count, width)) * scales))
    n = sum(len(block) for _, block in sized)
    order = rng.permutation(n)
    groups, top = [], 0
    for cols, block in sized:
        groups.append(RowGroup(np.sort(order[top : top + len(block)]), cols))
        top += len(block)
    arrays = [block for _, block in sized]
    return given_system(groups, arrays, rng.standard_normal(n), model).rescale()


@settings(max_examples=40, deadline=None, database=None)
@given(system=_wide_systems())
def test_column_compression_is_exact_on_random_wide_systems(system):
    cols, rows = system.wide[0]
    assert any(g.tall and g.cols == cols[:1] for g in system.groups)
    x_d, direct = solve_min_norm(system.weighted_matrix(), system.weighted_rhs())
    x, report = solve_system(system)
    assert report.solved_cols < report.n_cols == system.shape[1]
    assert report.rank == direct.rank == report.solved_rows
    assert np.linalg.norm(x - x_d) <= 1e-10 * np.linalg.norm(x_d)
    _assert_loss_matches_direct(report, direct, system, x)


def test_a_solved_system_is_left_as_it_was(tmp_path):
    """The solve keeps no block of the system, which it fills and drops
    group by group: afterwards the matrix, weights, residual, loss and dump
    are those taken before it, bit for bit, and a second solve repeats the
    first."""
    system, rank_tol = _system("poisson-multiscale")
    x = RNG.standard_normal(system.shape[1])

    def uses(path):
        system.dump(path)
        return [system.matrix, system.weights, system.residual(x), system.loss(x), path.read_bytes()]

    before = uses(tmp_path / "before.bin")
    coefficients, report = solve_system(system, rank_tol)
    assert report.solved_rows < report.n_rows
    after = uses(tmp_path / "after.bin")
    for kept, now in zip(before, after):
        assert np.array_equal(kept, now)
    again, second = solve_system(system, rank_tol)
    assert np.array_equal(again, coefficients)
    assert replace(second, wall_time_s=0.0) == replace(report, wall_time_s=0.0)


@pytest.mark.parametrize("suite", ["poisson-multiscale", "helmholtz-pou"])
def test_a_solve_fills_every_group_once(suite, monkeypatch):
    """Tall groups are filled one at a time and the rest in one pass, and
    no group is filled twice: the short groups' part of the loss comes from
    the blocks already filled for the buffer."""
    filled = []
    fill = assembly._GroupFill.blocks

    def counted(self, which):
        filled.extend(which)
        return fill(self, which)

    monkeypatch.setattr(assembly._GroupFill, "blocks", counted)
    system, rank_tol = _system(suite)
    assert any(g.tall for g in system.groups) == (suite == "poisson-multiscale")
    solve_system(system, rank_tol)
    assert sorted(filled) == list(range(len(system.groups)))


@pytest.mark.parametrize("suite,trims", [("poisson-multiscale", 1), ("helmholtz-pou", 0)])
def test_heap_is_trimmed_once_the_tall_blocks_are_freed(suite, trims, monkeypatch):
    """Only a solve that freed tall blocks hands the heap's free pages back."""
    calls = []
    monkeypatch.setattr(solver, "_MALLOC_TRIM", calls.append)
    system, rank_tol = _system(suite)
    assert any(g.tall for g in system.groups) == bool(trims)
    solve_system(system, rank_tol)
    assert calls == [0] * trims


@pytest.mark.parametrize("where", ["matrix", "rhs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(where, bad):
    a = RNG.standard_normal((12, 5))
    b = RNG.standard_normal(12)
    if where == "matrix":
        a[7, 3] = bad
    else:
        b[7] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_min_norm(a, b)


@settings(max_examples=25, deadline=None, database=None)
@given(system=_block_systems(), scale=st.floats(1e-3, 1e3))
def test_rescale_scale_leaves_the_grouped_solve_unchanged(system, scale):
    """At full column rank a common factor on every weight changes the
    least-squares problem only by rounding: the solution agrees to 1e-11."""
    x1, r1 = solve_system(system.rescale(scale))
    x2, r2 = solve_system(system.rescale(10.0 * scale))
    assert r1.rank == r2.rank == system.shape[1]
    assert np.linalg.norm(x1 - x2) <= 1e-11 * np.linalg.norm(x1)


def _with_nan(system, tall: bool, where: str):
    """The system with a NaN in the first row of its first group that is (or
    is not) tall: at that row's first nonzero entry, or in its right-hand side."""
    i = next(i for i, g in enumerate(system.groups) if g.tall == tall)
    blocks = system.blocks(range(len(system.groups)))
    if where == "matrix":
        blocks[i][0, np.flatnonzero(blocks[i][0])[0]] = np.nan
    else:
        system.rhs[system.groups[i].rows[0]] = np.nan
    return replace(system, layout=GivenBlocks(system.groups, blocks, system.model))


@pytest.mark.parametrize("where", ["matrix", "rhs"])
@pytest.mark.parametrize("suite", ["helmholtz-pou", "helmholtz-adaptive"])
def test_solve_system_rejects_nan(suite, where):
    """Also where the NaN sits at a wide expansion's columns (every
    expansion of helmholtz-adaptive is wide), so its LQ meets it first."""
    system, rank_tol = _system(suite)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_system(_with_nan(system, False, where), rank_tol)


@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_row_compression_rejects_nan_in_a_tall_group(where):
    system, rank_tol = _system("poisson-multiscale")
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_system(_with_nan(system, True, where), rank_tol)
