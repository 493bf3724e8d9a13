"""The one OpenBLAS of a run: its LAPACK calls against numpy's, dormqr's
orthogonal factor against numpy's QR, the refusal of a numpy without it,
the thread-size rule, the pool it drives during a run, the cap the entry
count sets, and restoring that count afterwards."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rfm.experiments as experiments
from rfm import assembly, basis, blas
from rfm.blas import POOL, SMALL_SYSTEM, blas_threads, threads_for
from rfm.experiments import run_experiment, suite_config

SMALL = suite_config("stokes-exact", "M=400 Q=100")  # 501x1200
LARGE = suite_config("helmholtz-pou", "pou-b M=800")  # 802x800
RNG = np.random.default_rng(5)


def _count() -> int:
    return POOL[0]()


def _put(count: int) -> None:
    POOL[1](count)


@pytest.fixture
def entry_count(request):
    """The pool on ``request.param`` threads for the test, then back."""
    before = _count()
    _put(request.param)
    yield request.param
    _put(before)


@pytest.fixture
def solve_counts(monkeypatch):
    """The pool counts in force at each solve_system call of a run."""
    seen = []
    solve = experiments.solve_system

    def watched(*args, **kwargs):
        seen.append(_count())
        return solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_system", watched)
    return seen


@pytest.mark.parametrize(
    "shape,threads",
    [
        ((SMALL_SYSTEM - 1, 1200), 1),
        ((SMALL_SYSTEM, 1200), 4),
        ((SMALL_SYSTEM + 1, 1200), 4),
        ((1200, SMALL_SYSTEM - 1), 1),
        ((1200, SMALL_SYSTEM), 4),
        ((1200, SMALL_SYSTEM + 1), 4),
        ((501, 1200), 1),
        ((14400, 600), 1),
        ((1565, 1200), 4),
        ((802, 800), 4),
    ],
)
def test_threads_follow_the_smaller_dimension(shape, threads):
    assert threads_for(shape, cap=4) == threads
    assert threads_for(shape, cap=1) == 1


def test_block_runs_on_one_thread_and_fit_stays_under_the_entry_count():
    counts = [3]
    pool = (lambda: counts[0], lambda n: counts.__setitem__(0, n))
    with blas_threads(pool) as fit:
        assert counts == [1]
        assert fit((SMALL_SYSTEM - 1, 4000)) == 1 and counts == [1]
        assert fit((4000, 4000)) == 3 and counts == [3]
    assert counts == [3]


@pytest.mark.parametrize("shape", [(40, 12), (12, 40), (9, 9), (1, 1)])
def test_gelsd_matches_numpy_lstsq_bit_for_bit(shape):
    """numpy.linalg.lstsq calls dgelsd in the same library."""
    a, b = RNG.standard_normal(shape), RNG.standard_normal((shape[0], 2))
    rcond = 1e-10
    x_ref, _, rank_ref, sv_ref = np.linalg.lstsq(a, b, rcond=rcond)
    work, rhs = np.array(a, order="F"), np.zeros((max(shape), 2), order="F")
    rhs[: shape[0]] = b
    sv, rank, info = blas.gelsd(work, rhs, rcond)
    assert (info, rank) == (0, rank_ref)
    assert np.array_equal(rhs[: shape[1]], x_ref) and np.array_equal(sv, sv_ref)


def test_geqrf_gives_numpy_qr_r_bit_for_bit():
    a = RNG.standard_normal((50, 7))
    work = np.array(a, order="F")
    tau, info = blas.geqrf(work)
    assert info == 0 and tau.shape == (7,)
    assert np.array_equal(np.triu(work[:7]), np.linalg.qr(a, mode="r"))


def _reflectors(a):
    """``a``'s QR as geqrf leaves it: the reflectors in a Fortran copy, and tau."""
    work = np.array(a, order="F")
    tau, info = blas.geqrf(work)
    assert info == 0
    return work, tau


@pytest.mark.parametrize("shape", [(9, 4), (30, 30), (12, 1), (5, 0)])
def test_ormqr_applies_the_q_of_numpy_qr_and_its_transpose_undoes_it(shape):
    """Q from dormqr on the identity is numpy.linalg.qr's complete Q (both
    take dgeqrf's reflectors; numpy forms Q with dorgqr), and Q^T (Q c) = c."""
    m = shape[0]
    a = RNG.standard_normal(shape)
    work, tau = _reflectors(a)
    q = np.eye(m, order="F")
    assert blas.ormqr(work, tau, q) == 0
    assert np.abs(q - np.linalg.qr(a, mode="complete")[0]).max() <= 1e-13
    c = RNG.standard_normal(m)
    back = c.copy()
    assert blas.ormqr(work, tau, back) == 0 and blas.ormqr(work, tau, back, "T") == 0
    assert np.abs(back - c).max() <= 1e-13


def test_ormqr_refuses_an_array_it_cannot_work_on_in_place():
    work, tau = _reflectors(RNG.standard_normal((6, 3)))
    read_only = np.zeros(6)
    read_only.flags.writeable = False
    for c in (np.zeros((6, 2)), read_only):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            blas.ormqr(work, tau, c)
    work.flags.writeable = False
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        blas.ormqr(work, tau, np.zeros(6))
    work.flags.writeable = True
    with pytest.raises(ValueError, match="ormqr needs"):
        blas.ormqr(work, tau, np.zeros(5))
    with pytest.raises(ValueError, match="ormqr needs"):
        blas.ormqr(work, tau, np.zeros(6), "")


@pytest.mark.parametrize(
    "array", [np.zeros((4, 3)), np.zeros((3, 4), order="F", dtype=np.float32)], ids=["c-order", "float32"]
)
def test_lapack_refuses_an_array_it_cannot_work_on_in_place(array):
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        blas.geqrf(array)
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        blas.gelsd(array, np.zeros(4, order="F"), 0.0)


def test_a_lookup_that_finds_no_library_or_symbol_names_the_symbol(tmp_path):
    assert blas.find_openblas(str(tmp_path)) is None
    with pytest.raises(ImportError, match="scipy_dgelsd_64_"):
        blas.bind(None, "scipy_dgelsd_64_", None)
    with pytest.raises(ImportError, match="no_such_symbol"):
        blas.bind(blas.find_openblas(), "no_such_symbol", None)


def test_import_without_numpy_bundled_openblas_raises_import_error():
    """As where numpy is built on MKL or a system BLAS: no library to bind."""
    code = "import glob; glob.glob = lambda pattern: []; import rfm"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 1
    assert "ImportError" in done.stderr and "scipy_openblas_get_num_threads64_" in done.stderr


@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_small_system_solves_on_one_thread(entry_count, solve_counts):
    record = run_experiment(SMALL)
    assert record.blas_threads == 1
    assert solve_counts == [1]
    assert _count() == 2


@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_large_system_keeps_the_entry_count(entry_count, solve_counts):
    record = run_experiment(LARGE)
    assert min(record.n_rows, record.n_columns) >= SMALL_SYSTEM
    assert record.blas_threads == 2
    assert solve_counts == [2]
    assert _count() == 2


@pytest.mark.parametrize("entry_count", [1], indirect=True)
@pytest.mark.parametrize("config", [SMALL, LARGE], ids=["small", "large"])
def test_entry_count_of_one_is_never_raised(entry_count, solve_counts, config):
    assert run_experiment(config).blas_threads == 1
    assert solve_counts == [1]
    assert _count() == 1


@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_entry_counts_come_back_when_the_run_raises(entry_count, monkeypatch):
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**5)
    with pytest.raises(ValueError, match="needs"):
        run_experiment(LARGE)
    assert _count() == 2


@pytest.mark.parametrize("config", [SMALL, LARGE], ids=["small", "large"])
def test_same_config_and_seed_give_the_same_record(config):
    a, b = (replace(run_experiment(config), wall_time_s=0.0) for _ in range(2))
    assert a == b


@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_auto_rm_is_the_same_at_every_entry_count(entry_count):
    """The memoized tone selection runs on one thread, so no caller's count
    reaches the value it stores."""
    config = suite_config("helmholtz-adaptive", "sin random Rm=auto")
    problem = experiments.make_problem(config.problem)
    chosen = []
    for count in (1, 2):
        _put(count)
        basis._tones.cache_clear()
        chosen.append(experiments._resolve_rm(config, problem).hex())
        assert _count() == count
    assert chosen[0] == chosen[1]
