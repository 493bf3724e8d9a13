"""BLAS thread control: the size rule, the pools it drives during a run,
the cap the entry count sets, and restoring that count afterwards."""

from dataclasses import replace

import numpy
import pytest

import rfm.experiments as experiments
from rfm import assembly, basis
from rfm.blas import POOLS, SMALL_SYSTEM, blas_threads, find_pools, threads_for
from rfm.experiments import run_experiment, suite_config

needs_pools = pytest.mark.skipif(
    len(POOLS) != 2, reason="needs the OpenBLAS bundled with numpy and with scipy"
)


SMALL = suite_config("stokes-exact", "M=400 Q=100")  # 501x1200
LARGE = suite_config("helmholtz-pou", "pou-b M=800")  # 802x800


def _counts() -> list[int]:
    return [get() for get, _ in POOLS]


@pytest.fixture
def entry_count(request):
    """Every pool on ``request.param`` threads for the test, then back."""
    before = _counts()
    for _, put in POOLS:
        put(request.param)
    yield request.param
    for (_, put), count in zip(POOLS, before):
        put(count)


@pytest.fixture
def solve_counts(monkeypatch):
    """The pool counts in force at each solve_system call of a run."""
    seen = []
    solve = experiments.solve_system

    def watched(*args, **kwargs):
        seen.append(_counts())
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


def test_block_runs_on_one_thread_and_fit_stays_under_each_entry_count():
    counts = [3, 2]
    pools = tuple((lambda i=i: counts[i], lambda n, i=i: counts.__setitem__(i, n)) for i in range(2))
    with blas_threads(pools) as fit:
        assert counts == [1, 1]
        assert fit((SMALL_SYSTEM - 1, 4000)) == 1 and counts == [1, 1]
        assert fit((4000, 4000)) == 2 and counts == [2, 2]
    assert counts == [3, 2]


def test_lookup_without_the_symbols_is_a_no_op():
    assert find_pools(((numpy, "no_such_get", "no_such_set"),)) == ()
    with blas_threads(()) as fit:
        assert fit((4000, 4000)) is None


def test_run_without_thread_control_reports_none(monkeypatch):
    monkeypatch.setattr(experiments, "blas_threads", lambda: blas_threads(()))
    assert run_experiment(SMALL).blas_threads is None


@needs_pools
@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_small_system_solves_on_one_thread_in_both_pools(entry_count, solve_counts):
    record = run_experiment(SMALL)
    assert record.blas_threads == 1
    assert solve_counts == [[1, 1]]
    assert _counts() == [2, 2]


@needs_pools
@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_large_system_keeps_the_entry_count(entry_count, solve_counts):
    record = run_experiment(LARGE)
    assert min(record.n_rows, record.n_columns) >= SMALL_SYSTEM
    assert record.blas_threads == 2
    assert solve_counts == [[2, 2]]
    assert _counts() == [2, 2]


@needs_pools
@pytest.mark.parametrize("entry_count", [1], indirect=True)
@pytest.mark.parametrize("config", [SMALL, LARGE], ids=["small", "large"])
def test_entry_count_of_one_is_never_raised(entry_count, solve_counts, config):
    assert run_experiment(config).blas_threads == 1
    assert solve_counts == [[1, 1]]
    assert _counts() == [1, 1]


@needs_pools
@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_entry_counts_come_back_when_the_run_raises(entry_count, monkeypatch):
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**5)
    with pytest.raises(ValueError, match="needs"):
        run_experiment(LARGE)
    assert _counts() == [2, 2]


@pytest.mark.parametrize("config", [SMALL, LARGE], ids=["small", "large"])
def test_same_config_and_seed_give_the_same_record(config):
    a, b = (replace(run_experiment(config), wall_time_s=0.0) for _ in range(2))
    assert a == b


@needs_pools
@pytest.mark.parametrize("entry_count", [2], indirect=True)
def test_auto_rm_is_the_same_at_every_entry_count(entry_count):
    """The memoized tone selection runs on one thread, so no caller's count
    reaches the value it stores."""
    config = suite_config("helmholtz-adaptive", "sin random Rm=auto")
    problem = experiments.make_problem(config.problem)
    chosen = []
    for count in (1, 2):
        for _, put in POOLS:
            put(count)
        basis._tones.cache_clear()
        chosen.append(experiments._resolve_rm(config, problem).hex())
        assert _counts() == [count, count]
    assert chosen[0] == chosen[1]
