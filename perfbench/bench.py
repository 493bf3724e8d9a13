"""The closed loop, its checks, and the metrics of one benchmark run.

Load model: one client, one solve after another (``rfm table`` runs suites
the same way).  A run first solves one pass of its workload untimed, so
imports, BLAS thread start-up and first-touch costs land in set-up; then it
repeats whole passes until its time is up.

An untimed run reports end-to-end metrics.  A traced run solves every job
twice, once plain and once with spans installed (alternating which goes
first), so that per-layer numbers, the tracing overhead and the check that
tracing changes no result all come from matched inputs.
"""

from __future__ import annotations

import math
import resource
import time
import traceback
from dataclasses import dataclass

import numpy as np

import rfm.assembly as assembly
import rfm.basis as basis
import rfm.experiments as experiments
import rfm.problems as problems
import rfm.solver as solver
from rfm.experiments import ExperimentConfig, RunRecord

import machine
import stats
from spans import Span, Target, Tracer, self_times
from workloads import Workload, common_failures, passes

MB = 1e6  # every size the benchmark reports is in units of 10**6 bytes


@dataclass
class Outcome:
    seconds: float
    record: RunRecord | None
    failure: str | None  # why the solve failed, None when it passed every check


class SolveWatch:
    """Sees the coefficients of every solve, so that they can be checked finite."""

    def __init__(self):
        self.finite: bool | None = None
        self._original = None

    def __enter__(self) -> "SolveWatch":
        original = self._original = experiments.solve_system

        def watched(*args, **kwargs):
            coefficients, report = original(*args, **kwargs)
            self.finite = bool(np.isfinite(coefficients).all())
            return coefficients, report

        experiments.solve_system = watched
        return self

    def __exit__(self, *exc) -> None:
        experiments.solve_system = self._original


def solve_once(job: ExperimentConfig, workload: Workload, watch: SolveWatch) -> Outcome:
    """Run one config through ``run_experiment`` and check what it returns."""
    watch.finite = None
    start = time.perf_counter()
    try:
        record = experiments.run_experiment(job)
    except Exception as exc:  # a failed solve is counted, not fatal
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    found = common_failures(record)
    if not watch.finite:
        found.append("non-finite coefficients")
    extra = workload.check(record)
    if extra:
        found.append(extra)
    return Outcome(seconds, record, "; ".join(found) or None)


def warm_up(workload: Workload, seeds, watch: SolveWatch) -> list[Outcome]:
    """Solve one pass untimed; returns the outcomes so they are checked too."""
    jobs = next(passes(workload.configs(), seeds))
    return [solve_once(job, workload, watch) for job in jobs]


def closed_loop(jobs, seconds: float, solve) -> tuple[list, float]:
    """Whole passes, one solve after another, until ``seconds`` have passed (at least one)."""
    results = []
    start = time.perf_counter()
    while True:
        results.extend(solve(job) for job in next(jobs))
        if time.perf_counter() - start >= seconds:
            return results, time.perf_counter() - start


def fail_count(outcomes: list[Outcome]) -> int:
    return sum(o.failure is not None for o in outcomes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------


@dataclass
class Measured:
    outcomes: list[Outcome]  # warm-up and timed
    timed: list[Outcome]
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    run_failures: list[str]


def measure(workload: Workload, seeds, seconds: float, process_start: float) -> Measured:
    """Warm up, then time whole passes for ``seconds``."""
    with SolveWatch() as watch:
        warm = warm_up(workload, seeds, watch)
        setup = time.perf_counter() - process_start
        jobs = passes(workload.configs(), seeds)
        timed, wall = closed_loop(jobs, seconds, lambda job: solve_once(job, workload, watch))
    records = [o.record for o in timed if o.failure is None]
    return Measured(warm + timed, timed, wall, setup, peak_rss_mb(), workload.check_run(records))


def error_digits(records: list[RunRecord]) -> float:
    """Mean over configs of -log10 of the config's median ``u_l2rel`` in the run.

    Every config weighs the same however often it ran; with one config this
    is -log10 of the median error.
    """
    by_config: dict[tuple[str, str], list[float]] = {}
    for record in records:
        by_config.setdefault((record.suite, record.name), []).append(record.errors["u_l2rel"])
    return sum(-math.log10(stats.median(errs)) for errs in by_config.values()) / len(by_config)


def end_to_end_metrics(run: Measured, setup_samples: list[float]) -> dict[str, tuple[float, str]]:
    ok = [o for o in run.timed if o.failure is None]
    if not ok:
        raise RuntimeError("no timed solve passed its checks")
    times = [o.seconds for o in ok]
    return {
        "solve_s.p50": (stats.median(times), "s"),
        "solve_s.tail": (stats.percentile(times, stats.tail_percentile(len(times))), "s"),
        "solves_per_s": (len(ok) / run.wall_s, "1/s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (stats.median(setup_samples), "s"),
        "err_digits": (error_digits([o.record for o in ok]), "digits"),
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------


def _shape(args, system) -> dict[str, float]:
    return {"rows": system.shape[0], "cols": system.shape[1]}


def _lapack(args, result) -> dict[str, float]:
    report = result[1]
    return {
        "lapack_s": report.wall_time_s,
        "rank": report.rank,
        "rows": report.n_rows,
        "cols": report.n_cols,
    }


def _collocation_points(args, colloc) -> dict[str, float]:
    return {"points": colloc.n_interior + colloc.n_boundary + colloc.n_interface}


def _eval_points(args, values) -> dict[str, float]:
    return {"points": len(values)}


def _error_points(args, report) -> dict[str, float]:
    return {"points": report.n_points}


def targets(memory: bool) -> list[Target]:
    """The calls into each module that a solve makes, at the attribute its caller looks up.

    With ``memory`` the assemble, rescale and solve calls also record their
    tracemalloc peak; tracemalloc slows every allocation, so the timed
    spans are recorded without it.
    """
    return [
        Target("experiments.run_experiment", experiments, "run_experiment"),
        Target("experiments.build_run", experiments, "build_run"),
        Target("problems.make_problem", experiments, "make_problem"),
        Target("problems.forcing_values", problems.PdeProblem, "forcing_values"),
        Target("problems.boundary_values", problems.PdeProblem, "boundary_values"),
        Target("basis.select_rm_from_forcing", experiments, "select_rm_from_forcing"),
        Target("basis.build_model", experiments, "build_model"),
        Target("basis.basis_block", basis.RfmModel, "basis_block"),
        Target("basis.feature_block", assembly, "feature_block"),
        Target("basis.eval", basis.RfmModel, "eval", counts=_eval_points),
        Target("geometry.build_collocation", experiments, "build_collocation", counts=_collocation_points),
        Target("assembly.assemble", experiments, "assemble", counts=_shape, memory=memory),
        Target("assembly.rescale", assembly.WeightedSystem, "rescale", memory=memory),
        Target("assembly.loss", assembly.WeightedSystem, "loss"),
        Target("solver.solve_system", experiments, "solve_system", memory=memory),
        Target("solver.solve_min_norm", solver, "solve_min_norm", counts=_lapack),
        Target("evaluation.evaluate_error", experiments, "evaluate_error", counts=_error_points),
    ]


def gelsd_gflop(m: int, n: int) -> float:
    """Computed flops of gelsd's reduction to bidiagonal form, in 10**9.

    Householder bidiagonalization of an m x n matrix (m >= n) costs
    4mn^2 - 4n^3/3; when m >= 1.6n gelsd first takes a QR factorization and
    bidiagonalizes R, for 2mn^2 + 2n^3 (Golub & Van Loan, Matrix
    Computations, 4th ed., section 5.4).  A wide matrix swaps m and n.  The
    bidiagonal solve and the right-hand-side updates are of lower order and
    left out.
    """
    m, n = max(m, n), min(m, n)
    flops = 2 * m * n * n + 2 * n**3 if m >= 1.6 * n else 4 * m * n * n - 4 * n**3 / 3
    return flops / 1e9


@dataclass
class Traced:
    outcomes: list[Outcome]  # every solve of the run
    pairs: list[tuple[Outcome, Outcome]]  # (plain, traced) of the same job
    spans: list[Span]  # of the traced halves of the pairs
    side_spans: list[Span]  # of the one-thread pass that records memory peaks
    run_failures: list[str]


def _fidelity(plain: Outcome, traced: Outcome) -> Outcome:
    """Mark the traced outcome failed unless it reproduces the plain one exactly."""
    if plain.record is None or traced.record is None or traced.failure:
        return traced
    a, b = plain.record, traced.record
    if (a.rank, a.loss, a.errors) != (b.rank, b.loss, b.errors):
        traced.failure = f"traced result differs: rank {a.rank}/{b.rank} loss {a.loss!r}/{b.loss!r}"
    return traced


def trace(workload: Workload, seeds, seconds: float) -> Traced:
    """Paired plain and traced solves for ``seconds``, then one side pass.

    The side pass solves the first timed pass again on one BLAS thread with
    tracemalloc on, for ``solver.lapack_s_1thread`` and the memory peaks.
    """
    tracer = Tracer(targets(memory=False))
    side = Tracer(targets(memory=True))
    pairs: list[tuple[Outcome, Outcome]] = []
    with SolveWatch() as watch:
        warm = warm_up(workload, seeds, watch)
        jobs = passes(workload.configs(), seeds)

        def solve_pair(job):
            tracer.run = len(pairs)
            traced_first = len(pairs) % 2 == 1
            if traced_first:
                with tracer:
                    traced = solve_once(job, workload, watch)
            plain = solve_once(job, workload, watch)
            if not traced_first:
                with tracer:
                    traced = solve_once(job, workload, watch)
            pairs.append((plain, _fidelity(plain, traced)))
            return job

        done, _ = closed_loop(jobs, seconds, solve_pair)
        with side, machine.limit_blas_threads(1):
            extra = []
            for job in done[: len(workload.configs())]:
                extra.append(solve_once(job, workload, watch))
                side.run += 1
    outcomes = warm + [o for pair in pairs for o in pair] + extra
    records = [t.record for _, t in pairs if t.failure is None]
    return Traced(outcomes, pairs, tracer.spans, side.spans, workload.check_run(records))


def layer_metrics(run: Traced) -> dict[str, tuple[float, str]]:
    """Per-solve means of span times and counts, by layer."""
    spans = run.spans
    selfs = self_times(spans)
    n = len(run.pairs)

    def total(*names):
        return sum(s.duration for s in spans if s.name in names) / n

    def own(layer):
        return sum(t for s, t in zip(spans, selfs) if s.name.startswith(layer + ".")) / n

    def counted(name, key, among=spans):
        return [s.counts[key] for s in among if s.name == name]

    def side_mean(name, key):
        values = counted(name, key, run.side_spans)
        return sum(values) / len(values)

    def per_solve(name, key):
        return sum(counted(name, key)) / n

    run_s = total("experiments.run_experiment")
    solve_s = total("solver.solve_system")
    lapack = counted("solver.solve_min_norm", "lapack_s")
    ranks = counted("solver.solve_min_norm", "rank")
    rows = counted("solver.solve_min_norm", "rows")
    cols = counted("solver.solve_min_norm", "cols")
    gflop = [gelsd_gflop(int(m), int(k)) for m, k in zip(rows, cols)]
    plain = [p.seconds for p, _ in run.pairs]
    traced = [t.seconds for _, t in run.pairs]
    return {
        "experiments.run_s": (run_s, "s"),
        "experiments.build_run_s": (total("experiments.build_run"), "s"),
        "experiments.self_s": (own("experiments"), "s"),
        "problems.make_problem_s": (total("problems.make_problem"), "s"),
        "problems.self_s": (own("problems"), "s"),
        "basis.build_s": (total("basis.build_model", "basis.select_rm_from_forcing"), "s"),
        "basis.block_s": (total("basis.basis_block", "basis.feature_block"), "s"),
        "basis.eval_s": (total("basis.eval"), "s"),
        "basis.eval_points": (per_solve("basis.eval", "points"), "count"),
        "basis.self_s": (own("basis"), "s"),
        "geometry.build_collocation_s": (total("geometry.build_collocation"), "s"),
        "geometry.points": (per_solve("geometry.build_collocation", "points"), "count"),
        "assembly.assemble_s": (total("assembly.assemble"), "s"),
        "assembly.rescale_s": (total("assembly.rescale"), "s"),
        "assembly.loss_s": (total("assembly.loss"), "s"),
        "assembly.self_s": (own("assembly"), "s"),
        "assembly.rows": (per_solve("assembly.assemble", "rows"), "count"),
        "assembly.cols": (per_solve("assembly.assemble", "cols"), "count"),
        "assembly.matrix_mb": (
            sum(8 * r * c for r, c in zip(counted("assembly.assemble", "rows"),
                                          counted("assembly.assemble", "cols"))) / n / MB,
            "MB",
        ),
        "assembly.peak_mb": (side_mean("assembly.assemble", "peak_bytes") / MB, "MB"),
        "assembly.rescale_peak_mb": (side_mean("assembly.rescale", "peak_bytes") / MB, "MB"),
        "solver.solve_s": (solve_s, "s"),
        "solver.lapack_s": (sum(lapack) / n, "s"),
        "solver.overhead_s": (solve_s - sum(lapack) / n, "s"),
        "solver.lapack_share": (100 * sum(lapack) / n / run_s, "%"),
        "solver.lapack_s_1thread": (side_mean("solver.solve_min_norm", "lapack_s"), "s"),
        "solver.rank": (sum(ranks) / n, "count"),
        "solver.rank_frac": (sum(r / c for r, c in zip(ranks, cols)) / n, "ratio"),
        "solver.gflop": (sum(gflop) / n, "GFLOP"),
        "solver.gflop_per_s": (sum(gflop) / sum(lapack), "GFLOP/s"),
        "solver.peak_mb": (side_mean("solver.solve_system", "peak_bytes") / MB, "MB"),
        "evaluation.evaluate_error_s": (total("evaluation.evaluate_error"), "s"),
        "evaluation.self_s": (own("evaluation"), "s"),
        "evaluation.points": (per_solve("evaluation.evaluate_error", "points"), "count"),
        "trace.overhead_s": (stats.median(traced) - stats.median(plain), "s"),
        "trace.spans": (len(spans) / n, "count"),
    }
