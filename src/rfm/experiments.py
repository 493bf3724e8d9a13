"""Experiment configs, the end-to-end runner, and suite tables.

A config is a flat, JSON-serializable description of one solve: problem,
model layout, collocation counts, rescaling, solver tolerance, and seed.
Suites are named lists of configs built in code (``rfm config`` prints one
as JSON); running a suite produces one CSV row per config with
median-over-seeds errors.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .assembly import assemble
from .basis import FeatureSampler, RfmModel, build_model, select_rm_from_forcing
from .blas import blas_threads
from .evaluation import ErrorReport, evaluate_error, evaluation_grid
from .geometry import Hole, build_collocation
from .solver import solve_system
from .problems import (
    HomogenizationCoefficient,
    PdeProblem,
    four_tones_1d,
    make_beam_problem,
    make_channel_flow,
    make_helmholtz_1d,
    make_plate_problem,
    make_poisson_2d,
    make_stokes_manufactured,
    make_varcoef_elliptic,
    two_band_2d,
    wave_product_1d,
)

_COMPONENT_LABELS = {1: ("u",), 2: ("u", "v"), 3: ("u", "v", "p")}
_STRESS_LABELS = ("sx", "sy", "txy")

# fixed CSV column order; unused error columns stay blank
CSV_COLUMNS = (
    "suite", "M", "N", "seed_count",
    *(
        f"err_{label}_{norm}"
        for label in _COMPONENT_LABELS[3] + _STRESS_LABELS
        for norm in ("linf", "l2rel")
    ),
    "rank", "loss", "wall_time_s", "label",
)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def _is_real(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


def _is_integral(count) -> bool:
    """Whether ``count`` is an integer, or a float with an integral value; a
    bool is not."""
    return _is_real(count) and (isinstance(count, (int, np.integer)) or float(count).is_integer())


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; round-trips losslessly through JSON."""

    suite: str
    name: str
    problem: dict
    patch_counts: tuple[int, ...]
    features_per_patch: int
    interior: tuple[int, ...]
    boundary: dict[str, int]
    pou: str = "a"
    activation: str = "tanh"
    rm: float | str = 1.0  # a number, or "auto" for frequency-guided choice
    feature_mode: str = "uniform_random"
    global_features: int = 0
    interface_per_edge: int = 0
    rescale_on: bool = True
    rescale_scale: float = 100.0
    rank_tol: float | None = None
    eval_counts: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("patch_counts", "interior", "boundary", "eval_counts"):
            value = getattr(self, key)
            if value is None:
                continue
            values = value.values() if key == "boundary" else np.ravel(np.asarray(value, object))
            if not all(_is_integral(c) for c in values):
                raise ValueError("%r counts must be integers, got %r" % (key, value))
            if any(c <= 0 for c in values):
                raise ValueError("%r counts must be positive, got %r" % (key, value))
            if key == "boundary":
                object.__setattr__(self, key, {tag: int(c) for tag, c in value.items()})
            else:
                object.__setattr__(self, key, tuple(int(c) for c in values))
        for key, least in (
            ("features_per_patch", 1), ("global_features", 0), ("interface_per_edge", 0)
        ):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError("%r must be an integer >= %d, got %r" % (key, least, value))
        if self.pou == "b" and self.interface_per_edge:
            raise ValueError(
                "'interface_per_edge' must be 0 with pou 'b': the smooth partition "
                "has no interface conditions"
            )
        if self.rm != "auto" and not (_is_real(self.rm) and 0.0 < self.rm <= sys.float_info.max):
            raise ValueError("'rm' must be 'auto' or a positive finite number, got %r" % (self.rm,))
        if not 0.0 < float(self.rescale_scale) < np.inf:
            raise ValueError("'rescale_scale' must be positive and finite, got %r" % self.rescale_scale)
        if self.rank_tol is not None and not 0.0 <= float(self.rank_tol) < 1.0:
            raise ValueError("'rank_tol' must lie in [0, 1), got %r" % self.rank_tol)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["patch_counts"] = list(self.patch_counts)
        out["interior"] = list(self.interior)
        if self.eval_counts is not None:
            out["eval_counts"] = list(self.eval_counts)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("unknown config key(s): %s" % ", ".join(map(repr, unknown)))
        missing = [
            f.name
            for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ValueError("missing config key(s): %s" % ", ".join(map(repr, missing)))
        data = dict(data)
        for key in ("patch_counts", "interior", "eval_counts"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_json(Path(path).read_text())

    @property
    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# ----------------------------------------------------------------------
# problems from config dicts
# ----------------------------------------------------------------------


def make_problem(params: dict) -> PdeProblem:
    """Instantiate a benchmark problem from its config dict.

    A key that the problem does not take raises ValueError naming it.
    """
    params = dict(params)
    pid = params.pop("id")
    if pid == "helmholtz":
        sol = params.pop("solution", "wave-product")
        exact = {"wave-product": wave_product_1d, "four-tones": four_tones_1d}[sol]()
        problem = make_helmholtz_1d(lam=params.pop("lam", 4.0), exact=exact)
    elif pid == "poisson":
        exact = two_band_2d(params.pop("a_low", 1.0), params.pop("b_high", 0.0))
        problem = make_poisson_2d(exact=exact)
    elif pid == "beam":
        problem = make_beam_problem()
    elif pid == "plate":
        holes = params.pop("holes", None)
        if holes is None:
            problem = make_plate_problem()
        else:
            problem = make_plate_problem(tuple(Hole((h[0], h[1]), h[2]) for h in holes))
    elif pid == "stokes":
        problem = make_stokes_manufactured()
    elif pid == "channel":
        problem = make_channel_flow()
    elif pid == "varcoef":
        coef = HomogenizationCoefficient(
            seed=params.pop("coef_seed", 0),
            bound=params.pop("bound", 6),
            amp=params.pop("amp", 0.3),
        )
        problem = make_varcoef_elliptic(coef, forcing_value=params.pop("forcing", 1.0))
    else:
        raise ValueError("unknown problem id %r" % pid)
    if params:
        raise ValueError(
            "unknown key(s) for problem %r: %s" % (pid, ", ".join(map(repr, sorted(params))))
        )
    return problem


def _resolve_rm(config: ExperimentConfig, problem: PdeProblem) -> float:
    """Numeric rm, or the frequency-guided choice when rm == 'auto'.

    The guided choice samples the forcing along each axis midline, extracts
    its dominant frequencies, and scales the strongest by the patch radius.
    """
    if config.rm != "auto":
        return float(config.rm)
    lo, hi = problem.domain.bounds
    counts = config.patch_counts
    if len(counts) == 1:
        counts = counts * problem.domain.dim
    best = 1.0
    for axis in range(problem.domain.dim):
        ts = np.linspace(lo[axis], hi[axis], 2049)
        pts = np.tile(0.5 * (lo + hi), (len(ts), 1))
        pts[:, axis] = ts
        fs = problem.forcing_values(pts)[:, 0]
        radius = (hi[axis] - lo[axis]) / (2 * counts[axis])
        best = max(best, select_rm_from_forcing(ts, fs, radius))
    return best


def build_run(config: ExperimentConfig):
    """Problem, model, and collocation set for a config (no solve)."""
    problem = make_problem(config.problem)
    rm = _resolve_rm(config, problem)
    sampler = FeatureSampler(rm=rm, mode=config.feature_mode, seed=config.seed)
    model = build_model(
        problem.domain,
        config.patch_counts if len(config.patch_counts) > 1 else config.patch_counts[0],
        config.features_per_patch,
        sampler,
        pou=config.pou,
        activation=config.activation,
        n_components=problem.n_components,
        global_features=config.global_features,
    )
    interior = config.interior if len(config.interior) > 1 else config.interior[0]
    colloc = build_collocation(
        problem.domain,
        interior,
        dict(config.boundary),
        model.boxes(),
        config.interface_per_edge,
    )
    return problem, model, colloc


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """One solved config: rm, sizes, rank, errors, loss, timing."""

    suite: str
    name: str
    config_hash: str
    seed: int
    rm: float  # the rm the features were drawn with, "auto" resolved
    m_features: int
    n_rows: int
    n_columns: int
    rank: int
    sigma_max: float
    sigma_min_kept: float
    loss: float
    wall_time_s: float
    errors: dict[str, float] = field(default_factory=dict)
    blas_threads: int | None = None  # BLAS threads of the solve; None without thread control


def _error_dict(report: ErrorReport, n_components: int) -> dict[str, float]:
    out = {}
    labels = _COMPONENT_LABELS[n_components]
    for label, comp in zip(labels, report.components):
        out[f"{label}_linf"] = comp.linf
        out[f"{label}_l2rel"] = comp.l2_rel
    for label, comp in zip(_STRESS_LABELS, report.stresses):
        out[f"{label}_linf"] = comp.linf
        out[f"{label}_l2rel"] = comp.l2_rel
    return out


def _default_eval_counts(config: ExperimentConfig, dim: int) -> tuple[int, ...]:
    """Evaluation grid with the collocation spacing halved on every axis."""
    if config.eval_counts is not None:
        return config.eval_counts
    interior = config.interior if len(config.interior) > 1 else config.interior * dim
    return tuple(2 * n + 1 for n in interior)


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    dump_system=None,
) -> RunRecord:
    """Execute one config end to end.

    With ``out_dir`` it appends the record to ``runs.csv`` there and writes
    the solution fields as snapshots; with ``dump_system`` it writes the
    rescaled system to that path (``WeightedSystem.dump``) before the solve,
    which releases it.  Both BLAS pools run on one thread until the system
    is assembled, then on the count that ``rfm.blas.threads_for`` gives its
    shape; the record keeps that count.
    """
    t0 = time.perf_counter()
    with blas_threads() as fit:
        problem, model, colloc = build_run(config)
        system = assemble(problem, model, colloc)
        n_rows, n_columns = system.shape
        threads = fit(system.shape)
        if config.rescale_on:
            system = system.rescale(config.rescale_scale)
        if dump_system is not None:
            system.dump(dump_system)
        # the solve frees the row groups; drop the rest before evaluation
        coefficients, report = solve_system(system, config.rank_tol)
        del system
        errors: dict[str, float] = {}
        if problem.exact is not None:
            err = evaluate_error(
                model, coefficients, problem, counts=_default_eval_counts(config, model.dim)
            )
            errors = _error_dict(err, problem.n_components)
        wall = time.perf_counter() - t0
        record = RunRecord(
            suite=config.suite,
            name=config.name,
            config_hash=config.config_hash,
            seed=config.seed,
            rm=model.rm,
            m_features=model.n_features,
            n_rows=n_rows,
            n_columns=n_columns,
            rank=report.rank,
            sigma_max=report.sigma_max,
            sigma_min_kept=report.sigma_min_kept,
            loss=report.residual_norm,
            wall_time_s=wall,
            errors=errors,
            blas_threads=threads,
        )
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _append_run_csv(out / "runs.csv", record)
            write_snapshot(out, config, problem, model, coefficients)
    return record


def write_snapshot(out_dir, config, problem, model, coefficients) -> list[Path]:
    """Solution fields on the evaluation grid as plain-text point files."""
    pts = evaluation_grid(problem.domain, _default_eval_counts(config, model.dim))
    values = model.eval(coefficients, pts)
    labels = _COMPONENT_LABELS[problem.n_components]
    safe = config.name.replace(" ", "_").replace("/", "-").replace("=", "")
    paths = []
    for comp, label in enumerate(labels):
        path = Path(out_dir) / f"{safe}_seed{config.seed}_{label}.dat"
        with open(path, "w") as fh:
            for p, v in zip(pts, values[:, comp]):
                coords = " ".join("%.17g" % c for c in p)
                fh.write(f"{coords} {'%.17g' % v}\n")
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# CSV output
# ----------------------------------------------------------------------


def _record_row(record: RunRecord, seed_count: int) -> dict:
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        suite=record.suite,
        M=record.m_features,
        N=record.n_rows,
        seed_count=seed_count,
        rank=record.rank,
        loss="%.6e" % record.loss,
        wall_time_s="%.3f" % record.wall_time_s,
        label=record.name,
    )
    for key, val in record.errors.items():
        row["err_" + key] = "%.6e" % val
    return row


def _append_run_csv(path: Path, record: RunRecord) -> None:
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerow(_record_row(record, 1))


def median_record(records: list[RunRecord]) -> RunRecord:
    """Componentwise median across seeds of the same config."""
    if not records:
        raise ValueError("no records to aggregate")
    first = records[0]
    keys = first.errors.keys()
    errors = {k: float(np.median([r.errors[k] for r in records])) for k in keys}
    return replace(
        first,
        errors=errors,
        rank=int(np.median([r.rank for r in records])),
        loss=float(np.median([r.loss for r in records])),
        wall_time_s=float(np.median([r.wall_time_s for r in records])),
        sigma_max=float(np.median([r.sigma_max for r in records])),
        sigma_min_kept=float(np.median([r.sigma_min_kept for r in records])),
    )


def run_table(suite: str, seeds: list[int], out_dir=None) -> list[dict]:
    """Run every config of a suite across seeds; one median row per config."""
    if not seeds:
        raise ValueError("seed list must not be empty")
    configs = load_suite(suite)
    rows = []
    for config in configs:
        records = [run_experiment(replace(config, seed=s)) for s in seeds]
        agg = median_record(records)
        rows.append(_record_row(agg, len(seeds)))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{suite}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    return rows


def rescale_ablation(config: ExperimentConfig) -> tuple[RunRecord, RunRecord]:
    """The same run with rescaling on and with unit weights."""
    on = run_experiment(replace(config, rescale_on=True))
    off = run_experiment(replace(config, rescale_on=False))
    return on, off


# ----------------------------------------------------------------------
# suite definitions
# ----------------------------------------------------------------------


def _helmholtz_config(suite, name, M, pou, **kw) -> ExperimentConfig:
    mp = M // 50
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "helmholtz", "lam": 4.0, "solution": "wave-product"},
        patch_counts=(mp,),
        features_per_patch=50,
        interior=(M,),
        boundary={"left": 1, "right": 1},
        interface_per_edge=1 if pou == "a" else 0,
        pou=pou,
        **kw,
    )


def _poisson_config(suite, name, *, J, n, a_low=1.0, b_high=0.0, global_features=0, **kw):
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "poisson", "a_low": a_low, "b_high": b_high},
        patch_counts=(2, 2),
        features_per_patch=J,
        interior=(n, n),
        boundary={t: n for t in ("left", "right", "bottom", "top")},
        interface_per_edge=n // 2,
        global_features=global_features,
        **kw,
    )


def _adaptive_config(suite, name, rm, mode, activation) -> ExperimentConfig:
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "helmholtz", "lam": 4.0, "solution": "four-tones"},
        patch_counts=(4,),
        features_per_patch=100,
        interior=(200,),
        boundary={"left": 1, "right": 1},
        interface_per_edge=1,
        rm=rm,
        feature_mode=mode,
        activation=activation,
    )


def _beam_config(suite, name, n, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "beam"},
        patch_counts=(2, 2),
        features_per_patch=160,
        global_features=160,
        interior=(n, n),
        boundary={t: round(1.5 * n) for t in ("left", "right", "bottom", "top")},
        interface_per_edge=n // 2,
        **kw,
    )


def _plate_boundary(n: int) -> dict[str, int]:
    out = {t: round(1.5 * n) for t in ("left", "right", "bottom", "top")}
    radii = (0.45, 0.55, 0.5, 0.4)
    for i, r in enumerate(radii):
        out[f"hole{i}"] = max(8, round(1.5 * n * 2 * np.pi * r / 8))
    return out


def _plate_config(suite, name, n) -> ExperimentConfig:
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "plate"},
        patch_counts=(4, 4),
        features_per_patch=188,
        global_features=188,
        interior=(n, n),
        boundary=_plate_boundary(n),
        interface_per_edge=max(1, n // 4),
        eval_counts=(81, 81),
    )


def _stokes_config(suite, name, n, problem_id="stokes") -> ExperimentConfig:
    boundary = {t: n for t in ("left", "right", "bottom", "top")}
    for i in range(3):
        boundary[f"hole{i}"] = max(8, round(0.8 * n))
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": problem_id},
        patch_counts=(2, 2),
        features_per_patch=100,
        interior=(n, n),
        boundary=boundary,
        interface_per_edge=max(1, n // 2),
    )


def _homogenization_config(suite, name, n) -> ExperimentConfig:
    return ExperimentConfig(
        suite=suite,
        name=name,
        problem={"id": "varcoef", "coef_seed": 1, "bound": 2, "amp": 0.3, "forcing": 1.0},
        patch_counts=(4, 4),
        features_per_patch=200,
        interior=(n, n),
        boundary={"circle": 2 * n},
        interface_per_edge=max(1, n // 4),
        eval_counts=(101, 101),
    )


def default_suite_configs() -> dict[str, list[ExperimentConfig]]:
    """The shipped experiment grid, one list of configs per suite."""
    suites: dict[str, list[ExperimentConfig]] = {}

    s = "helmholtz-pou"
    suites[s] = [
        _helmholtz_config(s, f"pou-{pou} M={M}", M, pou)
        for pou in ("a", "b")
        for M in (200, 400, 800, 1600)
    ]

    s = "poisson-pou"
    suites[s] = [_poisson_config(s, f"M=1600 Q={n*n}", J=400, n=n) for n in (20, 30, 50)]

    s = "poisson-multiscale"
    suites[s] = []
    for case, (a, b) in (("low", (1.0, 0.0)), ("high", (0.0, 1.0)), ("mixed", (0.5, 0.5))):
        suites[s].append(
            _poisson_config(s, f"{case} pou-only", J=300, n=40, a_low=a, b_high=b)
        )
        suites[s].append(
            _poisson_config(
                s, f"{case} multiscale", J=240, n=40, a_low=a, b_high=b, global_features=240
            )
        )

    s = "helmholtz-adaptive"
    suites[s] = []
    for rm in range(1, 9):
        suites[s].append(_adaptive_config(s, f"sin random Rm={rm}", float(rm), "uniform_random", "sin"))
        suites[s].append(_adaptive_config(s, f"sin grid Rm={rm}", float(rm), "equispaced_grid", "sin"))
        suites[s].append(_adaptive_config(s, f"tanh random Rm={rm}", float(rm), "uniform_random", "tanh"))
    suites[s].append(_adaptive_config(s, "sin random Rm=auto", "auto", "uniform_random", "sin"))

    s = "poisson-adaptive"
    suites[s] = [
        _poisson_config(s, f"sin random Rm={rm}", J=1000, n=40, rm=float(rm), activation="sin")
        for rm in (1, 2, 4, 6)
    ]
    suites[s].append(
        _poisson_config(s, "sin grid Rm=4", J=1000, n=40, rm=4.0, activation="sin",
                        feature_mode="equispaced_grid")
    )
    suites[s].append(_poisson_config(s, "sin random Rm=auto", J=1000, n=40, rm="auto", activation="sin"))

    s = "timoshenko"
    suites[s] = [_beam_config(s, f"M=800 Q={n*n}", n) for n in (10, 20, 40, 80)]

    s = "holed-plate"
    suites[s] = [_plate_config(s, f"M=3196 Q={n*n}", n) for n in (16, 30, 40, 80)]

    s = "stokes-exact"
    suites[s] = [_stokes_config(s, f"M=400 Q={n*n}", n) for n in (10, 20, 40)]

    s = "homogenization-desk"
    suites[s] = [_homogenization_config(s, f"M=3200 Q={n*n}", n) for n in (48, 64, 96, 192)]

    s = "channel-flow"
    suites[s] = [_stokes_config(s, "channel n=24", 24, problem_id="channel")]

    return suites


SUITE_NAMES = tuple(default_suite_configs())


def load_suite(suite: str) -> list[ExperimentConfig]:
    """A shipped suite's configs, in definition order."""
    if suite not in SUITE_NAMES:
        raise ValueError(
            "unknown suite %r (known: %s)" % (suite, ", ".join(SUITE_NAMES))
        )
    return default_suite_configs()[suite]
