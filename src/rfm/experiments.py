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
import inspect
import json
import sys
import time
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .assembly import assemble, check_memory
from .basis import ACTIVATIONS, FEATURE_MODES, POU_KINDS, grid_levels
from .basis import FeatureSampler, build_model, model_bytes, select_rm_from_forcing
from .blas import blas_threads
from .evaluation import ErrorReport, evaluate_error, evaluation_grid, evaluation_grid_bytes
from .geometry import axis_counts, build_collocation, grid_patch_layout, interface_bytes
from .solver import solve_system
from .problems import PROBLEMS, PdeProblem, _is_integral, _is_real

_COMPONENT_LABELS = {1: ("u",), 2: ("u", "v"), 3: ("u", "v", "p")}
_STRESS_LABELS = ("sx", "sy", "txy")

# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def _rule(claim=None, ok=None, convert=None, **kw):
    """A config field with its rule: unless ``ok(value)``, a ValueError
    "'<key>' <claim>, got <value>"; ``convert`` gives the value kept.  A
    field whose default is None also takes None."""
    return field(metadata={"rule": (claim, ok, convert)}, **kw)


def _string(*choices):
    """A string, one of ``choices`` if any are given."""
    claim = "must be a string" + (", one of %s" % list(choices) if choices else "")
    return claim, lambda v: isinstance(v, str) and (not choices or v in choices)


def _integer(least):
    claim = "must be an integer >= %d" % least
    return claim, lambda v: isinstance(v, (int, np.integer)) and _is_real(v) and v >= least


def _positive(v) -> bool:
    return _is_real(v) and 0.0 < v <= sys.float_info.max


def _counts(values) -> bool:
    return all(_is_integral(c) and c > 0 for c in values)


# a list of counts, one per axis or one for every axis (build_run checks the
# domain's axes); a bare count or a nested list is refused
_AXIS_COUNTS = (
    "must be a list of counts, which must be integers and must be positive",
    lambda v: isinstance(v, (list, tuple)) and _counts(v),
    lambda v: tuple(int(c) for c in v),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; round-trips losslessly through JSON.

    Each field states its rule (``_rule``), and ``__post_init__`` applies
    them; ``build_run`` applies the rules that need the problem's domain."""

    suite: str = _rule(*_string())
    name: str = _rule(*_string())
    problem: dict = _rule()  # make_problem checks it, and the factory its id names
    patch_counts: tuple[int, ...] = _rule(*_AXIS_COUNTS)
    features_per_patch: int = _rule(*_integer(1))
    interior: tuple[int, ...] = _rule(*_AXIS_COUNTS)
    boundary: dict[str, int] = _rule(
        "must map boundary tags to counts, which must be integers and must be positive",
        lambda v: isinstance(v, Mapping) and _counts(v.values()),
        lambda v: {tag: int(c) for tag, c in v.items()},
    )
    pou: str = _rule(*_string(*POU_KINDS), default="a")
    activation: str = _rule(*_string(*ACTIVATIONS), default="tanh")
    rm: float | str = _rule(
        "must be 'auto' or a positive finite number", lambda v: v == "auto" or _positive(v), default=1.0
    )
    feature_mode: str = _rule(*_string(*FEATURE_MODES), default="uniform_random")
    global_features: int = _rule(*_integer(0), default=0)
    interface_per_edge: int = _rule(*_integer(0), default=0)
    rescale_on: bool = _rule("must be true or false", lambda v: isinstance(v, bool), default=True)
    rescale_scale: float = _rule("must be a positive and finite number", _positive, default=100.0)
    rank_tol: float | None = _rule(
        "must be null or a number in [0, 1)", lambda v: _is_real(v) and 0.0 <= v < 1.0, default=None
    )
    eval_counts: tuple[int, ...] | None = _rule(*_AXIS_COUNTS, default=None)
    seed: int = _rule(*_integer(0), default=0)

    def __post_init__(self) -> None:
        for f in fields(self):
            value, (claim, ok, convert) = getattr(self, f.name), f.metadata["rule"]
            if ok is None or value is None and f.default is None:
                continue
            if not ok(value):
                raise ValueError("%r %s, got %r" % (f.name, claim, value))
            if convert:
                object.__setattr__(self, f.name, convert(value))
        if self.pou == "b" and self.interface_per_edge:
            raise ValueError(
                "'interface_per_edge' must be 0 with pou 'b': the smooth partition "
                "has no interface conditions"
            )

    def to_dict(self) -> dict:
        return asdict(self)

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


# the keys each problem id takes besides "id": its factory's keyword arguments
_PROBLEM_KEYS = {pid: frozenset(inspect.signature(f).parameters) for pid, f in PROBLEMS.items()}


def make_problem(params: dict) -> PdeProblem:
    """Instantiate a benchmark problem from its config dict.

    ``params`` must be a mapping with a string ``id`` that ``PROBLEMS``
    knows; its other keys go to that factory, which checks their values.
    A key that the factory does not take raises ValueError naming it.
    """
    if not isinstance(params, Mapping) or not isinstance(params.get("id"), str):
        raise ValueError("'problem' must be a mapping with a string 'id', got %r" % (params,))
    kw = dict(params)
    pid = kw.pop("id")
    if pid not in PROBLEMS:
        raise ValueError("unknown 'problem' id %r (known: %s)" % (pid, ", ".join(PROBLEMS)))
    unknown = set(kw) - _PROBLEM_KEYS[pid]
    if unknown:
        raise ValueError(
            "unknown key(s) for problem %r: %s" % (pid, ", ".join(sorted(map(repr, unknown))))
        )
    return PROBLEMS[pid](**kw)


def _resolve_rm(config: ExperimentConfig, problem: PdeProblem) -> float:
    """Numeric rm, or the frequency-guided choice when rm == 'auto'.

    The guided choice samples the forcing along each axis midline, extracts
    its dominant frequencies, and scales the strongest by the patch radius.
    """
    if config.rm != "auto":
        return float(config.rm)
    lo, hi = problem.domain.bounds
    radius = grid_patch_layout(problem.domain, config.patch_counts).radius
    best = 1.0
    for axis in range(problem.domain.dim):
        ts = np.linspace(lo[axis], hi[axis], 2049)
        pts = np.tile(0.5 * (lo + hi), (len(ts), 1))
        pts[:, axis] = ts
        fs = problem.forcing_values(pts)[:, 0]
        best = max(best, select_rm_from_forcing(ts, fs, radius[axis]))
    return best


def _grid(counts: tuple[int, ...]) -> str:
    """Per-axis counts as a grid's name, such as ``40x40``."""
    return "x".join(map(str, counts))


def build_run(config: ExperimentConfig):
    """Problem, model, and collocation set for a config (no solve).

    The config's rules that need the problem's domain are applied first:
    the per-axis counts, the boundary tags both ways (a tag the domain
    lacks, a segment the config leaves out) and an interval end's count, a
    1D ``interface_per_edge``, and the feature counts of an
    ``equispaced_grid`` draw.  Then the point arrays, the model's features
    and patches, and the interface points are checked to fit in memory.
    Only then is rm resolved, any feature drawn or any point sampled.
    """
    problem = make_problem(config.problem)
    domain = problem.domain
    interior = axis_counts(config.interior, domain.dim, "interior")
    patch_counts = axis_counts(config.patch_counts, domain.dim, "patch_counts")
    _eval_counts(config, domain.dim)
    domain.check_boundary_counts(config.boundary)
    domain.check_every_segment(config.boundary)
    domain.facet_points(config.interface_per_edge)
    if config.feature_mode == "equispaced_grid":
        grid_levels(config.features_per_patch, domain.dim, "features_per_patch")
        grid_levels(config.global_features, domain.dim, "global_features")  # 0 is 0^(d+1)
    check_memory(
        domain.sampling_bytes(interior, config.boundary),
        "sampling a %s-point interior grid and its boundary" % _grid(interior),
        "the point arrays",
    )
    k, glob = problem.n_components, config.global_features
    check_memory(
        model_bytes(domain, patch_counts, config.features_per_patch, k, glob),
        "a %d-component model of %s patches ('patch_counts') with %d features each "
        "('features_per_patch') and %d global features ('global_features')"
        % (k, _grid(patch_counts), config.features_per_patch, glob),
        "its features and patches",
    )
    check_memory(
        interface_bytes(domain, patch_counts, config.interface_per_edge),
        "sampling %d points on each facet ('interface_per_edge') of a %s patch grid"
        % (config.interface_per_edge, _grid(patch_counts)),
        "the interface points",
    )
    rm = _resolve_rm(config, problem)
    sampler = FeatureSampler(rm=rm, mode=config.feature_mode, seed=config.seed)
    model = build_model(
        problem.domain,
        config.patch_counts,
        config.features_per_patch,
        sampler,
        pou=config.pou,
        activation=config.activation,
        n_components=problem.n_components,
        global_features=config.global_features,
    )
    colloc = build_collocation(
        problem.domain,
        interior,
        dict(config.boundary),
        config.patch_counts,
        config.interface_per_edge,
    )
    return problem, model, colloc


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------

def _shown(csv=None, text=None, seeds=None, **kw):
    return field(metadata={"csv": csv, "text": text, "seeds": seeds}, **kw)


@dataclass(frozen=True, kw_only=True)
class RunRecord:
    """One solved config, or (``median_record``) one config over seeds.

    Each field's metadata (``_shown``) gives its CSV column and %-format,
    ``errors``' column a pattern for each error key; its %-format in
    ``text``; and how seeds combine: ``"median"``, ``"first"`` (for what
    differs by seed), ``"sum"``, or, unset, all records must agree.  Both
    outputs follow the field order, so ``name`` (CSV ``label``) is last."""

    suite: str = _shown(csv=("suite", "%s"))
    config_hash: str = _shown(seeds="first")
    seed: int = _shown(text="seed=%d", seeds="first")
    m_features: int = _shown(csv=("M", "%d"), text="M=%d")
    n_rows: int = _shown(csv=("N", "%d"), text="N=%d")
    n_columns: int = _shown(text="columns=%d")
    # the SVD's shape after row and column compression, one per layout, so
    # the same at every seed
    solved_rows: int = _shown(csv=("solved_rows", "%d"), text="solved_rows=%d")
    solved_cols: int = _shown(csv=("solved_cols", "%d"), text="solved_cols=%d")
    seed_count: int = _shown(csv=("seed_count", "%d"), seeds="sum", default=1)
    errors: dict[str, float] = _shown(
        csv=("err_%s", "%.6e"), text="%s=%.3e", seeds="median", default_factory=dict
    )
    rank: int = _shown(csv=("rank", "%d"), text="rank=%d", seeds="median")
    sigma_max: float = _shown(seeds="median")
    sigma_min_kept: float = _shown(seeds="median")
    loss: float = _shown(csv=("loss", "%.6e"), text="loss=%.3e", seeds="median")
    wall_time_s: float = _shown(csv=("wall_time_s", "%.3f"), text="wall=%.2fs", seeds="median")
    rm: float = _shown(text="rm=%.6g")  # the rm the features were drawn with, "auto" resolved
    blas_threads: int = _shown(text="threads=%d")
    name: str = _shown(csv=("label", "%s"))

    def text(self) -> str:
        """The record as ``rfm run`` prints it, the errors on a line of their own."""
        head, lines = [f"{self.suite}/{self.name}:"], []
        for f in fields(self):
            value, fmt = getattr(self, f.name), f.metadata["text"]
            if fmt and isinstance(value, dict) and value:
                lines.append(f"  {f.name}: " + " ".join(fmt % kv for kv in sorted(value.items())))
            elif fmt and not isinstance(value, dict):
                head.append(fmt % value)
        return "\n".join([" ".join(head), *lines])


_ERROR_KEYS = [f"{c}_{n}" for c in _COMPONENT_LABELS[3] + _STRESS_LABELS for n in ("linf", "l2rel")]
# the CSV columns in file order; the errors' pattern gives one per error key
CSV_COLUMNS = tuple(
    f.metadata["csv"][0] % key
    for f in fields(RunRecord) if f.metadata["csv"]
    for key in (_ERROR_KEYS if f.name == "errors" else [()])
)


def _error_dict(report: ErrorReport, n_components: int) -> dict[str, float]:
    out = {}
    labels = _COMPONENT_LABELS[n_components] + _STRESS_LABELS
    for label, comp in zip(labels, report.components + report.stresses):
        out[f"{label}_linf"] = comp.linf
        out[f"{label}_l2rel"] = comp.l2_rel
    return out


def _eval_counts(config: ExperimentConfig, dim: int) -> tuple[int, ...]:
    """Per-axis counts of the evaluation grid: ``eval_counts``, or by default
    the collocation spacing halved on every axis."""
    if config.eval_counts is not None:
        return axis_counts(config.eval_counts, dim, "eval_counts")
    return tuple(2 * n + 1 for n in axis_counts(config.interior, dim, "interior"))


def run_experiment(
    config: ExperimentConfig,
    out_dir=None,
    dump_system=None,
) -> RunRecord:
    """Execute one config end to end.

    With ``out_dir`` it appends the record to ``runs.csv`` there and writes
    the solution fields as snapshots; with ``dump_system`` it writes the
    rescaled system to that path (``WeightedSystem.dump``) before the solve,
    so a dense copy that would not fit stops the run before any solve.  The
    evaluation grid's counts are resolved, and its points checked to fit in
    memory, before assembly, so a malformed or oversized ``eval_counts``
    fails before any solve.  The
    BLAS pool runs on one thread until the system is assembled, then on the
    count that ``rfm.blas.threads_for`` gives its shape; the record keeps
    that count.
    """
    t0 = time.perf_counter()
    with blas_threads() as fit:
        problem, model, colloc = build_run(config)
        eval_counts = _eval_counts(config, model.dim)
        if problem.exact is not None or out_dir is not None:
            check_memory(
                evaluation_grid_bytes(problem.domain, eval_counts),
                "a %s-point evaluation grid ('eval_counts')" % _grid(eval_counts),
                "its points",
            )
        system = assemble(problem, model, colloc)
        n_rows, n_columns = system.shape
        threads = fit(system.shape)
        if config.rescale_on:
            system = system.rescale(config.rescale_scale)
        if dump_system is not None:
            system.dump(dump_system)
        coefficients, report = solve_system(system, config.rank_tol)
        del system  # its point sets, before evaluation
        errors: dict[str, float] = {}
        if problem.exact is not None:
            err = evaluate_error(model, coefficients, problem, counts=eval_counts)
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
            solved_rows=report.solved_rows,
            solved_cols=report.solved_cols,
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
            _write_csv(out / "runs.csv", [_record_row(record)], "a")
            write_snapshot(out, config, problem, model, coefficients)
    return record


def write_snapshot(out_dir, config, problem, model, coefficients) -> list[Path]:
    """Solution fields on the evaluation grid as plain-text point files."""
    pts = evaluation_grid(problem.domain, _eval_counts(config, model.dim))
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


def _record_row(record: RunRecord) -> dict[str, str]:
    """The record's CSV row: every column of ``CSV_COLUMNS``, blank where it has no value."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    for f in fields(record):
        if f.metadata["csv"]:
            column, fmt = f.metadata["csv"]
            value = getattr(record, f.name)
            items = value.items() if isinstance(value, dict) else [((), value)]
            row.update((column % key, fmt % v) for key, v in items)
    return row


def _write_csv(path: Path, rows: list[dict], mode: str) -> None:
    """Write or (mode "a") append rows, the header first in a new file."""
    fresh = mode == "w" or not path.exists()
    with open(path, mode, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerows(rows)


def median_record(records: list[RunRecord]) -> RunRecord:
    """One record for the seeds of one config, each field combined by its
    ``seeds`` rule (an int's median truncated, the errors' taken per key).  A
    ValueError names the first other field, or error keys, that differ."""
    if not records:
        raise ValueError("no records to aggregate")
    combined = {}
    for f in fields(RunRecord):
        values = [getattr(r, f.name) for r in records]
        rule, first = f.metadata["seeds"], values[0]
        # what must agree: the error keys, and every field without a rule
        same = [set(v) for v in values] if isinstance(first, dict) else [] if rule else values
        if any(v != same[0] for v in same):
            raise ValueError("records of different configs: their %r differ, %r" % (f.name, same))
        if rule == "median" and isinstance(first, dict):
            first = {k: float(np.median([v[k] for v in values])) for k in first}
        elif rule == "median":
            first = type(first)(np.median(values))
        elif rule == "sum":
            first = sum(values)
        combined[f.name] = first
    return RunRecord(**combined)


def run_table(suite: str, seeds: list[int], out_dir=None) -> list[dict]:
    """Run every config of a suite across seeds; one median row per config."""
    if not seeds:
        raise ValueError("seed list must not be empty")
    configs = load_suite(suite)
    rows = [
        _record_row(median_record([run_experiment(replace(c, seed=s)) for s in seeds]))
        for c in configs
    ]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / f"{suite}.csv", rows, "w")
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


def suite_config(suite: str, name: str | None = None) -> ExperimentConfig:
    """The shipped config of ``suite`` called ``name``, or by default the suite's first."""
    configs = {c.name: c for c in load_suite(suite)}
    if name is None:
        return next(iter(configs.values()))
    if name not in configs:
        raise ValueError(
            "unknown config %r in suite %r (known: %s)" % (name, suite, ", ".join(configs))
        )
    return configs[name]
