"""Config round trips, suite integrity, the end-to-end runner, CSV/snapshot
outputs, and the command-line interface."""

import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfm import basis, experiments
from rfm.experiments import (
    CSV_COLUMNS,
    SUITE_NAMES,
    ExperimentConfig,
    build_run,
    load_suite,
    make_problem,
    median_record,
    rescale_ablation,
    run_experiment,
    run_table,
    suite_config,
)
from rfm.problems import PROBLEMS


def _fast_config(**overrides) -> ExperimentConfig:
    base = dict(
        suite="helmholtz-pou",
        name="tiny",
        problem={"id": "helmholtz", "lam": 4.0, "solution": "wave-product"},
        patch_counts=(4,),
        features_per_patch=50,
        interior=(200,),
        boundary={"left": 1, "right": 1},
        interface_per_edge=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------------
# config serialization
# ----------------------------------------------------------------------


def test_config_json_round_trip_is_lossless(tmp_path):
    cfg = _fast_config(rm="auto", eval_counts=(31,), rank_tol=1e-10, seed=9)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert ExperimentConfig.load(path) == cfg
    # hash is stable across the round trip and sensitive to content
    assert ExperimentConfig.load(path).config_hash == cfg.config_hash
    assert replace(cfg, seed=10).config_hash != cfg.config_hash


COUNTS = st.lists(st.integers(1, 10**6), min_size=1, max_size=3).map(tuple)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _configs(draw):
    """Any config the constructor accepts, with JSON-representable fields."""
    problem = draw(st.dictionaries(st.text(), JSON_VALUES, max_size=4))
    problem["id"] = draw(st.sampled_from(["helmholtz", "poisson", "beam", "stokes", "varcoef"]))
    pou = draw(st.sampled_from(["a", "b"]))
    return ExperimentConfig(
        suite=draw(st.text()),
        name=draw(st.text()),
        problem=problem,
        patch_counts=draw(COUNTS),
        features_per_patch=draw(st.integers(1, 10**6)),
        interior=draw(COUNTS),
        boundary=draw(st.dictionaries(st.text(), st.integers(1, 10**6), max_size=4)),
        pou=pou,
        activation=draw(st.sampled_from(["tanh", "sin", "cos"])),
        rm=draw(st.just("auto") | st.floats(1e-300, 1e300)),
        feature_mode=draw(st.sampled_from(["uniform_random", "equispaced_grid"])),
        global_features=draw(st.integers(0, 10**6)),
        interface_per_edge=draw(st.integers(0, 10**6)) if pou == "a" else 0,
        rescale_on=draw(st.booleans()),
        rescale_scale=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        rank_tol=draw(st.none() | st.floats(0.0, 1.0, exclude_max=True)),
        eval_counts=draw(st.none() | COUNTS),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@settings(max_examples=100, deadline=None, database=None)
@given(config=_configs())
def test_config_json_round_trip_holds_for_generated_configs(config):
    back = ExperimentConfig.from_json(config.to_json())
    assert back == config
    assert back.config_hash == config.config_hash


def test_readme_config_table_gives_every_field_once():
    """README "Command line" has one row per config field, in field order."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0].splitlines()
    table = section[section.index("| field | rule | default |") + 2 :]
    rows = takewhile(lambda line: line.startswith("|"), table)
    assert [row.split("|")[1].strip(" `") for row in rows] == [f.name for f in fields(ExperimentConfig)]


def test_config_validation_rejects_bad_counts():
    with pytest.raises(ValueError):
        _fast_config(interior=(0,))
    with pytest.raises(ValueError):
        _fast_config(features_per_patch=-5)
    with pytest.raises(ValueError):
        _fast_config(rm=-1.0)


def test_make_problem_dispatch_covers_all_ids():
    specs = [{"id": pid} for pid in PROBLEMS] + [
        {"id": "helmholtz", "solution": "four-tones"},
        {"id": "poisson", "a_low": 0.5, "b_high": 0.5},
        {"id": "varcoef", "coef_seed": 1, "bound": 2},
    ]
    dims = []
    for params in specs:
        prob = make_problem(params)
        dims.append(prob.domain.dim)
    assert dims == [1, 2, 2, 2, 2, 2, 2, 1, 2, 2]
    with pytest.raises(ValueError):
        make_problem({"id": "nonsense"})


# ----------------------------------------------------------------------
# shipped suites
# ----------------------------------------------------------------------


def test_unknown_suite_is_rejected_with_known_names():
    with pytest.raises(ValueError, match="helmholtz-pou"):
        load_suite("not-a-suite")


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


def test_run_experiment_is_deterministic_modulo_wall_time():
    cfg = _fast_config(seed=1)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.errors == b.errors
    assert a.rank == b.rank and a.loss == b.loss
    assert a.n_rows == b.n_rows == 208
    assert a.config_hash == b.config_hash


def test_run_experiment_seed_changes_the_draw():
    a = run_experiment(_fast_config(seed=0))
    b = run_experiment(_fast_config(seed=1))
    assert a.errors["u_linf"] != b.errors["u_linf"]


def test_run_experiment_writes_csv_and_snapshot(tmp_path):
    cfg = _fast_config(seed=2, eval_counts=(41,))
    run_experiment(cfg, out_dir=tmp_path)
    rows = list(csv.DictReader(open(tmp_path / "runs.csv")))
    assert len(rows) == 1
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert list(CSV_COLUMNS) == [
        "suite", "M", "N", "solved_rows", "solved_cols", "seed_count",
        "err_u_linf", "err_u_l2rel", "err_v_linf", "err_v_l2rel", "err_p_linf", "err_p_l2rel",
        "err_sx_linf", "err_sx_l2rel", "err_sy_linf", "err_sy_l2rel",
        "err_txy_linf", "err_txy_l2rel",
        "rank", "loss", "wall_time_s", "label",
    ]
    assert rows[0]["M"] == "200" and rows[0]["N"] == "208"
    assert rows[0]["err_v_linf"] == ""
    snapshot = tmp_path / "tiny_seed2_u.dat"
    data = np.loadtxt(snapshot)
    assert data.shape == (41, 2)
    assert data[0, 0] == 0.0 and data[-1, 0] == 8.0


def test_run_experiment_dumps_system(tmp_path):
    from rfm.assembly import load_system_dump

    path = tmp_path / "system.bin"
    record = run_experiment(_fast_config(), dump_system=path)
    a, b, w, k = load_system_dump(path)
    assert a.shape == (record.n_rows, record.n_columns)
    assert k == 1


def test_run_experiment_dumps_the_whole_system_of_a_compressing_solve(tmp_path):
    """On a config whose solve compresses tall row groups, the dump is the
    whole assembled and rescaled system."""
    from rfm.assembly import assemble, load_system_dump

    config = suite_config("poisson-multiscale", "low pou-only")
    path = tmp_path / "system.bin"
    run_experiment(config, dump_system=path)
    a, b, w, _ = load_system_dump(path)
    problem, model, colloc = build_run(config)
    system = assemble(problem, model, colloc).rescale(config.rescale_scale)
    assert any(g.tall for g in system.groups)
    assert np.array_equal(a, system.matrix)
    assert np.array_equal(b, system.rhs)
    assert np.array_equal(w, system.weights)


def test_median_record_aggregates_componentwise():
    cfg = _fast_config()
    records = [run_experiment(replace(cfg, seed=s)) for s in range(3)]
    agg = median_record(records)
    vals = sorted(r.errors["u_linf"] for r in records)
    assert agg.errors["u_linf"] == vals[1]
    assert agg.n_rows == records[0].n_rows
    assert agg.blas_threads == records[0].blas_threads


def test_median_record_refuses_records_of_different_configs():
    a, b = (suite_config("helmholtz-pou", f"pou-{pou} M=200") for pou in ("a", "b"))
    records = [run_experiment(a), run_experiment(b)]
    with pytest.raises(ValueError, match=r"their 'n_rows' differ, \[208, 202\]"):
        median_record(records)


@st.composite
def _seed_records(draw):
    """Records of one config at distinct seeds, with drawn per-seed values."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    keys = draw(st.sampled_from([("u_linf", "u_l2rel"), ("u_linf", "u_l2rel", "v_linf", "v_l2rel", "p_linf", "p_l2rel")]))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=7, unique=True))
    return [
        experiments.RunRecord(
            suite="s",
            name="c",
            config_hash="%012x" % seed,
            seed=seed,
            rm=2.5,
            m_features=200,
            n_rows=208,
            n_columns=200,
            solved_rows=208,
            solved_cols=200,
            rank=draw(st.integers(0, 200)),
            sigma_max=draw(floats),
            sigma_min_kept=draw(floats),
            loss=draw(floats),
            wall_time_s=draw(floats),
            errors={k: draw(floats) for k in keys},
            blas_threads=1,
        )
        for seed in seeds
    ]


@settings(max_examples=100, deadline=None, database=None)
@given(records=_seed_records(), data=st.data())
def test_median_record_takes_the_median_of_every_seed_field(records, data):
    agg = median_record(records)
    for key in ("sigma_max", "sigma_min_kept", "loss", "wall_time_s"):
        assert getattr(agg, key) == np.median([getattr(r, key) for r in records])
    assert agg.rank == int(np.median([r.rank for r in records]))
    assert agg.errors == {k: np.median([r.errors[k] for r in records]) for k in records[0].errors}
    assert (agg.seed, agg.config_hash) == (records[0].seed, records[0].config_hash)
    assert agg.seed_count == len(records)
    assert (agg.n_rows, agg.rm, agg.blas_threads, agg.name) == (208, 2.5, 1, "c")
    shuffled = data.draw(st.permutations(records))
    again = median_record(shuffled)
    assert replace(again, seed=agg.seed, config_hash=agg.config_hash) == agg


def test_run_table_writes_one_row_per_config(tmp_path):
    rows = run_table("helmholtz-pou", seeds=[0], out_dir=tmp_path)
    assert len(rows) == 8
    on_disk = list(csv.DictReader(open(tmp_path / "helmholtz-pou.csv")))
    assert len(on_disk) == 8
    assert [r["N"] for r in on_disk] == [
        "208", "416", "832", "1664", "202", "402", "802", "1602"
    ]
    assert all(float(r["err_u_linf"]) < 0.5 for r in on_disk)
    # the finest rung is orders more accurate than the coarsest
    assert float(on_disk[3]["err_u_linf"]) < 1e-3 * float(on_disk[0]["err_u_linf"])


def test_rescale_ablation_runs_both_arms():
    cfg = _fast_config(seed=0)
    on, off = rescale_ablation(cfg)
    assert on.errors and off.errors
    assert on.config_hash != off.config_hash


def test_rescale_constant_cancels_at_full_rank():
    # on a full-column-rank system the uniform constant c cancels exactly
    from rfm.assembly import assemble
    from rfm.basis import FeatureSampler, build_model
    from rfm.geometry import build_collocation, interval
    from rfm.problems import make_helmholtz_1d
    from rfm.solver import solve_system

    problem = make_helmholtz_1d()
    dom = interval(0.0, 8.0)
    model = build_model(
        dom, 1, 10, FeatureSampler(rm=4.0, mode="uniform_random", seed=0), pou="a"
    )
    colloc = build_collocation(dom, 100, {"left": 1, "right": 1})
    base = assemble(problem, model, colloc)
    x10, rep10 = solve_system(base.rescale(10.0), None)
    x100, rep100 = solve_system(base.rescale(100.0), None)
    assert rep10.rank == model.n_columns  # full rank precondition
    assert rep100.rank == rep10.rank
    assert np.allclose(x10, x100, rtol=0, atol=1e-10 * np.linalg.norm(x10))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_an_extreme_rescale_scale_records_the_loss_it_scales_to(scale):
    # the weighted loss grows with the scale: it must neither overflow nor underflow
    cfg = suite_config("helmholtz-adaptive")
    base = run_experiment(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = run_experiment(replace(cfg, rescale_scale=scale))
    assert got.loss * cfg.rescale_scale / scale == pytest.approx(base.loss, rel=1e-4)


def test_auto_rm_resolves_from_forcing():
    cfg = _fast_config(
        name="auto",
        problem={"id": "helmholtz", "lam": 4.0, "solution": "four-tones"},
        patch_counts=(4,),
        features_per_patch=100,
        interior=(200,),
        rm="auto",
        activation="sin",
    )
    from rfm.experiments import _resolve_rm

    rm = _resolve_rm(cfg, make_problem(cfg.problem))
    assert rm == pytest.approx(4.0, rel=0.05)
    assert run_experiment(cfg).rm == rm


def test_a_numeric_rm_is_recorded_as_given():
    assert run_experiment(_fast_config(rm=2.5)).rm == 2.5


@pytest.fixture
def tone_calls(monkeypatch):
    """The dominant_frequencies calls made from an empty memo on."""
    calls = []
    extract = basis.dominant_frequencies

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    monkeypatch.setattr(basis, "dominant_frequencies", counted)
    basis._tones.cache_clear()
    return calls


def test_auto_rm_is_selected_once_per_forcing(tone_calls):
    from rfm.experiments import _resolve_rm

    config = suite_config("helmholtz-adaptive", "sin random Rm=auto")
    first = run_experiment(replace(config, seed=0))
    assert len(tone_calls) == 1
    second = run_experiment(replace(config, seed=1))
    assert len(tone_calls) == 1
    assert second.rm == first.rm

    other = replace(config, problem={**config.problem, "lam": 9.0})
    _resolve_rm(other, make_problem(other.problem))
    assert len(tone_calls) == 2


@pytest.mark.parametrize(
    "suite,want",
    [("helmholtz-adaptive", "0x1.fffffffff4e03p+1"), ("poisson-adaptive", "0x1.921fb54445219p+0")],
)
def test_auto_rm_of_the_shipped_configs_stays_put(suite, want):
    """The values the full Hankel SVD chose; its triangular factor moves
    them only by rounding."""
    from rfm.experiments import _resolve_rm

    config = suite_config(suite, "sin random Rm=auto")
    got = _resolve_rm(config, make_problem(config.problem))
    assert got == pytest.approx(float.fromhex(want), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("suite,axes", [("helmholtz-adaptive", 1), ("poisson-adaptive", 2)])
def test_a_run_resolves_auto_rm_once(monkeypatch, suite, axes):
    """One selection per axis: the record reads rm from the model, not a second resolve."""
    calls = []
    select = experiments.select_rm_from_forcing

    def counted(*args):
        calls.append(args)
        return select(*args)

    monkeypatch.setattr(experiments, "select_rm_from_forcing", counted)
    config = suite_config(suite, "sin random Rm=auto")
    record = run_experiment(config)
    assert len(calls) == axes
    assert record.rm == experiments._resolve_rm(config, make_problem(config.problem))


def test_auto_rm_of_a_2d_config_hits_the_memo_on_its_second_seed(tone_calls):
    config = suite_config("poisson-adaptive", "sin random Rm=auto")
    build_run(replace(config, seed=0))
    # the forcing is symmetric, so both midlines sample the same bytes
    assert len(tone_calls) == 1
    assert basis._tones.cache_info()[:2] == (1, 1)  # (hits, misses)
    build_run(replace(config, seed=1))
    assert len(tone_calls) == 1
    assert basis._tones.cache_info()[:2] == (3, 1)


# ----------------------------------------------------------------------
# command-line interface
# ----------------------------------------------------------------------


def _run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "rfm.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_cli_run_and_exit_codes(tmp_path):
    cfg = _fast_config(seed=3)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    done = _run_cli("run", "--config", str(path), "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert "N=208" in done.stdout and "errors:" in done.stdout
    assert (tmp_path / "out" / "runs.csv").exists()

    bad = _run_cli("run", "--config", str(tmp_path / "missing.json"))
    assert bad.returncode != 0
    assert "error:" in bad.stderr


def test_cli_seed_override(tmp_path):
    cfg = _fast_config(seed=0)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    out = _run_cli("run", "--config", str(path), "--seed", "5")
    assert out.returncode == 0
    assert "seed=5" in out.stdout


def test_cli_run_refuses_a_system_that_would_not_fit(tmp_path, monkeypatch, capsys):
    from rfm import assembly
    from rfm.cli import main

    path = tmp_path / "cfg.json"
    _fast_config().save(path)
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**5)
    assert main(["run", "--config", str(path)]) == 1
    assert "208x200 system needs 0.6 MB" in capsys.readouterr().err


def test_cli_run_refuses_a_dump_that_would_not_fit_before_the_solve(
    tmp_path, monkeypatch, capsys
):
    """The solve of this 1920x1200 system needs 16.7 MB and fits in 20 MB,
    but its dense copy, 18.4 MB, and the blocks it is stacked from do not."""
    from rfm import assembly
    from rfm.cli import main

    def unreachable(*args, **kwargs):
        pytest.fail("the solve ran for a dump that does not fit")

    path = tmp_path / "cfg.json"
    suite_config("poisson-multiscale", "low pou-only").save(path)
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 20 * 10**6)
    monkeypatch.setattr(experiments, "solve_system", unreachable)
    dump = tmp_path / "system.bin"
    assert main(["run", "--config", str(path), "--dump-system", str(dump)]) == 1
    err = capsys.readouterr().err
    assert "1920x1200 system needs 23.4 MB for a dense copy of its matrix" in err
    assert "only 20.0 MB of memory is available" in err
    assert not dump.exists()


def _one_d() -> dict:
    """A 1D config, whose interval ends and patch facets are single points."""
    return load_suite("helmholtz-adaptive")[0].to_dict()


# malformed edits of stokes-exact's first config: id -> (edit, the key the
# error names, a word of the error)
MALFORMED = {
    "problem-key": (lambda cfg: cfg["problem"].update(holez=3), "holez", "unknown"),
    "top-level-key": (lambda cfg: cfg.update(interface_per_edgee=2), "interface_per_edgee", "unknown"),
    "missing-key": (lambda cfg: cfg.pop("boundary"), "boundary", "missing"),
    "missing-boundary-count": (lambda cfg: cfg["boundary"].pop("hole0"), "hole0", "no collocation points"),
    "pou-b-interfaces": (lambda cfg: cfg.update(pou="b"), "interface_per_edge", "must be 0 with pou 'b'"),
    "negative-interface-count": (lambda cfg: cfg.update(interface_per_edge=-1), "interface_per_edge", "integer >= 0"),
    "negative-global-features": (lambda cfg: cfg.update(global_features=-3), "global_features", "integer >= 0"),
    "fractional-features": (lambda cfg: cfg.update(features_per_patch=2.5), "features_per_patch", "integer >= 1"),
    "zero-rescale-scale": (lambda cfg: cfg.update(rescale_scale=0.0), "rescale_scale", "positive and finite"),
    "negative-rescale-scale": (lambda cfg: cfg.update(rescale_scale=-1.0), "rescale_scale", "positive and finite"),
    "infinite-rescale-scale": (lambda cfg: cfg.update(rescale_scale=float("inf")), "rescale_scale", "positive and finite"),
    "negative-rank-tol": (lambda cfg: cfg.update(rank_tol=-1.0), "rank_tol", "[0, 1)"),
    "string-rank-tol": (lambda cfg: cfg.update(rank_tol="0.1"), "rank_tol", "[0, 1)"),
    "bool-rank-tol": (lambda cfg: cfg.update(rank_tol=False), "rank_tol", "[0, 1)"),
    "string-rescale-scale": (lambda cfg: cfg.update(rescale_scale="100"), "rescale_scale", "positive and finite"),
    "bool-rescale-scale": (lambda cfg: cfg.update(rescale_scale=True), "rescale_scale", "positive and finite"),
    "string-rescale-on": (lambda cfg: cfg.update(rescale_on="no"), "rescale_on", "true or false"),
    "numeric-name": (lambda cfg: cfg.update(name=7), "name", "must be a string"),
    "null-suite": (lambda cfg: cfg.update(suite=None), "suite", "must be a string"),
    "list-pou": (lambda cfg: cfg.update(pou=["a"]), "pou", "must be a string"),
    "numeric-activation": (lambda cfg: cfg.update(activation=1), "activation", "must be a string"),
    "bool-feature-mode": (lambda cfg: cfg.update(feature_mode=False), "feature_mode", "must be a string"),
    "zero-eval-count": (lambda cfg: cfg.update(eval_counts=[0]), "eval_counts", "must be positive"),
    "fractional-interior-count": (lambda cfg: cfg.update(interior=[200.7]), "interior", "must be integers"),
    "fractional-patch-count": (lambda cfg: cfg.update(patch_counts=[4.9, 2]), "patch_counts", "must be integers"),
    "fractional-boundary-count": (lambda cfg: cfg["boundary"].update(left=1.5), "boundary", "must be integers"),
    "list-boundary": (lambda cfg: cfg.update(boundary=[10, 10]), "boundary", "must map boundary tags"),
    "interval-end-count": (lambda cfg: cfg.update(_one_d(), boundary={"left": 5, "right": 1}), "left", "0 or 1"),
    "1d-interface-count": (lambda cfg: cfg.update(_one_d(), interface_per_edge=5), "interface_per_edge", "0 or 1"),
    "null-interior": (lambda cfg: cfg.update(interior=None), "interior", "must be integers"),
    "fractional-eval-count": (lambda cfg: cfg.update(eval_counts=[31.5]), "eval_counts", "must be integers"),
    "bool-interior-count": (lambda cfg: cfg.update(interior=[True, 10]), "interior", "must be integers"),
    "nan-rm": (lambda cfg: cfg.update(rm=float("nan")), "rm", "positive finite number"),
    "infinite-rm": (lambda cfg: cfg.update(rm=float("inf")), "rm", "positive finite number"),
    "bool-rm": (lambda cfg: cfg.update(rm=True), "rm", "positive finite number"),
    "overflowing-rm-string": (lambda cfg: cfg.update(rm="1e400"), "rm", "positive finite number"),
    "word-rm": (lambda cfg: cfg.update(rm="fast"), "rm", "positive finite number"),
    "overflowing-rm-integer": (lambda cfg: cfg.update(rm=10**400), "rm", "positive finite number"),
    "three-eval-counts": (lambda cfg: cfg.update(eval_counts=[21, 21, 99]), "eval_counts", "needs 1 or 2 counts"),
    "empty-eval-counts": (lambda cfg: cfg.update(eval_counts=[]), "eval_counts", "needs 1 or 2 counts"),
    "three-interior-counts": (lambda cfg: cfg.update(interior=[10, 10, 10]), "interior", "needs 1 or 2 counts"),
    "empty-interior-counts": (lambda cfg: cfg.update(interior=[]), "interior", "needs 1 or 2 counts"),
    "three-patch-counts": (lambda cfg: cfg.update(patch_counts=[2, 2, 2]), "patch_counts", "needs 1 or 2 counts"),
    "nested-interior-counts": (lambda cfg: cfg.update(interior=[[20], [20]]), "interior", "must be a list of counts"),
    "nested-patch-counts": (lambda cfg: cfg.update(patch_counts=[[2, 2]]), "patch_counts", "must be a list of counts"),
    "bare-interior-count": (lambda cfg: cfg.update(interior=20), "interior", "must be a list of counts"),
    "fractional-seed": (lambda cfg: cfg.update(seed=1.5), "seed", "integer >= 0"),
    "bool-seed": (lambda cfg: cfg.update(seed=True), "seed", "integer >= 0"),
    "negative-seed": (lambda cfg: cfg.update(seed=-1), "seed", "integer >= 0"),
    "word-lam": (lambda cfg: cfg.update(problem={"id": "helmholtz", "lam": "x"}), "lam", "finite number"),
    "bool-lam": (lambda cfg: cfg.update(problem={"id": "helmholtz", "lam": True}), "lam", "finite number"),
    "nan-b-high": (lambda cfg: cfg.update(problem={"id": "poisson", "b_high": float("nan")}), "b_high", "finite number"),
    "fractional-coef-seed": (lambda cfg: cfg.update(problem={"id": "varcoef", "coef_seed": 1.5}), "coef_seed", "integer >= 0"),
    "negative-bound": (lambda cfg: cfg.update(problem={"id": "varcoef", "bound": -2}), "bound", "integer >= 0"),
    "unknown-solution": (lambda cfg: cfg.update(problem={"id": "helmholtz", "solution": "x"}), "solution", "one of"),
    "list-solution": (lambda cfg: cfg.update(problem={"id": "helmholtz", "solution": ["x"]}), "solution", "one of"),
    "malformed-holes": (lambda cfg: cfg.update(problem={"id": "plate", "holes": [1]}), "holes", "[x, y, radius]"),
    "numeric-holes": (lambda cfg: cfg.update(problem={"id": "plate", "holes": 3}), "holes", "[x, y, radius]"),
    "list-problem": (lambda cfg: cfg.update(problem=[1]), "problem", "mapping with a string 'id'"),
    "empty-problem": (lambda cfg: cfg.update(problem={}), "problem", "mapping with a string 'id'"),
    "numeric-problem-id": (lambda cfg: cfg.update(problem={"id": 3}), "problem", "mapping with a string 'id'"),
    "unknown-problem-id": (lambda cfg: cfg.update(problem={"id": "heat"}), "problem", "unknown"),
    "unknown-pou": (lambda cfg: cfg.update(pou="c"), "pou", "one of ["),
    "unknown-activation": (lambda cfg: cfg.update(activation="relu"), "activation", "one of ["),
    "unknown-feature-mode": (lambda cfg: cfg.update(feature_mode="sobol"), "feature_mode", "one of ["),
    "unknown-boundary-tag": (lambda cfg: cfg["boundary"].update(front=4), "boundary", "unknown boundary tags"),
    "missing-side-count": (lambda cfg: cfg["boundary"].pop("top"), "top", "no collocation points"),
    "grid-feature-count": (lambda cfg: cfg.update(feature_mode="equispaced_grid"), "features_per_patch", "G^3"),
    "grid-global-count": (lambda cfg: cfg.update(feature_mode="equispaced_grid", features_per_patch=64, global_features=10), "global_features", "G^3"),
}

# errors that a config's own rules, or build_run's checks against the problem's
# domain, refuse before any feature is drawn
REFUSED_BEFORE_DRAWING = [
    "unknown-pou",
    "unknown-activation",
    "unknown-feature-mode",
    "unknown-boundary-tag",
    "missing-side-count",
    "missing-boundary-count",
    "grid-feature-count",
    "grid-global-count",
    "interval-end-count",
    "1d-interface-count",
    "three-eval-counts",
    "nested-interior-counts",
    "nested-patch-counts",
    "bare-interior-count",
]


def _rejects(tmp_path, capsys, edit, key, word):
    from rfm.cli import main

    cfg = load_suite("stokes-exact")[0].to_dict()
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert word in err and repr(key) in err


@pytest.mark.parametrize("edit,key,word", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_run_rejects_a_malformed_config(tmp_path, capsys, edit, key, word):
    _rejects(tmp_path, capsys, edit, key, word)


@pytest.mark.parametrize("case", REFUSED_BEFORE_DRAWING)
def test_cli_run_rejects_a_malformed_config_before_drawing(tmp_path, monkeypatch, capsys, case):
    """The case exits 1 naming its key with the model's draw made unreachable."""

    def unreachable(*args, **kwargs):
        pytest.fail("features were drawn for a malformed config")

    monkeypatch.setattr(experiments, "build_model", unreachable)
    _rejects(tmp_path, capsys, *MALFORMED[case])


def test_cli_run_refuses_points_that_would_not_fit_before_sampling(tmp_path, monkeypatch, capsys):
    from rfm import assembly
    from rfm.cli import main

    def unreachable(*args, **kwargs):
        pytest.fail("build_collocation ran for points that do not fit")

    cfg = load_suite("helmholtz-adaptive")[0].to_dict()
    cfg["interior"] = [1000000000]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**6)
    monkeypatch.setattr(experiments, "build_collocation", unreachable)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "1000000000-point interior grid and its boundary needs 16000.0 MB" in err
    assert "only 1.0 MB of memory is available" in err


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_sampling_bytes_is_a_lower_bound_on_what_sampling_allocates(suite):
    """Every config that samples within its memory passes the guard: the
    estimate never exceeds the traced peak of the sampling itself."""
    import tracemalloc

    config = load_suite(suite)[0]
    domain = make_problem(config.problem).domain
    tracemalloc.start()
    try:
        domain.sample_interior(config.interior)
        domain.sample_boundary(config.boundary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < domain.sampling_bytes(config.interior, config.boundary) <= peak


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_model_bytes_is_a_lower_bound_on_what_build_model_allocates(suite):
    """Every config whose model fits in memory passes the guard: the estimate
    never exceeds the traced peak of building the model."""
    import tracemalloc

    config = load_suite(suite)[0]
    problem = make_problem(config.problem)
    sampler = basis.FeatureSampler(rm=1.0, mode=config.feature_mode, seed=config.seed)
    args = (problem.domain, config.patch_counts, config.features_per_patch)
    k, glob = problem.n_components, config.global_features
    tracemalloc.start()
    try:
        basis.build_model(*args, sampler, config.pou, config.activation, k, glob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < basis.model_bytes(*args, k, glob) <= peak


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_evaluation_grid_bytes_is_a_lower_bound_on_what_the_grid_allocates(suite):
    import tracemalloc

    from rfm.evaluation import evaluation_grid, evaluation_grid_bytes

    config = load_suite(suite)[0]
    domain = make_problem(config.problem).domain
    counts = experiments._eval_counts(config, domain.dim)
    tracemalloc.start()
    try:
        evaluation_grid(domain, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < evaluation_grid_bytes(domain, counts) <= peak


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_interface_bytes_is_a_lower_bound_on_what_interface_sampling_allocates(suite):
    import tracemalloc

    from rfm.geometry import grid_patch_layout, interface_bytes, sample_interface

    config = load_suite(suite)[0]
    domain = make_problem(config.problem).domain
    grid = grid_patch_layout(domain, config.patch_counts)
    tracemalloc.start()
    try:
        sample_interface(domain, grid, config.interface_per_edge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < interface_bytes(domain, config.patch_counts, config.interface_per_edge) <= peak


def test_cli_run_refuses_interface_points_that_would_not_fit_before_sampling(
    tmp_path, monkeypatch, capsys
):
    """The guard runs before any point is sampled or feature drawn."""
    from rfm import assembly
    from rfm.cli import main

    def unreachable(*args, **kwargs):
        pytest.fail("points were sampled for interface points that do not fit")

    cfg = load_suite("poisson-pou")[0].to_dict()
    cfg["interface_per_edge"] = 10**9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**8)
    monkeypatch.setattr(experiments, "build_model", unreachable)
    monkeypatch.setattr(experiments, "build_collocation", unreachable)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert (
        "sampling 1000000000 points on each facet ('interface_per_edge') of a 2x2 patch grid "
        "needs 160000.0 MB for the interface points, but only 100.0 MB" in err
    )


@pytest.mark.parametrize(
    "suite,scale",
    [
        ("helmholtz-adaptive", 5e-324),
        ("helmholtz-adaptive", 1e-322),
        ("helmholtz-adaptive", 1e307),
        ("poisson-pou", 5e-324),
        ("poisson-pou", 1e307),
    ],
)
def test_cli_run_refuses_a_rescale_scale_that_leaves_the_float_range(tmp_path, capsys, suite, scale):
    """A row weight that is subnormal or zero drops the row's rank, and a
    weighted right-hand side that overflows stops the solve: both are
    refused, naming the key, with no overflow warning."""
    from rfm.cli import main

    cfg = load_suite(suite)[0].to_dict()
    cfg["rescale_scale"] = scale
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'rescale_scale' must keep every row weight" in err and repr(scale) in err


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("features_per_patch", 10**9, "with 1000000000 features each ('features_per_patch')"),
        ("patch_counts", [10**7], "model of 10000000 patches ('patch_counts')"),
    ],
    ids=["features", "patches"],
)
def test_cli_run_refuses_a_model_that_would_not_fit_before_drawing(
    tmp_path, monkeypatch, capsys, key, value, message
):
    """The guard runs before rm is resolved (which lists the patch grid) and
    before any feature is drawn."""
    from rfm import assembly
    from rfm.cli import main

    def unreachable(*args, **kwargs):
        pytest.fail("the model was built for features that do not fit")

    cfg = load_suite("helmholtz-adaptive")[0].to_dict()
    cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**8)
    monkeypatch.setattr(experiments, "_resolve_rm", unreachable)
    monkeypatch.setattr(experiments, "build_model", unreachable)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "for its features and patches, but only 100.0 MB of memory is available" in err


def test_cli_run_refuses_an_evaluation_grid_that_would_not_fit_before_the_solve(
    tmp_path, monkeypatch, capsys
):
    from rfm import assembly
    from rfm.cli import main

    def unreachable(*args, **kwargs):
        pytest.fail("the solve ran for an evaluation grid that does not fit")

    cfg = load_suite("helmholtz-adaptive")[0].to_dict()
    cfg["eval_counts"] = [10**9]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(assembly, "available_memory_bytes", lambda: 10**8)
    monkeypatch.setattr(experiments, "solve_system", unreachable)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "a 1000000000-point evaluation grid ('eval_counts') needs 40000.0 MB" in err


def test_cli_run_applies_one_eval_count_to_every_axis(tmp_path, capsys):
    from rfm.cli import main

    config = replace(load_suite("stokes-exact")[0], eval_counts=(31,))
    path = tmp_path / "cfg.json"
    config.save(path)
    assert main(["run", "--config", str(path)]) == 0
    both = replace(config, eval_counts=(31, 31))
    assert run_experiment(config).errors == run_experiment(both).errors


@pytest.mark.parametrize("suite,name", [("stokes-exact", None), ("timoshenko", "M=800 Q=1600")])
def test_cli_config_prints_a_suite_config_that_round_trips(capsys, suite, name):
    from rfm.cli import main

    argv = ["config", "--suite", suite] + ([] if name is None else ["--name", name])
    assert main(argv) == 0
    configs = load_suite(suite)
    want = configs[0] if name is None else {c.name: c for c in configs}[name]
    assert ExperimentConfig.from_json(capsys.readouterr().out) == want


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--suite", "bogus"], "unknown suite 'bogus'"),
        (["--suite", "stokes-exact", "--name", "bogus"], "unknown config 'bogus'"),
    ],
    ids=["suite", "name"],
)
def test_cli_config_rejects_an_unknown_suite_or_name(capsys, argv, message):
    from rfm.cli import main

    assert main(["config", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


TABLE_HEAD = [
    "suite", "M", "N", "solved_rows", "solved_cols", "seed_count", "err_u_linf", "err_u_l2rel"
]
TABLE_TAIL = ["rank", "loss", "wall_time_s", "label"]


@pytest.mark.parametrize(
    "suite,errors",
    [
        ("helmholtz-pou", []),
        ("stokes-exact", ["err_v_linf", "err_v_l2rel", "err_p_linf", "err_p_l2rel"]),
    ],
)
def test_cli_table_prints_every_column_a_config_fills(capsys, suite, errors):
    from rfm.cli import main

    assert main(["table", "--suite", suite, "--seeds", "1"]) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    assert head.split("\t") == TABLE_HEAD + errors + TABLE_TAIL
    assert len(rows) == len(load_suite(suite))
    assert all(len(row.split("\t")) == len(TABLE_HEAD + errors + TABLE_TAIL) for row in rows)


def test_cli_table_unknown_suite_fails():
    out = _run_cli("table", "--suite", "bogus")
    assert out.returncode != 0
    assert "bogus" in out.stderr


def test_cli_run_prints_the_thread_count(tmp_path):
    path = tmp_path / "cfg.json"
    _fast_config().save(path)
    out = _run_cli("run", "--config", str(path), env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert out.returncode == 0, out.stderr
    assert " rm=1 threads=1\n" in out.stdout
