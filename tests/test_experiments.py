"""Config round trips, suite integrity, the end-to-end runner, CSV/snapshot
outputs, and the command-line interface."""

import copy
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
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
)


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


def test_config_validation_rejects_bad_counts():
    with pytest.raises(ValueError):
        _fast_config(interior=(0,))
    with pytest.raises(ValueError):
        _fast_config(features_per_patch=-5)
    with pytest.raises(ValueError):
        _fast_config(rm=-1.0)


def test_make_problem_dispatch_covers_all_ids():
    specs = [
        {"id": "helmholtz"},
        {"id": "helmholtz", "solution": "four-tones"},
        {"id": "poisson", "a_low": 0.5, "b_high": 0.5},
        {"id": "beam"},
        {"id": "plate"},
        {"id": "stokes"},
        {"id": "channel"},
        {"id": "varcoef", "coef_seed": 1, "bound": 2},
    ]
    dims = []
    for params in specs:
        prob = make_problem(params)
        dims.append(prob.domain.dim)
    assert dims == [1, 1, 2, 2, 2, 2, 2, 2]
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
        "suite", "M", "N", "seed_count",
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


def test_run_experiment_dumps_the_system_before_the_solve_releases_it(tmp_path):
    """On a config whose solve compresses, and so frees, tall row groups,
    the dump is still the whole assembled and rescaled system."""
    from rfm.assembly import assemble, load_system_dump

    config = {c.name: c for c in load_suite("poisson-multiscale")}["low pou-only"]
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
    twin = copy.deepcopy(base)  # a solve releases the system it solves
    x10, rep10 = solve_system(base.rescale(10.0), None)
    x100, rep100 = solve_system(twin.rescale(100.0), None)
    assert rep10.rank == model.n_columns  # full rank precondition
    assert rep100.rank == rep10.rank
    assert np.allclose(x10, x100, rtol=0, atol=1e-10 * np.linalg.norm(x10))


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


def _suite_config(suite: str, name: str) -> ExperimentConfig:
    return {c.name: c for c in load_suite(suite)}[name]


def test_auto_rm_is_selected_once_per_forcing(tone_calls):
    from rfm.experiments import _resolve_rm

    config = _suite_config("helmholtz-adaptive", "sin random Rm=auto")
    first = run_experiment(replace(config, seed=0))
    assert len(tone_calls) == 1
    second = run_experiment(replace(config, seed=1))
    assert len(tone_calls) == 1
    assert second.rm == first.rm

    other = replace(config, problem={**config.problem, "lam": 9.0})
    _resolve_rm(other, make_problem(other.problem))
    assert len(tone_calls) == 2


@pytest.mark.parametrize("suite,axes", [("helmholtz-adaptive", 1), ("poisson-adaptive", 2)])
def test_a_run_resolves_auto_rm_once(monkeypatch, suite, axes):
    """One selection per axis: the record reads rm from the model, not a second resolve."""
    calls = []
    select = experiments.select_rm_from_forcing

    def counted(*args):
        calls.append(args)
        return select(*args)

    monkeypatch.setattr(experiments, "select_rm_from_forcing", counted)
    config = _suite_config(suite, "sin random Rm=auto")
    record = run_experiment(config)
    assert len(calls) == axes
    assert record.rm == experiments._resolve_rm(config, make_problem(config.problem))


def test_auto_rm_of_a_2d_config_hits_the_memo_on_its_second_seed(tone_calls):
    config = _suite_config("poisson-adaptive", "sin random Rm=auto")
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
    assert "208x200 system needs 0.4 MB" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit,key,word",
    [
        (lambda cfg: cfg["problem"].update(holez=3), "holez", "unknown"),
        (lambda cfg: cfg.update(interface_per_edgee=2), "interface_per_edgee", "unknown"),
        (lambda cfg: cfg.pop("boundary"), "boundary", "missing"),
        (lambda cfg: cfg["boundary"].pop("hole0"), "hole0", "no collocation points"),
        (lambda cfg: cfg.update(pou="b"), "interface_per_edge", "must be 0 with pou 'b'"),
        (lambda cfg: cfg.update(interface_per_edge=-1), "interface_per_edge", "integer >= 0"),
        (lambda cfg: cfg.update(global_features=-3), "global_features", "integer >= 0"),
        (lambda cfg: cfg.update(features_per_patch=2.5), "features_per_patch", "integer >= 1"),
        (lambda cfg: cfg.update(rescale_scale=0.0), "rescale_scale", "positive and finite"),
        (lambda cfg: cfg.update(rescale_scale=-1.0), "rescale_scale", "positive and finite"),
        (lambda cfg: cfg.update(rescale_scale=float("inf")), "rescale_scale", "positive and finite"),
        (lambda cfg: cfg.update(rank_tol=-1.0), "rank_tol", "[0, 1)"),
        (lambda cfg: cfg.update(eval_counts=[0]), "eval_counts", "must be positive"),
        (lambda cfg: cfg.update(interior=[200.7]), "interior", "must be integers"),
        (lambda cfg: cfg.update(patch_counts=[4.9, 2]), "patch_counts", "must be integers"),
        (lambda cfg: cfg["boundary"].update(left=1.5), "boundary", "must be integers"),
        (lambda cfg: cfg.update(eval_counts=[31.5]), "eval_counts", "must be integers"),
        (lambda cfg: cfg.update(interior=[True, 10]), "interior", "must be integers"),
        (lambda cfg: cfg.update(rm=float("nan")), "rm", "positive finite number"),
        (lambda cfg: cfg.update(rm=float("inf")), "rm", "positive finite number"),
        (lambda cfg: cfg.update(rm=True), "rm", "positive finite number"),
        (lambda cfg: cfg.update(rm="1e400"), "rm", "positive finite number"),
        (lambda cfg: cfg.update(rm="fast"), "rm", "positive finite number"),
        (lambda cfg: cfg.update(rm=10**400), "rm", "positive finite number"),
    ],
    ids=[
        "problem-key",
        "top-level-key",
        "missing-key",
        "missing-boundary-count",
        "pou-b-interfaces",
        "negative-interface-count",
        "negative-global-features",
        "fractional-features",
        "zero-rescale-scale",
        "negative-rescale-scale",
        "infinite-rescale-scale",
        "negative-rank-tol",
        "zero-eval-count",
        "fractional-interior-count",
        "fractional-patch-count",
        "fractional-boundary-count",
        "fractional-eval-count",
        "bool-interior-count",
        "nan-rm",
        "infinite-rm",
        "bool-rm",
        "overflowing-rm-string",
        "word-rm",
        "overflowing-rm-integer",
    ],
)
def test_cli_run_rejects_a_malformed_config(tmp_path, capsys, edit, key, word):
    from rfm.cli import main

    cfg = load_suite("stokes-exact")[0].to_dict()
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert word in err and repr(key) in err


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


def test_cli_table_unknown_suite_fails():
    out = _run_cli("table", "--suite", "bogus")
    assert out.returncode != 0
    assert "bogus" in out.stderr


def test_cli_rejects_bad_thread_env(tmp_path):
    cfg = _fast_config()
    path = tmp_path / "cfg.json"
    cfg.save(path)
    env = dict(os.environ, RFM_THREADS="zero")
    out = _run_cli("run", "--config", str(path), env=env)
    assert out.returncode != 0


@pytest.mark.parametrize(
    "environ,want",
    [
        ({}, {}),
        ({"OPENBLAS_NUM_THREADS": "2"}, {}),
        (
            {"RFM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "4"},
            {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"},
        ),
        (
            {"RFM_THREADS": "4", "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "0",
             "MKL_NUM_THREADS": "2,1"},
            {"OMP_NUM_THREADS": "4", "OPENBLAS_NUM_THREADS": "2",
             "MKL_NUM_THREADS": "4", "NUMEXPR_NUM_THREADS": "4"},
        ),
    ],
    ids=["unset", "no-cap", "lowers-inherited", "keeps-lower-replaces-invalid"],
)
def test_rfm_threads_caps_every_thread_variable(environ, want):
    from rfm.cli import _thread_env

    assert _thread_env(environ) == want


@pytest.mark.parametrize("value", ["0", "-1"])
def test_rfm_threads_must_be_a_positive_integer(value):
    from rfm.cli import _thread_env

    with pytest.raises(SystemExit, match="positive integer"):
        _thread_env({"RFM_THREADS": value})


def test_cli_run_prints_the_thread_count(tmp_path):
    path = tmp_path / "cfg.json"
    _fast_config().save(path)
    out = _run_cli("run", "--config", str(path), env=dict(os.environ, RFM_THREADS="1"))
    assert out.returncode == 0, out.stderr
    assert " rm=1 threads=1\n" in out.stdout
