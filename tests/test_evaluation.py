"""Error reports, self-convergence distances, and spectral error profiles."""

import numpy as np
import pytest

from rfm.basis import FeatureSampler, build_model
from rfm.evaluation import (
    _group_errors,
    evaluate_error,
    evaluation_grid,
    fourier_error_profile,
    low_frequency_energy,
    self_convergence,
)
from rfm.experiments import load_suite, run_experiment
from rfm.geometry import Hole, box, interval
from rfm.problems import make_helmholtz_1d

RNG = np.random.default_rng(17)


def _tiny_model(seed=0):
    dom = interval(0.0, 8.0)
    sampler = FeatureSampler(rm=1.0, mode="uniform_random", seed=seed)
    return build_model(dom, 2, 8, sampler, pou="b")


def test_evaluation_grid_covers_closure_and_filters_holes():
    dom = box((0.0, 0.0), (1.0, 1.0), holes=(Hole((0.5, 0.5), 0.2),))
    pts = evaluation_grid(dom, (21, 21))
    assert [0.0, 0.0] in pts.tolist() and [1.0, 1.0] in pts.tolist()
    # closure: hole interior is excluded, its rim is kept
    assert np.all(np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) >= 0.2 - 1e-9)
    full = evaluation_grid(box((0.0, 0.0), (1.0, 1.0)), (21, 21))
    assert len(full) == 441


def test_evaluate_error_linf_matches_manual_computation():
    problem = make_helmholtz_1d()
    model = _tiny_model()
    coef = np.zeros(model.n_columns)
    pts = evaluation_grid(problem.domain, 101)
    report = evaluate_error(model, coef, problem, counts=101)
    exact = problem.exact(pts)[:, 0]
    assert report.components[0].linf == pytest.approx(np.abs(exact).max())
    assert report.components[0].l2_rel == pytest.approx(1.0)
    assert report.n_points == 101


@pytest.mark.parametrize("how", ["counts", "points"])
def test_evaluate_error_refuses_an_empty_point_set(how):
    problem = make_helmholtz_1d()
    model = _tiny_model()
    coef = np.zeros(model.n_columns)
    kwargs = {"counts": 0} if how == "counts" else {"points": np.zeros((0, 1))}
    with pytest.raises(ValueError, match="no evaluation points"):
        evaluate_error(model, coef, problem, **kwargs)


def test_self_convergence_table_with_derivatives():
    m1, m2, m3 = _tiny_model(1), _tiny_model(2), _tiny_model(3)
    c1 = RNG.standard_normal(m1.n_columns)
    c2 = RNG.standard_normal(m2.n_columns)
    c3 = RNG.standard_normal(m3.n_columns)
    pts = np.linspace(0.2, 7.8, 64)[:, None]
    table = self_convergence([(m1, c1), (m2, c2)], (m3, c3), pts, derivatives=True)
    assert len(table) == 2
    assert set(table[0]) == {"u", "u_x0"}
    ref_val = m3.eval(c3, pts)[:, 0]
    want = np.linalg.norm(m1.eval(c1, pts)[:, 0] - ref_val) / np.linalg.norm(ref_val)
    assert table[0]["u"] == pytest.approx(want, rel=1e-12)
    # the reference compared against itself is exactly zero
    zero = self_convergence([(m3, c3)], (m3, c3), pts, derivatives=True)
    assert zero[0]["u"] == 0.0 and zero[0]["u_x0"] == 0.0


def test_fourier_profile_satisfies_parseval():
    grid = RNG.standard_normal((64, 64))
    _, energy = fourier_error_profile(grid)
    assert energy.sum() == pytest.approx(np.mean(grid**2), rel=1e-10)
    grid1d = RNG.standard_normal(256)
    _, energy1d = fourier_error_profile(grid1d)
    assert energy1d.sum() == pytest.approx(np.mean(grid1d**2), rel=1e-10)


def test_fourier_profile_localizes_a_pure_tone():
    n = 128
    x = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    field = np.sin(2 * np.pi * 3 * xx) * np.cos(2 * np.pi * 4 * yy)
    ks, energy = fourier_error_profile(field)
    # radial frequency sqrt(3^2+4^2) = 5 exactly
    assert int(np.argmax(energy)) == 5
    assert energy[5] / energy.sum() > 0.999


def test_low_frequency_energy_gate():
    n = 128
    x = (np.arange(n) + 0.5) / n
    xx = np.meshgrid(x, x, indexing="ij")[0]
    low = np.sin(2 * np.pi * 1 * xx)
    high = np.sin(2 * np.pi * 20 * xx)
    assert low_frequency_energy(low, kmax=3) > 100 * low_frequency_energy(high, kmax=3)
    # for the low-frequency field nearly all energy sits in the gate
    assert low_frequency_energy(low, kmax=3) == pytest.approx(np.mean(low**2), rel=1e-6)


def test_near_zero_reference_is_measured_against_its_group_scale():
    big = np.array([3.0, -4.0])  # norm 5
    noise = np.array([1e-13, -1e-13])  # zero up to rounding
    got = [big + 0.01, noise + 0.01]
    errs = _group_errors(got, [big, noise])
    want = np.linalg.norm([0.01, 0.01]) / 5.0
    assert errs[0].l2_rel == pytest.approx(want, rel=1e-12)
    assert errs[1].l2_rel == pytest.approx(want, rel=1e-12)
    # a group of zero references reports absolute error
    (zero,) = _group_errors([np.array([0.0, 0.5])], [np.zeros(2)])
    assert zero.l2_rel == 0.5


def test_beam_sy_l2rel_is_not_divided_by_rounding_noise():
    # the exact sigma_y of the beam is 0; its reference norm is about 1e-13
    config = {c.name: c for c in load_suite("timoshenko")}["M=800 Q=1600"]
    record = run_experiment(config)
    assert record.errors["sy_l2rel"] <= 1e-6
    assert record.errors["sx_l2rel"] <= 1e-6
