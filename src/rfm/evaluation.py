"""Error measurement on reference grids, plus spectral error profiles."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from types import SimpleNamespace

import numpy as np

from .basis import RfmModel
from .geometry import Domain, axis_counts, cell_centres, grid_points
from .problems import PdeProblem


def evaluation_grid(
    domain: Domain, counts: int | tuple[int, ...]
) -> np.ndarray:
    """Uniform grid over the bounding box filtered to the domain closure.

    Unlike collocation sampling this includes boundary-adjacent points, so
    the reported error covers the whole closed domain.  ``counts`` follows
    ``axis_counts``.
    """
    counts = axis_counts(counts, domain.dim, "eval_counts")
    lo, hi = domain.bounds
    pts = grid_points([np.linspace(lo[a], hi[a], counts[a]) for a in range(domain.dim)])
    return pts[domain.contains(pts)]


def evaluation_grid_bytes(domain: Domain, counts: int | tuple[int, ...]) -> int:
    """A lower bound on the peak bytes of ``evaluation_grid(domain, counts)``,
    computed without building it.

    Every grid point is held at once, before the points outside the domain
    are dropped: first by the meshgrid and its stacked copy, d + d floats a
    point, then by the stacked copy with the point's distance to each of the
    S boundary segments and the (S, points) array their minimum is taken
    over, d + 2S floats a point.  The mask comes after both.
    """
    d, s = domain.dim, len(domain.segments)
    return 8 * max(2 * d, d + 2 * s) * prod(axis_counts(counts, d, "eval_counts"))


@dataclass(frozen=True)
class ComponentError:
    """Error of one solution component against a reference field."""

    linf: float
    l2_rel: float


@dataclass(frozen=True)
class ErrorReport:
    """Per-component errors, and stress errors when the problem has elastic
    constants (rows of ``ElasticityConstants.stress``)."""

    components: tuple[ComponentError, ...]
    stresses: tuple[ComponentError, ...] = ()
    n_points: int = 0


# A reference field whose norm is below this fraction of the largest norm in
# its group (the solution components, or the stresses) is zero up to
# rounding: the beam's exact sigma_y is 0 analytically and about 1e-13 as
# computed.  Its error is taken relative to the group's largest norm instead.
ZERO_REFERENCE_RATIO = 1e-8


def _floored(scales: list[float]) -> list[float]:
    top = max(scales)
    return [top if s < ZERO_REFERENCE_RATIO * top else s for s in scales]


def _group_errors(got, ref) -> tuple[ComponentError, ...]:
    """Errors of each field of a group against its reference field.

    ``got`` and ``ref`` hold one 1-D field per entry (the rows of a
    transposed (P, K) array, or a tuple of arrays).

    A reference that is identically zero in a group whose references are
    all zero falls back to absolute error.
    """
    scales = _floored([float(np.linalg.norm(r)) for r in ref])
    out = []
    for g, r, scale in zip(got, ref, scales):
        diff = g - r
        linf = float(np.abs(diff).max()) if len(diff) else 0.0
        l2 = float(np.linalg.norm(diff))
        out.append(ComponentError(linf=linf, l2_rel=l2 / scale if scale > 0 else l2))
    return tuple(out)


def evaluate_error(
    model: RfmModel,
    coefficients: np.ndarray,
    problem: PdeProblem,
    counts: int | tuple[int, ...] = 101,
) -> ErrorReport:
    """Compare a solved model against the problem's exact solution on
    ``evaluation_grid(problem.domain, counts)``.  With elastic constants the
    stencil ``constants.stress`` is applied to both, the model's derivatives
    taken with its values from one ``eval_many`` call."""
    if problem.exact is None:
        raise ValueError("problem has no exact solution to compare against")
    pts = evaluation_grid(problem.domain, counts)
    if len(pts) == 0:
        raise ValueError("no evaluation points: an error over zero points is undefined")
    value = (0,) * model.dim
    stress = None if problem.constants is None else problem.constants.stress
    terms = () if stress is None else stress.terms
    got = model.eval_many(coefficients, pts, sorted({value, *(t.alpha for t in terms)}))
    comps = _group_errors(got[value].T, problem.exact(pts).T)
    stresses: tuple[ComponentError, ...] = ()
    if stress is not None:
        solved = SimpleNamespace(deriv=lambda comp, _, alpha: got[alpha][:, comp])
        got_s = stress.apply_to_exact(solved, pts)
        stresses = _group_errors(got_s.T, stress.apply_to_exact(problem.exact, pts).T)
    return ErrorReport(components=comps, stresses=stresses, n_points=len(pts))


def self_convergence(
    runs: list[tuple[RfmModel, np.ndarray]],
    reference: tuple[RfmModel, np.ndarray],
    points: np.ndarray,
    derivatives: bool = False,
) -> list[dict[str, float]]:
    """Relative L2 distance of each run to the finest run, per component.

    With ``derivatives=True`` the first partial derivatives are compared as
    well (keys ``u_x0``, ``u_x1``, ...), which is how a coefficient-field
    problem without an exact solution is judged.
    """
    ref_model, ref_coef = reference
    dim = ref_model.dim
    alphas: list[tuple[int, ...]] = [(0,) * dim]
    if derivatives:
        for axis in range(dim):
            alphas.append(tuple(1 if a == axis else 0 for a in range(dim)))

    def labels(alpha, k):
        comp = "u" if ref_model.n_components == 1 else f"c{k}"
        if sum(alpha) == 0:
            return comp
        return f"{comp}_x{alpha.index(1)}"

    ref_vals = ref_model.eval_many(ref_coef, points, alphas)
    table = []
    for model, coef in runs:
        got = model.eval_many(coef, points, alphas)
        row: dict[str, float] = {}
        for a in alphas:
            errs = _group_errors(got[a].T, ref_vals[a].T)
            for k, err in enumerate(errs):
                row[labels(a, k)] = err.l2_rel
        table.append(row)
    return table


# ----------------------------------------------------------------------
# spectral error profile
# ----------------------------------------------------------------------


def fourier_error_profile(err_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radially binned spectral energy of a uniformly sampled error field.

    The field is taken as one period per axis; energy in bin k collects all
    Fourier modes whose integer radial frequency rounds to k.  The bins sum
    to the mean-square of the field (Parseval).
    """
    err_grid = np.asarray(err_grid, float)
    f = np.fft.fftn(err_grid) / err_grid.size
    power = np.abs(f) ** 2
    freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in err_grid.shape]
    mesh = np.meshgrid(*freqs, indexing="ij")
    radius = np.round(np.sqrt(sum(m**2 for m in mesh))).astype(int)
    kmax = radius.max()
    energy = np.bincount(radius.ravel(), weights=power.ravel(), minlength=kmax + 1)
    return np.arange(kmax + 1), energy


# Radial frequency bins that count as low in low_frequency_energy.
LOW_FREQUENCY_KMAX = 3


def low_frequency_energy(err_grid: np.ndarray) -> float:
    """Total spectral energy of an error field in bins |k| <= LOW_FREQUENCY_KMAX."""
    _, energy = fourier_error_profile(err_grid)
    return float(energy[: LOW_FREQUENCY_KMAX + 1].sum())


# Points per axis of error_field_on_grid.
ERROR_FIELD_N = 128


def error_field_on_grid(
    model: RfmModel, coefficients: np.ndarray, problem: PdeProblem
) -> np.ndarray:
    """Pointwise error of the first component on an ERROR_FIELD_N^d
    cell-centered grid (for spectral analysis).

    Cell centers avoid double-counting the periodic endpoint, which keeps
    the FFT binning honest; the domain must be a box for this to make sense.
    """
    n = ERROR_FIELD_N
    lo, hi = problem.domain.bounds
    pts = grid_points([cell_centres(lo[a], hi[a], n) for a in range(problem.domain.dim)])
    e = model.eval(coefficients, pts)[:, 0] - problem.exact(pts)[:, 0]
    return e.reshape((n,) * problem.domain.dim)
