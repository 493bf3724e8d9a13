"""Linear PDE problems as collocation stencils plus manufactured data.

A problem couples an interior operator (conditions applied at every
interior point), one boundary stencil per group of boundary segments, and
optional pointwise pins (e.g. fixing the pressure at one corner); all three
are the same ``Stencil`` type, applied at different point sets.  When an
exact solution with closed-form derivatives is attached, forcing and
boundary data are generated by applying the stencils to it, so the same
machinery serves manufactured-solution verification and real data.

Each manufactured solution is stated once, as a value, in one separable
form (``ManufacturedSolution``): per component, a sum of products of
one-axis factors, each factor a sum of terms c t^p g(omega t + phi) with g
cos or exp.  Tone sums, polynomials and the holed plate's field are all
written this way, and derivatives of any order are derived from it.

``PROBLEMS`` maps each config ``problem`` id to the factory that builds it.
A factory's keyword arguments are exactly that id's config keys, and the
factory (or the object it builds) checks each one, so a library call and a
config get the same ValueError, naming the key as the config spells it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from math import comb, isqrt, perm
from typing import Callable

import numpy as np

from . import basis
from .geometry import Domain, Hole, available_memory_bytes, box, disk, interval


def _is_real(value) -> bool:
    """Whether ``value`` is an int or a float; a bool is not."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )


def _is_integral(count) -> bool:
    """Whether ``count`` is an integer, or a float with an integral value; a
    bool is not."""
    return _is_real(count) and (isinstance(count, (int, np.integer)) or float(count).is_integer())


def _is_finite(value) -> bool:
    """Whether ``value`` is a number within the float range; a bool is not."""
    return _is_real(value) and abs(value) <= sys.float_info.max


def _require(ok: bool, key: str, what: str, value) -> None:
    """A ValueError naming ``key``, as a config spells it, unless ``ok``."""
    if not ok:
        raise ValueError("%r must be %s, got %r" % (key, what, value))


# ----------------------------------------------------------------------
# stencils
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One addend c(x) * D^alpha u_comp contributing to condition ``row``."""

    row: int
    comp: int
    alpha: tuple[int, ...]
    coeff: float | Callable

    def coeff_at(self, points: np.ndarray, normals: np.ndarray | None = None) -> np.ndarray:
        if callable(self.coeff):
            got = self.coeff(points) if normals is None else self.coeff(points, normals)
            return np.asarray(got, float)
        return np.full(len(points), float(self.coeff))


@dataclass(frozen=True)
class Stencil:
    """n_rows linear combinations of derivatives, applied at each point of a set.

    A stencil with ``tags`` holds the boundary conditions on those segments:
    its terms have |alpha| <= 1 and their coefficients take the outward
    normals as a second argument.  A stencil without tags is the interior
    operator, a pin, or the interface continuity stencil, with |alpha| <= 2;
    the interface stencil is fed the facet normals, and assembly adds its
    lower patch's block with + and its upper patch's with -.
    """

    terms: tuple[Term, ...]
    n_rows: int
    n_components: int
    dim: int
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        order = 1 if self.tags else 2
        for t in self.terms:
            if len(t.alpha) != self.dim or sum(t.alpha) > order:
                raise ValueError(
                    "%s terms must have |alpha| <= %d in dim %d"
                    % ("boundary" if self.tags else "operator", order, self.dim)
                )
            if not (0 <= t.row < self.n_rows and 0 <= t.comp < self.n_components):
                raise ValueError("term indices out of range")

    def alphas_for(self, comp: int) -> list[tuple[int, ...]]:
        return sorted({t.alpha for t in self.terms if t.comp == comp})

    def apply_to_exact(
        self,
        exact: "ManufacturedSolution",
        points: np.ndarray,
        normals: np.ndarray | None = None,
    ) -> np.ndarray:
        out = np.zeros((len(points), self.n_rows))
        for t in self.terms:
            out[:, t.row] += t.coeff_at(points, normals) * exact.deriv(t.comp, points, t.alpha)
        return out


# ----------------------------------------------------------------------
# manufactured solutions
# ----------------------------------------------------------------------


class ManufacturedSolution:
    """Closed-form solution whose every component is a sum of separable parts.

    ``components`` holds, per component, a list of ``(scale, factors)``
    parts, one factor per axis: the component is
    sum scale * prod_axis f_axis(x_axis).  Each one-axis factor f is a
    tuple of terms, summed, each term c t^p g(omega t + phi) given as
    ``(c, p)``, ``(c, p, omega, phi)`` (g = cos) or
    ``(c, p, omega, phi, "exp")``; omega = 0 makes it the bare monomial
    c t^p.  D^alpha differentiates each factor alpha_axis times along its
    own axis, and D^k of a term follows from the Leibniz rule, so
    derivatives of every order are derived (stencils use |alpha| <= 2).
    """

    def __init__(self, components):
        self.components = tuple(tuple(_part(*part) for part in parts) for parts in components)
        self.n_components = len(self.components)

    def deriv(self, comp: int, points: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
        cols = tuple(np.atleast_2d(points).T)
        out = np.zeros(len(cols[0]))
        for scale, factors in self.components[comp]:
            # a bare-monomial factor is stored as its power (see _part): its
            # derivative is a scalar, taken first so a vanishing part costs nothing
            value = scale
            for f, k in zip(factors, alpha):
                if type(f) is int:
                    value *= perm(f, k)
            if not value:
                continue
            for t, f, k in zip(cols, factors, alpha):
                if type(f) is not int:
                    value = value * _axis_deriv(f, t, k)
                elif f > k:
                    value = value * t ** (f - k)
            out += value
        return out

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(points)
        zero = (0,) * points.shape[1]
        return np.column_stack(
            [self.deriv(c, points, zero) for c in range(self.n_components)]
        )


def _term(c, p, omega=0.0, phi=0.0, g="cos") -> tuple:
    """One term c t^p g(omega t + phi); omega = 0 makes it the bare monomial c t^p."""
    return float(c), int(p), float(omega), float(phi), g


def _part(scale, factors) -> tuple:
    """A part with every term as (c, p, omega, phi, g); a factor that is one
    bare monomial c t^p is kept as the power p, c folded into the scale."""
    axes = []
    for f in factors:
        terms = tuple(_term(*t) for t in f)
        if len(terms) == 1 and not terms[0][2]:
            scale *= terms[0][0]
            axes.append(terms[0][1])
        else:
            axes.append(terms)
    return scale, tuple(axes)


def _axis_deriv(terms, t: np.ndarray, k: int) -> np.ndarray:
    """D^k of sum c t^p g(omega t + phi): sum_j C(k,j) perm(p,k-j) t^(p-k+j) omega^j g^(j)."""
    out = np.zeros_like(t)
    for c, p, w, phi, g in terms:
        if not w:
            if p >= k:
                out += c * perm(p, k) * t ** (p - k)
            continue
        s = w * t + phi
        if not p:  # a pure tone or exponential: the sum keeps only j = k
            out += c * w**k * (np.cos(s + k * np.pi / 2.0) if g == "cos" else np.exp(s))
            continue
        e = np.exp(s) if g == "exp" else None
        for j in range(max(0, k - p), k + 1):
            dg = np.cos(s + j * np.pi / 2.0) if e is None else e
            coeff = c * comb(k, j) * perm(p, k - j) * w**j
            out += coeff * dg if p == k - j else coeff * t ** (p - k + j) * dg
    return out


def _polynomial(coeffs: dict) -> list:
    """Parts of a polynomial given as ``{powers: coefficient}``."""
    return [(c, tuple(((1.0, p),) for p in powers)) for powers, c in coeffs.items()]


def _tones(amps, freqs, phases) -> tuple:
    """One factor sum_j amp_j cos(freq_j t + phase_j)."""
    return tuple((a, 0, w, p) for a, w, p in zip(amps, freqs, phases))


def wave_product_1d() -> ManufacturedSolution:
    """sin(3 pi x + 3 pi/20) cos(2 pi x + pi/10) + 2.

    Stored through the identity sin A cos B = (sin(A+B) + sin(A-B))/2 as the
    tone sum sin(5 pi x + pi/4)/2 + sin(pi x + pi/20)/2 + 2, with each
    sin(t) written as cos(t - pi/2).
    """
    tones = _tones((0.5, 0.5), (5 * np.pi, np.pi), (-np.pi / 4, np.pi / 20 - np.pi / 2))
    return ManufacturedSolution([[(1.0, (tones,))] + _polynomial({(0,): 2.0})])


def four_tones_1d() -> ManufacturedSolution:
    """Four incommensurate tones (frequencies 4, sqrt5, sqrt3, 1) plus 2."""
    s5, s3 = np.sqrt(5.0), np.sqrt(3.0)
    tones = _tones(
        amps=(4.0, 5.0, 2.0, 3.0),
        freqs=(4.0, s5, s3, 1.0),
        phases=(0.6, s5 * 0.35 - np.pi / 2, s3 * 0.05 - np.pi / 2, 0.85 - np.pi / 2),
    )
    return ManufacturedSolution([[(1.0, (tones,))] + _polynomial({(0,): 2.0})])


SOLUTIONS_1D = {"wave-product": wave_product_1d, "four-tones": four_tones_1d}


def two_band_2d(a_low: float = 1.0, b_high: float = 0.0) -> ManufacturedSolution:
    """Separable waves with a low band (freq pi, 2pi) and a doubled band."""
    for key, value in (("a_low", a_low), ("b_high", b_high)):
        _require(_is_finite(value), key, "a finite number", value)
    g1 = _tones((1.5, 2.0), (np.pi, 2 * np.pi), (2 * np.pi / 5, -np.pi / 5))
    g2 = _tones((1.5, 2.0), (2 * np.pi, 4 * np.pi), (4 * np.pi / 5, -2 * np.pi / 5))
    return ManufacturedSolution([[(-a, (g, g)) for a, g in ((a_low, g1), (b_high, g2)) if a]])


def beam_solution(length=10.0, depth=10.0, load=1000.0, e=3e7, nu=0.3) -> ManufacturedSolution:
    """Cantilever beam under end shear (plane stress), displacement (u, v).

    With c = load / (6 E I) and I = depth^3 / 12:
    u = -c y ((6L - 3x) x + (2 + nu)(y^2 - D^2/4)),
    v = c (3 nu y^2 (L - x) + (4 + 5 nu) D^2 x / 4 + (3L - x) x^2).
    """
    L, D, c = length, depth, load / (6.0 * e * (depth**3 / 12.0))
    u = {
        (1, 1): -6 * c * L, (2, 1): 3 * c,
        (0, 3): -c * (2 + nu), (0, 1): c * (2 + nu) * D * D / 4,
    }
    v = {
        (0, 2): 3 * c * nu * L, (1, 2): -3 * c * nu,
        (1, 0): c * (4 + 5 * nu) * D * D / 4, (2, 0): 3 * c * L, (3, 0): -c,
    }
    return ManufacturedSolution([_polynomial(u), _polynomial(v)])


def plate_solution() -> ManufacturedSolution:
    """Smooth 2D displacement field used on the holed-plate geometry.

    u = 0.1 (x + 10) y sin y + 0.1 cos x y (y + 5),
    v = (30 + 5x sin 5x)(4y + y e^(-5y)) / 60 - 100 y / 60,
    with each sin(t) written as cos(t - pi/2).
    """
    u = [
        (0.1, (((1.0, 1), (10.0, 0)), ((1.0, 1, 1.0, -np.pi / 2),))),
        (0.1, (((1.0, 0, 1.0),), ((1.0, 2), (5.0, 1)))),
    ]
    v = [
        (1 / 60, (((30.0, 0), (5.0, 1, 5.0, -np.pi / 2)), ((4.0, 1), (1.0, 1, -5.0, 0.0, "exp")))),
        (-100 / 60, (((1.0, 0),), ((1.0, 1),))),
    ]
    return ManufacturedSolution([u, v])


def stokes_poly_solution() -> ManufacturedSolution:
    """Divergence-free polynomial velocity with a cubic pressure.

    u = x + x^2 - 2xy + x^3 - 3xy^2 + x^2 y,
    v = -y - 2xy + y^2 - 3x^2 y + y^3 - xy^2,
    p = xy + x + y + x^3 y^2 - 4/3.
    """
    u = {(1, 0): 1, (2, 0): 1, (1, 1): -2, (3, 0): 1, (1, 2): -3, (2, 1): 1}
    v = {(0, 1): -1, (1, 1): -2, (0, 2): 1, (2, 1): -3, (0, 3): 1, (1, 2): -1}
    p = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (3, 2): 1, (0, 0): -4.0 / 3.0}
    return ManufacturedSolution([_polynomial(u), _polynomial(v), _polynomial(p)])


# ----------------------------------------------------------------------
# material constants and coefficient fields
# ----------------------------------------------------------------------


# The row of ``ElasticityConstants.stress`` that holds sigma_ij.
_SIGMA_ROW = ((0, 2), (2, 1))


@dataclass(frozen=True)
class ElasticityConstants:
    """Plane-stress material: sigma = E/(1-nu^2) [(1-nu) eps + nu tr(eps) I],
    stated once as ``stress``, a stencil over the displacement (u, v) with
    rows sigma_x, sigma_y and tau_xy."""

    e: float = 3e7
    nu: float = 0.3

    @property
    def stress(self) -> Stencil:
        c = self.e / (1.0 - self.nu**2)
        g = (1.0 - self.nu) / 2.0
        terms = (
            Term(0, 0, (1, 0), c), Term(0, 1, (0, 1), c * self.nu),
            Term(1, 1, (0, 1), c), Term(1, 0, (1, 0), c * self.nu),
            Term(2, 0, (0, 1), c * g), Term(2, 1, (1, 0), c * g),
        )
        return Stencil(terms, 3, 2, 2)


@dataclass(frozen=True)
class HomogenizationCoefficient:
    """a(x) = exp(h(x)) with h a truncated random Fourier series.

    Wavevectors run over the integer lattice with |k| <= bound; amplitudes
    are i.i.d. U[-amp, amp] drawn from a counter-based stream, so a seed
    pins the whole field.  The field is evaluated a chunk of points at a
    time (``basis.point_chunks``), so its (points x wavevectors) phase,
    sine and cosine stay bounded however many points it is given; a bound
    whose wavevectors would not fit in memory with them is refused.
    """

    coef_seed: int = 0
    bound: int = 6
    amp: float = 0.3

    def __post_init__(self) -> None:
        # the seed is one 64-bit word of the Philox key
        seed, bound = self.coef_seed, self.bound
        word = _is_integral(seed) and 0 <= seed < 2**64
        _require(word, "coef_seed", "an integer >= 0 below 2**64", seed)
        _require(_is_integral(bound) and bound >= 0, "bound", "an integer >= 0", bound)
        _require(_is_finite(self.amp), "amp", "a finite number", self.amp)
        object.__setattr__(self, "coef_seed", int(seed))
        object.__setattr__(self, "bound", int(bound))
        self._require_fits(available_memory_bytes())

    def _require_fits(self, available: int | None) -> None:
        """Refuse a bound whose wavevectors, each with its two coordinates,
        its two amplitudes and one point chunk's phase, sine and cosine,
        would take more than ``available`` bytes (None: no check).

        The disk |k| <= bound holds the 2 bound (bound + 1) + 1 wavevectors
        of the square |k1| + |k2| <= bound, so a bound too large even for
        those is refused before the disk's are counted.
        """
        if available is None:
            return
        per_vector = 8 * (4 + 3 * basis.EVAL_CHUNK)
        b = self.bound
        count = 2 * b * (b + 1) + 1
        if count * per_vector <= available:
            count = sum(2 * isqrt(b * b - k * k) + 1 for k in range(-b, b + 1))
        need = count * per_vector
        what = (
            "small enough that its wavevectors fit in memory "
            "(%d or more need %.1f MB, %.1f MB is available)" % (count, need / 1e6, available / 1e6)
        )
        _require(need <= available, "bound", what, b)

    @cached_property
    def _series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # row k1 of the lattice runs over |k2| <= half[k1], in increasing order
        k1 = np.arange(-self.bound, self.bound + 1)
        half = np.array([isqrt(self.bound**2 - k * k) for k in k1.tolist()], int)
        counts = 2 * half + 1
        k2 = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts + half, counts)
        lattice = np.column_stack([np.repeat(k1, counts), k2]).astype(float)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([self.coef_seed, 0x636F6566], dtype=np.uint64))
        )
        a = rng.uniform(-self.amp, self.amp, len(lattice))
        b = rng.uniform(-self.amp, self.amp, len(lattice))
        return lattice, a, b

    def _phase(self, points: np.ndarray) -> np.ndarray:
        lattice, _, _ = self._series
        return 2.0 * np.pi * np.atleast_2d(points) @ lattice.T

    def h(self, points: np.ndarray) -> np.ndarray:
        _, a, b = self._series
        points = np.atleast_2d(points)
        out = np.empty(len(points))
        for rows in basis.point_chunks(len(points)):
            phase = self._phase(points[rows])
            out[rows] = np.sin(phase) @ a + np.cos(phase) @ b
        return out

    def value(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.h(points))

    def value_and_grad(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a and its gradient at ``points``, from one phase matrix per chunk."""
        lattice, a, b = self._series
        points = np.atleast_2d(points)
        w = [2.0 * np.pi * lattice[:, axis] for axis in range(2)]
        value, dh = np.empty(len(points)), np.empty((len(points), 2))
        for rows in basis.point_chunks(len(points)):
            phase = self._phase(points[rows])
            sin, cos = np.sin(phase), np.cos(phase)
            value[rows] = np.exp(sin @ a + cos @ b)
            for axis in range(2):
                dh[rows, axis] = cos @ (w[axis] * a) - sin @ (w[axis] * b)
        return value, value[:, None] * dh


# ----------------------------------------------------------------------
# problems
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PdeProblem:
    """A fully specified collocation problem on one domain."""

    domain: Domain
    operator: Stencil
    boundary: tuple[Stencil, ...]
    n_components: int
    exact: ManufacturedSolution | None = None
    forcing: Callable | None = None
    boundary_data: Callable | None = None
    extra_point_conditions: tuple[tuple[tuple[float, ...], int, float], ...] = ()
    constants: ElasticityConstants | None = None

    def __post_init__(self) -> None:
        if self.operator.tags:
            raise ValueError("the interior operator must not carry boundary tags")
        if any(not st.tags for st in self.boundary):
            raise ValueError("every boundary stencil must name its segment tags")
        covered = [tag for st in self.boundary for tag in st.tags]
        tags = self.domain.boundary_tags()
        if sorted(covered) != sorted(set(covered)) or set(covered) != set(tags):
            raise ValueError(
                "boundary stencils must cover every segment tag exactly once "
                "(domain has %s, stencils cover %s)" % (tags, covered)
            )
        rows = {st.n_rows for st in self.boundary}
        if len(rows) != 1:
            raise ValueError("all boundary stencils must share a row count")
        if self.exact is None and (self.forcing is None or self.boundary_data is None):
            raise ValueError("need either an exact solution or explicit data")
        if self.exact is not None and self.exact.n_components != self.n_components:
            raise ValueError("exact solution component count mismatch")

    @property
    def k_interior(self) -> int:
        return self.operator.n_rows

    @property
    def k_boundary(self) -> int:
        return self.boundary[0].n_rows

    def forcing_values(self, points: np.ndarray) -> np.ndarray:
        if self.forcing is not None:
            return np.asarray(self.forcing(points), float).reshape(len(points), self.k_interior)
        return self.operator.apply_to_exact(self.exact, points)

    def boundary_values(
        self, points: np.ndarray, normals: np.ndarray, tags: list[str]
    ) -> np.ndarray:
        if self.boundary_data is not None:
            got = self.boundary_data(points, normals, tags)
            return np.asarray(got, float).reshape(len(points), self.k_boundary)
        out = np.zeros((len(points), self.k_boundary))
        tag_arr = np.asarray(tags)
        for st in self.boundary:
            mask = np.isin(tag_arr, st.tags)
            if mask.any():
                out[mask] = st.apply_to_exact(self.exact, points[mask], normals[mask])
        return out


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------


def _dirichlet_stencil(tags, n_components, dim, comps=None) -> Stencil:
    comps = range(n_components) if comps is None else comps
    terms = tuple(
        Term(row, comp, (0,) * dim, 1.0) for row, comp in enumerate(comps)
    )
    return Stencil(terms, len(terms), n_components, dim, tuple(tags))


def make_helmholtz_1d(lam: float = 4.0, solution: str = "wave-product") -> PdeProblem:
    """u'' - lam*u = f on [0, 8], Dirichlet at both endpoints; the exact
    solution is ``SOLUTIONS_1D[solution]``."""
    _require(_is_real(lam) and 0 < lam <= sys.float_info.max, "lam", "a positive finite number", lam)
    known = isinstance(solution, str) and solution in SOLUTIONS_1D
    _require(known, "solution", "one of %s" % list(SOLUTIONS_1D), solution)
    domain = interval(0.0, 8.0)
    op = Stencil(
        (Term(0, 0, (2,), 1.0), Term(0, 0, (0,), -lam)), 1, 1, 1
    )
    bc = _dirichlet_stencil(("left", "right"), 1, 1)
    return PdeProblem(domain, op, (bc,), 1, exact=SOLUTIONS_1D[solution]())


def make_poisson_2d(a_low: float = 1.0, b_high: float = 0.0) -> PdeProblem:
    """u_xx + u_yy = f on the unit square, Dirichlet on all four edges; the
    exact solution is ``two_band_2d(a_low, b_high)``."""
    exact = two_band_2d(a_low, b_high)
    domain = box((0.0, 0.0), (1.0, 1.0))
    op = Stencil(
        (Term(0, 0, (2, 0), 1.0), Term(0, 0, (0, 2), 1.0)), 1, 1, 2
    )
    bc = _dirichlet_stencil(domain.boundary_tags(), 1, 2)
    return PdeProblem(domain, op, (bc,), 1, exact=exact)


def _traction_stencil(tags, stress: Stencil) -> Stencil:
    """t_i = sigma_ij n_j: each stress term, its coefficient times n_j."""
    terms = tuple(
        Term(i, t.comp, t.alpha, lambda p, n, c=t.coeff, j=j: c * n[:, j])
        for i in range(2) for j in range(2) for t in stress.terms if t.row == _SIGMA_ROW[i][j]
    )
    return Stencil(terms, 2, 2, 2, tuple(tags))


def _divergence_stencil(stress: Stencil) -> Stencil:
    """-d_j sigma_ij, like terms merged.  Row i takes sigma_ii before its
    shear and lists its own component first: rows sum their terms in this
    order, so it sets the bits of every forcing value and matrix entry."""
    terms = []
    for i in range(2):
        merged: dict = {}
        for j in (i, 1 - i):
            for t in stress.terms:
                if t.row == _SIGMA_ROW[i][j]:
                    key = t.comp, tuple(a + (axis == j) for axis, a in enumerate(t.alpha))
                    merged[key] = merged.get(key, 0.0) - t.coeff
        row = [Term(i, comp, alpha, c) for (comp, alpha), c in merged.items()]
        terms += sorted(row, key=lambda t: t.comp != i)
    return Stencil(tuple(terms), 2, 2, 2)


def make_elasticity_2d(
    domain: Domain,
    constants: ElasticityConstants,
    dirichlet_tags: tuple[str, ...],
    neumann_tags: tuple[str, ...],
    exact: ManufacturedSolution,
) -> PdeProblem:
    """-div sigma(u) = B in plane stress; displacement on Gamma_D, traction on
    Gamma_N.  The operator and the traction rows derive from ``constants.stress``."""
    stencils = []
    if dirichlet_tags:
        stencils.append(_dirichlet_stencil(dirichlet_tags, 2, 2))
    if neumann_tags:
        stencils.append(_traction_stencil(neumann_tags, constants.stress))
    return PdeProblem(
        domain, _divergence_stencil(constants.stress), tuple(stencils), 2,
        exact=exact, constants=constants,
    )


def make_beam_problem() -> PdeProblem:
    """Cantilever beam: exact end-shear solution, displacement fixed at x=0.

    The material is the default ``ElasticityConstants``.
    """
    constants = ElasticityConstants()
    length, depth = 10.0, 10.0
    sol = beam_solution(length, depth, e=constants.e, nu=constants.nu)
    domain = box((0.0, 0.0), (length, depth))
    return make_elasticity_2d(
        domain, constants,
        dirichlet_tags=("left",),
        neumann_tags=("right", "bottom", "top"),
        exact=sol,
    )


DEFAULT_PLATE_HOLES = (
    (1.6, 1.6, 0.45),
    (6.2, 2.0, 0.55),
    (2.3, 6.1, 0.5),
    (5.9, 6.3, 0.4),
)


def make_plate_problem(holes=DEFAULT_PLATE_HOLES) -> PdeProblem:
    """Holed square plate with a smooth manufactured displacement field.

    ``holes`` lists one ``[x, y, radius]`` per hole.  Displacement is
    prescribed on the bottom edge, tractions everywhere else including the
    hole rims.  The material is the default ``ElasticityConstants``.
    """
    triples = isinstance(holes, (list, tuple)) and all(
        isinstance(h, (list, tuple)) and len(h) == 3 and all(map(_is_finite, h)) for h in holes
    )
    _require(triples, "holes", "a list of [x, y, radius] numbers", holes)
    constants = ElasticityConstants()
    try:
        domain = box((0.0, 0.0), (8.0, 8.0), holes=[Hole((x, y), r) for x, y, r in holes])
    except ValueError as exc:  # a radius <= 0, a hole off the plate, or two that overlap
        what = "disjoint holes of positive radius strictly inside the plate (%s)" % exc
        _require(False, "holes", what, holes)
    neumann = tuple(t for t in domain.boundary_tags() if t != "bottom")
    return make_elasticity_2d(
        domain, constants,
        dirichlet_tags=("bottom",),
        neumann_tags=neumann,
        exact=plate_solution(),
    )


# Where every Stokes problem pins its pressure: the lower-left corner of the
# unit square that both Stokes factories use.
PIN_POINT = (0.0, 0.0)


def make_stokes_2d(
    domain: Domain,
    exact: ManufacturedSolution | None = None,
    boundary_velocity: Callable | None = None,
    pin_value: float | None = None,
) -> PdeProblem:
    """Steady Stokes flow: -Lap u + grad p = f, div u = 0, velocity Dirichlet.

    The pressure is only determined up to a constant by the PDE, so one
    extra condition pins it at ``PIN_POINT`` (to the exact value for a
    manufactured run, or to the given value).
    """
    op = Stencil(
        (
            Term(0, 0, (2, 0), -1.0),
            Term(0, 0, (0, 2), -1.0),
            Term(0, 2, (1, 0), 1.0),
            Term(1, 1, (2, 0), -1.0),
            Term(1, 1, (0, 2), -1.0),
            Term(1, 2, (0, 1), 1.0),
            Term(2, 0, (1, 0), 1.0),
            Term(2, 1, (0, 1), 1.0),
        ),
        3, 3, 2,
    )
    bc = _dirichlet_stencil(domain.boundary_tags(), 3, 2, comps=(0, 1))
    if pin_value is None:
        if exact is None:
            raise ValueError("flow runs must give an explicit pin value")
        pin_value = float(exact.deriv(2, np.array([PIN_POINT]), (0, 0))[0])
    forcing = None
    boundary_data = None
    if boundary_velocity is not None:
        def forcing(points):
            return np.zeros((len(points), 3))

        boundary_data = boundary_velocity
    return PdeProblem(
        domain, op, (bc,), 3,
        exact=exact, forcing=forcing, boundary_data=boundary_data,
        extra_point_conditions=((PIN_POINT, 2, pin_value),),
    )


STOKES_HOLES = (
    Hole((0.5, 0.2), 0.1),
    Hole((0.2, 0.8), 0.1),
    Hole((0.8, 0.8), 0.1),
)


def make_stokes_manufactured() -> PdeProblem:
    """Polynomial manufactured Stokes flow on the unit square with three holes."""
    domain = box((0.0, 0.0), (1.0, 1.0), holes=STOKES_HOLES)
    return make_stokes_2d(domain, exact=stokes_poly_solution())


def make_channel_flow() -> PdeProblem:
    """Pressure-free channel past the three holes of ``make_stokes_manufactured``:
    parabolic inflow/outflow at x=0 and x=1."""
    domain = box((0.0, 0.0), (1.0, 1.0), holes=STOKES_HOLES)

    def profile(points, normals, tags):
        out = np.zeros((len(points), 2))
        on_ends = np.isin(np.asarray(tags), ("left", "right"))
        y = points[on_ends, 1]
        out[on_ends, 0] = y * (1.0 - y)
        return out

    return make_stokes_2d(domain, boundary_velocity=profile, pin_value=0.0)


def make_varcoef_elliptic(
    coef_seed: int = 0, bound: int = 6, amp: float = 0.3, forcing: float = 1.0
) -> PdeProblem:
    """-div(a grad u) = forcing on the unit disk, homogeneous Dirichlet, with
    a = ``HomogenizationCoefficient(coef_seed, bound, amp)``."""
    coef = HomogenizationCoefficient(coef_seed, bound, amp)
    _require(_is_finite(forcing), "forcing", "a finite number", forcing)
    domain = disk((0.0, 0.0), 1.0)

    # the four terms are evaluated in turn on the same points array: compute
    # a and its gradient once per array and let every term read them
    last: dict = {}

    def field(points):
        if last.get("points") is not points:
            value, grad = coef.value_and_grad(points)
            last.update(points=points, field=(-value, -grad[:, 0], -grad[:, 1]))
        return last["field"]

    def neg_a(points):
        return field(points)[0]

    def neg_ax(points):
        return field(points)[1]

    def neg_ay(points):
        return field(points)[2]

    op = Stencil(
        (
            Term(0, 0, (2, 0), neg_a),
            Term(0, 0, (0, 2), neg_a),
            Term(0, 0, (1, 0), neg_ax),
            Term(0, 0, (0, 1), neg_ay),
        ),
        1, 1, 2,
    )
    bc = _dirichlet_stencil(domain.boundary_tags(), 1, 2)

    def forcing_data(points):
        return np.full((len(points), 1), float(forcing))

    def boundary_data(points, normals, tags):
        return np.zeros((len(points), 1))

    return PdeProblem(
        domain, op, (bc,), 1,
        forcing=forcing_data, boundary_data=boundary_data,
    )


PROBLEMS = {
    "helmholtz": make_helmholtz_1d,
    "poisson": make_poisson_2d,
    "beam": make_beam_problem,
    "plate": make_plate_problem,
    "stokes": make_stokes_manufactured,
    "channel": make_channel_flow,
    "varcoef": make_varcoef_elliptic,
}
