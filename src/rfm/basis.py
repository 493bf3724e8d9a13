"""Random feature expansions glued by a partition of unity.

A model approximates each solution component as

    u(x) = sum_n psi_n(x) sum_j c_nj sigma(k_nj . x_tilde + b_nj)  (+ global term)

where ``x_tilde = (x - x_n) / r_n`` maps patch n onto [-1, 1]^d, the
frequencies ``k`` and phases ``b`` are drawn once and never trained, and
``psi_n`` is one of two partitions of unity:

* kind "a": the indicator of the patch box (discontinuous; continuity is
  enforced later through explicit interface conditions), and
* kind "b": a C^1 bump built from sine transitions, constant 1 on the core
  of the patch and decaying to 0 over a half-patch-wide overlap zone.

Patch boxes of kind "a" tile the bounding box; kind "b" centers sit on the
same grid (spacing exactly 2r) and one-sided variants are used at the
domain edge so the bumps still sum to one inside the domain.

``RfmModel.supports`` is the one place that decides which expansions hold a
point: the one owning patch of kind "a", every patch whose bump reaches it
for kind "b", and always the global patch.  Assembly and evaluation select
points by it, and the kind-"a" weight is its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod

import numpy as np

from .blas import blas_threads
from .geometry import Domain

# Feature stream index reserved for the patchless global expansion.
GLOBAL_STREAM = 2**32 - 1

# Points per chunk of RfmModel.eval_many.
EVAL_CHUNK = 2048

# Kind-"a" points this close to a patch facet, in normalized coordinates, are
# assigned to one patch by RfmModel.supports.
FACET_TOL = 1e-9


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------


def activation_derivatives(
    name: str, z: np.ndarray, orders
) -> dict[int, np.ndarray]:
    """Value (order 0) and derivatives (orders 1, 2) of an activation, one
    array per requested order.

    ``tanh`` is evaluated once and its derivatives are derived from it:
    1 - t^2 and -2t (1 - t^2).
    """
    orders = set(orders)
    if name not in ACTIVATIONS:
        raise ValueError("unknown activation %r" % name)
    if not orders <= {0, 1, 2}:
        raise ValueError("activation derivatives implemented up to order 2")
    if name != "tanh":
        return {o: _PERIODIC[name][o](z) for o in orders}
    t = np.tanh(z)
    out = {0: t}
    if orders & {1, 2}:
        out[1] = 1.0 - t * t
    if 2 in orders:
        out[2] = -2.0 * t * out[1]
    return {o: out[o] for o in orders}


def activation_eval(name: str, z: np.ndarray, order: int) -> np.ndarray:
    """Value (order 0) or derivative (order 1, 2) of an activation."""
    return activation_derivatives(name, z, (order,))[order]


ACTIVATIONS = ("tanh", "sin", "cos")

# orders 0, 1, 2 of the periodic activations
_PERIODIC = {
    "sin": (np.sin, np.cos, lambda z: -np.sin(z)),
    "cos": (np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)),
}


# ----------------------------------------------------------------------
# partition of unity
# ----------------------------------------------------------------------


def pou_eval(
    x: np.ndarray,
    order: int = 0,
    clamp_lo: bool = False,
    clamp_hi: bool = False,
) -> np.ndarray:
    """One kind-"b" PoU factor along one axis, in normalized patch coordinates.

    ``clamp_lo``/``clamp_hi`` flag patch sides facing the domain boundary;
    there the transition is replaced by the constant 1.  Derivatives are
    taken with respect to the normalized coordinate.  The kind-"a" factor is
    the indicator that ``RfmModel.supports`` applies.
    """
    x = np.asarray(x, float)

    # Second derivatives at the junctions take the one-sided value from the
    # smooth transition branch (the piecewise definition leaves them open).
    if order == 2:
        rise = (x >= -1.25) & (x <= -0.75)
        fall = (x >= 0.75) & (x <= 1.25)
        flat = (x > -0.75) & (x < 0.75)
    else:
        rise = (x >= -1.25) & (x < -0.75)
        fall = (x >= 0.75) & (x < 1.25)
        flat = (x >= -0.75) & (x < 0.75)
    if clamp_lo:
        flat = flat | (x < -0.75) | rise
        rise = np.zeros_like(rise)
    if clamp_hi:
        flat = flat | (x >= 0.75) | fall
        fall = np.zeros_like(fall)

    s = np.sin(2.0 * np.pi * x)
    c = np.cos(2.0 * np.pi * x)
    if order == 0:
        vals = [(1.0 + s) / 2.0, (1.0 - s) / 2.0, np.ones_like(x)]
    elif order == 1:
        vals = [np.pi * c, -np.pi * c, np.zeros_like(x)]
    elif order == 2:
        w = 2.0 * np.pi**2 * s
        vals = [-w, w, np.zeros_like(x)]
    else:
        raise ValueError("PoU derivatives implemented up to order 2")
    return np.select([rise, fall, flat], vals, default=0.0)


def _pou_product(factors: list[list[np.ndarray]], alpha: tuple[int, ...]) -> np.ndarray:
    """prod over axes of factors[axis][alpha[axis]]: one derivative of psi_n."""
    out = factors[0][alpha[0]]
    for ax in range(1, len(alpha)):
        out = out * factors[ax][alpha[ax]]
    return out


# ----------------------------------------------------------------------
# feature sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureSampler:
    """How frequencies and phases are drawn for one model.

    ``uniform_random`` draws i.i.d. from U[-rm, rm] using a counter-based
    Philox stream keyed by (seed, patch, component), so adding or removing
    patches never reshuffles the draws of the others.  ``equispaced_grid``
    is deterministic: a full factorial over the per-axis grid
    ``{-rm + 2 rm i/G : i = 1..G}`` covering (k, b) jointly.
    """

    rm: float
    mode: str = "uniform_random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("uniform_random", "equispaced_grid"):
            raise ValueError("unknown sampling mode %r" % self.mode)
        if self.rm <= 0:
            raise ValueError("rm must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def sample_features(
    sampler: FeatureSampler,
    dim: int,
    count: int,
    stream: tuple[int, int] = (0, 0),
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` feature vectors; returns (k, b) of shapes (count, dim), (count,)."""
    r = sampler.rm
    if count < 1:
        raise ValueError("feature count must be positive")
    if sampler.mode == "uniform_random":
        patch_idx, comp_idx = stream
        key = np.array(
            [sampler.seed, (int(patch_idx) << 32) | int(comp_idx)], dtype=np.uint64
        )
        rng = np.random.Generator(np.random.Philox(key=key))
        k = rng.uniform(-r, r, size=(count, dim))
        b = rng.uniform(-r, r, size=count)
        return k, b
    # equispaced grid: full factorial over (k, b)
    g = round(count ** (1.0 / (dim + 1)))
    if g ** (dim + 1) != count:
        raise ValueError(
            "grid sampling needs count = G^%d, got %d" % (dim + 1, count)
        )
    vals = -r + 2.0 * r * np.arange(1, g + 1) / g
    grids = np.meshgrid(*([vals] * (dim + 1)), indexing="ij")
    cols = [grid.ravel() for grid in grids]
    k = np.column_stack(cols[:dim])
    b = cols[dim]
    return k, b


# ----------------------------------------------------------------------
# patches and models
# ----------------------------------------------------------------------


@dataclass(eq=False)
class Patch:
    """One local expansion: a box and its random features (per component).

    ``k`` has shape (K, J, d) and ``b`` shape (K, J): each solution
    component gets its own independent draws over the same box.
    """

    center: np.ndarray
    radius: np.ndarray
    k: np.ndarray
    b: np.ndarray
    activation: str = "tanh"
    clamp_lo: np.ndarray | None = None
    clamp_hi: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.center = np.atleast_1d(np.asarray(self.center, float))
        self.radius = np.atleast_1d(np.asarray(self.radius, float))
        self.k = np.asarray(self.k, float)
        self.b = np.asarray(self.b, float)
        if self.k.ndim == 2:  # single-component convenience
            self.k = self.k[None]
            self.b = self.b[None]
        d = self.center.size
        if self.radius.size != d or np.any(self.radius <= 0):
            raise ValueError("radius must be positive and match the dimension")
        if self.k.shape[2] != d or self.k.shape[:2] != self.b.shape:
            raise ValueError("feature arrays have inconsistent shapes")
        if self.activation not in ACTIVATIONS:
            raise ValueError("unknown activation %r" % self.activation)
        if self.clamp_lo is None:
            self.clamp_lo = np.zeros(d, bool)
        if self.clamp_hi is None:
            self.clamp_hi = np.zeros(d, bool)

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def n_features(self) -> int:
        return self.k.shape[1]

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.center - self.radius, self.center + self.radius

    def normalize(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.center) / self.radius


def feature_block(
    patch: Patch,
    comp: int,
    points: np.ndarray,
    alphas: list[tuple[int, ...]],
) -> dict[tuple[int, ...], np.ndarray]:
    """Derivatives of the bare features sigma(k.x_tilde + b) at ``points``.

    Returns one (P, J) array per requested multi-index; each needed
    derivative order of the activation is evaluated once and shared across
    alphas.
    """
    xt = patch.normalize(points)
    k = patch.k[comp]
    z = xt @ k.T + patch.b[comp]
    s = activation_derivatives(patch.activation, z, {sum(a) for a in alphas})
    out = {}
    for a in alphas:
        o = sum(a)
        if o == 0:
            out[a] = s[0].copy()
        elif o == 1:
            i = a.index(1)
            out[a] = s[1] * (k[:, i] / patch.radius[i])
        else:  # order 2; activation_derivatives refused anything higher
            if 2 in a:
                i = j = a.index(2)
            else:
                i, j = a.index(1), len(a) - 1 - a[::-1].index(1)
            out[a] = s[2] * (k[:, i] * k[:, j] / (patch.radius[i] * patch.radius[j]))
    return out


@dataclass(eq=False)
class RfmModel:
    """A full random feature expansion over a tiled patch grid.

    ``expansions`` lists the local patches in construction order, then the
    global patch (if any); every per-patch method takes an index into it.
    The global patch's support is the whole domain and its PoU factor is 1.
    Columns of the collocation system are ordered component-major, then by
    expansion, so the global features come last inside each component block.
    """

    patches: list[Patch]
    pou: str
    n_components: int = 1
    global_patch: Patch | None = None
    rm: float | None = None  # the rm the features were drawn with

    def __post_init__(self) -> None:
        if not self.patches:
            raise ValueError("model needs at least one patch")
        if self.pou not in ("a", "b"):
            raise ValueError("unknown PoU kind %r" % self.pou)
        dims = {p.dim for p in self.patches}
        comps = {p.k.shape[0] for p in self.patches}
        if len(dims) != 1 or len(comps) != 1 or comps != {self.n_components}:
            raise ValueError("patches disagree on dimension or component count")
        if sum(p.n_features for p in self.patches) == 0:
            raise ValueError("model has no features")
        global_ = [] if self.global_patch is None else [self.global_patch]
        self.expansions = self.patches + global_
        self._offsets = np.concatenate(
            [[0], np.cumsum([p.n_features for p in self.expansions])]
        )
        # the patch boxes as (patches, 1, axes), for supports
        self._centers = np.array([p.center for p in self.patches])[:, None]
        self._radii = np.array([p.radius for p in self.patches])[:, None]
        self._clamp_lo = np.array([p.clamp_lo for p in self.patches])[:, None]
        self._clamp_hi = np.array([p.clamp_hi for p in self.patches])[:, None]
        self._validate_layout()

    def _validate_layout(self) -> None:
        boxes = [p.box for p in self.patches]
        if self.pou == "a":
            # boxes must tile their bounding box without overlap
            vol = sum(np.prod(hi - lo) for lo, hi in boxes)
            lo_all = np.min([lo for lo, _ in boxes], axis=0)
            hi_all = np.max([hi for _, hi in boxes], axis=0)
            if not np.isclose(vol, np.prod(hi_all - lo_all), rtol=1e-9):
                raise ValueError("kind-a patch boxes do not tile their bounding box")
            for m in range(len(boxes)):
                for n in range(m + 1, len(boxes)):
                    lo = np.maximum(boxes[m][0], boxes[n][0])
                    hi = np.minimum(boxes[m][1], boxes[n][1])
                    if np.all(hi - lo > 1e-12):
                        raise ValueError("kind-a patch boxes overlap")
        else:
            # centers must sit on a grid with spacing exactly 2r
            r = self.patches[0].radius
            c0 = self.patches[0].center
            for p in self.patches:
                if not np.allclose(p.radius, r, rtol=1e-12, atol=0):
                    raise ValueError("kind-b patches must share a common radius")
                steps = (p.center - c0) / (2.0 * r)
                if not np.allclose(steps, np.round(steps), atol=1e-9):
                    raise ValueError("kind-b centers must be spaced by 2r")

    # ------------------------------------------------------------------
    # column layout
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.patches[0].dim

    @property
    def n_features(self) -> int:
        """Feature count per component, global expansion included."""
        return int(self._offsets[-1])

    @property
    def n_columns(self) -> int:
        return self.n_components * self.n_features

    def col_slice(self, comp: int, patch_index: int) -> slice:
        base = comp * self.n_features
        return slice(
            base + self._offsets[patch_index], base + self._offsets[patch_index + 1]
        )

    def boxes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [p.box for p in self.patches]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def supports(self, points: np.ndarray) -> np.ndarray:
        """Which expansions hold each point: a bool array (expansions, points).

        Kind "a" gives a point one owner, by the half-open indicator of the
        patch box, closed at +1 on sides facing the domain boundary.  Where
        rounding makes the indicators give no patch or two (on a shared
        facet, or at the domain edge), the point goes to the last patch whose
        box, widened by FACET_TOL, holds it: on a grid that is the upper
        patch, as the half-open rule says.  Kind "b" holds a point in every
        patch whose bump reaches it (the +-1.25 box, open on sides facing the
        domain boundary).  The global patch holds every point.
        """
        points = np.atleast_2d(np.asarray(points, float))
        # (patches, points, axes), as Patch.normalize computes it
        xt = (points - self._centers) / self._radii
        if self.pou == "a":
            held = np.all((xt >= -1.0) & np.where(self._clamp_hi, xt <= 1.0, xt < 1.0), axis=2)
            near = np.all(np.abs(xt) <= 1.0 + FACET_TOL, axis=2)
            last_near = len(near) - 1 - np.argmax(near[::-1], axis=0)
            fallback = np.where(near.any(axis=0), last_near, -1)
            owner = np.where(held.sum(axis=0) == 1, np.argmax(held, axis=0), fallback)
            local = owner == np.arange(len(self.patches))[:, None]
        else:
            lo = np.where(self._clamp_lo, -np.inf, -1.25)
            hi = np.where(self._clamp_hi, np.inf, 1.25)
            local = np.all((xt >= lo) & (xt <= hi), axis=2)
        if self.global_patch is None:
            return local
        return np.vstack([local, np.ones(len(points), bool)])

    def _axis_factors(
        self, p: Patch, xt: np.ndarray, max_order: int
    ) -> list[list[np.ndarray]]:
        """factors[axis][order]: derivative ``order`` of the patch's kind-"b"
        PoU factor along ``axis`` at normalized points ``xt``, in physical
        coordinates; psi_n is their product."""
        return [
            [
                pou_eval(xt[:, ax], o, bool(p.clamp_lo[ax]), bool(p.clamp_hi[ax]))
                / p.radius[ax] ** o
                for o in range(max_order + 1)
            ]
            for ax in range(p.dim)
        ]

    def pou_weight(self, patch_index: int, points: np.ndarray, alpha=None) -> np.ndarray:
        """psi_n (or a derivative of it) at ``points``, physical coordinates.

        Kind "a" is the patch's ``supports`` row, constant on it, so every
        derivative is 0."""
        p = self.patches[patch_index]
        alpha = (0,) * p.dim if alpha is None else alpha
        if self.pou == "a":
            return self.supports(points)[patch_index] * float(not any(alpha))
        return _pou_product(self._axis_factors(p, p.normalize(points), max(alpha)), alpha)

    def basis_block(
        self,
        patch_index: int,
        comp: int,
        points: np.ndarray,
        alphas: list[tuple[int, ...]],
    ) -> dict[tuple[int, ...], np.ndarray]:
        """Derivatives of psi_n * phi_nj for every feature of one patch.

        Callers select the points: those where ``supports`` holds the patch,
        or the facet points of an interface.  For kind "a" the PoU factor is
        the indicator, 1 on the support, so the block is the bare features
        (which an interface row also takes from the lower patch, whose
        half-open indicator is 0 on the facet).  For kind "b" the product rule runs
        over all sub-multi-indices.  The global patch's factor is 1: its
        block is the bare features.
        """
        p = self.expansions[patch_index]
        if p is self.global_patch or self.pou == "a":
            return feature_block(p, comp, points, alphas)
        phis_needed = sorted(
            {tuple(g) for a in alphas for g in np.ndindex(*[i + 1 for i in a])}
        )
        phi = feature_block(p, comp, points, phis_needed)
        axis_fac = self._axis_factors(p, p.normalize(points), max(max(a) for a in alphas))
        out = {}
        for a in alphas:
            total = np.zeros((len(points), p.n_features))
            for beta in np.ndindex(*[i + 1 for i in a]):
                coeff = prod(comb(a[ax], beta[ax]) for ax in range(p.dim))
                psi = _pou_product(axis_fac, beta)
                rest = tuple(a[ax] - beta[ax] for ax in range(p.dim))
                total += coeff * psi[:, None] * phi[rest]
            out[a] = total
        return out

    def eval(
        self,
        coefficients: np.ndarray,
        points: np.ndarray,
        alpha: tuple[int, ...] | None = None,
    ) -> np.ndarray:
        """Evaluate the expansion (or one of its derivatives) at ``points``.

        Returns shape (P, K).  Coefficients are the flat column vector in
        the model's column order.
        """
        alpha = (0,) * self.dim if alpha is None else tuple(alpha)
        return self.eval_many(coefficients, points, [alpha])[alpha]

    def eval_many(
        self,
        coefficients: np.ndarray,
        points: np.ndarray,
        alphas: list[tuple[int, ...]],
    ) -> dict[tuple[int, ...], np.ndarray]:
        """Evaluate the expansion for several multi-indices in one pass.

        Returns one (P, K) array per multi-index.  Each patch's features are
        evaluated once for all of ``alphas``, and the points are walked in
        chunks of EVAL_CHUNK so the (points x features) temporaries stay
        bounded however large the evaluation grid is.
        """
        points = np.atleast_2d(np.asarray(points, float))
        coefficients = np.asarray(coefficients, float)
        if coefficients.shape != (self.n_columns,):
            raise ValueError(
                "expected %d coefficients, got %s" % (self.n_columns, coefficients.shape)
            )
        alphas = [tuple(a) for a in alphas]
        out = {a: np.zeros((len(points), self.n_components)) for a in alphas}
        for lo in range(0, len(points), EVAL_CHUNK):
            chunk = points[lo : lo + EVAL_CHUNK]
            rows = slice(lo, lo + len(chunk))
            for n, mask in enumerate(self.supports(chunk)):
                if not mask.any():
                    continue
                sub = chunk[mask]
                for comp in range(self.n_components):
                    blocks = self.basis_block(n, comp, sub, alphas)
                    coef = coefficients[self.col_slice(comp, n)]
                    for a in alphas:
                        out[a][rows][mask, comp] += blocks[a] @ coef
        return out


# ----------------------------------------------------------------------
# model construction over a domain
# ----------------------------------------------------------------------


def grid_patch_layout(
    domain: Domain, counts: int | tuple[int, ...]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Regular patch grid over the bounding box.

    Returns (center, radius, clamp_lo, clamp_hi) per patch, ordered
    lexicographically by axis.
    """
    if np.isscalar(counts):
        counts = (int(counts),) * domain.dim
    if len(counts) != domain.dim or any(c < 1 for c in counts):
        raise ValueError("need one positive patch count per axis")
    lo, hi = domain.bounds
    radius = (hi - lo) / (2.0 * np.asarray(counts, float))
    layout = []
    for idx in np.ndindex(*counts):
        i = np.asarray(idx, float)
        center = lo + (2.0 * i + 1.0) * radius
        clamp_lo = np.array([j == 0 for j in idx])
        clamp_hi = np.array([idx[a] == counts[a] - 1 for a in range(domain.dim)])
        layout.append((center, radius, clamp_lo, clamp_hi))
    return layout


def build_model(
    domain: Domain,
    patch_counts: int | tuple[int, ...],
    features_per_patch: int,
    sampler: FeatureSampler,
    pou: str = "a",
    activation: str = "tanh",
    n_components: int = 1,
    global_features: int = 0,
) -> RfmModel:
    """Build a model on a regular patch grid over ``domain``.

    ``global_features > 0`` adds a domain-wide expansion (center at the
    domain midpoint, radius half the extents) on top of the local patches;
    its smooth features carry the coarse scales while the patches carry the
    fine ones.
    """
    layout = grid_patch_layout(domain, patch_counts)
    patches = []
    for n, (center, radius, clamp_lo, clamp_hi) in enumerate(layout):
        ks, bs = [], []
        for comp in range(n_components):
            k, b = sample_features(sampler, domain.dim, features_per_patch, (n, comp))
            ks.append(k)
            bs.append(b)
        patches.append(
            Patch(center, radius, np.stack(ks), np.stack(bs), activation, clamp_lo, clamp_hi)
        )
    global_patch = None
    if global_features > 0:
        lo, hi = domain.bounds
        ks, bs = [], []
        for comp in range(n_components):
            k, b = sample_features(
                sampler, domain.dim, global_features, (GLOBAL_STREAM, comp)
            )
            ks.append(k)
            bs.append(b)
        global_patch = Patch(
            0.5 * (lo + hi), 0.5 * (hi - lo), np.stack(ks), np.stack(bs), activation
        )
    return RfmModel(patches, pou, n_components, global_patch, sampler.rm)


# ----------------------------------------------------------------------
# frequency-guided choice of rm
# ----------------------------------------------------------------------


def dominant_frequencies(
    xs: np.ndarray,
    fs: np.ndarray,
    rel_threshold: float = 1e-8,
    max_terms: int = 24,
) -> list[tuple[float, float]]:
    """Extract the dominant sinusoids from uniform samples of a forcing term.

    Uses shift-invariance of the signal subspace (a Hankel-matrix SVD plus a
    small eigenvalue problem) to recover tone frequencies, which sidesteps
    the spectral leakage and resolution limits a bare DFT threshold suffers
    on non-periodic windows; sums of tones are recovered essentially
    exactly.  Tones with amplitude below ``rel_threshold`` of the strongest
    one are discarded.  Returns sorted (angular frequency, amplitude) pairs.
    """
    xs = np.asarray(xs, float)
    fs = np.asarray(fs, float)
    if xs.ndim != 1 or xs.shape != fs.shape or len(xs) < 16:
        raise ValueError("need at least 16 samples on a 1D uniform grid")
    dx = np.diff(xs)
    if not np.allclose(dx, dx[0], rtol=1e-9):
        raise ValueError("samples must lie on a uniform grid")
    if np.max(np.abs(fs)) == 0.0:
        return []
    n = len(xs)
    dt = float(dx[0])
    nyquist = np.pi / dt

    rows = min((n + 1) // 2, 500)
    hankel = np.lib.stride_tricks.sliding_window_view(fs, n - rows + 1)
    u, s, _ = np.linalg.svd(hankel, full_matrices=False)
    rank = int(np.sum(s > max(1e-3 * rel_threshold, 1e-13) * s[0]))
    rank = min(max(rank, 1), 2 * max_terms + 2)
    shift, *_ = np.linalg.lstsq(u[:-1, :rank], u[1:, :rank], rcond=None)
    z = np.linalg.eigvals(shift)
    omegas = np.abs(np.angle(z)) / dt
    omegas = omegas[(omegas > 1e-9 * nyquist) & (omegas < nyquist * (1 - 1e-9))]
    if omegas.size == 0:
        return []
    omegas = np.sort(omegas)
    # conjugate pairs give duplicate frequencies; merge anything this close
    keep = [omegas[0]]
    for w in omegas[1:]:
        if w - keep[-1] > 1e-7:
            keep.append(w)
    cols = [np.ones(n)]
    for w in keep:
        cols.append(np.sin(w * xs))
        cols.append(np.cos(w * xs))
    coef, *_ = np.linalg.lstsq(np.column_stack(cols), fs, rcond=None)
    amps = np.hypot(coef[1::2], coef[2::2])
    strongest = float(np.max(amps))
    if strongest == 0.0:
        return []
    return sorted(
        (float(w), float(a))
        for w, a in zip(keep, amps)
        if a >= rel_threshold * strongest
    )


def select_rm_from_forcing(
    xs: np.ndarray,
    fs: np.ndarray,
    radius: float,
    rel_threshold: float = 1e-8,
) -> float:
    """Recommended lower bound for rm given samples of the forcing term.

    The highest significant angular frequency in the forcing, mapped into
    normalized patch coordinates (multiplied by the patch radius), is the
    lowest rm that lets the features resolve the data.  All-zero (or
    constant) forcing falls back to rm = 1.

    The tones are memoized per process, keyed on the exact bytes of ``xs``
    and ``fs`` and on ``rel_threshold``, so every seed of a config pays for
    one Hankel SVD in all.  The selection always runs on one BLAS thread,
    so its result does not depend on the thread count in force at the call,
    nor on which caller filled the memo.
    """
    xs = np.asarray(xs, float)
    fs = np.asarray(fs, float)
    if np.max(np.abs(fs)) == 0.0:
        return 1.0
    if xs.ndim != 1 or xs.shape != fs.shape:  # the bytes keep no shape
        raise ValueError("need samples xs and fs of one 1D shape")
    tones = _tones(xs.tobytes(), fs.tobytes(), rel_threshold)
    if not tones:
        return 1.0
    omega = max(w for w, _ in tones)
    return omega * float(radius)


@lru_cache(maxsize=32)
def _tones(
    xs: bytes, fs: bytes, rel_threshold: float
) -> tuple[tuple[float, float], ...]:
    """``dominant_frequencies`` of float64 samples given as bytes, on one BLAS thread."""
    with blas_threads():
        return tuple(
            dominant_frequencies(np.frombuffer(xs), np.frombuffer(fs), rel_threshold)
        )
