"""Hypersurface immersions: induced data, structural equations, classification.

A hypersurface is a chart ``f: U in R^n -> R^{n+1}`` together with a
transversal field ``xi``.  Differentiating the chart and expanding in the
moving frame ``{d_1 f, ..., d_n f, xi}`` recovers the induced connection,
the affine fundamental form h, the shape operator S and the transversal
form alpha (the induced volume is eta = det[d_1 f ... d_n f xi]):

    d_i d_j f = Gamma^k_{ij} d_k f + h_{ij} xi
    d_i xi    = -S^k_i d_k f + alpha_i xi

Sign convention: for position-transversal surfaces the toolkit standardises
xi = -f (pointing toward the origin), which gives alpha = 0 and S = I.

Every function takes a point u (n,) or rows of points (..., n), a point
being a batch of one: a grid is decomposed by one stencil of (f, xi), one
stacked frame-condition test and one stacked solve, and each point keeps
the bits of its own decomposition.  Every check that differentiates this
data (Gauss, Codazzi, Ricci, volume transport, statistical structure)
reads ``induced_derivative``, one field stencil over the grid whose value
rows and nodes are decomposed in one batch: one chart stencil, frame test
and solve cover the grid and its field nodes, and the value rows are
stored as the grid's ``decompose`` entries.  The residuals are taken and
returned per point; ``classify`` alone reduces them to grid flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateH, OutOfDomain, SchemaError
from .expressions import compile_chart
from .infogeo import (ConnectionField, MetricField,
                      covariant_metric_derivative, riemann)
from .models import Box, builtin_or_schema, domain_from_doc, spec_fields, spec_number
from .numerics import (DiffScheme, PointMemo, grid_max, partials, point_max,
                       solve_frame, stencil, symmetric)

# Charts are smooth closed forms, so wide extrapolated steps drive the
# decomposition error to ~1e-10; the field scheme differentiates decomposed
# quantities (one more stacked difference).
CHART_SCHEME_1 = DiffScheme(order=1, base_step=2.0**-8, richardson_levels=1)
CHART_SCHEME_2 = DiffScheme(order=2, base_step=2.0**-8, richardson_levels=1)
SURFACE_FIELD_SCHEME = DiffScheme(order=1, base_step=2.0**-7, richardson_levels=1)
DEGENERATE_DET_H = 1e-10


@dataclass(frozen=True, eq=False)
class Hypersurface:
    """Immersion chart plus transversal field over an open box.

    ``memo`` holds the induced data computed for this surface (``decompose``,
    ``induced_derivative``); ``dataclasses.replace`` starts a new one.
    """

    chart: Callable       # u (..., n) -> (..., n+1)
    transversal: Callable  # u (..., n) -> (..., n+1)
    domain: Box
    dim: int
    label: str = ""
    memo: PointMemo = field(default_factory=PointMemo, init=False, repr=False)

    @classmethod
    def centro_affine(cls, chart: Callable, domain: Box, dim: int,
                      label: str = "") -> "Hypersurface":
        """Position-transversal surface with the standard xi = -f."""
        return cls(chart=chart, transversal=partial(_negated, chart), domain=domain,
                   dim=dim, label=label)


def _negated(chart: Callable, u) -> np.ndarray:
    return -np.asarray(chart(u), float)


def _view(i: int, doc: str) -> property:
    """Field i of the packed row [Gamma, h, S, alpha, eta, f, xi] as a view
    with the row's leading axes, None past the row's end."""

    def get(self):
        n = self.n
        shapes = ((n, n, n), (n, n), (n, n), (n,), (), (n + 1,), (n + 1,))
        start = sum(math.prod(s) for s in shapes[:i])
        if self.packed.shape[-1] <= start:
            return None
        return self.packed[..., start:start + math.prod(shapes[i])].reshape(
            self.packed.shape[:-1] + shapes[i])

    return property(get, doc=doc)


@dataclass(frozen=True, eq=False)
class ImmersionData:
    """Induced data at one chart point, or at rows of points with their
    leading axes (or its d_a, see ``induced_derivative``), stored as
    ``packed``, one read-only array [Gamma, h, S, alpha, eta, f, xi] per
    point; a derivative packs no f and xi.  Each field is a view of
    ``packed``, so read-only too, taken when it is read."""

    packed: np.ndarray
    n: int
    gamma = _view(0, "gamma[i,j,k] = Gamma^k_{ij}")
    h = _view(1, "affine fundamental form")
    shape_operator = _view(2, "S[k,i] = S^k_i, columns act on basis vectors")
    alpha_form = _view(3, "alpha[i]")
    volume = _view(4, "eta = det[d_1 f ... d_n f xi]")
    f = _view(5, "the chart value f(u), from the stencil's value row; None in a derivative")
    xi = _view(6, "the transversal xi(u), likewise")


@dataclass(frozen=True)
class ImmersionFlags:
    centro_affine: bool
    equiaffine: bool
    nondegenerate: bool
    blaschke: bool
    improper_hypersphere: bool
    proper_hypersphere: bool
    lam: Optional[float] = None

    def __post_init__(self):
        if self.blaschke and not (self.equiaffine and self.nondegenerate):
            raise ValueError("blaschke requires equiaffine and nondegenerate")
        if self.improper_hypersphere and self.proper_hypersphere:
            raise ValueError("proper and improper hypersphere are exclusive")


def _memoized(surface: Hypersurface, u, name: str, compute: Callable) -> ImmersionData:
    """The data ``compute(surface, rows)`` packs at u (n,) or at its rows
    (..., n); the surface's memo stores the packed array per point under
    ``name``, read-only, and a batch's stack is made read-only too."""
    packed = surface.memo.rows(u, lambda b: (name, b), lambda rows: compute(surface, rows))
    packed.flags.writeable = False
    return ImmersionData(packed, surface.dim)


def decompose(surface: Hypersurface, u) -> ImmersionData:
    """Frame-solve the second derivatives of the chart and the transversal
    at u (n,) or at every row of u (..., n).

    Memoized per surface and point; the data of one point is read-only.
    """
    return _memoized(surface, u, "decompose", _decompose)


def _decompose(surface: Hypersurface, U: np.ndarray) -> np.ndarray:
    """Packed [Gamma, h, S, alpha, eta, f, xi] (P, K) at the rows U (P, n)."""
    # one stencil of (f, xi) over every point: the value, first and second partials
    n, P = surface.dim, len(U)
    xi = surface.transversal
    negated = getattr(xi, "func", None) is _negated and xi.args[0] is surface.chart

    def f_xi(X):  # a centro-affine xi = -f negates the chart values, no second call
        f = surface.chart(X)
        return np.stack([f, -np.asarray(f, float) if negated else xi(X)], axis=1)

    V = stencil(f_xi, U,
                [((), None)] + partials(n, 1, CHART_SCHEME_1) + partials(n, 2, CHART_SCHEME_2),
                surface.domain)
    d1, d2 = np.stack(V[1:n + 1], axis=1), np.stack(V[n + 1:], axis=1)
    # frame columns d_a f and xi; right-hand sides d_a d_b f and d_a xi
    frame = np.swapaxes(np.concatenate([d1[:, :, 0], V[0][:, 1:]], axis=1), 1, 2)
    m = d2.shape[1]
    coeffs = solve_frame(frame, np.swapaxes(np.concatenate([d2[:, :, 0], d1[:, :, 1]], axis=1),
                                            1, 2))
    G = symmetric(np.moveaxis(coeffs[..., :m], -1, 0), n, axis=1)
    S, alpha = -coeffs[:, :n, m:], coeffs[:, n, m:]
    return np.concatenate([G[..., :n].reshape(P, -1), G[..., n].reshape(P, -1),
                           S.reshape(P, -1), alpha, np.linalg.det(frame)[:, None],
                           V[0][:, 0], V[0][:, 1]], axis=1)


def induced_derivative(surface: Hypersurface, u) -> ImmersionData:
    """d_a of every induced field at u (n,) or at every row of u (..., n),
    from one stencil over the packed data.

    Each field gains an axis a after the point's, e.g. ``gamma[a, i, j, k]
    = d_a Gamma^k_{ij}`` and ``volume[a] = d_a eta``; the stencil acts
    componentwise, so each entry equals its field's own derivative.  The
    points and the stencil's nodes are decomposed in one batch; each
    point's decomposition (the bits of ``decompose``) is stored as its
    ``decompose`` entry where the memo holds none, and a batch error is
    the one ``decompose`` of the points raises, if any.  Memoized per
    surface and point; the data of one point is read-only.
    """
    return _memoized(surface, u, "induced_derivative", _induced_derivative)


def _induced_derivative(surface: Hypersurface, U: np.ndarray) -> np.ndarray:
    n = surface.dim
    width = n**3 + 2 * n * n + n + 1  # Gamma, h, S, alpha, eta
    try:  # the value rows are the rows U, so V is _decompose(U) with its bits
        V, *D = stencil(partial(_decompose, surface), U,
                        [((), None)] + partials(n, 1, SURFACE_FIELD_SCHEME), surface.domain)
    except Exception:
        decompose(surface, U)  # the grid's own error first, as a separate call raises it
        raise
    for u, value in zip(U, V):  # stored where the memo holds no decomposition yet
        surface.memo.rows(u, lambda b: ("decompose", b), lambda _: value[None])
    return np.stack([d[:, :width] for d in D], axis=1)


def gamma_field(surface: Hypersurface) -> ConnectionField:
    """Induced connection as an infogeo-compatible field."""
    return ConnectionField(dim=surface.dim, up_fn=lambda u: decompose(surface, u).gamma,
                           domain=surface.domain)


def h_field(surface: Hypersurface) -> MetricField:
    """Affine fundamental form as a (possibly degenerate) metric field."""
    return MetricField(dim=surface.dim, fn=lambda u: decompose(surface, u).h,
                       domain=surface.domain)


def _grid_rows(surface: Hypersurface, grid: Sequence) -> np.ndarray:
    if not len(grid):
        raise ValueError("the grid holds no point")
    return np.asarray(grid, dtype=float).reshape(len(grid), surface.dim)


def _require_nondegenerate(det_h, u, why: str = "", carried=None) -> None:
    """DegenerateH naming the first point of u (n,) or (P, n) where |det h|
    falls below ``DEGENERATE_DET_H``, carrying ``carried`` as its partial."""
    small = np.ravel(np.abs(det_h) < DEGENERATE_DET_H)
    if small.any():
        i = int(np.argmax(small))
        point = np.reshape(np.asarray(u, dtype=float), (len(small), -1))[i]
        raise DegenerateH(f"det h = {np.ravel(det_h)[i]:.3e} at u={point.tolist()}{why}",
                          carried)


# ---------------------------------------------------------------------------
# Structural equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralResiduals:
    """Residuals at one point (floats), or per point (arrays (P,))."""

    gauss: float
    codazzi_h: float
    codazzi_s: float
    ricci: float


def structural_check(surface: Hypersurface, u) -> StructuralResiduals:
    """Max-entry residuals of the four structural identities at u (n,), or
    per point (arrays (P,)) at the rows of u (P, n).

    (1) R(X,Y)Z = h(Y,Z)SX - h(X,Z)SY
    (2) (nabla_X h)(Y,Z) + alpha(X) h(Y,Z) symmetric in X,Y
    (3) (nabla_X S)(Y) - alpha(X) SY symmetric in X,Y
    (4) h(X,SY) - h(SX,Y) = d alpha(X,Y)
    Every derivative comes from one ``induced_derivative`` of u, taken
    first: its batch decomposes u too, so ``decompose`` is a memo hit.
    """
    d = induced_derivative(surface, u)
    data = decompose(surface, u)
    G, h, S, al = data.gamma, data.h, data.shape_operator, data.alpha_form

    R = riemann(d.gamma, G)
    gauss_rhs = np.einsum("...jk,...li->...ijkl", h, S) - np.einsum("...ik,...lj->...ijkl", h, S)
    gauss = point_max(R - gauss_rhs, 4)

    lhs_h = covariant_metric_derivative(G, h, d.h) + np.einsum("...i,...jk->...ijk", al, h)
    codazzi_h = point_max(lhs_h - np.swapaxes(lhs_h, -3, -2), 3)

    # (nabla_i S)^k_j = d_i S^k_j + Gamma^k_{im} S^m_j - Gamma^m_{ij} S^k_m
    nabla_S = (d.shape_operator + np.einsum("...imk,...mj->...ikj", G, S)
               - np.einsum("...ijm,...km->...ikj", G, S))
    lhs_s = nabla_S - np.einsum("...i,...kj->...ikj", al, S)
    codazzi_s = point_max(lhs_s - np.swapaxes(lhs_s, -3, -1), 3)

    hS = h @ S
    ricci = point_max(hS - np.swapaxes(hS, -2, -1)
                       - (d.alpha_form - np.swapaxes(d.alpha_form, -2, -1)), 2)

    return StructuralResiduals(gauss=gauss, codazzi_h=codazzi_h,
                               codazzi_s=codazzi_s, ricci=ricci)


# ---------------------------------------------------------------------------
# Induced volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeCheck:
    """Residuals at one point (floats), or per point (arrays (P,))."""

    transport_residual: float   # | d_i eta - Gamma^m_{mi} eta - alpha_i eta |
    blaschke_gap: float         # | |eta| - sqrt|det h| |, NaN where h is degenerate


def _blaschke_gaps(data: ImmersionData):
    """det h and the Blaschke gap per point, the gap NaN where h is degenerate."""
    det_h = np.linalg.det(data.h)
    gap = np.abs(np.abs(data.volume) - np.sqrt(np.abs(det_h)))
    return det_h, np.where(np.abs(det_h) < DEGENERATE_DET_H, np.nan, gap)


def induced_volume_check(surface: Hypersurface, u) -> VolumeCheck:
    """Volume transport identity and the Blaschke gap at u (n,) (floats),
    or per point (arrays (P,)) at the rows of u (P, n).

    The covariant derivative of the induced volume must equal alpha x eta;
    in coordinates d_i eta - Gamma^m_{im} eta = alpha_i eta.  The gap
    compares |eta| against the volume of h and needs h nondegenerate:
    DegenerateH names the first point where it is not, and carries the
    check of every point as ``partial`` (a NaN gap at degenerate points).
    """
    deta = induced_derivative(surface, u).volume  # stores decompose(u) too
    data = decompose(surface, u)
    eta = data.volume[..., None]
    trace_term = np.einsum("...imm->...i", data.gamma) * eta
    residual = point_max(deta - trace_term - data.alpha_form * eta, 1)
    det_h, gap = _blaschke_gaps(data)
    check = VolumeCheck(transport_residual=residual,
                        blaschke_gap=float(gap) if gap.ndim == 0 else gap)
    _require_nondegenerate(det_h, u, "; volume comparison needs nondegenerate h", check)
    return check


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    flags: ImmersionFlags
    centro_residual: float
    max_alpha: float
    min_abs_det_h: float
    max_blaschke_gap: float
    max_S: float
    lambda_mean: Optional[float]
    lambda_deviation: Optional[float]
    tolerance: float


def classify(surface: Hypersurface, grid: Sequence,
             tol: float = 1e-6) -> ClassificationReport:
    """Thresholded flags over a grid; a flag whose test fails is cleared.

    An error of the grid's decomposition propagates (``StencilOutOfDomain``
    at a sphere grid point at u0 = 0.799); ``igeo verify`` records ``error``.

    centro-affine: xi is a negative multiple of the position vector.
    equiaffine:    max |alpha| below tol.
    nondegenerate: min |det h| above tol.
    blaschke:      equiaffine, nondegenerate, and |eta| = sqrt|det h|.
    hypersphere:   S identically zero (improper) or lambda I with constant
                   nonzero lambda (proper); lambda is the grid mean of
                   trace(S)/n with the max deviation reported.
    """
    n = surface.dim
    data = decompose(surface, _grid_rows(surface, grid))
    f, xi, S = data.f, data.xi, data.shape_operator
    denom = _dot(f)
    c = _inner(xi, f) / np.where(denom > 0, denom, 1.0)
    res = np.sqrt(_dot(xi - c[:, None] * f))
    scale = np.fmax(np.sqrt(_dot(xi)), 1e-300)
    centro = np.where((denom > 0) & (c < 0), res / scale, np.inf)
    centro_res = grid_max(centro)
    max_alpha = grid_max(point_max(data.alpha_form, 1))
    det_h, gaps = _blaschke_gaps(data)
    min_det = float(np.abs(det_h).min())
    max_S = grid_max(point_max(S, 2))
    gap_testable = not np.isnan(gaps).any()
    max_gap = grid_max(gaps[~np.isnan(gaps)])

    lam = float(np.mean(np.trace(S, axis1=-2, axis2=-1) / n))
    lam_dev = grid_max(point_max(S - lam * np.eye(n), 2))

    centro = bool(centro_res < tol)
    equi = bool(max_alpha < tol)
    nondeg = bool(min_det > tol)
    blaschke = bool(equi and nondeg and gap_testable and max_gap < tol)
    # hypersphere flags come from S (with the equiaffine/nondegenerate
    # sanity requirements); the volume normalization is reported separately
    # through the blaschke flag
    improper = bool(equi and nondeg and max_S < tol)
    proper = bool(equi and nondeg and not improper and lam_dev < tol and abs(lam) > tol)
    flags = ImmersionFlags(centro_affine=centro, equiaffine=equi,
                           nondegenerate=nondeg, blaschke=blaschke,
                           improper_hypersphere=improper,
                           proper_hypersphere=proper,
                           lam=lam if proper else None)
    return ClassificationReport(flags=flags, centro_residual=centro_res,
                                max_alpha=max_alpha, min_abs_det_h=min_det,
                                max_blaschke_gap=max_gap if gap_testable else float("nan"),
                                max_S=max_S, lambda_mean=lam,
                                lambda_deviation=lam_dev, tolerance=tol)


# ---------------------------------------------------------------------------
# Statistical structure export
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StatisticalStructure:
    gamma: ConnectionField
    h: MetricField
    codazzi_residual: np.ndarray  # (P,) per grid point
    is_statistical: bool
    tolerance: float


def statistical_structure(surface: Hypersurface, grid: Sequence,
                          tol: float = 1e-5) -> StatisticalStructure:
    """Induced (connection, h) pair with its Codazzi residual per grid point (P,).

    The pair is a statistical structure precisely when the residual
    vanishes: ``is_statistical`` when every point's is below ``tol`` (a NaN
    is not).  A non-equiaffine transversal shows up as a residual of the
    size of alpha.  Raises DegenerateH, naming the first grid point where
    h is singular.
    """
    rows = _grid_rows(surface, grid)
    data = decompose(surface, rows)
    _require_nondegenerate(np.linalg.det(data.h), rows)
    nabla_h = covariant_metric_derivative(data.gamma, data.h,
                                          induced_derivative(surface, rows).h)
    residual = point_max(nabla_h - np.swapaxes(nabla_h, -3, -1), 3)
    return StatisticalStructure(gamma=gamma_field(surface), h=h_field(surface),
                                codazzi_residual=residual,
                                is_statistical=bool((residual < tol).all()),
                                tolerance=tol)


# ---------------------------------------------------------------------------
# Builtin surfaces and schema loading
# ---------------------------------------------------------------------------

def scaled_sphere(c: float) -> Hypersurface:
    """Upper hemisphere of the sphere of radius c in the graph chart, xi = -f."""

    def chart(u):
        u = np.asarray(u, dtype=float)
        r = 1.0 - _dot(u)
        if (r < 0).any():
            raise OutOfDomain("sphere chart is defined on the unit disk only, "
                              f"got u = {u[r < 0][0].tolist()}")
        return c * np.stack([u[..., 0], u[..., 1], np.sqrt(r)], axis=-1)

    return Hypersurface.centro_affine(chart, Box((-0.8, -0.8), (0.8, 0.8)),
                                      dim=2, label=f"sphere-scaled-{c}")


def unit_sphere() -> Hypersurface:
    """Upper hemisphere of the unit sphere in the graph chart, xi = -f."""
    return replace(scaled_sphere(1.0), label="sphere")


def _inner(u, v):  # u @ v per row of (..., n), with the bits of the one-point product
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _dot(u):
    return _inner(u, u)


def _paraboloid_chart(u):
    u = np.asarray(u, dtype=float)
    return np.stack([u[..., 0], u[..., 1], 0.5 * _dot(u)], axis=-1)


def paraboloid() -> Hypersurface:
    """Elliptic paraboloid x3 = (x1^2 + x2^2)/2 with constant transversal e3."""
    return Hypersurface(chart=_paraboloid_chart,
                        transversal=lambda u: np.broadcast_to([0.0, 0.0, 1.0],
                                                              np.shape(u)[:-1] + (3,)),
                        domain=Box((-2.0, -2.0), (2.0, 2.0)), dim=2, label="paraboloid")


def tilted_paraboloid() -> Hypersurface:
    """Paraboloid with a deliberately non-equiaffine transversal, slope 0.3."""

    def xi(u):
        u = np.asarray(u, dtype=float)
        return np.stack([0.3 * u[..., 0], np.zeros(u.shape[:-1]), np.ones(u.shape[:-1])], -1)

    return Hypersurface(chart=_paraboloid_chart, transversal=xi,
                        domain=Box((-2.0, -2.0), (2.0, 2.0)), dim=2,
                        label="paraboloid-tilted-0.3")


def plane() -> Hypersurface:
    """Affine plane x3 = 1 with xi = -position (h degenerates)."""

    def chart(u):
        u = np.asarray(u, dtype=float)
        return np.stack([u[..., 0], u[..., 1], np.ones(u.shape[:-1])], axis=-1)

    return Hypersurface.centro_affine(chart, Box((-2.0, -2.0), (2.0, 2.0)), dim=2,
                                      label="plane")


SURFACES = {
    "sphere": unit_sphere,
    "paraboloid": paraboloid,
    "paraboloid-tilted": tilted_paraboloid,
    "plane": plane,
}


def load_surface(doc: dict | str) -> Hypersurface:
    """Build a surface from {"name", "dim", "chart": [exprs over u[i]],
    "transversal": [exprs] | "centro-affine", "domain": {"lo","hi"}} or a
    builtin name."""
    builtin = builtin_or_schema(doc, "surface", SURFACES)
    if builtin is not None:
        return builtin
    name, dim, chart_exprs, domain, tr = spec_fields(
        doc, "surface", {"name": str, "dim": None, "chart": list, "domain": dict},
        {"transversal": (list, "centro-affine")})
    dim = spec_number(dim, "surface dim", integral=True)
    if len(chart_exprs) != dim + 1:
        raise SchemaError("chart must list dim+1 component expressions")
    chart = compile_chart(chart_exprs, dim)
    box = domain_from_doc(domain, dim)
    if tr == "centro-affine":
        return Hypersurface.centro_affine(chart, box, dim, label=name)
    if len(tr) != dim + 1:
        raise SchemaError('transversal must be "centro-affine" or dim+1 expressions')
    return Hypersurface(chart=chart, transversal=compile_chart(tr, dim), domain=box, dim=dim,
                        label=name)
