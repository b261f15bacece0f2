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

Every check that differentiates this data (Gauss, Codazzi, Ricci, volume
transport, statistical structure) reads ``induced_derivative``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateH, OutOfDomain, SchemaError
from .expressions import compile_chart
from .infogeo import (ConnectionField, MetricField,
                      covariant_metric_derivative, riemann)
from .models import Box, domain_from_doc, number_from_doc
from .numerics import (DiffScheme, PointMemo, gradient, partials, solve_frame,
                       stencil, symmetric)

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
        return cls(chart=chart, transversal=lambda u: -np.asarray(chart(u), float),
                   domain=domain, dim=dim, label=label)


@dataclass(frozen=True, eq=False)
class ImmersionData:
    """Induced data at one chart point (or its d_a, see ``induced_derivative``)."""

    gamma: np.ndarray        # gamma[i,j,k] = Gamma^k_{ij}
    h: np.ndarray            # affine fundamental form
    shape_operator: np.ndarray   # S[k,i] = S^k_i, columns act on basis vectors
    alpha_form: np.ndarray   # alpha[i]
    volume: float            # eta = det[d_1 f ... d_n f xi]


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


def decompose(surface: Hypersurface, u) -> ImmersionData:
    """Frame-solve the second derivatives of the chart and the transversal.

    Memoized per surface and point; the returned arrays are read-only.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return surface.memo.get(("decompose", u.tobytes()),
                            lambda: _decompose(surface, u))


def _decompose(surface: Hypersurface, u: np.ndarray) -> ImmersionData:
    # one stencil of (f, xi): the value, first and second partials
    n = surface.dim
    V = stencil(lambda U: np.stack([surface.chart(U), surface.transversal(U)], axis=1), u,
                [((), None)] + partials(n, 1, CHART_SCHEME_1) + partials(n, 2, CHART_SCHEME_2),
                surface.domain)
    d1, d2 = np.array(V[1:n + 1]), np.array(V[n + 1:])
    frame = np.column_stack([*d1[:, 0], V[0][1]])
    coeffs = solve_frame(frame, np.concatenate([d2[:, 0], d1[:, 1]]).T)
    G = symmetric(coeffs[:, :len(d2)].T, n)
    gamma, h = G[..., :n], G[..., n]
    S, alpha = -coeffs[:n, len(d2):], coeffs[n, len(d2):]

    return ImmersionData(gamma=gamma, h=h, shape_operator=S,
                         alpha_form=alpha, volume=float(np.linalg.det(frame)))


def induced_derivative(surface: Hypersurface, u) -> ImmersionData:
    """d_a of every induced field at u, from one stencil over the packed data.

    Each field gains a leading axis a, e.g. ``gamma[a, i, j, k] = d_a
    Gamma^k_{ij}`` and ``volume[a] = d_a eta``; the stencil acts
    componentwise, so each entry equals its field's own derivative.
    Memoized per surface and point; the returned arrays are read-only.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return surface.memo.get(("induced_derivative", u.tobytes()),
                            lambda: _induced_derivative(surface, u))


def _induced_derivative(surface: Hypersurface, u: np.ndarray) -> ImmersionData:
    n = surface.dim

    def packed(v):
        d = decompose(surface, v)
        return np.concatenate([d.gamma.ravel(), d.h.ravel(),
                               d.shape_operator.ravel(), d.alpha_form, [d.volume]])

    D = gradient(packed, u, SURFACE_FIELD_SCHEME, surface.domain)
    gamma, h, S, alpha, eta = np.split(D, np.cumsum([n**3, n * n, n * n, n]), axis=1)
    return ImmersionData(gamma=gamma.reshape(n, n, n, n), h=h.reshape(n, n, n),
                         shape_operator=S.reshape(n, n, n), alpha_form=alpha, volume=eta[:, 0])


def gamma_field(surface: Hypersurface) -> ConnectionField:
    """Induced connection as an infogeo-compatible field."""
    return ConnectionField(dim=surface.dim,
                           up_fn=lambda u: decompose(surface, u).gamma,
                           provenance="induced", domain=surface.domain)


def h_field(surface: Hypersurface) -> MetricField:
    """Affine fundamental form as a (possibly degenerate) metric field."""
    return MetricField(dim=surface.dim, fn=lambda u: decompose(surface, u).h,
                       label=f"h[{surface.label}]", domain=surface.domain)


# ---------------------------------------------------------------------------
# Structural equations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructuralResiduals:
    gauss: float
    codazzi_h: float
    codazzi_s: float
    ricci: float

    @property
    def max(self) -> float:
        return max(self.gauss, self.codazzi_h, self.codazzi_s, self.ricci)


def structural_check(surface: Hypersurface, u) -> StructuralResiduals:
    """Max-entry residuals of the four structural identities at u.

    (1) R(X,Y)Z = h(Y,Z)SX - h(X,Z)SY
    (2) (nabla_X h)(Y,Z) + alpha(X) h(Y,Z) symmetric in X,Y
    (3) (nabla_X S)(Y) - alpha(X) SY symmetric in X,Y
    (4) h(X,SY) - h(SX,Y) = d alpha(X,Y)
    Every derivative comes from one ``induced_derivative`` at u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    data = decompose(surface, u)
    d = induced_derivative(surface, u)
    G, h, S, al = data.gamma, data.h, data.shape_operator, data.alpha_form

    R = riemann(d.gamma, G)
    gauss_rhs = np.einsum("jk,li->ijkl", h, S) - np.einsum("ik,lj->ijkl", h, S)
    gauss = float(np.abs(R - gauss_rhs).max())

    lhs_h = covariant_metric_derivative(G, h, d.h) + np.einsum("i,jk->ijk", al, h)
    codazzi_h = float(np.abs(lhs_h - np.transpose(lhs_h, (1, 0, 2))).max())

    # (nabla_i S)^k_j = d_i S^k_j + Gamma^k_{im} S^m_j - Gamma^m_{ij} S^k_m
    nabla_S = (d.shape_operator + np.einsum("imk,mj->ikj", G, S)
               - np.einsum("ijm,km->ikj", G, S))
    lhs_s = nabla_S - np.einsum("i,kj->ikj", al, S)
    codazzi_s = float(np.abs(lhs_s - np.transpose(lhs_s, (2, 1, 0))).max())

    ricci_lhs = h @ S - (h @ S).T
    ricci = float(np.abs(ricci_lhs - (d.alpha_form - d.alpha_form.T)).max())

    return StructuralResiduals(gauss=gauss, codazzi_h=codazzi_h,
                               codazzi_s=codazzi_s, ricci=ricci)


# ---------------------------------------------------------------------------
# Induced volume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VolumeCheck:
    transport_residual: float   # | d_i eta - Gamma^m_{mi} eta - alpha_i eta |
    blaschke_gap: float         # | |eta| - sqrt|det h| |


def _blaschke_gap(data: ImmersionData, u: np.ndarray) -> float:
    det_h = float(np.linalg.det(data.h))
    if abs(det_h) < DEGENERATE_DET_H:
        raise DegenerateH(f"det h = {det_h:.3e} at u={u.tolist()}; "
                          "volume comparison needs nondegenerate h")
    return float(abs(abs(data.volume) - math.sqrt(abs(det_h))))


def induced_volume_check(surface: Hypersurface, u) -> VolumeCheck:
    """Volume transport identity and the Blaschke gap at u.

    The covariant derivative of the induced volume must equal alpha x eta;
    in coordinates d_i eta - Gamma^m_{im} eta = alpha_i eta.  The gap
    compares |eta| against the volume of h and needs h nondegenerate.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    data = decompose(surface, u)
    deta = induced_derivative(surface, u).volume
    trace_term = np.einsum("imm->i", data.gamma) * data.volume
    residual = float(np.abs(deta - trace_term - data.alpha_form * data.volume).max())
    return VolumeCheck(transport_residual=residual,
                       blaschke_gap=_blaschke_gap(data, u))


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
    """Thresholded flags over a grid; failures clear flags, never raise.

    centro-affine: xi is a negative multiple of the position vector.
    equiaffine:    max |alpha| below tol.
    nondegenerate: min |det h| above tol.
    blaschke:      equiaffine, nondegenerate, and |eta| = sqrt|det h|.
    hypersphere:   S identically zero (improper) or lambda I with constant
                   nonzero lambda (proper); lambda is the grid mean of
                   trace(S)/n with the max deviation reported.
    """
    n = surface.dim
    centro_res = 0.0
    max_alpha = 0.0
    min_det = float("inf")
    max_gap = 0.0
    max_S = 0.0
    shapes = []
    lam_dev = 0.0
    gap_testable = True
    for u in grid:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        data = decompose(surface, u)
        f = np.asarray(surface.chart(u), dtype=float)
        xi = np.asarray(surface.transversal(u), dtype=float)
        denom = float(f @ f)
        if denom > 0:
            c = float(xi @ f) / denom
            res = float(np.linalg.norm(xi - c * f))
            scale = max(float(np.linalg.norm(xi)), 1e-300)
            centro_res = max(centro_res, res / scale if c < 0 else float("inf"))
        else:
            centro_res = float("inf")
        max_alpha = max(max_alpha, float(np.abs(data.alpha_form).max()))
        det_h = float(np.linalg.det(data.h))
        min_det = min(min_det, abs(det_h))
        max_S = max(max_S, float(np.abs(data.shape_operator).max()))
        shapes.append(data.shape_operator)
        try:
            max_gap = max(max_gap, _blaschke_gap(data, u))
        except DegenerateH:
            gap_testable = False

    lam = float(np.mean([float(np.trace(S)) / n for S in shapes])) if shapes else None
    for S in shapes:
        lam_dev = max(lam_dev, float(np.abs(S - lam * np.eye(n)).max()))

    centro = bool(centro_res < tol)
    equi = bool(max_alpha < tol)
    nondeg = bool(min_det > tol)
    blaschke = bool(equi and nondeg and gap_testable and max_gap < tol)
    # hypersphere flags come from S (with the equiaffine/nondegenerate
    # sanity requirements); the volume normalization is reported separately
    # through the blaschke flag
    improper = bool(equi and nondeg and max_S < tol)
    proper = bool(equi and nondeg and not improper and lam is not None
                  and lam_dev < tol and abs(lam) > tol)
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
    codazzi_residual: float
    is_statistical: bool
    tolerance: float


def statistical_structure(surface: Hypersurface, grid: Sequence,
                          tol: float = 1e-5) -> StatisticalStructure:
    """Induced (connection, h) pair with its Codazzi residual over a grid.

    The pair is a statistical structure precisely when the residual
    vanishes; a non-equiaffine transversal shows up as a residual of the
    size of alpha.  Raises DegenerateH when h is singular on the grid.
    """
    residual = 0.0
    for u in grid:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        data = decompose(surface, u)
        det_h = float(np.linalg.det(data.h))
        if abs(det_h) < DEGENERATE_DET_H:
            raise DegenerateH(f"det h = {det_h:.3e} at u={u.tolist()}")
        nabla_h = covariant_metric_derivative(data.gamma, data.h,
                                              induced_derivative(surface, u).h)
        residual = max(residual,
                       float(np.abs(nabla_h - np.transpose(nabla_h, (2, 1, 0))).max()))
    return StatisticalStructure(gamma=gamma_field(surface), h=h_field(surface),
                                codazzi_residual=residual,
                                is_statistical=bool(residual < tol),
                                tolerance=tol)


# ---------------------------------------------------------------------------
# Builtin surfaces and schema loading
# ---------------------------------------------------------------------------

def scaled_sphere(c: float, extent: float = 0.8) -> Hypersurface:
    """Upper hemisphere of the sphere of radius c in the graph chart, xi = -f."""

    def chart(u):
        u = np.asarray(u, dtype=float)
        r = 1.0 - _dot(u)
        if (r < 0).any():
            raise OutOfDomain("sphere chart is defined on the unit disk only, "
                              f"got u = {u[r < 0][0].tolist()}")
        return c * np.stack([u[..., 0], u[..., 1], np.sqrt(r)], axis=-1)

    return Hypersurface.centro_affine(chart, Box((-extent, -extent), (extent, extent)),
                                      dim=2, label=f"sphere-scaled-{c}")


def unit_sphere(extent: float = 0.8) -> Hypersurface:
    """Upper hemisphere of the unit sphere in the graph chart, xi = -f."""
    return replace(scaled_sphere(1.0, extent), label="sphere")


def _dot(u):  # u @ u per row of (..., n), with the bits of the one-point product
    return (u[..., None, :] @ u[..., :, None])[..., 0, 0]


def _paraboloid_chart(u):
    u = np.asarray(u, dtype=float)
    return np.stack([u[..., 0], u[..., 1], 0.5 * _dot(u)], axis=-1)


def paraboloid(extent: float = 2.0) -> Hypersurface:
    """Elliptic paraboloid x3 = (x1^2 + x2^2)/2 with constant transversal e3."""
    return Hypersurface(chart=_paraboloid_chart,
                        transversal=lambda u: np.broadcast_to([0.0, 0.0, 1.0],
                                                              np.shape(u)[:-1] + (3,)),
                        domain=Box((-extent, -extent), (extent, extent)),
                        dim=2, label="paraboloid")


def tilted_paraboloid(slope: float = 0.3, extent: float = 2.0) -> Hypersurface:
    """Paraboloid with a deliberately non-equiaffine transversal."""

    def xi(u):
        u = np.asarray(u, dtype=float)
        return np.stack([slope * u[..., 0], np.zeros(u.shape[:-1]), np.ones(u.shape[:-1])], -1)

    return Hypersurface(chart=_paraboloid_chart, transversal=xi,
                        domain=Box((-extent, -extent), (extent, extent)),
                        dim=2, label=f"paraboloid-tilted-{slope}")


def plane(height: float = 1.0, extent: float = 2.0) -> Hypersurface:
    """Affine plane x3 = height with xi = -position (h degenerates)."""

    def chart(u):
        u = np.asarray(u, dtype=float)
        return np.stack([u[..., 0], u[..., 1], np.full(u.shape[:-1], height)], axis=-1)

    return Hypersurface.centro_affine(chart, Box((-extent, -extent), (extent, extent)),
                                      dim=2, label="plane")


SURFACES = {
    "sphere": unit_sphere,
    "paraboloid": paraboloid,
    "paraboloid-tilted": tilted_paraboloid,
    "plane": plane,
}


def load_surface(doc: dict) -> Hypersurface:
    """Build a surface from {"name", "dim", "chart": [exprs over u[i]],
    "transversal": [exprs] | "centro-affine", "domain": {"lo","hi"}}."""
    if not isinstance(doc, dict):
        raise SchemaError("surface document must be a mapping")
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in SURFACES:
            raise SchemaError(f"unknown builtin surface {name!r}")
        return SURFACES[name]()
    for key in ("name", "dim", "chart", "domain"):
        if key not in doc:
            raise SchemaError(f"surface document is missing {key!r}")
    dim = number_from_doc(int, doc["dim"], "surface dim")
    chart_exprs = doc["chart"]
    if not isinstance(chart_exprs, list) or len(chart_exprs) != dim + 1:
        raise SchemaError("chart must list dim+1 component expressions")
    chart = compile_chart(chart_exprs, dim)
    box = domain_from_doc(doc, dim)

    tr = doc.get("transversal", "centro-affine")
    if tr == "centro-affine":
        return Hypersurface.centro_affine(chart, box, dim, label=doc["name"])
    if not isinstance(tr, list) or len(tr) != dim + 1:
        raise SchemaError('transversal must be "centro-affine" or dim+1 expressions')
    return Hypersurface(chart=chart, transversal=compile_chart(tr, dim), domain=box, dim=dim,
                        label=doc["name"])
