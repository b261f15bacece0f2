"""Submanifold embeddings, embedding curvature, autoparallel and
exponential-form tests, and coordinate slices of potential families.

An embedding is a map ``u -> theta(u)`` into the parameter domain of an
ambient model, with Jacobian columns B_a required to be linearly
independent.  The embedding curvature collects the normal components of the
ambient covariant derivative of the coordinate frame:

    V_ab = d_a d_b theta + Gamma(B_a, B_b),      H_abk = g(V_ab, N_k)

for a g-orthonormal frame {N_k} of the normal space.  H = 0 on a grid is
the autoparallel certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dualflat import PotentialFamily, family_model
from .errors import (EmptyFixed, EmptyFree, IncompatibleConstants,
                     RankDeficientB, SchemaError)
from .expressions import compile_chart
from .immersion import CHART_SCHEME_1, CHART_SCHEME_2
from .infogeo import ConnectionField, MetricField
from .models import (Box, SampleSpace, StatisticalModel, domain_from_doc,
                     load_model, normal_quantiles, second_log_derivs)
from .numerics import batches, partials, stencil, symmetric, tensor_grid

_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SubmanifoldEmbedding:
    """Parameter map u -> theta(u) into an ambient statistical model."""

    ambient: StatisticalModel
    chart: Callable          # u rows (..., m) -> theta rows (..., n)
    domain: Box              # of u
    dim: int                 # m <= ambient.dim
    label: str = ""

    def __post_init__(self):
        if self.dim > self.ambient.dim:
            raise ValueError("embedding dimension exceeds the ambient dimension")
        if self.domain.dim != self.dim:
            raise ValueError("embedding domain dimension must equal dim")

    def theta(self, u) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.chart(np.atleast_1d(
            np.asarray(u, dtype=float))), dtype=float))


def _chart_jet(emb: SubmanifoldEmbedding, u: np.ndarray):
    """theta(u), the Jacobian B[:, a] = d theta / d u_a and V[a, b] = d_a d_b
    theta from one stencil of the chart, evaluated once per distinct node
    (the first partials' nodes lead, as when they were a stencil of their
    own); raises RankDeficientB."""
    m = emb.dim
    V = stencil(emb.chart, u,
                partials(m, 1, CHART_SCHEME_1) + [((), None)] + partials(m, 2, CHART_SCHEME_2),
                emb.domain)
    B = np.array(V[:m]).reshape(m, -1).T
    if np.linalg.matrix_rank(B, tol=_RANK_TOL) < m:
        raise RankDeficientB(f"Jacobian columns dependent at u={u.tolist()}")
    return np.atleast_1d(V[m]), B, symmetric(V[m + 1:], m).reshape(m, m, -1)


def tangent_basis(emb: SubmanifoldEmbedding, u) -> np.ndarray:
    """Jacobian columns B[:, a] = d theta / d u_a; raises RankDeficientB."""
    return _chart_jet(emb, np.atleast_1d(np.asarray(u, dtype=float)))[1]


def normal_frame(g: np.ndarray, B: np.ndarray) -> np.ndarray:
    """g-orthonormal basis of the g-orthogonal complement of span(B).

    Gram-Schmidt over the tangent columns followed by the ambient
    coordinate axes in index order; deterministic for fixed inputs.
    """
    n = g.shape[0]
    m = B.shape[1]
    accepted = []

    def project(v):
        w = v.astype(float).copy()
        for q in accepted:
            w -= float(q @ g @ w) * q
        return w

    for a in range(m):
        w = project(B[:, a])
        norm2 = float(w @ g @ w)
        if norm2 <= _RANK_TOL:
            raise RankDeficientB("tangent columns are g-degenerate")
        accepted.append(w / np.sqrt(norm2))
    for i in range(n):
        if len(accepted) == n:
            break
        w = project(np.eye(n)[i])
        norm2 = float(w @ g @ w)
        if norm2 > _RANK_TOL:
            accepted.append(w / np.sqrt(norm2))
    if len(accepted) != n:
        raise RankDeficientB("could not complete a g-orthonormal frame")
    return np.column_stack(accepted[m:]) if n > m else np.zeros((n, 0))


@dataclass(frozen=True, eq=False)
class EmbeddingCurvature:
    H: np.ndarray            # (m, m, n-m), symmetric in the first two axes
    max_abs: float
    normal_basis: np.ndarray  # (n, n-m) columns


def embedding_curvature(emb: SubmanifoldEmbedding, conn: ConnectionField,
                        metric: MetricField, u) -> EmbeddingCurvature:
    """Second fundamental data of the embedding at u for the connection."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    m = emb.dim
    th, B, V = _chart_jet(emb, u)
    g = metric(th)
    up = conn.up(th)

    N = normal_frame(g, B)
    for a in range(m):
        for b in range(a, m):
            V[a, b] = V[b, a] = V[a, b] + np.einsum("jki,j,k->i", up, B[:, a], B[:, b])
    H = np.einsum("abi,ij,jk->abk", V, g, N)
    max_abs = float(np.abs(H).max()) if H.size else 0.0
    return EmbeddingCurvature(H=H, max_abs=max_abs, normal_basis=N)


@dataclass(frozen=True)
class AutoparallelReport:
    autoparallel: bool
    max_abs: float
    tolerance: float


def autoparallel_check(emb: SubmanifoldEmbedding, conn: ConnectionField,
                       metric: MetricField, grid: Sequence,
                       tol: float = 1e-5) -> AutoparallelReport:
    """True when the embedding curvature vanishes over the whole grid."""
    worst = 0.0
    for u in grid:
        worst = max(worst, embedding_curvature(emb, conn, metric, u).max_abs)
    return AutoparallelReport(autoparallel=bool(worst < tol), max_abs=worst,
                              tolerance=tol)


def composed_model(emb: SubmanifoldEmbedding) -> StatisticalModel:
    """The ambient family restricted to the embedded parameters: a batch of
    u rows takes one chart call and one domain test (OutOfDomain names the
    first theta row outside) and one ambient log-density call."""

    def ll(x, u):
        return emb.ambient.log_density(x, emb.ambient.check_theta(emb.theta(u)))

    return StatisticalModel(space=emb.ambient.space, dim=emb.dim,
                            domain=emb.domain, log_density=ll,
                            label=f"{emb.label or 'embedding'}"
                                  f"<{emb.ambient.label}>")


# ---------------------------------------------------------------------------
# Exponential form
# ---------------------------------------------------------------------------

def probe_points(space: SampleSpace, count: int = 8) -> np.ndarray:
    """Sample-space probes: quantile-spread for continuous (through
    ``models.normal_quantiles``), full support (up to truncation) for discrete."""
    if space.points is not None:
        return space.points
    per_dim = int(np.ceil(max(count, 8) ** (1.0 / space.xdim)))
    x1 = normal_quantiles(space.rule, np.linspace(0.05, 0.95, per_dim))
    return tensor_grid([x1] * space.xdim)


@dataclass(frozen=True)
class ExponentialFormReport:
    is_exponential_form: bool
    max_variation: float
    tolerance: float
    note: str = ("variation of second parameter derivatives across sample "
                 "probes; a negative result only means the given coordinates "
                 "are not natural parameters, not that no exponential "
                 "reparametrization exists")


def exponential_form_check(model: StatisticalModel, grid: Sequence,
                           probes: Optional[np.ndarray] = None,
                           tol: float = 1e-4) -> ExponentialFormReport:
    """Do second parameter-derivatives of log p carry any x dependence?

    For a family in natural exponential form they equal the negative
    potential Hessian at every sample point, so the probe-to-probe
    variation certifies the given coordinates as natural parameters.  The
    second derivatives at every grid point come from one stencil, or one
    per point under adaptive quadrature, where a family's K depends on the
    rows one integral holds.
    """
    if probes is None:
        probes = probe_points(model.space)
    # discrete supports smaller than 8 are probed in full
    if len(probes) < 8 and model.space.points is None:
        raise ValueError("need at least 8 probe points on a continuous space")
    rows = np.reshape(grid, (len(grid), -1))
    worst = max(float((dd.max(axis=-1) - dd.min(axis=-1)).max()) for dd in (
        second_log_derivs(model, b, probes) for b in batches(model.space, rows)))
    return ExponentialFormReport(is_exponential_form=bool(worst < tol),
                                 max_variation=worst, tolerance=tol)


# ---------------------------------------------------------------------------
# Coordinate slices of a potential family
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CoordinateSlice:
    embedding: SubmanifoldEmbedding
    family: PotentialFamily
    free_indices: tuple
    fixed_indices: tuple
    constants: np.ndarray


def coordinate_slice(family: PotentialFamily, fixed_indices: Sequence[int],
                     constants: Sequence[float]) -> CoordinateSlice:
    """Fix a proper subset of natural coordinates to constants.

    The slice is again an exponential family: the fixed statistics are
    absorbed into the base measure weighted by their constants, and the free
    coordinates chart an affine (hence e-autoparallel) submanifold.
    """
    n = family.dim
    fixed = tuple(sorted(set(int(i) for i in fixed_indices)))
    if not fixed:
        raise EmptyFixed("slice needs at least one fixed index")
    if any(i < 0 or i >= n for i in fixed):
        raise IncompatibleConstants(f"fixed indices {fixed} out of range for "
                                    f"dimension {n}")
    free = tuple(i for i in range(n) if i not in fixed)
    if not free:
        raise EmptyFree("slice must leave at least one free coordinate")
    consts = np.asarray(constants, dtype=float)
    if consts.shape != (len(fixed),):
        raise IncompatibleConstants("need exactly one constant per fixed index")
    for i, c in zip(fixed, consts):
        if not (family.domain.lo[i] < c < family.domain.hi[i]):
            raise IncompatibleConstants(
                f"constant {c} for coordinate {i} outside the domain slab")

    def chart(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        th = np.empty(u.shape[:-1] + (n,))
        th[..., list(free)] = u
        th[..., list(fixed)] = consts
        return th

    sub_box = Box(tuple(family.domain.lo[i] for i in free),
                  tuple(family.domain.hi[i] for i in free))
    emb = SubmanifoldEmbedding(ambient=family_model(family), chart=chart,
                               domain=sub_box, dim=len(free),
                               label=f"slice{list(fixed)}={consts.tolist()}")

    fixed_stats = tuple(family.stats[i] for i in fixed)

    def absorbed_base(x):
        total = np.asarray(family.base(x), dtype=float)
        for c, F in zip(consts, fixed_stats):
            total = total + c * np.asarray(F(x), dtype=float)
        return total

    sliced = PotentialFamily(stats=tuple(family.stats[i] for i in free),
                             base=absorbed_base, space=family.space,
                             domain=sub_box,
                             label=f"{family.label}|{emb.label}")
    return CoordinateSlice(embedding=emb, family=sliced,
                           free_indices=free, fixed_indices=fixed,
                           constants=consts)


def load_embedding(doc: dict) -> SubmanifoldEmbedding:
    """Build an embedding from {"ambient": model doc | builtin name,
    "map": [exprs over u[i]], "domain": {"lo","hi"}}."""
    if not isinstance(doc, dict):
        raise SchemaError("embedding document must be a mapping")
    for key in ("ambient", "map", "domain"):
        if key not in doc:
            raise SchemaError(f"embedding document is missing {key!r}")
    ambient_doc = doc["ambient"]
    if isinstance(ambient_doc, str):
        ambient_doc = {"builtin": ambient_doc}
    ambient = load_model(ambient_doc)
    exprs = doc["map"]
    if not isinstance(exprs, list) or len(exprs) != ambient.dim:
        raise SchemaError("map must list one expression per ambient coordinate")
    box = domain_from_doc(doc)
    chart = compile_chart(exprs, box.dim)
    return SubmanifoldEmbedding(ambient=ambient, chart=chart, domain=box,
                                dim=box.dim, label=doc.get("name", "embedding"))
