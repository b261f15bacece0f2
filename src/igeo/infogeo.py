"""Metric, connections and curvature of a statistical model.

Index conventions, fixed across the toolkit (all arrays are numpy):

* ``low[i, j, k]``  = Gamma_{ij,k}            (last index lowered)
* ``up[i, j, k]``   = Gamma^k_{ij}            (last index raised)
* ``R[i, j, k, l]`` = R^l_{ijk}, i.e. the l-component of R(e_i, e_j) e_k
* ``Ric[j, k]``     = trace of X -> R(X, e_j) e_k = sum_m R[m, j, k, m]

All formulas are coordinate expressions in a frame with vanishing brackets,
so no explicit commutator terms appear.  Tensor fields are callables in
small dataclasses, batched like log-densities: theta rows (..., n) give one
tensor per row, with the bits of a one-point call, so a grid sweep takes
one batch per layer (one field stencil, one stacked condition test).

Every alpha-connection splits into two alpha-independent moments of the
log-density l (Amari & Nagaoka 2000, sec. 2.3):

    Gamma^a_{ij,k} = A_{ijk} + (1-a)/2 T_{ijk},
    A = E[d_i d_j l d_k l],  T = E[d_i l d_j l d_k l].

A, T and the Fisher metric g = E[d_i l d_j l] are one integral of the
log-density jet per point (``numerics.integrate``, under any rule), stored
on the model's memo, so any number of alphas cost one integral.  A jet is
one ``numerics.stencil`` batch: one log-density call on the theta rows of
every score and second-derivative node and the point itself, for a chunk
of points under a node rule, or one point of adaptive quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SingularMetric
from .models import SCORE_SCHEME, StatisticalModel, log_density_jet, log_density_rows
from .numerics import DiffScheme, integrate, node_quadrature, partials, stencil

# Differentiating an already-computed tensor field stacks a second finite
# difference on top of quadrature noise; a wider extrapolated step keeps the
# amplification in check.
FIELD_SCHEME = DiffScheme(order=1, base_step=2.0**-7, richardson_levels=1)

_METRIC_CONDITION_CAP = 1e12

# Points times quadrature nodes in one batched jet of a node rule, set on
# model-grid: a 4096-node point (logistic-location-2) takes a jet of its
# own, as larger batches ran slower, and 96-node models take 21 points, as
# 42 raised the peak RSS by about 1 MB.
ROW_BUDGET = 2**11


@dataclass(frozen=True, eq=False)
class MetricField:
    """A parameter-dependent symmetric bilinear form, theta (..., n) -> (..., n, n)."""

    dim: int
    fn: Callable
    label: str = ""
    domain: object = None

    def __call__(self, theta) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_1d(np.asarray(theta, float))), float)

    @classmethod
    def constant(cls, matrix, label: str = "constant") -> "MetricField":
        g = np.asarray(matrix, dtype=float)
        return cls(dim=g.shape[0], fn=lambda th: np.broadcast_to(g, th.shape[:-1] + g.shape),
                   label=label)


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """Connection coefficients as a field, in lowered and/or raised form.

    Whichever form is missing is produced through the attached metric; both
    map theta (..., n) to (..., n, n, n).
    ``provenance`` records how the field was built ("alpha=1", "induced",
    "levi-civita", "custom", ...).
    """

    dim: int
    low_fn: Optional[Callable] = None
    up_fn: Optional[Callable] = None
    metric: Optional[MetricField] = None
    provenance: str = "custom"
    domain: object = None

    def low(self, theta) -> np.ndarray:
        th = np.atleast_1d(np.asarray(theta, float))
        if self.low_fn is not None:
            return np.asarray(self.low_fn(th), float)
        if self.up_fn is None or self.metric is None:
            raise ValueError("connection field needs low_fn, or up_fn plus a metric")
        return lower_connection(np.asarray(self.up_fn(th), float), self.metric(th))

    def up(self, theta) -> np.ndarray:
        th = np.atleast_1d(np.asarray(theta, float))
        if self.up_fn is not None:
            return np.asarray(self.up_fn(th), float)
        if self.low_fn is None or self.metric is None:
            raise ValueError("connection field needs up_fn, or low_fn plus a metric")
        return raise_connection(np.asarray(self.low_fn(th), float), self.metric(th))

    @classmethod
    def zero(cls, dim: int) -> "ConnectionField":
        z = np.zeros((dim, dim, dim))
        zero = lambda th: np.broadcast_to(z, th.shape[:-1] + z.shape)
        return cls(dim=dim, up_fn=zero, low_fn=zero, provenance="flat")


def _conditioned(g: np.ndarray, name: str = "metric") -> np.ndarray:
    """g (..., n, n) after one stacked condition test (SVDs); SingularMetric
    names ``name`` and the first failing condition."""
    cond = np.ravel(np.linalg.cond(g))
    if not (cond <= _METRIC_CONDITION_CAP).all():
        bad = cond[np.argmin(cond <= _METRIC_CONDITION_CAP)]
        raise SingularMetric(f"{name} condition {bad:.3e} exceeds cap")
    return g


def raise_connection(low: np.ndarray, g: np.ndarray, name: str = "metric") -> np.ndarray:
    """Gamma^k_{ij} from Gamma_{ij,k}: contract the last index with g^{-1}."""
    return np.einsum("...ijm,...mk->...ijk", low, np.linalg.inv(_conditioned(g, name)))


def lower_connection(up: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gamma_{ij,k} from Gamma^k_{ij}: contract the last index with g."""
    return np.einsum("...ijm,...mk->...ijk", up, np.asarray(g, float))


# ---------------------------------------------------------------------------
# Fisher metric and alpha-connections
# ---------------------------------------------------------------------------

def _pointwise(model: StatisticalModel, theta, key: Callable, compute: Callable):
    """``model.memo.rows`` at theta (n,) or its rows (..., n): only the
    missed rows are tested against the domain, at once, and computed."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape[-1] != model.dim:
        model.check_theta(theta)
    return model.memo.rows(th, key, lambda rows: compute(model.check_theta(rows)))


def _integrated(model: StatisticalModel, rows: np.ndarray, products: Callable):
    """Integrals (P, K) of ``products(rows, xs, w)``, every row's weighted
    sums row after row: one per chunk of rows within ``ROW_BUDGET``, one
    per row under adaptive quadrature (a joint one subdivides otherwise)."""
    nodes = node_quadrature(model.space)
    size = 1 if nodes is None else max(1, ROW_BUDGET // len(nodes[0]))
    if len(rows) <= size:
        return integrate(model.space, lambda xs, w: products(rows, xs, w)).reshape(len(rows), -1)
    return np.concatenate([_integrated(model, rows[i:i + size], products)
                           for i in range(0, len(rows), size)])


def fisher_metric(model: StatisticalModel, theta) -> np.ndarray:
    """Fisher information g_ij = E[score_i * score_j] at theta (n,) or its rows (..., n).

    Memoized per model and point; the array of one point is read-only.
    Only missed points are tested against the domain.
    """
    return _pointwise(model, theta, lambda b: ("fisher", b),
                      lambda rows: _fisher_metric(model, rows))


def _fisher_metric(model: StatisticalModel, rows: np.ndarray) -> np.ndarray:
    # the moments, when stored, hold the same Gram over the same scores;
    # otherwise only the scores are taken, never the wider Hessian stencil
    n = model.dim
    stored = [model.memo.peek(("moments", r.tobytes())) for r in rows]
    todo = [i for i, m in enumerate(stored) if m is None]
    scores = partials(n, 1, SCORE_SCHEME) + [((), None)]

    def gram(chunk, xs, w):
        jet = stencil(log_density_rows(model, xs), chunk, scores, model.domain)
        s, pw = np.stack(jet[:n], axis=1), _node_weights(jet[-1], w)
        return np.concatenate([np.einsum("in,jn,n->ij", sp, sp, pwp).ravel()
                               for sp, pwp in zip(s, pw)])

    G = np.array([np.zeros(n * n) if m is None else m[:n * n] for m in stored])
    if todo:
        G[todo] = _integrated(model, rows[todo], gram)
    # stored rows are symmetric already, and symmetrising them is exact
    return _conditioned(_symmetrised(G.reshape(-1, n, n)), "Fisher metric")


def _node_weights(log_p: np.ndarray, w) -> np.ndarray:
    """p * w on the quadrature nodes (p alone for the counting measure)."""
    p = np.exp(log_p)
    return p if w is None else p * w


def _symmetrised(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _moments(model: StatisticalModel, theta):
    """g, A and T at theta (n,) or at every row of theta (..., n), views of
    one array [g (symmetrised), A, T] memoized per model and point.  The
    integrand takes the jets of its rows (scores, second log-derivatives,
    p * w) from one log-density call; products are taken point by point."""
    n = model.dim

    def products(rows, xs, w):
        log_p, s, dd = log_density_jet(model, rows, xs)
        pw = _node_weights(log_p, w)
        return np.concatenate([a.ravel() for sp, ddp, pwp in zip(s, dd, pw) for a in (
            np.einsum("in,jn,n->ij", sp, sp, pwp), np.einsum("ijn,kn,n->ijk", ddp, sp, pwp),
            np.einsum("in,jn,kn,n->ijk", sp, sp, sp, pwp))])

    def compute(rows):
        packed = _integrated(model, rows, products)
        g = packed[:, :n * n].reshape(-1, n, n)
        g[...] = _symmetrised(g)
        return packed

    packed = _pointwise(model, theta, lambda b: ("moments", b), compute)
    lead, k = packed.shape[:-1], n * n + n ** 3
    return (packed[..., :n * n].reshape(lead + (n, n)),
            packed[..., n * n:k].reshape(lead + (n, n, n)), packed[..., k:].reshape(lead + (n, n, n)))


def fisher_field(model: StatisticalModel) -> MetricField:
    return MetricField(dim=model.dim, fn=lambda th: fisher_metric(model, th),
                       label=f"fisher[{model.label}]", domain=model.domain)


def alpha_connection(model: StatisticalModel, theta, alpha: float) -> np.ndarray:
    """Lowered alpha-connection coefficients at theta (n,) or its rows (..., n).

    Gamma^a_{ij,k} = E[(d_i d_j l + (1-a)/2 d_i l d_j l) d_k l]
                   = A_{ijk} + (1-a)/2 T_{ijk},
    with A = E[d_i d_j l d_k l] and the skewness T = E[d_i l d_j l d_k l];
    symmetric in (i, j) by construction of the central stencils.  A and T
    are taken once per point and serve every alpha.  Memoized per model,
    point and alpha; the array of one point is read-only.  Only missed
    points are tested against the domain.
    """
    def compute(rows):
        _, A, T = _moments(model, rows)
        return A + (1.0 - alpha) / 2.0 * T

    return _pointwise(model, theta, lambda b: ("alpha", b, float(alpha)), compute)


def alpha_field(model: StatisticalModel, alpha: float) -> ConnectionField:
    """The alpha-connection as a field.  ``up`` raises A + (1-a)/2 T of the
    moments with their g after one condition test (the Fisher one): the
    operations of ``raise_connection(alpha_connection, fisher_metric)``,
    storing no more than the moments."""

    def up(th):
        g, A, T = _moments(model, th)
        return raise_connection(A + (1.0 - alpha) / 2.0 * T, g, "Fisher metric")

    return ConnectionField(dim=model.dim,
                           low_fn=lambda th: alpha_connection(model, th, alpha),
                           up_fn=up, metric=fisher_field(model),
                           provenance=f"alpha={alpha}", domain=model.domain)


def cubic_tensor(model: StatisticalModel, theta, alpha: float = 1.0) -> np.ndarray:
    """Skewness tensor from the alpha spread of connections.

    2(Gamma^{-a} - Gamma^{a})/(2a); independent of a and fully symmetric for
    any model whose expectations commute with differentiation.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    lo_minus = alpha_connection(model, theta, -alpha)
    lo_plus = alpha_connection(model, theta, alpha)
    return (lo_minus - lo_plus) / alpha


# ---------------------------------------------------------------------------
# Derived fields: metric derivative, Levi-Civita
# ---------------------------------------------------------------------------


def _field_gradient(field: Callable, theta, scheme: DiffScheme, domain) -> np.ndarray:
    """d_a field at theta (n,), or at the rows of theta (P, n) by one stencil."""
    th = np.atleast_1d(np.asarray(theta, float))
    return np.stack(stencil(field, th, partials(th.shape[-1], 1, scheme), domain),
                    axis=th.ndim - 1)


def metric_derivative(metric_field: MetricField, theta,
                      scheme: DiffScheme = FIELD_SCHEME) -> np.ndarray:
    """dg[..., a, j, k] = d_a g_jk by finite differences of the field."""
    return _field_gradient(metric_field, theta, scheme, metric_field.domain)


def levi_civita(metric_field: MetricField, theta,
                scheme: DiffScheme = FIELD_SCHEME) -> np.ndarray:
    """Lowered Levi-Civita coefficients of the metric field."""
    dg = metric_derivative(metric_field, theta, scheme)
    # low[i,j,k] = (d_i g_jk + d_j g_ik - d_k g_ij)/2
    low = 0.5 * (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1))
    return low


def levi_civita_field(metric_field: MetricField,
                      scheme: DiffScheme = FIELD_SCHEME) -> ConnectionField:
    return ConnectionField(dim=metric_field.dim,
                           low_fn=lambda th: levi_civita(metric_field, th, scheme),
                           metric=metric_field, provenance="levi-civita",
                           domain=metric_field.domain)


# ---------------------------------------------------------------------------
# Curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CurvaturePack:
    """Curvature, torsion, Ricci and (optionally) the metric's covariant
    derivative at one point, or at P points with a leading axis P."""

    R: np.ndarray        # R[i,j,k,l] = R^l_{ijk}
    torsion: np.ndarray  # T[i,j,k] = T^k_{ij}
    ricci: np.ndarray
    nabla_h: Optional[np.ndarray] = None

    @property
    def max_R(self) -> float:
        return float(np.abs(self.R).max())

    @property
    def max_torsion(self) -> float:
        return float(np.abs(self.torsion).max())


def covariant_metric_derivative(up0: np.ndarray, g0: np.ndarray,
                                dg: np.ndarray) -> np.ndarray:
    """(nabla_i h)_{jk} = d_i g_jk - Gamma^m_{ij} g_mk - Gamma^m_{ik} g_jm."""
    return dg - np.einsum("...ijm,...mk->...ijk", up0, g0) \
        - np.einsum("...ikm,...jm->...ijk", up0, g0)


def riemann(DG: np.ndarray, up0: np.ndarray) -> np.ndarray:
    """R[i,j,k,l] = R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}, given
    DG[a,b,c,d] = d_a Gamma^d_{bc} and up0 = Gamma."""
    quad = np.einsum("...iml,...jkm->...ijkl", up0, up0)
    return DG - np.swapaxes(DG, -4, -3) + quad - np.swapaxes(quad, -4, -3)


def curvature(conn: ConnectionField, theta, scheme: DiffScheme = FIELD_SCHEME,
              metric_field: Optional[MetricField] = None) -> CurvaturePack:
    """Coordinate curvature (``riemann``) of the connection field at theta,
    plus torsion, Ricci trace, and nabla h when a metric field is supplied;
    at every row of theta (P, n) from one stencil of the field."""
    th = np.atleast_1d(np.asarray(theta, float))
    DG = _field_gradient(conn.up, th, scheme, conn.domain)  # d_a Gamma^d_{bc}
    up0 = conn.up(th)
    R = riemann(DG, up0)
    torsion = up0 - np.swapaxes(up0, -3, -2)
    ricci = np.einsum("...mjkm->...jk", R)
    nabla_h = None
    if metric_field is not None:
        g0 = metric_field(th)
        dg = metric_derivative(metric_field, th, scheme)
        nabla_h = covariant_metric_derivative(up0, g0, dg)
    return CurvaturePack(R=R, torsion=torsion, ricci=ricci, nabla_h=nabla_h)


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    max_R: float
    max_torsion: float
    tolerance: float
    alpha: float
    per_point: tuple


def flatness_check(model: StatisticalModel, grid: Sequence, alpha: float,
                   tol: float = 1e-3,
                   scheme: DiffScheme = FIELD_SCHEME) -> FlatnessReport:
    """Curvature residuals of the alpha-connection over a grid, from one
    ``curvature`` of the whole grid.

    Strict threshold, no hysteresis; the residuals are reported alongside
    the flag so borderline calls can be judged by the caller.
    """
    pack = curvature(alpha_field(model, alpha), np.reshape(grid, (len(grid), -1)),
                     scheme=scheme)
    R, T = (np.abs(a).reshape(len(grid), -1).max(axis=1).tolist()
            for a in (pack.R, pack.torsion))
    max_R, max_T = max([0.0] + R), max([0.0] + T)
    return FlatnessReport(flat=bool(max_R < tol and max_T < tol),
                          max_R=max_R, max_torsion=max_T, tolerance=tol, alpha=alpha,
                          per_point=tuple((tuple(np.atleast_1d(theta).tolist()), r, t)
                                          for theta, r, t in zip(grid, R, T)))


# ---------------------------------------------------------------------------
# Conjugate connection, Codazzi, conformal and projective structure
# ---------------------------------------------------------------------------

def conjugate_connection(metric_field: MetricField, conn: ConnectionField,
                         theta, scheme: DiffScheme = FIELD_SCHEME) -> np.ndarray:
    """Lowered conjugate connection via X h(Y,Z) = h(D_X Y, Z) + h(Y, D*_X Z).

    In coordinates: conj_{ij,k} = d_i g_{kj} - Gamma_{ik,j}; at every row
    of theta (P, n) from one stencil of the metric field.
    """
    dg = metric_derivative(metric_field, theta, scheme)
    low0 = conn.low(theta)
    return np.swapaxes(dg, -2, -1) - np.swapaxes(low0, -2, -1)


def conjugate_field(metric_field: MetricField, conn: ConnectionField,
                    scheme: DiffScheme = FIELD_SCHEME) -> ConnectionField:
    return ConnectionField(
        dim=conn.dim,
        low_fn=lambda th: conjugate_connection(metric_field, conn, th, scheme),
        metric=metric_field, provenance=f"conjugate[{conn.provenance}]",
        domain=conn.domain)


def codazzi_check(metric_field: MetricField, conn: ConnectionField, theta,
                  scheme: DiffScheme = FIELD_SCHEME):
    """Residual of (nabla_X h)(Y,Z) = (nabla_Z h)(Y,X) at theta, a float;
    at every row of theta (P, n) an array (P,), from one stencil of the
    metric field.

    Zero residual (to tolerance) is the statistical-manifold property: the
    conjugate connection is then torsion free.
    """
    th = np.atleast_1d(np.asarray(theta, float))
    g0 = metric_field(th)
    dg = metric_derivative(metric_field, th, scheme)
    up0 = conn.up(th)
    nh = covariant_metric_derivative(up0, g0, dg)
    res = np.abs(nh - np.swapaxes(nh, -3, -1)).max(axis=(-3, -2, -1))
    return float(res) if th.ndim == 1 else res


def conformal_transform(metric_field: MetricField, conn: ConnectionField,
                        phi: Callable, alpha: float,
                        scheme: Optional[DiffScheme] = None):
    """Conformal change of a statistical structure with weight alpha.

    h~ = e^phi h, and the new connection satisfies
    h~(D~_X Y, Z) = h(D_X Y, Z) - (1+alpha)/2 dphi(Z) h(X,Y)
                    + (1-alpha)/2 {dphi(X) h~(Y,Z) + dphi(Y) h~(X,Z)}.
    The returned lowered coefficients are taken against h~.  ``phi`` maps
    theta rows (..., n) to (...), and the returned fields take rows like
    every other field; dphi at a grid is one stencil of phi.
    """
    dscheme = scheme or DiffScheme(order=1)

    def new_metric(th):
        return np.exp(np.asarray(phi(th), float))[..., None, None] * metric_field(th)

    tilde = MetricField(dim=metric_field.dim, fn=new_metric,
                        label=f"conformal[{metric_field.label}]",
                        domain=metric_field.domain)

    def new_low(th):
        g0 = metric_field(th)
        gt = new_metric(th)
        low0 = conn.low(th)
        dphi = _field_gradient(phi, th, dscheme, metric_field.domain)
        term_z = -(1.0 + alpha) / 2.0 * np.einsum("...k,...ij->...ijk", dphi, g0)
        term_x = (1.0 - alpha) / 2.0 * (np.einsum("...i,...jk->...ijk", dphi, gt)
                                        + np.einsum("...j,...ik->...ijk", dphi, gt))
        return low0 + term_z + term_x

    new_conn = ConnectionField(dim=conn.dim, low_fn=new_low, metric=tilde,
                               provenance=f"conformal(alpha={alpha})[{conn.provenance}]",
                               domain=conn.domain)
    return tilde, new_conn


@dataclass(frozen=True)
class ProjectiveResult:
    equivalent: bool        # per point (arrays) for stacked coefficients
    rho: np.ndarray
    residual: float
    tolerance: float


def projective_equivalence(gamma_a, gamma_b, theta=None,
                           tol: float = 1e-8) -> ProjectiveResult:
    """Test D = Gamma' - Gamma for the form rho(X)Y + rho(Y)X, at one point
    (n, n, n), or per point at stacked coefficients (..., n, n, n).

    The candidate covector is the trace rho_i = D^m_{im} / (n+1); the
    residual is the largest entry of D minus the reconstructed tensor.
    """
    A = gamma_a(theta) if callable(gamma_a) else np.asarray(gamma_a, float)
    B = gamma_b(theta) if callable(gamma_b) else np.asarray(gamma_b, float)
    n = A.shape[-1]
    # n = 1 is allowed: equivalence is then automatic and the recovered rho
    # is the informative part
    D = B - A
    rho = np.einsum("...imm->...i", D) / (n + 1.0)
    eye = np.eye(n)
    model = np.einsum("...i,jk->...ijk", rho, eye) + np.einsum("...j,ik->...ijk", rho, eye)
    residual = np.abs(D - model).max(axis=(-3, -2, -1))
    equivalent = residual < tol
    if residual.ndim == 0:
        residual, equivalent = float(residual), bool(equivalent)
    return ProjectiveResult(equivalent=equivalent, rho=rho, residual=residual, tolerance=tol)
