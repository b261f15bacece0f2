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
log-density jet per point (``numerics.integrate``, under any rule), the
only entry the model's memo stores per point: g and every alpha-connection
are read from it, so any number of alphas cost one integral.  A jet is
one ``numerics.stencil`` batch: one log-density call on the theta rows of
every score and second-derivative node and the point itself, for a chunk
of points under a node rule, or one point of adaptive quadrature.  Its
node sums are one two-operand contraction for the whole chunk
(``_jet_moments``), within a stated bound of any other summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import SingularMetric
from .models import StatisticalModel, log_density_jet
from .numerics import (DiffScheme, capped_inverse, integrate, node_quadrature, partials,
                       point_max, stencil)

# Differentiating an already-computed tensor field stacks a second finite
# difference on top of quadrature noise; a wider extrapolated step keeps the
# amplification in check.
FIELD_SCHEME = DiffScheme(order=1, base_step=2.0**-7, richardson_levels=1)

_METRIC_CONDITION_CAP = 1e12

# Points times quadrature nodes in one batched jet of a node rule, set on
# model-grid: a 4096-node point (logistic-location-2) takes a jet of its
# own, as larger batches ran slower, and 96-node models take 21 points, as
# 42 raised the peak RSS by about 1 MB.  A chunk's arrays scale with it:
# the jet's node values, then its block of rows for the moments
# (n + 2n^2 floats per point and node), each freed before the next.
ROW_BUDGET = 2**11


@dataclass(frozen=True, eq=False)
class MetricField:
    """A parameter-dependent symmetric bilinear form, theta (..., n) -> (..., n, n)."""

    dim: int
    fn: Callable
    domain: object = None

    def __call__(self, theta) -> np.ndarray:
        return np.asarray(self.fn(np.atleast_1d(np.asarray(theta, float))), float)

    @classmethod
    def constant(cls, matrix) -> "MetricField":
        g = np.asarray(matrix, dtype=float)
        return cls(dim=g.shape[0], fn=lambda th: np.broadcast_to(g, th.shape[:-1] + g.shape))


@dataclass(frozen=True, eq=False)
class ConnectionField:
    """Connection coefficients as a field, in lowered and/or raised form;
    both map theta (..., n) to (..., n, n, n).

    ``low`` needs ``low_fn``; ``up`` takes ``up_fn``, or raises ``low_fn``
    through the attached metric.
    """

    dim: int
    low_fn: Optional[Callable] = None
    up_fn: Optional[Callable] = None
    metric: Optional[MetricField] = None
    domain: object = None

    def low(self, theta) -> np.ndarray:
        if self.low_fn is None:
            raise ValueError("connection field needs low_fn")
        return np.asarray(self.low_fn(np.atleast_1d(np.asarray(theta, float))), float)

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
        return cls(dim=dim, up_fn=zero, low_fn=zero)


def _conditioned(g: np.ndarray, name: str = "metric") -> np.ndarray:
    """g^{-1} after one stacked condition test of g (..., n, n) by
    ``capped_inverse``; SingularMetric names ``name`` and the condition."""
    return capped_inverse(g, _METRIC_CONDITION_CAP,
                          lambda bad: SingularMetric(f"{name} condition {bad:.3e} exceeds cap"))


def raise_connection(low: np.ndarray, g: np.ndarray, name: str = "metric") -> np.ndarray:
    """Gamma^k_{ij} from Gamma_{ij,k}: contract the last index with the
    g^{-1} of g's condition test."""
    return np.einsum("...ijm,...mk->...ijk", low, _conditioned(g, name))


def lower_connection(up: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gamma_{ij,k} from Gamma^k_{ij}: contract the last index with g."""
    return np.einsum("...ijm,...mk->...ijk", up, np.asarray(g, float))


# ---------------------------------------------------------------------------
# Fisher metric and alpha-connections
# ---------------------------------------------------------------------------

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

    The g view of the memoized moments (``_moments``), after one condition
    test per call; it needs the jet's nodes, so it raises StencilOutOfDomain
    where ``alpha_connection`` does.
    """
    g = _moments(model, theta)[0]
    _conditioned(g, "Fisher metric")
    return g


def _node_weights(log_p: np.ndarray, w) -> np.ndarray:
    """p * w on the quadrature nodes (p alone for the counting measure)."""
    p = np.exp(log_p)
    return p if w is None else p * w


def _jet_moments(s: np.ndarray, dd: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """The node sums [g, A, T] of P jets, (P, n + 2n^2, n) read as the
    packed (P, n^2 + 2n^3): g_ij = sum s_i s_j pw, A_ijk = sum dd_ij s_k pw
    and T_ijk = sum s_i s_j s_k pw over N nodes, from the scores s
    (P, n, N), the second derivatives dd (P, n, n, N) and pw (P, N).

    One two-operand contraction of the block of rows [s, dd, s_i s_j]
    (P, n + 2n^2, N) against sw = s * pw.  Each entry is a sum of N terms
    of at most three roundings each, so in any summation order it lies
    within gamma_{N+2} * sum_n |a_n b_n c_n| pw_n of the exact sum (Higham
    2002, sec. 3.1; gamma_k = k u / (1 - k u), u = eps / 2), and two orders
    differ by at most (N + 3) eps times that sum of absolute terms.  numpy
    sums every row of the block alike, whatever the point or the row, so A
    and T keep the (i, j) symmetry of dd and a point's sums do not depend on
    the other points of the batch.
    """
    P, n, N = s.shape
    block = np.empty((P, n + 2 * n * n, N))
    block[:, :n] = s
    block[:, n:n + n * n] = dd.reshape(P, n * n, N)
    np.multiply(s[:, :, None], s[:, None], out=block[:, n + n * n:].reshape(P, n, n, N))
    return np.einsum("pan,pkn->pak", block, s * pw[:, None])


def _moments(model: StatisticalModel, theta):
    """g, A and T at theta (n,) or at every row of theta (..., n), views of
    the read-only array [g (symmetrised), A, T] that the model's memo
    stores per point, its only entry (for rows, views of their stack).
    Only missed rows are tested against the domain, at once.  The integrand
    takes the jets of its rows (scores, second log-derivatives, p * w) from
    one log-density call and their node sums from one contraction for all
    rows (``_jet_moments``), after the jet's node values are released."""
    n = model.dim
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if th.shape[-1] != n:
        model.check_theta(theta)

    def products(rows, xs, w):
        log_p, s, dd = log_density_jet(model, rows, xs)
        pw = _node_weights(log_p, w)
        del log_p  # a view of the jet's node values: frees them before the block
        return _jet_moments(s, dd, pw).ravel()

    def compute(rows):
        packed = _integrated(model, model.check_theta(rows), products)
        g = packed[:, :n * n].reshape(-1, n, n)
        g[...] = 0.5 * (g + np.swapaxes(g, -1, -2))
        return packed

    packed = model.memo.rows(th, lambda b: ("moments", b), compute)
    lead, k = packed.shape[:-1], n * n + n ** 3
    return (packed[..., :n * n].reshape(lead + (n, n)),
            packed[..., n * n:k].reshape(lead + (n, n, n)), packed[..., k:].reshape(lead + (n, n, n)))


def fisher_field(model: StatisticalModel) -> MetricField:
    return MetricField(dim=model.dim, fn=lambda th: fisher_metric(model, th),
                       domain=model.domain)


def alpha_connection(model: StatisticalModel, theta, alpha: float) -> np.ndarray:
    """Lowered alpha-connection coefficients at theta (n,) or its rows (..., n).

    Gamma^a_{ij,k} = E[(d_i d_j l + (1-a)/2 d_i l d_j l) d_k l]
                   = A_{ijk} + (1-a)/2 T_{ijk},
    with A = E[d_i d_j l d_k l] and the skewness T = E[d_i l d_j l d_k l];
    symmetric in (i, j) by construction of the central stencils.  A and T
    are the memoized moments, taken once per point for every alpha; the
    sum is a new array on every call.
    """
    _, A, T = _moments(model, theta)
    return _lowered_alpha(A, T, alpha)


def _lowered_alpha(A, T, alpha: float) -> np.ndarray:
    """A + (1-a)/2 T: the one formula of every alpha-connection, lowered or raised."""
    return A + (1.0 - alpha) / 2.0 * T


def alpha_field(model: StatisticalModel, alpha: float) -> ConnectionField:
    """The alpha-connection as a field.  ``up`` raises ``_lowered_alpha`` of
    the moments with their g after one condition test (the Fisher one): the
    operations of ``raise_connection(alpha_connection, fisher_metric)``
    with one lookup of the moments."""

    def up(th):
        g, A, T = _moments(model, th)
        return raise_connection(_lowered_alpha(A, T, alpha), g, "Fisher metric")

    return ConnectionField(dim=model.dim,
                           low_fn=lambda th: alpha_connection(model, th, alpha),
                           up_fn=up, domain=model.domain)


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


def levi_civita_field(metric_field: MetricField) -> ConnectionField:
    return ConnectionField(dim=metric_field.dim,
                           low_fn=lambda th: levi_civita(metric_field, th),
                           metric=metric_field, domain=metric_field.domain)


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
    R: np.ndarray        # (P,) max |R^l_{ijk}| at each grid point
    torsion: np.ndarray  # (P,) max |T^k_{ij}| at each grid point
    tolerance: float
    alpha: float


def flatness_check(model: StatisticalModel, grid: Sequence, alpha: float,
                   tol: float = 1e-3) -> FlatnessReport:
    """Curvature and torsion residuals of the alpha-connection per grid
    point, arrays (P,), from one ``curvature`` of the whole grid.

    Flat when every point's are below ``tol`` (strict, no hysteresis),
    which a NaN is not; the residuals let the caller judge borderline calls.
    """
    pack = curvature(alpha_field(model, alpha), np.reshape(grid, (len(grid), -1)))
    R, T = point_max(pack.R, 4), point_max(pack.torsion, 3)
    return FlatnessReport(flat=bool((R < tol).all() and (T < tol).all()),
                          R=R, torsion=T, tolerance=tol, alpha=alpha)


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


def conjugate_field(metric_field: MetricField, conn: ConnectionField) -> ConnectionField:
    return ConnectionField(dim=conn.dim,
                           low_fn=lambda th: conjugate_connection(metric_field, conn, th),
                           metric=metric_field, domain=conn.domain)


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
    return point_max(nh - np.swapaxes(nh, -3, -1), 3)


def conformal_transform(metric_field: MetricField, conn: ConnectionField,
                        phi: Callable, alpha: float):
    """Conformal change of a statistical structure with weight alpha.

    h~ = e^phi h, and the new connection satisfies
    h~(D~_X Y, Z) = h(D_X Y, Z) - (1+alpha)/2 dphi(Z) h(X,Y)
                    + (1-alpha)/2 {dphi(X) h~(Y,Z) + dphi(Y) h~(X,Z)}.
    The returned lowered coefficients are taken against h~.  ``phi`` maps
    theta rows (..., n) to (...), and the returned fields take rows like
    every other field; dphi at a grid is one stencil of phi.
    """
    def new_metric(th):
        return np.exp(np.asarray(phi(th), float))[..., None, None] * metric_field(th)

    tilde = MetricField(dim=metric_field.dim, fn=new_metric, domain=metric_field.domain)

    def new_low(th):
        g0 = metric_field(th)
        gt = new_metric(th)
        low0 = conn.low(th)
        dphi = _field_gradient(phi, th, DiffScheme(order=1), metric_field.domain)
        term_z = -(1.0 + alpha) / 2.0 * np.einsum("...k,...ij->...ijk", dphi, g0)
        term_x = (1.0 - alpha) / 2.0 * (np.einsum("...i,...jk->...ijk", dphi, gt)
                                        + np.einsum("...j,...ik->...ijk", dphi, gt))
        return low0 + term_z + term_x

    new_conn = ConnectionField(dim=conn.dim, low_fn=new_low, metric=tilde, domain=conn.domain)
    return tilde, new_conn


@dataclass(frozen=True)
class ProjectiveResult:
    equivalent: bool        # per point (arrays) for stacked coefficients
    rho: np.ndarray
    residual: float
    tolerance: float


def projective_equivalence(gamma_a, gamma_b, tol: float = 1e-8) -> ProjectiveResult:
    """Test D = Gamma' - Gamma for the form rho(X)Y + rho(Y)X, at one point
    (n, n, n), or per point at stacked coefficients (..., n, n, n).

    The candidate covector is the trace rho_i = D^m_{im} / (n+1); the
    residual is the largest entry of D minus the reconstructed tensor.
    """
    A = np.asarray(gamma_a, float)
    B = np.asarray(gamma_b, float)
    n = A.shape[-1]
    # n = 1 is allowed: equivalence is then automatic and the recovered rho
    # is the informative part
    D = B - A
    rho = np.einsum("...imm->...i", D) / (n + 1.0)
    eye = np.eye(n)
    model = np.einsum("...i,jk->...ijk", rho, eye) + np.einsum("...j,ik->...ijk", rho, eye)
    residual = point_max(D - model, 3)
    return ProjectiveResult(equivalent=residual < tol, rho=rho, residual=residual,
                            tolerance=tol)
