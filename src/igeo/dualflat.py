"""Exponential-family potentials, Legendre duality, geodesics, realizations.

A ``PotentialFamily`` is an exponential family given by sufficient
statistics, a base log-measure and the induced normalizer

    K(theta) = log integral exp(sum_i theta_i F_i(x) + D(x)) dx,

always evaluated by sum/quadrature rather than assumed in closed form
(catalog entries additionally carry the closed form for oracle tests).
The gradient of K gives the dual coordinates, the Legendre transform the
dual potential, and the Hessian the dually flat metric.

Two concrete hypersurface realizations of such a family are provided: the
potential graph (theta, K(theta)) with a constant transversal, and the
centro-affine lift (theta, 1)/psi(theta) with the position transversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (LeftDomain, NonConvergent, OutOfDomain, OutOfDualDomain,
                     SchemaError, StencilOutOfDomain)
from .expressions import compile_expression
from .immersion import Hypersurface
from .infogeo import ConnectionField
from .models import (HESSIAN_SCHEME, SCORE_SCHEME, Box, SampleSpace,
                     StatisticalModel, builtin_or_schema, domain_from_doc,
                     space_from_doc, spec_fields)
from .numerics import (PointMemo, batches, integrate, node_quadrature, own_nodes,
                       partials, stacked, stencil, symmetric)


@dataclass(frozen=True, eq=False)
class PotentialFamily:
    """Exponential family defined by statistics, base measure and domain.

    ``memo`` holds K per parameter point for every user of the family (its
    models, dual coordinates, Hessian metric, realizations);
    ``dataclasses.replace`` starts a new one.
    """

    stats: tuple                 # callables x:(N,xdim) -> (N,)
    base: Callable               # log base measure D(x)
    space: SampleSpace
    domain: Box
    label: str = ""
    closed_form_potential: Optional[Callable] = None
    memo: PointMemo = field(default_factory=PointMemo, init=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.stats)

    def check_theta(self, theta) -> np.ndarray:
        return self.domain.check(theta, f"family {self.label or '?'}")

    def exponent(self, x, theta) -> np.ndarray:
        """sum_i theta_i F_i(x) + D(x), before normalization: shape (N,) for
        one point theta, (..., N) for parameter rows theta of shape
        (..., dim).  The statistics are evaluated once per call, whatever
        the number of rows."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        total = np.asarray(self.base(x), dtype=float)
        for i, F in enumerate(self.stats):
            total = total + th[..., i, None] * np.asarray(F(x), dtype=float)
        return total


def _logsumexp(a: np.ndarray, w=None) -> np.ndarray:
    """log(sum(w * exp(a))) of every row of a 2-d array (w of None: no
    weights), each row shifted by its largest entry, which leaves the sum as
    log1p of the others (as scipy.special.logsumexp does); a row whose
    largest entry is not finite gives that entry."""
    a = a if w is None else a + np.log(w)
    rows = np.arange(len(a))
    i = np.argmax(a, axis=1)
    top = a[rows, i]
    finite = np.isfinite(top)
    if finite.all():
        rest = np.exp(a - top[:, None])
    else:
        with np.errstate(all="ignore"):
            rest = np.exp(a - np.where(finite, top, 0.0)[:, None])
    rest[rows, i] = 0.0
    return np.where(finite, np.log1p(rest.sum(axis=1)) + top, top)


def potential(family: PotentialFamily, theta) -> float:
    """Normalizer K(theta), by exact sum or quadrature (log-sum-exp):
    ``_potentials`` at one point."""
    return float(_potentials(family, theta))


def _potentials(family: PotentialFamily, TH):
    """K at theta (dim,), a scalar, or on every row of TH (P, dim), shape (P,)
    (or any lead shape), through the family memo: a hit makes no domain
    test.  The missed rows, each once, are tested against the domain at once
    and share one ``exponent`` call and one row-wise log-sum-exp (under
    adaptive quadrature one vector integral), so only checked rows are stored.
    """
    TH = np.atleast_1d(np.asarray(TH, dtype=float))
    if TH.shape[-1] != family.dim:
        family.check_theta(TH)

    def compute(rows):
        _check_rows(family, rows)
        nodes = node_quadrature(family.space)
        if nodes is not None:
            return _logsumexp(family.exponent(nodes[0], rows), nodes[1])
        # adaptive quadrature, one point x at a time: every missed row is
        # one component of a single vector integral
        return np.log(integrate(
            family.space, lambda x, _: np.exp(family.exponent(x, rows)).sum(axis=-1)))

    return family.memo.rows(TH, lambda b: b, compute)


def _check_rows(family: PotentialFamily, rows: np.ndarray) -> None:
    """One domain test of rows (M, dim); OutOfDomain names the first outside."""
    inside = family.domain.inside(rows)
    if not inside.all():
        family.check_theta(rows[int(np.argmin(inside))])


def family_model(family: PotentialFamily) -> StatisticalModel:
    """The family as a StatisticalModel, batched like every log-density.

    Each call builds a new model with its own memo.  On the nodes of a node
    rule, K of each theta row is the log-sum-exp of its own exponent row,
    after one domain test of the batch, with no family-memo lookup or store.
    At any other x (adaptive quadrature included) K comes through
    ``_potentials``: an adaptive K of a batch depends on the rows it holds.
    """

    def ll(x, th):
        expo = family.exponent(x, th)
        own = own_nodes(family.space, x)
        if own is None:
            return expo - _potentials(family, th)[..., None]
        _check_rows(family, np.reshape(th, (-1, family.dim)))
        K = _logsumexp(expo.reshape(-1, len(x)), own[1])
        return expo - K.reshape(expo.shape[:-1] + (1,))

    return StatisticalModel(space=family.space, dim=family.dim,
                            domain=family.domain, log_density=ll,
                            label=family.label or "potential-family")


def _batched_potentials(family: PotentialFamily, TH) -> np.ndarray:
    """K on the rows of TH (..., dim), shape (...), one ``_potentials`` call
    per batch of ``batches``."""
    rows = np.reshape(TH, (-1, family.dim))
    return np.concatenate([_potentials(family, b) for b in batches(family.space, rows)]
                          ).reshape(np.shape(TH)[:-1])


def _potential_partials(family: PotentialFamily, th: np.ndarray, entries: list) -> list:
    """The ``entries`` of K at checked theta (dim,) or rows (..., dim), one
    stencil per batch of ``batches``: under adaptive quadrature one point's
    nodes form one vector integral."""
    parts = [stencil(lambda T: _potentials(family, T), b, entries, family.domain)
             for b in batches(family.space, th.reshape(-1, family.dim))]
    return [np.concatenate(p).reshape(th.shape[:-1]) for p in zip(*parts)]


def dual_coords(family: PotentialFamily, theta) -> np.ndarray:
    """Dual (expectation) coordinates eta = grad K at theta (dim,) or its rows."""
    th = family.check_theta(theta)
    return stacked(_potential_partials(family, th, partials(family.dim, 1, SCORE_SCHEME)),
                   th.ndim - 1)


def hessian_metric(family: PotentialFamily, theta) -> np.ndarray:
    """Hessian of the potential, the dually flat metric in theta
    coordinates, at theta (dim,) or its rows (..., dim)."""
    th = family.check_theta(theta)
    return symmetric(_potential_partials(family, th, partials(family.dim, 2, HESSIAN_SCHEME)),
                     family.dim, th.ndim - 1)


def legendre_inverse(family: PotentialFamily, eta, theta0=None) -> np.ndarray:
    """Solve grad K(theta) = eta by damped Newton on the convex potential,
    from ``theta0`` or the domain's center, to |grad K - eta| < 1e-11.

    Raises NonConvergent after 100 iterations and OutOfDualDomain when the
    iteration cannot stay inside the parameter box.
    """
    target = np.atleast_1d(np.asarray(eta, dtype=float))
    th = np.asarray(theta0, dtype=float) if theta0 is not None \
        else family.domain.center()
    if not family.domain.contains(th):
        raise OutOfDomain("starting point outside the parameter domain")
    # keep iterates clear of the boundary by more than any stencil radius
    margin = 0.005 * float(np.min(np.asarray(family.domain.hi)
                                  - np.asarray(family.domain.lo)))
    for _ in range(100):
        grad = dual_coords(family, th)
        residual = target - grad
        if float(np.abs(residual).max()) < 1e-11:
            return th
        H = hessian_metric(family, th)
        step = np.linalg.solve(H, residual)
        lam = 1.0
        while not family.domain.contains(th + lam * step, margin=margin):
            lam *= 0.5
            if lam < 1e-14:
                raise OutOfDualDomain(
                    f"eta {target.tolist()} seems outside the gradient image")
        new = th + lam * step
        if float(np.abs(new - th).max()) < 1e-12 * max(1.0, float(np.abs(th).max())):
            # stalled against the boundary with residual left over
            raise OutOfDualDomain(
                f"eta {target.tolist()} seems outside the gradient image")
        th = new
    raise NonConvergent("Newton did not reach |grad K - eta| < 1e-11 in 100 iterations")


def dual_potential(family: PotentialFamily, eta) -> float:
    """Legendre dual phi(eta) = <theta, eta> - K(theta) at theta(eta)."""
    target = np.atleast_1d(np.asarray(eta, dtype=float))
    th = legendre_inverse(family, target)
    return float(th @ target - potential(family, th))


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeodesicPath:
    t: np.ndarray
    theta: np.ndarray      # (steps+1, n)
    velocity: np.ndarray   # (steps+1, n)

    @property
    def final_theta(self) -> np.ndarray:
        return self.theta[-1]


def geodesic(conn: ConnectionField, theta0, v0, t_final: float,
             steps: int, domain: Optional[Box] = None) -> GeodesicPath:
    """Fixed-step classical Runge-Kutta integration of the geodesic equation.

    d2 theta^k/dt^2 + Gamma^k_{ij} d theta^i d theta^j = 0.  Integration
    aborts with LeftDomain (carrying the partial path) as soon as a stage
    point leaves ``domain``, tested once per point: when it is ``conn.domain``
    the error ``conn.up`` raises outside it is the test, step ends included.
    """
    th = np.atleast_1d(np.asarray(theta0, dtype=float))
    v = np.atleast_1d(np.asarray(v0, dtype=float))
    n = th.size
    if steps < 1 or t_final <= 0:
        raise ValueError("need steps >= 1 and t_final > 0")
    dt = t_final / steps

    ts = np.empty(steps + 1)
    thetas = np.empty((steps + 1, n))
    vels = np.empty((steps + 1, n))
    ts[0], thetas[0], vels[0] = 0.0, th, v

    def partial(k):
        return GeodesicPath(t=ts[:k + 1].copy(), theta=thetas[:k + 1].copy(),
                            velocity=vels[:k + 1].copy())

    own = domain is None or domain is conn.domain

    def rhs(state, t_now, k_done, tested=False):
        p, w = state[:n], state[n:]
        if not (own or tested or domain.contains(p)):
            raise LeftDomain(t_now, partial(k_done))
        try:
            G = conn.up(p)
        except (OutOfDomain, StencilOutOfDomain) as exc:
            if isinstance(exc, StencilOutOfDomain) and (domain is None or domain.contains(p)):
                raise  # a stencil node left the domain, not p
            raise LeftDomain(t_now, partial(k_done)) from None
        acc = -np.einsum("ijk,i,j->k", G, w, w)
        return np.concatenate([w, acc])

    state = np.concatenate([th, v])
    for k in range(steps):
        t_now = k * dt
        k1 = rhs(state, t_now, k, tested=k > 0)
        k2 = rhs(state + 0.5 * dt * k1, t_now + 0.5 * dt, k)
        k3 = rhs(state + 0.5 * dt * k2, t_now + 0.5 * dt, k)
        k4 = rhs(state + dt * k3, t_now + dt, k)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ts[k + 1] = (k + 1) * dt
        thetas[k + 1] = state[:n]
        vels[k + 1] = state[n:]
        if domain is not None and (not own or k + 1 == steps) \
                and not domain.contains(state[:n]):
            raise LeftDomain(ts[k + 1], partial(k + 1))
    return GeodesicPath(t=ts, theta=thetas, velocity=vels)


# ---------------------------------------------------------------------------
# Immersion realizations
# ---------------------------------------------------------------------------

def graph_realization(family: PotentialFamily) -> Hypersurface:
    """Potential graph (theta, K(theta)) with the constant transversal e_{n+1}.

    Decomposing it yields Gamma = 0, h = Hess K, S = 0 and alpha = 0: an
    improper-hypersphere witness of the dually flat structure.
    """
    n = family.dim
    e_last = np.eye(n + 1)[n]

    def chart(th):
        th = np.atleast_1d(np.asarray(th, dtype=float))
        return np.concatenate([th, _batched_potentials(family, th)[..., None]], axis=-1)

    return Hypersurface(chart=chart,
                        transversal=lambda t: np.broadcast_to(e_last, np.shape(t)[:-1] + (n + 1,)),
                        domain=family.domain, dim=n,
                        label=f"graph[{family.label}]")


def centro_affine_lift(family: PotentialFamily,
                       psi: Optional[Callable] = None) -> Hypersurface:
    """Centro-affine realization (theta, 1)/psi(theta) with xi = -f.

    ``psi`` maps theta rows (..., n) to (...); any positive psi is
    accepted, and the default is exp(K).  The induced
    connection is projectively equivalent to the flat one with
    rho = -d log psi, and h_ij = (d_i d_j psi)/psi, so projective flatness
    is the invariant, not a particular h.
    """
    if psi is None:
        psi = lambda th: np.exp(_batched_potentials(family, th))
    n = family.dim

    def chart(th):
        th = np.atleast_1d(np.asarray(th, dtype=float))
        value = np.asarray(psi(th), dtype=float)
        if not (value > 0).all():
            bad = ~(value > 0)
            raise OutOfDomain(f"psi must stay positive, got {value[bad][0]} at "
                              f"{th[bad][0].tolist()}")
        return np.concatenate([th, np.ones(th.shape[:-1] + (1,))], axis=-1) / value[..., None]

    return Hypersurface.centro_affine(chart, family.domain, n,
                                      label=f"centro-affine-lift[{family.label}]")


# ---------------------------------------------------------------------------
# Catalog families
# ---------------------------------------------------------------------------

def normal_natural_family() -> PotentialFamily:
    from .models import normal_natural, normal_natural_potential
    template = normal_natural()
    return PotentialFamily(
        stats=(lambda x: x[..., 0] ** 2, lambda x: x[..., 0]),
        base=lambda x: np.zeros(len(x)),
        space=template.space, domain=template.domain,
        label="normal-natural",
        closed_form_potential=normal_natural_potential)


def bernoulli_natural_family() -> PotentialFamily:
    return PotentialFamily(
        stats=(lambda x: x[..., 0],),
        base=lambda x: np.zeros(len(x)),
        space=SampleSpace.finite([[0.0], [1.0]]),
        domain=Box((-6.0,), (6.0,)),
        label="bernoulli-natural",
        closed_form_potential=lambda th: float(np.logaddexp(0.0, th[0])))


def poisson_natural_family() -> PotentialFamily:
    from scipy.special import gammaln
    from .models import poisson_natural
    template = poisson_natural()
    return PotentialFamily(
        stats=(lambda x: x[..., 0],),
        base=lambda x: -gammaln(x[..., 0] + 1.0),
        space=template.space, domain=template.domain,
        label="poisson-natural",
        closed_form_potential=lambda th: math.exp(th[0]))


def categorical_natural_family(n: int = 2) -> PotentialFamily:
    from .models import categorical_natural
    template = categorical_natural(n)
    stats = tuple((lambda i: (lambda x: (x[..., 0] == i + 1).astype(float)))(i)
                  for i in range(n))
    return PotentialFamily(
        stats=stats,
        base=lambda x: np.zeros(len(x)),
        space=template.space, domain=template.domain,
        label=f"categorical-natural-{n}",
        closed_form_potential=lambda th: float(np.log1p(np.sum(np.exp(th)))))


FAMILIES = {
    "normal-natural": normal_natural_family,
    "bernoulli-natural": bernoulli_natural_family,
    "poisson-natural": poisson_natural_family,
    "categorical-natural": categorical_natural_family,
}


def load_family(doc: dict | str) -> PotentialFamily:
    """Build a family from {"stats": [exprs over x], "base": expr,
    "domain": {"lo","hi"}, "space": {...}} or a builtin name."""
    builtin = builtin_or_schema(doc, "family", FAMILIES)
    if builtin is not None:
        return builtin
    stats, domain, space, base, name = spec_fields(
        doc, "family", {"stats": list, "domain": dict, "space": dict},
        {"base": (str, "0"), "name": (str, "family")})
    if not stats:
        raise SchemaError("stats must be a non-empty list of expressions")
    space = space_from_doc(space)
    variables = {"x": space.xdim}
    compiled = [compile_expression(e, variables) for e in stats]
    stats = tuple((lambda c: (lambda x: c({"x": x})))(c) for c in compiled)
    base_c = compile_expression(base, variables)
    base = lambda x: base_c({"x": x}) * np.ones(len(x))
    box = domain_from_doc(domain, len(stats))
    return PotentialFamily(stats=stats, base=base, space=space, domain=box, label=name)
