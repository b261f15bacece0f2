"""Statistical models: sample spaces, parametrized log-densities, catalog.

A model is a sample space plus a vectorised log-density ``l(x, theta)`` over
a declared open parameter box.  Evaluation outside the box is an error, not
an extrapolation.  The builtin catalog covers the families used throughout
the verification suite; every entry passes ``validate_model`` on its
reference grid.

Array conventions: sample points always have shape ``(N, xdim)`` and
vectorised callables over the sample space return shape ``(N,)``.  A
log-density is also batched over parameters: theta of shape ``(..., dim)``
gives shape ``(..., N)``, so one call evaluates a whole stencil of theta
rows (``numerics.stencil``); ``log_density_rows`` holds a model to that.
Integrals over a space go through its rule, one path for every rule:
``numerics.integrate`` sums over the nodes of ``numerics.node_quadrature``
or runs adaptive quadrature.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import gammaln, ndtri, pdtrc

from . import numerics
from .errors import NonFinite, OutOfDomain, SchemaError
from .expressions import compile_expression
from .numerics import (DiffScheme, ExpectationRule, PointMemo, expect,
                       gauss_hermite_1d, own_nodes, partials, stacked, stencil,
                       symmetric, tensor_grid)

# Derivative policies for log-densities: tight steps for scores, wider ones
# for the second derivatives appearing inside connection integrands.
SCORE_SCHEME = DiffScheme(order=1, base_step=2.0**-17)
HESSIAN_SCHEME = DiffScheme(order=2, base_step=2.0**-12)


def default_quad_nodes(fallback: int) -> int:
    """Node count of a rule that does not fix its own (a builtin, or a spec
    quadrature without ``nodes``): IGEO_QUAD_NODES if set, else ``fallback``."""
    raw = os.environ.get("IGEO_QUAD_NODES")
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"IGEO_QUAD_NODES must be an integer, got {raw!r}") from None
    if value < 1:
        raise SchemaError("IGEO_QUAD_NODES must be >= 1")
    return value


def grid(lo, hi, counts) -> list:
    """Row-major tensor grid from ``lo`` to ``hi`` with ``counts`` points per
    coordinate; ``lo`` may equal ``hi`` along any axis."""
    return list(tensor_grid([np.linspace(float(a), float(b), int(c))
                             for a, b, c in zip(lo, hi, counts)]))


@dataclass(frozen=True)
class Box:
    """Open axis-aligned parameter box."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box must satisfy lo < hi componentwise")
        object.__setattr__(self, "_lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "_hi", np.asarray(self.hi, dtype=float))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, point, margin: float = 0.0) -> bool:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        if p.shape[-1] != self.dim:
            return False
        return bool(((p > self._lo + margin) & (p < self._hi - margin)).all())

    def inside(self, points) -> np.ndarray:
        """Boolean ``contains`` of every row of ``points``, shape (..., dim)."""
        p = np.asarray(points, dtype=float)
        return ((p > self._lo) & (p < self._hi)).all(axis=-1)

    def check(self, theta, label: str) -> np.ndarray:
        """theta (a point or rows (..., dim)) as floats; OutOfDomain, naming
        ``label`` and theta or its first row outside, unless all lie inside."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.contains(th):
            bad = np.asarray(theta) if th.ndim == 1 or th.shape[-1] != self.dim else \
                th.reshape(-1, self.dim)[np.argmin(self.inside(th).ravel())]
            raise OutOfDomain(f"theta {bad.tolist()} outside domain of {label}")
        return th

    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    def grid(self, counts) -> list:
        """Row-major tensor grid with ``counts`` points per coordinate."""
        return grid(self.lo, self.hi, counts)


@dataclass(frozen=True, eq=False)
class SampleSpace:
    """Sample space: finite point list or a real coordinate space.

    Real spaces carry a quadrature rule; finite spaces take the exact
    compensated sum and no other rule.
    """

    kind: str
    xdim: int
    rule: ExpectationRule
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("finite-discrete", "real-line", "real-k"):
            raise ValueError(f"unknown sample space kind {self.kind!r}")
        if self.kind == "finite-discrete":
            if self.points is None or len(self.points) < 2:
                raise ValueError("finite-discrete spaces need >= 2 points")
            if len(np.unique(self.points, axis=0)) < 2:
                raise ValueError("finite-discrete spaces need >= 2 distinct points")
            if self.rule.kind != "exact-finite-sum":
                raise ValueError("finite-discrete spaces take the exact sum only")
        else:
            if self.rule.kind == "exact-finite-sum":
                raise ValueError("real sample spaces need a quadrature rule")

    @classmethod
    def finite(cls, points) -> "SampleSpace":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        return cls(kind="finite-discrete", xdim=pts.shape[1],
                   rule=ExpectationRule.exact(), points=pts)

    @classmethod
    def real_line(cls, rule: ExpectationRule) -> "SampleSpace":
        return cls(kind="real-line", xdim=1, rule=rule)

    @classmethod
    def real(cls, k: int, rule: ExpectationRule) -> "SampleSpace":
        if k == 1:
            return cls.real_line(rule)
        return cls(kind="real-k", xdim=int(k), rule=rule)


@dataclass(frozen=True, eq=False)
class StatisticalModel:
    """Parametrized family of densities on a sample space.

    ``memo`` holds the pointwise tensors computed for this model (Fisher
    metric, alpha-connections); ``dataclasses.replace`` starts a new one.
    """

    space: SampleSpace
    dim: int
    domain: Box
    # (x:(N,xdim), theta:(..., dim)) -> (..., N): a parameter batch of shape
    # (M, dim) gives one row of N values per parameter row
    log_density: Callable
    label: str = ""
    memo: PointMemo = field(default_factory=PointMemo, init=False, repr=False)

    def __post_init__(self):
        if self.domain.dim != self.dim:
            raise ValueError("domain dimension does not match model dimension")

    def check_theta(self, theta) -> np.ndarray:
        return self.domain.check(theta, self.label or "model")

    def density(self, theta) -> Callable:
        """Weight function x -> p(x; theta) for expectation calls."""
        th = self.check_theta(theta)
        return lambda x: np.exp(self.log_density(x, th))

    @property
    def tolerance(self) -> float:
        """Residual tolerance profile: exact sums 1e-6, quadrature 1e-4."""
        return 1e-6 if self.space.kind == "finite-discrete" else 1e-4


def log_density(model: StatisticalModel, x, theta) -> float:
    """Scalar log-density at one sample point."""
    th = model.check_theta(theta)
    xa = _as_sample(model, x)
    val = float(np.asarray(model.log_density(xa, th)).reshape(()))
    if not math.isfinite(val):
        raise NonFinite(f"log-density not finite at x={x}, theta={th.tolist()}")
    return val


def _as_sample(model: StatisticalModel, x) -> np.ndarray:
    xa = np.asarray(x, dtype=float)
    if xa.ndim == 0:
        xa = xa.reshape(1, 1)
    elif xa.ndim == 1:
        xa = xa.reshape(1, -1)
    if xa.shape[-1] != model.space.xdim:
        raise OutOfDomain(f"sample point has dimension {xa.shape[-1]}, "
                          f"expected {model.space.xdim}")
    return xa


def log_density_rows(model: StatisticalModel, xs) -> Callable:
    """``TH -> model.log_density(xs, TH)`` for parameter rows TH of shape
    (M, dim), held to the batch contract: the result must have shape
    (M, N).  A log-density that ignores the batch axis raises ValueError
    instead of feeding wrong values into a stencil."""

    def rows(TH):
        val = np.asarray(model.log_density(xs, TH), dtype=float)
        if val.shape != (len(TH), len(xs)):
            raise ValueError(
                f"log-density of {model.label or 'model'} returned shape {val.shape} "
                f"for {len(TH)} parameter rows and {len(xs)} sample points; the "
                "contract is theta (..., dim) -> (..., N)")
        return val

    return rows


def score_matrix(model: StatisticalModel, theta, xs,
                 scheme: DiffScheme = SCORE_SCHEME) -> np.ndarray:
    """All scores at once: array of shape (dim, N) over sample points xs."""
    th = model.check_theta(theta)
    return np.array(stencil(log_density_rows(model, xs), th,
                            partials(model.dim, 1, scheme), model.domain))


def second_log_derivs(model: StatisticalModel, theta, xs,
                      scheme: DiffScheme = HESSIAN_SCHEME) -> np.ndarray:
    """Second parameter derivatives of the log-density, shape (dim, dim, N),
    or (P, dim, dim, N) at the rows of theta (P, dim), from one stencil."""
    th = model.check_theta(theta)
    return symmetric(stencil(log_density_rows(model, xs), th,
                             partials(model.dim, 2, scheme), model.domain),
                     model.dim, th.ndim - 1)


def log_density_jet(model: StatisticalModel, th: np.ndarray, xs):
    """l, the scores (dim, N) and the second derivatives (dim, dim, N) at a
    checked point th over sample points xs, from one log-density call; at
    the rows of th (P, dim) each gains a leading axis, rows contiguous."""
    n, lead = model.dim, np.ndim(th) - 1
    jet = stencil(log_density_rows(model, xs), th,
                  partials(n, 1, SCORE_SCHEME) + partials(n, 2, HESSIAN_SCHEME)
                  + [((), None)], model.domain)
    return jet[-1], stacked(jet[:n], lead), symmetric(jet[n:-1], n, lead)


def normal_quantiles(rule: ExpectationRule, q) -> np.ndarray:
    """Quantiles ``q`` of the normal law N(rule.loc, rule.scale**2)."""
    return ndtri(q) * rule.scale + rule.loc


def quadrature_sample(space: SampleSpace) -> np.ndarray:
    """Representative sample points: the nodes of an exact or Gauss-Hermite
    rule, or for adaptive and Monte Carlo rules a ``normal_quantiles`` spread."""
    if space.rule.kind in ("exact-finite-sum", "gauss-hermite"):
        return numerics.node_quadrature(space)[0]
    qs = normal_quantiles(space.rule, np.linspace(0.02, 0.98, 25))
    return tensor_grid([qs] * space.xdim)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationEntry:
    theta: tuple
    normalization_residual: float
    score_gram_condition: float
    smooth: bool
    reason: str = ""    # the exceptions behind an inf residual or smooth=False


@dataclass(frozen=True)
class ValidationReport:
    label: str
    entries: tuple
    tolerance: float
    passed: bool

    @property
    def max_normalization_residual(self) -> float:
        return max(e.normalization_residual for e in self.entries)


def validate_model(model: StatisticalModel, grid: Sequence) -> ValidationReport:
    """Numeric regularity checks over a parameter grid.

    Per point: |E[exp(l)] - 1| (normalization), condition number of the
    score Gram matrix (linear independence), and finiteness of l and its
    first two parameter derivatives on a probe sample.  Failures are
    reported, never thrown; the entry's ``reason`` names the exceptions.
    """
    entries = []
    for theta in grid:
        th = model.check_theta(theta)
        one = lambda x: np.ones(len(x))
        reasons = []
        try:
            total = expect(model.space, model.density(th), one)
            residual = abs(total - 1.0)
        except Exception as exc:
            residual = float("inf")
            reasons.append(f"{type(exc).__name__}: {exc}")
        smooth = True
        gram_cond = float("inf")
        try:
            log_p, s, dd = log_density_jet(model, th, quadrature_sample(model.space))
            smooth = bool(np.all(np.isfinite(s)) and np.all(np.isfinite(dd)))
            p = np.exp(log_p)
            # unweighted-by-rule Gram is enough: condition is scale invariant
            gram = np.einsum("in,jn,n->ij", s, s, p)
            gram_cond = float(np.linalg.cond(gram))
        except Exception as exc:
            smooth = False
            reasons.append(f"{type(exc).__name__}: {exc}")
        entries.append(ValidationEntry(tuple(th.tolist()), float(residual),
                                       gram_cond, smooth, "; ".join(reasons)))
    tol = model.tolerance
    passed = all(e.normalization_residual < tol for e in entries)
    return ValidationReport(model.label, tuple(entries), tol, passed)


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def normal_mean_sigma() -> StatisticalModel:
    """Normal family in (mu, sigma) coordinates."""
    rule = ExpectationRule.gauss_hermite(default_quad_nodes(96), loc=0.0, scale=2.5)

    def ll(x, th):
        mu, sig = th[..., 0, None], th[..., 1, None]
        z = (x[..., 0] - mu) / sig
        return -0.5 * z * z - np.log(sig) - 0.5 * _LOG_2PI

    return StatisticalModel(space=SampleSpace.real_line(rule), dim=2,
                            domain=Box((-2.0, 0.8), (2.0, 2.2)),
                            log_density=ll, label="normal")


def normal_natural_potential(theta):
    """Closed-form normalizer of the natural-coordinate normal family, theta (..., 2) -> (...)."""
    th = np.asarray(theta, dtype=float)
    t1, t2 = th[..., 0], th[..., 1]
    return 0.5 * np.log(-math.pi / t1) - t2 * t2 / (4.0 * t1)


def normal_natural() -> StatisticalModel:
    """Normal family in natural coordinates (theta1, theta2) = (-1/(2s^2), m/s^2)."""
    rule = ExpectationRule.gauss_hermite(default_quad_nodes(96), loc=0.0, scale=2.5)

    def ll(x, th):
        x0 = x[..., 0]
        return th[..., 0, None] * x0 * x0 + th[..., 1, None] * x0 \
            - normal_natural_potential(th)[..., None]

    # theta1 lower bound keeps the density wide enough for the fixed rule
    return StatisticalModel(space=SampleSpace.real_line(rule), dim=2,
                            domain=Box((-0.78, -2.0), (-0.1, 2.0)),
                            log_density=ll, label="normal-natural")


def bernoulli_natural() -> StatisticalModel:
    def ll(x, th):
        t = th[..., 0, None]
        return x[..., 0] * t - np.logaddexp(0.0, t)

    return StatisticalModel(space=SampleSpace.finite([[0.0], [1.0]]), dim=1,
                            domain=Box((-6.0,), (6.0,)),
                            log_density=ll, label="bernoulli-natural")


def categorical_natural(n: int = 2) -> StatisticalModel:
    """Categorical family on outcomes {0..n}; outcome 0 is the baseline."""
    if n < 1:
        raise ValueError("categorical dimension must be >= 1")
    points = np.arange(n + 1, dtype=float).reshape(-1, 1)

    def ll(x, th):
        xv = x[..., 0]
        val = np.zeros_like(xv)
        for i in range(n):
            val = val + th[..., i, None] * (xv == i + 1)
        return val - np.log1p(np.sum(np.exp(th), axis=-1, keepdims=True))

    return StatisticalModel(space=SampleSpace.finite(points), dim=n,
                            domain=Box((-4.0,) * n, (4.0,) * n),
                            log_density=ll, label=f"categorical-natural-{n}")


def poisson_natural() -> StatisticalModel:
    """Poisson family with natural parameter theta = log(rate), truncated support.

    The support cutoff keeps at least 1 - 1e-12 of the mass at the largest
    rate in the domain, so discrete expectations stay exact finite sums.
    """
    hi = 2.5
    lam_max = math.exp(hi)
    # smallest k with P(X > k) = pdtrc(k, lam_max) <= 1e-12
    cutoff = next(k for k in count() if pdtrc(k, lam_max) <= 1e-12) + 2
    points = np.arange(cutoff + 1, dtype=float).reshape(-1, 1)

    def ll(x, th):
        xv = x[..., 0]
        return xv * th[..., 0, None] - np.exp(th[..., 0, None]) - gammaln(xv + 1.0)

    return StatisticalModel(space=SampleSpace.finite(points), dim=1,
                            domain=Box((-2.5,), (hi,)),
                            log_density=ll, label="poisson-natural")


# log q(y) of a location family, written over the temporary y of offsets
# x - mu of one coordinate: (..., n) on the n axis nodes of its own
# Gauss-Hermite rule, or (..., N) at N other samples.  Each extra temporary
# costs one float per offset; in-place steps round exactly.

def _log_q_logistic(y):
    """-y - 2 log(1 + e^-y)"""
    np.negative(y, out=y)
    t = np.logaddexp(0.0, y)
    t *= 2.0
    return np.subtract(y, t, out=y)


def _log_q_gaussian(y):
    """-y^2/2 - log(2 pi)/2"""
    t = np.multiply(-0.5, y)
    t *= y
    t -= 0.5 * _LOG_2PI
    return t


def location_family(q: str = "logistic", k: int = 1) -> StatisticalModel:
    """Location family p(x; mu) = prod_i q(x_i - mu_i) for k <= 2.

    On its own n^k tensor Gauss-Hermite nodes, log q runs on the n axis
    nodes of each coordinate (64, not 4096, per axis at k = 2) and the axes
    are summed by one broadcast add onto the tensor grid.  At any other x
    it runs per entry and the axes are summed in order.  Both do the same
    subtraction, log q and sum per entry, so they agree bit for bit."""
    if q not in ("logistic", "gaussian"):
        raise ValueError(f"unknown location density {q!r}")
    if k not in (1, 2):
        raise ValueError("location families support k in {1, 2}")
    log_q = _log_q_logistic if q == "logistic" else _log_q_gaussian
    rule = ExpectationRule.gauss_hermite(default_quad_nodes(64), loc=0.0, scale=1.0)
    space = SampleSpace.real(k, rule)
    axis, _ = gauss_hermite_1d(rule.nodes, rule.loc, rule.scale)

    def ll(x, th):
        if own_nodes(space, x) is None:
            total = log_q(x[..., 0] - th[..., 0, None])
            for i in range(1, k):
                total += log_q(x[..., i] - th[..., i, None])
            return total
        lq0 = log_q(axis - th[..., 0, None])
        if k == 1:
            return lq0
        lq1 = log_q(axis - th[..., 1, None])
        return (lq0[..., :, None] + lq1[..., None, :]).reshape(lq0.shape[:-1] + (-1,))

    return StatisticalModel(space=space, dim=k,
                            domain=Box((-1.5,) * k, (1.5,) * k),
                            log_density=ll, label=f"{q}-location-{k}")


CATALOG = {
    "normal": normal_mean_sigma,
    "normal-natural": normal_natural,
    "bernoulli-natural": bernoulli_natural,
    "categorical-natural": categorical_natural,
    "poisson-natural": poisson_natural,
    "logistic-location": lambda: location_family("logistic", 1),
    "logistic-location-2": lambda: location_family("logistic", 2),
    "gaussian-location": lambda: location_family("gaussian", 1),
    "gaussian-location-2": lambda: location_family("gaussian", 2),
}

_REFERENCE_GRIDS = {
    "normal": [(m, s) for m in (-0.5, 0.0, 0.5) for s in (0.9, 1.2, 1.6)],
    "normal-natural": [(t1, t2) for t1 in (-0.6, -0.5, -0.3) for t2 in (-0.4, 0.0, 0.4)],
    "bernoulli-natural": [(-2.0,), (0.0,), (2.0,)],
    "categorical-natural": [(-0.5, 0.5), (0.0, 0.0), (1.0, -1.0)],
    "poisson-natural": [(-1.0,), (0.0,), (1.0,)],
    "logistic-location": [(-0.5,), (0.0,), (0.5,)],
    "logistic-location-2": [(-0.5, 0.5), (0.0, 0.0), (0.5, 0.25)],
    "gaussian-location": [(-0.5,), (0.0,), (0.5,)],
    "gaussian-location-2": [(-0.5, 0.5), (0.0, 0.0), (0.5, 0.25)],
}


def reference_grid(name: str) -> list:
    return [np.asarray(p, dtype=float) for p in _REFERENCE_GRIDS[name]]


# ---------------------------------------------------------------------------
# Schema loading
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, types, where: str = "document"):
    if key not in doc:
        raise SchemaError(f"{where} is missing {key!r}")
    value = doc[key]
    if not isinstance(value, types):
        raise SchemaError(f"field {key!r} has unexpected type {type(value).__name__}")
    return value


def number_from_doc(convert: Callable, value, what: str):
    """``convert(value)`` for a spec field; SchemaError when it is no number."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} must be a number, got {value!r}") from None


def domain_from_doc(doc: dict, dim: Optional[int] = None) -> Box:
    """The open box ``doc["domain"] = {"lo": [...], "hi": [...]}``, of
    dimension ``dim`` when given; SchemaError for anything else."""
    dom = _require(doc, "domain", dict)
    lo, hi = (_require(dom, key, list, "domain") for key in ("lo", "hi"))
    try:
        box = Box(tuple(float(v) for v in lo), tuple(float(v) for v in hi))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad domain box: {exc}") from None
    if dim is not None and box.dim != dim:
        raise SchemaError(f"domain box has dimension {box.dim}, expected {dim}")
    return box


def _rule_from_doc(doc: dict) -> ExpectationRule:
    kind = _require(doc, "kind", str)

    def number(key, convert, default):
        return number_from_doc(convert, doc.get(key, default), f"quadrature {key}")

    if kind == "gauss-hermite":
        return ExpectationRule.gauss_hermite(
            nodes=number("nodes", int, None) if "nodes" in doc else default_quad_nodes(64),
            loc=number("loc", float, 0.0), scale=number("scale", float, 1.0))
    if kind == "adaptive-quadrature":
        return ExpectationRule.adaptive(tol=number("tol", float, ExpectationRule.tol))
    if kind == "monte-carlo":
        if "seed" not in doc:
            raise SchemaError("monte-carlo quadrature requires a seed")
        return ExpectationRule.monte_carlo(
            nodes=number("nodes", int, 4096), seed=number("seed", int, None),
            loc=number("loc", float, 0.0), scale=number("scale", float, 1.0))
    raise SchemaError(f"unknown quadrature kind {kind!r}")


def space_from_doc(doc: dict) -> SampleSpace:
    kind = _require(doc, "kind", str)
    if kind == "finite-discrete":
        return SampleSpace.finite(_require(doc, "points", list))
    if kind in ("real-line", "real-k"):
        rule = _rule_from_doc(_require(doc, "quadrature", dict))
        k = number_from_doc(int, doc.get("k", 1), "space k") if kind == "real-k" else 1
        return SampleSpace.real(k, rule)
    raise SchemaError(f"unknown sample space kind {kind!r}")


def load_model(doc: dict) -> StatisticalModel:
    """Build a model from a configuration document.

    Either ``{"builtin": name}`` for a catalog entry, or the full schema with
    ``name``, ``dim``, ``space``, ``domain`` and a ``log_density`` expression
    over ``x[i]`` and ``theta[i]``.
    """
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a mapping")
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in CATALOG:
            raise SchemaError(f"unknown builtin model {name!r}")
        return CATALOG[name]()

    name = _require(doc, "name", str)
    dim = _require(doc, "dim", int)
    space = space_from_doc(_require(doc, "space", dict))
    box = domain_from_doc(doc, dim)
    expr = compile_expression(_require(doc, "log_density", str),
                              {"x": space.xdim, "theta": dim})

    def ll(x, th):
        if np.ndim(th) <= 1:
            return expr({"x": x, "theta": th})
        # theta rows (M, 1, dim) against sample points (1, N, xdim)
        val = expr({"x": x, "theta": th[..., None, :]})
        return np.broadcast_to(val, th.shape[:-1] + (len(x),))

    return StatisticalModel(space=space, dim=dim, domain=box,
                            log_density=ll, label=name)
