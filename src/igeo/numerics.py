"""Deterministic differentiation, expectation and linear-solve kernels.

Everything downstream (metrics, connections, curvature, immersion data) is
built from three primitives:

* ``stencil``     -- central finite differences for mixed partials up to
                     order three, with optional Richardson extrapolation,
                     for any set of partials at one point or at P points
                     (a whole grid): their nodes form one ``(M, dim)``
                     batch, without repeats, that is tested against the
                     domain once and handed to ``fn`` once; each point
                     keeps the bits of its own call.  Every function
                     differentiated here maps rows ``(..., n)`` to
                     ``(..., k)``; ``derive`` is the one wrapper left for a
                     function of a single point.
* ``integrate``   -- integrals over a sample space under its rule, of a
                     ``fn(points, weights)`` that returns a weighted sum over
                     its points: one call on the nodes of ``node_quadrature``
                     (exact sum, Gauss-Hermite, Monte Carlo), or adaptive
                     quadrature of its value at single points, componentwise,
                     which loads ``scipy.integrate`` on first use.  ``expect``
                     is its scalar case, against an explicit weight.
* ``solve_frame`` -- inversion of tangent-plus-transversal frames, one or a
                     stack: one stacked condition test, every right-hand
                     side of every frame solved on its own.

All functions here are pure.  Two kinds of cache exist, and neither
changes a result: the Gauss-Hermite and Monte Carlo node caches keyed by
the rule parameters, which are global, and ``PointMemo``, a bounded memo
of pointwise tensors that each subject (model, surface) owns and frees
with itself.  Arrays handed out by either are shared and so read-only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import Divergent, NonFinite, SingularFrame, StencilOutOfDomain

# Default relative steps per derivative order.  Powers of two keep the
# perturbed coordinates (and polynomial values at them) exactly
# representable, so differences of polynomials carry no rounding noise.
# The magnitudes balance truncation against roundoff for each order.
_DEFAULT_BASE_STEP = {1: 2.0**-17, 2: 2.0**-12, 3: 2.0**-9}

_DEFAULT_CONDITION_CAP = 1e12


@dataclass(frozen=True)
class DiffScheme:
    """Finite-difference policy: derivative order, relative step, extrapolation.

    The step used along coordinate ``i`` is ``base_step * max(1, |x_i|)``.
    ``richardson_levels`` successive halvings feed a standard extrapolation
    table (error orders h^2, h^4, ...).
    """

    order: int = 1
    base_step: Optional[float] = None
    richardson_levels: int = 0

    def __post_init__(self):
        if self.order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {self.order}")
        if self.base_step is not None and not self.base_step > 0:
            raise ValueError("base_step must be positive")
        if self.richardson_levels < 0:
            raise ValueError("richardson_levels must be >= 0")
        # hashed once: every stencil call looks its entries up in a cache
        object.__setattr__(self, "_hash", hash((self.order, self.base_step,
                                                 self.richardson_levels)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def step(self) -> float:
        if self.base_step is not None:
            return self.base_step
        return _DEFAULT_BASE_STEP[self.order]


# 1-d central stencils: (offset, coefficient) pairs.  The weighted node values
# are summed first and divided by h**count once: scaling each by an inexact
# 1/h**count before the sum would spoil the cancellation between them.
# A mixed partial takes the product stencil over its coordinates.
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


@lru_cache(maxsize=256)
def _layout(entries: tuple, dim: int):
    """The node rows of ``entries`` at any point with ``dim`` coordinates:
    per row its offsets, the coordinates it moves and its step factor (base
    step times Richardson shrink).  Per entry None for the value itself,
    else its coefficients in summation order and number of levels; per entry
    and level the base step, shrink and (coordinate, count) of h**count."""
    node_rows, plans, divisors = [], [], []
    for idx, scheme in entries:
        idx = tuple(int(i) for i in idx)
        if len(idx) > 3:
            raise ValueError("multi_index must contain at most 3 entries")
        if any(i < 0 or i >= dim for i in idx):
            raise ValueError(f"coordinate index out of range for point of size {dim}")
        if not idx:
            node_rows.append((np.zeros(dim), np.zeros(dim, dtype=bool), 0.0))
            plans.append(None)
            continue
        scheme = scheme or DiffScheme(order=len(idx))
        counts = Counter(idx)
        coords = tuple(sorted(counts))
        combos = list(product(*(_STENCILS[counts[i]] for i in coords)))
        levels = tuple(0.5 ** level for level in range(scheme.richardson_levels + 1))
        moved = np.isin(np.arange(dim), coords)
        for shrink in levels:
            for combo in combos:
                offset = np.zeros(dim)
                offset[list(coords)] = [o for o, _ in combo]
                node_rows.append((offset, moved, scheme.step * shrink))
            divisors.append((scheme.step, shrink, tuple((i, counts[i]) for i in coords)))
        plans.append((tuple(math.prod(c for _, c in combo) for combo in combos), len(levels)))
    offsets, moved, factors = (np.array(a) for a in zip(*node_rows))
    factors = factors[:, None]
    for a in (offsets, moved, factors):
        a.flags.writeable = False
    return offsets, moved, factors, tuple(plans), tuple(divisors)


def partials(dim: int, order: int, scheme: Optional[DiffScheme] = None) -> list:
    """Stencil entries of every first partial (``order`` 1, coordinate
    order) or every second partial a <= b (``order`` 2, row-major)."""
    if order == 1:
        return [((a,), scheme) for a in range(dim)]
    return [((a, b), scheme) for a in range(dim) for b in range(a, dim)]


def symmetric(values: Sequence, dim: int, axis: int = 0) -> np.ndarray:
    """``D[a, b] = D[b, a]`` from the second partials of ``partials(dim, 2)``,
    with the pair axes (a, b) after the first ``axis`` axes of the values."""
    D = np.empty((dim, dim) + np.shape(values[0]))
    k = 0
    for a in range(dim):
        for b in range(a, dim):
            D[a, b] = D[b, a] = values[k]
            k += 1
    return stacked(D, axis, 2)


def stacked(values, axis: int = 0, width: int = 1) -> np.ndarray:
    """The first ``width`` axes of the array ``values`` moved after the
    ``axis`` axes that follow them, C-contiguous."""
    D = np.asarray(values)
    order = list(range(D.ndim))
    return np.ascontiguousarray(D.transpose(order[width:width + axis] + order[:width]
                                            + order[width + axis:]))


def stencil(fn: Callable, points, entries: Sequence, domain=None) -> list:
    """Values of several partial derivatives of ``fn`` at one point, or at
    every row of ``points`` (P, dim), from one batched evaluation.

    ``entries`` are ``(multi_index, scheme)`` pairs: a tuple of 0-based coordinates,
    one per differentiation (e.g. ``(0, 0)`` for a second derivative along
    the first coordinate), and a ``DiffScheme`` or None for the default of
    that order; the empty multi-index asks for ``fn(point)`` itself.  The
    nodes of every entry at every Richardson level, point after point, are
    stacked into one ``(M, dim)`` array, duplicate nodes dropped; the array
    is tested against ``domain`` (a ``Box`` or None) once, ``fn`` is called
    once on it and must return shape ``(M, ...)``, and the values are tested
    for finiteness once.  Nodes outside the domain raise
    ``StencilOutOfDomain`` and non-finite values ``NonFinite``, each naming
    the first such node, the one a loop over the points would name.
    Returns one value per entry, in order, with a leading axis P for rows
    of points, each with the bits of a one-point call.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    dim = pts.shape[-1]
    offsets, moved, factors, plans, divisors = _layout(tuple(entries), dim)
    rows_in = pts.reshape(-1, 1, dim)
    # node = x + offset * (step * shrink * max(1, |x|)) along each moved
    # coordinate, x itself along the others
    X = np.where(moved, rows_in + offsets * (factors * np.fmax(1.0, np.abs(rows_in))),
                 rows_in)

    # the distinct nodes in stacking order, and the one each node row is
    width = 8 * dim
    raw = X.tobytes()
    seen = {}
    rows = [seen.setdefault(raw[i:i + width], len(seen))
            for i in range(0, len(raw), width)]
    U = np.frombuffer(b"".join(seen), dtype=float).reshape(-1, dim).copy()

    if domain is not None:
        inside = domain.inside(U)
        if not inside.all():
            bad = U[int(np.argmin(inside))]
            raise StencilOutOfDomain(
                f"stencil node {bad.tolist()} leaves the declared domain")
    V = np.asarray(fn(U), dtype=float)
    if V.shape[:1] != (len(U),):
        raise ValueError(f"fn returned shape {V.shape} for {len(U)} stencil nodes; "
                         "it must map nodes (M, dim) to values (M, ...)")
    if not np.isfinite(V).all():
        finite = np.isfinite(V).reshape(len(U), -1).all(axis=1)
        bad = U[int(np.argmin(finite))]
        raise NonFinite(f"fn returned a non-finite value at {bad.tolist()}")

    # W[at[r]] holds node row r of every point, a view of V at one point (no
    # copy of large rows), a gathered row at several; a 1-d point has no
    # point axis
    lead = pts.shape[:-1]
    if len(rows_in) == 1:
        W, at = V.reshape((len(V),) + lead + V.shape[1:]), rows
    else:
        W = V[np.array(rows).reshape(X.shape[:2]).T.reshape(X.shape[1:2] + lead)]
        at = range(len(W))
    # per point h**count of every entry and level, in the operations of
    # math.prod over (step * max(1, |x_i|) * shrink) ** count
    div = []
    for x in rows_in[:, 0].tolist():
        m = [max(1.0, abs(v)) for v in x]
        for step, shrink, ic in divisors:
            d = 1
            for i, c in ic:
                d = d * (step * m[i] * shrink) ** c
            div.append(d)
    div = iter(np.reshape(div, (len(rows_in), len(divisors))).T.reshape(
        (len(divisors),) + lead + (1,) * (V.ndim - 1)))
    out, r = [], 0
    for plan in plans:
        if plan is None:
            out.append(W[at[r]])
            r += 1
            continue
        coeffs, levels = plan
        table = []
        for _ in range(levels):
            total = coeffs[0] * W[at[r]]
            for k in range(1, len(coeffs)):
                total += coeffs[k] * W[at[r + k]]
            r += len(coeffs)
            # the weighted values are summed first and divided by h**count once
            table.append([total / next(div)])
        # Richardson extrapolation (error orders h^2, h^4, ...)
        for i in range(1, len(table)):
            for j in range(1, i + 1):
                table[i].append((4.0 ** j * table[i][j - 1] - table[i - 1][j - 1])
                                / (4.0 ** j - 1.0))
        out.append(table[-1][-1])
    return out


def derive(fn: Callable, point, multi_index: Sequence[int],
           scheme: Optional[DiffScheme] = None, domain=None):
    """Mixed partial derivative of ``fn`` at ``point`` by central differences.

    ``multi_index`` lists 1 to 3 coordinate indices, as in ``stencil``.
    ``fn`` takes one point and may return a scalar or an ndarray; it is
    evaluated node by node and the stencil is applied componentwise.  Nodes
    outside ``domain`` raise ``StencilOutOfDomain``.
    """
    idx = tuple(multi_index)
    if not 1 <= len(idx) <= 3:
        raise ValueError("multi_index must contain 1 to 3 entries")
    nodewise = lambda nodes: np.array([np.asarray(fn(x), dtype=float) for x in nodes])
    result = stencil(nodewise, point, [(idx, scheme)], domain)[0]
    if result.ndim == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class ExpectationRule:
    """How E[integrand] under an explicit weight is evaluated.

    kind is one of ``exact-finite-sum``, ``gauss-hermite``, ``monte-carlo``
    (the node rules of ``node_quadrature``) and ``adaptive-quadrature``.
    Node weights are for integration against the flat measure, so the
    weight function is always an explicit factor.  Gauss-Hermite nodes are
    affinely mapped (``loc`` + sqrt(2)*``scale``*t); Monte Carlo nodes are
    draws from N(``loc``, ``scale``^2) and need a seed.  ``tol`` (absolute
    and relative) of adaptive quadrature defaults to 1e-8, above the
    finite-difference floor of connection integrands (about 1e-9).
    """

    kind: str
    nodes: int = 64
    tol: float = 1e-8
    seed: Optional[int] = None
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        kinds = ("exact-finite-sum", "gauss-hermite", "adaptive-quadrature", "monte-carlo")
        if self.kind not in kinds:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.nodes < 1:
            raise ValueError("node count must be >= 1")
        if self.kind == "adaptive-quadrature" and not self.tol > 0:
            raise ValueError("adaptive tolerance must be positive")
        if self.kind == "monte-carlo" and self.seed is None:
            raise ValueError("monte-carlo rules must carry an explicit seed")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @classmethod
    def exact(cls) -> "ExpectationRule":
        return cls(kind="exact-finite-sum")

    @classmethod
    def gauss_hermite(cls, nodes: int = 64, loc: float = 0.0,
                      scale: float = 1.0) -> "ExpectationRule":
        return cls(kind="gauss-hermite", nodes=nodes, loc=loc, scale=scale)

    @classmethod
    def adaptive(cls, tol: Optional[float] = None) -> "ExpectationRule":
        return cls(kind="adaptive-quadrature", tol=cls.tol if tol is None else tol)

    @classmethod
    def monte_carlo(cls, nodes: int, seed: int, loc: float = 0.0,
                    scale: float = 1.0) -> "ExpectationRule":
        return cls(kind="monte-carlo", nodes=nodes, seed=seed, loc=loc, scale=scale)


def tensor_grid(axes: Sequence) -> np.ndarray:
    """Row-major tensor product of 1-d ``axes``, shape (prod of lengths,
    len(axes)): the last coordinate varies fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@lru_cache(maxsize=64)
def gauss_hermite_1d(n: int, loc: float, scale: float):
    """Read-only ``(x, weights)`` of the n-node mapped Gauss-Hermite rule on
    one axis; ``quadrature_nodes`` is their tensor product."""
    t, w = np.polynomial.hermite.hermgauss(n)
    x = loc + math.sqrt(2.0) * scale * t
    # effective weights for the flat measure; computed in log space so large
    # |t| nodes do not overflow exp(t^2)
    weights = math.sqrt(2.0) * scale * np.exp(np.log(w) + t * t)
    x.flags.writeable = weights.flags.writeable = False
    return x, weights


@lru_cache(maxsize=64)
def quadrature_nodes(n: int, loc: float, scale: float, xdim: int):
    """Tensor-product mapped Gauss-Hermite nodes.

    Returns read-only ``(points, weights)``, points of shape ``(n**xdim, xdim)``.
    """
    x1, w1 = gauss_hermite_1d(n, loc, scale)
    pts = tensor_grid([x1] * xdim)
    weights = np.prod(tensor_grid([w1] * xdim), axis=-1)
    pts.flags.writeable = weights.flags.writeable = False
    return pts, weights


@lru_cache(maxsize=64)
def monte_carlo_nodes(n: int, seed: int, loc: float, scale: float, xdim: int):
    """Read-only ``(points, weights)``: ``n`` seeded draws from
    N(loc, scale^2)^xdim, shape ``(n, xdim)``, and the importance weights
    ``1 / (n q(x))`` for their density q."""
    pts = np.random.default_rng(seed).normal(loc, scale, size=(n, xdim))
    log_q = -0.5 * np.sum(((pts - loc) / scale) ** 2, axis=-1) \
        - xdim * math.log(math.sqrt(2 * math.pi) * scale)
    weights = np.exp(-log_q) / n
    pts.flags.writeable = weights.flags.writeable = False
    return pts, weights


def node_quadrature(space):
    """(points, weights) of the space's rule; None for the adaptive rule,
    which has no fixed nodes.  ``weights`` of None means the counting
    measure (plain sum over the points of a finite space)."""
    rule = space.rule
    if rule.kind == "exact-finite-sum":
        return space.points, None
    if rule.kind == "gauss-hermite":
        return quadrature_nodes(rule.nodes, rule.loc, rule.scale, space.xdim)
    if rule.kind == "monte-carlo":
        return monte_carlo_nodes(rule.nodes, rule.seed, rule.loc, rule.scale,
                                 space.xdim)
    return None


def own_nodes(space, x):
    """``node_quadrature(space)`` when ``x`` is its node array itself, else
    None: an identity test, so a copy of the nodes, adaptive points and any
    other samples all give None."""
    nodes = node_quadrature(space)
    return nodes if nodes is not None and x is nodes[0] else None


def _masked_products(weight_vals, integrand_vals):
    w = np.asarray(weight_vals, dtype=float)
    if np.any(w < 0):
        raise ValueError("weight must be nonnegative on all evaluated nodes")
    f = np.asarray(integrand_vals, dtype=float)
    contrib = np.where(w > 0, f * w, 0.0)
    if not np.all(np.isfinite(contrib)):
        raise NonFinite("non-finite integrand*weight at a node with positive weight")
    return contrib


def batches(space, rows):
    """Rows (P, n) as the batches that may share integrals over ``space``:
    one batch under a node rule, one row per batch under adaptive quadrature,
    where an integral over several rows moves each row's value."""
    rows = np.asarray(rows, dtype=float)
    return rows[:, None] if space.rule.kind == "adaptive-quadrature" else [rows]


def integrate(space, fn: Callable):
    """The integral over ``space``, under its rule, of a pointwise quantity.

    ``fn(points, weights)`` returns an array that is the weighted sum of the
    quantity over ``points`` (N, xdim); ``weights`` of None mean the
    counting measure.  A node rule calls ``fn`` once, on the nodes of
    ``node_quadrature``.  Adaptive quadrature integrates ``fn(x[None],
    None)``, the quantity at a single point x, componentwise over R^xdim by
    nested ``scipy.integrate.quad_vec`` (imported on first use) with at most
    200 subintervals per level; a non-finite value raises ``NonFinite`` and
    a level that misses the rule's tolerance ``Divergent``.
    """
    nodes = node_quadrature(space)
    if nodes is not None:
        return fn(*nodes)

    from scipy.integrate import quad_vec
    tol = space.rule.tol

    def over(prefix: list):  # the integral over the coordinates after prefix
        def inner(t):
            if len(prefix) + 1 < space.xdim:
                return over(prefix + [t])
            x = np.array([prefix + [t]], dtype=float)
            val = np.asarray(fn(x, None), dtype=float)
            if not np.isfinite(val).all():
                raise NonFinite(f"non-finite integrand at x = {x[0].tolist()} "
                                "during adaptive quadrature")
            return val

        val, _, info = quad_vec(inner, -np.inf, np.inf, epsabs=tol, epsrel=tol,
                                limit=200, full_output=True)
        if not info.success:
            raise Divergent(f"adaptive quadrature did not converge: {info.message}")
        return val

    return over([])


def expect(space, weight: Callable, integrand: Callable) -> float:
    """Expectation of ``integrand`` against ``weight`` over ``space``: the
    scalar case of ``integrate``.

    ``space`` provides its ``rule``, ``xdim`` and, if finite, ``points``.
    Both callables are evaluated on arrays of shape ``(N, xdim)`` and must
    return shape ``(N,)``.  The counting measure uses compensated
    summation, invariant under permutations of the point list.
    """

    def total(pts, weights):
        contrib = _masked_products(weight(pts), integrand(pts))
        if weights is None:
            return math.fsum(contrib.tolist())
        return float(np.dot(weights, contrib))

    return float(integrate(space, total))


def solve_frame(columns, rhs, condition_cap: float = _DEFAULT_CONDITION_CAP):
    """Coefficients of ``rhs`` in the basis given by ``columns``.

    ``columns`` is a sequence of vectors, an already column-stacked square
    matrix, or a stack of them ``(..., m, m)``; ``rhs`` is one vector or
    the columns of ``(m, k)`` per frame, ``(..., m)`` or ``(..., m, k)``.
    Every condition number is taken in one stacked call, and each column
    of each frame is solved on its own, so every result has the bits of a
    single solve.  Raises ``SingularFrame``, naming the first frame whose
    condition number exceeds ``condition_cap``, which downstream signals a
    non-transversal field.
    """
    if isinstance(columns, np.ndarray) and columns.ndim >= 2:
        A = np.asarray(columns, dtype=float)
    else:
        A = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    m = A.shape[-1]
    if A.shape[-2] != m:
        raise ValueError(f"frame matrix must be square, got {A.shape[-2:]}")
    cond = np.ravel(np.linalg.cond(A))
    if not (cond <= condition_cap).all():
        bad = cond[np.argmin(cond <= condition_cap)]
        raise SingularFrame(f"frame condition {bad:.3e} exceeds cap {condition_cap:.1e}")
    R = np.asarray(rhs, dtype=float)
    lead = A.shape[:-2]
    cols = np.swapaxes(R.reshape(lead + (m, -1)), -1, -2)[..., None]
    X = np.linalg.solve(np.broadcast_to(A[..., None, :, :], cols.shape[:-1] + (m,)), cols)
    return np.swapaxes(X[..., 0], -1, -2).reshape(R.shape)


# Entries one PointMemo holds before it starts over: over five times what
# the grid checks of one 3x3-grid run store (at most 180: the Fisher metric
# and the jet moments at each of 81 points, two alpha-connections at each
# of the 9 grid points; a batched sweep stores its misses together).  A
# surface stores its decomposition and induced derivative per grid point
# only (18 entries on a 3x3 grid), never per stencil node; full of 2-d
# immersion data a memo holds about 1.8 MB (tracemalloc).  Geodesic stage
# points stream through, each storing at most its moments.
MEMO_SIZE = 1024


def _stacked(values: list, lead: tuple) -> np.ndarray:
    return np.stack(values).reshape(lead + np.shape(values[0]))


class PointMemo:
    """Bounded memo of pointwise results, keyed by parameter bytes.

    ``get(key, compute)`` returns the stored value or stores ``compute()``;
    an exception from ``compute`` propagates and stores nothing.  ``rows``
    does the same for every row of a batch of points, and ``put`` stores a
    value computed elsewhere.  A full
    memo is cleared before the next store, so it never holds more than
    ``MEMO_SIZE`` entries.  Stored arrays, and the array fields of stored
    dataclasses, are made read-only because every hit shares them.
    """

    def __init__(self):
        self._store = {}

    def __len__(self) -> int:
        return len(self._store)

    def peek(self, key):
        """The stored value, or None; never computes or stores."""
        return self._store.get(key)

    def get(self, key, compute: Callable):
        try:
            return self._store[key]
        except KeyError:
            return self.put(key, compute())

    def rows(self, points, key: Callable, compute: Callable, stack: Callable = _stacked):
        """The value stored under ``key(point bytes)`` at a point (n,), or
        the values at every row of points (..., n) joined by ``stack(values,
        lead shape)`` (default: one array, the lead shape before each
        value's shape).  Missed rows, each once, are computed together by
        ``compute(rows)`` (rows (P, n) in, one value per row out) and stored
        one by one; a point is a batch of one row."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        if pts.ndim == 1:
            k = key(pts.tobytes())
            value = self._store.get(k)
            return self.put(k, compute(pts[None])[0]) if value is None else value
        flat = pts.reshape(-1, pts.shape[-1])
        raw, width = flat.tobytes(), flat.itemsize * flat.shape[1]
        keys = [key(raw[i:i + width]) for i in range(0, len(raw), width)]
        values = [self._store.get(k) for k in keys]
        missed = {}
        for i, v in enumerate(values):
            if v is None:
                missed.setdefault(keys[i], i)
        if missed:
            at = list(missed.values())
            for k, v in zip(missed, compute(flat if len(at) == len(flat) else flat[at])):
                missed[k] = self.put(k, v)
            values = [missed[k] if v is None else v for k, v in zip(keys, values)]
        return stack(values, pts.shape[:-1])

    def put(self, key, value):
        """Store ``value`` under ``key``, as ``get`` does, and return it."""
        fields = (value,) if isinstance(value, np.ndarray) else \
            getattr(value, "__dict__", {}).values()
        for a in fields:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        if len(self._store) >= MEMO_SIZE:
            self._store.clear()
        self._store[key] = value
        return value
