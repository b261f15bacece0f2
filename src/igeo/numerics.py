"""Deterministic differentiation, expectation and linear-solve kernels.

Everything downstream (metrics, connections, curvature, immersion data) is
built from three primitives:

* ``stencil``     -- central finite differences for mixed partials up to
                     order three, with optional Richardson extrapolation,
                     for any set of partials at one point or at P points
                     (a whole grid): each point's nodes of distinct
                     displacement, point after point, form one batch that
                     is tested against the domain once and handed to ``fn``
                     once; each point keeps the bits of its own call, and
                     the divisors are taken once per distinct scale
                     max(1, |x|).  Every function differentiated here maps
                     rows ``(..., n)`` to ``(..., k)``.
* ``integrate``   -- integrals over a sample space under its rule, of a
                     ``fn(points, weights)`` that returns a weighted sum over
                     its points: one call on the nodes of ``node_quadrature``
                     (exact sum, Gauss-Hermite, Monte Carlo), or adaptive
                     quadrature of its value at single points, componentwise,
                     which loads ``scipy.integrate`` on first use.  ``expect``
                     is its scalar case, against an explicit weight.
* ``solve_frame`` -- inversion of tangent-plus-transversal frames, one or a
                     stack: one stacked condition test from the inverse
                     (``capped_inverse``, an SVD only near the cap), every
                     right-hand side of every frame solved on its own.

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
    """The node rows of ``entries`` at any point with ``dim`` coordinates,
    keyed by their displacements in units of max(1, |x|), offset * step *
    shrink per coordinate (0.0 for offset 0); rows of equal keys, as the
    value and centre rows, are one kind.  Per kind, in order of first
    occurrence, read-only displacements (K, dim) and where they are not 0;
    per row its kind; per entry the kind of the value itself, else per
    level its (coefficient, kind) pairs in summation order; per entry and
    level the base step, shrink and (coordinate, count) of h**count."""
    node_rows, plans, divisors = [], [], []
    for idx, scheme in entries:
        idx = tuple(int(i) for i in idx)
        if len(idx) > 3:
            raise ValueError("multi_index must contain at most 3 entries")
        if any(i < 0 or i >= dim for i in idx):
            raise ValueError(f"coordinate index out of range for point of size {dim}")
        if not idx:
            node_rows.append((0.0,) * dim)
            plans.append(None)
            continue
        scheme = scheme or DiffScheme(order=len(idx))
        counts = Counter(idx)
        coords = tuple(sorted(counts))
        combos = list(product(*(_STENCILS[counts[i]] for i in coords)))
        levels = tuple(0.5 ** level for level in range(scheme.richardson_levels + 1))
        moves = [dict(zip(coords, combo)) for combo in combos]
        for shrink in levels:
            h = scheme.step * shrink  # offset * h is exact for offsets of +-1 and +-2
            node_rows += [tuple(m[i][0] * h if i in m else 0.0 for i in range(dim)) for m in moves]
            divisors.append((scheme.step, shrink, tuple((i, counts[i]) for i in coords)))
        plans.append((tuple(math.prod(c for _, c in combo) for combo in combos), len(levels)))
    kinds = dict.fromkeys(node_rows)  # first-occurrence order
    shift = np.array(list(kinds), float).reshape(-1, dim)
    moved = shift != 0.0
    shift.flags.writeable = moved.flags.writeable = False
    number = dict(zip(kinds, range(len(kinds))))
    kind = tuple(map(number.get, node_rows))
    rows = iter(kind)  # zip takes one kind per coefficient, in row order
    plans = tuple(next(rows) if p is None else
                  tuple(tuple(zip(p[0], rows)) for _ in range(p[1])) for p in plans)
    return shift, moved, kind, plans, tuple(divisors)


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


def point_max(a, axes: int):
    """max |a| over its last ``axes`` axes, 0.0 over none and NaN where an
    entry is: one residual per point of the leading axes, a float at one."""
    m = np.abs(a).max(axis=tuple(range(-axes, 0)), initial=0.0)
    return float(m) if m.ndim == 0 else m


def grid_max(values) -> float:
    """max(0, values...) of per-point residuals, a float: the one reduction
    of every residual a check reports.  NaN when any point is NaN, which no
    tolerance bounds, so the check fails; 0.0 over no point."""
    return float(np.max(values, initial=0.0))


def _distinct(raw: bytes, width: int):
    """Per ``width``-byte row of ``raw`` (the scale rows of ``stencil``) the
    index of its bytes among the distinct rows (an intp array), and the
    distinct rows joined, in order of first occurrence, by C loops
    (``np.void`` rows as bytes, ``dict.fromkeys``, ``np.fromiter``)."""
    rows = np.frombuffer(raw, f"V{width}").tolist()
    seen = dict.fromkeys(rows)
    number = dict(zip(seen, range(len(seen))))
    return np.fromiter(map(number.__getitem__, rows), np.intp, len(rows)), b"".join(seen)


def stencil(fn: Callable, points, entries: Sequence, domain=None) -> list:
    """Values of several partial derivatives of ``fn`` at one point, or at
    every row of ``points`` (P, dim), from one batched evaluation.

    ``entries`` are ``(multi_index, scheme)`` pairs: a tuple of 0-based coordinates,
    one per differentiation (e.g. ``(0, 0)`` for a second derivative along
    the first coordinate), and a ``DiffScheme`` or None for the default of
    that order; the empty multi-index asks for ``fn(point)`` itself.  The
    K kinds of node row of ``_layout`` (equal displacements once) form one
    ``(P * K, dim)`` array, point after point; a coordinate of zero
    displacement keeps the point's bytes (the centre node is the point,
    -0.0 too).  It is tested against ``domain`` (a ``Box`` or None) once,
    ``fn`` is called once on it and must return shape ``(P * K, ...)``, and
    the values are tested for finiteness once.  Nodes outside the domain
    raise ``StencilOutOfDomain`` and non-finite values ``NonFinite``, each
    naming the first such node, the one a loop over the points would name.
    Returns one value per entry, in order, with a leading axis P for rows
    of points, each with the bits of a one-point call, combined from views
    of the values; the divisors once per distinct scale row max(1, |x|).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    dim = pts.shape[-1]
    shift, moved, _, plans, divisors = _layout(tuple(entries), dim)
    rows_in = pts.reshape(-1, 1, dim)
    scale = np.fmax(1.0, np.abs(rows_in))
    # node = x + displacement * max(1, |x|) where that is not 0, else x
    U = np.where(moved, rows_in + shift * scale, rows_in).reshape(-1, dim)

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

    # W[k], kind k at every point, is a view of V (a 1-d point has no point axis)
    lead, tail = pts.shape[:-1], V.shape[1:]
    W = V.reshape((-1, len(shift)) + tail).swapaxes(0, 1).reshape(
        (len(shift),) + lead + tail)
    # per distinct scale row max(1, |x|) (one for all points with |x_i| <= 1)
    # h**count of every entry and level, in the operations of math.prod over
    # (step * max(1, |x_i|) * shrink) ** count, gathered per point
    which, distinct = _distinct(scale.tobytes(), 8 * dim)
    distinct = np.frombuffer(distinct).reshape(-1, dim).tolist()
    div = []
    for m in distinct:
        for step, shrink, ic in divisors:
            d = 1
            for i, c in ic:
                d = d * (step * m[i] * shrink) ** c
            div.append(d)
    div = iter(np.array(div).reshape(len(distinct), len(divisors))[which].T.reshape(
        (len(divisors),) + lead + (1,) * len(tail)))
    out = []
    for plan in plans:
        if isinstance(plan, int):  # the value itself
            out.append(W[plan])
            continue
        table = []
        for (c, k), *terms in plan:
            total = c * W[k]
            for c, k in terms:
                total += c * W[k]
            # the weighted values are summed first and divided by h**count once
            table.append([total / next(div)])
        # Richardson extrapolation (error orders h^2, h^4, ...)
        for i in range(1, len(table)):
            for j in range(1, i + 1):
                table[i].append((4.0 ** j * table[i][j - 1] - table[i - 1][j - 1])
                                / (4.0 ** j - 1.0))
        out.append(table[-1][-1])
    return out


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
            raise ValueError("nodes must be >= 1")
        if self.kind == "adaptive-quadrature" and not self.tol > 0:
            raise ValueError("adaptive tol must be positive")
        if self.kind == "monte-carlo" and (self.seed is None or self.seed < 0):
            raise ValueError("monte-carlo rules must carry an explicit seed >= 0")
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


MAX_GAUSS_HERMITE_NODES = 370  # hermgauss weights: finite and > 0 up to 370 nodes, not at 371


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


def capped_inverse(A, cap: float, fail: Callable) -> np.ndarray:
    """``np.linalg.inv(A)`` of a matrix or stack ``(..., m, m)`` whose
    condition numbers are all at most ``cap``, else raises ``fail(kappa)``
    for the first beyond it.  As kappa_2(A) <= ||A||_F ||A^-1||_F <= m
    kappa_2(A) (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 7), the stack passes when the sums of ||A||_F^2 and ||A^-1||_F^2
    over it, whose product bounds each matrix's, multiply to at most
    (cap / 2)^2, half the cap leaving room for rounding.  Otherwise, or
    when ``inv`` raises, ``np.linalg.cond`` (SVDs) decides alone."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        inv = None
    else:
        # Python floats overflow to inf without a warning
        if float(np.vdot(A, A)) * float(np.vdot(inv, inv)) <= 0.25 * cap * cap:
            return inv
    cond = np.ravel(np.linalg.cond(A))
    if not (cond <= cap).all():
        raise fail(cond[np.argmin(cond <= cap)])
    return np.linalg.inv(A) if inv is None else inv


def solve_frame(columns, rhs, condition_cap: float = _DEFAULT_CONDITION_CAP):
    """Coefficients of ``rhs`` in the basis given by ``columns``.

    ``columns`` is a sequence of vectors, an already column-stacked square
    matrix, or a stack of them ``(..., m, m)``; ``rhs`` is one vector or
    the columns of ``(m, k)`` per frame, ``(..., m)`` or ``(..., m, k)``.
    Every frame passes one stacked condition test, ``capped_inverse``,
    whose inverse serves the test only: each column of each frame is
    solved on its own, so every result has the bits of a single solve.
    Raises ``SingularFrame``, naming the condition number of the first
    frame beyond ``condition_cap``, which downstream signals a
    non-transversal field.
    """
    if isinstance(columns, np.ndarray) and columns.ndim >= 2:
        A = np.asarray(columns, dtype=float)
    else:
        A = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    m = A.shape[-1]
    if A.shape[-2] != m:
        raise ValueError(f"frame matrix must be square, got {A.shape[-2:]}")
    capped_inverse(A, condition_cap, lambda bad: SingularFrame(
        f"frame condition {bad:.3e} exceeds cap {condition_cap:.1e}"))
    R = np.asarray(rhs, dtype=float)
    lead = A.shape[:-2]
    cols = np.swapaxes(R.reshape(lead + (m, -1)), -1, -2)[..., None]
    X = np.linalg.solve(np.broadcast_to(A[..., None, :, :], cols.shape[:-1] + (m,)), cols)
    return np.swapaxes(X[..., 0], -1, -2).reshape(R.shape)


# Entries one PointMemo holds before it starts over: over ten times what
# the grid checks of one 3x3-grid run store (at most 81, a model's moments
# at each of 9 grid points and 72 field-stencil nodes, from which the Fisher
# metric and every alpha-connection are read).  A surface stores its
# decomposition and induced derivative per grid point only (18 entries on a
# 3x3 grid), never per stencil node; full of 2-d immersion data a memo holds
# about 1.8 MB (tracemalloc).  Geodesic stage points stream through, each
# storing its moments.
MEMO_SIZE = 1024


class PointMemo:
    """Bounded memo of pointwise results, keyed by parameter bytes.

    ``rows(points, key, compute)`` returns the value stored for each point
    and computes and stores the missed ones; an exception from ``compute``
    propagates and stores nothing.  A full memo is cleared before the next
    store, so it never holds more than ``MEMO_SIZE`` entries.  Stored
    arrays are made read-only because every hit shares them.
    """

    def __init__(self):
        self._store = {}

    def __len__(self) -> int:
        return len(self._store)

    def rows(self, points, key: Callable, compute: Callable):
        """The value stored under ``key(point bytes)`` at a point (n,), or
        the values at every row of points (..., n) as one new array, the
        lead shape before each value's shape.  Missed rows, each once, are
        computed together by ``compute(rows)`` (rows (P, n) in, one value
        per row out) and stored one by one; a point is a batch of one row."""
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
        # np.array copies equal-shape values as np.stack does, at a fraction
        # of its per-value cost on many small values (a scalar K per row)
        return np.array(values).reshape(pts.shape[:-1] + np.shape(values[0]))

    def put(self, key, value):
        """Store ``value`` under ``key``, read-only if an array, and return it."""
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        if len(self._store) >= MEMO_SIZE:
            self._store.clear()
        self._store[key] = value
        return value
