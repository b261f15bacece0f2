import ast
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igeo import models, numerics
from igeo.errors import Divergent, NonFinite, SingularFrame, StencilOutOfDomain
from igeo.models import Box, SampleSpace, normal_natural_potential
from igeo.numerics import (DiffScheme, ExpectationRule, batches, derive, expect,
                           integrate, partials, solve_frame, stencil, symmetric)

# The per-node central-difference loop that numerics.stencil replaced, kept
# as the reference: one fn call and one domain test per stencil node, in
# the order the terms are summed, divided once per Richardson level.
_REF_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def reference_derive(fn, point, multi_index, scheme=None, domain=None):
    point = np.atleast_1d(np.asarray(point, dtype=float))
    idx = tuple(int(i) for i in multi_index)
    if scheme is None:
        scheme = DiffScheme(order=len(idx))
    counts = Counter(idx)
    coords = sorted(counts)
    steps = {i: scheme.step * max(1.0, abs(point[i])) for i in coords}

    def estimate(shrink):
        total = None
        for combo in product(*(_REF_STENCILS[counts[i]] for i in coords)):
            x = point.copy()
            coeff = 1.0
            for i, (offset, c) in zip(coords, combo):
                x[i] += offset * (steps[i] * shrink)
                coeff *= c
            if domain is not None and not domain.contains(x):
                raise StencilOutOfDomain(
                    f"stencil node {x.tolist()} leaves the declared domain")
            val = np.asarray(fn(x), dtype=float)
            if not np.all(np.isfinite(val)):
                raise NonFinite(f"fn returned a non-finite value at {x.tolist()}")
            total = coeff * val if total is None else total + coeff * val
        return total / math.prod((steps[i] * shrink) ** counts[i] for i in coords)

    levels = scheme.richardson_levels
    table = [[estimate(0.5 ** i)] for i in range(levels + 1)]
    for i in range(1, levels + 1):
        for j in range(1, i + 1):
            table[i].append(
                (4.0 ** j * table[i][j - 1] - table[i - 1][j - 1]) / (4.0 ** j - 1.0))
    result = table[levels][levels]
    return float(result) if result.ndim == 0 else result


def _polynomial(terms):
    """sum of c * prod_i x_i^e_i over ``terms`` = [(c, exponents)], by
    products alone, so one point (dim,) and rows (M, dim) round alike."""

    def p(x):
        total = np.zeros(np.shape(x)[:-1])
        for c, exps in terms:
            term = c
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * x[..., i]
            total = total + term
        return total

    return p


@st.composite
def _polynomial_cases(draw):
    dim = draw(st.integers(1, 3))
    terms = draw(st.lists(st.tuples(st.floats(-4, 4),
                                    st.tuples(*[st.integers(0, 4)] * dim)),
                          min_size=1, max_size=4))
    point = draw(st.tuples(*[st.floats(-3, 3)] * dim))
    order = draw(st.integers(1, 3))
    index = draw(st.tuples(*[st.integers(0, dim - 1)] * order))
    levels = draw(st.integers(0, 2))
    return _polynomial(terms), np.array(point), index, levels


class TestDerive:
    def test_quadratic_second_derivative_exact(self):
        # central differences are exact on quadratics
        val = derive(lambda x: x[0] ** 2, (3.0,), (0, 0))
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_mixed_partial(self):
        val = derive(lambda x: x[0] * x[1], (1.0, 1.0), (0, 1))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_natural_potential_hessian_entry(self):
        # d2K/dtheta2^2 = -1/(2 theta1) = 1 at theta1 = -0.5
        val = derive(normal_natural_potential, (-0.5, 0.0), (1, 1))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_third_derivative(self):
        val = derive(lambda x: x[0] ** 3, (1.0,), (0, 0, 0))
        assert val == pytest.approx(6.0, abs=1e-6)

    def test_vector_valued(self):
        out = derive(lambda u: np.array([u[0] ** 2, u[0]]), (2.0,), (0,))
        assert np.allclose(out, [4.0, 1.0], atol=1e-9)

    def test_richardson_improves_smooth_function(self):
        f = lambda x: math.sin(x[0])
        plain = derive(f, (0.7,), (0, 0), DiffScheme(order=2, base_step=2.0**-6))
        rich = derive(f, (0.7,), (0, 0),
                      DiffScheme(order=2, base_step=2.0**-6, richardson_levels=1))
        truth = -math.sin(0.7)
        assert abs(rich - truth) < abs(plain - truth)

    def test_stencil_out_of_domain(self):
        box = Box((0.0,), (1.0,))
        with pytest.raises(StencilOutOfDomain):
            derive(lambda x: x[0] ** 2, (1.0 - 1e-9,), (0,), domain=box)

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            derive(lambda x: np.nan, (0.5,), (0,))

    def test_bad_multi_index(self):
        with pytest.raises(ValueError):
            derive(lambda x: x[0], (0.0,), ())
        with pytest.raises(ValueError):
            derive(lambda x: x[0], (0.0,), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            derive(lambda x: x[0], (0.0,), (3,))

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            DiffScheme(order=4)
        with pytest.raises(ValueError):
            DiffScheme(order=1, base_step=-1.0)
        with pytest.raises(ValueError):
            DiffScheme(order=1, richardson_levels=-1)

    @given(c2=st.integers(-4, 4), c1=st.integers(-4, 4), c0=st.integers(-4, 4),
           x0=st.integers(-6, 6))
    @example(c2=0, c1=4, c0=3, x0=3)
    @example(c2=0, c1=4, c0=3, x0=6)
    @settings(max_examples=40, deadline=None)
    def test_polynomials_of_low_degree_exact(self, c2, c1, c0, x0):
        # dyadic coefficients and points keep the evaluation exact, so the
        # stencil error is pure truncation: zero for degree <= order + 1
        point = (x0 / 2.0,)
        poly = lambda x: c2 * x[0] ** 2 + c1 * x[0] + c0
        d1 = derive(poly, point, (0,))
        assert d1 == pytest.approx(2 * c2 * point[0] + c1, abs=1e-8, rel=1e-8)
        cubic = lambda x: c2 * x[0] ** 3 + c1 * x[0] + c0
        d2 = derive(cubic, point, (0, 0))
        assert d2 == pytest.approx(6 * c2 * point[0], abs=1e-8, rel=1e-8)


def _scalar_fn(x):
    return math.sin(x[0]) * math.exp(0.3 * x[1]) + x[2] ** 3 / 7.0


def _array_fn(x):
    return np.array([[x[0] * x[1], math.cos(x[2])], [x[1] ** 2, x[0] * x[2]]])


def _nodewise(fn):
    """A function of one point as a map of stencil nodes (M, dim), one call
    per node."""
    return lambda X: np.array([np.asarray(fn(x), dtype=float) for x in X])


def gradient(fn, point, scheme=None, domain=None):
    """``D[a] = d_a fn`` of a one-point ``fn``, from one stencil of every
    first partial."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return np.array(stencil(_nodewise(fn), point, partials(point.size, 1, scheme), domain))


def hessian(fn, point, scheme=None, domain=None):
    """``D[a, b] = d_a d_b fn`` of a one-point ``fn``, from one stencil of
    the pairs a <= b, mirrored by ``symmetric``."""
    point = np.atleast_1d(np.asarray(point, dtype=float))
    return symmetric(stencil(_nodewise(fn), point, partials(point.size, 2, scheme), domain),
                     point.size)


class TestGradientHessian:
    """One stencil of every first (second) partial equals one derive call
    per index, bit for bit."""

    POINT = (0.3, -0.7, 1.1)

    @pytest.mark.parametrize("fn", [_scalar_fn, _array_fn])
    @pytest.mark.parametrize("levels", [None, 0, 1, 2])
    def test_gradient_equals_derive_per_coordinate(self, fn, levels):
        scheme = None if levels is None else DiffScheme(
            order=1, base_step=2.0**-10, richardson_levels=levels)
        got = gradient(fn, self.POINT, scheme)
        want = np.stack([np.asarray(derive(fn, self.POINT, (a,), scheme))
                         for a in range(3)])
        assert got.shape == (3,) + np.shape(fn(np.array(self.POINT)))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fn", [_scalar_fn, _array_fn])
    @pytest.mark.parametrize("levels", [None, 0, 1, 2])
    def test_hessian_equals_derive_per_pair(self, fn, levels):
        scheme = None if levels is None else DiffScheme(
            order=2, base_step=2.0**-8, richardson_levels=levels)
        got = hessian(fn, self.POINT, scheme)
        assert got.shape == (3, 3) + np.shape(fn(np.array(self.POINT)))
        for a in range(3):
            for b in range(3):
                want = derive(fn, self.POINT, (min(a, b), max(a, b)), scheme)
                assert np.array_equal(got[a, b], want)

    @pytest.mark.parametrize("fn", [_scalar_fn, _array_fn])
    @pytest.mark.parametrize("levels", [0, 1])
    def test_hessian_evaluates_each_distinct_node_once(self, fn, levels):
        """The centre node that every diagonal entry shares at every
        Richardson level is evaluated once, like every other node: on 3
        coordinates, 3 pairs of 4 nodes and 3 diagonals of 2 nodes off the
        centre per level, plus the centre."""
        scheme = DiffScheme(order=2, base_step=2.0**-8, richardson_levels=levels)
        nodes, batches = [], []

        def counted(x):
            nodes.append(np.asarray(x).tobytes())
            return fn(x)

        def batched(X):
            batches.append(len(X))
            return np.array([fn(x) for x in X])

        want = hessian(counted, self.POINT, scheme)
        distinct = (3 * 4 + 3 * 2) * (levels + 1) + 1
        assert len(nodes) == len(set(nodes)) == distinct
        got = symmetric(stencil(batched, self.POINT, partials(3, 2, scheme)), 3)
        assert batches == [distinct]
        assert np.array_equal(got, want)

    def test_one_coordinate(self):
        assert np.array_equal(gradient(lambda x: x[0] ** 2, 1.5),
                              [derive(lambda x: x[0] ** 2, 1.5, (0,))])
        assert hessian(lambda x: x[0] ** 3, 0.5).shape == (1, 1)

    @pytest.mark.parametrize("stack", [gradient, hessian])
    def test_errors_propagate(self, stack):
        box = Box((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(StencilOutOfDomain):
            stack(lambda x: x[0] * x[1], (0.5, 1.0 - 1e-9), domain=box)
        # only the stencils along the second coordinate meet the NaN
        with pytest.raises(NonFinite):
            stack(lambda x: x[0] if x[1] == 0.5 else np.nan, (0.5, 0.5))


def _node_in(message: str) -> np.ndarray:
    """The stencil node an error message names."""
    return np.array(ast.literal_eval(message[message.index("["):message.index("]") + 1]))


class TestAgainstReference:
    """derive, the stencils of every first or second partial and the batched
    stencil equal the per-node reference loop bit for bit, and name the same
    node when they fail."""

    BOX = Box((-10.0,) * 3, (10.0,) * 3)

    @given(_polynomial_cases())
    @example((_polynomial([(1.5, (3, 1))]), np.array([-0.0, 0.5]), (0, 0), 2))
    @settings(max_examples=150, deadline=None)
    def test_polynomials(self, case):
        poly, point, index, levels = case
        dim = point.size
        box = Box(self.BOX.lo[:dim], self.BOX.hi[:dim])
        scheme = DiffScheme(order=len(index), richardson_levels=levels)
        want = reference_derive(poly, point, index, scheme, box)
        assert np.array_equal(derive(poly, point, index, scheme, box), want)
        for order, stack in ((1, gradient), (2, hessian)):
            s = DiffScheme(order=order, richardson_levels=levels)
            got = stack(poly, point, s, box)
            for entry in product(range(dim), repeat=order):
                ref = reference_derive(poly, point, sorted(entry), s, box)
                assert np.array_equal(got[entry], ref)
        # the batched core, with every entry in one batch and the value
        entries = partials(dim, 1, None) + [(index, scheme), ((), None)] \
            + partials(dim, 2, DiffScheme(order=2, richardson_levels=levels))
        got = stencil(poly, point, entries, box)
        assert len(got) == len(entries)
        for value, (idx, s) in zip(got, entries):
            ref = reference_derive(poly, point, idx, s, box) if idx else poly(point)
            assert np.array_equal(value, ref)

    @pytest.mark.parametrize("stack", [gradient, hessian])
    def test_out_of_domain_names_a_node_outside(self, stack):
        box = Box((0.0, 0.0), (1.0, 1.0))
        point = (0.5, 1.0 - 1e-6)
        fn = lambda x: x[0] * x[1]
        with pytest.raises(StencilOutOfDomain) as got:
            stack(fn, point, domain=box)
        order = 2 if stack is hessian else 1
        with pytest.raises(StencilOutOfDomain) as want:
            for idx, _ in partials(2, order):
                reference_derive(fn, point, idx, domain=box)
        node = _node_in(str(got.value))
        assert not box.contains(node)
        assert str(got.value) == str(want.value)

    def test_non_finite_names_the_node(self):
        point = np.array([0.25, -0.5])
        fn = lambda x: np.nan if x[1] > point[1] else x[0] * x[1]
        with pytest.raises(NonFinite) as got:
            hessian(fn, point)
        node = _node_in(str(got.value))
        assert node[1] > point[1] and not np.isfinite(fn(node))
        with pytest.raises(NonFinite) as want:
            reference_derive(fn, point, (0, 1))
        assert str(got.value) == str(want.value)
        batched = lambda X: np.where(X[:, 1] > point[1], np.nan, X[:, 0])
        with pytest.raises(NonFinite) as core:
            stencil(batched, point, [((1,), None)])
        assert _node_in(str(core.value))[1] > point[1]

    def test_batch_axis_is_required(self):
        """A batched fn that drops the node axis is refused, not combined."""
        with pytest.raises(ValueError, match="must map nodes"):
            stencil(lambda X: X[0], (0.5, 0.5), partials(2, 1))


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@st.composite
def _point_batches(draw):
    """P points (some repeated, so points share nodes) of dim 1 to 3 and
    entries of orders 0 to 3, mixed partials and Richardson levels, with
    repeats among them (a gradient beside the Hessian shares its nodes)."""
    dim = draw(st.integers(1, 3))
    coords = st.floats(-3, 3, allow_subnormal=False)
    points = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=7))
    points += draw(st.lists(st.sampled_from(points), max_size=2))
    entries = draw(st.lists(st.tuples(
        st.lists(st.integers(0, dim - 1), min_size=0, max_size=3).map(tuple),
        st.integers(0, 2)), min_size=1, max_size=5))
    entries = [(idx, DiffScheme(order=len(idx), richardson_levels=levels) if idx else None)
               for idx, levels in entries]
    entries += draw(st.sampled_from([[], partials(dim, 1), partials(dim, 2)]))
    return np.array(points), entries


def _field(X):
    """A row-wise batched fn with a (2,) value per node."""
    return np.stack([X[:, 0] ** 3 * X[:, -1] + np.sin(X).sum(axis=1), np.exp(0.3 * X[:, 0])],
                    axis=1)


class TestPointsFirstStencil:
    """A stencil over points (P, dim) is one batch whose every point keeps
    the bits, and the errors, of its own one-point call."""

    @given(_point_batches())
    @settings(max_examples=120, deadline=None)
    def test_equals_the_per_point_stencil(self, case):
        points, entries = case
        calls = []
        got = stencil(lambda X: calls.append(len(X)) or _field(X), points, entries)
        assert len(calls) == 1 and len(got) == len(entries)
        for p, point in enumerate(points):
            want = stencil(_field, point, entries)
            for value, ref in zip(got, want):
                assert value.shape == (len(points),) + ref.shape
                assert _bits(value[p]) == _bits(ref)

    @given(_point_batches(), st.floats(-2.5, 2.5))
    @settings(max_examples=80, deadline=None)
    def test_errors_name_the_node_of_the_per_point_loop(self, case, edge):
        points, entries = case
        box = Box((edge,) + (-10.0,) * (points.shape[1] - 1), (10.0,) * points.shape[1])
        nan_beyond = lambda X: np.where(X[:, :1] > edge, np.nan, _field(X))
        for fn, domain, error in ((_field, box, StencilOutOfDomain),
                                  (nan_beyond, None, NonFinite)):
            want = None
            for point in points:
                try:
                    stencil(fn, point, entries, domain)
                except error as exc:
                    want = str(exc)
                    break
            if want is None:
                stencil(fn, points, entries, domain)
            else:
                with pytest.raises(error) as got:
                    stencil(fn, points, entries, domain)
                assert str(got.value) == want


class TestExpect:
    def test_bernoulli_mean(self):
        space = SampleSpace.finite([[0.0], [1.0]])
        val = expect(space, lambda x: np.full(len(x), 0.5), lambda x: x[..., 0])
        assert val == 0.5

    def test_gauss_hermite_second_moment(self):
        space = SampleSpace.real_line(ExpectationRule.gauss_hermite(32))
        pdf = lambda x: np.exp(-0.5 * x[..., 0] ** 2) / math.sqrt(2 * math.pi)
        val = expect(space, pdf, lambda x: x[..., 0] ** 2)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalization(self):
        space = SampleSpace.real_line(ExpectationRule.gauss_hermite(64, scale=1.5))
        pdf = lambda x: np.exp(-0.5 * ((x[..., 0] - 0.3) / 1.1) ** 2) \
            / (math.sqrt(2 * math.pi) * 1.1)
        val = expect(space, pdf, lambda x: np.ones(len(x)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_adaptive_quadrature(self):
        space = SampleSpace.real_line(ExpectationRule.adaptive(1e-11))
        pdf = lambda x: np.exp(-0.5 * x[..., 0] ** 2) / math.sqrt(2 * math.pi)
        val = expect(space, pdf, lambda x: x[..., 0] ** 4)
        assert val == pytest.approx(3.0, abs=1e-8)

    def test_adaptive_quadrature_in_a_fresh_interpreter(self, run_fresh):
        """numerics leaves scipy.integrate to the adaptive rule, which
        imports it on its first call."""
        code = (
            "import math, sys\n"
            "import numpy as np\n"
            "from igeo.models import SampleSpace\n"
            "from igeo.numerics import ExpectationRule, expect\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "space = SampleSpace.real_line(ExpectationRule.adaptive(1e-11))\n"
            "pdf = lambda x: np.exp(-0.5 * x[..., 0] ** 2) / math.sqrt(2 * math.pi)\n"
            "print(repr(expect(space, pdf, lambda x: x[..., 0] ** 4)))\n"
            "assert 'scipy.integrate' in sys.modules\n")
        out = run_fresh(code)
        assert float(out) == pytest.approx(3.0, abs=1e-8)

    def test_monte_carlo_reproducible(self):
        rule = ExpectationRule.monte_carlo(20000, seed=7)
        space = SampleSpace.real_line(rule)
        pdf = lambda x: np.exp(-0.5 * x[..., 0] ** 2) / math.sqrt(2 * math.pi)
        a = expect(space, pdf, lambda x: x[..., 0] ** 2)
        b = expect(space, pdf, lambda x: x[..., 0] ** 2)
        assert a == b
        assert a == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("xdim", [1, 2])
    def test_monte_carlo_matches_the_importance_sampling_mean(self, xdim):
        """The node sum equals mean(contrib * exp(-log q)) over the rule's
        draws, q the sampling density, written out here."""
        rule = ExpectationRule.monte_carlo(3000, seed=11, loc=0.3, scale=1.7)
        space = SampleSpace.real(xdim, rule)
        pdf = lambda x: np.exp(-0.5 * np.sum((x - 0.1) ** 2, axis=-1)) \
            / (2 * math.pi) ** (xdim / 2)
        integrand = lambda x: x[..., 0] ** 2 + 1.0
        pts = np.random.default_rng(11).normal(0.3, 1.7, size=(3000, xdim))
        log_q = -0.5 * np.sum(((pts - 0.3) / 1.7) ** 2, axis=-1) \
            - xdim * math.log(math.sqrt(2 * math.pi) * 1.7)
        want = float(np.mean(pdf(pts) * integrand(pts) * np.exp(-log_q)))
        assert expect(space, pdf, integrand) == pytest.approx(want, rel=1e-15, abs=0)

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(ValueError):
            ExpectationRule(kind="monte-carlo", nodes=100)

    def test_negative_weight_rejected(self):
        space = SampleSpace.finite([[0.0], [1.0]])
        with pytest.raises(ValueError):
            expect(space, lambda x: x[..., 0] - 0.5, lambda x: np.ones(len(x)))

    def test_non_finite_integrand(self):
        space = SampleSpace.finite([[0.0], [1.0]])
        with pytest.raises(NonFinite):
            expect(space, lambda x: np.ones(len(x)),
                   lambda x: np.where(x[..., 0] > 0.5, np.inf, 1.0))

    def test_adaptive_divergent(self):
        space = SampleSpace.real_line(ExpectationRule.adaptive(1e-12))
        # weight 1 with a non-integrable integrand: quad reports trouble
        with pytest.raises((Divergent, NonFinite)):
            expect(space, lambda x: np.ones(len(x)),
                   lambda x: np.abs(x[..., 0]))

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_exact_sum_permutation_stable(self, order):
        pts = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]])
        weights = np.array([0.05, 0.1, 0.15, 0.2, 0.25, 0.25])
        base_space = SampleSpace.finite(pts)
        perm_space = SampleSpace.finite(pts[order])
        w_map = {float(p): w for p, w in zip(pts[:, 0], weights)}
        weight = lambda x: np.array([w_map[float(v)] for v in x[..., 0]])
        integrand = lambda x: np.sin(x[..., 0])
        a = expect(base_space, weight, integrand)
        b = expect(perm_space, weight, integrand)
        assert a == b  # compensated summation: bit-for-bit

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            ExpectationRule(kind="strange")
        with pytest.raises(ValueError):
            ExpectationRule(kind="gauss-hermite", nodes=0)
        with pytest.raises(ValueError):
            ExpectationRule(kind="adaptive-quadrature", tol=0.0)


class TestIntegrate:
    @pytest.mark.parametrize("space", [
        SampleSpace.finite([[0.0], [1.0], [2.0]]),
        SampleSpace.real(2, ExpectationRule.gauss_hermite(6)),
        SampleSpace.real_line(ExpectationRule.monte_carlo(100, seed=2))])
    def test_node_rules_call_fn_once_on_their_nodes(self, space):
        calls = []
        value = integrate(space, lambda pts, w: calls.append((pts, w)) or np.zeros(3))
        assert np.array_equal(value, np.zeros(3))
        [(pts, w)] = calls
        nodes = numerics.node_quadrature(space)
        assert pts is nodes[0] and w is nodes[1]

    def test_adaptive_nests_over_two_coordinates(self):
        """E[x0^2 x1^2] = 1 under N(0, I), the integrand seen one point at a
        time and without weights.  A loose tolerance keeps the nested
        evaluations near their floor (about 180 per level)."""
        space = SampleSpace.real(2, ExpectationRule.adaptive(1e-4))
        shapes = set()

        def fn(pts, w):
            shapes.add((pts.shape, w))
            pdf = np.exp(-0.5 * np.sum(pts ** 2, axis=-1)) / (2 * math.pi)
            return np.sum(pdf * pts[:, 0] ** 2 * pts[:, 1] ** 2)

        assert float(integrate(space, fn)) == pytest.approx(1.0, abs=1e-6)
        assert shapes == {((1, 2), None)}

    def test_adaptive_is_componentwise(self):
        space = SampleSpace.real_line(ExpectationRule.adaptive())
        pdf = lambda x: np.exp(-0.5 * x[:, 0] ** 2) / math.sqrt(2 * math.pi)
        moments = integrate(space, lambda x, w: (pdf(x) * x[:, 0] ** np.arange(5)[:, None])
                            .sum(axis=-1))
        assert moments == pytest.approx([1.0, 0.0, 1.0, 0.0, 3.0], abs=1e-8)

    def test_unreachable_tolerance_fails_within_the_budget(self):
        """200 subintervals of 15 nodes per split, not quad_vec's 10,000."""
        space = SampleSpace.real_line(ExpectationRule.adaptive(1e-12))
        calls = []
        with pytest.raises(Divergent):
            integrate(space, lambda x, w: calls.append(1) or np.abs(x[:, 0]).sum())
        assert len(calls) <= 200 * 2 * 15

    def test_non_finite_value(self):
        space = SampleSpace.real_line(ExpectationRule.adaptive())
        with pytest.raises(NonFinite):
            integrate(space, lambda x, w: np.where(x[:, 0] > 0.5, np.inf, 1.0).sum())

    def test_default_tolerance_lives_on_the_rule(self):
        assert ExpectationRule.adaptive().tol == ExpectationRule.tol == 1e-8
        space = models.space_from_doc(
            {"kind": "real-line", "quadrature": {"kind": "adaptive-quadrature"}})
        assert space.rule == ExpectationRule.adaptive()


class TestBatches:
    ROWS = np.array([[0.1, -0.2], [0.3, 0.4], [0.1, -0.2]])

    @pytest.mark.parametrize("space", [
        SampleSpace.finite([[0.0], [1.0]]),
        SampleSpace.real_line(ExpectationRule.gauss_hermite(8)),
        SampleSpace.real_line(ExpectationRule.monte_carlo(10, seed=1))])
    def test_node_rules_take_all_rows_in_one_batch(self, space):
        [batch] = batches(space, self.ROWS)
        assert batch.tobytes() == self.ROWS.tobytes() and batch.shape == (3, 2)

    def test_adaptive_quadrature_takes_one_row_per_batch(self):
        space = SampleSpace.real_line(ExpectationRule.adaptive())
        got = list(batches(space, self.ROWS))
        assert [b.shape for b in got] == [(1, 2)] * 3
        assert np.concatenate(got).tobytes() == self.ROWS.tobytes()


class TestQuadratureNodes:
    @pytest.mark.parametrize("xdim", [1, 2])
    def test_cached_arrays_are_read_only(self, xdim):
        pts, weights = numerics.quadrature_nodes(8, 0.0, 1.0, xdim)
        x1, w1 = numerics.gauss_hermite_1d(8, 0.0, 1.0)
        for arr in (pts, weights, x1, w1):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestNodeQuadrature:
    @pytest.mark.parametrize("xdim", [1, 2])
    def test_monte_carlo_nodes_are_the_seeded_draws(self, xdim):
        rule = ExpectationRule.monte_carlo(500, seed=3, loc=-0.2, scale=1.5)
        pts, weights = numerics.node_quadrature(SampleSpace.real(xdim, rule))
        assert np.array_equal(
            pts, np.random.default_rng(3).normal(-0.2, 1.5, (500, xdim)))
        assert weights.shape == (500,)
        for arr in (pts, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_every_rule_but_adaptive_has_nodes(self):
        finite = SampleSpace.finite([[0.0], [1.0]])
        pts, weights = numerics.node_quadrature(finite)
        assert pts is finite.points and weights is None
        gh = SampleSpace.real(2, ExpectationRule.gauss_hermite(8))
        assert numerics.node_quadrature(gh) is numerics.quadrature_nodes(8, 0.0, 1.0, 2)
        adaptive = SampleSpace.real_line(ExpectationRule.adaptive())
        assert numerics.node_quadrature(adaptive) is None

    def test_own_nodes_is_an_identity_test(self):
        finite = SampleSpace.finite([[0.0], [1.0]])
        pts, weights = numerics.own_nodes(finite, finite.points)
        assert pts is finite.points and weights is None
        for space in [SampleSpace.real(2, ExpectationRule.gauss_hermite(8)),
                      SampleSpace.real_line(ExpectationRule.monte_carlo(50, seed=1))]:
            nodes = numerics.node_quadrature(space)
            assert numerics.own_nodes(space, nodes[0]) is nodes
            assert numerics.own_nodes(space, nodes[0].copy()) is None
        adaptive = SampleSpace.real_line(ExpectationRule.adaptive())
        assert numerics.own_nodes(adaptive, np.zeros((1, 1))) is None

    @pytest.mark.parametrize("xdim", [1, 2])
    def test_the_gauss_hermite_axis_spans_the_nodes(self, xdim):
        rule = ExpectationRule.gauss_hermite(9, loc=0.5, scale=2.0)
        axis, _ = numerics.gauss_hermite_1d(rule.nodes, rule.loc, rule.scale)
        pts, _ = numerics.node_quadrature(SampleSpace.real(xdim, rule))
        assert numerics.tensor_grid([axis] * xdim).tobytes() == pts.tobytes()


class TestSolveFrame:
    def test_identity(self):
        c = solve_frame([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        np.array([3.0, 4.0]))
        assert np.allclose(c, [3.0, 4.0])

    def test_two_by_two(self):
        c = solve_frame([np.array([1.0, 0.0]), np.array([1.0, 1.0])],
                        np.array([0.0, 1.0]))
        assert np.allclose(c, [-1.0, 1.0], atol=1e-12)

    def test_sphere_frame_at_pole(self):
        # unit-sphere graph chart at u = 0: d1d1 f = (0,0,-1) = 1 * xi
        d1f = np.array([1.0, 0.0, 0.0])
        d2f = np.array([0.0, 1.0, 0.0])
        xi = np.array([0.0, 0.0, -1.0])
        rhs = np.array([0.0, 0.0, -1.0])
        c = solve_frame([d1f, d2f, xi], rhs)
        assert np.allclose(c[:2], 0.0, atol=1e-12)
        assert c[2] == pytest.approx(1.0, abs=1e-12)

    def test_singular_frame(self):
        with pytest.raises(SingularFrame):
            solve_frame([np.array([1.0, 0.0]), np.array([2.0, 0.0])],
                        np.array([1.0, 1.0]))

    def test_condition_cap(self):
        cols = [np.array([1.0, 0.0]), np.array([1.0, 1e-10])]
        with pytest.raises(SingularFrame):
            solve_frame(cols, np.array([1.0, 1.0]), condition_cap=1e8)

    def test_singular_frame_many_columns(self):
        with pytest.raises(SingularFrame):
            solve_frame([np.array([1.0, 0.0]), np.array([2.0, 0.0])], np.ones((2, 3)))

    @given(st.lists(st.floats(-3, 3), min_size=9, max_size=9),
           st.lists(st.floats(-2, 2), min_size=15, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_columns_equal_single_solves(self, flat, rhs):
        # k right-hand sides at once give the bits of k single solves
        A = np.eye(3) + 0.25 * np.array(flat).reshape(3, 3)
        if np.linalg.cond(A) > 1e6:
            return
        R = np.array(rhs).reshape(3, 5)
        X = solve_frame(A, R)
        assert X.shape == R.shape
        for j in range(5):
            assert np.array_equal(X[:, j], solve_frame(A, R[:, j]))
            assert np.array_equal(X[:, j], np.linalg.solve(A, R[:, j]))

    @given(st.lists(st.floats(-3, 3), min_size=36, max_size=36),
           st.lists(st.floats(-2, 2), min_size=24, max_size=24))
    @settings(max_examples=30, deadline=None)
    def test_stacked_frames_equal_single_solves(self, flat, rhs):
        # four frames at once give the bits of each frame's own solve
        A = np.eye(3) + 0.25 * np.array(flat).reshape(4, 3, 3)
        if np.linalg.cond(A).max() > 1e6:
            return
        R = np.array(rhs).reshape(4, 3, 2)
        X = solve_frame(A, R)
        assert X.shape == R.shape
        for p in range(4):
            assert np.array_equal(X[p], solve_frame(A[p], R[p]))
            assert np.array_equal(X[p, :, 0], solve_frame(A[p], R[p, :, 0]))
        assert np.array_equal(solve_frame(A, R[..., 0]), X[..., 0])

    def test_stacked_singular_frame_names_the_first(self):
        good = np.eye(2)
        bad = [np.array([[1.0, 1.0], [0.0, t]]) for t in (1e-13, 1e-14)]
        with pytest.raises(SingularFrame) as first:
            solve_frame(bad[0], np.ones(2))
        with pytest.raises(SingularFrame) as stacked:
            solve_frame(np.array([good, bad[0], good, bad[1]]), np.ones((4, 2)))
        assert str(stacked.value) == str(first.value)

    @given(st.lists(st.floats(-3, 3), min_size=9, max_size=9),
           st.lists(st.floats(-2, 2), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, flat, coeffs):
        A = np.eye(3) + 0.25 * np.array(flat).reshape(3, 3)
        if np.linalg.cond(A) > 1e6:
            return
        c = np.array(coeffs)
        rec = solve_frame(A, A @ c)
        assert np.allclose(rec, c, atol=1e-10)
