import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igeo import numerics
from igeo.errors import Divergent, NonFinite, SingularFrame, StencilOutOfDomain
from igeo.models import Box, SampleSpace, normal_natural_potential
from igeo.numerics import (DiffScheme, ExpectationRule, derive, expect,
                           gradient, hessian, solve_frame)


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


class TestGradientHessian:
    """The stacked primitives equal one derive call per index, bit for bit."""

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
    def test_hessian_reuses_a_given_centre(self, fn, levels):
        """fn(point), when the caller passes it, serves the centre node of
        every diagonal entry at every Richardson level, bit for bit."""
        scheme = DiffScheme(order=2, base_step=2.0**-8, richardson_levels=levels)
        calls = []

        def counted(x):
            calls.append(1)
            return fn(x)

        want = hessian(counted, self.POINT, scheme)
        evaluated = len(calls)
        calls.clear()
        centre = fn(np.array(self.POINT))
        assert np.array_equal(hessian(counted, self.POINT, scheme, centre=centre), want)
        assert len(calls) == evaluated - 3 * (levels + 1)
        with pytest.raises(NonFinite):
            hessian(fn, self.POINT, scheme, centre=np.nan * np.asarray(centre))

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


class TestQuadratureNodes:
    @pytest.mark.parametrize("xdim", [1, 2])
    def test_cached_arrays_are_read_only(self, xdim):
        pts, weights = numerics.quadrature_nodes(8, 0.0, 1.0, xdim)
        x1, w1 = numerics._gh_nodes_1d(8, 0.0, 1.0)
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
