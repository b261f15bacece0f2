import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from igeo import dualflat, immersion, infogeo, models, numerics
from igeo.dualflat import (FAMILIES, GeodesicPath, PotentialFamily,
                           _potentials, centro_affine_lift, dual_coords, dual_potential,
                           family_model, geodesic, graph_realization,
                           hessian_metric, legendre_inverse, load_family,
                           potential)
from igeo.errors import LeftDomain, OutOfDomain, OutOfDualDomain, SchemaError

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


class TestPotential:
    def test_standard_normal_normalizer(self, normal_natural_family):
        K = potential(normal_natural_family, (-0.5, 0.0))
        assert K == pytest.approx(HALF_LOG_2PI, abs=1e-8)

    def test_quadrature_matches_closed_forms(self, nn_grid):
        for name, factory in FAMILIES.items():
            fam = factory()
            grid = nn_grid if fam.dim == 2 and name == "normal-natural" else \
                [fam.domain.center(),
                 0.5 * (fam.domain.center() + np.asarray(fam.domain.lo))]
            for theta in grid:
                K = potential(fam, theta)
                want = fam.closed_form_potential(np.atleast_1d(theta))
                assert K == pytest.approx(want, abs=1e-8), (name, theta)

    def test_out_of_domain(self, normal_natural_family):
        with pytest.raises(OutOfDomain):
            potential(normal_natural_family, (0.5, 0.0))

    def test_log_sum_exp_matches_scipy(self):
        """potential's log-sum-exp against scipy's, on every builtin family
        at its reference grid, and on a base measure with -inf entries."""
        families = [(factory(), models.reference_grid(name))
                    for name, factory in FAMILIES.items()]
        bern = FAMILIES["bernoulli-natural"]()
        # log base measure -inf at x = 0 leaves K(theta) = theta
        families.append((dataclasses.replace(
            bern, base=lambda x: np.where(x[..., 0] == 0.0, -np.inf, 0.0)),
            models.reference_grid("bernoulli-natural")))
        for fam, grid in families:
            xs, w = numerics.node_quadrature(fam.space)
            for theta in grid:
                expo = fam.exponent(xs, theta)
                want = logsumexp(expo if w is None else expo + np.log(w))
                assert potential(fam, theta) == pytest.approx(want, rel=1e-15, abs=0)
        assert potential(families[-1][0], [0.5]) == 0.5

    def test_memoized_per_family(self, monkeypatch):
        fam = FAMILIES["normal-natural"]()
        theta = (-0.5, 0.1)
        H = hessian_metric(fam, theta)
        evaluations = []
        real = PotentialFamily.exponent

        def exponent(self, x, th):
            evaluations.append(1)
            return real(self, x, th)

        monkeypatch.setattr(PotentialFamily, "exponent", exponent)
        assert np.array_equal(hessian_metric(fam, theta), H)
        assert evaluations == []
        stored = len(fam.memo)
        for _ in range(2):
            with pytest.raises(OutOfDomain):
                potential(fam, (0.5, 0.0))
        assert len(fam.memo) == stored
        # a copy with another base measure starts with an empty memo
        doubled = dataclasses.replace(
            fam, base=lambda x: np.full(len(x), math.log(2.0)))
        assert len(doubled.memo) == 0
        assert potential(doubled, theta) == pytest.approx(
            potential(fam, theta) + math.log(2.0), abs=1e-12)
        assert evaluations == [1]


class TestAdaptivePotential:
    def test_matches_the_closed_form(self, adaptive_runs, nn_grid, monkeypatch):
        """K of the adaptive spec's family within 1e-12 of the closed form;
        the rows a batch misses share one vector integral."""
        fam = load_family(adaptive_runs[1]["subject"]["family"])
        calls = []
        real = dualflat.integrate

        def counted(space, fn):
            calls.append(1)
            return real(space, fn)

        monkeypatch.setattr(dualflat, "integrate", counted)
        K = _potentials(fam, np.array(nn_grid))
        assert len(calls) == 1
        for theta, value in zip(nn_grid, K):
            assert abs(value - models.normal_natural_potential(theta)) < 1e-12, theta
            assert potential(fam, theta) == value
        assert len(calls) == 1


class TestLegendre:
    def test_dual_coords_standard_normal(self, normal_natural_family):
        eta = dual_coords(normal_natural_family, (-0.5, 0.0))
        # eta = (E[x^2], E[x]) = (1, 0) for the standard normal
        assert np.abs(eta - np.array([1.0, 0.0])).max() < 1e-6

    def test_dual_potential_negative_entropy(self, normal_natural_family):
        phi = dual_potential(normal_natural_family, (1.0, 0.0))
        assert phi == pytest.approx(-0.5 - HALF_LOG_2PI, abs=1e-5)

    def test_roundtrip(self, normal_natural_family, nn_grid):
        for theta in nn_grid:
            eta = dual_coords(normal_natural_family, theta)
            back = legendre_inverse(normal_natural_family, eta, theta0=theta)
            assert np.abs(back - theta).max() < 1e-8

    def test_roundtrip_from_cold_start(self, bernoulli_family):
        for theta in ((-2.0,), (0.5,), (2.0,)):
            eta = dual_coords(bernoulli_family, theta)
            back = legendre_inverse(bernoulli_family, eta)
            assert np.abs(back - np.asarray(theta)).max() < 1e-8

    def test_eta_outside_image(self, bernoulli_family):
        # bernoulli dual coordinate is the mean, constrained to (0, 1)
        with pytest.raises(OutOfDualDomain):
            legendre_inverse(bernoulli_family, (1.5,))


class TestHessianMetric:
    def test_normal_natural_entry(self, normal_natural_family):
        H = hessian_metric(normal_natural_family, (-0.5, 0.0))
        assert H[1, 1] == pytest.approx(1.0, abs=1e-7)  # -1/(2 t1)

    def test_bernoulli_entry(self, bernoulli_family):
        H = hessian_metric(bernoulli_family, (0.0,))
        assert H[0, 0] == pytest.approx(0.25, abs=1e-8)  # p(1-p)

    def test_matches_fisher_on_grid(self, normal_natural_family):
        model = family_model(normal_natural_family)
        grid = [(-0.6, -0.2), (-0.5, 0.0), (-0.4, 0.2), (-0.3, 0.3),
                (-0.55, 0.35)]
        for theta in grid:
            H = hessian_metric(normal_natural_family, theta)
            g = infogeo.fisher_metric(model, theta)
            assert np.abs(H - g).max() < 1e-4, theta


class TestPotentialRows:
    """dual_coords and hessian_metric on rows (P, n) equal one call per point,
    bit for bit: one stencil over the whole grid under a node rule, one per
    point under adaptive quadrature, where one point's nodes form one
    vector integral."""

    @staticmethod
    def assert_rows_equal_points(fresh, TH, stencils_per_call, monkeypatch):
        calls = []
        real = dualflat.stencil
        monkeypatch.setattr(dualflat, "stencil",
                            lambda *args: calls.append(1) or real(*args))
        for fn in (dual_coords, hessian_metric):
            del calls[:]
            got = fn(fresh(), TH)
            assert len(calls) == stencils_per_call
            single = fresh()
            want = np.array([fn(single, th) for th in TH])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert fn(fresh(), TH[0]).tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("name", ["normal-natural", "bernoulli-natural"])
    def test_node_rules(self, name, monkeypatch):
        fam = FAMILIES[name]()
        lo, hi = np.asarray(fam.domain.lo), np.asarray(fam.domain.hi)
        TH = np.array(models.grid(lo + (hi - lo) / 4, hi - (hi - lo) / 4, [3] * fam.dim))
        self.assert_rows_equal_points(FAMILIES[name], TH, 1, monkeypatch)

    def test_adaptive_quadrature(self, adaptive_runs, nn_grid, monkeypatch):
        TH = np.array(nn_grid[::4])
        fresh = lambda: load_family(adaptive_runs[1]["subject"]["family"])
        self.assert_rows_equal_points(fresh, TH, len(TH), monkeypatch)


class TestGeodesic:
    def test_e_geodesic_is_straight(self, normal_natural_family):
        conn = infogeo.ConnectionField.zero(2)
        th0, v0 = np.array([-0.5, 0.0]), np.array([0.1, 0.2])
        path = geodesic(conn, th0, v0, 1.0, 100,
                        domain=normal_natural_family.domain)
        want = th0 + np.outer(path.t, v0)
        assert np.abs(path.theta - want).max() < 1e-8

    def test_one_log_density_call_per_stage(self):
        """Every RK4 stage of an e-geodesic takes the connection from one
        jet: one call of the family model's log-density, on the 13 theta
        rows of a 2-d stencil batch."""
        family = FAMILIES["normal-natural"]()
        base = family_model(family)
        batches = []

        def log_density(x, th):
            batches.append(np.shape(th))
            return base.log_density(x, th)

        model = dataclasses.replace(base, log_density=log_density)
        path = geodesic(infogeo.alpha_field(model, 1.0), (-0.5, 0.0), (0.05, 0.2),
                        0.5, 10, domain=family.domain)
        assert len(path.t) == 11
        assert batches == [(13, 2)] * (4 * 10)

    def test_one_exponent_call_per_missed_batch(self, monkeypatch):
        """Every stencil batch of a geodesic evaluates the exponent once and
        takes K from its own rows, bit for bit the K of a fresh family; the
        family memo is neither read nor grown."""
        family = FAMILIES["normal-natural"]()
        calls = []
        real = PotentialFamily.exponent

        def exponent(self, x, th):
            calls.append(np.shape(th))
            return real(self, x, th)

        monkeypatch.setattr(PotentialFamily, "exponent", exponent)
        base = family_model(family)
        batches = []

        def log_density(x, th):
            out = base.log_density(x, th)
            batches.append((th, out))
            return out

        model = dataclasses.replace(base, log_density=log_density)
        stored = len(family.memo)
        geodesic(infogeo.alpha_field(model, 1.0), (-0.5, 0.0), (0.05, 0.2),
                 0.5, 10, domain=family.domain)
        assert len(family.memo) == stored
        assert calls == [(13, 2)] * len(batches) and len(batches) == 4 * 10
        fresh = FAMILIES["normal-natural"]()
        xs, _ = numerics.node_quadrature(fresh.space)
        for th, out in batches:
            want = real(fresh, xs, th) - _potentials(fresh, th)[:, None]
            assert np.array_equal(out, want)

    def test_one_domain_test_per_visited_point(self, monkeypatch):
        """Each visit of a 10-step geodesic (the start, three inner stages
        and the end of every step) tests its point against the domain
        once, whether the connection tests it (alpha field on its own
        domain) or the integrator does; each stage stores only its moments."""
        family = FAMILIES["normal-natural"]()
        tested = []
        real = models.Box.contains
        monkeypatch.setattr(models.Box, "contains", lambda self, p, *a, **k:
                            tested.append(tuple(np.ravel(p))) or real(self, p, *a, **k))
        model = family_model(family)
        path = geodesic(infogeo.alpha_field(model, 0.0), (-0.5, 0.0), (0.05, 0.2), 0.5, 10,
                        domain=family.domain)
        assert len(tested) == len(set(tested)) == 1 + 4 * 10
        assert {tuple(th) for th in path.theta} <= set(tested)
        # the 40 stages, every point but the last step end, store their moments only
        assert len(model.memo) == 4 * 10 and len(family.memo) == 0
        assert all(model.memo.peek(("moments", np.array(p).tobytes())) is not None
                   for p in tested[:-1])
        tested.clear()
        geodesic(infogeo.ConnectionField.zero(2), (-0.5, 0.0), (0.05, 0.2), 0.5, 10,
                 domain=family.domain)
        assert len(tested) == 1 + 4 * 10  # k2 and k3 meet on a straight path

    def test_left_domain_at_a_step_end(self):
        """A step end outside the domain after inner stages inside it ends
        the path there, whether the integrator tests it or, as the first
        stage of the next step, the connection does."""
        box = models.Box((-1.0,), (0.7,))

        def bump(th):  # the stages stay at or below 0.5, the step end reaches 0.79
            box.check(th, "bump")
            return np.array([[[math.exp(-((th[0] - 0.5) / 0.1) ** 2)]]])

        for steps in (1, 2):
            for own in (box, None):
                conn = infogeo.ConnectionField(dim=1, up_fn=bump, domain=own)
                with pytest.raises(LeftDomain) as err:
                    geodesic(conn, (0.0,), (1.0,), float(steps), steps, domain=box)
                assert err.value.t_exit == 1.0
                assert len(err.value.partial_path.t) == 2

    def test_left_domain_from_a_stencil_connection(self, normal_natural_family):
        """A connection whose ``up`` raises StencilOutOfDomain at points
        outside its domain (Levi-Civita of the Fisher metric) ends the path
        with LeftDomain on its own domain too, where the integrator leaves
        the test to the connection."""
        copy = models.Box(normal_natural_family.domain.lo, normal_natural_family.domain.hi)
        exits = []
        for domain in (normal_natural_family.domain, copy):
            model = family_model(normal_natural_family)
            conn = infogeo.levi_civita_field(infogeo.fisher_field(model))
            with pytest.raises(LeftDomain) as err:
                geodesic(conn, (-0.5, 0.0), (0.0, 4.7), 1.0, 20, domain=domain)
            exits.append((err.value.t_exit, len(err.value.partial_path.t)))
        assert exits == [(0.225, 5)] * 2

    def test_m_geodesic_straight_in_dual_chart(self, normal_natural_family):
        model = family_model(normal_natural_family)
        conn = infogeo.alpha_field(model, -1.0)
        path = geodesic(conn, (-0.5, 0.0), (0.05, 0.15), 1.0, 200,
                        domain=normal_natural_family.domain)
        idx = range(0, len(path.t), 20)
        etas = np.array([dual_coords(normal_natural_family, path.theta[i])
                         for i in idx])
        frac = path.t[list(idx)] / path.t[-1]
        chord = etas[0] + np.outer(frac, etas[-1] - etas[0])
        assert np.abs(etas - chord).max() < 1e-4

    def test_levi_civita_speed_conserved(self, normal_model):
        conn = infogeo.alpha_field(normal_model, 0.0)
        gf = infogeo.fisher_field(normal_model)
        path = geodesic(conn, (0.0, 1.0), (0.3, 0.2), 1.0, 400,
                        domain=normal_model.domain)
        idx = range(0, len(path.t), 40)
        speeds = [float(path.velocity[i] @ gf(path.theta[i]) @ path.velocity[i])
                  for i in idx]
        assert max(abs(s - speeds[0]) for s in speeds) < 1e-5

    def test_left_domain_carries_partial_path(self, normal_natural_family):
        conn = infogeo.ConnectionField.zero(2)
        with pytest.raises(LeftDomain) as err:
            geodesic(conn, (-0.5, 0.0), (0.0, 5.0), 1.0, 100,
                     domain=normal_natural_family.domain)
        partial = err.value.partial_path
        assert isinstance(partial, GeodesicPath)
        assert 0 < len(partial.t) < 101
        assert err.value.t_exit <= 1.0

    def test_argument_validation(self):
        conn = infogeo.ConnectionField.zero(2)
        with pytest.raises(ValueError):
            geodesic(conn, (0.0, 0.0), (1.0, 0.0), 1.0, 0)
        with pytest.raises(ValueError):
            geodesic(conn, (0.0, 0.0), (1.0, 0.0), -1.0, 10)


class TestGraphRealization:
    def test_bernoulli_values(self, bernoulli_family):
        surf = graph_realization(bernoulli_family)
        data = immersion.decompose(surf, (0.0,))
        assert data.h[0, 0] == pytest.approx(0.25, abs=1e-7)
        assert np.abs(data.gamma).max() < 1e-9
        assert np.abs(data.shape_operator).max() < 1e-12
        assert np.abs(data.alpha_form).max() < 1e-12

    def test_h_matches_potential_hessian(self, normal_natural_family, nn_grid):
        surf = graph_realization(normal_natural_family)
        for theta in nn_grid[:5]:
            data = immersion.decompose(surf, theta)
            H = hessian_metric(normal_natural_family, theta)
            assert np.abs(data.h - H).max() < 1e-5

    def test_classified_as_improper_hypersphere(self, bernoulli_family):
        # constant transversal: equiaffine, nondegenerate, S = 0
        surf = graph_realization(bernoulli_family)
        grid = [np.array([v]) for v in (-1.0, 0.0, 1.0)]
        rep = immersion.classify(surf, grid)
        assert rep.flags.equiaffine
        assert rep.flags.nondegenerate
        assert rep.flags.improper_hypersphere

    def test_statistical_structure_witness(self, normal_natural_family):
        surf = graph_realization(normal_natural_family)
        grid = [np.array([-0.5, 0.0]), np.array([-0.4, 0.2])]
        rep = immersion.statistical_structure(surf, grid)
        assert rep.is_statistical

    def test_every_catalog_family_graph_is_statistical(self):
        for name, factory in FAMILIES.items():
            fam = factory()
            surf = graph_realization(fam)
            center = fam.domain.center()
            off = center + 0.1 * (np.asarray(fam.domain.hi) - center)
            rep = immersion.statistical_structure(surf, [center, off])
            assert rep.is_statistical, name


class TestCentroAffineLift:
    def test_constant_lift_is_degenerate_plane(self, bernoulli_family):
        surf = centro_affine_lift(bernoulli_family, psi=lambda th: np.ones(th.shape[:-1]))
        data = immersion.decompose(surf, (0.0,))
        assert np.abs(data.h).max() < 1e-10
        grid = [np.array([v]) for v in (-1.0, 0.0, 1.0)]
        rep = immersion.classify(surf, grid)
        assert not rep.flags.nondegenerate

    def test_bernoulli_projective_flatness(self, bernoulli_family):
        surf = centro_affine_lift(bernoulli_family)
        for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
            data = immersion.decompose(surf, (theta,))
            res = infogeo.projective_equivalence(np.zeros((1, 1, 1)),
                                                 data.gamma, tol=1e-6)
            assert res.equivalent
            # default psi = exp K: rho = -dK = -sigmoid(theta)
            want = -1.0 / (1.0 + math.exp(-theta))
            assert res.rho[0] == pytest.approx(want, abs=1e-6)

    def test_normal_natural_projective_flatness(self, normal_natural_family):
        surf = centro_affine_lift(normal_natural_family)
        for theta in ((-0.5, 0.0), (-0.4, 0.2)):
            data = immersion.decompose(surf, theta)
            res = infogeo.projective_equivalence(np.zeros((2, 2, 2)),
                                                 data.gamma, tol=1e-6)
            assert res.equivalent
            want = -dual_coords(normal_natural_family, theta)
            assert np.abs(res.rho - want).max() < 1e-6

    def test_h_is_scaled_psi_hessian(self, bernoulli_family):
        # h_ij = (d_i d_j psi)/psi; for psi = exp K on bernoulli this is p
        surf = centro_affine_lift(bernoulli_family)
        data = immersion.decompose(surf, (0.4,))
        p = 1.0 / (1.0 + math.exp(-0.4))
        assert data.h[0, 0] == pytest.approx(p, abs=1e-7)

    def test_lift_statistical_structure(self, bernoulli_family):
        surf = centro_affine_lift(bernoulli_family)
        grid = [np.array([v]) for v in (-0.5, 0.0, 0.5)]
        rep = immersion.statistical_structure(surf, grid)
        assert rep.is_statistical
        assert rep.codazzi_residual < 1e-5

    def test_psi_must_stay_positive(self, bernoulli_family):
        surf = centro_affine_lift(bernoulli_family,
                                  psi=lambda th: th[..., 0])
        with pytest.raises(OutOfDomain):
            immersion.decompose(surf, (-1.0,))


class TestBatchedFamilyCharts:
    def test_charts_keep_per_row_potential(self, adaptive_runs, nn_grid):
        """Both realization charts on a batch equal their rows built from
        ``potential`` one point at a time, bit for bit: under adaptive
        quadrature K of a whole batch would depend on the batch."""
        TH = np.array(nn_grid[::4])
        for fresh in (dualflat.normal_natural_family,
                      lambda: load_family(adaptive_runs[1]["subject"]["family"])):
            assert np.array_equal(graph_realization(fresh()).chart(TH)[:, -1],
                                  [potential(fresh(), th) for th in TH])
            rows = [np.append(th, 1.0) / np.exp(potential(fresh(), th)) for th in TH]
            assert np.array_equal(centro_affine_lift(fresh()).chart(TH), rows)
            lift = centro_affine_lift(fresh())
            assert np.array_equal(lift.transversal(TH), -lift.chart(TH))

    def test_psi_must_stay_positive_on_batches(self, bernoulli_family):
        surf = centro_affine_lift(bernoulli_family, psi=lambda th: th[..., 0])
        with pytest.raises(OutOfDomain, match=r"got -0.5 at \[-0.5\]"):
            surf.chart(np.array([[0.5], [-0.5], [-1.0]]))


class TestFamilyModel:
    def test_matches_catalog_log_density(self, normal_natural_family,
                                         normal_natural_model):
        model = family_model(normal_natural_family)
        xs = np.array([[-1.0], [0.0], [0.7]])
        for theta in ((-0.5, 0.0), (-0.3, 0.3)):
            got = model.log_density(xs, np.asarray(theta))
            want = normal_natural_model.log_density(xs, np.asarray(theta))
            assert np.abs(got - want).max() < 1e-8


def _theta_rows(box, size=13):
    """Up to ``size`` parameter rows strictly inside ``box``, shape (M, dim)."""
    point = st.tuples(*(st.floats(lo, hi, exclude_min=True, exclude_max=True)
                        for lo, hi in zip(box.lo, box.hi)))
    return st.lists(point, min_size=1, max_size=size).map(np.array)


class TestNodeRows:
    """On the nodes of its rule the family log-density takes K from its own
    exponent rows, without the family memo."""

    @pytest.mark.parametrize("name", ["normal-natural", "bernoulli-natural"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_match_the_potentials_path(self, name, data):
        family = FAMILIES[name]()
        TH = data.draw(_theta_rows(family.domain))
        xs, _ = numerics.node_quadrature(family.space)
        got = family_model(family).log_density(xs, TH)
        want = family.exponent(xs, TH) - _potentials(FAMILIES[name](), TH)[:, None]
        assert np.array_equal(got, want)
        assert np.array_equal(family_model(family).log_density(xs, TH[0]), want[0])
        assert len(family.memo) == 0

    def test_row_outside_the_domain_raises(self):
        family = FAMILIES["normal-natural"]()
        xs, _ = numerics.node_quadrature(family.space)
        ll = family_model(family).log_density
        with pytest.raises(OutOfDomain, match=r"theta \[0.5, 0.0\] outside domain"):
            ll(xs, np.array([[-0.5, 0.0], [0.5, 0.0], [0.6, 0.0]]))
        with pytest.raises(OutOfDomain):
            ll(xs, np.array([-0.5, 3.0]))

    def test_other_points_take_potentials(self, adaptive_runs, monkeypatch):
        """Adaptive quadrature, and points other than a rule's nodes, take K
        through ``_potentials``: an adaptive K depends on the rows it holds."""
        calls = []
        real = dualflat._potentials
        monkeypatch.setattr(dualflat, "_potentials",
                            lambda family, TH: calls.append(np.shape(TH)) or real(family, TH))
        TH = np.array([[-0.5, 0.0], [-0.4, 0.1]])
        x = np.array([[0.3], [-1.0]])
        for family in (load_family(adaptive_runs[1]["subject"]["family"]),
                       FAMILIES["normal-natural"]()):
            calls.clear()
            got = family_model(family).log_density(x, TH)
            assert calls == [(2, 2)]
            assert np.array_equal(got, family.exponent(x, TH) - real(family, TH)[:, None])


class TestLoadFamily:
    def test_builtin(self):
        fam = load_family({"builtin": "bernoulli-natural"})
        assert fam.label == "bernoulli-natural"

    def test_inline_schema(self):
        doc = {
            "name": "bernoulli-inline",
            "stats": ["x[0]"],
            "domain": {"lo": [-6.0], "hi": [6.0]},
            "space": {"kind": "finite-discrete", "points": [[0.0], [1.0]]},
        }
        fam = load_family(doc)
        K = potential(fam, (0.0,))
        assert K == pytest.approx(math.log(2.0), abs=1e-12)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_family({"builtin": "weibull"})
        with pytest.raises(SchemaError):
            load_family({"stats": [], "domain": {"lo": [0], "hi": [1]},
                         "space": {"kind": "real-line"}})
