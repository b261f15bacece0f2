import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import infogeo, models, numerics
from igeo.errors import SingularMetric
from igeo.infogeo import (ConnectionField, MetricField, alpha_connection,
                          alpha_field, codazzi_check, conformal_transform,
                          conjugate_connection, conjugate_field, cubic_tensor,
                          curvature, fisher_field, fisher_metric,
                          flatness_check, levi_civita, levi_civita_field,
                          lower_connection, projective_equivalence,
                          raise_connection)
from igeo.numerics import DiffScheme


def normal_alpha_connection_closed_form(alpha, sigma):
    """Lowered alpha-connection of normal(mu, sigma), from Gaussian moments.

    With z = x - mu: scores are (z/s^2, z^2/s^3 - 1/s); plugging the moments
    E[z^2]=s^2, E[z^4]=3 s^4, E[z^6]=15 s^6 into the defining expectation
    gives the four nonzero entry families below.
    """
    G = np.zeros((2, 2, 2))
    G[0, 0, 1] = (1.0 - alpha) / sigma ** 3
    G[0, 1, 0] = G[1, 0, 0] = -(1.0 + alpha) / sigma ** 3
    G[1, 1, 1] = (-2.0 - 4.0 * alpha) / sigma ** 3
    return G


class TestFisherMetric:
    def test_normal_closed_form(self, normal_model):
        g = fisher_metric(normal_model, (0.0, 1.0))
        assert np.abs(g - np.diag([1.0, 2.0])).max() < 1e-6

    def test_bernoulli_exact(self, bernoulli_model):
        g = fisher_metric(bernoulli_model, (0.0,))
        assert g[0, 0] == pytest.approx(0.25, abs=1e-9)

    def test_normal_natural_second_moment(self, normal_natural_model):
        # g_22 = Var(x) = 1 at the standard point (Hessian-of-K oracle)
        g = fisher_metric(normal_natural_model, (-0.5, 0.0))
        assert g[1, 1] == pytest.approx(1.0, abs=1e-8)

    def test_reparametrization_pullback(self, normal_model,
                                        normal_natural_model):
        # (mu, sigma) -> (t1, t2) = (-1/(2 s^2), mu/s^2); g pulls back by J
        for mu, sig in ((0.0, 1.0), (0.5, 1.2), (-0.3, 1.5)):
            th = np.array([-1.0 / (2 * sig ** 2), mu / sig ** 2])
            J = np.array([[0.0, 1.0 / sig ** 3],
                          [1.0 / sig ** 2, -2.0 * mu / sig ** 3]])
            g_ms = fisher_metric(normal_model, (mu, sig))
            g_nat = fisher_metric(normal_natural_model, th)
            assert np.abs(J.T @ g_nat @ J - g_ms).max() < 1e-5

    def test_singular_metric(self):
        # duplicated coordinate makes the scores dependent
        base = models.normal_mean_sigma()
        bad = models.StatisticalModel(
            space=base.space, dim=2,
            domain=models.Box((-1.0, -1.0), (1.0, 1.0)),
            log_density=lambda x, th: -0.5 * (x[..., 0] - th[..., 0, None]
                                              - th[..., 1, None]) ** 2
            - 0.5 * np.log(2 * np.pi),
            label="degenerate")
        with pytest.raises(SingularMetric):
            fisher_metric(bad, (0.0, 0.0))


class TestAlphaConnection:
    def test_exponential_family_e_flat_coefficients(self, normal_natural_model,
                                                    nn_grid):
        for theta in nn_grid[:4]:
            low = alpha_connection(normal_natural_model, theta, 1.0)
            assert np.abs(low).max() < 1e-5

    def test_location_family_all_alpha_vanish(self, logistic_model):
        for alpha in (-1.0, 0.0, 1.0):
            for mu in (-0.5, 0.0, 0.5):
                low = alpha_connection(logistic_model, (mu,), alpha)
                assert np.abs(low).max() < 1e-4

    def test_closed_form_normal(self, normal_model):
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for mu, sig in ((0.0, 1.0), (0.3, 1.1)):
                low = alpha_connection(normal_model, (mu, sig), alpha)
                want = normal_alpha_connection_closed_form(alpha, sig)
                assert np.abs(low - want).max() < 1e-5

    def test_alpha_zero_is_levi_civita(self, normal_model):
        # metric-compatibility oracle: finite differences of the Fisher field
        gf = fisher_field(normal_model)
        for theta in ((0.0, 1.0), (0.4, 1.3)):
            lc = levi_civita(gf, theta)
            a0 = alpha_connection(normal_model, theta, 0.0)
            assert np.abs(lc - a0).max() < 1e-4


class TestSharedMoments:
    """Under a node rule (Monte Carlo included) the Fisher metric and every
    alpha-connection are read from one set of moments; they must equal the
    per-alpha formula."""

    @pytest.mark.parametrize("name", sorted(models.CATALOG) + ["mc-gaussian-location"])
    def test_match_the_per_alpha_formula(self, name, mc_location):
        if name in models.CATALOG:
            factory, grid = models.CATALOG[name], models.reference_grid(name)
        else:
            factory, grid = mc_location, [np.array([t]) for t in (-0.5, 0.0, 0.5)]
        xs, w = numerics.node_quadrature(factory().space)
        for theta in grid:
            model = factory()
            s = models.score_matrix(model, theta, xs)
            dd = models.second_log_derivs(model, theta, xs)
            p = np.exp(model.log_density(xs, theta))
            pw = p if w is None else p * w
            g = np.einsum("in,jn,n->ij", s, s, pw)
            g = 0.5 * (g + g.T)
            # scores alone first, then read back from the stored moments
            assert np.array_equal(fisher_metric(model, theta), g)
            model = factory()
            for alpha in (-1.0, 0.0, 0.5, 1.0):
                c = (1.0 - alpha) / 2.0
                core = dd + c * s[:, None, :] * s[None, :, :]
                expected = np.einsum("ijn,kn,n->ijk", core, s, pw)
                got = alpha_connection(model, theta, alpha)
                if alpha == 1.0:
                    assert np.array_equal(got, expected)
                else:
                    # roundoff scale of the node sums; on location families
                    # Gamma vanishes and max|Gamma| is itself cancellation noise
                    scale = np.einsum("ijn,kn,n->ijk", np.abs(core), np.abs(s), pw).max()
                    assert np.abs(got - expected).max() <= 1e-12 * scale
            assert np.array_equal(fisher_metric(model, theta), g)


class TestAlphaFieldUp:
    """``alpha_field(...).up`` raises the connection with one condition test
    and stores nothing beyond the moments."""

    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.0])
    def test_matches_raise_connection(self, alpha, monkeypatch):
        conds = []
        real = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda g: conds.append(1) or real(g))
        for theta in models.reference_grid("normal-natural")[::3]:
            model, reference = models.normal_natural(), models.normal_natural()
            conds.clear()
            got = alpha_field(model, alpha).up(theta)
            assert len(conds) == 1 and len(model.memo) == 1
            want = raise_connection(alpha_connection(reference, theta, alpha),
                                    fisher_metric(reference, theta))
            assert np.array_equal(got, want)

    def test_singular_metric(self):
        base = models.normal_mean_sigma()
        bad = models.StatisticalModel(
            space=base.space, dim=2, domain=models.Box((-1.0, -1.0), (1.0, 1.0)),
            log_density=lambda x, th: -0.5 * (x[..., 0] - th[..., 0, None]
                                              - th[..., 1, None]) ** 2,
            label="degenerate")
        with pytest.raises(SingularMetric, match="^Fisher metric condition"):
            alpha_field(bad, 1.0).up((0.0, 0.0))


class TestAdaptiveQuadrature:
    """The inline normal-natural model of the adaptive spec (default
    tolerance 1e-8) integrates g, A and T as one vector per point."""

    THETAS = [(-0.6, -0.4), (-0.5, 0.0), (-0.4, 0.2)]

    def test_matches_the_gauss_hermite_builtin(self, adaptive_runs, monkeypatch):
        """g and the alpha = 1, -1, 0 connections within 1e-8 of the builtin;
        the alphas after the first, and g, make no log-density call."""
        # at 96 nodes the builtin's T is off by 5e-7 at (-0.6, -0.4); at 160
        # both rules are within 2e-9 of the exact moments there
        monkeypatch.setenv("IGEO_QUAD_NODES", "160")
        reference = models.normal_natural()
        inline = models.load_model(adaptive_runs[0]["subject"]["model"])
        assert inline.space.rule.tol == 1e-8
        calls = []

        def counted(x, th):
            calls.append(len(x))
            return inline.log_density(x, th)

        model = dataclasses.replace(inline, log_density=counted)
        for theta in self.THETAS:
            got = {1.0: alpha_connection(model, theta, 1.0)}
            jet_calls = len(calls)
            assert jet_calls > 0 and set(calls) == {1}  # one sample point per call
            for alpha in (-1.0, 0.0):
                got[alpha] = alpha_connection(model, theta, alpha)
            g = fisher_metric(model, theta)
            assert len(calls) == jet_calls
            calls.clear()
            assert np.abs(g - fisher_metric(reference, theta)).max() < 1e-8
            for alpha, low in got.items():
                want = alpha_connection(reference, theta, alpha)
                assert np.abs(low - want).max() < 1e-8, (theta, alpha)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestGridBatches:
    """One call over a grid equals a loop of one-point calls on a fresh
    model bit for bit, under every builtin's node rule and under adaptive
    quadrature."""

    @staticmethod
    def assert_batch_equals_loop(factory, grid, alpha):
        grid = np.asarray(grid, dtype=float)
        batch = factory()
        gf, conn = fisher_field(batch), alpha_field(batch, alpha)
        got = {"moments": infogeo._moments(batch, grid),
               "flatness": flatness_check(batch, grid, alpha).per_point,
               "conjugate": conjugate_connection(gf, conn, grid),
               "codazzi": codazzi_check(gf, conn, grid)}
        for p, theta in enumerate(grid):
            single = factory()
            gf, conn = fisher_field(single), alpha_field(single, alpha)
            for a, b in zip(got["moments"], infogeo._moments(single, theta)):
                assert _bits(a[p]) == _bits(b)
            assert got["flatness"][p] == flatness_check(single, [theta], alpha).per_point[0]
            assert _bits(got["conjugate"][p]) == _bits(conjugate_connection(gf, conn, theta))
            assert got["codazzi"][p] == codazzi_check(gf, conn, theta)

    @pytest.mark.parametrize("name", sorted(models.CATALOG))
    def test_builtins_under_their_node_rules(self, name):
        self.assert_batch_equals_loop(models.CATALOG[name], models.reference_grid(name), -1.0)

    def test_adaptive_quadrature(self, adaptive_runs):
        doc = adaptive_runs[0]["subject"]["model"]
        self.assert_batch_equals_loop(lambda: models.load_model(doc),
                                      [(-0.6, -0.4), (-0.4, 0.2)], 1.0)

    def test_adaptive_exponential_form_keeps_points_apart(self, adaptive_runs):
        """On an adaptive family K of a stencil batch depends on its rows, so
        the exponential-form sweep takes one stencil per point there."""
        from igeo import dualflat, submanifold
        doc = adaptive_runs[1]["subject"]["family"]
        grid = models.grid(*(adaptive_runs[1]["grid"][k] for k in ("lo", "hi", "counts")))
        got = submanifold.exponential_form_check(
            dualflat.family_model(dualflat.load_family(doc)), grid).max_variation
        assert got == max(submanifold.exponential_form_check(
            dualflat.family_model(dualflat.load_family(doc)), [theta]).max_variation
            for theta in grid)

    def test_chunks_split_the_rows(self, monkeypatch):
        """Three points in chunks of two: two jets, the bits of one each."""
        monkeypatch.setattr(infogeo, "ROW_BUDGET", 2 * 96)
        jets = []
        real = infogeo.log_density_jet
        monkeypatch.setattr(infogeo, "log_density_jet",
                            lambda m, th, xs: jets.append(len(th)) or real(m, th, xs))
        grid = np.array(models.reference_grid("normal-natural")[:3])
        batch = infogeo._moments(models.normal_natural(), grid)
        assert jets == [2, 1]
        for p, theta in enumerate(grid):
            for a, b in zip(batch, infogeo._moments(models.normal_natural(), theta)):
                assert _bits(a[p]) == _bits(b)

    def test_every_missed_point_is_integrated_once(self, monkeypatch):
        rows = []
        real = infogeo.log_density_jet
        monkeypatch.setattr(infogeo, "log_density_jet",
                            lambda m, th, xs: rows.extend(map(bytes, th)) or real(m, th, xs))
        model = models.normal_natural()
        grid = np.array(models.reference_grid("normal-natural"))
        infogeo._moments(model, grid[[0, 1, 0, 2, 1]])
        infogeo._moments(model, grid)
        assert rows == [bytes(t) for t in grid]  # 0, 1, 2 once, then the other six


class TestRaiseLower:
    def test_identity_metric(self):
        low = np.arange(8.0).reshape(2, 2, 2)
        assert np.allclose(raise_connection(low, np.eye(2)), low)

    def test_scaled_metric_halves(self):
        low = np.arange(8.0).reshape(2, 2, 2)
        up = raise_connection(low, 2.0 * np.eye(2))
        assert np.allclose(up, low / 2.0)

    def test_roundtrip_normal_natural(self, normal_natural_model):
        theta = (-0.5, 0.2)
        g = fisher_metric(normal_natural_model, theta)
        low = alpha_connection(normal_natural_model, theta, -1.0)
        back = lower_connection(raise_connection(low, g), g)
        assert np.abs(back - low).max() < 1e-10


class TestCurvature:
    def test_zero_connection(self):
        pack = curvature(ConnectionField.zero(2), (0.0, 0.0))
        assert np.abs(pack.R).max() == 0.0
        assert np.abs(pack.torsion).max() == 0.0

    def test_e_connection_flat(self, normal_natural_model):
        conn = alpha_field(normal_natural_model, 1.0)
        pack = curvature(conn, (-0.5, 0.0))
        assert pack.max_R < 1e-4

    def test_ricci_of_hyperbolic_fisher(self, normal_model):
        # constant curvature -1/2 metric: Ric = -g/2
        conn = alpha_field(normal_model, 0.0)
        theta = (0.3, 1.1)
        pack = curvature(conn, theta)
        g = fisher_metric(normal_model, theta)
        assert np.abs(pack.ricci + 0.5 * g).max() < 1e-3

    def test_independent_stencil_oracle(self, normal_model):
        # same Ricci through the Levi-Civita field with a different stencil
        theta = (0.3, 1.1)
        gf = fisher_field(normal_model)
        lc = levi_civita_field(gf)
        other = DiffScheme(order=1, base_step=2.0**-6, richardson_levels=1)
        pack_a = curvature(alpha_field(normal_model, 0.0), theta)
        pack_b = curvature(lc, theta, scheme=other)
        assert np.abs(pack_a.ricci - pack_b.ricci).max() < 1e-3

    def test_antisymmetry_and_ricci_trace(self, normal_model):
        pack = curvature(alpha_field(normal_model, 0.5), (0.2, 1.2))
        assert np.abs(pack.R + np.swapaxes(pack.R, 0, 1)).max() < 1e-12
        ric = np.einsum("mjkm->jk", pack.R)
        assert np.allclose(ric, pack.ricci)

    def test_nabla_h_present_with_metric(self, normal_model):
        gf = fisher_field(normal_model)
        pack = curvature(alpha_field(normal_model, 1.0), (0.0, 1.0),
                         metric_field=gf)
        assert pack.nabla_h is not None
        assert pack.nabla_h.shape == (2, 2, 2)


class TestConjugate:
    def test_conjugate_of_alpha_is_minus_alpha(self, normal_model,
                                               bernoulli_model):
        for model, thetas in ((normal_model, [(0.0, 1.0), (0.4, 1.3)]),
                              (bernoulli_model, [(0.0,), (1.0,)])):
            gf = fisher_field(model)
            for alpha in (1.0, 0.5):
                conn = alpha_field(model, alpha)
                for theta in thetas:
                    conj = conjugate_connection(gf, conn, theta)
                    direct = alpha_connection(model, theta, -alpha)
                    assert np.abs(conj - direct).max() < 1e-4

    def test_levi_civita_self_dual(self, normal_model):
        gf = fisher_field(normal_model)
        lc = levi_civita_field(gf)
        theta = (0.0, 1.0)
        conj = conjugate_connection(gf, lc, theta)
        assert np.abs(conj - lc.low(theta)).max() < 1e-5

    def test_double_conjugate_is_identity(self, normal_model):
        gf = fisher_field(normal_model)
        conn = alpha_field(normal_model, 1.0)
        cc = conjugate_field(gf, conjugate_field(gf, conn))
        theta = (0.0, 1.0)
        assert np.abs(cc.low(theta) - conn.low(theta)).max() < 1e-6

    def test_duality_identity(self, normal_model):
        # d_i g_jk = Gamma^a_{ij,k} + Gamma^{-a}_{ik,j}
        gf = fisher_field(normal_model)
        theta = (0.2, 1.1)
        dg = infogeo.metric_derivative(gf, theta)
        for alpha in (1.0, 0.5):
            plus = alpha_connection(normal_model, theta, alpha)
            minus = alpha_connection(normal_model, theta, -alpha)
            recon = plus + np.transpose(minus, (0, 2, 1))
            assert np.abs(recon - dg).max() < 1e-5


class TestCodazzi:
    def test_e_connection_on_exponential_family(self, normal_natural_model):
        gf = fisher_field(normal_natural_model)
        conn = alpha_field(normal_natural_model, 1.0)
        assert codazzi_check(gf, conn, (-0.5, 0.0)) < 1e-4

    def test_levi_civita_parallel_metric(self, normal_model):
        gf = fisher_field(normal_model)
        lc = levi_civita_field(gf)
        assert codazzi_check(gf, lc, (0.0, 1.0)) < 1e-5

    def test_symmetry_breaking_perturbation_detected(self, normal_model):
        gf = fisher_field(normal_model)
        base = alpha_field(normal_model, 0.0)
        bump = np.zeros((2, 2, 2))
        bump[0, 1, 0] = 0.1   # not symmetric under the Codazzi exchange
        perturbed = ConnectionField(
            dim=2, low_fn=lambda th: base.low(th) + bump, metric=gf,
            provenance="perturbed", domain=normal_model.domain)
        assert codazzi_check(gf, perturbed, (0.0, 1.0)) >= 0.05


class TestFlatness:
    def test_e_and_m_flat(self, normal_natural_model, nn_grid):
        grid = nn_grid[:3]
        for alpha in (1.0, -1.0):
            rep = flatness_check(normal_natural_model, grid, alpha)
            assert rep.flat
            assert rep.max_R < 1e-4

    def test_alpha_zero_not_flat(self, normal_model):
        rep = flatness_check(normal_model, [(0.0, 1.0)], 0.0)
        assert not rep.flat
        assert rep.max_R > 1e-2

    def test_flat_iff_dual_flat(self, bernoulli_model):
        grid = [(-1.0,), (0.0,), (1.0,)]
        for alpha in (0.5, 1.0):
            a = flatness_check(bernoulli_model, grid, alpha)
            b = flatness_check(bernoulli_model, grid, -alpha)
            assert a.flat == b.flat

    def test_flat_iff_dual_flat_across_catalog(self):
        # one interior point per model keeps the sweep affordable
        for name, factory in models.CATALOG.items():
            model = factory()
            grid = [models.reference_grid(name)[0]]
            plus = flatness_check(model, grid, 1.0)
            minus = flatness_check(model, grid, -1.0)
            assert plus.flat == minus.flat, name


class TestCubicTensor:
    def test_alpha_independent_and_symmetric(self, normal_model):
        theta = (0.2, 1.1)
        c_half = cubic_tensor(normal_model, theta, 0.5)
        c_one = cubic_tensor(normal_model, theta, 1.0)
        assert np.abs(c_half - c_one).max() < 1e-4
        for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
            assert np.abs(c_one - np.transpose(c_one, perm)).max() < 1e-4


class TestCurvatureDuality:
    def test_h_R_duality(self, normal_model):
        # h(R(X,Y)Z, U) = -h(Z, Rbar(X,Y)U) for the (1, -1) pair
        theta = (0.0, 1.0)
        g = fisher_metric(normal_model, theta)
        R_plus = curvature(alpha_field(normal_model, 1.0), theta).R
        R_minus = curvature(alpha_field(normal_model, -1.0), theta).R
        lhs = np.einsum("ijkl,lu->ijku", R_plus, g)
        rhs = -np.einsum("ijul,lk->ijku", R_minus, g)
        assert np.abs(lhs - rhs).max() < 1e-3


class TestConformal:
    def test_phi_zero_is_identity(self, normal_model):
        gf = fisher_field(normal_model)
        conn = alpha_field(normal_model, 0.5)
        gt, ct = conformal_transform(gf, conn, lambda th: np.zeros(th.shape[:-1]), 0.5)
        theta = (0.1, 1.2)
        assert np.allclose(gt(theta), gf(theta))
        assert np.abs(ct.low(theta) - conn.low(theta)).max() < 1e-12

    def test_metric_scales_exactly(self, normal_model):
        gf = fisher_field(normal_model)
        conn = alpha_field(normal_model, 0.0)
        phi = lambda th: 0.3 * th[..., 0] + 0.1
        gt, _ = conformal_transform(gf, conn, phi, 0.0)
        theta = (0.4, 1.1)
        assert np.allclose(gt(theta), np.exp(phi(np.asarray(theta))) * gf(theta))

    def test_minus_one_conformal_of_flat_is_projectively_flat(self):
        # flat connection, constant metric, linear phi: the transformed
        # connection is rho(X)Y + rho(Y)X with rho = d phi
        gf = MetricField.constant(np.diag([1.0, 2.0]))
        flat = ConnectionField.zero(2)
        slope = np.array([0.25, -0.5])
        phi = lambda th: np.asarray(th, float) @ slope
        gt, ct = conformal_transform(gf, flat, phi, -1.0)
        theta = (0.3, -0.2)
        up = raise_connection(ct.low(theta), gt(theta))
        res = projective_equivalence(np.zeros((2, 2, 2)), up, tol=1e-8)
        assert res.equivalent
        assert np.abs(res.rho - slope).max() < 1e-8

    def test_fields_on_rows_equal_one_point_calls(self, normal_model, normal_grid,
                                                  monkeypatch):
        """Both fields take theta rows, like every other field, and dphi of
        a grid is one stencil of phi."""
        calls = []
        phi = lambda th: calls.append(th.shape) or 0.3 * th[..., 0] * th[..., 1] - 0.2
        gf = fisher_field(normal_model)
        gt, ct = conformal_transform(gf, alpha_field(normal_model, 0.5), phi, 0.5)
        rows = np.array(normal_grid)
        got_g, got_low = gt(rows), ct.low(rows)
        assert got_g.shape == (len(rows), 2, 2) and got_low.shape == (len(rows), 2, 2, 2)
        # phi on the rows for each h~, and one stencil: 2 nodes per coordinate
        assert calls == [rows.shape, rows.shape, (4 * len(rows), 2)]
        for p, th in enumerate(rows):
            assert got_g[p].tobytes() == gt(th).tobytes()
            assert got_low[p].tobytes() == ct.low(th).tobytes()


class TestProjectiveEquivalence:
    def test_equal_connections(self):
        G = np.arange(8.0).reshape(2, 2, 2)
        res = projective_equivalence(G, G)
        assert res.equivalent
        assert np.abs(res.rho).max() == 0.0

    def test_roundtrip_recovery(self):
        rho = np.array([0.3, -0.1])
        eye = np.eye(2)
        base = np.arange(8.0).reshape(2, 2, 2) / 7.0
        shifted = base + np.einsum("i,jk->ijk", rho, eye) \
            + np.einsum("j,ik->ijk", rho, eye)
        res = projective_equivalence(base, shifted)
        assert res.equivalent
        assert np.abs(res.rho - rho).max() < 1e-10

    def test_traceless_non_projective_tensor(self):
        D = np.zeros((2, 2, 2))
        D[0, 1, 1] = 0.1   # symmetric part would need matching trace terms
        D[1, 0, 1] = 0.1
        D[0, 0, 0] = -0.2  # keeps D^m_{im} = 0
        base = np.zeros((2, 2, 2))
        res = projective_equivalence(base, base + D)
        assert not res.equivalent
        assert res.residual >= 0.05

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_recovery_property(self, r0, r1):
        rho = np.array([r0, r1])
        eye = np.eye(2)
        shift = np.einsum("i,jk->ijk", rho, eye) + np.einsum("j,ik->ijk", rho, eye)
        res = projective_equivalence(np.zeros((2, 2, 2)), shift, tol=1e-9)
        assert res.equivalent
        assert np.abs(res.rho - rho).max() < 1e-10
