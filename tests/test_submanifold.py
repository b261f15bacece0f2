import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import dualflat, infogeo, models
from igeo.errors import (EmptyFixed, EmptyFree, IncompatibleConstants,
                         OutOfDomain, RankDeficientB, SchemaError)
from igeo.models import Box
from igeo.submanifold import (SubmanifoldEmbedding, autoparallel_check,
                              composed_model, coordinate_slice,
                              embedding_curvature, exponential_form_check,
                              load_embedding, normal_frame, probe_points,
                              tangent_basis)


@pytest.fixture(scope="module")
def nn_setup(normal_natural_family):
    model = dualflat.family_model(normal_natural_family)
    return {
        "family": normal_natural_family,
        "model": model,
        "e_conn": infogeo.alpha_field(model, 1.0),
        "zero_conn": infogeo.alpha_field(model, 0.0),
        "metric": infogeo.fisher_field(model),
    }


@pytest.fixture(scope="module")
def diag_curve(normal_model):
    # (mu, sigma) = (u, u): not autoparallel for the exponential connection
    return SubmanifoldEmbedding(ambient=normal_model,
                                chart=lambda u: np.stack([u[..., 0], u[..., 0]], axis=-1),
                                domain=Box((0.85,), (2.1,)), dim=1,
                                label="diag-curve")


class TestEmbeddingCurvature:
    def test_mean_slice_is_e_flat(self, nn_setup):
        # theta_2 fixed at zero: an affine slice of natural coordinates
        sl = coordinate_slice(nn_setup["family"], [1], [0.0])
        for u in ((-0.5,), (-0.4,), (-0.3,)):
            ec = embedding_curvature(sl.embedding, nn_setup["e_conn"],
                                     nn_setup["metric"], u)
            assert ec.max_abs < 1e-5

    def test_diagonal_curve_curved(self, diag_curve, normal_model):
        conn = infogeo.alpha_field(normal_model, 1.0)
        gf = infogeo.fisher_field(normal_model)
        ec = embedding_curvature(diag_curve, conn, gf, (1.0,))
        # closed form from the Gaussian-moment connection: |H| = 2/sqrt(6)
        assert ec.max_abs > 0.1
        assert ec.max_abs == pytest.approx(2.0 / math.sqrt(6.0), abs=1e-3)

    def test_identity_embedding_vacuous(self, normal_model):
        emb = SubmanifoldEmbedding(ambient=normal_model,
                                   chart=lambda u: np.stack([u[..., 0], u[..., 1]], axis=-1),
                                   domain=normal_model.domain, dim=2)
        conn = infogeo.alpha_field(normal_model, 1.0)
        gf = infogeo.fisher_field(normal_model)
        ec = embedding_curvature(emb, conn, gf, (0.0, 1.0))
        assert ec.H.shape == (2, 2, 0)
        assert ec.max_abs == 0.0

    def test_rank_deficient_jacobian(self, normal_model):
        emb = SubmanifoldEmbedding(ambient=normal_model,
                                   chart=lambda u: np.stack([0 * u[..., 0], 1.0 + 0 * u[..., 0]],
                                                            axis=-1),
                                   domain=Box((-1.0,), (1.0,)), dim=1)
        with pytest.raises(RankDeficientB):
            tangent_basis(emb, (0.0,))

    def test_h_symmetric(self, diag_curve, normal_model):
        conn = infogeo.alpha_field(normal_model, 0.0)
        gf = infogeo.fisher_field(normal_model)
        ec = embedding_curvature(diag_curve, conn, gf, (1.2,))
        assert np.abs(ec.H - np.transpose(ec.H, (1, 0, 2))).max() < 1e-12


class TestOneChartStencil:
    """theta(u), B and d_a d_b theta come from one stencil of the embedding
    chart, each distinct node evaluated once."""

    SURFACE = {"ambient": "normal-natural",
               "map": ["-0.5 + 0.1*u[0]*u[1]", "u[1] + u[0]^2"],
               "domain": {"lo": [-0.3, -0.3], "hi": [0.3, 0.3]}}
    CURVE = {"ambient": "normal-natural", "map": ["-0.5 + 0.1*u[0]^2", "u[0]"],
             "domain": {"lo": [-1.0], "hi": [1.0]}}

    @staticmethod
    def separate_stencils(emb, conn, metric, u):
        """H by one stencil per derivative order plus theta(u)."""
        from igeo.immersion import CHART_SCHEME_1, CHART_SCHEME_2
        from igeo.numerics import partials, stencil, symmetric
        u = np.atleast_1d(np.asarray(u, dtype=float))
        m = emb.dim
        th = emb.theta(u)
        B = np.array(stencil(emb.chart, u, partials(m, 1, CHART_SCHEME_1), emb.domain)
                     ).reshape(m, -1).T
        g, up = metric(th), conn.up(th)
        N = normal_frame(g, B)
        V = symmetric(stencil(emb.chart, u, partials(m, 2, CHART_SCHEME_2), emb.domain),
                      m).reshape(m, m, -1)
        for a in range(m):
            for b in range(a, m):
                V[a, b] = V[b, a] = V[a, b] + np.einsum("jki,j,k->i", up, B[:, a], B[:, b])
        return B, np.einsum("abi,ij,jk->abk", V, g, N)

    def test_one_chart_call_per_distinct_node(self):
        emb = load_embedding(self.SURFACE)
        seen = []

        def chart(U):
            seen.extend(map(tuple, U))
            return emb.chart(U)

        counted = dataclasses.replace(emb, chart=chart)
        ambient = emb.ambient
        embedding_curvature(counted, infogeo.alpha_field(ambient, 1.0),
                            infogeo.fisher_field(ambient), (0.1, 0.2))
        # the point, 2 x 2 first-partial nodes per coordinate and the 8
        # mixed-partial nodes: the second-partial diagonals add none
        assert len(seen) == 17 and len(set(seen)) == 17

    def test_one_chart_call_per_stencil(self, nn_setup):
        """The chart maps all the stencil's u rows in one call."""
        calls = []
        for emb, u in ((load_embedding(self.SURFACE), (0.1, 0.2)),
                       (load_embedding(self.CURVE), (0.3,)),
                       (coordinate_slice(nn_setup["family"], [1], [0.2]).embedding, (-0.4,))):
            counted = dataclasses.replace(
                emb, chart=lambda U, chart=emb.chart: calls.append(np.shape(U)) or chart(U))
            del calls[:]
            tangent_basis(counted, u)
            m = emb.dim
            # the point, 2 nodes per first partial and 4 per pair a < b, at
            # 2 Richardson levels; the diagonals share the first partials' nodes
            assert calls == [(1 + 4 * m + 4 * m * (m - 1), m)]

    def test_h_equals_separate_stencils(self, nn_setup, diag_curve, normal_model):
        sl = coordinate_slice(nn_setup["family"], [1], [0.2]).embedding
        cases = [(load_embedding(self.CURVE), ((-0.4,), (0.3,))),
                 (load_embedding(self.SURFACE), ((0.1, 0.2),)),
                 (sl, ((-0.5,), (-0.3,))), (diag_curve, ((1.0,), (1.4,)))]
        for emb, points in cases:
            conn = infogeo.alpha_field(emb.ambient, 0.0)
            metric = infogeo.fisher_field(emb.ambient)
            for u in points:
                B, H = self.separate_stencils(emb, conn, metric, u)
                assert embedding_curvature(emb, conn, metric, u).H.tobytes() == H.tobytes()
                assert tangent_basis(emb, u).tobytes() == B.tobytes()


class TestComposedModel:
    def test_one_chart_call_per_batch(self, nn_setup):
        sl = coordinate_slice(nn_setup["family"], [1], [0.2]).embedding
        calls = []
        counted = dataclasses.replace(
            sl, chart=lambda U: calls.append(np.shape(U)) or sl.chart(U))
        U = np.array([[-0.5], [-0.4], [-0.3]])
        xs = np.array([[-1.0], [0.5]])
        got = composed_model(counted).log_density(xs, U)
        assert calls == [(3, 1)]
        want = [nn_setup["model"].log_density(xs, sl.theta(u)) for u in U]
        assert got.tobytes() == np.array(want).tobytes()

    def test_names_the_first_theta_row_outside(self, nn_setup):
        emb = SubmanifoldEmbedding(
            ambient=nn_setup["model"],
            chart=lambda u: np.stack([u[..., 0], 0.0 * u[..., 0]], axis=-1),
            domain=Box((-1.0,), (1.0,)), dim=1)
        xs = np.array([[0.0]])
        with pytest.raises(OutOfDomain, match=r"theta \[0.5, 0.0\] outside"):
            composed_model(emb).log_density(xs, np.array([[-0.5], [0.5], [0.7]]))


class TestAutoparallel:
    def test_fixed_variance_family_under_e(self, nn_setup):
        # {N(mu, 1)}: theta_1 frozen at -1/2, natural mean free
        sl = coordinate_slice(nn_setup["family"], [0], [-0.5])
        grid = [np.array([v]) for v in (-0.3, 0.0, 0.3)]
        rep = autoparallel_check(sl.embedding, nn_setup["e_conn"],
                                 nn_setup["metric"], grid)
        assert rep.autoparallel
        assert rep.max_abs < 1e-5

    def test_same_slice_fails_under_levi_civita(self, nn_setup):
        sl = coordinate_slice(nn_setup["family"], [0], [-0.5])
        grid = [np.array([0.0])]
        rep = autoparallel_check(sl.embedding, nn_setup["zero_conn"],
                                 nn_setup["metric"], grid)
        assert not rep.autoparallel
        # hand value at theta = (-1/2, 0): H = 1/sqrt(2)
        assert rep.max_abs == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_full_manifold_trivially_autoparallel(self, normal_model):
        emb = SubmanifoldEmbedding(ambient=normal_model,
                                   chart=lambda u: np.stack([u[..., 0], u[..., 1]], axis=-1),
                                   domain=normal_model.domain, dim=2)
        conn = infogeo.alpha_field(normal_model, 0.0)
        gf = infogeo.fisher_field(normal_model)
        rep = autoparallel_check(emb, conn, gf, [(0.0, 1.0)])
        assert rep.autoparallel

    @given(a=st.sampled_from([0.5, 0.8, 1.25, 2.0, -1.0]))
    @settings(max_examples=5, deadline=None)
    def test_flag_invariant_under_reparametrization(self, nn_setup, a):
        base = coordinate_slice(nn_setup["family"], [0], [-0.5]).embedding
        rescaled = SubmanifoldEmbedding(
            ambient=base.ambient,
            chart=lambda u: base.chart(a * u),
            domain=Box((-0.35 / abs(a),), (0.35 / abs(a),)), dim=1)
        grid_b = [np.array([v]) for v in (-0.3, 0.0, 0.3)]
        grid_r = [np.array([v / a]) for v in (-0.3, 0.0, 0.3)]
        rep_b = autoparallel_check(base, nn_setup["e_conn"],
                                   nn_setup["metric"], grid_b)
        rep_r = autoparallel_check(rescaled, nn_setup["e_conn"],
                                   nn_setup["metric"], grid_r)
        assert rep_b.autoparallel == rep_r.autoparallel


class TestExponentialForm:
    def test_natural_coordinates_detected(self, nn_setup, nn_grid):
        rep = exponential_form_check(nn_setup["model"], nn_grid[:3])
        assert rep.is_exponential_form
        assert rep.max_variation < 1e-6

    def test_mean_sigma_coordinates_rejected(self, normal_model):
        rep = exponential_form_check(normal_model, [np.array([0.0, 1.0])])
        assert not rep.is_exponential_form
        # d^2 l / d sigma^2 = 1/s^2 - 3 z^2/s^4 varies strongly across probes
        assert rep.max_variation > 1.0

    def test_logistic_location_counterexample(self, logistic_model):
        rep = exponential_form_check(logistic_model, [np.array([0.0])])
        assert not rep.is_exponential_form
        assert rep.max_variation > 0.1

    def test_note_mentions_coordinate_relativity(self, nn_setup, nn_grid):
        rep = exponential_form_check(nn_setup["model"], nn_grid[:1])
        assert "coordinates" in rep.note

    def test_probe_floor_on_continuous_spaces(self, normal_model):
        with pytest.raises(ValueError):
            exponential_form_check(normal_model, [np.array([0.0, 1.0])],
                                   probes=np.zeros((3, 1)))


class TestProbePoints:
    def test_discrete_full_support(self, bernoulli_model):
        pts = probe_points(bernoulli_model.space)
        assert pts.shape == (2, 1)

    def test_continuous_quantile_spread(self, normal_model):
        pts = probe_points(normal_model.space, count=10)
        assert len(pts) >= 10
        assert np.all(np.diff(pts[:, 0]) > 0)

    def test_two_dimensional(self, logistic_model):
        space = models.location_family("logistic", 2).space
        pts = probe_points(space, count=8)
        assert pts.shape[1] == 2
        assert len(pts) >= 8


class TestCoordinateSlice:
    def test_fixed_variance_slice_is_exponential(self, nn_setup):
        sl = coordinate_slice(nn_setup["family"], [0], [-0.5])
        # K_s(t2) = t2^2/2 + log(2 pi)/2 for the absorbed base exp(-x^2/2)
        K = dualflat.potential(sl.family, (0.4,))
        assert K == pytest.approx(0.08 + 0.5 * math.log(2 * math.pi), abs=1e-8)
        model = dualflat.family_model(sl.family)
        rep = exponential_form_check(model, [np.array([0.0]), np.array([0.4])])
        assert rep.is_exponential_form

    def test_disjoint_images(self, nn_setup):
        sl_a = coordinate_slice(nn_setup["family"], [0], [-0.5])
        sl_b = coordinate_slice(nn_setup["family"], [0], [-0.4])
        th_a = sl_a.embedding.theta((0.2,))
        th_b = sl_b.embedding.theta((0.2,))
        assert th_a[0] != th_b[0]

    def test_every_slice_is_e_autoparallel(self, nn_setup):
        for fixed, c in (([0], [-0.5]), ([1], [0.0]), ([1], [0.3])):
            sl = coordinate_slice(nn_setup["family"], fixed, c)
            mid = sl.embedding.domain.center()
            rep = autoparallel_check(sl.embedding, nn_setup["e_conn"],
                                     nn_setup["metric"], [mid])
            assert rep.autoparallel, (fixed, c)

    def test_slice_errors(self, nn_setup):
        fam = nn_setup["family"]
        with pytest.raises(EmptyFixed):
            coordinate_slice(fam, [], [])
        with pytest.raises(EmptyFree):
            coordinate_slice(fam, [0, 1], [-0.5, 0.0])
        with pytest.raises(IncompatibleConstants):
            coordinate_slice(fam, [0], [5.0])
        with pytest.raises(IncompatibleConstants):
            coordinate_slice(fam, [0], [-0.5, 0.0])
        with pytest.raises(IncompatibleConstants):
            coordinate_slice(fam, [7], [0.0])


class TestTheoremSuite:
    def test_exponential_form_implies_e_autoparallel(self, nn_setup):
        # forward direction over random affine slices of the natural chart
        rng = np.random.default_rng(42)
        for _ in range(4):
            direction = rng.normal(size=2)
            direction /= np.abs(direction).sum()
            base = np.array([-0.45, 0.0])
            emb = SubmanifoldEmbedding(
                ambient=nn_setup["model"],
                chart=lambda u, d=direction: base + u[..., 0, None] * d,
                domain=Box((-0.2,), (0.2,)), dim=1)
            comp = composed_model(emb)
            grid = [np.array([0.0]), np.array([0.1])]
            ef = exponential_form_check(comp, grid)
            ap = autoparallel_check(emb, nn_setup["e_conn"],
                                    nn_setup["metric"], grid)
            assert ef.is_exponential_form
            assert ap.autoparallel

    def test_non_affine_curve_fails_both(self, nn_setup):
        emb = SubmanifoldEmbedding(
            ambient=nn_setup["model"],
            chart=lambda u: np.stack([-0.5 + 0.2 * u[..., 0] ** 2, u[..., 0]], axis=-1),
            domain=Box((-0.5,), (0.5,)), dim=1, label="bent")
        grid = [np.array([0.2])]
        ap = autoparallel_check(emb, nn_setup["e_conn"],
                                nn_setup["metric"], grid)
        assert not ap.autoparallel
        comp = composed_model(emb)
        ef = exponential_form_check(comp, grid)
        assert not ef.is_exponential_form


class TestLoadEmbedding:
    def test_inline_document(self):
        doc = {
            "name": "mean-line",
            "ambient": "normal-natural",
            "map": ["-0.5 + 0*u[0]", "u[0]"],
            "domain": {"lo": [-0.4], "hi": [0.4]},
        }
        emb = load_embedding(doc)
        assert emb.dim == 1
        assert np.allclose(emb.theta((0.2,)), [-0.5, 0.2])

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_embedding({"ambient": "normal-natural", "map": ["u[0]"]})
        with pytest.raises(SchemaError):
            load_embedding({"ambient": "normal-natural",
                            "map": ["u[0]"],
                            "domain": {"lo": [0.0], "hi": [1.0]}})
