import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import immersion
from igeo.errors import DegenerateH, SchemaError, SingularFrame
from igeo.immersion import (Hypersurface, classify, decompose, gamma_field,
                            h_field, induced_volume_check, load_surface,
                            paraboloid, plane, scaled_sphere,
                            statistical_structure, structural_check,
                            tilted_paraboloid, unit_sphere)
from igeo.models import Box


def sphere_metric(u):
    """Round metric of the unit sphere in the graph chart."""
    u = np.asarray(u, dtype=float)
    return np.eye(2) + np.outer(u, u) / (1.0 - float(u @ u))


GRID = [np.array([a, b]) for a in (-0.3, 0.0, 0.3) for b in (-0.3, 0.0, 0.3)]


class TestDecompose:
    def test_sphere_shape_operator_identity(self):
        surf = unit_sphere()
        data = decompose(surf, (0.2, -0.1))
        assert np.abs(data.shape_operator - np.eye(2)).max() < 1e-9
        assert np.abs(data.alpha_form).max() < 1e-9

    def test_sphere_h_closed_form(self):
        surf = unit_sphere()
        for u in GRID:
            data = decompose(surf, u)
            assert np.abs(data.h - sphere_metric(u)).max() < 1e-8

    def test_sphere_gamma_closed_form(self):
        # graph chart with xi = -f: Gamma^k_ij = u_k h_ij
        surf = unit_sphere()
        u = np.array([0.35, -0.2])
        data = decompose(surf, u)
        want = np.einsum("ij,k->ijk", sphere_metric(u), u)
        assert np.abs(data.gamma - want).max() < 1e-8

    def test_paraboloid_constant_data(self):
        surf = paraboloid()
        data = decompose(surf, (0.3, 0.4))
        assert np.abs(data.gamma).max() < 1e-10
        assert np.abs(data.h - np.eye(2)).max() < 1e-10
        assert np.abs(data.shape_operator).max() < 1e-12
        assert np.abs(data.alpha_form).max() < 1e-12

    def test_plane_degenerate_h(self):
        surf = plane()
        data = decompose(surf, (0.3, 0.4))
        assert np.abs(data.h).max() < 1e-12

    def test_reconstruction_identity(self):
        # f_*(Gamma) + h xi reproduces the second chart derivatives
        from igeo.numerics import derive
        surf = unit_sphere()
        u = np.array([0.25, 0.15])
        data = decompose(surf, u)
        J = np.column_stack([derive(surf.chart, u, (i,),
                                    scheme=immersion.CHART_SCHEME_1)
                             for i in range(2)])
        xi = surf.transversal(u)
        for i in range(2):
            for j in range(2):
                dd = derive(surf.chart, u, (i, j),
                            scheme=immersion.CHART_SCHEME_2)
                rebuilt = J @ data.gamma[i, j] + data.h[i, j] * xi
                assert np.abs(rebuilt - dd).max() < 1e-9

    def test_transversality_failure(self):
        # transversal chosen inside the tangent plane
        surf = Hypersurface(
            chart=lambda u: np.array([u[0], u[1], 0.0]),
            transversal=lambda u: np.array([1.0, 0.0, 0.0]),
            domain=Box((-1.0, -1.0), (1.0, 1.0)), dim=2, label="bad")
        with pytest.raises(SingularFrame):
            decompose(surf, (0.0, 0.0))


class TestStructural:
    def test_sphere_residuals(self):
        surf = unit_sphere()
        for u in GRID:
            r = structural_check(surf, u)
            assert r.max < 1e-6, (u, r)

    def test_paraboloid_residuals(self):
        surf = paraboloid()
        r = structural_check(surf, (0.3, 0.4))
        assert r.max < 1e-8

    def test_centro_affine_ricci_identity(self):
        # S = I makes Ric = (n-1) h
        from igeo.infogeo import curvature
        surf = unit_sphere()
        for u in GRID[:4]:
            pack = curvature(gamma_field(surf), u,
                             scheme=immersion.SURFACE_FIELD_SCHEME)
            h = decompose(surf, u).h
            assert np.abs(pack.ricci - h).max() < 1e-6

    def test_gauss_identity_with_unit_shape_operator(self):
        # R(X,Y)Z = h(Y,Z)X - h(X,Z)Y on any centro-affine surface
        from igeo.infogeo import curvature
        surf = unit_sphere()
        u = np.array([0.2, 0.3])
        pack = curvature(gamma_field(surf), u,
                         scheme=immersion.SURFACE_FIELD_SCHEME)
        h = decompose(surf, u).h
        eye = np.eye(2)
        want = np.einsum("jk,il->ijkl", h, eye) - np.einsum("ik,jl->ijkl", h, eye)
        assert np.abs(pack.R - want).max() < 1e-6


class TestInducedDerivative:
    """One stencil over the packed data must reproduce the per-field routes."""

    @pytest.mark.parametrize("name", ["sphere", "paraboloid-tilted"])
    def test_residuals_equal_reference_routes(self, name):
        from igeo.infogeo import codazzi_check, curvature
        surf = immersion.SURFACES[name]()
        scheme = immersion.SURFACE_FIELD_SCHEME
        for u in (np.array([0.2, 0.3]), np.array([-0.3, 0.1])):
            data = decompose(surf, u)
            h, S = data.h, data.shape_operator
            pack = curvature(gamma_field(surf), u, scheme=scheme)
            gauss_rhs = (np.einsum("jk,li->ijkl", h, S)
                         - np.einsum("ik,lj->ijkl", h, S))
            assert structural_check(surf, u).gauss == \
                float(np.abs(pack.R - gauss_rhs).max())
            assert statistical_structure(surf, [u]).codazzi_residual == \
                codazzi_check(h_field(surf), gamma_field(surf), u, scheme=scheme)

    def test_structural_check_decomposes_each_stencil_node_once(self, monkeypatch):
        seen = []
        real = immersion.decompose

        def counting(surface, u):
            seen.append(tuple(np.atleast_1d(u)))
            return real(surface, u)

        monkeypatch.setattr(immersion, "decompose", counting)
        structural_check(unit_sphere(), (0.2, 0.3))
        # the point itself plus 2 nodes x 2 Richardson levels per coordinate
        assert len(seen) == 1 + 4 * 2
        assert len(set(seen)) == len(seen)


class TestVolume:
    def test_paraboloid_blaschke(self):
        v = induced_volume_check(paraboloid(), (0.3, 0.4))
        assert v.transport_residual < 1e-10
        assert v.blaschke_gap < 1e-10

    def test_sphere_blaschke(self):
        v = induced_volume_check(unit_sphere(), (0.2, -0.1))
        assert v.transport_residual < 1e-8
        assert v.blaschke_gap < 1e-8

    def test_scaled_sphere_gap(self):
        # eta scales with c^3 while h is invariant, so the gap opens up
        v = induced_volume_check(scaled_sphere(1.5), (0.2, -0.1))
        assert v.blaschke_gap > 0.1
        assert v.transport_residual < 1e-8

    def test_plane_degenerate(self):
        with pytest.raises(DegenerateH):
            induced_volume_check(plane(), (0.3, 0.4))


class TestClassify:
    def test_sphere(self):
        rep = classify(unit_sphere(), GRID)
        f = rep.flags
        assert f.centro_affine and f.equiaffine and f.nondegenerate
        assert f.blaschke and f.proper_hypersphere
        assert not f.improper_hypersphere
        assert f.lam == pytest.approx(1.0, abs=1e-6)

    def test_paraboloid(self):
        rep = classify(paraboloid(), GRID)
        f = rep.flags
        assert f.blaschke and f.improper_hypersphere
        assert not f.centro_affine and not f.proper_hypersphere

    def test_plane(self):
        rep = classify(plane(), GRID)
        f = rep.flags
        assert f.centro_affine
        assert not f.nondegenerate
        assert not f.blaschke

    def test_scaled_sphere_not_blaschke(self):
        rep = classify(scaled_sphere(1.5), GRID)
        f = rep.flags
        assert f.centro_affine and f.equiaffine and f.nondegenerate
        assert not f.blaschke

    def test_blaschke_gap_equals_volume_check(self):
        for surf in (unit_sphere(), scaled_sphere(1.5), paraboloid()):
            rep = classify(surf, GRID)
            assert rep.max_blaschke_gap == max(
                induced_volume_check(surf, u).blaschke_gap for u in GRID)

    @given(st.permutations(list(range(len(GRID)))))
    @settings(max_examples=10, deadline=None)
    def test_grid_order_independent(self, order):
        base = classify(unit_sphere(), GRID)
        perm = classify(unit_sphere(), [GRID[i] for i in order])
        assert base.flags == perm.flags
        assert base.lambda_mean == pytest.approx(perm.lambda_mean, abs=1e-12)


class TestRescaling:
    @given(st.sampled_from([0.5, 2.0, -1.0, 3.0, 0.25]))
    @settings(max_examples=5, deadline=None)
    def test_transversal_rescaling_covariance(self, c):
        # xi -> c xi scales h by 1/c and leaves the connection unchanged
        base = paraboloid()
        scaled = Hypersurface(chart=base.chart,
                              transversal=lambda u: c * base.transversal(u),
                              domain=base.domain, dim=2, label="scaled-xi")
        u = np.array([0.3, -0.2])
        d0 = decompose(base, u)
        d1 = decompose(scaled, u)
        assert np.abs(d1.h - d0.h / c).max() < 1e-10
        assert np.abs(d1.gamma - d0.gamma).max() < 1e-10


class TestStatisticalStructure:
    def test_sphere_is_statistical(self):
        rep = statistical_structure(unit_sphere(), GRID[:4])
        assert rep.is_statistical
        assert rep.codazzi_residual < 1e-5

    def test_paraboloid_is_statistical(self):
        rep = statistical_structure(paraboloid(), GRID[:4])
        assert rep.is_statistical
        assert rep.codazzi_residual < 1e-5

    def test_non_equiaffine_transversal_detected(self):
        grid = [np.array([a, b]) for a in (0.2, 0.4) for b in (0.2, 0.4)]
        rep = statistical_structure(tilted_paraboloid(), grid)
        assert not rep.is_statistical
        assert rep.codazzi_residual > 1e-2

    def test_plane_degenerate(self):
        with pytest.raises(DegenerateH):
            statistical_structure(plane(), GRID[:2])

    def test_exported_fields_are_consistent(self):
        surf = unit_sphere()
        u = np.array([0.1, 0.2])
        assert np.abs(h_field(surf)(u) - decompose(surf, u).h).max() == 0.0
        assert np.abs(gamma_field(surf).up(u) - decompose(surf, u).gamma).max() == 0.0


class TestLoadSurface:
    def test_builtin(self):
        surf = load_surface({"builtin": "sphere"})
        assert surf.label == "sphere"

    def test_expression_surface_matches_builtin(self):
        doc = {
            "name": "paraboloid-expr",
            "dim": 2,
            "chart": ["u[0]", "u[1]", "(u[0]^2 + u[1]^2)/2"],
            "transversal": ["0*u[0]", "0*u[0]", "1 + 0*u[0]"],
            "domain": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        }
        surf = load_surface(doc)
        d_expr = decompose(surf, (0.3, 0.4))
        d_builtin = decompose(paraboloid(), (0.3, 0.4))
        assert np.abs(d_expr.h - d_builtin.h).max() < 1e-12
        assert np.abs(d_expr.gamma - d_builtin.gamma).max() < 1e-12

    def test_centro_affine_keyword(self):
        doc = {
            "name": "plane-ca",
            "dim": 2,
            "chart": ["u[0]", "u[1]", "1 + 0*u[0]"],
            "transversal": "centro-affine",
            "domain": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        }
        surf = load_surface(doc)
        u = np.array([0.3, 0.4])
        assert np.allclose(surf.transversal(u), -surf.chart(u))

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            load_surface({"builtin": "torus"})
        with pytest.raises(SchemaError):
            load_surface({"name": "n", "dim": 2, "chart": ["u[0]"],
                          "domain": {"lo": [0, 0], "hi": [1, 1]}})


def test_flag_invariants_enforced():
    with pytest.raises(ValueError):
        immersion.ImmersionFlags(centro_affine=True, equiaffine=False,
                                 nondegenerate=True, blaschke=True,
                                 improper_hypersphere=False,
                                 proper_hypersphere=False)
    with pytest.raises(ValueError):
        immersion.ImmersionFlags(centro_affine=True, equiaffine=True,
                                 nondegenerate=True, blaschke=True,
                                 improper_hypersphere=True,
                                 proper_hypersphere=True)
