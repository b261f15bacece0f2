import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeo import immersion
from igeo.errors import (DegenerateH, OutOfDomain, SchemaError, SingularFrame,
                         StencilOutOfDomain)
from igeo.immersion import (Hypersurface, classify, decompose, gamma_field,
                            h_field, induced_derivative, induced_volume_check, load_surface,
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
        from igeo.numerics import stencil
        from test_numerics import reference_derive
        surf = unit_sphere()
        u = np.array([0.25, 0.15])
        data = decompose(surf, u)

        def partial(index, scheme):
            got = stencil(surf.chart, u, [(index, scheme)])[0]
            assert np.array_equal(got, reference_derive(surf.chart, u, index, scheme))
            return got

        J = np.column_stack([partial((i,), immersion.CHART_SCHEME_1) for i in range(2)])
        xi = surf.transversal(u)
        for i in range(2):
            for j in range(2):
                dd = partial((i, j), immersion.CHART_SCHEME_2)
                rebuilt = J @ data.gamma[i, j] + data.h[i, j] * xi
                assert np.abs(rebuilt - dd).max() < 1e-9

    def test_transversality_failure(self):
        # transversal chosen inside the tangent plane
        surf = Hypersurface(
            chart=lambda u: np.stack([u[..., 0], u[..., 1], 0.0 * u[..., 0]], axis=-1),
            transversal=lambda u: np.broadcast_to([1.0, 0.0, 0.0], u.shape[:-1] + (3,)),
            domain=Box((-1.0, -1.0), (1.0, 1.0)), dim=2, label="bad")
        with pytest.raises(SingularFrame):
            decompose(surf, (0.0, 0.0))

    def test_matches_per_partial_reference(self):
        """One stencil and one factorization give the bits of the chart and
        transversal derivatives, each order its own stencil, solved one
        right-hand side at a time."""
        from igeo.numerics import partials, stencil, symmetric
        s1, s2 = partials(2, 1, immersion.CHART_SCHEME_1), partials(2, 2, immersion.CHART_SCHEME_2)
        for surf in (unit_sphere(), tilted_paraboloid(), load_surface(INLINE)):
            for u in GRID[::2]:
                df = np.array(stencil(surf.chart, u, s1, surf.domain))
                frame = np.column_stack([*df, surf.transversal(u)])
                d2f = symmetric(stencil(surf.chart, u, s2, surf.domain), 2)
                dxi = np.array(stencil(surf.transversal, u, s1, surf.domain))
                coeff = np.array([[np.linalg.solve(frame, d2f[i, j]) for j in range(2)]
                                  for i in range(2)])
                shape = np.column_stack([np.linalg.solve(frame, r) for r in dxi])
                data = decompose(surf, u)
                assert np.array_equal(data.gamma, coeff[..., :2])
                assert np.array_equal(data.h, coeff[..., 2])
                assert np.array_equal(data.shape_operator, -shape[:2])
                assert np.array_equal(data.alpha_form, shape[2])
                assert data.volume == float(np.linalg.det(frame))

    def test_one_stencil_and_one_condition_per_point(self, monkeypatch):
        """One stencil and one condition test per decomposition, taken by
        one stacked inverse, with no SVD on these well-conditioned frames."""
        calls = {"stencil": 0, "cond": 0, "inv": 0}
        real = {"stencil": immersion.stencil, "cond": np.linalg.cond, "inv": np.linalg.inv}

        def counted(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)
            return call

        monkeypatch.setattr(immersion, "stencil", counted("stencil"))
        monkeypatch.setattr(np.linalg, "cond", counted("cond"))
        monkeypatch.setattr(np.linalg, "inv", counted("inv"))
        for make in (unit_sphere, tilted_paraboloid):
            surf = make()
            for u in GRID[:4]:
                decompose(surf, u)
        assert calls == {"stencil": 8, "cond": 0, "inv": 8}

    def test_nested_batch_takes_one_chart_call(self):
        """induced_derivative on a 3x3 grid decomposes the grid and its 72
        field nodes in one chart call of 81 x 17 node rows, and decompose
        then reads the grid from the memo: every kind of node row once per
        point, none dropped across points."""
        sphere = unit_sphere()
        calls = []
        surf = Hypersurface.centro_affine(
            lambda U: calls.append(len(U)) or sphere.chart(U), sphere.domain, 2)
        grid = np.array(GRID)
        induced_derivative(surf, grid)
        decompose(surf, grid)
        assert calls == [1377]

    def test_centro_affine_takes_one_chart_call(self):
        """xi = -f comes from the chart values of the same batch: one chart
        call per decomposition, with the bits of a separate transversal."""
        sphere = unit_sphere()
        calls = []

        def chart(U):
            calls.append(np.shape(U))
            return sphere.chart(U)

        surf = Hypersurface.centro_affine(chart, sphere.domain, 2)
        separate = Hypersurface(chart=sphere.chart,
                                transversal=lambda U: -np.asarray(sphere.chart(U), float),
                                domain=sphere.domain, dim=2)
        for u in GRID[:3]:
            data, want = decompose(surf, u), decompose(separate, u)
            for name in ("gamma", "h", "shape_operator", "alpha_form", "volume"):
                assert np.array_equal(getattr(data, name), getattr(want, name))
        assert len(calls) == 3
        # a transversal left over from another chart is still called
        moved = dataclasses.replace(sphere, chart=scaled_sphere(2.0).chart)
        other = Hypersurface(chart=scaled_sphere(2.0).chart, transversal=separate.transversal,
                             domain=sphere.domain, dim=2)
        assert np.array_equal(decompose(moved, GRID[1]).h, decompose(other, GRID[1]).h)

    def test_centro_affine_lift_potential_calls(self, monkeypatch):
        from igeo import dualflat
        """One chart call per stencil, and under a node rule one
        ``_potentials`` call per chart call, for all its nodes."""
        calls = []
        real = dualflat._potentials
        monkeypatch.setattr(dualflat, "_potentials",
                            lambda family, th: calls.append(len(th)) or real(family, th))
        lift = dualflat.centro_affine_lift(dualflat.bernoulli_natural_family())
        decompose(lift, (0.2,))
        assert calls == [5]

    def test_sphere_outside_unit_disk(self):
        # the declared box (-0.8, 0.8)^2 reaches past the unit disk
        with pytest.raises(OutOfDomain, match=r"unit disk only, got u = \[0.75, 0.75\]"):
            decompose(unit_sphere(), (0.75, 0.75))
        with pytest.raises(OutOfDomain, match=r"got u = \[-0.75, 0.75\]"):
            unit_sphere().chart(np.array([-0.75, 0.75]))
        batch = np.array([[0.1, 0.2], [0.7, -0.75], [0.75, 0.75]])
        with pytest.raises(OutOfDomain, match=r"got u = \[0.7, -0.75\]"):
            unit_sphere().chart(batch)


def _box_points(box, size):
    """Up to ``size`` points drawn inside ``box``, as an (M, dim) array."""
    point = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(box.lo, box.hi)))
    return st.lists(point, min_size=1, max_size=size).map(np.array)


DISK_POINTS = _box_points(Box((-0.8, -0.8), (0.8, 0.8)), 6).filter(
    lambda U: bool(((U * U).sum(axis=1) < 1.0).all()))

INLINE = {"name": "inline", "dim": 2,
          "chart": ["u[0]", "1", "exp(u[0]) * u[1] - sqrt(2 + u[1]^2)"],
          "transversal": ["u[1]", "-1", "1 + u[0]*u[1]"],
          "domain": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}}


class TestBatchedCharts:
    """Every chart and transversal maps a batch (M, n) to the rows of its
    one-point values, bit for bit."""

    @staticmethod
    def assert_rowwise(surf, U):
        for fn in (surf.chart, surf.transversal):
            batch = fn(U)
            assert batch.shape == (len(U), surf.dim + 1)
            assert np.array_equal(batch, np.array([fn(u) for u in U]))

    @given(DISK_POINTS)
    @settings(max_examples=30, deadline=None)
    def test_spheres(self, U):
        for surf in (unit_sphere(), scaled_sphere(2.5)):
            self.assert_rowwise(surf, U)

    @given(_box_points(Box((-2.0, -2.0), (2.0, 2.0)), 6))
    @settings(max_examples=30, deadline=None)
    def test_builtins_and_inline(self, U):
        inline_ca = load_surface({**INLINE, "transversal": "centro-affine"})
        for surf in (paraboloid(), tilted_paraboloid(), plane(),
                     load_surface(INLINE), inline_ca):
            self.assert_rowwise(surf, U)


# the graph of a convex potential with the constant transversal e3
POTENTIAL_GRAPH = {"name": "potential-graph", "dim": 2,
                   "chart": ["u[0]", "u[1]", "log(1 + exp(u[0]) + exp(u[1]))"],
                   "transversal": ["0", "0", "1"],
                   "domain": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}}

# h = diag(u0, e^u1) degenerates on u0 = 0; the transversal is not constant
CUBIC = {"name": "cubic", "dim": 2, "chart": ["u[0]", "u[1]", "u[0]^3/6 + exp(u[1])"],
         "transversal": ["0.2*u[1]", "0", "1"], "domain": {"lo": [-1, -1], "hi": [1, 1]}}


def _middle_grid(surf) -> np.ndarray:
    """3 points per axis over the middle half of the surface's box."""
    lo, hi = np.asarray(surf.domain.lo), np.asarray(surf.domain.hi)
    return np.array(Box(tuple(lo + (hi - lo) / 4), tuple(hi - (hi - lo) / 4)).grid([3] * surf.dim))


def _batch_surfaces() -> list:
    """Every builtin surface, inline charts (one centro-affine, two with a
    non-constant transversal) and both realizations of both builtin families."""
    from igeo import dualflat
    out = [make() for make in immersion.SURFACES.values()]
    out += [load_surface(INLINE), load_surface({**INLINE, "transversal": "centro-affine"}),
            load_surface(CUBIC)]
    for family in (dualflat.normal_natural_family(), dualflat.bernoulli_natural_family()):
        out += [dualflat.graph_realization(family), dualflat.centro_affine_lift(family)]
    return out


class TestBatchedGrid:
    """A grid is one batch, decomposed by one stencil of (f, xi) and one
    stacked solve; every point keeps the bits of a one-point call."""

    @pytest.mark.parametrize("surf", _batch_surfaces(), ids=lambda s: s.label)
    def test_equal_one_point_calls(self, surf):
        rows = _middle_grid(surf)
        batch, deriv = decompose(surf, rows), induced_derivative(surf, rows)
        assert batch.gamma.shape == (len(rows),) + (surf.dim,) * 3
        assert deriv.gamma.shape == (len(rows),) + (surf.dim,) * 4
        single = dataclasses.replace(surf)  # an empty memo
        for p, u in enumerate(rows):
            assert batch.packed[p].tobytes() == decompose(single, u).packed.tobytes()
            assert deriv.packed[p].tobytes() == induced_derivative(single, u).packed.tobytes()
        for name in ("gamma", "h", "shape_operator", "alpha_form", "volume", "f", "xi"):
            assert getattr(batch, name).tobytes() == np.array(
                [getattr(decompose(single, u), name) for u in rows]).tobytes()

    @pytest.mark.parametrize("surf", [unit_sphere(), load_surface(INLINE), load_surface(CUBIC)],
                             ids=lambda s: s.label)
    def test_derivative_is_the_gradient_of_one_point_data(self, surf):
        """The field stencil over the grid, its nodes decomposed in one
        batch, gives the bits of the pointwise route: the stencil of the
        first partials at one point, its nodes decomposed one by one."""
        from igeo.numerics import partials, stencil
        n = surf.dim
        width = n**3 + 2 * n * n + n + 1
        rows = _middle_grid(surf)
        deriv = induced_derivative(surf, rows)
        nodewise = lambda V: np.array([decompose(dataclasses.replace(surf), v).packed[:width]
                                       for v in V])
        for p, u in enumerate(rows):
            ref = np.array(stencil(nodewise, u, partials(n, 1, immersion.SURFACE_FIELD_SCHEME),
                                   surf.domain))
            assert deriv.packed[p].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("surf", _batch_surfaces(), ids=lambda s: s.label)
    def test_residuals_equal_one_point_calls(self, surf):
        def volume(surf, u):  # with a NaN gap where h is degenerate
            try:
                return induced_volume_check(surf, u)
            except DegenerateH as exc:
                return exc.partial

        rows = _middle_grid(surf)
        r, v = structural_check(surf, rows), volume(surf, rows)
        testable = not np.isnan(v.blaschke_gap).any()
        stat = statistical_structure(surf, rows) if testable else None
        single = dataclasses.replace(surf)
        for p, u in enumerate(rows):
            one = structural_check(single, u)
            for name in ("gauss", "codazzi_h", "codazzi_s", "ricci"):
                assert getattr(r, name)[p] == getattr(one, name), name
            w = volume(single, u)
            assert v.transport_residual[p] == w.transport_residual
            assert np.float64(v.blaschke_gap[p]).tobytes() == np.float64(w.blaschke_gap).tobytes()
            if testable:
                assert stat.codazzi_residual[p] == \
                    statistical_structure(single, [u]).codazzi_residual[0]

    def test_memo_holds_the_grid_points_only(self):
        surf, rows = tilted_paraboloid(), GRID
        structural_check(surf, np.array(rows))
        induced_volume_check(surf, np.array(rows))
        statistical_structure(surf, rows)
        classify(surf, rows)
        def unstored(rows):
            raise AssertionError("a grid point is not stored")

        names = ("decompose", "induced_derivative")
        assert len(surf.memo) == len(names) * len(rows)
        for name in names:
            surf.memo.rows(np.array(rows), lambda b, name=name: (name, b), unstored)

    def test_empty_grid_is_refused(self):
        for check in (classify, statistical_structure):
            with pytest.raises(ValueError, match="the grid holds no point"):
                check(unit_sphere(), [])

    def test_first_degenerate_point_is_named(self):
        surf = load_surface(CUBIC)
        rows = _middle_grid(surf)
        with pytest.raises(DegenerateH, match=r"at u=\[0.0, -0.5\]$") as batch:
            statistical_structure(surf, rows)
        single = dataclasses.replace(surf)
        first = None
        for u in rows:
            try:
                statistical_structure(single, [u])
            except DegenerateH as exc:
                first = first or str(exc)
        assert str(batch.value) == first
        # the volume check names the same point and carries every point's check
        with pytest.raises(DegenerateH, match=r"at u=\[0.0, -0.5\]; volume") as vol:
            induced_volume_check(surf, rows)
        gaps = vol.value.partial.blaschke_gap
        assert np.isnan(gaps).tolist() == [u[0] == 0.0 for u in rows]
        assert vol.value.partial.transport_residual.shape == (len(rows),)


class TestStructural:
    def test_sphere_residuals(self):
        surf = unit_sphere()
        for u in GRID:
            r = structural_check(surf, u)
            assert max(dataclasses.astuple(r)) < 1e-6, (u, r)

    def test_paraboloid_residuals(self):
        surf = paraboloid()
        r = structural_check(surf, (0.3, 0.4))
        assert max(dataclasses.astuple(r)) < 1e-8

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
            assert statistical_structure(surf, [u]).codazzi_residual[0] == \
                codazzi_check(h_field(surf), gamma_field(surf), u, scheme=scheme)

    def test_structural_check_decomposes_each_stencil_node_once(self, monkeypatch):
        batches = []
        real = immersion._decompose

        def counting(surface, U):
            batches.append([tuple(u) for u in U])
            return real(surface, U)

        monkeypatch.setattr(immersion, "_decompose", counting)
        structural_check(unit_sphere(), (0.2, 0.3))
        # the point itself and its 2 nodes x 2 Richardson levels per
        # coordinate, in one batch
        assert [len(b) for b in batches] == [1 + 4 * 2]
        seen = [u for b in batches for u in b]
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("point", [False, True], ids=["3x3", "point"])
    @pytest.mark.parametrize("surf", [unit_sphere(), tilted_paraboloid(),
                                      load_surface(POTENTIAL_GRAPH)], ids=lambda s: s.label)
    def test_value_rows_are_the_decomposition(self, surf, point, monkeypatch):
        """One ``_decompose`` batch covers the points and their 8 field
        nodes each; ``decompose`` then reads the points from the memo, with
        the bits of a separate call on a fresh surface."""
        surf, rows = dataclasses.replace(surf), _middle_grid(surf)
        rows = rows[4] if point else rows
        batches, real = [], immersion._decompose
        monkeypatch.setattr(immersion, "_decompose",
                            lambda s, U: batches.append(len(U)) or real(s, U))
        induced_derivative(surf, rows)
        data = decompose(surf, rows)
        points = len(np.atleast_2d(rows))
        assert batches == [9 * points]
        assert len(surf.memo) == 2 * points
        monkeypatch.undo()
        assert data.packed.tobytes() == decompose(dataclasses.replace(surf), rows).packed.tobytes()

    @pytest.mark.parametrize("check", [structural_check, induced_volume_check,
                                       statistical_structure], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("u0, u1, error, message", [
        # the chart nodes of the edge row leave the box: the grid's own error
        ((0.2, 0.5, 0.8 - 2**-9), (-0.3, 0.0, 0.3), StencilOutOfDomain,
         "stencil node [0.801953125, -0.3] leaves the declared domain"),
        # only the field nodes leave it: the derivative's error
        ((0.2, 0.5, 0.8 - 2**-7.5), (-0.3, 0.0, 0.3), StencilOutOfDomain,
         "stencil node [0.8022882282719801, -0.3] leaves the declared domain"),
        # chart nodes of the edge row leave the unit disk, inside the box
        ((-0.3, 0.0, 0.7), (-0.3, 0.0, math.sqrt(0.51) - 2**-9), OutOfDomain,
         "sphere chart is defined on the unit disk only, "
         "got u = [0.70390625, 0.712189717854285]"),
    ], ids=["box-2^-9", "box-2^-7.5", "disk-2^-9"])
    def test_edge_grid_errors_as_decompose_then_derivative(self, check, u0, u1, error,
                                                         message):
        """The merged batch raises the error that decomposing the grid and
        then differentiating it raised as two calls: the grid's own first."""
        grid = np.array([(a, b) for a in u0 for b in u1])
        with pytest.raises(error) as exc:
            check(unit_sphere(), grid)
        assert exc.type is error and str(exc.value) == message


class TestAffineInvariance:
    """An affine map of the ambient space, (f, xi) -> (L f + c, L xi),
    leaves Gamma, h, S and alpha unchanged and multiplies eta by det L
    (Nomizu & Sasaki, Affine Differential Geometry, ch. II)."""

    @pytest.mark.parametrize("name", ["sphere", "paraboloid", "paraboloid-tilted"])
    def test_induced_data_and_verdicts(self, name):
        from igeo.cli import CHECKS
        rng = np.random.default_rng(20)
        L = rng.normal(size=(3, 3))
        while np.linalg.cond(L) > 10:
            L = rng.normal(size=(3, 3))
        c = rng.normal(size=3)
        surf = immersion.SURFACES[name]()
        moved = Hypersurface(chart=lambda U: (L @ surf.chart(U)[..., None])[..., 0] + c,
                             transversal=lambda U: (L @ np.asarray(surf.transversal(U))[
                                 ..., None])[..., 0],
                             domain=surf.domain, dim=2)
        rows = _middle_grid(surf)
        a, b = decompose(surf, rows), decompose(moved, rows)
        for field, bound in (("gamma", 1e-8), ("h", 1e-8), ("shape_operator", 1e-11),
                             ("alpha_form", 1e-11)):
            assert np.abs(getattr(b, field) - getattr(a, field)).max() < bound, field
        assert np.abs(b.volume - np.linalg.det(L) * a.volume).max() < 1e-11

        def verdicts(s):
            worst = np.max(dataclasses.astuple(structural_check(s, rows)))
            return (worst < CHECKS["structural"].tolerance,
                    statistical_structure(s, rows, CHECKS["statistical-structure"].tolerance)
                    .is_statistical)

        assert verdicts(moved) == verdicts(surf)


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


class TestClassifyReadsTheStencil:
    """classify takes f and xi from the value row of each point's
    decomposition stencil: one chart and one transversal call per grid."""

    GRAPH = {"name": "graph", "dim": 2,
             "chart": ["u[0]", "u[1]", "0.5*log(-3.141592653589793/u[0]) - u[1]^2/(4*u[0])"],
             "transversal": ["0", "0", "1"],
             "domain": {"lo": [-0.78, -2.0], "hi": [-0.1, 2.0]}}

    def test_one_chart_call_per_point(self):
        base = load_surface(self.GRAPH)
        calls = {"chart": 0, "transversal": 0}

        def counted(name):
            fn = getattr(base, name)
            return lambda U: calls.__setitem__(name, calls[name] + 1) or fn(U)

        surf = dataclasses.replace(base, chart=counted("chart"),
                                   transversal=counted("transversal"))
        grid = Box((-0.6, -1.0), (-0.3, 1.0)).grid([3, 3])
        rep = classify(surf, grid)
        assert calls == {"chart": 1, "transversal": 1}
        assert rep.flags.improper_hypersphere
        for u in grid:
            data = decompose(surf, u)
            assert data.f.tobytes() == np.asarray(base.chart(u), float).tobytes()
            assert data.xi.tobytes() == np.asarray(base.transversal(u), float).tobytes()


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
        assert rep.codazzi_residual.max() < 1e-5

    def test_paraboloid_is_statistical(self):
        rep = statistical_structure(paraboloid(), GRID[:4])
        assert rep.is_statistical
        assert rep.codazzi_residual.max() < 1e-5

    def test_non_equiaffine_transversal_detected(self):
        grid = [np.array([a, b]) for a in (0.2, 0.4) for b in (0.2, 0.4)]
        rep = statistical_structure(tilted_paraboloid(), grid)
        assert not rep.is_statistical
        assert rep.codazzi_residual.max() > 1e-2

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
