import math

import numpy as np
import pytest

from igeo import dualflat, infogeo, models, submanifold
from igeo.errors import OutOfDomain, SchemaError
from igeo.models import (CATALOG, Box, SampleSpace, StatisticalModel,
                         load_model, log_density, reference_grid,
                         validate_model)
from igeo.numerics import ExpectationRule, expect, node_quadrature

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

GH_NORMAL = {
    "name": "gh-normal", "dim": 2,
    "space": {"kind": "real-line",
              "quadrature": {"kind": "gauss-hermite", "nodes": 40, "scale": 2.0}},
    "domain": {"lo": [-1.0, 0.5], "hi": [1.0, 2.0]},
    "log_density": "-(x[0] - theta[0])^2/(2*theta[1]^2) - log(theta[1])"
                   " - 0.9189385332046727",
}


def _contract_models(mc_location):
    out = [factory() for factory in CATALOG.values()]
    out += [dualflat.family_model(factory()) for factory in dualflat.FAMILIES.values()]
    out += [load_model(GH_NORMAL), mc_location()]
    out.append(submanifold.composed_model(submanifold.load_embedding(
        {"ambient": "normal-natural", "map": ["-0.5 + 0.2*u[0]^2", "u[0]"],
         "domain": {"lo": [-1.0], "hi": [1.0]}})))
    return out


class TestBatchContract:
    """log_density maps theta (..., dim) to (..., N), row for row."""

    def test_rows_equal_single_points(self, mc_location):
        rng = np.random.default_rng(8)
        for model in _contract_models(mc_location):
            xs = node_quadrature(model.space)[0]
            lo, hi = np.array(model.domain.lo), np.array(model.domain.hi)
            TH = lo + (hi - lo) * rng.uniform(0.05, 0.95, (7, model.dim))
            batch = model.log_density(xs, TH)
            assert batch.shape == (7, len(xs)), model.label
            for r in range(7):
                assert np.array_equal(batch[r], model.log_density(xs, TH[r])), \
                    (model.label, r)

    def test_pointwise_log_density_is_refused(self):
        """A log-density that ignores the batch axis gives a ValueError that
        names the contract, not a wrong derivative."""
        pointwise = StatisticalModel(
            space=SampleSpace.finite([[0.0], [1.0], [2.0]]), dim=1,
            domain=Box((-1.0,), (1.0,)),
            log_density=lambda x, th: x[..., 0] * th[0], label="pointwise")
        contract = r"theta \(\.\.\., dim\) -> \(\.\.\., N\)"
        with pytest.raises(ValueError, match=contract):
            models.score_matrix(pointwise, (0.2,), pointwise.space.points)
        with pytest.raises(ValueError, match=contract):
            models.second_log_derivs(pointwise, (0.2,), pointwise.space.points)


class TestLogDensity:
    def test_normal_natural_at_standard_point(self, normal_natural_model):
        # l(0; (-1/2, 0)) = -K = -log(2 pi)/2
        val = log_density(normal_natural_model, 0.0, (-0.5, 0.0))
        assert val == pytest.approx(-HALF_LOG_2PI, abs=1e-12)

    def test_bernoulli_at_zero(self, bernoulli_model):
        assert log_density(bernoulli_model, 1.0, (0.0,)) == \
            pytest.approx(-math.log(2.0), abs=1e-14)

    def test_normalization_across_catalog(self):
        for name, factory in CATALOG.items():
            model = factory()
            theta = reference_grid(name)[0]
            total = expect(model.space, model.density(theta),
                           lambda x: np.ones(len(x)))
            assert total == pytest.approx(1.0, abs=model.tolerance), name

    def test_out_of_domain(self, normal_natural_model):
        with pytest.raises(OutOfDomain):
            log_density(normal_natural_model, 0.0, (0.5, 0.0))

    def test_score_zero_mean_across_catalog(self):
        # differentiating the normalization: E[score_i] = 0
        for name, factory in CATALOG.items():
            model = factory()
            for theta in reference_grid(name):
                weight = model.density(theta)
                for i in range(model.dim):
                    mean = expect(model.space, weight,
                                  lambda x, i=i: models.score_matrix(
                                      model, theta, x)[i])
                    assert abs(mean) < model.tolerance, (name, theta, i)

    def test_score_scalar_api(self, bernoulli_model):
        # score of bernoulli at x=1, theta=0 is 1 - p = 0.5
        s = models.score_matrix(bernoulli_model, (0.0,), np.array([[1.0]]))
        assert s.shape == (1, 1)
        assert s[0, 0] == pytest.approx(0.5, abs=1e-9)


def reference_ll(log_q, k):
    """The location log-density evaluated at every node: log q of each
    coordinate's offsets, summed over the axes in order."""

    def ll(x, th):
        total = log_q(x[..., 0] - th[..., 0, None])
        for i in range(1, k):
            total += log_q(x[..., i] - th[..., i, None])
        return total

    return ll


class TestLocationFamily:
    """On its own Gauss-Hermite nodes log q runs on the axis nodes of each
    coordinate and the axes meet in one broadcast sum; anywhere else it runs
    per entry.  Both are bit for bit the per-node formula."""

    @staticmethod
    def samples(model, rng):
        k = model.space.xdim
        nodes = node_quadrature(model.space)[0]
        repeated = rng.choice([-1.25, -0.5, 0.0, 0.3, 2.0], size=(300, k))
        distinct = rng.normal(0.0, 2.0, (300, k))
        zeros = np.array([[0.0] * k, [-0.0] * k, [0.0, -0.0][:k], [-0.0, 0.0][:k],
                          [0.7] * k, [-0.0] * k])
        return {"nodes": nodes, "repeated": repeated, "distinct": distinct,
                "zeros": zeros}

    @pytest.mark.parametrize("q", ["logistic", "gaussian"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_the_per_node_formula(self, q, k):
        rng = np.random.default_rng(10)
        model = models.location_family(q, k)
        log_q = models._log_q_logistic if q == "logistic" else models._log_q_gaussian
        reference = reference_ll(log_q, k)
        rows = np.concatenate([rng.uniform(-1.4, 1.4, (11, k)),
                               np.zeros((1, k)), np.full((1, k), -0.0)])
        assert len(np.unique(rows, axis=0)) == 12
        for name, x in self.samples(model, rng).items():
            for th in [rows, rows[0], rows[-1]]:
                got, want = model.log_density(x, th), reference(x, th)
                assert got.shape == want.shape == th.shape[:-1] + (len(x),)
                assert np.array_equal(got, want), (name, th.shape)
                assert got.tobytes() == want.tobytes(), (name, th.shape)

    def test_a_jet_evaluates_distinct_coordinates_only(self, monkeypatch):
        """One logistic-location-2 jet (13 theta rows on the 64^2
        Gauss-Hermite nodes) calls log q on 13 x 64 values per axis, not
        13 x 4096."""
        sizes = []
        real = models._log_q_logistic

        def log_q(y):
            sizes.append(y.shape)
            return real(y)

        monkeypatch.setattr(models, "_log_q_logistic", log_q)
        model = models.location_family("logistic", 2)
        xs = node_quadrature(model.space)[0]
        assert xs.shape == (4096, 2)
        models.log_density_jet(model, np.array([0.2, -0.3]), xs)
        assert sizes == [(13, 64), (13, 64)]

    @pytest.mark.parametrize("nodes", ["33", "48"])
    @pytest.mark.parametrize("q", ["logistic", "gaussian"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_own_nodes_equal_the_per_node_formula(self, monkeypatch, nodes, q, k):
        """33 nodes put one at 0; theta as a point, as rows and as rows
        with an extra leading axis."""
        monkeypatch.setenv("IGEO_QUAD_NODES", nodes)
        model = models.location_family(q, k)
        log_q = models._log_q_logistic if q == "logistic" else models._log_q_gaussian
        reference = reference_ll(log_q, k)
        x = node_quadrature(model.space)[0]
        n = int(nodes)
        assert x.shape == (n ** k, k)
        assert (0.0 in x) == (n % 2 == 1)
        rng = np.random.default_rng(15)
        rows = np.concatenate([rng.uniform(-1.4, 1.4, (12, k)), np.zeros((1, k))])
        for th in [rows[0], rows, rows[:12].reshape(3, 4, k)]:
            got, want = model.log_density(x, th), reference(x, th)
            assert got.shape == want.shape == th.shape[:-1] + (len(x),)
            assert got.tobytes() == want.tobytes(), th.shape

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_copy_of_the_nodes_takes_the_per_entry_path(self, monkeypatch, k):
        sizes = []
        real = models._log_q_logistic

        def log_q(y):
            sizes.append(y.shape)
            return real(y)

        monkeypatch.setattr(models, "_log_q_logistic", log_q)
        model = models.location_family("logistic", k)
        nodes = node_quadrature(model.space)[0]
        th = np.random.default_rng(3).uniform(-1.4, 1.4, (13, k))
        own = model.log_density(nodes, th)
        assert sizes == [(13, 64)] * k
        copy = model.log_density(nodes.copy(), th)
        assert sizes[k:] == [(13, 64 ** k)] * k
        assert copy.tobytes() == own.tobytes()

    def test_no_unique_in_a_jet_or_validation(self, monkeypatch):
        def unique(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", unique)
        model = models.location_family("logistic", 2)
        models.log_density_jet(model, np.array([0.2, -0.3]),
                               node_quadrature(model.space)[0])
        rep = validate_model(model, reference_grid("logistic-location-2"))
        assert rep.passed
        assert all(e.smooth and not e.reason for e in rep.entries)


class TestValidateModel:
    def test_normal_passes(self, normal_model):
        rep = validate_model(normal_model, [(0.0, 1.0), (1.0, 2.0)])
        assert rep.passed
        assert max(e.normalization_residual for e in rep.entries) < 1e-6

    def test_bernoulli_zero_residual(self, bernoulli_model):
        rep = validate_model(bernoulli_model, [(-2.0,), (0.0,), (2.0,)])
        assert rep.passed
        assert max(e.normalization_residual for e in rep.entries) < 1e-14

    def test_unnormalized_density_fails(self):
        # exp(-x^2) integrates to sqrt(pi), residual |sqrt(pi) - 1|
        rule = ExpectationRule.gauss_hermite(64, scale=1.5)
        bad = StatisticalModel(
            space=SampleSpace.real_line(rule), dim=1,
            domain=Box((-1.0,), (1.0,)),
            log_density=lambda x, th: -(x[..., 0] - th[..., 0, None]) ** 2,
            label="unnormalized")
        rep = validate_model(bad, [(0.0,)])
        assert not rep.passed
        assert rep.entries[0].normalization_residual == \
            pytest.approx(math.sqrt(math.pi) - 1.0, abs=1e-6)

    def test_probe_failure_leaves_a_reason(self):
        space = SampleSpace.real_line(
            ExpectationRule.monte_carlo(nodes=512, seed=3, scale=1.5))
        probe = models.quadrature_sample(space)

        def ll(x, th):
            if x.shape == probe.shape and np.array_equal(x, probe):
                raise RuntimeError("probe rejected")
            return -0.5 * (x[..., 0] - th[..., 0, None]) ** 2 - 0.5 * math.log(2 * math.pi)

        model = StatisticalModel(space=space, dim=1, domain=Box((-1.0,), (1.0,)),
                                 log_density=ll, label="probe-raises")
        entry, = validate_model(model, [(0.0,)]).entries
        assert entry.smooth is False
        assert entry.reason == "RuntimeError: probe rejected"
        assert math.isfinite(entry.normalization_residual)

    def test_catalog_reference_grids(self):
        for name, factory in CATALOG.items():
            model = factory()
            rep = validate_model(model, reference_grid(name))
            assert rep.passed, (name, [e.normalization_residual for e in rep.entries])
            assert all(e.smooth and not e.reason for e in rep.entries), name
            assert all(e.score_gram_condition < 1e12 for e in rep.entries), name


class TestCatalog:
    def test_poisson_truncation_mass(self):
        model = CATALOG["poisson-natural"]()
        lam = math.exp(2.4)
        pts = model.space.points[:, 0]
        from scipy import stats
        mass = stats.poisson.cdf(pts.max(), lam)
        assert mass > 1.0 - 1e-10

    def test_poisson_support_cutoff(self):
        """The support ends two past the 1e-12 upper quantile at the largest
        rate, 44 at e^2.5, where scipy.stats.poisson.isf puts it."""
        from scipy import stats
        points = CATALOG["poisson-natural"]().space.points[:, 0]
        assert np.array_equal(points, np.arange(44 + 3))
        assert int(stats.poisson.isf(1e-12, math.exp(2.5))) == 44

    def test_categorical_dimensions(self):
        model = models.categorical_natural(3)
        assert model.dim == 3
        assert len(model.space.points) == 4

    def test_location_family_variants(self):
        for q in ("logistic", "gaussian"):
            for k in (1, 2):
                model = models.location_family(q, k)
                assert model.dim == k
        with pytest.raises(ValueError):
            models.location_family("cauchy", 1)
        with pytest.raises(ValueError):
            models.location_family("logistic", 3)

    def test_quad_nodes_env_override(self, monkeypatch):
        monkeypatch.setenv("IGEO_QUAD_NODES", "48")
        model = models.normal_mean_sigma()
        assert model.space.rule.nodes == 48
        monkeypatch.setenv("IGEO_QUAD_NODES", "zero")
        with pytest.raises(SchemaError):
            models.normal_mean_sigma()

    @pytest.mark.parametrize("nodes", ["0", "371", "1e300"])
    def test_quad_nodes_env_takes_the_spec_bound(self, monkeypatch, nodes):
        """IGEO_QUAD_NODES is read as a spec's Gauss-Hermite nodes are: from
        1 to 370, where 371 nodes gave NaN weights."""
        monkeypatch.setenv("IGEO_QUAD_NODES", nodes)
        with pytest.raises(SchemaError, match="^IGEO_QUAD_NODES must be from 1 to 370$"):
            models.normal_mean_sigma()
        monkeypatch.setenv("IGEO_QUAD_NODES", "370")
        assert models.normal_mean_sigma().space.rule.nodes == 370

    def test_spec_node_count_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("IGEO_QUAD_NODES", "48")
        quad = {"kind": "gauss-hermite", "nodes": 20}
        space = models.space_from_doc({"kind": "real-line", "quadrature": quad})
        assert space.rule.nodes == 20
        quad.pop("nodes")
        space = models.space_from_doc({"kind": "real-line", "quadrature": quad})
        assert space.rule.nodes == 48


class TestNormalQuantiles:
    """normal_quantiles equals scipy.stats.norm.ppf bit for bit."""

    # the q grids of quadrature_sample (25 points) and probe_points (8 or
    # more per axis in 1-d, ceil(count ** (1/xdim)) per axis otherwise)
    Q_GRIDS = [np.linspace(0.02, 0.98, 25)] + [
        np.linspace(0.05, 0.95, n) for n in (2, 3, 4, 8, 9, 10, 16, 25)]

    def rules(self):
        # every builtin's rule, and Monte Carlo rules with loc 0 and scale
        # 2*s, s in [0.8, 1.25], as the model-grid benchmark draws them
        rng = np.random.default_rng(5)
        scales = np.concatenate([[1.6, 2.5], 2.0 * rng.uniform(0.8, 1.25, 200)])
        return ([factory().space.rule for factory in CATALOG.values()]
                + [ExpectationRule.monte_carlo(4096, seed=1, scale=float(s))
                   for s in scales]
                + [ExpectationRule.gauss_hermite(8, loc=float(loc), scale=float(s))
                   for loc, s in zip(rng.uniform(-3, 3, 200), rng.uniform(0.05, 5, 200))])

    def test_equals_norm_ppf(self):
        from scipy import stats
        for rule in self.rules():
            for q in self.Q_GRIDS:
                want = stats.norm.ppf(q, loc=rule.loc, scale=rule.scale)
                assert np.array_equal(models.normal_quantiles(rule, q), want), rule

    def test_sample_spreads_use_it(self):
        from igeo.submanifold import probe_points
        rule = ExpectationRule.monte_carlo(4096, seed=1, loc=0.3, scale=2.1)
        for k in (1, 2):
            space = SampleSpace.real(k, rule)
            x25 = models.normal_quantiles(rule, np.linspace(0.02, 0.98, 25))
            assert np.array_equal(models.quadrature_sample(space)[:, -1],
                                  np.tile(x25, 25 ** (k - 1)))
            per_axis = 8 if k == 1 else 3
            x = models.normal_quantiles(rule, np.linspace(0.05, 0.95, per_axis))
            assert np.array_equal(probe_points(space)[:, -1],
                                  np.tile(x, per_axis ** (k - 1)))


class TestLoadModel:
    def test_builtin_reference(self):
        model = load_model({"builtin": "normal-natural"})
        assert model.label == "normal-natural"

    def test_expression_model_matches_catalog(self, bernoulli_model):
        doc = {
            "name": "bernoulli-expr",
            "dim": 1,
            "space": {"kind": "finite-discrete", "points": [[0.0], [1.0]]},
            "domain": {"lo": [-6.0], "hi": [6.0]},
            "log_density": "x[0]*theta[0] - log(1 + exp(theta[0]))",
        }
        model = load_model(doc)
        xs = model.space.points
        for theta in ((-2.0,), (0.0,), (2.0,)):
            got = model.log_density(xs, np.asarray(theta))
            want = bernoulli_model.log_density(xs, np.asarray(theta))
            assert np.abs(got - want).max() < 1e-12

    def test_missing_dim_is_schema_error(self):
        with pytest.raises(SchemaError):
            load_model({"name": "broken", "space": {"kind": "real-line"},
                        "domain": {"lo": [0.0], "hi": [1.0]},
                        "log_density": "x[0]"})

    def test_unknown_builtin(self):
        with pytest.raises(SchemaError):
            load_model({"builtin": "students-t"})

    def test_domain_mismatch(self):
        with pytest.raises(SchemaError):
            load_model({"name": "m", "dim": 2,
                        "space": {"kind": "finite-discrete",
                                  "points": [[0.0], [1.0]]},
                        "domain": {"lo": [0.0], "hi": [1.0]},
                        "log_density": "x[0]*theta[0]"})


class TestCheckTheta:
    @pytest.mark.parametrize("subject, name", [
        (models.normal_natural, "normal-natural"),
        (dualflat.normal_natural_family, "family normal-natural")])
    def test_model_and_family_share_the_box_check(self, subject, name):
        subject = subject()
        assert np.array_equal(subject.check_theta((-0.5, 0.1)), [-0.5, 0.1])
        for theta in ((0.5, 0.0), (-0.5,), (-0.5, 0.0, 1.0)):
            with pytest.raises(OutOfDomain, match=f"outside domain of {name}$"):
                subject.check_theta(theta)

    def test_memo_hit_makes_no_domain_test(self, monkeypatch):
        model = models.normal_natural()
        theta = (-0.5, 0.1)
        g = infogeo.fisher_metric(model, theta)
        low = infogeo.alpha_connection(model, theta, 1.0)
        tests = []
        real = Box.contains
        monkeypatch.setattr(Box, "contains",
                            lambda self, *a, **k: tests.append(1) or real(self, *a, **k))
        again = infogeo.fisher_metric(model, theta)
        assert np.array_equal(again, g) and np.shares_memory(again, g)
        assert np.array_equal(infogeo.alpha_connection(model, theta, -1.0),
                              infogeo.alpha_connection(model, theta, -1.0))
        assert np.array_equal(infogeo.alpha_connection(model, theta, 1.0), low)
        assert tests == []
        infogeo.alpha_connection(model, (-0.4, 0.1), 1.0)  # a miss tests theta
        assert tests == [1]
        for bad in ((0.5, 0.0), (-0.5,)):
            with pytest.raises(OutOfDomain):
                infogeo.fisher_metric(model, bad)
            with pytest.raises(OutOfDomain):
                infogeo.alpha_connection(model, bad, 1.0)


class TestSampleSpace:
    def test_finite_needs_two_distinct_points(self):
        with pytest.raises(ValueError):
            SampleSpace.finite([[1.0], [1.0]])

    def test_real_needs_quadrature(self):
        with pytest.raises(ValueError):
            SampleSpace(kind="real-line", xdim=1, rule=ExpectationRule.exact())

    @pytest.mark.parametrize("rule", [ExpectationRule.monte_carlo(64, seed=1),
                                      ExpectationRule.gauss_hermite(8),
                                      ExpectationRule.adaptive()])
    def test_finite_takes_only_the_exact_sum(self, rule):
        with pytest.raises(ValueError):
            SampleSpace(kind="finite-discrete", xdim=1, rule=rule,
                        points=np.array([[0.0], [1.0]]))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        box = Box((0.0, 0.0), (1.0, 2.0))
        assert box.contains((0.5, 1.0))
        assert not box.contains((0.5, 2.5))
        assert not box.contains((0.5,))

    def test_grid_allows_flat_axes(self):
        # spec grids may pin a coordinate (lo == hi), which Box rejects
        pts = models.grid((0.0, 1.0), (0.0, 2.0), (1, 3))
        assert [p.tolist() for p in pts] == [[0.0, 1.0], [0.0, 1.5], [0.0, 2.0]]
