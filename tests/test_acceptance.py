"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import re
import time
from pathlib import Path

import numpy as np

from igeo import cli, dualflat, immersion, infogeo, models, submanifold

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c01_fisher_oracle(normal_model, normal_grid):
    t0 = time.perf_counter()
    worst = 0.0
    for mu, sig in normal_grid:
        g = infogeo.fisher_metric(normal_model, (mu, sig))
        closed = np.diag([1.0 / sig ** 2, 2.0 / sig ** 2])
        worst = max(worst, float(np.abs(g - closed).max()))
    elapsed = time.perf_counter() - t0
    report("01 fisher-oracle", worst < 1e-5 and elapsed < 1.0,
           f"max|delta|={worst:.2e}, runtime={elapsed:.2f}s")


def test_c02_alpha_duality(normal_model, bernoulli_model):
    worst = 0.0
    cases = ((normal_model, [(0.0, 1.0), (0.4, 1.3)]),
             (bernoulli_model, [(-1.0,), (0.0,), (1.5,)]))
    for model, thetas in cases:
        gf = infogeo.fisher_field(model)
        for alpha in (-1.0, -0.5, 0.5, 1.0):
            conn = infogeo.alpha_field(model, alpha)
            for theta in thetas:
                conj = infogeo.conjugate_connection(gf, conn, theta)
                direct = infogeo.alpha_connection(model, theta, -alpha)
                worst = max(worst, float(np.abs(conj - direct).max()))
    report("02 alpha-duality", worst < 1e-4, f"max|delta|={worst:.2e}")


def test_c03_e_flatness(normal_natural_model, nn_grid):
    grid = nn_grid[:4]
    plus = infogeo.flatness_check(normal_natural_model, grid, 1.0)
    minus = infogeo.flatness_check(normal_natural_model, grid, -1.0)
    zero = infogeo.flatness_check(normal_natural_model, [grid[1]], 0.0)
    ok = (plus.flat and plus.max_R < 1e-4
          and minus.flat and minus.max_R < 1e-4
          and not zero.flat and zero.max_R > 1e-2)
    report("03 e-flatness", ok,
           f"maxR(+1)={plus.max_R:.2e}, maxR(-1)={minus.max_R:.2e}, "
           f"maxR(0)={zero.max_R:.2e}")


def test_c04_structural_and_classification():
    sphere = immersion.unit_sphere()
    parab = immersion.paraboloid()
    grid_s = [np.array([a, b]) for a in np.linspace(-0.35, 0.35, 5)
              for b in np.linspace(-0.35, 0.35, 5)]
    grid_p = [np.array([a, b]) for a in np.linspace(-1.0, 1.0, 5)
              for b in np.linspace(-1.0, 1.0, 5)]
    worst_s = max(immersion.structural_check(sphere, u).max for u in grid_s)
    worst_p = max(immersion.structural_check(parab, u).max for u in grid_p)

    cs = immersion.classify(sphere, grid_s)
    cp = immersion.classify(parab, grid_p)
    sphere_ok = (cs.flags.centro_affine and cs.flags.equiaffine
                 and cs.flags.nondegenerate and cs.flags.blaschke
                 and cs.flags.proper_hypersphere
                 and abs(cs.flags.lam - 1.0) < 1e-6)
    parab_ok = cp.flags.blaschke and cp.flags.improper_hypersphere
    ok = worst_s < 1e-6 and worst_p < 1e-6 and sphere_ok and parab_ok
    report("04 structural-equations", ok,
           f"sphere residual={worst_s:.2e}, paraboloid residual={worst_p:.2e}, "
           f"sphere lambda={cs.flags.lam}")


def test_c05_statistical_structure_witnesses():
    grid = [np.array([a, b]) for a in (0.15, 0.35) for b in (0.15, 0.35)]
    sphere = immersion.statistical_structure(immersion.unit_sphere(),
                                             grid, tol=1e-5)
    parab = immersion.statistical_structure(immersion.paraboloid(),
                                            grid, tol=1e-5)
    tilted = immersion.statistical_structure(immersion.tilted_paraboloid(),
                                             grid, tol=1e-5)
    ok = (sphere.is_statistical and sphere.codazzi_residual < 1e-5
          and parab.is_statistical and parab.codazzi_residual < 1e-5
          and not tilted.is_statistical and tilted.codazzi_residual > 1e-2)
    report("05 statistical-structure", ok,
           f"sphere={sphere.codazzi_residual:.2e}, "
           f"paraboloid={parab.codazzi_residual:.2e}, "
           f"tilted={tilted.codazzi_residual:.2e}")


def test_c06_graph_realization(bernoulli_family, normal_natural_family,
                               nn_grid):
    worst_h = worst_zero = 0.0
    for family, grid in ((bernoulli_family,
                          [np.array([v]) for v in (-1.0, 0.0, 1.0)]),
                         (normal_natural_family, nn_grid[:5])):
        surf = dualflat.graph_realization(family)
        for theta in grid:
            data = immersion.decompose(surf, theta)
            H = dualflat.hessian_metric(family, theta)
            worst_h = max(worst_h, float(np.abs(data.h - H).max()))
            worst_zero = max(worst_zero,
                             float(np.abs(data.gamma).max()),
                             float(np.abs(data.shape_operator).max()),
                             float(np.abs(data.alpha_form).max()))
    ok = worst_h < 1e-5 and worst_zero < 1e-6
    report("06 graph-realization", ok,
           f"max|h-HessK|={worst_h:.2e}, max|Gamma,S,alpha|={worst_zero:.2e}")


def test_c07_centro_affine_lift(bernoulli_family):
    surf = dualflat.centro_affine_lift(bernoulli_family)
    worst = 0.0
    all_equivalent = True
    for theta in np.linspace(-1.0, 1.0, 5):
        data = immersion.decompose(surf, (theta,))
        res = infogeo.projective_equivalence(np.zeros((1, 1, 1)), data.gamma,
                                             tol=1e-6)
        all_equivalent = all_equivalent and res.equivalent
        rho_expected = -dualflat.dual_coords(bernoulli_family, (theta,))
        worst = max(worst, float(np.abs(res.rho - rho_expected).max()),
                    res.residual)
    ok = all_equivalent and worst < 1e-6
    report("07 centro-affine-lift", ok,
           f"projectively flat={all_equivalent}, max|rho error|={worst:.2e}")


def test_c08_legendre(normal_natural_family, nn_grid):
    theta = np.array([-0.5, 0.0])
    K = dualflat.potential(normal_natural_family, theta)
    eta = dualflat.dual_coords(normal_natural_family, theta)
    phi = dualflat.dual_potential(normal_natural_family, (1.0, 0.0))
    worst_rt = 0.0
    for th in nn_grid:
        e = dualflat.dual_coords(normal_natural_family, th)
        back = dualflat.legendre_inverse(normal_natural_family, e, theta0=th)
        worst_rt = max(worst_rt, float(np.abs(back - th).max()))
    ok = (abs(K - HALF_LOG_2PI) < 1e-8
          and np.abs(eta - np.array([1.0, 0.0])).max() < 1e-6
          and abs(phi - (-1.418939)) < 1e-5
          and worst_rt < 1e-8)
    report("08 legendre", ok,
           f"K err={K - HALF_LOG_2PI:.1e}, eta err="
           f"{np.abs(eta - [1.0, 0.0]).max():.1e}, phi={phi:.6f}, "
           f"roundtrip={worst_rt:.1e}")


def test_c09_flat_but_not_exponential(logistic_model):
    assert logistic_model.space.rule.nodes == 64
    worst_gamma = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        for mu in (-0.5, 0.0, 0.5):
            low = infogeo.alpha_connection(logistic_model, (mu,), alpha)
            worst_gamma = max(worst_gamma, float(np.abs(low).max()))
    ef = submanifold.exponential_form_check(logistic_model,
                                            [np.array([0.0])])
    ok = (worst_gamma < 1e-3 and not ef.is_exponential_form
          and ef.max_variation > 0.1)
    report("09 flat-but-not-exponential", ok,
           f"max|Gamma|={worst_gamma:.2e}, variation={ef.max_variation:.3f}")


def test_c10_autoparallel_suite(normal_natural_family, normal_model):
    model = dualflat.family_model(normal_natural_family)
    e_conn = infogeo.alpha_field(model, 1.0)
    gf = infogeo.fisher_field(model)
    worst_slice = 0.0
    all_exponential = True
    for fixed, c in (([0], [-0.5]), ([0], [-0.35]), ([1], [0.0]),
                     ([1], [0.25])):
        sl = submanifold.coordinate_slice(normal_natural_family, fixed, c)
        mid = sl.embedding.domain.center()
        quarter = mid + 0.25 * (np.asarray(sl.embedding.domain.hi) - mid)
        grid = [mid, quarter]
        rep = submanifold.autoparallel_check(sl.embedding, e_conn, gf, grid)
        worst_slice = max(worst_slice, rep.max_abs)
        ef = submanifold.exponential_form_check(
            dualflat.family_model(sl.family), grid)
        all_exponential = all_exponential and ef.is_exponential_form

    curve = submanifold.SubmanifoldEmbedding(
        ambient=normal_model, chart=lambda u: np.stack([u[..., 0], u[..., 0]], axis=-1),
        domain=models.Box((0.85,), (2.1,)), dim=1, label="diag")
    e_nm = infogeo.alpha_field(normal_model, 1.0)
    g_nm = infogeo.fisher_field(normal_model)
    curve_rep = submanifold.autoparallel_check(
        curve, e_nm, g_nm, [np.array([1.0]), np.array([1.5])], tol=0.05)
    ok = (worst_slice < 1e-5 and all_exponential
          and not curve_rep.autoparallel and curve_rep.max_abs > 0.05)
    report("10 autoparallel-suite", ok,
           f"slice max|H|={worst_slice:.2e}, curve max|H|={curve_rep.max_abs:.3f}")


def test_c11_geodesics(normal_natural_family, normal_model):
    # exponential connection vanishes identically in natural coordinates,
    # so its geodesic equation is integrated with the exact zero field
    flat = infogeo.ConnectionField.zero(2)
    th0, v0 = np.array([-0.5, 0.0]), np.array([0.1, 0.2])
    path_e = dualflat.geodesic(flat, th0, v0, 1.0, 1000,
                               domain=normal_natural_family.domain)
    lin_err = float(np.abs(path_e.theta - (th0 + np.outer(path_e.t, v0))).max())

    model = dualflat.family_model(normal_natural_family)
    conn_m = infogeo.alpha_field(model, -1.0)
    path_m = dualflat.geodesic(conn_m, (-0.5, 0.0), (0.05, 0.15), 1.0, 1000,
                               domain=normal_natural_family.domain)
    idx = list(range(0, 1001, 100))
    etas = np.array([dualflat.dual_coords(normal_natural_family,
                                          path_m.theta[i]) for i in idx])
    frac = path_m.t[idx] / path_m.t[-1]
    chord = etas[0] + np.outer(frac, etas[-1] - etas[0])
    m_err = float(np.abs(etas - chord).max())

    conn_0 = infogeo.alpha_field(normal_model, 0.0)
    g_nm = infogeo.fisher_field(normal_model)
    path_0 = dualflat.geodesic(conn_0, (0.0, 1.0), (0.3, 0.2), 1.0, 1000,
                               domain=normal_model.domain)
    speeds = [float(path_0.velocity[i] @ g_nm(path_0.theta[i])
                    @ path_0.velocity[i]) for i in range(0, 1001, 100)]
    drift = max(abs(s - speeds[0]) for s in speeds)

    ok = lin_err < 1e-8 and m_err < 1e-4 and drift < 1e-5
    report("11 geodesics", ok,
           f"e-linearity={lin_err:.1e}, m-straightness={m_err:.1e}, "
           f"speed drift={drift:.1e}")


def test_c12_determinism_and_runtime():
    doc = json.loads((SPECS / "full_verify.json").read_text())
    t0 = time.perf_counter()
    a = cli.run_document(doc).to_json()
    b = cli.run_document(doc).to_json()
    elapsed = time.perf_counter() - t0
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "X"', s)
    identical = strip(a) == strip(b)
    passed = json.loads(a)["all_passed"]
    ok = identical and passed and elapsed < 60.0
    report("12 determinism", ok,
           f"identical={identical}, all_passed={passed}, "
           f"two runs took {elapsed:.1f}s")
