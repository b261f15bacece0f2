"""Seeded workload generator and closed-form oracles for the igeo benchmark.

A workload is a list of spec documents, the only input the program sees,
plus what the benchmark checks the reports against:

* ``expect``  -- per document, the status a correct program reports for
                 every check (the mathematical truth, not today's output);
* ``probes``  -- subjects and points whose tensors are read back through
                 the public library functions, with closed-form values;
* ``paths``   -- geodesic endpoints and invariants with closed-form values;
* ``reasons`` -- why each subject and grid region is in the workload.

Everything here uses numpy and math only: no oracle value comes from igeo.
Grids always span the middle half of each declared domain, the region the
program grids by default, so no known failure is hidden by a narrower box.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("model-grid", "surface-grid", "family-geodesic")

# Declared parameter boxes of the builtin subjects, as (lo, hi).
DOMAINS = {
    "normal": ((-2.0, 0.8), (2.0, 2.2)),
    "normal-natural": ((-0.78, -2.0), (-0.1, 2.0)),
    "poisson-natural": ((-2.5,), (2.5,)),
    "categorical-natural": ((-4.0, -4.0), (4.0, 4.0)),
    "logistic-location-2": ((-1.5, -1.5), (1.5, 1.5)),
    "bernoulli-natural": ((-6.0,), (6.0,)),
    "sphere": ((-0.8, -0.8), (0.8, 0.8)),
    "paraboloid": ((-2.0, -2.0), (2.0, 2.0)),
    "paraboloid-tilted": ((-2.0, -2.0), (2.0, 2.0)),
}

TILT_SLOPE = 0.3          # slope of the builtin tilted paraboloid's transversal
GEODESIC_STEPS = 50
MODEL_CHECKS = ["validate", "flatness", "alpha-duality", "codazzi",
                "cubic-symmetry", "exponential-form"]
SURFACE_CHECKS = ["structural", "classify", "volume-transport",
                  "statistical-structure"]
FAMILY_CHECKS = ["legendre-roundtrip", "hessian-vs-fisher",
                 "graph-realization", "centro-affine-lift"]
NN_POTENTIAL = "0.5*log(-3.141592653589793/{v}[0]) - {v}[1]^2/(4*{v}[0])"


def middle_half(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    q = (hi - lo) / 4.0
    return (lo + q).tolist(), (hi - q).tolist()


def grid_doc(lo, hi):
    """Middle-half grid: 3 points per axis in 2-D, 5 on a line."""
    mlo, mhi = middle_half(lo, hi)
    return {"lo": mlo, "hi": mhi, "counts": [5] if len(mlo) == 1 else [3, 3]}


def grid_points(grid) -> list:
    """The points the program builds from a grid block (row-major)."""
    axes = [np.linspace(a, b, int(c))
            for a, b, c in zip(grid["lo"], grid["hi"], grid["counts"])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [list(map(float, p)) for p in zip(*(m.ravel() for m in mesh))]


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def nn_potential(t):
    """K(theta) of the normal family in natural coordinates."""
    return 0.5 * math.log(-math.pi / t[0]) - t[1] ** 2 / (4.0 * t[0])


def nn_eta(t):
    """grad K = (E[x^2], E[x]) = (sigma^2 + mu^2, mu)."""
    t1, t2 = t
    return np.array([-1.0 / (2 * t1) + t2 ** 2 / (4 * t1 ** 2), -t2 / (2 * t1)])


def nn_theta_of_eta(e):
    var = e[0] - e[1] ** 2
    return np.array([-1.0 / (2 * var), e[1] / var])


def nn_hessian(t):
    t1, t2 = t
    return np.array([[1 / (2 * t1 ** 2) - t2 ** 2 / (2 * t1 ** 3), t2 / (2 * t1 ** 2)],
                     [t2 / (2 * t1 ** 2), -1 / (2 * t1)]])


def nn_third(t):
    """K_ijk; the 0-connection of the family is Gamma_{ij,k} = K_ijk / 2."""
    t1, t2 = t
    k = np.zeros((2, 2, 2))
    k[0, 0, 0] = -1 / t1 ** 3 + 3 * t2 ** 2 / (2 * t1 ** 4)
    k[0, 0, 1] = k[0, 1, 0] = k[1, 0, 0] = -t2 / t1 ** 3
    k[0, 1, 1] = k[1, 0, 1] = k[1, 1, 0] = 1 / (2 * t1 ** 2)
    return k


def normal_fisher(t):
    mu, sigma = t
    return np.diag([1 / sigma ** 2, 2 / sigma ** 2])


def poisson_fisher(t):
    return np.array([[math.exp(t[0])]])


def categorical_fisher(t):
    e = np.exp(np.asarray(t, float))
    p = e / (1.0 + e.sum())
    return np.diag(p) - np.outer(p, p)


def logistic_fisher(t):
    # location family of the standard logistic density: I = 1/3 per axis
    return np.eye(2) / 3.0


def bernoulli_data(t):
    p = 1.0 / (1.0 + math.exp(-t[0]))
    return {"potential": math.log1p(math.exp(t[0])), "dual_coords": [p],
            "hessian": [[p * (1 - p)]], "fisher": [[p * (1 - p)]]}


def sphere_data(u):
    u = np.asarray(u, float)
    return {"h": np.eye(2) + np.outer(u, u) / (1.0 - u @ u),
            "shape_operator": np.eye(2), "alpha_form": np.zeros(2)}


def paraboloid_data(u):
    return {"h": np.eye(2), "shape_operator": np.zeros((2, 2)),
            "gamma": np.zeros((2, 2, 2)), "alpha_form": np.zeros(2)}


def tilted_data(u, s=TILT_SLOPE):
    """Paraboloid x3 = |u|^2/2 with xi = (s u0, 0, 1), solved by hand."""
    c = 1.0 / (1.0 - s * u[0] ** 2)
    gamma = np.zeros((2, 2, 2))
    gamma[:, :, 0] = -s * u[0] * c * np.eye(2)
    S = np.zeros((2, 2))
    S[0, 0] = -s * c
    return {"h": c * np.eye(2), "gamma": gamma, "shape_operator": S,
            "alpha_form": np.array([-s * c * u[0], 0.0])}


def potential_graph_data(u):
    return {"h": nn_hessian(u), "gamma": np.zeros((2, 2, 2)),
            "shape_operator": np.zeros((2, 2)), "alpha_form": np.zeros(2)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _doc(label, kind, subject, checks, grid=None, **extra):
    doc = {"label": label, "subject": {kind: subject}, "checks": list(checks)}
    if grid is not None:
        doc["grid"] = grid
    doc.update(extra)
    return doc


def _probe(kind, subject, grid, oracle):
    points = grid_points(grid)
    return {"kind": kind, "subject": subject, "points": points,
            "oracle": [{k: np.asarray(v, float).tolist() for k, v in oracle(p).items()}
                       for p in points]}


def model_grid(rng):
    docs, probes, reasons = [], [], {}
    fisher = {"normal": normal_fisher, "normal-natural": nn_hessian,
              "poisson-natural": poisson_fisher,
              "categorical-natural": categorical_fisher,
              "logistic-location-2": logistic_fisher}
    why = {
        "normal-natural": "natural coordinates on 96 Gauss-Hermite nodes; the "
                          "theta1=-0.27 edge of the region breaks alpha-duality",
        "normal": "(mu, sigma) coordinates: flat alpha=+-1 connections in "
                  "non-natural coordinates, so exponential-form is false",
        "poisson-natural": "exact finite sum over a truncated support",
        "categorical-natural": "exact finite sum, 2-parameter simplex",
        "logistic-location-2": "2-D tensor Gauss-Hermite rule (64^2 nodes), "
                               "the costliest log-density; not exponential",
    }
    not_exponential = {"normal", "logistic-location-2"}
    for name, oracle in fisher.items():
        grid = grid_doc(*DOMAINS[name])
        expect = {"exponential-form": False} if name in not_exponential else {}
        docs.append(_doc(name, "model", {"builtin": name}, MODEL_CHECKS, grid,
                         alpha=[1.0, -1.0], expect=expect))
        probes.append(_probe("fisher", {"model": {"builtin": name}}, grid,
                             lambda p, f=oracle: {"fisher": f(p)}))
        reasons[name] = why[name]

    # Inline Gaussian location model with a seeded scale on a seeded
    # importance-sampling rule: exercises the expression compiler and the
    # non-node expectation path.  One parameter keeps every identity exact
    # for a fixed sample, so statuses do not depend on the seed; the
    # normalization tolerance follows the N^-1/2 Monte Carlo error.
    s = float(rng.uniform(0.8, 1.25))
    label = "mc-gaussian-location"
    model = {"name": label, "dim": 1,
             "space": {"kind": "real-line",
                       "quadrature": {"kind": "monte-carlo", "nodes": 4096,
                                      "seed": int(rng.integers(2 ** 31)),
                                      "loc": 0.0, "scale": 2.0 * s}},
             "domain": {"lo": [-1.5], "hi": [1.5]},
             "log_density": f"-(x[0] - theta[0])^2/(2*{s * s!r}) - log({s!r})"
                            " - 0.9189385332046727"}
    docs.append(_doc(label, "model", model, MODEL_CHECKS,
                     grid_doc((-1.5,), (1.5,)), alpha=[1.0, -1.0],
                     tolerances={"validate": 0.1}))
    reasons[label] = ("inline expression on a seeded monte-carlo rule "
                      "(4096 nodes); no oracle, its error is sampling noise")
    return docs, probes, [], reasons


def surface_grid(rng):
    docs, probes, reasons = [], [], {}
    flags = {
        "sphere": dict(centro_affine=True, equiaffine=True, nondegenerate=True,
                       blaschke=True, improper_hypersphere=False,
                       proper_hypersphere=True),
        "paraboloid": dict(centro_affine=False, equiaffine=True,
                           nondegenerate=True, blaschke=True,
                           improper_hypersphere=True, proper_hypersphere=False),
        "paraboloid-tilted": dict(centro_affine=False, equiaffine=False,
                                  nondegenerate=True, blaschke=False,
                                  improper_hypersphere=False,
                                  proper_hypersphere=False),
    }
    oracle = {"sphere": sphere_data, "paraboloid": paraboloid_data,
              "paraboloid-tilted": tilted_data}
    why = {
        "sphere": "centro-affine proper hypersphere, S = I",
        "paraboloid": "improper hypersphere with constant transversal",
        "paraboloid-tilted": "non-equiaffine transversal: alpha != 0, "
                             "not a statistical structure",
    }
    for name in flags:
        grid = grid_doc(*DOMAINS[name])
        expect = {"classify": flags[name]}
        if name == "paraboloid-tilted":
            expect["statistical-structure"] = False
        docs.append(_doc(name, "surface", {"builtin": name}, SURFACE_CHECKS,
                         grid, expect=expect))
        probes.append(_probe("decompose", {"surface": {"builtin": name}}, grid,
                             oracle[name]))
        reasons[name] = why[name]

    # Graph of the closed-form normal potential with the constant transversal:
    # the dually flat structure as an improper affine hypersphere, h = Hess K.
    # A seeded affine term a.u + b is an equiaffine change of the graph that
    # leaves Gamma, h, S and alpha unchanged.
    a0, a1, b = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
    label = "normal-potential-graph"
    chart_z = (NN_POTENTIAL.format(v="u")
               + f" + {a0!r}*u[0] + {a1!r}*u[1] + {b!r}")
    lo, hi = DOMAINS["normal-natural"]
    surface = {"name": label, "dim": 2, "chart": ["u[0]", "u[1]", chart_z],
               "transversal": ["0", "0", "1"],
               "domain": {"lo": list(lo), "hi": list(hi)}}
    grid = grid_doc(lo, hi)
    docs.append(_doc(label, "surface", surface, SURFACE_CHECKS, grid,
                     expect={"classify": dict(
                         centro_affine=False, equiaffine=True,
                         nondegenerate=True, blaschke=False,
                         improper_hypersphere=True, proper_hypersphere=False)}))
    probes.append(_probe("decompose", {"surface": surface}, grid,
                         potential_graph_data))
    reasons[label] = ("inline chart evaluated per component per node; stacked "
                      "differences of log(-pi/u0) break the 1e-6 Codazzi "
                      "tolerance on the region")
    return docs, probes, [], reasons


def _inside(theta, margin=0.03):
    lo, hi = (np.asarray(b) for b in DOMAINS["normal-natural"])
    pad = margin * (hi - lo)
    return bool(np.all(theta > lo + pad) and np.all(theta < hi - pad))


def _levi_civita_path(theta0, v0, steps=400):
    """Independent RK4 of the 0-geodesic from the closed-form Christoffels."""
    def rhs(state):
        th, v = state[:2], state[2:]
        up = np.einsum("ijm,mk->ijk", 0.5 * nn_third(th), np.linalg.inv(nn_hessian(th)))
        return np.concatenate([v, -np.einsum("ijk,i,j->k", up, v, v)])

    state, dt, out = np.concatenate([theta0, v0]), 1.0 / steps, []
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(state[:2].copy())
    return out


def draw_geodesic(rng):
    """(theta0, v0) near a reference path through the region's centre.

    The draw is narrow on purpose: m-geodesic RK4 error varies by 10^3
    across the region, and a wide draw would make ``oracle_err_max`` a
    property of the seed.  Every path is checked to stay inside the domain
    (with a 3% margin) using closed forms, so it is valid input for all
    three alphas.
    """
    lo, hi = middle_half(*DOMAINS["normal-natural"])
    centre = (np.asarray(lo) + np.asarray(hi)) / 2.0
    for _ in range(100):
        theta0 = centre + rng.uniform(-1.0, 1.0, 2) * np.array([0.02, 0.05])
        v0 = np.array([0.15, 0.6]) * (1.0 + rng.uniform(-0.05, 0.05, 2))
        ts = np.linspace(0.0, 1.0, 101)
        eta0, deta = nn_eta(theta0), nn_hessian(theta0) @ v0
        e_path = [theta0 + t * v0 for t in ts]
        m_path = [nn_theta_of_eta(eta0 + t * deta) for t in ts]
        if all(_inside(p) for p in e_path + m_path
               + _levi_civita_path(theta0, v0)):
            return theta0, v0
    raise RuntimeError("no valid geodesic draw")


def family_geodesic(rng):
    docs, probes, paths, reasons = [], [], [], {}
    families = {
        "normal-natural": (lambda t: {"potential": nn_potential(t),
                                      "dual_coords": nn_eta(t),
                                      "hessian": nn_hessian(t),
                                      "fisher": nn_hessian(t)}),
        "bernoulli-natural": bernoulli_data,
    }
    why = {
        "normal-natural": "potential by 96-node quadrature on every stencil "
                          "node; graph-realization misses 1e-5 on the region",
        "bernoulli-natural": "exact two-point potential, 1-D",
    }
    for name, oracle in families.items():
        grid = grid_doc(*DOMAINS[name])
        label = f"{name}-family"
        docs.append(_doc(label, "family", {"builtin": name}, FAMILY_CHECKS, grid))
        probes.append(_probe("potential", {"family": {"builtin": name}}, grid,
                             oracle))
        reasons[label] = why[name]

    theta0, v0 = draw_geodesic(rng)
    eta_end = nn_eta(theta0) + nn_hessian(theta0) @ v0
    for alpha, label, oracle in (
            (1.0, "e-geodesic", {"final_theta": (theta0 + v0).tolist()}),
            (-1.0, "m-geodesic", {"final_theta": nn_theta_of_eta(eta_end).tolist()}),
            (0.0, "0-geodesic", {"speed_drift": 0.0})):
        docs.append(_doc(label, "family", {"builtin": "normal-natural"},
                         ["geodesic"],
                         geodesic={"theta0": theta0.tolist(), "v0": v0.tolist(),
                                   "t_final": 1.0, "steps": GEODESIC_STEPS,
                                   "alpha": alpha}))
        paths.append({"label": label, "oracle": oracle})
        reasons[label] = (f"serial RK4 chain, alpha={alpha:g}: every stage is a "
                          "new theta, so no pointwise reuse")
    return docs, probes, paths, reasons


def generate(name: str, seed: int) -> dict:
    """The workload ``name`` for ``seed``; the same seed gives the same bytes."""
    rng = np.random.default_rng([seed % 2 ** 63, WORKLOADS.index(name)])
    build = {"model-grid": model_grid, "surface-grid": surface_grid,
             "family-geodesic": family_geodesic}[name]
    docs, probes, paths, reasons = build(rng)
    for doc in docs:
        doc["seed"] = int(seed)
    # closed loop over documents in a seeded order
    order = rng.permutation(len(docs))
    docs = [docs[i] for i in order]
    expect = {doc["label"]: {c: "pass" for c in doc["checks"]} for doc in docs}
    return {"workload": name, "seed": int(seed), "documents": docs,
            "expect": expect, "probes": probes, "paths": paths,
            "reasons": reasons}
