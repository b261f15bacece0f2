"""Batch harness: run specs in, machine-readable reports and CSV dumps out.

A run spec names one subject (model, surface, family or embedding; builtin
or inline schema), a parameter grid, and a list of checks.  ``run`` executes
every check, captures per-check errors without aborting siblings, and
returns a deterministic report (identical specs give identical reports up
to the timestamp field).  ``RunSpec.from_dict`` parses a spec once,
``--tol-override`` values included: each field by ``models.spec_fields``
(each document maps the keys its reader reads, each of its kind), each
number by ``models.spec_number`` (no bool, finite, whole where it counts);
a range is checked where the value is used.
``CHECKS`` holds each check with its subject kinds, runner, oracle and
default tolerance.

Every check reports whether its identity held, and one rule turns that
into its ``status``: ``pass`` when the outcome matched the spec's ``expect``
for the check, which defaults to "holds", else ``fail``.  ``untestable``
marks a check the grid cannot test, ``error`` one that raised.  Residuals
come per grid point, and ``numerics.grid_max`` alone reduces them.

The ``igeo`` command exposes four subcommands over the same spec document:
``verify`` (checks + report), ``compute`` (adds tensor CSV dumps),
``geodesic`` (path CSV) and ``classify`` (surface flags).  Exit code 0 when
every check passes, 1 when any fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys

# one BLAS thread unless the user set a number: threads only cost on small matrices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, dualflat, immersion, infogeo, models, submanifold
from .errors import DegenerateH, IgeoError, LeftDomain, SchemaError, SingularFrame
from .models import spec_fields, spec_number, spec_numbers
from .numerics import grid_max, point_max

# The flags of immersion.classify, in report order; ``expect.classify``
# maps some of them to the expected value.
CLASSIFY_FLAGS = ("centro_affine", "equiaffine", "nondegenerate", "blaschke",
                  "improper_hypersphere", "proper_hypersphere")
MAX_GRID_POINTS = 10**6  # the points of a run's grid, its own or the default one


@dataclass(frozen=True)
class GeodesicSpec:
    """A spec's geodesic block: the alpha-geodesic from ``theta0`` with
    velocity ``v0``, integrated to ``t_final`` in ``steps`` RK4 steps."""

    theta0: tuple
    v0: tuple
    t_final: float
    steps: int
    alpha: float

    @classmethod
    def from_dict(cls, doc) -> "GeodesicSpec":
        theta0, v0, t_final, steps, alpha = spec_fields(
            doc, "geodesic", {"theta0": None, "v0": None},
            {"t_final": (None, 1.0), "steps": (None, 1000), "alpha": (None, 1.0)})
        geo = cls(theta0=spec_numbers(theta0, "geodesic theta0"),
                  v0=spec_numbers(v0, "geodesic v0"),
                  t_final=spec_number(t_final, "geodesic t_final"),
                  steps=spec_number(steps, "geodesic steps", integral=True),
                  alpha=spec_number(alpha, "geodesic alpha"))
        if geo.steps < 1 or geo.t_final <= 0:
            raise SchemaError("geodesic needs steps >= 1 and t_final > 0")
        return geo


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Validated run description, each field read once by ``models.spec_fields``
    and each number by ``models.spec_number``: ``grid`` is (lo, hi, counts),
    tuples of floats, floats and ints, of at most ``MAX_GRID_POINTS`` points, or
    None for the default grid; ``tolerances`` holds every check's, ``expect`` them
    parsed by ``_expected``, ``label`` names no directory, ``raw`` is the spec."""

    kind: str
    subject_doc: object
    grid: Optional[tuple]
    checks: tuple
    alphas: tuple
    tolerances: dict
    expect: dict
    seed: Optional[int]
    geodesic: Optional[GeodesicSpec]
    label: str
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict, tol_overrides: Optional[dict] = None) -> "RunSpec":
        subject, checks, label, grid, alphas, given, expect, seed, geodesic = spec_fields(
            doc, "run spec", {"subject": dict, "checks": list},
            {"label": (str, None), "grid": (dict, None), "alpha": (None, [1.0]),
             "tolerances": (dict, {}), "expect": (dict, {}), "seed": (None, None),
             "geodesic": (dict, None)})
        if len(subject) != 1:
            raise SchemaError('spec needs "subject": {kind: reference-or-schema}')
        kind, subject_doc = next(iter(subject.items()))
        if not any(kind in check.kinds for check in CHECKS.values()):
            raise SchemaError(f"unknown subject kind {kind!r}")
        if not checks:
            raise SchemaError("spec needs a non-empty list of checks")
        for c in checks:
            if not isinstance(c, str) or c not in CHECKS:
                raise SchemaError(f"unknown check {c!r}")
            if kind not in CHECKS[c].kinds:
                raise SchemaError(f"check {c!r} does not apply to a {kind}")
        label = kind if label is None else label
        if any(c in label for c in "/\\\0"):
            raise SchemaError(f"label must name no directory, got {label!r}")
        if grid is not None:
            keys = ("lo", "hi", "counts")
            grid = tuple(spec_numbers(values, f"grid {key}", key == "counts") for key, values
                         in zip(keys, spec_fields(grid, "grid", dict.fromkeys(keys))))
            if len(set(map(len, grid))) != 1:
                raise SchemaError("grid lo, hi and counts must have the same length")
            if any(c < 1 for c in grid[2]):
                raise SchemaError("grid counts must be >= 1")
            if math.prod(grid[2]) > MAX_GRID_POINTS:
                raise SchemaError(f"grid counts must give at most {MAX_GRID_POINTS} points")
        alphas = spec_numbers(alphas, "alpha")
        if not alphas:
            raise SchemaError("alpha must be a non-empty list of numbers")
        tolerances = {name: check.tolerance for name, check in CHECKS.items()}
        given = {**given, **(tol_overrides or {})}
        spec_fields(given, "tolerances", {}, dict.fromkeys(CHECKS, (None, None)))
        for name, value in given.items():
            tolerances[name] = tol = spec_number(value, f"tolerance {name}")
            if tol < 0:
                raise SchemaError(f"tolerance {name} must be a finite number >= 0, got {value!r}")
        spec_fields(expect, "expect", {}, dict.fromkeys(CHECKS, (None, None)))
        expect = {name: _expected(name, flag, alphas) for name, flag in expect.items()}
        if seed is not None:
            seed = spec_number(seed, "seed", integral=True)
        if geodesic is not None or "geodesic" in checks:
            geodesic = GeodesicSpec.from_dict(geodesic)
        return cls(kind=kind, subject_doc=subject_doc, grid=grid,
                   checks=tuple(checks), alphas=alphas, tolerances=tolerances,
                   expect=expect, seed=seed, geodesic=geodesic, label=label, raw=doc)


def _expected(name: str, flag, alphas: tuple):
    """One check's ``expect`` entry, parsed: a boolean, classify's {flag
    name: boolean}, or a per-alpha check's {alpha: boolean}, each key
    parsed once to the alpha of the run the check tests (within 1e-12)."""
    parsed = {}
    if name == "classify":
        spec_fields(flag, "expect classify", {}, dict.fromkeys(CLASSIFY_FLAGS, (None, None)))
    elif isinstance(flag, dict):
        if CHECKS[name].per_alpha is None:
            raise SchemaError(f"expect {name} takes one boolean: the check "
                              "has no verdict per alpha")
        tested = alphas[CHECKS[name].per_alpha]
        for key, value in flag.items():
            x = spec_number(key, f"expect {name} alpha")
            alpha = next((a for a in tested if abs(a - x) < 1e-12), None)
            if alpha is None or alpha in parsed:
                raise SchemaError(f"expect {name} alpha {key!r} names no alpha the check "
                                  f"tests, {list(tested)}, or one named before")
            parsed[alpha] = value
    for value in flag.values() if isinstance(flag, dict) else (flag,):
        if not isinstance(value, bool):
            raise SchemaError(f"expect {name} takes booleans, got {value!r}")
    return parsed or flag


def _load_subject(spec: RunSpec):
    # the loaders are looked up at each call, so a rebound one is the one called
    load = {"model": models.load_model, "surface": immersion.load_surface,
            "family": dualflat.load_family, "embedding": submanifold.load_embedding}
    return load[spec.kind](spec.subject_doc)


def _grid_points(spec: RunSpec, subject) -> np.ndarray:
    """The run's grid; SchemaError for a grid or model geodesic of another dimension."""
    geo, dim = spec.geodesic, subject.domain.dim
    if geo is not None and spec.kind in _MODEL and {len(geo.theta0), len(geo.v0)} != {dim}:
        raise SchemaError(f"geodesic theta0 and v0 must each have the model's dimension, {dim}")
    if spec.grid is None:
        # default: 3 points per coordinate over the middle half of the domain
        if 3 ** dim > MAX_GRID_POINTS:
            raise SchemaError(f"a default grid of 3**{dim} points exceeds {MAX_GRID_POINTS}")
        lo, hi = np.asarray(subject.domain.lo), np.asarray(subject.domain.hi)
        quarter = (hi - lo) / 4.0
        return models.grid(lo + quarter, hi - quarter, [3] * lo.size)
    if len(spec.grid[0]) != dim:
        raise SchemaError(f"grid has dimension {len(spec.grid[0])}, expected {dim}")
    return models.grid(*spec.grid)


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    kinds: tuple
    runner: Callable    # (spec, subject, grid, model, tol) -> CheckResult
    provenance: str     # the oracle, unless the runner names its own
    tolerance: Optional[float]  # the default; None: validate takes its model's
    per_alpha: Optional[slice] = None  # a verdict per alpha of spec.alphas[per_alpha]


@dataclass
class CheckResult:
    """One check's outcome.  A runner reports whether its identity held
    (``holds``: a bool, ``{alpha: bool}`` per alpha, or classify's flags);
    ``_run_check`` alone makes ``status`` of it: ``pass`` when it matched
    ``expect``, which defaults to "holds".  A runner sets ``status`` only to
    ``untestable``, or to ``error`` for a geodesic that left the domain.
    A runner gives a residual over the grid per point, an array (P,) (per
    path sample for the geodesic), and judges ``holds`` by every point's,
    which a NaN fails; ``_run_check`` keeps them as ``per_point`` and
    reports each array's ``numerics.grid_max``, NaN if any point is."""

    holds: object = None
    residuals: dict = field(default_factory=dict)
    status: str = ""             # pass | fail | untestable | error
    tolerance: object = None     # the check's, unless the runner gives its own
    provenance: str = ""
    detail: str = ""
    path: object = None          # the geodesic check's path, for the CSV; not reported
    per_point: dict = field(default_factory=dict)  # the runner's residuals; not reported


def _check_validate(spec, subject, grid, model, tol):
    report = models.validate_model(model, grid)
    tol, entries = report.tolerance if tol is None else tol, report.entries
    # the first exception validate_model caught, with its point
    caught = next((e for e in entries if e.reason), None)
    residual = np.array([e.normalization_residual for e in entries])
    smooth = all(e.smooth for e in entries)  # a point without its score jet fails
    return CheckResult(
        holds=smooth and bool((residual < tol).all()),
        residuals={"max_normalization_residual": residual,
                   "max_score_gram_condition": np.array([e.score_gram_condition
                                                         for e in entries]),
                   "all_smooth": smooth},
        tolerance=tol, detail=f"theta {list(caught.theta)}: {caught.reason}" if caught else "")


def _check_flatness(spec, subject, grid, model, tol):
    holds, residuals = {}, {}
    for alpha in spec.alphas:
        rep = infogeo.flatness_check(model, grid, alpha, tol=tol)
        residuals[f"alpha={alpha:g}"] = {"flat": rep.flat, "max_R": rep.R,
                                         "max_torsion": rep.torsion}
        holds[alpha] = rep.flat
    return CheckResult(holds=holds, residuals=residuals)


def _check_alpha_duality(spec, subject, grid, model, tol):
    gf = infogeo.fisher_field(model)
    holds, diffs = {}, []
    for alpha in spec.alphas:
        conj = infogeo.conjugate_connection(gf, infogeo.alpha_field(model, alpha), grid)
        diffs.append(point_max(conj - infogeo.alpha_connection(model, grid, -alpha), 3))
        holds[alpha] = bool((diffs[-1] < tol).all())
    return CheckResult(holds=holds, residuals={"max_difference": np.max(diffs, axis=0)})


def _check_codazzi(spec, subject, grid, model, tol):
    gf = infogeo.fisher_field(model)
    holds, residuals = {}, {}
    for alpha in spec.alphas:
        r = infogeo.codazzi_check(gf, infogeo.alpha_field(model, alpha), grid)
        residuals[f"alpha={alpha:g}"] = r
        holds[alpha] = bool((r < tol).all())
    return CheckResult(holds=holds, residuals=residuals)


def _check_cubic_symmetry(spec, subject, grid, model, tol):
    # C(-alpha) equals C(alpha) bit for bit, so one sign of each alpha suffices
    alphas = [a for i, a in enumerate(spec.alphas)
              if a != 0.0 and -a not in spec.alphas[:i]] or [1.0]
    Cs = [infogeo.cubic_tensor(model, grid, alpha) for alpha in alphas]
    asymmetry = np.max([point_max(C - np.swapaxes(C, *axes), 3)
                        for C in Cs for axes in ((-3, -2), (-2, -1), (-3, -1))], axis=0)
    spread = np.max([point_max(C - Cs[0], 3) for C in Cs], axis=0)
    return CheckResult(holds=bool((asymmetry < tol).all() and (spread < tol).all()),
                       residuals={"max_asymmetry": asymmetry, "max_alpha_spread": spread})


def _check_exponential_form(spec, subject, grid, model, tol):
    rep = submanifold.exponential_form_check(model, grid, tol=tol)
    return CheckResult(holds=rep.is_exponential_form,
                       residuals={"is_exponential_form": rep.is_exponential_form,
                                  "max_variation": rep.variation},
                       provenance=rep.note)


def _check_structural(spec, subject, grid, model, tol):
    residuals = dict(vars(immersion.structural_check(subject, grid)))
    return CheckResult(holds=all((r < tol).all() for r in residuals.values()),
                       residuals=residuals)


def _check_classify(spec, subject, grid, model, tol):
    rep = immersion.classify(subject, grid, tol=tol)
    flags = {k: getattr(rep.flags, k) for k in CLASSIFY_FLAGS}
    named = bool(spec.expect.get("classify"))  # a verdict needs a flag to compare
    return CheckResult(holds=flags, status="" if named else "untestable", residuals={
        **flags, "lambda": rep.lambda_mean, "lambda_deviation": rep.lambda_deviation,
        "max_alpha": rep.max_alpha, "min_abs_det_h": rep.min_abs_det_h,
        "max_blaschke_gap": rep.max_blaschke_gap},
        detail="" if named else "expect.classify names no flag")


def _check_volume_transport(spec, subject, grid, model, tol):
    try:
        v = immersion.induced_volume_check(subject, grid)
    except DegenerateH as exc:
        # the transport residual over the points where h is nondegenerate
        v = exc.partial
        return CheckResult(status="untestable",
                           residuals={"max_transport_residual":
                                      v.transport_residual[~np.isnan(v.blaschke_gap)]},
                           detail="h degenerate somewhere on the grid")
    return CheckResult(holds=bool((v.transport_residual < tol).all()),
                       residuals={"max_transport_residual": v.transport_residual,
                                  "max_blaschke_gap": v.blaschke_gap})


def _check_statistical_structure(spec, subject, grid, model, tol):
    try:
        rep = immersion.statistical_structure(subject, grid, tol=tol)
    except DegenerateH as exc:
        return CheckResult(status="untestable", detail=str(exc))
    return CheckResult(holds=rep.is_statistical,
                       residuals={"codazzi_residual": rep.codazzi_residual,
                                  "is_statistical": rep.is_statistical})


def _check_legendre(spec, subject, grid, model, tol):
    error = np.array([point_max(dualflat.legendre_inverse(subject, eta, theta0=theta) - theta, 1)
                      for theta, eta in zip(grid, dualflat.dual_coords(subject, grid))])
    return CheckResult(holds=bool((error < tol).all()),
                       residuals={"max_roundtrip_error": error})


def _check_hessian_vs_fisher(spec, subject, grid, model, tol):
    diff = point_max(dualflat.hessian_metric(subject, grid)
                     - infogeo.fisher_metric(model, grid), 2)
    return CheckResult(holds=bool((diff < tol).all()), residuals={"max_difference": diff})


def _check_graph_realization(spec, subject, grid, model, tol):
    tol_zero = 1e-6
    surf = dualflat.graph_realization(subject)
    data = immersion.decompose(surf, grid)
    h_error = point_max(data.h - dualflat.hessian_metric(subject, grid), 2)
    zero_error = np.max([point_max(data.gamma, 3), point_max(data.shape_operator, 2),
                         point_max(data.alpha_form, 1)], axis=0)
    return CheckResult(holds=bool((h_error < tol).all() and (zero_error < tol_zero).all()),
                       residuals={"max_h_minus_hessK": h_error,
                                  "max_gamma_S_alpha": zero_error},
                       tolerance={"h_vs_hessK": tol, "gamma_S_alpha": tol_zero})


def _check_centro_affine_lift(spec, subject, grid, model, tol):
    surf = dualflat.centro_affine_lift(subject)
    try:
        data = immersion.decompose(surf, grid)
    except SingularFrame as exc:
        return CheckResult(status="untestable", detail=str(exc),
                           provenance="lift transversality is a local property")
    pr = infogeo.projective_equivalence(np.zeros_like(data.gamma), data.gamma, tol=tol)
    # default psi = exp K, so -d log psi = -grad K
    rho_expected = -dualflat.dual_coords(subject, grid)
    equivalent = bool(np.all(pr.equivalent))
    rho_error = np.maximum(point_max(pr.rho - rho_expected, 1), pr.residual)
    return CheckResult(holds=equivalent and bool((rho_error < tol).all()),
                       residuals={"projectively_flat": equivalent,
                                  "max_rho_error": rho_error})


def _check_embedding(spec, subject, grid, model, tol, flag=False):
    """Embedding curvature of the ambient alpha-connection over the grid, at
    the run's first alpha; ``flag`` also reports the verdict as a residual."""
    alpha = spec.alphas[0]
    rep = submanifold.autoparallel_check(
        subject, infogeo.alpha_field(subject.ambient, alpha),
        infogeo.fisher_field(subject.ambient), grid, tol=tol)
    residuals = {"max_abs_H": rep.max_H, "alpha": alpha}
    if flag:
        residuals["autoparallel"] = rep.autoparallel
    return CheckResult(holds={alpha: rep.autoparallel}, residuals=residuals)


def _check_geodesic(spec, subject, grid, model, tol):
    geo = spec.geodesic
    try:
        path = dualflat.geodesic(infogeo.alpha_field(model, geo.alpha), geo.theta0,
                                 geo.v0, geo.t_final, geo.steps, domain=model.domain)
    except LeftDomain as exc:
        # the error result ``run`` records, with the path up to the exit
        return CheckResult(status="error", detail=str(exc), path=exc.partial_path)
    every = max(1, len(path.t) // 20)
    G = infogeo.fisher_metric(model, path.theta[::every])
    speeds = np.array([float(v @ g @ v) for g, v in zip(G, path.velocity[::every])])
    # no oracle of the path is held against the tolerance yet: a path that
    # stays in the domain counts as the identity holding
    return CheckResult(holds=True,
                       residuals={"alpha": geo.alpha,
                                  "final_theta": [float(v) for v in path.final_theta],
                                  "speed_drift": np.abs(speeds - speeds[0])},
                       detail=f"steps={len(path.t) - 1}", path=path)


_MODEL = ("model", "family")
CHECKS = {
    "validate": CheckDef(_MODEL, _check_validate,
                         "normalization by the space's expectation rule", None),
    "flatness": CheckDef(_MODEL, _check_flatness,
                         "curvature of the alpha-connection field", 1e-3, per_alpha=slice(None)),
    "alpha-duality": CheckDef(_MODEL, _check_alpha_duality,
                              "conjugate via dg identity vs direct evaluation at -alpha",
                              1e-4, per_alpha=slice(None)),
    "codazzi": CheckDef(_MODEL, _check_codazzi,
                        "max |(nabla_i h)_jk - (nabla_k h)_ji|", 1e-4, per_alpha=slice(None)),
    "cubic-symmetry": CheckDef(_MODEL, _check_cubic_symmetry,
                               "skewness tensor from alpha spread", 1e-4),
    "exponential-form": CheckDef(_MODEL, _check_exponential_form, "", 1e-4),
    "structural": CheckDef(("surface",), _check_structural,
                           "Gauss, two Codazzi and Ricci identities of the induced data",
                           1e-6),
    "classify": CheckDef(("surface",), _check_classify, "thresholded grid flags", 1e-6),
    "volume-transport": CheckDef(("surface",), _check_volume_transport,
                                 "volume transport nabla eta = alpha eta", 1e-6),
    "statistical-structure": CheckDef(("surface",), _check_statistical_structure,
                                      "Codazzi residual of the induced pair", 1e-5),
    "legendre-roundtrip": CheckDef(("family",), _check_legendre,
                                   "theta -> grad K -> Newton inverse", 1e-8),
    "hessian-vs-fisher": CheckDef(("family",), _check_hessian_vs_fisher,
                                  "Hess K vs score covariance", 1e-4),
    "graph-realization": CheckDef(("family",), _check_graph_realization,
                                  "decomposition of the potential graph", 1e-5),
    "centro-affine-lift": CheckDef(("family",), _check_centro_affine_lift,
                                   "induced connection vs rho-deformed flat "
                                   "connection, rho = -d log psi", 1e-6),
    "autoparallel": CheckDef(("embedding",), partial(_check_embedding, flag=True),
                             "embedding curvature in a g-orthonormal normal frame",
                             1e-5, per_alpha=slice(1)),
    "embedding-curvature": CheckDef(("embedding",), _check_embedding,
                                    "largest embedding curvature over the grid",
                                    1e-5, per_alpha=slice(1)),
    "geodesic": CheckDef(_MODEL, _check_geodesic,
                         "fixed-step RK4; g-speed sampled along path", 1e-8),
}


def _status(name: str, holds, spec: RunSpec) -> str:
    """``pass`` when the outcome ``holds`` matched ``spec.expect`` for the
    check, "holds" by default; a per-alpha verdict takes its alpha's
    expectation, and classify compares only the flags expect names."""
    expected = spec.expect.get(name, True)
    if name == "classify":
        pairs = [(holds[flag], want) for flag, want in expected.items()]
    elif isinstance(holds, dict):
        pairs = [(held, expected if isinstance(expected, bool) else expected.get(alpha, True))
                 for alpha, held in holds.items()]
    else:
        pairs = [(holds, expected)]
    return "pass" if all(held == want for held, want in pairs) else "fail"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _jsonable(value):
    """``value`` with tuples as lists, keys as strings and non-finite floats
    as their repr ("nan", "inf"); reported values are Python scalars."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _reduced(residuals: dict) -> dict:
    """The residuals a report shows: each per-point array as its
    ``grid_max``, in nested per-alpha mappings too."""
    return {key: grid_max(v) if isinstance(v, np.ndarray)
            else _reduced(v) if isinstance(v, dict) else v
            for key, v in residuals.items()}


_ASCII = json.encoder.encode_basestring_ascii
_NONFINITE = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` from one
    recursive walk (with ``indent`` set the standard library runs its
    pure-Python generator encoder): keys sorted, items joined by ``","``
    and ``indent``, the newline and spaces of the value's depth, ``": "``
    after keys, strings by ``encode_basestring_ascii``, floats by
    ``float.__repr__`` or ``NaN``/``Infinity``/``-Infinity``.  A value
    that ``json`` rejects raises ``TypeError``, and so does a key that is
    not a string (the reports have none)."""
    if isinstance(value, float):
        return "NaN" if value != value else _NONFINITE.get(value) or float.__repr__(value)
    if isinstance(value, str):
        return _ASCII(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict):
        items = [_ASCII(k) + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass
class RunReport:
    """Results of one run, with the spec, subject, model and grid they were
    computed on (for the CSV dumps); only the spec's label and document are
    serialized."""

    spec: RunSpec
    results: dict
    subject: object
    model: Optional[models.StatisticalModel]
    grid: np.ndarray

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "label": self.spec.label,
            "spec": _jsonable(self.spec.raw),
            "all_passed": self.all_passed,
            "results": {
                name: {
                    "status": r.status,
                    "residuals": _jsonable(r.residuals),
                    "tolerance": _jsonable(r.tolerance),
                    "oracle_provenance": r.provenance,
                    "detail": r.detail,
                }
                for name, r in self.results.items()
            },
        }


@dataclass
class Report:
    runs: list
    seed: Optional[int] = None
    timestamp: str = ""

    @property
    def all_passed(self) -> bool:
        return all(r.all_passed for r in self.runs)

    def to_dict(self) -> dict:
        return {
            "toolkit": {"name": "igeo", "version": __version__},
            "seed": self.seed,
            "all_passed": self.all_passed,
            "runs": [r.to_dict() for r in self.runs],
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, byte for
        byte, written by ``_json_text`` in one walk."""
        return _json_text(self.to_dict())


def run(spec: RunSpec) -> RunReport:
    """Execute every check of one spec; per-check failures never propagate.

    The subject, and for a family its model, is built once, so every check
    shares the pointwise tensors memoized on it; both go with the run.
    """
    subject = _load_subject(spec)
    model = subject if spec.kind == "model" else None
    if spec.kind == "family":
        model = dualflat.family_model(subject)
    grid = _grid_points(spec, subject)
    results = {name: _run_check(name, spec, subject, grid, model) for name in spec.checks}
    return RunReport(spec, results, subject, model, grid)


def _run_check(name: str, spec: RunSpec, subject, grid, model) -> CheckResult:
    """One check's result: residuals reduced by ``_reduced``, status by
    ``_status``, tolerance and provenance the check's unless the runner gave
    its own; an exception is an ``error``."""
    check, tol = CHECKS[name], spec.tolerances[name]
    try:
        result = check.runner(spec, subject, grid, model, tol)
    except IgeoError as exc:
        return CheckResult(status="error", detail=str(exc))
    except Exception as exc:  # never abort sibling checks
        return CheckResult(status="error", detail=f"{type(exc).__name__}: {exc}")
    result.per_point, result.residuals = result.residuals, _reduced(result.residuals)
    if result.status != "error":
        result.tolerance = tol if result.tolerance is None else result.tolerance
        result.provenance = result.provenance or check.provenance
        result.status = result.status or _status(name, result.holds, spec)
    return result


def run_document(doc: dict, tol_overrides=None) -> Report:
    """Run a single spec or a {"runs": [...]} collection, which has no other key."""
    docs = [doc]
    if isinstance(doc, dict) and "runs" in doc:
        docs, = spec_fields(doc, "spec collection", {"runs": list})
        if not docs:
            raise SchemaError('"runs" must be a non-empty list of specs')
    specs = [RunSpec.from_dict(d, tol_overrides) for d in docs]
    reports = [run(s) for s in specs]
    seed = specs[0].seed
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return Report(runs=reports, seed=seed, timestamp=stamp)


# ---------------------------------------------------------------------------
# CSV dumps
# ---------------------------------------------------------------------------

def write_tensor_csv(path, header, rows):
    """Fixed-header CSV: index columns then a single value column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def dump_model_tensors(spec: RunSpec, model, grid, out_dir: Path):
    g = infogeo.fisher_metric(model, grid)
    low = [infogeo.alpha_connection(model, grid, alpha) for alpha in spec.alphas]
    rows_g = [[p, i, j, repr(float(g[p, i, j]))] for p, i, j in np.ndindex(g.shape)]
    rows_c = [[p, alpha, i, j, k, repr(float(c[p, i, j, k]))] for p in range(len(grid))
              for alpha, c in zip(spec.alphas, low) for i, j, k in np.ndindex(c.shape[1:])]
    write_tensor_csv(out_dir / f"fisher_{spec.label}.csv", ["point", "i", "j", "value"], rows_g)
    write_tensor_csv(out_dir / f"connection_{spec.label}.csv",
                     ["point", "alpha", "i", "j", "k", "value"], rows_c)
    write_tensor_csv(out_dir / f"grid_{spec.label}.csv",
                     ["point"] + [f"theta_{i}" for i in range(model.dim)],
                     [[p] + [repr(float(v)) for v in np.atleast_1d(theta)]
                      for p, theta in enumerate(grid)])


def dump_surface_tensors(spec: RunSpec, subject, grid, out_dir: Path):
    rows = []
    n = subject.dim
    d = immersion.decompose(subject, grid)
    for p in range(len(grid)):
        for i in range(n):
            for j in range(n):
                rows.append([p, "h", i, j, "", repr(float(d.h[p, i, j]))])
                rows.append([p, "S", i, j, "", repr(float(d.shape_operator[p, i, j]))])
                for k in range(n):
                    rows.append([p, "gamma", i, j, k, repr(float(d.gamma[p, i, j, k]))])
        for i in range(n):
            rows.append([p, "alpha", i, "", "", repr(float(d.alpha_form[p, i]))])
        rows.append([p, "eta", "", "", "", repr(float(d.volume[p]))])
    write_tensor_csv(out_dir / f"immersion_{spec.label}.csv",
                     ["point", "tensor", "i", "j", "k", "value"], rows)


def dump_geodesic_csv(run_: RunReport, out_path: Path) -> Optional[str]:
    """Write the path of the run's geodesic check, run here only when the
    spec lists no such check; a path that left the domain is written up to
    its exit.  Returns the detail of the check's error, or None."""
    result = run_.results.get("geodesic") or _run_check(
        "geodesic", run_.spec, run_.subject, run_.grid, run_.model)
    path = result.path
    if path is not None:
        n = path.theta.shape[1]
        header = ["step", "t"] + [f"theta_{i}" for i in range(n)] + [f"v_{i}" for i in range(n)]
        rows = [[k, repr(float(t))] + [repr(float(v)) for v in (*th, *vel)]
                for k, (t, th, vel) in enumerate(zip(path.t, path.theta, path.velocity))]
        write_tensor_csv(out_path, header, rows)
    return result.detail if result.status == "error" else None


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _parse_tol_overrides(pairs):
    """``CHECK=VALUE`` pairs as {check: value}, the values parsed by ``RunSpec``."""
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--tol-override expects check=value, got {pair!r}")
    return dict(pair.partition("=")[::2] for pair in pairs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="igeo",
        description="grid verification of statistical-manifold and "
                    "immersion geometry")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("verify", "run checks and write a report"),
            ("compute", "run checks and dump tensor CSV files"),
            ("geodesic", "integrate a geodesic and write the path CSV"),
            ("classify", "classify a surface subject")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", required=True, help="run spec JSON document")
        p.add_argument("--out", default=None, help="report JSON path")
        p.add_argument("--csv-dir", default=None, help="directory for CSV dumps")
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="CHECK=VAL", help="override one check tolerance")
    args = parser.parse_args(argv)

    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    failed = False  # a geodesic path the geodesic command could not finish
    try:
        overrides = _parse_tol_overrides(args.tol_override)
        if args.command == "classify":
            if not isinstance(doc, dict) or "runs" in doc:
                raise SchemaError("classify takes a single-subject spec")
            doc = {**doc, "checks": ["classify"]}
        report = run_document(doc, tol_overrides=overrides)

        if args.command in ("compute", "geodesic"):
            csv_dir = Path(args.csv_dir or ".")
            # files are named by run label: geodesic writes one path per run
            # with a geodesic block and a model, compute one set of tensors
            # per model, family and surface run
            geodesic = args.command == "geodesic"
            if geodesic:
                writers = [r for r in report.runs
                           if r.model is not None and r.spec.geodesic is not None]
            else:
                writers = [r for r in report.runs
                           if r.model is not None or r.spec.kind == "surface"]
            if geodesic and not writers:
                raise SchemaError("geodesic command needs a model or "
                                  "family spec with a geodesic block")
            labels = [r.spec.label for r in writers]
            if len(set(labels)) < len(labels):
                raise SchemaError("runs that write CSV files share a label: "
                                  f"{sorted({x for x in labels if labels.count(x) > 1})}")
            csv_dir.mkdir(parents=True, exist_ok=True)
            for run_ in writers:
                spec = run_.spec
                if geodesic:
                    error = dump_geodesic_csv(run_, csv_dir / f"geodesic_{spec.label}.csv")
                    if error is not None:
                        print(f"error: {spec.label}: {error}", file=sys.stderr)
                        failed = True
                elif run_.model is not None:
                    dump_model_tensors(spec, run_.model, run_.grid, csv_dir)
                else:
                    dump_surface_tensors(spec, run_.subject, run_.grid, csv_dir)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)

    if args.out:
        summary = "PASS" if report.all_passed else "FAIL"
        print(f"{summary}: "
              f"{sum(r.status == 'pass' for run_ in report.runs for r in run_.results.values())}"
              f"/{sum(len(run_.results) for run_ in report.runs)} checks passed")
    return 0 if report.all_passed and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
