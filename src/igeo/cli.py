"""Batch harness: run specs in, machine-readable reports and CSV dumps out.

A run spec names one subject (model, surface, family or embedding; builtin
or inline schema), a parameter grid, and a list of checks.  ``run`` executes
every check, captures per-check errors without aborting siblings, and
returns a deterministic report (identical specs and seeds give identical
reports up to the timestamp field).

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
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__, dualflat, immersion, infogeo, models, submanifold
from .errors import DegenerateH, IgeoError, SchemaError, SingularFrame

DEFAULT_TOLERANCES = {
    "validate": None,              # model's own profile
    "flatness": 1e-3,
    "alpha-duality": 1e-4,
    "codazzi": 1e-4,
    "cubic-symmetry": 1e-4,
    "exponential-form": 1e-4,
    "structural": 1e-6,
    "classify": 1e-6,
    "volume-transport": 1e-6,
    "statistical-structure": 1e-5,
    "legendre-roundtrip": 1e-8,
    "hessian-vs-fisher": 1e-4,
    "graph-realization": 1e-5,
    "centro-affine-lift": 1e-6,
    "autoparallel": 1e-5,
    "embedding-curvature": 1e-5,
    "geodesic": 1e-8,
}

_SUBJECT_KINDS = ("model", "surface", "family", "embedding")

# The flags of immersion.classify, in report order; ``expect.classify``
# maps some of them to the expected value.
CLASSIFY_FLAGS = ("centro_affine", "equiaffine", "nondegenerate", "blaschke",
                  "improper_hypersphere", "proper_hypersphere")


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
        if not isinstance(doc, dict):
            raise SchemaError("geodesic must be a mapping")
        vectors = {}
        for key in ("theta0", "v0"):
            if not isinstance(doc.get(key), list):
                raise SchemaError(f'geodesic needs a list "{key}"')
            vectors[key] = tuple(models.number_from_doc(float, v, f"geodesic {key}")
                                 for v in doc[key])
        geo = cls(**vectors,
                  t_final=models.number_from_doc(float, doc.get("t_final", 1.0),
                                                 "geodesic t_final"),
                  steps=models.number_from_doc(int, doc.get("steps", 1000),
                                               "geodesic steps"),
                  alpha=models.number_from_doc(float, doc.get("alpha", 1.0),
                                               "geodesic alpha"))
        if geo.steps < 1 or not geo.t_final > 0:
            raise SchemaError("geodesic needs steps >= 1 and t_final > 0")
        return geo


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Validated run description."""

    kind: str
    subject_doc: object
    grid_doc: Optional[dict]
    checks: tuple
    alphas: tuple
    tolerances: dict
    expect: dict
    seed: Optional[int]
    geodesic: Optional[GeodesicSpec]
    label: str
    raw: dict

    @classmethod
    def from_dict(cls, doc: dict, seed_override: Optional[int] = None,
                  tol_overrides: Optional[dict] = None) -> "RunSpec":
        if not isinstance(doc, dict):
            raise SchemaError("run spec must be a mapping")
        subject = doc.get("subject")
        if not isinstance(subject, dict) or len(subject) != 1:
            raise SchemaError('spec needs "subject": {kind: reference-or-schema}')
        kind, subject_doc = next(iter(subject.items()))
        if kind not in _SUBJECT_KINDS:
            raise SchemaError(f"unknown subject kind {kind!r}")
        checks = doc.get("checks")
        if not isinstance(checks, list) or not checks:
            raise SchemaError("spec needs a non-empty list of checks")
        for c in checks:
            if c not in CHECKS:
                raise SchemaError(f"unknown check {c!r}")
            if kind not in CHECKS[c].kinds:
                raise SchemaError(f"check {c!r} does not apply to a {kind}")
        grid_doc = doc.get("grid")
        if grid_doc is not None:
            if not isinstance(grid_doc, dict):
                raise SchemaError("grid must be a mapping")
            for key in ("lo", "hi", "counts"):
                if not isinstance(grid_doc.get(key), list):
                    raise SchemaError(f'grid needs a list "{key}"')
            if len({len(grid_doc[key]) for key in ("lo", "hi", "counts")}) != 1:
                raise SchemaError("grid lo, hi and counts must have the same length")
            for key in ("lo", "hi"):
                for v in grid_doc[key]:
                    models.number_from_doc(float, v, f"grid {key}")
            if any(models.number_from_doc(int, c, "grid count") < 1
                   for c in grid_doc["counts"]):
                raise SchemaError("grid counts must be >= 1")
        alphas = doc.get("alpha", [1.0])
        if not isinstance(alphas, list):
            raise SchemaError("alpha must be a list of numbers")
        alphas = tuple(models.number_from_doc(float, a, "alpha") for a in alphas)
        tolerances = dict(doc.get("tolerances", {}))
        for name in tolerances:
            if name not in DEFAULT_TOLERANCES:
                raise SchemaError(f"tolerance override for unknown check {name!r}")
        if tol_overrides:
            tolerances.update(tol_overrides)
        expect = doc.get("expect", {})
        if not isinstance(expect, dict):
            raise SchemaError("expect must be a mapping")
        for name, flag in expect.items():
            if name not in CHECKS:
                raise SchemaError(f"expect names unknown check {name!r}")
            # classify maps flag names; every other mapping is keyed by alpha
            if name == "classify":
                if not isinstance(flag, dict):
                    raise SchemaError("expect classify must map flag names to "
                                      f"booleans, got {flag!r}")
                for key in flag:
                    if key not in CLASSIFY_FLAGS:
                        raise SchemaError(f"expect classify names unknown flag {key!r}")
            elif isinstance(flag, dict):
                for key in flag:
                    models.number_from_doc(float, key, f"expect {name} alpha")
        seed = doc.get("seed")
        if seed_override is not None:
            seed = seed_override
        if seed is not None:
            seed = models.number_from_doc(int, seed, "seed")
        geodesic = doc.get("geodesic")
        if "geodesic" in checks and geodesic is None:
            raise SchemaError('the geodesic check needs a "geodesic" block '
                              '(theta0, v0, t_final, steps)')
        if geodesic is not None:
            geodesic = GeodesicSpec.from_dict(geodesic)
        return cls(kind=kind, subject_doc=subject_doc, grid_doc=grid_doc,
                   checks=tuple(checks), alphas=alphas, tolerances=tolerances,
                   expect=expect, seed=seed, geodesic=geodesic,
                   label=str(doc.get("label", kind)), raw=doc)

    def tol(self, check: str, fallback: Optional[float] = None) -> Optional[float]:
        if check in self.tolerances:
            return float(self.tolerances[check])
        default = DEFAULT_TOLERANCES.get(check)
        return default if default is not None else fallback


def _load_subject(spec: RunSpec):
    doc = spec.subject_doc
    if isinstance(doc, str):
        doc = {"builtin": doc}
    if spec.kind == "model":
        return models.load_model(doc)
    if spec.kind == "surface":
        return immersion.load_surface(doc)
    if spec.kind == "family":
        return dualflat.load_family(doc)
    return submanifold.load_embedding(doc)


def _grid_points(spec: RunSpec, subject) -> list:
    if spec.grid_doc is None:
        # default: 3 points per coordinate over the middle half of the domain
        lo, hi = np.asarray(subject.domain.lo), np.asarray(subject.domain.hi)
        quarter = (hi - lo) / 4.0
        return models.grid(lo + quarter, hi - quarter, [3] * lo.size)
    g = spec.grid_doc
    if len(g["lo"]) != subject.domain.dim:
        raise SchemaError(f"grid has dimension {len(g['lo'])}, expected {subject.domain.dim}")
    return models.grid(g["lo"], g["hi"], g["counts"])


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    kinds: tuple
    runner: Callable    # (spec, subject, grid, model) -> CheckResult


@dataclass
class CheckResult:
    status: str                  # pass | fail | untestable | error
    residuals: dict = field(default_factory=dict)
    tolerance: object = None
    provenance: str = ""
    detail: str = ""
    path: object = None          # the geodesic check's path, for the CSV; not reported


def _expected_flag(spec: RunSpec, check: str, default=True, alpha=None):
    raw = spec.expect.get(check, default)
    if isinstance(raw, dict):
        if alpha is None:
            return default
        for key, val in raw.items():
            if abs(float(key) - alpha) < 1e-12:
                return bool(val)
        return default
    return bool(raw)


def _assert_status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _check_validate(spec, subject, grid, model):
    report = models.validate_model(model, grid)
    override = spec.tol("validate")
    passed = report.passed if override is None else \
        report.max_normalization_residual < override
    return CheckResult(
        status=_assert_status(passed),
        residuals={
            "max_normalization_residual": report.max_normalization_residual,
            "max_score_gram_condition": max(e.score_gram_condition
                                            for e in report.entries),
            "all_smooth": all(e.smooth for e in report.entries),
        },
        tolerance=override if override is not None else report.tolerance,
        provenance="normalization by the space's expectation rule")


def _check_flatness(spec, subject, grid, model):
    tol = spec.tol("flatness")
    residuals = {}
    ok = True
    for alpha in spec.alphas:
        rep = infogeo.flatness_check(model, grid, alpha, tol=tol)
        residuals[f"alpha={alpha:g}"] = {"flat": rep.flat, "max_R": rep.max_R,
                                         "max_torsion": rep.max_torsion}
        ok = ok and (rep.flat == _expected_flag(spec, "flatness", True, alpha))
    return CheckResult(status=_assert_status(ok), residuals=residuals,
                       tolerance=tol,
                       provenance="curvature of the alpha-connection field")


def _check_alpha_duality(spec, subject, grid, model):
    tol = spec.tol("alpha-duality")
    gf = infogeo.fisher_field(model)
    rows = np.asarray(grid)
    worst = 0.0
    for alpha in spec.alphas:
        conj = infogeo.conjugate_connection(gf, infogeo.alpha_field(model, alpha), rows)
        direct = infogeo.alpha_connection(model, rows, -alpha)
        worst = max(worst, float(np.abs(conj - direct).max()))
    return CheckResult(status=_assert_status(worst < tol),
                       residuals={"max_difference": worst}, tolerance=tol,
                       provenance="conjugate via dg identity vs direct "
                                  "evaluation at -alpha")


def _check_codazzi(spec, subject, grid, model):
    tol = spec.tol("codazzi")
    gf = infogeo.fisher_field(model)
    residuals = {}
    worst = 0.0
    for alpha in spec.alphas:
        conn = infogeo.alpha_field(model, alpha)
        r = float(infogeo.codazzi_check(gf, conn, np.asarray(grid)).max())
        residuals[f"alpha={alpha:g}"] = r
        worst = max(worst, r)
    return CheckResult(status=_assert_status(worst < tol),
                       residuals=residuals, tolerance=tol,
                       provenance="max |(nabla_i h)_jk - (nabla_k h)_ji|")


def _check_cubic_symmetry(spec, subject, grid, model):
    tol = spec.tol("cubic-symmetry")
    # C(-alpha) equals C(alpha) bit for bit, so one sign of each alpha suffices
    alphas = [a for i, a in enumerate(spec.alphas)
              if a != 0.0 and -a not in spec.alphas[:i]] or [1.0]
    worst_sym = 0.0
    worst_spread = 0.0
    base = None
    for alpha in alphas:
        C = infogeo.cubic_tensor(model, np.asarray(grid), alpha)
        for axes in ((-3, -2), (-2, -1), (-3, -1)):
            worst_sym = max(worst_sym, float(np.abs(C - np.swapaxes(C, *axes)).max()))
        if base is None:
            base = C
        else:
            worst_spread = max(worst_spread, float(np.abs(C - base).max()))
    ok = worst_sym < tol and worst_spread < tol
    return CheckResult(status=_assert_status(ok),
                       residuals={"max_asymmetry": worst_sym,
                                  "max_alpha_spread": worst_spread},
                       tolerance=tol,
                       provenance="skewness tensor from alpha spread")


def _check_exponential_form(spec, subject, grid, model):
    tol = spec.tol("exponential-form")
    rep = submanifold.exponential_form_check(model, grid, tol=tol)
    expected = _expected_flag(spec, "exponential-form", True)
    return CheckResult(status=_assert_status(rep.is_exponential_form == expected),
                       residuals={"is_exponential_form": rep.is_exponential_form,
                                  "max_variation": rep.max_variation},
                       tolerance=tol, provenance=rep.note)


def _check_structural(spec, subject, grid, model):
    tol = spec.tol("structural")
    r = immersion.structural_check(subject, np.asarray(grid))
    worst = {key: immersion.grid_max(getattr(r, key))
             for key in ("gauss", "codazzi_h", "codazzi_s", "ricci")}
    ok = max(worst.values()) < tol
    return CheckResult(status=_assert_status(ok), residuals=worst,
                       tolerance=tol,
                       provenance="Gauss, two Codazzi and Ricci identities "
                                  "of the induced data")


def _check_classify(spec, subject, grid, model):
    tol = spec.tol("classify")
    rep = immersion.classify(subject, grid, tol=tol)
    flags = {k: getattr(rep.flags, k) for k in CLASSIFY_FLAGS}
    expected = spec.expect.get("classify", {})
    ok = all(flags[k] == bool(v) for k, v in expected.items())
    residuals = dict(flags)
    residuals.update({"lambda": rep.lambda_mean,
                      "lambda_deviation": rep.lambda_deviation,
                      "max_alpha": rep.max_alpha,
                      "min_abs_det_h": rep.min_abs_det_h,
                      "max_blaschke_gap": rep.max_blaschke_gap})
    return CheckResult(status=_assert_status(ok), residuals=residuals,
                       tolerance=tol, provenance="thresholded grid flags")


def _check_volume_transport(spec, subject, grid, model):
    tol = spec.tol("volume-transport")
    try:
        v = immersion.induced_volume_check(subject, np.asarray(grid))
    except DegenerateH as exc:
        # the transport residual over the points where h is nondegenerate
        v = exc.partial
        return CheckResult(status="untestable",
                           residuals={"max_transport_residual": immersion.grid_max(
                               v.transport_residual[~np.isnan(v.blaschke_gap)])},
                           tolerance=tol,
                           detail="h degenerate somewhere on the grid")
    worst_transport = immersion.grid_max(v.transport_residual)
    return CheckResult(status=_assert_status(worst_transport < tol),
                       residuals={"max_transport_residual": worst_transport,
                                  "max_blaschke_gap": immersion.grid_max(v.blaschke_gap)},
                       tolerance=tol,
                       provenance="volume transport nabla eta = alpha eta")


def _check_statistical_structure(spec, subject, grid, model):
    tol = spec.tol("statistical-structure")
    try:
        rep = immersion.statistical_structure(subject, grid, tol=tol)
    except DegenerateH as exc:
        return CheckResult(status="untestable", tolerance=tol, detail=str(exc))
    expected = _expected_flag(spec, "statistical-structure", True)
    return CheckResult(status=_assert_status(rep.is_statistical == expected),
                       residuals={"codazzi_residual": rep.codazzi_residual,
                                  "is_statistical": rep.is_statistical},
                       tolerance=tol,
                       provenance="Codazzi residual of the induced pair")


def _check_legendre(spec, subject, grid, model):
    tol = spec.tol("legendre-roundtrip")
    rows = np.asarray(grid, float)
    worst = 0.0
    for theta, eta in zip(rows, dualflat.dual_coords(subject, rows)):
        back = dualflat.legendre_inverse(subject, eta, theta0=theta)
        worst = max(worst, float(np.abs(back - theta).max()))
    return CheckResult(status=_assert_status(worst < tol),
                       residuals={"max_roundtrip_error": worst}, tolerance=tol,
                       provenance="theta -> grad K -> Newton inverse")


def _check_hessian_vs_fisher(spec, subject, grid, model):
    tol = spec.tol("hessian-vs-fisher")
    rows = np.asarray(grid, float)
    H = dualflat.hessian_metric(subject, rows)
    worst = float(np.abs(H - infogeo.fisher_metric(model, rows)).max())
    return CheckResult(status=_assert_status(worst < tol),
                       residuals={"max_difference": worst}, tolerance=tol,
                       provenance="Hess K vs score covariance")


def _check_graph_realization(spec, subject, grid, model):
    tol_h = spec.tol("graph-realization")
    tol_zero = 1e-6
    surf = dualflat.graph_realization(subject)
    data = immersion.decompose(surf, np.asarray(grid))
    H = dualflat.hessian_metric(subject, np.asarray(grid))
    worst_h = immersion.grid_max(np.abs(data.h - H).max(axis=(-2, -1)))
    worst_zero = immersion.grid_max([np.abs(a).reshape(len(grid), -1).max(axis=1) for a in (
        data.gamma, data.shape_operator, data.alpha_form)])
    ok = worst_h < tol_h and worst_zero < tol_zero
    return CheckResult(status=_assert_status(ok),
                       residuals={"max_h_minus_hessK": worst_h,
                                  "max_gamma_S_alpha": worst_zero},
                       tolerance={"h_vs_hessK": tol_h, "gamma_S_alpha": tol_zero},
                       provenance="decomposition of the potential graph")


def _check_centro_affine_lift(spec, subject, grid, model):
    tol = spec.tol("centro-affine-lift")
    surf = dualflat.centro_affine_lift(subject)
    try:
        data = immersion.decompose(surf, np.asarray(grid))
    except SingularFrame as exc:
        return CheckResult(status="untestable", tolerance=tol, detail=str(exc),
                           provenance="lift transversality is a local property")
    pr = infogeo.projective_equivalence(np.zeros_like(data.gamma), data.gamma, tol=tol)
    # default psi = exp K, so -d log psi = -grad K
    rho_expected = -dualflat.dual_coords(subject, np.asarray(grid))
    equivalent = bool(np.all(pr.equivalent))
    worst_rho = immersion.grid_max([np.abs(pr.rho - rho_expected).max(axis=-1), pr.residual])
    ok = equivalent and worst_rho < tol
    return CheckResult(status=_assert_status(ok),
                       residuals={"projectively_flat": equivalent,
                                  "max_rho_error": worst_rho},
                       tolerance=tol,
                       provenance="induced connection vs rho-deformed flat "
                                  "connection, rho = -d log psi")


def _embedding_sweep(spec, subject, grid, check):
    """Embedding curvature of the ambient alpha-connection over the grid,
    held against the check's tolerance; the status honours ``expect``."""
    tol = spec.tol(check)
    alpha = spec.alphas[0]
    rep = submanifold.autoparallel_check(
        subject, infogeo.alpha_field(subject.ambient, alpha),
        infogeo.fisher_field(subject.ambient), grid, tol=tol)
    expected = _expected_flag(spec, check, True, alpha)
    return rep, alpha, tol, _assert_status(rep.autoparallel == expected)


def _check_autoparallel(spec, subject, grid, model):
    rep, alpha, tol, status = _embedding_sweep(spec, subject, grid, "autoparallel")
    return CheckResult(status=status,
                       residuals={"autoparallel": rep.autoparallel,
                                  "max_abs_H": rep.max_abs,
                                  "alpha": alpha},
                       tolerance=tol,
                       provenance="embedding curvature in a g-orthonormal "
                                  "normal frame")


def _check_embedding_curvature(spec, subject, grid, model):
    rep, alpha, tol, status = _embedding_sweep(spec, subject, grid,
                                               "embedding-curvature")
    return CheckResult(status=status,
                       residuals={"max_abs_H": rep.max_abs, "alpha": alpha},
                       tolerance=tol,
                       provenance="largest embedding curvature over the grid")


def _integrate_geodesic(spec: RunSpec, model) -> dualflat.GeodesicPath:
    geo = spec.geodesic
    return dualflat.geodesic(infogeo.alpha_field(model, geo.alpha), geo.theta0,
                             geo.v0, geo.t_final, geo.steps, domain=model.domain)


def _check_geodesic(spec, subject, grid, model):
    alpha = spec.geodesic.alpha
    path = _integrate_geodesic(spec, model)
    gf = infogeo.fisher_field(model)
    speeds = [float(v @ gf(th) @ v) for th, v in
              zip(path.theta[::max(1, len(path.theta) // 20)],
                  path.velocity[::max(1, len(path.velocity) // 20)])]
    drift = max(abs(s - speeds[0]) for s in speeds)
    return CheckResult(status="pass",
                       residuals={"alpha": alpha,
                                  "final_theta": [float(v) for v in path.final_theta],
                                  "speed_drift": drift},
                       tolerance=spec.tol("geodesic"),
                       provenance="fixed-step RK4; g-speed sampled along path",
                       detail=f"steps={len(path.t) - 1}", path=path)


CHECKS = {
    "validate": CheckDef(("model", "family"), _check_validate),
    "flatness": CheckDef(("model", "family"), _check_flatness),
    "alpha-duality": CheckDef(("model", "family"), _check_alpha_duality),
    "codazzi": CheckDef(("model", "family"), _check_codazzi),
    "cubic-symmetry": CheckDef(("model", "family"), _check_cubic_symmetry),
    "exponential-form": CheckDef(("model", "family"), _check_exponential_form),
    "structural": CheckDef(("surface",), _check_structural),
    "classify": CheckDef(("surface",), _check_classify),
    "volume-transport": CheckDef(("surface",), _check_volume_transport),
    "statistical-structure": CheckDef(("surface",), _check_statistical_structure),
    "legendre-roundtrip": CheckDef(("family",), _check_legendre),
    "hessian-vs-fisher": CheckDef(("family",), _check_hessian_vs_fisher),
    "graph-realization": CheckDef(("family",), _check_graph_realization),
    "centro-affine-lift": CheckDef(("family",), _check_centro_affine_lift),
    "autoparallel": CheckDef(("embedding",), _check_autoparallel),
    "embedding-curvature": CheckDef(("embedding",), _check_embedding_curvature),
    "geodesic": CheckDef(("model", "family"), _check_geodesic),
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class RunReport:
    """Results of one run, with the spec, subject, model and grid they were
    computed on (for the CSV dumps); only the spec's label and document are
    serialized."""

    spec: RunSpec
    results: dict
    subject: object
    model: Optional[models.StatisticalModel]
    grid: list

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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


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
    results = {}
    for name in spec.checks:
        try:
            results[name] = CHECKS[name].runner(spec, subject, grid, model)
        except IgeoError as exc:
            results[name] = CheckResult(status="error", detail=str(exc))
        except Exception as exc:  # never abort sibling checks
            results[name] = CheckResult(
                status="error", detail=f"{type(exc).__name__}: {exc}")
    return RunReport(spec, results, subject, model, grid)


def run_document(doc: dict, seed_override=None, tol_overrides=None) -> Report:
    """Run a single spec or a {"runs": [...]} collection."""
    if "runs" in doc:
        if not isinstance(doc["runs"], list) or not doc["runs"]:
            raise SchemaError('"runs" must be a non-empty list of specs')
        specs = [RunSpec.from_dict(d, seed_override, tol_overrides)
                 for d in doc["runs"]]
    else:
        specs = [RunSpec.from_dict(doc, seed_override, tol_overrides)]
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
    g = infogeo.fisher_metric(model, np.asarray(grid))
    low = [infogeo.alpha_connection(model, np.asarray(grid), alpha) for alpha in spec.alphas]
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
    d = immersion.decompose(subject, np.asarray(grid))
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


def dump_geodesic_csv(run_: RunReport, out_path: Path):
    """The path of the run's geodesic check, integrated anew only without one."""
    path = getattr(run_.results.get("geodesic"), "path", None) \
        or _integrate_geodesic(run_.spec, run_.model)
    n = path.theta.shape[1]
    header = (["step", "t"] + [f"theta_{i}" for i in range(n)]
              + [f"v_{i}" for i in range(n)])
    rows = []
    for k in range(len(path.t)):
        rows.append([k, repr(float(path.t[k]))]
                    + [repr(float(v)) for v in path.theta[k]]
                    + [repr(float(v)) for v in path.velocity[k]])
    write_tensor_csv(out_path, header, rows)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _parse_tol_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SchemaError(f"--tol-override expects check=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        if name not in DEFAULT_TOLERANCES:
            raise SchemaError(f"unknown check {name!r} in --tol-override")
        try:
            out[name] = float(raw)
        except ValueError:
            raise SchemaError(f"tolerance {raw!r} is not a number") from None
    return out


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
        p.add_argument("--seed", type=int, default=None,
                       help="override the spec seed")
    args = parser.parse_args(argv)

    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2

    try:
        overrides = _parse_tol_overrides(args.tol_override)
        if args.command == "classify":
            if "runs" in doc:
                raise SchemaError("classify takes a single-subject spec")
            doc = dict(doc)
            doc["checks"] = ["classify"]
        report = run_document(doc, seed_override=args.seed,
                              tol_overrides=overrides)

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
                    dump_geodesic_csv(run_, csv_dir / f"geodesic_{spec.label}.csv")
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
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
