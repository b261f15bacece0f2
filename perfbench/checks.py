"""Quality metrics of one sample's reports: statuses, residual margins and
errors against the workload's closed-form oracles."""

from __future__ import annotations

import math

import numpy as np


def _expected_flag(expect: dict, check: str, alpha=None) -> bool:
    raw = expect.get(check, True)
    if isinstance(raw, dict):
        for key, val in raw.items():
            if alpha is not None and abs(float(key) - alpha) < 1e-12:
                return bool(val)
        return True
    return bool(raw)


def _ratios(check: str, result: dict, expect: dict) -> list:
    """residual / tolerance for every quantity the check enforces.

    Quantities a check expects to be large (a flag expected false) carry no
    margin and are left out.
    """
    res, tol = result["residuals"], result["tolerance"]

    def r(key):          # non-finite residuals arrive as "inf" / "nan" strings
        return float(res[key])

    if check == "validate":
        return [r("max_normalization_residual") / tol]
    if check == "flatness":
        return [max(float(v["max_R"]), float(v["max_torsion"])) / tol
                for key, v in res.items()
                if _expected_flag(expect, check, float(key.split("=")[1]))]
    if check in ("alpha-duality", "hessian-vs-fisher"):
        return [r("max_difference") / tol]
    if check == "codazzi":
        return [float(v) / tol for v in res.values()]
    if check == "cubic-symmetry":
        return [max(r("max_asymmetry"), r("max_alpha_spread")) / tol]
    if check == "exponential-form":
        return [r("max_variation") / tol] if _expected_flag(expect, check) else []
    if check == "structural":
        return [max(map(float, res.values())) / tol]
    if check == "classify":
        flags = expect.get("classify", {})
        out = []
        if flags.get("equiaffine"):
            out.append(r("max_alpha") / tol)
        if flags.get("proper_hypersphere") or flags.get("improper_hypersphere"):
            out.append(r("lambda_deviation") / tol)
        if flags.get("blaschke"):
            out.append(r("max_blaschke_gap") / tol)
        return out
    if check == "volume-transport":
        return [r("max_transport_residual") / tol]
    if check == "statistical-structure":
        return [r("codazzi_residual") / tol] if _expected_flag(expect, check) else []
    if check == "legendre-roundtrip":
        return [r("max_roundtrip_error") / tol]
    if check == "graph-realization":
        return [r("max_h_minus_hessK") / tol["h_vs_hessK"],
                r("max_gamma_S_alpha") / tol["gamma_S_alpha"]]
    if check == "centro-affine-lift":
        return [r("max_rho_error") / tol]
    return []        # geodesic: no enforced tolerance


def _finite(x: float) -> float:
    """JSON has no inf or nan: a non-finite value reads as 1e300."""
    return x if math.isfinite(x) else 1e300


def quality(reports: list, probe_values: list, workload: dict) -> dict:
    """check_fail_ratio, resid_tol_ratio_max and oracle_err_max of one
    sample's reports and probed tensors."""
    docs = {d["label"]: d for d in workload["documents"]}
    attempted = mismatched = 0
    ratios, errors = [], []
    runs = {run["label"]: run for rep in reports for run in rep["runs"]}
    for label, expected in workload["expect"].items():
        results = runs.get(label, {}).get("results", {})
        for check, status in expected.items():
            attempted += 1
            got = results.get(check, {}).get("status")
            mismatched += got != status
            if got in ("pass", "fail"):
                ratios += map(_finite, _ratios(check, results[check],
                                               docs[label].get("expect", {})))
    for path in workload["paths"]:
        residuals = runs[path["label"]]["results"]["geodesic"].get("residuals", {})
        for field, oracle in path["oracle"].items():
            if field not in residuals:
                errors.append(1e300)
                continue
            errors.append(_finite(float(np.abs(np.asarray(residuals[field], float)
                                               - np.asarray(oracle, float)).max())))
    for probe, values in zip(workload["probes"], probe_values):
        for got, oracle in zip(values, probe["oracle"]):
            for key, want in oracle.items():
                errors.append(_finite(float(np.abs(np.asarray(got[key], float)
                                                   - np.asarray(want, float)).max())))
    return {"check_fail_ratio": mismatched / attempted,
            "resid_tol_ratio_max": max(ratios, default=0.0),
            "oracle_err_max": max(errors)}
