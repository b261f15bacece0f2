"""Benchmark of the igeo verification pipeline.

    python3 perfbench/run.py --workload model-grid --seed 1 --seconds 40 --trace 0

Generates the workload's spec documents from the seed, then runs samples
until ``--seconds`` is spent.  Each sample is a fresh interpreter (BLAS
pinned to one thread, ``IGEO_QUAD_NODES`` cleared) that imports the package
from ``src/``, times one pass of the documents through
``igeo.cli.run_document`` and repeats the pass for the determinism gate.
A sample whose reports differ between the passes (timestamps aside), fail
``docs/report_schema.json`` or crash is counted as failed and gives no data.

``--trace 0`` prints the end-to-end metrics, medians over samples.  Times
are scaled to a host running ``sample.pace()`` in ``PACE_S``: the shared
host this was built on changes speed by up to 2x, within seconds and over
minutes.  The unscaled medians are printed in the environment line, and
every sample's timings are kept in ``perfbench/out/``.
``--trace 1`` alternates traced and untraced samples and prints the
per-layer metrics, including the tracing overhead.  The last line of
stdout is the result object; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import quality
from sample import strip_stamp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = ROOT / "docs" / "report_schema.json"
PACKAGE = ROOT / "src" / "igeo" / "__init__.py"
DEADLINE_S = 160.0    # no sample is started past this; child timeouts end a run by 170 s
CHILD_TIMEOUT_S = 150.0
# Typical time of sample.pace() on the 2-vCPU Xeon host the baseline was
# measured on; times are reported as if the host ran at that pace.
PACE_S = 0.02


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("IGEO_QUAD_NODES", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_sample(workload_path: Path, spans_path, probe: bool, env, timeout: float):
    cmd = [sys.executable, str(HERE / "sample.py"), str(workload_path)]
    if probe:
        cmd.append("--probe")
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("sample timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sample failed ({proc.returncode}):\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate_failures(sample: dict, reference: list, validator) -> int:
    """Documents whose report changed between the passes, differs from the
    reference sample's or breaks the schema (timestamps aside)."""
    texts = [strip_stamp(t) for t in sample["reports"]]
    return sum(not same or text != ref or not validator.is_valid(json.loads(text))
               for same, text, ref in zip(sample["identical"], texts, reference))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (PACKAGE, SCHEMA):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    import jsonschema
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    started = time.perf_counter()
    workload = workloads.generate(args.workload, args.seed)
    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    workload_path = out / "workload.json"
    workload_path.write_text(json.dumps(workload, indent=1))
    env = child_env()

    kinds = ["traced", "plain"] if args.trace else ["plain"]
    samples = {k: [] for k in kinds}
    durations, attempted, failed, versions, scores = [], 0, 0, None, None
    reference = None
    while True:
        elapsed = time.perf_counter() - started
        have_all = all(samples[k] for k in kinds)
        projected = elapsed + (statistics.median(durations) if durations else 0.0)
        if (have_all and projected > args.seconds) or projected > DEADLINE_S:
            break
        kind = kinds[len(durations) % len(kinds)]
        spans = out / f"spans-{len(durations)}.tsv" if kind == "traced" else None
        # oracle values do not change between samples: probe once per run
        probe = not args.trace and scores is None
        t0 = time.perf_counter()
        raw = run_sample(workload_path, spans, probe, env,
                         min(CHILD_TIMEOUT_S, DEADLINE_S + 10 - elapsed))
        durations.append(time.perf_counter() - t0)
        attempted += len(workload["documents"])
        if raw is None:
            failed += len(workload["documents"])
            continue
        versions = raw["versions"]
        reference = reference or [strip_stamp(t) for t in raw["reports"]]
        bad = gate_failures(raw, reference, validator)
        failed += bad
        if bad:
            continue
        if probe:
            scores = quality([json.loads(t) for t in raw["reports"]], raw["probes"],
                             workload)
        samples[kind].append(raw)

    timings = [{"kind": kind, **{k: row[k] for k in
                                 ("setup_s", "doc_wall_s", "doc_cpu_s", "doc_pace_s")}}
               for kind in kinds for row in samples[kind]]
    (out / f"samples-trace{args.trace}.json").write_text(json.dumps(timings))
    if not all(samples[k] for k in kinds) or (scores is None and not args.trace):
        print("error: no sample passed the correctness gate", file=sys.stderr)
        return 1

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    # The shared host's speed drifts by up to 2x, within seconds and over
    # minutes.  sample.pace(), timed around every document, drifts with it,
    # so each document's time is scaled to a host running at PACE_S.
    def at_pace(row, key):
        return sum(t * PACE_S / p for t, p in zip(row[key], row["doc_pace_s"]))

    def median_at_pace(rows, key):
        return statistics.median(at_pace(row, key) for row in rows)

    def setup_at_pace(row):
        return row["setup_s"] * PACE_S / statistics.mean(row["doc_pace_s"])

    if args.trace:
        units = declared_units("per_layer")
        traced, plain = samples["traced"], samples["plain"]
        layer_rows = [row["layers"] for row in traced]
        counts = [n for n in layer_rows[0] if units[n] == "count"]
        # counts must repeat exactly between traced samples; times are medians
        counts_agree = all(row[n] == layer_rows[0][n] for row in layer_rows for n in counts)
        values = {n: layer_rows[0][n] if n in counts else median(layer_rows, n)
                  for n in layer_rows[0]}
        values["trace.overhead_ratio"] = (median_at_pace(traced, "doc_wall_s")
                                          / median_at_pace(plain, "doc_wall_s"))
    else:
        units = declared_units("end_to_end")
        plain, counts_agree = samples["plain"], True
        values = {**scores,
                  "setup_s": statistics.median(map(setup_at_pace, plain)),
                  "wall_s": median_at_pace(plain, "doc_wall_s"),
                  "cpu_s": median_at_pace(plain, "doc_cpu_s"),
                  "peak_rss_mb": median(plain, "peak_rss_mb")}
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}

    env_record = {"workload": args.workload, "seed": args.seed,
                  "nproc": os.cpu_count(), **(versions or {}),
                  "blas_threads": 1, "samples": {k: len(v) for k, v in samples.items()},
                  "documents": len(workload["documents"]),
                  "checks": sum(map(len, workload["expect"].values())),
                  "pace_s": statistics.median(p for row in plain for p in row["doc_pace_s"]),
                  "unscaled": {"setup_s": median(plain, "setup_s"),
                               "wall_s": statistics.median(sum(row["doc_wall_s"])
                                                           for row in plain)}}
    print(json.dumps({"env": env_record}))
    print(json.dumps({"correct": failed == 0 and counts_agree,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
