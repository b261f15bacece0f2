"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD.json [--probe] [--trace SPANS.tsv]

Times the import of ``igeo.cli`` plus construction of every subject
(set-up), then one pass of the workload's spec documents through
``cli.run_document`` (the timed pass: wall and CPU time of each document,
report serialization included), then a second pass in the same
process for the determinism gate.  With ``--probe`` it then reads tensors
back for the oracles.  Prints one JSON object on stdout.  With ``--trace``
the timed pass runs under the outside-in tracer and the spans are written
to SPANS.tsv.
"""

import json
import re
import resource
import sys
import time

_STAMP = re.compile(r'"timestamp": "[^"]*"')


def strip_stamp(report_text: str) -> str:
    """The report with its timestamp, the one field allowed to differ, blanked."""
    return _STAMP.sub('"timestamp": ""', report_text)


def pace() -> float:
    """Wall time of a fixed mix of small numpy calls, Python arithmetic and
    object churn that never touches igeo: how fast the host runs right now."""
    import numpy as np
    start = time.perf_counter()
    a = np.arange(4096.0).reshape(64, 64) / 4096.0 + np.eye(64)
    for _ in range(600):
        a.dot(a[0])
        np.linalg.solve(a[:8, :8], a[0, :8])
    total = 0
    for i in range(80000):
        total += i * i % 7
    for _ in range(4):
        rows = [{"a": float(i), "b": (i, i + 1.0)} for i in range(1500)]
        rows.sort(key=lambda r: -r["a"])
    return time.perf_counter() - start


def _run_pass(cli, documents, times=None):
    """Reports of one pass.

    ``times`` gets, per document, its wall time, CPU time, ``to_json`` wall
    time and the mean ``pace()`` just before and just after it.
    """
    texts = []
    before = pace() if times is not None else None
    for doc in documents:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        report = cli.run_document(doc)
        start = time.perf_counter()
        texts.append(report.to_json())
        if times is not None:
            end, cpu = time.perf_counter(), time.process_time() - cpu0
            after = pace()
            times.append((end - wall0, cpu, end - start, (before + after) / 2))
            before = after
    return texts


def _probe(probe, loaders):
    from igeo import dualflat, immersion, infogeo
    (kind, doc), = probe["subject"].items()
    subject = loaders[kind](doc)
    out = []
    for point in probe["points"]:
        if probe["kind"] == "fisher":
            out.append({"fisher": infogeo.fisher_metric(subject, point).tolist()})
        elif probe["kind"] == "decompose":
            d = immersion.decompose(subject, point)
            out.append({"h": d.h.tolist(), "gamma": d.gamma.tolist(),
                        "shape_operator": d.shape_operator.tolist(),
                        "alpha_form": d.alpha_form.tolist()})
        else:
            model = dualflat.family_model(subject)
            out.append({"potential": dualflat.potential(subject, point),
                        "dual_coords": dualflat.dual_coords(subject, point).tolist(),
                        "hessian": dualflat.hessian_metric(subject, point).tolist(),
                        "fisher": infogeo.fisher_metric(model, point).tolist()})
    return out


def layer_metrics(tracer, json_s: float) -> dict:
    """Per-layer counts and self times of one traced pass."""
    stat = tracer.stat
    m = {}

    def calls_self(name, calls=True):
        c, self_s, _ = stat(name)
        if calls:
            m[f"{name}.calls"] = c
        m[f"{name}.self_s"] = self_s

    calls_self("numerics.derive")
    m["numerics.derive.nodes"] = tracer.counts["numerics.derive.nodes"]
    calls_self("numerics.expect")
    calls_self("numerics.solve_frame")
    calls_self("models.log_density")
    m["models.log_density.rows"] = tracer.counts["models.log_density.rows"]
    calls_self("models.score_matrix")
    calls_self("models.second_log_derivs")
    calls_self("models.validate_model", calls=False)
    for name in ("infogeo.fisher_metric", "infogeo.alpha_connection",
                 "immersion.decompose"):
        calls_self(name)
        m[f"{name}.distinct_ratio"] = tracer.distinct_ratio(name)
    calls_self("infogeo.curvature")
    for name in ("infogeo.metric_derivative", "infogeo.codazzi_check",
                 "dualflat.hessian_metric", "immersion.structural_check",
                 "immersion.classify", "immersion.induced_volume_check",
                 "immersion.statistical_structure",
                 "submanifold.exponential_form_check"):
        calls_self(name, calls=False)
    calls_self("dualflat.potential")
    steps = tracer.counts["dualflat.geodesic.steps"]
    m["dualflat.geodesic.step_ms"] = (
        1e3 * stat("dualflat.geodesic")[2] / steps if steps else 0.0)
    m["dualflat.legendre_inverse.newton_iters"] = tracer.edge(
        "dualflat.legendre_inverse", "dualflat.dual_coords")
    c, self_s, _ = stat("expressions.eval")
    m["expressions.eval.calls"] = c
    m["expressions.eval.self_s"] = self_s
    m["cli.run.self_s"] = stat("cli.run_document")[1] + stat("cli.run")[1]
    m["cli.report_json_s"] = json_s
    return m


def main(argv) -> int:
    workload_path = argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(workload_path) as fh:
        workload = json.load(fh)
    documents = workload["documents"]

    start = time.perf_counter()
    from igeo import cli, dualflat, immersion, models, numerics
    loaders = {"model": models.load_model, "surface": immersion.load_surface,
               "family": dualflat.load_family}
    for doc in documents:
        (kind, subject), = doc["subject"].items()
        loaders[kind]({"builtin": subject} if isinstance(subject, str) else subject)
    setup_s = time.perf_counter() - start

    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    info = getattr(numerics.quadrature_nodes, "cache_info", None)
    before = info() if info else None
    times = []
    first = _run_pass(cli, documents, times)
    doc_wall_s, doc_cpu_s, json_s, doc_pace_s = zip(*times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"setup_s": setup_s, "doc_wall_s": doc_wall_s, "doc_cpu_s": doc_cpu_s,
              "doc_pace_s": doc_pace_s, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, sum(json_s))
        after = info() if info else None
        lookups = (after.hits + after.misses - before.hits - before.misses) if info else 0
        layers["numerics.quadrature_nodes.hit_ratio"] = (
            (after.hits - before.hits) / lookups if lookups else 0.0)
        result["layers"] = layers
        tracer.write_spans(spans_path)

    second = _run_pass(cli, documents)
    result["identical"] = [strip_stamp(a) == strip_stamp(b)
                           for a, b in zip(first, second)]
    result["reports"] = first
    if "--probe" in argv:
        result["probes"] = [_probe(p, loaders) for p in workload["probes"]]
    import numpy
    import scipy
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
