"""Alternating parent/change runs of the benchmark, recorded in a BENCH file.

    python3 scripts/bench_pairs.py --parent REV [--change REV] \
        --workload model-grid --seeds 101-110 [--seconds 40] --out BENCH_6.json

Extracts the committed files of both revisions into temporary directories
(``git archive``, so uncommitted edits and ignored outputs take no part),
then runs ``perfbench/run.py --trace 0`` once per side and seed, alternating
which side runs first from one pair to the next.  Each run's final JSON line
is stored under its workload, seed and side, with the environment line
before it under ``env``.  The output file is extended, not replaced, so
workloads can be added by separate invocations; a summary per workload
gives each side's median and quartiles of every metric, the pairs the
change won (lower is better for every benchmark metric) and whether that
shows a gain (``gain_shown``: 9 in 10 of at least ten pairs won and a
median drop beyond the parent's quartile spread), and each side's
median ``pace_s`` and unscaled times, which show when a change moves the
pace mix that scales the timings rather than the program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` to ``into``; return the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    *_, env, result = proc.stdout.strip().splitlines()
    return {**json.loads(result), "env": json.loads(env)["env"]}


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: dict) -> dict:
    """Runs that passed the correctness gate and, per metric, each side's
    median and quartiles, the pairs the change won and ``gain_shown``: of
    at least ten pairs the change won 9 in 10 (a tie counts for neither
    side), and its median is below the parent's by more than the parent's
    q3 - q1."""
    pairs = [runs[s] for s in sorted(runs, key=int)]
    out = {"correct_runs": sum(p[side]["correct"] for p in pairs
                               for side in ("parent", "change")),
           "runs": 2 * len(pairs)}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        row = {"pairs": len(pairs),
               "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
               "ties": sum(c == p for p, c in zip(values["parent"], values["change"]))}
        for side, vals in values.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            row[side] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2]}
        parent = row["parent"]
        row["gain_shown"] = (len(pairs) >= 10 and 10 * row["change_wins"] >= 9 * len(pairs)
                             and parent["median"] - row["change"]["median"]
                             > parent["q3"] - parent["q1"])
        out[name] = row
    out["env"] = {side: {"pace_s": statistics.median(p[side]["env"]["pace_s"] for p in pairs),
                         "unscaled": {key: statistics.median(p[side]["env"]["unscaled"][key]
                                                             for p in pairs)
                                      for key in ("setup_s", "wall_s")}}
                  for side in ("parent", "change")}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed or a range lo-hi")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = Path(tmp) / side
            commit = extract(getattr(args, side), trees[side])
            if record.setdefault("commits", {}).setdefault(side, commit) != commit:
                raise SystemExit(f"{args.out} records another {side} commit")
        record["seconds"] = args.seconds
        runs = record.setdefault("workloads", {}).setdefault(args.workload, {})
        for i, seed in enumerate(seed_list(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
                print(f"{args.workload} seed {seed} {side}: "
                      f"pace_s {pair[side]['env']['pace_s']:.4f} "
                      f"{json.dumps(pair[side]['metrics'])}", flush=True)
            runs[str(seed)] = pair
            record.setdefault("summary", {})[args.workload] = summarize(runs)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
