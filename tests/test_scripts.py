import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def report_diff(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return subprocess.run([sys.executable, str(SCRIPTS / "report_diff.py"),
                           *map(str, paths)], capture_output=True, text=True)


class TestReportDiff:
    REPORT = {"seed": 1, "timestamp": "t0", "runs": [
        {"label": "m", "results": {"codazzi": {"status": "pass",
                                               "residuals": {"alpha=1": 1e-9}}}}]}

    def test_only_the_timestamp_differs(self, tmp_path):
        proc = report_diff(tmp_path, self.REPORT, {**self.REPORT, "timestamp": "t1"})
        assert proc.returncode == 0 and proc.stdout == ""

    def test_lists_each_moved_field_with_its_delta(self, tmp_path):
        moved = json.loads(json.dumps(self.REPORT))
        result = moved["runs"][0]["results"]["codazzi"]
        result["residuals"]["alpha=1"] = 1.5e-9
        result["status"] = "fail"
        moved["extra"] = True
        proc = report_diff(tmp_path, self.REPORT, moved)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert lines[0] == 'extra: "<missing>" -> true'
        assert lines[1].startswith("runs[0].results.codazzi.residuals.alpha=1: 1e-09 -> 1.5e-09")
        assert "abs delta 5e-10" in lines[1]
        assert lines[2] == 'runs[0].results.codazzi.status: "pass" -> "fail"'
        assert lines[3] == "3 field(s) differ, largest abs delta 5e-10"

    def test_int_and_float_are_told_apart(self, tmp_path):
        proc = report_diff(tmp_path, {"n": 1}, {"n": 1.0})
        assert proc.returncode == 1

    def test_relative_delta_beside_the_absolute_one(self, tmp_path):
        proc = report_diff(tmp_path, {"a": 4.0, "b": -0.0, "c": "x"},
                           {"a": 5.0, "b": 0, "c": "y"})
        lines = proc.stdout.splitlines()
        assert lines[0] == "a: 4.0 -> 5.0  (abs delta 1, rel delta 0.2)"
        # both zero: no scale to divide by
        assert lines[1] == "b: -0.0 -> 0  (abs delta 0, rel delta 0)"
        assert lines[2] == 'c: "x" -> "y"'

    def test_counts_the_statuses_that_changed(self, tmp_path):
        moved = json.loads(json.dumps(self.REPORT))
        moved["runs"][0]["results"]["codazzi"]["residuals"]["alpha=1"] = 2e-9
        proc = report_diff(tmp_path, self.REPORT, moved)
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[-2:] == ["1 field(s) differ, largest abs delta 1e-09",
                                                 "0 statuses changed"]
        results = moved["runs"][0]["results"]
        results["codazzi"]["status"] = "fail"
        results["flatness"] = {"status": "pass"}  # a check only one side ran
        moved["status"] = "done"
        proc = report_diff(tmp_path, self.REPORT, moved)
        assert proc.stdout.splitlines()[-1] == "3 statuses changed"
        del results["flatness"], moved["status"]
        proc = report_diff(tmp_path, self.REPORT, moved)
        assert proc.stdout.splitlines()[-1] == "1 status changed"


# perfbench/run.py stand-in: the environment line, then the result line,
# with a wall time proportional to the seed and a fixed pace per revision
RUN_STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, pace, wall = int(args["--seed"]), PACE, WALL * int(args["--seed"])
print("sample log line")
print(json.dumps({"env": {"workload": args["--workload"], "seed": seed, "pace_s": pace,
                          "unscaled": {"setup_s": 0.4, "wall_s": wall}}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"wall_s": {"value": wall * 0.02 / pace, "unit": "s"}}}))
"""


class TestBenchPairs:
    """The BENCH file keeps each run's environment line and summarises each
    side's pace and unscaled times, so a moved pace mix shows."""

    @staticmethod
    def git(tree, *args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                        "-C", str(tree), *args], check=True, capture_output=True)

    def commit_stub(self, tree, pace, wall):
        (tree / "perfbench" / "run.py").write_text(
            RUN_STUB.replace("PACE", repr(pace)).replace("WALL", repr(wall)))
        self.git(tree, "add", "-A")
        self.git(tree, "commit", "-q", "-m", f"pace {pace}")

    def test_env_lines_and_their_medians_are_kept(self, tmp_path):
        tree = tmp_path / "repo"
        (tree / "scripts").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "scripts" / "bench_pairs.py").write_text(
            (SCRIPTS / "bench_pairs.py").read_text())
        self.git(tree, "init", "-q")
        self.commit_stub(tree, 0.02, 1.0)
        self.commit_stub(tree, 0.03, 0.9)
        out = tmp_path / "BENCH.json"
        proc = subprocess.run([sys.executable, str(tree / "scripts" / "bench_pairs.py"),
                               "--parent", "HEAD~1", "--workload", "w", "--seeds", "1-3",
                               "--seconds", "1", "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        record = json.loads(out.read_text())
        runs = record["workloads"]["w"]
        assert [runs[s]["first"] for s in ("1", "2", "3")] == ["parent", "change", "parent"]
        for seed in (1, 2, 3):
            pair = runs[str(seed)]
            assert pair["parent"]["env"] == {"workload": "w", "seed": seed, "pace_s": 0.02,
                                             "unscaled": {"setup_s": 0.4, "wall_s": 1.0 * seed}}
            assert pair["change"]["env"]["pace_s"] == 0.03
            assert pair["change"]["metrics"]["wall_s"]["value"] == pytest.approx(0.6 * seed)
        summary = record["summary"]["w"]
        assert summary["wall_s"]["change_wins"] == 3
        assert summary["env"] == {
            "parent": {"pace_s": 0.02, "unscaled": {"setup_s": 0.4, "wall_s": 2.0}},
            "change": {"pace_s": 0.03, "unscaled": {"setup_s": 0.4, "wall_s": 1.8}}}


def _bench_pairs():
    import importlib.util
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGainShown:
    """``gain_shown`` needs 9 wins in 10 of at least ten pairs and a median
    drop beyond the parent's quartile spread."""

    @staticmethod
    def side(metrics):
        return {"correct": True, "env": {"pace_s": 0.02,
                                         "unscaled": {"setup_s": 0.4, "wall_s": 1.0}},
                "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}

    def test_shown_below_the_spread_and_too_few_wins(self):
        parent = [1.0 + 0.01 * i for i in range(10)]  # q3 - q1 = 0.055
        change = {
            "shown": [p - 0.2 for p in parent],
            "below_spread": [p - 0.03 for p in parent],
            # 8 wins, 1 tie, 1 loss: the median drop alone would show a gain
            "few_wins": [p - 0.2 for p in parent[:8]] + [parent[8], parent[9] + 0.1],
        }
        runs = {str(s): {"parent": self.side({name: parent[s] for name in change}),
                         "change": self.side({name: vals[s] for name, vals in change.items()})}
                for s in range(10)}
        summary = _bench_pairs().summarize(runs)
        assert summary["shown"]["gain_shown"] is True
        assert summary["below_spread"]["change_wins"] == 10
        assert summary["below_spread"]["gain_shown"] is False
        assert (summary["few_wins"]["change_wins"], summary["few_wins"]["ties"]) == (8, 1)
        assert summary["few_wins"]["parent"]["median"] - summary["few_wins"]["change"][
            "median"] > 0.055
        assert summary["few_wins"]["gain_shown"] is False
        # five pairs, all won far beyond the spread, are too few to show a gain
        five = _bench_pairs().summarize({s: runs[s] for s in map(str, range(5))})
        assert five["shown"]["change_wins"] == 5 and five["shown"]["gain_shown"] is False
