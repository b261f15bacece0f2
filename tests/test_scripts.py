import json
import subprocess
import sys
from pathlib import Path

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
