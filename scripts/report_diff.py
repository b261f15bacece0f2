"""List every field that differs between two JSON reports.

    python3 scripts/report_diff.py A.json B.json

Walks both documents together (igeo reports, or any JSON such as the
benchmark's probe dumps) and prints one line per differing field: its path,
both values and, when both are numbers, the absolute delta.  A field named
``timestamp`` is ignored.  Exits 0 when nothing differs, 1 when any field
differs and 2 when a file cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys

IGNORED = {"timestamp"}
MISSING = "<missing>"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def differences(a, b, path: str = "") -> list:
    """(path, a, b) for every field where ``a`` and ``b`` differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            if key in IGNORED:
                continue
            sub = f"{path}.{key}" if path else str(key)
            out += differences(a.get(key, MISSING), b.get(key, MISSING), sub)
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, f"{path}[{i}]")]
    if a == b and type(a) is type(b):
        return []
    return [(path, a, b)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="first JSON file")
    parser.add_argument("b", help="second JSON file")
    args = parser.parse_args(argv)
    try:
        docs = [json.loads(open(name).read()) for name in (args.a, args.b)]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    found = differences(*docs)
    deltas = []
    for path, x, y in found:
        line = f"{path or '<root>'}: {json.dumps(x)} -> {json.dumps(y)}"
        if _is_number(x) and _is_number(y):
            deltas.append(abs(x - y))
            line += f"  (abs delta {deltas[-1]:.3g})"
        print(line)
    if found:
        worst = f", largest abs delta {max(deltas):.3g}" if deltas else ""
        print(f"{len(found)} field(s) differ{worst}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
