"""List every field that differs between two JSON reports.

    python3 scripts/report_diff.py A.json B.json

Walks both documents together (igeo reports, or any JSON such as the
benchmark's probe dumps) and prints one line per differing field: its path,
both values and, when both are numbers, the absolute delta and the delta
relative to the larger magnitude of the two.  A field named ``timestamp`` is
ignored.  When any field differs, a summary line counts them with the
largest absolute delta, and a last line counts the fields named ``status``
that changed or that one side lacks ("0 statuses changed" when only numbers
moved).  Exits 0 when nothing differs, 1 when any field differs and 2 when a
file cannot be read.
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


def statuses(doc, path: str = "") -> dict:
    """path -> value of every field named ``status`` in ``doc``."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            sub = f"{path}.{key}" if path else str(key)
            out.update({sub: value} if key == "status" else statuses(value, sub))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(statuses(value, f"{path}[{i}]"))
    return out


def changed_statuses(a, b) -> list:
    """Paths of the ``status`` fields that differ between ``a`` and ``b``,
    one that is present on one side only included (a check added or gone)."""
    sa, sb = statuses(a), statuses(b)
    return sorted(path for path in set(sa) | set(sb)
                  if sa.get(path, MISSING) != sb.get(path, MISSING))


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
            scale = max(abs(x), abs(y))
            rel = deltas[-1] / scale if scale else 0.0
            line += f"  (abs delta {deltas[-1]:.3g}, rel delta {rel:.3g})"
        print(line)
    if found:
        worst = f", largest abs delta {max(deltas):.3g}" if deltas else ""
        print(f"{len(found)} field(s) differ{worst}")
        moved = len(changed_statuses(*docs))
        print(f"{moved} status{'' if moved == 1 else 'es'} changed")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
