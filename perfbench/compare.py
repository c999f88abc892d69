"""Compare two benchmark records written by run.py (perfbench/out/*.json).

    python3 perfbench/compare.py BEFORE.json AFTER.json

Prints each metric of both records and the relative change.  Two records
whose rational backends differ are not comparable: the script refuses them
(exit code 2), as it does records of different workloads or modes.
"""

import json
import sys


def compare(before, after):
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            raise ValueError(f"records differ in {key}: {before[key]!r} vs {after[key]!r}")
    b_backend, a_backend = before["meta"]["backend"], after["meta"]["backend"]
    if b_backend != a_backend:
        raise ValueError(f"rational backends differ ({b_backend} vs {a_backend}); the timings are not comparable")
    rows = []
    for name, m in before["metrics"].items():
        if name not in after["metrics"]:
            continue
        b, a = m["value"], after["metrics"][name]["value"]
        change = (a - b) / b if b else float("nan")
        rows.append((name, b, a, change, m["unit"]))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        before = json.load(fh)
    with open(argv[1]) as fh:
        after = json.load(fh)
    try:
        rows = compare(before, after)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    print(f"# {before['workload']}: {before['meta']['git_commit'][:12]} -> {after['meta']['git_commit'][:12]}"
          f" ({before['meta']['backend']}, python {before['meta']['python']} / {after['meta']['python']})")
    for name, b, a, change, unit in rows:
        print(f"{name:42s} {b:>14.6f} {a:>14.6f} {change:>+9.2%} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
