"""Set two perfbench records (run.py --out) side by side.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses, with exit code 2, when the two records ran different workloads or
different corpora (their corpus hashes differ), since their numbers would
not measure the same work.
"""

from __future__ import annotations

import json
import sys


def compare(before: dict, after: dict) -> list:
    """Lines of metric, before, after and after/before; raises ValueError
    when the records are not comparable."""

    for key in ("workload", "corpus_sha256"):
        if before[key] != after[key]:
            raise ValueError(f"{key} differs: {before[key]} vs {after[key]}")
    lines = [f"workload {before['workload']} corpus_sha256 {before['corpus_sha256']}"]
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            lines.append(f"{name:32s} {old:14.6g} {'missing':>14s}")
            continue
        change = f"{new / old:8.3f}x" if old else "       -"
        lines.append(f"{name:32s} {old:14.6g} {new:14.6g} {change}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    try:
        lines = compare(*records)
    except ValueError as err:
        print(f"compare: refusing: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
