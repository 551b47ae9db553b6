#!/usr/bin/env python3
"""Compare two sets of benchmark results, layer by layer.

Each set is a JSONL file of result lines as ``run.py --save`` writes
them (the result object plus ``workload``, ``seed`` and ``trace``).
One row per workload: each end-to-end metric's median in both sets,
its change, and whether that change stays within the metric's bound
from ``BENCHMARK.json``; then the per-layer work counts, which must
match exactly run for run (same workload and seed); and, when a set
holds both traced and untraced runs, the tracing overhead.

Usage::

    python3 perfbench/diff.py BASE.jsonl NEW.jsonl

Exit 0 when every end-to-end change is within its bound and every work
count matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import BOUNDS, END_TO_END, EXACT  # noqa: E402


def load(path: str) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _median(records, name):
    values = [r["metrics"][name]["value"] for r in records
              if name in r["metrics"]]
    return statistics.median(values) if values else None


def compare(base: list, new: list, limits: dict) -> tuple:
    """(report lines, ok) for two result sets."""
    lines, ok = [], True
    workloads = sorted({r["workload"] for r in base + new})
    for workload in workloads:
        cells, row_ok = [workload], True
        old_e2e = [r for r in base
                   if r["workload"] == workload and not r["trace"]]
        new_e2e = [r for r in new
                   if r["workload"] == workload and not r["trace"]]
        for name, (unit, better) in END_TO_END.items():
            a, b = _median(old_e2e, name), _median(new_e2e, name)
            if a is None or b is None or not a:
                continue
            change = (b - a) / a
            worse = change if better == "lower" else -change
            within = worse <= limits.get(name, 0.0)
            row_ok &= within
            cells.append(f"{name} {a:.4g}->{b:.4g} {unit} "
                         f"({change:+.1%}{'' if within else ' OVER'})")
        mismatches, compared = _counts(base, new, workload)
        row_ok &= not mismatches
        if compared:
            cells.append(f"counts {compared - len(mismatches)}/{compared} "
                         f"equal")
        for overhead in (_overhead(base, workload),
                         _overhead(new, workload)):
            if overhead is not None:
                cells.append(f"trace overhead {overhead:+.1%}")
        lines.append("  ".join(cells))
        lines.extend(f"  count differs: {m}" for m in mismatches[:20])
        ok &= row_ok
    return lines, ok


def _counts(base, new, workload):
    """Exact work counts of traced runs, matched by seed."""
    olds = {r["seed"]: r for r in base
            if r["workload"] == workload and r["trace"]}
    news = {r["seed"]: r for r in new
            if r["workload"] == workload and r["trace"]}
    mismatches, compared = [], 0
    for seed in sorted(set(olds) & set(news)):
        for name in sorted(EXACT):
            a = olds[seed]["metrics"].get(name, {}).get("value")
            b = news[seed]["metrics"].get(name, {}).get("value")
            compared += 1
            if a != b:
                mismatches.append(f"seed {seed} {name}: {a} -> {b}")
    return mismatches, compared


def _overhead(records, workload):
    """Traced vs untraced median wall of one set, as a share."""
    plain = _median([r for r in records if r["workload"] == workload
                     and not r["trace"]], "wall_s")
    traced = _median([r for r in records if r["workload"] == workload
                      and r["trace"]], "trace.wall_s")
    if not plain or traced is None:
        return None
    return traced / plain - 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    lines, ok = compare(load(args.base), load(args.new), BOUNDS)
    print("\n".join(lines))
    print("ok" if ok else "REGRESSION or count mismatch")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
