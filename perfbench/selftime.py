#!/usr/bin/env python3
"""Prints self time per span name from a traced benchmark run.

    python3 perfbench/run.py --workload coprocess --seed 1 --seconds 10 --trace 1
    python3 perfbench/selftime.py .bench_build/traces/coprocess-seed1.json

A span's self time is its duration minus the part of its interval that
its child spans cover. Set-up repetitions (negative iteration ids) and
timed iterations are reported separately, as a mean per repetition or
per traced iteration.
"""

import json
import sys
from collections import defaultdict


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def main(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start_s"], s["end_s"]))

    rows = defaultdict(lambda: [0, 0.0, 0.0])  # count, total, self
    groups = defaultdict(set)
    for s in spans:
        phase = "setup" if s["iteration"] < 0 else "iteration"
        groups[phase].add(s["iteration"])
        duration = s["end_s"] - s["start_s"]
        own = duration - covered(children[s["id"]], s["start_s"], s["end_s"])
        row = rows[(phase, s["name"])]
        row[0] += 1
        row[1] += duration
        row[2] += own

    print(f"{'phase':<10} {'span':<28} {'calls':>6} {'total_s':>10} {'self_s':>10}"
          "   (per repetition / traced iteration)")
    for (phase, name), (count, total, own) in sorted(rows.items()):
        n = max(1, len(groups[phase]))
        print(f"{phase:<10} {name:<28} {count / n:>6.1f} {total / n:>10.4f} "
              f"{own / n:>10.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
