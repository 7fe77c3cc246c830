#!/usr/bin/env python3
"""Compare a micro_kernels run against the committed baseline.

Usage:
  micro_kernels --benchmark_filter='...' --benchmark_format=json \
      | scripts/check_micro_baseline.py bench/baselines/micro_kernels.json

The baseline stores per-benchmark cpu_time (ns) recorded on one machine;
a fresh run on a different machine is uniformly faster or slower. To
separate machine speed from simulator regressions, the checker
normalizes every benchmark's current/baseline ratio by a *calibration*
benchmark that exercises no simulator code (BM_ZipfGeneration: pure
data generation) and flags kernels that drifted past the tolerance
relative to it. A broad regression across all simulator kernels is
still caught because the calibration kernel does not move with them.
If the calibration benchmark is absent, the median ratio is used (which
only catches regressions in fewer than half the kernels).

An entry whose cpu_time is below 25% of its real_time is rejected
unless its name ends in /process_time: its work runs on pool threads the
per-thread CPU clock cannot see, so it measures only the dispatching
main thread. Register such entries with MeasureProcessCPUTime().

Exit status: 0 = within tolerance, 1 = regression or a mis-clocked entry,
2 = usage/data error.
Tolerance defaults to 0.30; override with GJOIN_MICRO_TOLERANCE.
"""

import json
import os
import statistics
import sys

CALIBRATION_PREFIX = "BM_ZipfGeneration/"
PROCESS_CLOCK_SUFFIX = "/process_time"
MIN_CPU_TO_REAL = 0.25


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(os.environ.get("GJOIN_MICRO_TOLERANCE", "0.30"))

    with open(sys.argv[1]) as f:
        baseline = json.load(f)["benchmarks"]
    current_run = json.load(sys.stdin)
    current = {b["name"]: b["cpu_time"] for b in current_run["benchmarks"]}

    failed = False
    for b in current_run["benchmarks"]:
        if (not b["name"].endswith(PROCESS_CLOCK_SUFFIX)
                and b["cpu_time"] < MIN_CPU_TO_REAL * b["real_time"]):
            failed = True
            print(f"CLOCK {b['name']}: cpu_time is "
                  f"{b['cpu_time'] / b['real_time']:.0%} of real_time; "
                  f"the work runs off the main thread, so register it "
                  f"with MeasureProcessCPUTime()")

    ratios = {}
    for name, base_ns in baseline.items():
        if name not in current:
            print(f"MISSING  {name}: not in current run", file=sys.stderr)
            return 2
        ratios[name] = current[name] / base_ns

    calibration = [r for n, r in ratios.items()
                   if n.startswith(CALIBRATION_PREFIX)]
    if calibration:
        reference = statistics.median(calibration)
        ref_label = "calibration"
    else:
        reference = statistics.median(ratios.values())
        ref_label = "median"
    limit = reference * (1.0 + tolerance)

    for name, ratio in sorted(ratios.items()):
        if name.startswith(CALIBRATION_PREFIX):
            print(f"CAL  {name}: {ratio:.2f}x of baseline")
            continue
        verdict = "OK  " if ratio <= limit else "SLOW"
        if ratio > limit:
            failed = True
        print(f"{verdict} {name}: {ratio:.2f}x of baseline "
              f"(limit {limit:.2f}x, {ref_label} {reference:.2f}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
