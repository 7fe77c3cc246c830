#!/usr/bin/env python3
"""Builds and runs gjoin's benchmark for one workload (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark program is built from source
into $CARGO_TARGET_DIR (default .bench_build). Each run first checks that
the workload's modeled results are bit-identical at host pool widths 1
and N on small inputs (and that its composed layer calls equal api::Join
there), then runs the measured process at pool width N = min(4, CPUs).
The last line of stdout is one JSON object: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["ingpu_uniform", "stream_probe", "coprocess", "skew_batch"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    for needed in ("CMakeLists.txt", "src/api/gjoin.h", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a gjoin source checkout")
    out = build_dir()
    jobs = str(pool_width())
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "gjoin_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, env=child_env(), stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "gjoin_perfbench")


def pool_width():
    """Host pool width: min(4, CPUs this process may run on)."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def child_env(**extra):
    """Environment of child processes: temporary files stay in the build
    directory, so a run writes nothing outside the checkout."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def run_child(binary, args, threads):
    """Runs the benchmark program; returns (stdout lines, last-line JSON)."""
    env = child_env(GJOIN_CPU_THREADS=str(threads))
    try:
        done = subprocess.run([binary] + args, env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} timed out")
    lines = done.stdout.splitlines()
    if not lines:
        fail(f"{' '.join(args)} printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{' '.join(args)} did not end with a JSON result")
    return lines[:-1], result, done.returncode


def width_check(binary, workload, seed):
    """Selfcheck at pool widths 1 and N: composed layer calls == api::Join
    and identical fingerprints. Returns (ok, attempted, failed)."""
    widths = [1, max(2, pool_width())]
    fingerprints = []
    attempted = failed = 0
    ok = True
    for threads in widths:
        lines, result, code = run_child(
            binary, [f"--workload={workload}", f"--seed={seed}", "--selfcheck"],
            threads)
        for line in lines:
            if line.startswith("selfcheck") or line.startswith("fingerprint"):
                print(f"# width {threads}: {line}")
        found = [ln.split()[1] for ln in lines if ln.startswith("fingerprint ")]
        fingerprints.append(found[0] if found else None)
        attempted += result["attempted"]
        failed += result["failed"]
        ok = ok and code == 0 and result["correct"]
    same = fingerprints[0] is not None and len(set(fingerprints)) == 1
    print(f"# pool widths {widths}: modeled results "
          f"{'bit-identical' if same else 'DIFFER'}")
    return ok and same, attempted, failed


def self_test(binary):
    status = 0
    for workload in WORKLOADS:
        ok, _, _ = width_check(binary, workload, seed=1)
        print(f"self-test {workload}: {'PASS' if ok else 'FAIL'}")
        status |= 0 if ok else 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check every workload against api::Join and "
                             "across pool widths at a small size")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.self_test:
        return self_test(binary)

    ok, attempted, failed = width_check(binary, args.workload, args.seed)
    child_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                  f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        child_args.append("--trace_out=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))
    lines, result, code = run_child(binary, child_args, pool_width())
    if code != 0:
        fail(f"benchmark exited with {code}")
    for line in lines:
        print(line)
    result["correct"] = bool(result["correct"] and ok)
    result["attempted"] += attempted
    result["failed"] += failed
    print(f"# failed_ops_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} joins, width check "
          "included)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
