#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload bi_serve --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the harness and the engine it links
(RelWithDebInfo) under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset. Each run prints a fingerprint line, human-readable
metric lines, and as its last line one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 only when every answer
matched its oracle-verified value and no op failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("bi_serve", "bi_cold", "la_sparse")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A run's own deadline; a stuck run is killed well inside the 180 s a run
# may take.
RUN_TIMEOUT_S = 170
# A cold build takes about 2 minutes on 4 cores; the first run may take 900 s
# in all, build included.
BUILD_TIMEOUT_S = 700


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def source_id(root):
    """The git commit when the checkout is a repository, else a digest of
    the engine and harness sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def run_one(binary, workload, args, root):
    """Runs one workload; returns (exit status, stdout lines or None when
    the last line is not a result object)."""
    os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
    trace_out = os.path.join(build_dir(), "traces",
                             f"{workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id(root), "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(proc.stdout)
        log(f"{workload}: no result line (exit status {proc.returncode})")
        return proc.returncode or 1, None
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("run from the root of a source checkout: src/ is missing")
        return 2
    try:
        out = build(["perfbench_test"] if args.selftest else ["perfbench"])
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_test")],
                              timeout=RUN_TIMEOUT_S).returncode

    binary = os.path.join(out, "perfbench")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        rc, lines = run_one(binary, workload, args, root)
        status = status or rc
        if lines is not None:
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            print("\n".join(lines), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
