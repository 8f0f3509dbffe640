#!/usr/bin/env python3
"""Steadiness tool: repeat one perfbench workload and report each metric's
spread, or compare two saved summaries.

    python3 perfbench/steady.py --workload bi_serve --runs 10 --out a.json
    python3 perfbench/steady.py --compare a.json b.json

Run i uses seed first_seed + i. For every metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4) and the relative
spread (q3 - q1) / median, next to the metric's bound in BENCHMARK.json:
a spread above its bound means the metric cannot gate a change; the bounds
are set so that spreads stay under a third of them. Runs whose fingerprints
differ in anything but the seed are marked NOT COMPARABLE, as are two
summaries whose fingerprints differ in anything but seed and source.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Recorded per run but expected to differ between runs (and, for source,
# between the two sides of a comparison).
PER_RUN_KEYS = ("seed",)
PER_SIDE_KEYS = ("seed", "source")


def bounds():
    try:
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    fingerprint = {}
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} failed")
    result = json.loads(lines[-1])
    return {"seed": seed, "fingerprint": fingerprint,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "units": {k: v["unit"] for k, v in result["metrics"].items()}}


def differing(a, b, ignore):
    keys = (set(a) | set(b)) - set(ignore)
    return sorted(k for k in keys if a.get(k) != b.get(k))


def summarize(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["units"][name]}
    return out


def print_summary(summary):
    limit = bounds()
    print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, s in summary.items():
        bound = limit.get(name)
        flag = ""
        if bound is not None:
            flag = ("ok" if s["spread"] < bound / 3 else
                    "within bound" if s["spread"] <= bound else "TOO WIDE")
        print(f"{name:26} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.3f} {bound if bound is not None else '':>6} "
              f"{s['unit']} {flag}")


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    diff = differing(a["fingerprint"], b["fingerprint"], PER_SIDE_KEYS)
    if diff:
        print("NOT COMPARABLE: fingerprints differ in " + ", ".join(diff))
        return 1
    limit = bounds()
    print(f"{'metric':26} {'median A':>12} {'median B':>12} {'B/A':>8} {'bound':>6}")
    for name, sa in a["summary"].items():
        sb = b["summary"].get(name)
        if sb is None:
            continue
        ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")
        print(f"{name:26} {sa['median']:12.5g} {sb['median']:12.5g} "
              f"{ratio:8.3f} {limit.get(name, '') or '':>6}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save the summary as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload or args.runs < 2:
        parser.error("--workload and --runs >= 2 are required")

    runs = []
    for i in range(args.runs):
        r = run(args.workload, args.first_seed + i, args.seconds, args.trace)
        print(f"seed {r['seed']}: " + ", ".join(
            f"{k}={v:.5g}" for k, v in r["metrics"].items()), flush=True)
        runs.append(r)
    comparable = all(
        not differing(runs[0]["fingerprint"], r["fingerprint"], PER_RUN_KEYS)
        for r in runs)
    if not comparable:
        print("NOT COMPARABLE: run fingerprints differ beyond the seed")
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        fingerprint = dict(runs[0]["fingerprint"], comparable=comparable)
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fingerprint, "summary": summary}, f,
                      indent=1)
    return 0 if comparable else 1


if __name__ == "__main__":
    sys.exit(main())
