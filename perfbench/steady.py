#!/usr/bin/env python3
"""Steadiness runs for the cfva benchmark.

Run from the root of the repository:

    python3 perfbench/steady.py run --runs 10 --out set_a.json
    python3 perfbench/steady.py run --runs 10 --first-seed 5000 --out set_b.json
    python3 perfbench/steady.py compare set_a.json set_b.json

`run` runs every workload N times in alternation (sweep, wire_hit,
wire_miss, sweep, ...), run i with seed first_seed + i, through the
command in BENCHMARK.json, and prints for every end-to-end metric the
median, the quartiles, the quartile spread (q3 - q1) / median and the
min/max spread (max - min) / median, with the failed share and a
machine fingerprint. `compare` sets the medians of two such sets side
by side, as a share of the first, against each metric's bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "rustc": rustc,
        "kernel": platform.release(),
    }


def config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """Median, quartiles and the two spreads as shares of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    rel = (lambda x: x / med) if med else (lambda x: 0.0)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": rel(q3 - q1),
        "min": min(values),
        "max": max(values),
        "range_share": rel(max(values) - min(values)),
    }


def one_run(cfg, workload, seed, seconds, trace):
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_run(args):
    cfg = config()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in cfg["workloads"]]
    seconds = args.seconds or cfg["run_seconds"]
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            res = one_run(cfg, w, args.first_seed + i, seconds, 0)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                file=sys.stderr)
    summary = {"fingerprint": fingerprint(), "seconds": seconds,
               "runs": args.runs, "first_seed": args.first_seed,
               "workloads": {}}
    for w, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for m in cfg["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = dict(spread(values), values=values)
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "metrics": metrics,
        }
    print(json.dumps(summary["fingerprint"]))
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    for w, s in summary["workloads"].items():
        print(f"\n{w}: correct={s['correct']} attempted={s['attempted']} "
              f"failed={s['failed']} ({s['failed_share']:.6f})")
        print(f"  {'metric':<12} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for name, m in s["metrics"].items():
            print(f"  {name:<12} {m['median']:>14.6g} {m['q1']:>14.6g} "
                  f"{m['q3']:>14.6g} {m['iqr_share']:>8.4f} "
                  f"{m['range_share']:>9.4f} {bounds.get(name, 0):>6}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)


def cmd_compare(args):
    cfg = config()
    better = {m["name"]: m["better"] for m in cfg["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    print("A:", json.dumps(a["fingerprint"]))
    print("B:", json.dumps(b["fingerprint"]))
    worst = 0.0
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(f"\n{w}: failed share A {wa['failed_share']:.6f} "
              f"B {wb['failed_share']:.6f}")
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"][name]
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if better[name] == "lower" else -change
            flag = "WORSE" if worse > bounds[name] else "ok"
            worst = max(worst, worse / bounds[name])
            print(f"  {name:<12} A {ma['median']:>14.6g} B {mb['median']:>14.6g} "
                  f"change {change:+.4f} bound {bounds[name]} {flag}")
    print(f"\nworst worsening as a share of its bound: {worst:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run every workload N times in alternation")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1992)
    run.add_argument("--seconds", type=int, default=0,
                     help="run length (default: run_seconds of BENCHMARK.json)")
    run.add_argument("--workloads", default="",
                     help="comma-separated subset (default: all)")
    run.add_argument("--out", default="", help="write the set as JSON here")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare the medians of two sets")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
