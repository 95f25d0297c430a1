#!/usr/bin/env python3
"""Compare two checkouts of the repo on the benchmark, pair by pair.

    python3 benchmark/compare.py --parent ../parent --change . --pairs 10

Runs every workload (or --workload ...) on both checkouts in pairs,
alternating which side runs first, with seed base+i for pair i on both
sides. Each side runs its own benchmark/run.py, builds itself and
measures for BENCHMARK.json's run_seconds; the bounds and directions
come from the parent's BENCHMARK.json (a change that claims a gain may
not edit the benchmark).

Each (workload, metric) row is reported as:
  improved    the change wins at least 9/10 of the pairs (ties count
              for neither) and the medians differ by more than the
              parent's own quartile spread;
  unresolved  the parent's quartile spread, as a share of its median,
              exceeds the metric's bound;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unchanged   otherwise.
sim_bst also prints a fingerprint of its simulated statistics, which
depends on the seed; the two sides are compared seed by seed, so a
speed-only change can show identity.
Exits 1 when a row is worse or a run failed its correctness checks.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run(side, workload, seed):
    cmd = ["python3", os.path.join("benchmark", "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    p = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().split("\n")
    try:
        res = json.loads(lines[-1])
    except ValueError:
        sys.exit("compare.py: %s %s seed %d printed no result"
                 % (side, workload, seed))
    fp = [m.group(1) for m in map(re.compile(r"fingerprint (0x[0-9a-f]+)")
                                  .search, lines) if m]
    ok = p.returncode == 0 and res["correct"] and res["failed"] == 0
    return res, (fp[0] if fp else None), ok


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(metric, p, c):
    """Row verdict for parent values p and change values c (paired)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    gain = sign * (mc - mp)
    if wins >= 0.9 * len(p) and gain > q3 - q1:
        return "improved", wins
    if mp and (q3 - q1) / abs(mp) > metric["bound"]:
        return "unresolved", wins
    if mp and -gain / abs(mp) > metric["bound"]:
        return "worse", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workload", action="append",
                    help="limit to this workload (repeatable)")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("compare.py: --pairs must be >= 1")

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {s: {w: [] for w in workloads} for s in sides}
    prints = {s: {w: [] for w in workloads} for s in sides}
    failed_runs = 0
    for w in workloads:
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for s in order:
                res, fp, ok = run(sides[s], w, seed)
                failed_runs += not ok
                runs[s][w].append(res)
                if fp:
                    prints[s][w].append((seed, fp))
                print("pair %2d %-12s %-6s seed %d %s" % (
                    i, w, s, seed, "ok" if ok else "FAILED"), flush=True)

    any_worse = False
    print("\n%-12s %-10s %-32s %-32s %-6s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"][w]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"][w]]
            v, wins = verdict(m, p, c)
            any_worse |= v == "worse"
            cell = lambda x: "%.5g [%.5g, %.5g]" % ((statistics.median(x),)
                                                    + quartiles(x))
            print("%-12s %-10s %-32s %-32s %2d/%-3d %s (bound %g)" % (
                w, m["name"], cell(p), cell(c), wins, len(p), v,
                m["bound"]))
        pairs = list(zip(prints["parent"][w], prints["change"][w]))
        if pairs:
            differ = [str(a[0]) for a, b in pairs if a != b]
            print("%-12s fingerprint %s" % (w, (
                "identical on both sides for all %d seeds" % len(pairs))
                if not differ else "DIFFERS for seeds " + ", ".join(differ)))
    if failed_runs:
        print("%d runs failed their correctness checks" % failed_runs)
    sys.exit(1 if any_worse or failed_runs else 0)


if __name__ == "__main__":
    main()
