#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 benchmark/run.py --seed N                  # every workload
    python3 benchmark/run.py --workload serve_kv --seed N --seconds 25 --trace 0
    python3 benchmark/run.py --workload closed_hot --seed N --trace 1
    python3 benchmark/run.py --smoke --seed 1          # ~1 s each, no numbers

--seconds defaults to BENCHMARK.json's run_seconds. The benchmark's
command line passes exactly that; numbers taken at another length are
not comparable with the bounds.

Builds benchmark/build/hastm_bench from the checkout's sources (the
unchanged top-level CMake project, Release), then runs each workload
in its own process. The workload checks its own outputs and exits
nonzero when a check fails. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with every end-to-end
metric of BENCHMARK.json (--trace 0) or every per-layer metric
(--trace 1). A per-layer metric of a layer the workload never
exercises reads 0. With several workloads, the last line maps each
workload to its object.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "hastm_bench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure once, then an incremental build of hastm_bench only."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repo"
                 % os.path.join(ROOT, need))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hastm_bench",
                  "-j", "3"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build step failed: " + " ".join(cmd))


def run_workload(spec, workload, seed, seconds, trace, trace_dir, smoke):
    """Run one workload process; return (exit code, result object)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-dir", trace_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print("[%s] %s" % (workload, line))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result (exit %d)" % (workload, p.returncode), 1)
    return p.returncode, shape_result(spec, workload, raw, trace)


def shape_result(spec, workload, raw, trace):
    """Exactly the declared metrics of this run kind, checked."""
    declared = spec["per_layer" if trace else "end_to_end"]
    got = raw["metrics"]
    names = {m["name"] for m in declared}
    extra = [n for n in got if n not in names and not n.startswith("detail.")]
    if extra:
        fail("%s emitted undeclared metrics: %s" % (workload, extra), 1)
    metrics = {}
    for m in declared:
        v = got.get(m["name"])
        if v is None:
            if not trace:
                fail("%s did not measure %s" % (workload, m["name"]), 1)
            v = {"value": 0.0, "unit": m["unit"]}  # layer not exercised
        if v["unit"] != m["unit"]:
            fail("%s: %s in %s, declared %s"
                 % (workload, m["name"], v["unit"], m["unit"]), 1)
        if not trace and not v["value"] > 0:
            fail("%s: %s is not positive" % (workload, m["name"]), 1)
        metrics[m["name"]] = {"value": v["value"], "unit": m["unit"]}
    return {"correct": bool(raw["correct"]) and raw["failed"] == 0,
            "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
            "metrics": metrics}


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads,
                    help="one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir",
                    help="traced-run output (default benchmark/out/...)")
    ap.add_argument("--smoke", action="store_true",
                    help="~1 s per workload on small inputs; never for "
                         "numbers")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        fail("--seconds must be in [1, 600]")
    seconds = 1 if args.smoke else args.seconds

    build()
    chosen = [args.workload] if args.workload else workloads
    results, worst = {}, 0
    for w in chosen:
        trace_dir = args.trace_dir or os.path.join(
            HERE, "out", "%s-seed%d" % (w, args.seed))
        code, res = run_workload(spec, w, args.seed, seconds, args.trace,
                                 trace_dir, args.smoke)
        results[w] = res
        worst = worst or code or (0 if res["correct"] else 1)
        if len(chosen) > 1:
            for name, m in res["metrics"].items():
                print("%-14s %-42s %16.6g %s"
                      % (w, name, m["value"], m["unit"]))
    print(json.dumps(results[chosen[0]] if len(chosen) == 1
                     else {"workloads": results}))
    sys.exit(worst)


if __name__ == "__main__":
    main()
