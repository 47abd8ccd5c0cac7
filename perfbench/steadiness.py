#!/usr/bin/env python3
"""Run-to-run steadiness of the served-sketch benchmark.

Run one workload K times, each with another seed, and print the median,
quartiles and spread of every metric against the bounds in BENCHMARK.json:

    python3 perfbench/steadiness.py --workload read_mix --runs 10 \
        --seed0 100 --save /tmp/a.json

Compare two saved sets the way a regression gate does (each median of the
second set must not be worse than the first's by more than the bound, and
the share of failed operations must be the same):

    python3 perfbench/steadiness.py --compare /tmp/a.json /tmp/b.json

Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread is
below a third of its bound; the "min bound" column is three times the
spread, the smallest bound this set of runs would support.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def run_once(workload, seed, seconds, trace):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (seed %d, exit %d):\n%s"
                 % (seed, proc.returncode, proc.stdout[-2000:]))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(spec, data):
    specs = metric_specs(spec, data["trace"])
    runs = data["runs"]
    print("%s: %d runs, seeds %s" % (data["workload"], len(runs),
                                     [r["seed"] for r in runs]))
    fails = sorted({(r["failed"], r["attempted"]) for r in runs})
    print("correct in every run: %s; failed/attempted per run: %s"
          % (all(r["correct"] for r in runs),
             sorted({f / a for f, a in fails})))
    print("%-38s %12s %12s %12s %8s %7s %9s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "min bound",
        "verdict"))
    ok = True
    for name, m in specs.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med, q1, q3, sp = spread(values)
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif sp < bound / 3:
            verdict = "steady"
        elif sp <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
            ok = False
        print("%-38s %12.5g %12.5g %12.5g %8.4f %7s %9.4f  %s" % (
            name, med, q1, q3, sp, "" if bound is None else bound, 3 * sp,
            verdict))
    return ok


def compare(spec, a, b):
    specs = metric_specs(spec, a["trace"])
    ok = True
    share = [{r["failed"] / r["attempted"] for r in s["runs"]} for s in (a, b)]
    if share[0] != share[1]:
        print("failed-operation share differs: %s vs %s" % tuple(share))
        ok = False
    print("%-26s %12s %12s %8s %7s  %s" % ("metric", "median A",
                                           "median B", "worse", "bound", ""))
    for name, m in specs.items():
        if "bound" not in m:
            continue
        ma = statistics.median(r["metrics"][name]["value"] for r in a["runs"])
        mb = statistics.median(r["metrics"][name]["value"] for r in b["runs"])
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        good = worse <= m["bound"]
        ok = ok and good
        print("%-26s %12.5g %12.5g %8.4f %7.3f  %s" % (
            name, ma, mb, worse, m["bound"], "ok" if good else "REGRESSED"))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1,
                   help="seed of the first run; run i uses seed0 + i")
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="write the runs to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        for s in sets:
            report(spec, s)
            print()
        sys.exit(0 if compare(spec, *sets) else 1)
    if not args.workload:
        p.error("--workload or --compare is required")
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        result = run_once(args.workload, seed, seconds, args.trace)
        result["seed"] = seed
        runs.append(result)
        print("run %d/%d seed %d done" % (i + 1, args.runs, seed),
              file=sys.stderr)
    data = {"workload": args.workload, "trace": args.trace,
            "seconds": seconds, "runs": runs}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(data, f, indent=1)
    sys.exit(0 if report(spec, data) else 1)


if __name__ == "__main__":
    main()
