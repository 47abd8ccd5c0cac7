#!/usr/bin/env python3
"""Served-sketch benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds sketch_serverd and the perfbench
binary from the checkout's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
perfbench. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_ingest", "small_frames", "read_mix")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sketch sources under %s/src; "
                 "run from the root of a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=850).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check that the oracle catches seeded faults")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    out = build_dir()
    binary = build(out)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", out]
    sys.stdout.flush()
    # perfbench and the daemon it starts share a new process group, so a
    # hung run is ended whole: the daemon does not outlive a killed perfbench.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=175)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(rc)


if __name__ == "__main__":
    main()
