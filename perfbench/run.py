#!/usr/bin/env python3
"""Builds and runs the impreg serving benchmark.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]
  python3 perfbench/run.py --self-test

The first form builds the harness (CMake, under .bench_build/) when
needed, runs one workload and passes the harness's output through: its
last stdout line is the JSON result. `--workload all` runs every
workload untraced and traced and prints one table. `--self-test` checks
that intent.json describes BENCHMARK.json's per-layer metrics, then
builds and runs the benchmark's own tests. Build output goes to stderr. The
exit code is non-zero when the build fails or any check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["local-push-large", "hot-push-small", "community-writes",
             "dense-ppr"]


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, target)


def run_all(binary, args):
    seed, seconds = "1", "10"
    for flag, value in zip(args, args[1:]):
        if flag == "--seed":
            seed = value
        elif flag == "--seconds":
            seconds = value
    ok = True
    for trace in ("0", "1"):
        for workload in WORKLOADS:
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", seed,
                 "--seconds", seconds, "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write("== %s (trace %s)\n%s" % (workload, trace,
                                                      done.stdout))
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
    print("all workloads: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def intent_matches_benchmark():
    """True when intent.json describes exactly BENCHMARK.json's per-layer
    metrics, in the same order; BENCHMARK.json owns names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [m["name"] for m in json.load(f)["per_layer"]]
    with open(os.path.join(ROOT, "perfbench", "intent.json")) as f:
        described = list(json.load(f)["per_layer"])
    if described != declared:
        sys.stderr.write("perfbench: intent.json's per-layer metrics differ "
                         "from BENCHMARK.json's: only in intent.json %s, "
                         "only in BENCHMARK.json %s\n"
                         % (sorted(set(described) - set(declared)),
                            sorted(set(declared) - set(described))))
        return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not intent_matches_benchmark():
            return 1
        binary = build("perfbench_test")
        if binary is None:
            return 3
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("perfbench")
    if binary is None:
        return 3
    if "all" in argv and argv[argv.index("all") - 1] == "--workload":
        return run_all(binary, argv)
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
