#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The build lives in .bench_build/perfbench
(CMake, Release). Every flag except --workload all and --selftest is passed to
the sperbench binary, which rejects unknown flags and malformed numbers. The
last line of standard output is the run's JSON result; build output goes to
standard error. The exit code is non-zero when the build fails, a flag is
rejected, or any output check fails. See perfbench/README.md.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["pps-dbpedia", "pbs-cora", "serve-cora"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds sperbench; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "resolver.h")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-20000:])
            fail("build step failed: " + " ".join(step))
    return BUILD_DIR


def git_sha():
    """HEAD of the checkout's own git repository; "none" when the checkout
    is not one (a repository in a parent directory does not count)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def src_digest():
    """SHA-256 over the library sources, so a record names its code even
    where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_one(binary, args):
    cmd = [binary] + args + ["--git-sha", git_sha(),
                             "--src-digest", src_digest()]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout


def main(argv):
    if argv == ["--selftest"]:
        build_dir = build()
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=ROOT).returncode
    workload = None
    for k, arg in enumerate(argv):
        if arg == "--workload" and k + 1 < len(argv):
            workload = argv[k + 1]
        elif arg.startswith("--workload="):
            workload = arg.split("=", 1)[1]
    if workload is None:
        fail("--workload is required (one of %s, or all)"
             % ", ".join(WORKLOADS))
    binary = os.path.join(build(), "sperbench")
    if workload != "all":
        code, _ = run_one(binary, argv)
        return code

    # All workloads in turn; the last line combines their results.
    rest = []
    skip = False
    for k, arg in enumerate(argv):
        if skip:
            skip = False
        elif arg == "--workload":
            skip = True
        elif not arg.startswith("--workload="):
            rest.append(arg)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, out = run_one(binary, ["--workload", name] + rest)
        worst = worst or code
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    if worst:
        return worst
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
