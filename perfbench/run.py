#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mine_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the GraphSig library and the
benchmark from source into .bench_build/ (Release-with-debug-info, the
repository's default build type), and builds every workload's untimed
fixture once per source digest. The run then prints a human-readable
report, a "record" line (nproc, git sha, build type, seeds) and, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of the traced run with --trace 1. Build output goes
to standard error. --workload all runs every workload in turn, each in a
process of its own, and fails if any of them does.

--selftest checks the reporting rules on synthetic samples, then runs
every workload on a tiny input, traced and untraced, and asserts that
each metric BENCHMARK.json declares prints with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("mine_cold", "serve_mix", "ingest_append")
BUILD_TYPE = "RelWithDebInfo"
# A run that has not ended by then is stopped and reported as failed.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources, so results and
    cached fixtures are tied to the code that produced them."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GraphSig sources at %s/src: run from a full checkout" % ROOT)
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return cmake_dir


def run_binary(command):
    """Runs one benchmark process, forwarding its output; returns its
    standard output and exit code. Stops it at the timeout."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not end within %d s" % (command[1], RUN_TIMEOUT_S))
    sys.stdout.write(out)
    sys.stdout.flush()
    return out, proc.returncode


def fixture(binary, workload, digest, tiny):
    """Builds the workload's fixture once per source digest."""
    name = workload + ("-tiny" if tiny else "")
    path = os.path.join(BUILD, "fixtures", digest[:16], name)
    if os.path.isdir(path):
        return path
    staging = "%s.staging-%d" % (path, os.getpid())
    shutil.rmtree(staging, ignore_errors=True)
    command = [binary, "fixture", "--workload=" + workload,
               "--fixture-dir=" + staging]
    if tiny:
        command.append("--tiny")
    result = subprocess.run(command, stdout=sys.stderr)
    if result.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        fail("fixture for %s failed" % workload)
    try:
        os.rename(staging, path)
    except OSError:  # another run finished the same fixture first
        shutil.rmtree(staging, ignore_errors=True)
    return path


def run(cmake_dir, workload, seed, seconds, trace, tiny=False):
    binary = os.path.join(cmake_dir, "perfbench")
    digest = source_digest()
    # The first run in a checkout builds every workload's fixture, so
    # only that run pays for them.
    fixtures = {w: fixture(binary, w, digest, tiny) for w in WORKLOADS}
    fixture_dir = fixtures[workload]
    work_dir = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "run", "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%s" % seconds, "--trace=%d" % trace,
               "--fixture-dir=" + fixture_dir, "--work-dir=" + work_dir,
               "--results-dir=" + os.path.join(BUILD, "results"),
               "--git-sha=" + git_sha(), "--source-digest=" + digest]
    if tiny:
        command.append("--tiny")
    try:
        return run_binary(command)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check_output(out, declared, workload, trace):
    """Problems with one run's output, as a list of strings."""
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        return ["no output"]
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct: %s" % lines[-1][:200])
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    names = [(m["name"], m["unit"]) for m in declared]
    if list(metrics) != [name for name, _ in names]:
        problems.append("metric names differ from BENCHMARK.json")
    for name, unit in names:
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("%s unit %r, declared %r" %
                            (name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r is not a number" % (name, value))
    records = [line for line in lines if line.startswith("record ")]
    if not records:
        problems.append("no record line")
    else:
        record = json.loads(records[-1][len("record "):])
        for key in ("nproc", "git_sha", "build_type", "seed", "input_seeds"):
            if key not in record:
                problems.append("record lacks " + key)
        if record.get("workload") != workload or record.get("trace") != trace:
            problems.append("record names the wrong workload or mode")
    return problems


def selftest():
    cmake_dir = build()
    checks = subprocess.run([os.path.join(cmake_dir, "perfbench_selftest")])
    failures = 0 if checks.returncode == 0 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, code = run(cmake_dir, workload, 1, 1, trace, tiny=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            problems = (["exit code %d" % code] if code != 0 else
                        check_output(out, declared, workload, trace))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("selftest %s trace=%d: %s" % (workload, trace, status),
                  file=sys.stderr)
            failures += bool(problems)
    print("selftest: %s" % ("passed" if failures == 0 else
                             "%d failure(s)" % failures), file=sys.stderr)
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    cmake_dir = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run(cmake_dir, workload, args.seed, args.seconds, args.trace)[1]
             for workload in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
