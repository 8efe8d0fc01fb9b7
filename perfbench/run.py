#!/usr/bin/env python3
"""Repository benchmark: build the simulator, time one workload, check it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sipt-long --seed 1 --seconds 10 --trace 0

Builds perfbench/CMakeLists.txt (the simulator libraries from src/
plus the timing harness) into .bench_build/perfbench, runs the
harness, and checks its simulated-result digests:

- against perfbench/expected/<workload>.json, committed at the
  default seed: the harness runs one extra untimed round at that
  seed when --seed differs;
- across rounds (every round must repeat the first round's results)
  and, with --trace 1, between the traced and untraced rounds;
- optionally against a digest file written by another commit
  (--compare-digests), so a parent/change pair can be checked for
  identical results on a held-out seed (--write-digests writes one).

A run that aborts the harness (panic, fatal, a signal or the time
limit) fails every operation it started. With --trace 1 the metric
trace.replica_current is 0 when a source file the stage-timed replica
mirrors differs from the one it was written against
(perfbench/expected/replica-sources.json): the replica then times a
copy of the engine that may no longer match the program.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("claim-sweep", "sipt-long", "quad-vipt-mix")
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the harness up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "system.hh")):
        fail("no simulator sources under src/; run from a full checkout")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))


def run_harness(args):
    """The harness's result, or None and the operations it started
    when it did not finish."""
    cmd = [HARNESS, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out, code = e.stdout or "", "a timeout"
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
    lines = out.strip().splitlines()
    if code == 0:
        return json.loads(lines[-1]), 0
    if code == 2:
        fail("the harness refused to measure (see above)")
    print(f"perfbench: harness ended with {code}", file=sys.stderr)
    started = sum(json.loads(line)["started"] for line in lines
                  if line.startswith('{"started"'))
    return None, started


def sha256_of(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def replica_current():
    """Whether the sources the replica mirrors are unchanged."""
    with open(os.path.join(BENCH_DIR, "expected",
                           "replica-sources.json")) as f:
        mirrored = json.load(f)
    stale = [path for path, digest in mirrored.items()
             if not os.path.isfile(path) or sha256_of(path) != digest]
    for path in stale:
        print(f"perfbench: warning: {path} changed since the replica "
              "was written; the stage timings may not describe it",
              file=sys.stderr)
    return not stale


def mismatches(actual, expected):
    """Count the jobs whose digests in actual and expected differ."""
    return sum(1 for label, digest in expected.items()
               if actual.get(label) != digest) + \
        sum(1 for label in actual if label not in expected)


def load_digests(path, workload, seed):
    with open(path) as f:
        data = json.load(f)
    if data.get("workload") != workload or data.get("seed") != seed:
        fail(f"{path} holds {data.get('workload')} at seed "
             f"{data.get('seed')}, not {workload} at seed {seed}")
    return data["digests"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", metavar="FILE",
                        help="write this run's digests to FILE")
    parser.add_argument("--compare-digests", metavar="FILE",
                        help="require the digests in FILE (same "
                             "workload and seed, another commit)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    build()
    result, started = run_harness(args)
    if result is None:
        attempted = max(started, 1)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return

    rounds = result["rounds"]
    attempted = result["attempted"]
    failed = result["failed"]
    expected = load_digests(
        os.path.join(BENCH_DIR, "expected", f"{args.workload}.json"),
        args.workload, DEFAULT_SEED)
    if args.seed == DEFAULT_SEED:
        failed += rounds * mismatches(result["digests"], expected)
    else:
        check = result["check"]
        attempted += len(check["digests"])
        failed += check["failed"] + mismatches(check["digests"],
                                               expected)
    if args.compare_digests:
        other = load_digests(args.compare_digests, args.workload,
                             args.seed)
        failed += rounds * mismatches(result["digests"], other)
    if args.write_digests:
        with open(args.write_digests, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "digests": result["digests"],
                       "env": result["env"]}, f, indent=2,
                      sort_keys=True)
            f.write("\n")

    # An operation that fails several checks still counts once.
    failed = min(failed, attempted)
    if args.trace:
        result["metrics"]["trace.replica_current"] = {
            "value": 1.0 if replica_current() else 0.0, "unit": "bool"}

    env = result["env"]
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"rounds={rounds} trace={args.trace} "
          f"compiler={env['compiler']} build={env['build_type']} "
          f"nproc={env['nproc']} workers={env['workers']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  ops attempted={attempted} failed={failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
