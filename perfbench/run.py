#!/usr/bin/env python3
"""Repo benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload capture|storm|fleet|paper \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-baseline [--seeds 0-20]

Run from the repository root. The program and the benchmark are compiled
with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
checkout. A measuring run prints the resolved config, the input digests
compared with baseline.json, a line per metric, and as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The exit status is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("capture", "storm", "fleet", "paper")
# paper runs on one worker and fleet on two: their measured work is many
# short parallel regions whose wall time, on a shared machine with every
# core busy, swings far more with CPU steal than with the code (see
# README.md).
WORKLOAD_THREADS = {"paper": 1, "fleet": 2}
BINARY_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def threads(workload=None):
    return str(min(WORKLOAD_THREADS.get(workload, 4), os.cpu_count() or 1))


def build(target):
    """Configures and builds `target`; returns the build directory."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", threads()],
        check=True, stdout=sys.stderr, env=env)
    return build_dir


def run_binary(build_dir, workload, args):
    """Runs perfbench, forwards its '#' lines, returns its result object."""
    env = dict(os.environ)
    env["MONOHIDS_THREADS"] = threads(workload)
    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--workload", workload] + args, env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=BINARY_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("perfbench exited with status %d" % proc.returncode)
    return json.loads(lines[-1]), env["MONOHIDS_THREADS"]


def load_json(path):
    with open(path) as f:
        return json.load(f)


def compare_inputs(workload, seed, inputs):
    """Flags generated inputs that differ from the committed baseline."""
    baseline = load_json(BASELINE).get(workload, {}).get(str(seed))
    if baseline is None:
        print("# inputs: no baseline digests for workload %s seed %d" % (workload, seed))
        return
    common = [k for k in inputs if k in baseline]
    drift = [k for k in common if inputs[k] != baseline[k]]
    if drift:
        message = "INPUT DRIFT: %d of %d digests differ from baseline.json (%s)" % (
            len(drift), len(common), ", ".join(drift[:8]))
        print("# " + message)
        log(message)
    else:
        print("# inputs: %d digests match baseline.json" % len(common))


def measure(args):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    build_dir = build("perfbench")
    result, thread_count = run_binary(build_dir, args.workload, [
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
    print("# config MONOHIDS_THREADS = %s" % thread_count)
    compare_inputs(args.workload, args.seed, result["inputs"])

    metrics = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        if m["name"] in metrics:
            out[m["name"]] = metrics[m["name"]]
        elif args.trace:
            # A layer this workload never calls did no work on it.
            out[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            raise RuntimeError("end-to-end metric %s missing" % m["name"])
    if args.trace:
        absent = [m["name"] for m in wanted if m["name"] not in metrics]
        print("# layers not on the %s path (reported as 0): %s" % (
            args.workload, ", ".join(absent) or "none"))
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0 if correct else 1


def self_test():
    build_dir = build("perfbench_selftest")
    return subprocess.run([os.path.join(build_dir, "perfbench_selftest")], cwd=ROOT).returncode


def parse_seeds(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record_baseline(seeds):
    build_dir = build("perfbench")
    baseline = {}
    for workload in WORKLOADS:
        baseline[workload] = {}
        for seed in seeds:
            log("recording %s seed %d" % (workload, seed))
            result, _ = run_binary(build_dir, workload, [
                "--seed", str(seed), "--seconds", "1",
                "--trace", "0", "--digests-only"])
            baseline[workload][str(seed)] = result["inputs"]
    with open(BASELINE, "w") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-baseline", action="store_true")
    parser.add_argument("--seeds", default="0-20")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.record_baseline:
            return record_baseline(parse_seeds(args.seeds))
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
