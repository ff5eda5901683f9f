#!/usr/bin/env python3
"""Build and run the microspec benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--self-test]

Builds the engine and the benchmark binary from source into .bench_build/
(incremental after the first run), runs one workload, and passes its output
through. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json when --trace 0, every per-layer metric when --trace 1. A
workload reports 0 itself for a per-layer metric of a layer it never
reaches; a metric it does not report fails the run. Everything the run writes stays inside the repository directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("tpch_parallel", "tpcc_memory", "sql_wire")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return None
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return os.path.join(BUILD, "perfbench")
        if attempt == 0:
            # A build tree left by another checkout: start it afresh once.
            shutil.rmtree(BUILD, ignore_errors=True)
    return None


def expected_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    end_to_end, per_layer = expected_metrics()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    data_dir = os.path.join(BUILD, "run-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    if args.self_test:
        cmd.append("--self-test")
    # The native bee compiler (cc) keeps its temporaries under TMPDIR.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: exited %d without a result" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)

    # Hold the binary to BENCHMARK.json: the run's metric set is exactly the
    # end-to-end list (untraced) or the per-layer list (traced).
    wanted = per_layer if args.trace else end_to_end
    names = {m["name"]: m for m in wanted}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        log("perfbench: metrics missing from BENCHMARK.json: %s" % unknown)
        return 1
    missing = sorted(set(names) - set(metrics))
    if missing:
        log("perfbench: %s did not report %s" % (args.workload, missing))
        return 1
    for name, m in names.items():
        if metrics[name]["unit"] != m["unit"]:
            log("perfbench: %s reports unit %s, BENCHMARK.json says %s"
                % (name, metrics[name]["unit"], m["unit"]))
            return 1
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
