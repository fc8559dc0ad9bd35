#!/usr/bin/env python3
"""Cyclone benchmark: build from source, run one workload, print the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. --workload all runs every workload in turn
and prints each metric as a "workload metric value unit" line. The first
run configures and builds the library and the benchmark binary (Release)
under $CARGO_TARGET_DIR (default .bench_build)/perfbench; later runs
rebuild only what changed. Build output and the binary's progress go to
stderr. The last line of stdout is the result object; the exit code is
the binary's (non-zero when a correctness check failed or the build
failed). The metric names come from BENCHMARK.json: a metric run must
report every end-to-end metric, and a traced run reports every per-layer
metric, 0 for a layer the workload does not exercise (spool counters of
an in-process run, say). Spans of traced runs and a log of every run's
provenance and result are kept in the build directory
(trace-<workload>.jsonl, runs.jsonl).
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bb72_default", "hgp225_fig15", "hgp225_fig15_spool",
             "bb72_stream_paced")
# A run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure and build the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(os.cpu_count() or 1)
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True)
    return os.path.join(build_dir, "perfbench")


def run(binary, workload, args, work_dir):
    """Run the binary in its own process group; returns (code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    finally:
        # Forked spool workers share the group; none may outlive us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def complete(result, trace):
    """Check the metrics against BENCHMARK.json; fill unused layers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = result["metrics"]
    if trace:
        for m in bench["per_layer"]:
            metrics.setdefault(m["name"], {"value": 0, "unit": m["unit"]})
        return True
    missing = [m["name"] for m in bench["end_to_end"]
               if m["name"] not in metrics]
    if missing:
        print(f"perfbench: missing end-to-end metrics {missing}",
              file=sys.stderr)
    return not missing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        code, out = run(binary, name, args, build_dir)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} printed no result", file=sys.stderr)
            status = status or code or 1
            continue
        if not complete(result, args.trace):
            code = code or 1
        status = status or code
        if len(names) == 1:
            print(json.dumps(result))
            continue
        for metric, m in result["metrics"].items():
            print(f"{name:20} {metric:30} {m['value']:.6g} {m['unit']}")
        print(f"{name:20} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
