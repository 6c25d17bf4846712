#!/usr/bin/env python3
"""Builds the benchmark and runs one workload (or all of them).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The repository's `psmr-node` binary and
the `perfbench` harness are built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`). The harness runs in its own process group, so
every process it starts (the `psmr-node` cluster included) is killed and
reaped on any exit: success, failure, timeout or a signal to this script.

The last line of standard output is the harness's JSON result. With
`--workload all`, each workload's report is printed in turn and the last
line merges them, naming each metric `<workload>/<metric>`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["read-open", "dep-durable-open", "node-tcp"]
# One run must end within 180 s; the harness's own watchdog fires first.
RUN_TIMEOUT_S = 175

_children = []


def stop_group(proc):
    """Kills the harness's process group and waits until it is empty."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def on_signal(signum, _frame):
    for proc in _children:
        stop_group(proc)
    sys.exit(128 + signum)


def build(target):
    if not os.path.isfile(os.path.join(REPO, "Cargo.toml")):
        sys.exit("perfbench: no Cargo workspace at the checkout root; nothing to benchmark")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        (os.path.join(REPO, "Cargo.toml"), ["-p", "psmr-node", "--bin", "psmr-node"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        # Build output goes to stderr: stdout carries only the result.
        result = subprocess.run(cmd + extra, env=env, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd + extra)}")


def run_one(target, workload, args):
    work = os.path.join(target, "perfbench-work", f"{workload}-{os.getpid()}")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-bin", os.path.join(target, "release", "psmr-node"),
        "--work-dir", work,
    ]
    if args.rate is not None:
        cmd += ["--rate", str(args.rate)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(f"perfbench: {workload} gave no result within {RUN_TIMEOUT_S} s")
    stop_group(proc)
    _children.remove(proc)
    shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--rate", type=float, help="override the workload's offered load (ops/s)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, lines, result = run_one(target, workload, args)
        if result is None:
            print("\n".join(lines))
            sys.exit(f"perfbench: {workload} exited {code} without a result")
        if len(workloads) == 1:
            print("\n".join(lines))
            sys.exit(code)
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        status = status or code
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    sys.exit(status)


if __name__ == "__main__":
    main()
