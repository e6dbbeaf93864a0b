#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0

Workloads: steady, failover and paper_sim are the benchmark's (see
BENCHMARK.json). saturate, the steady chain at 450k tuples/s past its
capacity knee, is left out of BENCHMARK.json because the program fails on
it (tuples never stabilized, some delivered twice); run it by name to see
that defect.
The benchmark is a Rust package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path; it is built in release mode
into $CARGO_TARGET_DIR (default .bench_build). The binary checks the
workload's output against its correctness oracle and prints every metric.
This script adds a record of the run (seed, commit or source digest,
nproc, rustc version, attempted/failed counts) and ends its output with
the binary's JSON result line. It exits non-zero, without a result, if
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def commit(root):
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    top = command_output(["git", "-C", root, "rev-parse", "--show-toplevel"])
    if top and os.path.realpath(top) == os.path.realpath(root):
        return command_output(["git", "-C", root, "rev-parse", "HEAD"]) or "unknown"
    return "unknown"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"):
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stop_group(pgid):
    """Kills whatever is left in the process group and waits until it is
    empty (the benchmark waits for its worker processes itself; this only
    matters when it failed or timed out)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_binary(cmd):
    """Runs the benchmark in its own process group, so that no worker
    process it spawned outlives it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["steady", "saturate", "failover", "paper_sim"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
            os.path.join(root, "crates")):
        fail("run from the repository root: Cargo.toml and crates/ are missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build exceeded {BUILD_TIMEOUT_S} s")
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "borealis-perfbench")
    work = os.path.join(target, "perfbench-work")
    code, out = run_binary([
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work,
    ])
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "commit": commit(root),
        "source_digest": source_digest(root),
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    for line in lines[:-1]:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
