#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the seqpat miner.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload NAME --seed N --reference

Run from the repository root. Builds the `e2ebench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), then, in separate processes:

* `--trace 0`: generates the workload's inputs (timed as `setup_s`), repeats
  the measured operation untraced for S seconds in a process that does
  nothing else (`wall_s` is the median timed operation after one untimed
  warm-up, `peak_rss_bytes` that process's VmHWM), and checks the output.
* `--trace 1`: runs set-up and one operation layer by layer with spans and
  prints every per-layer metric; the output is checked the same way.
* `--reference`: mines the workload's input with PrefixSpan as well and
  diffs the two answers (slow; run by hand).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A failed check prints
`"correct": false` and exits with status 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sparse-pairs", "sharded-disk", "serve-replay"]
# Every process started after the build is killed this long after the build.
RUN_LIMIT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "seqpat-e2ebench")


def step(binary, deadline, command, args, capture=False):
    """Runs one benchmark process to its end; returns its stdout, or None
    when it failed. The wait blocks in waitpid: `subprocess.run` with a
    timeout polls in steps of up to 50 ms, which showed in `setup_s`."""
    cmd = [binary, command] + args
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else sys.stderr)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    print(f"run.py: {command} took {time.perf_counter() - started:.2f} s",
          file=sys.stderr)
    if time.monotonic() >= deadline:
        fail(f"the run reached its {RUN_LIMIT_S} s limit during {command}")
    if proc.returncode != 0:
        return None
    return out if capture else ""


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", action="store_true")
    a = p.parse_args()
    if a.workload not in WORKLOADS:
        fail(f"unknown workload {a.workload!r}; known: {', '.join(WORKLOADS)}")

    binary = build()
    deadline = time.monotonic() + RUN_LIMIT_S
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{a.workload}-seed{a.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", work]
    try:
        if a.reference:
            ok = (step(binary, deadline, "setup", common) is not None
                  and step(binary, deadline, "measure", common + ["--seconds", "0"],
                           capture=True) is not None
                  and step(binary, deadline, "reference", common) is not None)
            sys.exit(0 if ok else 1)
        if a.trace:
            out = step(binary, deadline, "trace", common, capture=True)
            if out is None:
                fail("the traced run failed")
            metrics = last_json(out)
            attempted, failed = 1, 0
        else:
            started = time.perf_counter()
            if step(binary, deadline, "setup", common) is None:
                fail("set-up failed")
            setup_s = time.perf_counter() - started
            out = step(binary, deadline, "measure",
                       common + ["--seconds", str(a.seconds)], capture=True)
            if out is None:
                fail("the measured run failed")
            m = last_json(out)
            attempted, failed = m["attempted"], m["failed"]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": m["wall_s"], "unit": "s"},
                "peak_rss_bytes": {"value": m["peak_rss_bytes"], "unit": "bytes"},
            }
        correct = step(binary, deadline, "check", common) is not None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
