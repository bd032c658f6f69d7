#!/usr/bin/env python3
"""Run one qtc benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the benchmark binary plus the library sources under src/) in
.bench_build/perfbench; later calls rebuild incrementally. Set-up time is
measured in fresh processes and reported as the fastest of several: it is
a few hundred microseconds of thread starts and device construction, whose
median on a shared VM swings tenfold with vCPU scheduling while the fastest
sample stays put. Every
QTC_* variable is removed from the benchmark's environment, so it always
measures library defaults; the names removed are listed in the header.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones (see NOTES.md). The exit code is
0 only when the build worked and every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "qtc_perfbench"
SETUP_SAMPLES = 31
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Returns False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "qtc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("QTC_")}
    removed = sorted(k for k in os.environ if k.startswith("QTC_"))
    return env, removed


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fastest_setup_s(workload, env):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([str(BINARY), "--setup-only", "--workload",
                              workload], capture_output=True, text=True,
                             env=env, timeout=60)
        if out.returncode:
            log(out.stderr)
            return None
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return min(samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-bad-job", action="store_true",
                        help="submit one invalid job (for the self-test)")
    args = parser.parse_args()

    if not build():
        return 1
    env, removed = clean_env()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.inject_bad_job:
        cmd.append("--inject-bad-job")

    setup_s = None if args.trace else fastest_setup_s(args.workload, env)
    if not args.trace and setup_s is None:
        return 1
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench: no result (exit code {out.returncode})")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print("# QTC_* variables removed from the environment:",
          ", ".join(removed) if removed else "none")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0
    print(f"# failed_share {share:.6f} ({result['failed']} of "
          f"{result['attempted']} jobs failed, were rejected or were wrong)")
    metrics = result["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        print(f"# setup_s is the fastest of {SETUP_SAMPLES} fresh-process "
              "set-ups")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] and out.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
