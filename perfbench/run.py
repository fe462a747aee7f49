#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The first call configures and builds the
library plus the perfbench binary (Release) under .bench_build/; later calls
rebuild incrementally. The binary's report goes to stdout and its last line
is the JSON result. --self-check runs every workload briefly on two seeds and
checks that the inputs differ while the metric names stay the same.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD / "perfbench"
WORKLOADS = ["hot_resident", "cold_miss", "trace_prefetch", "swap_churn"]
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, timeout=880)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                # A failed configure must not leave a cache that skips it next time.
                if step[1] == "-S":
                    (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build failed (log: {log_path})")


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fixed_address_space():
    """Child-side hook: turn off address-space randomisation for the run, so
    heap and table placement (and the cache aliasing that follows from it)
    is the same from run to run. Best effort: ignored where not permitted."""
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run(workload, seed, seconds, trace, echo=True):
    """Run the binary once; returns (exit code, stdout lines, parsed result or None)."""
    WORK.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(WORK), "--commit", commit_id()]
    # Transparent huge pages for the heap: with 4 KiB pages, whether a run's
    # decode tables land on pages the hypervisor backs with huge pages or
    # not splits single-thread timings into two modes about 30 % apart.
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES", ""), "glibc.malloc.hugetlb=1") if t)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_address_space, env=env)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if echo:
        body = lines[:-1] if result is not None else lines
        for line in body:
            print(line)
    return done.returncode, lines, result


def self_check():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            seen = []
            for seed in (1, 2):
                code, lines, result = run(workload, seed, 1, trace, echo=False)
                if code != 0 or result is None:
                    problems.append(f"{workload} trace={trace} seed={seed}: exit {code}")
                    continue
                fingerprint = next((part.split("=", 1)[1] for line in lines
                                    for part in line.split()
                                    if part.startswith("inputs_fingerprint=")), None)
                seen.append((fingerprint, sorted(result["metrics"])))
            if len(seen) == 2:
                if seen[0][0] is None or seen[0][0] == seen[1][0]:
                    problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
                if seen[0][1] != seen[1][1]:
                    problems.append(f"{workload} trace={trace}: metric names differ by seed")
            status = "ok" if len(seen) == 2 else "FAILED"
            count = len(seen[0][1]) if seen else 0
            print(f"self-check {workload} trace={trace}: {status} ({count} metrics)")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    if args.self_check:
        return self_check()
    code, lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        fail(f"no result line (exit code {code})")
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
