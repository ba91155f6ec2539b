#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

  python3 perfbench/run.py --workload fig10|fuzz-ckpt|population \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --pin --workload W --seed N

The first call builds perfbench/ (the repository's library plus the
benchmark binary, see CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls rebuild incrementally. The
binary's result line is checked against the metric lists in
BENCHMARK.json and printed as the last line of stdout. Build output
goes to stderr. GLOSSARY.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
# Per-process, so concurrent runs never share a checkpoint store.
WORK_DIR = os.path.join(ROOT, ".bench_run", str(os.getpid()))
WORKLOADS = ("fig10", "fuzz-ckpt", "population")


def build():
    """Configure once, build incrementally; returns the binary path."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, base, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
            not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_binary(binary, args):
    """Run the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--reference-dir", REFERENCE_DIR,
           "--work-dir", WORK_DIR] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=175)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parse the result line; raise ValueError unless it has exactly
    the contract's keys and BENCHMARK.json's metrics and units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(result))
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected_metrics(trace):
        raise ValueError("metrics do not match BENCHMARK.json")
    return result


def measure(args):
    binary = build()
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0 or not lines:
        print("perfbench exited with %d" % code, file=sys.stderr)
        return code or 1
    try:
        check_result(lines[-1], args.trace)
    except ValueError as err:
        print("bad result line: %s" % err, file=sys.stderr)
        return 3
    print("\n".join(lines), flush=True)
    return 0


def pin(args):
    """Write the reference for (workload, seed) from a traced run, which
    records every unit (fig10: each runMix cell)."""
    binary = build()
    path = os.path.join(REFERENCE_DIR,
                        "%s-seed%d.txt" % (args.workload, args.seed))
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "1", "--write-reference", path])
    print("\n".join(lines))
    return code


def self_test():
    """A perturbed reference must count failed units, not crash."""
    binary = build()
    ok = True
    for workload in WORKLOADS:
        code, lines = run_binary(binary, [
            "--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "0", "--perturb-reference"])
        result = check_result(lines[-1], 0) if code == 0 and lines \
            else None
        passed = (result is not None and not result["correct"] and
                  0 < result["failed"] < result["attempted"])
        ok = ok and passed
        print("%s %s: %s" % ("PASS" if passed else "FAIL", workload,
                             lines[-1] if lines else "exit %d" % code))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            parser.error("--workload is required")
        return pin(args) if args.pin else measure(args)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
