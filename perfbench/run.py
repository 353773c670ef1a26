#!/usr/bin/env python3
"""Builds and runs the end-to-end LOCAT benchmark.

    python3 perfbench/run.py --workload tune-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into $CARGO_TARGET_DIR,
default .bench_build; later calls only re-check the build. The benchmark's
last stdout line is one JSON object with every metric it measured; this
script checks names and units against BENCHMARK.json, prints the mode's
metrics as the result line, and exits non-zero (without a result line)
when the build, the run or that check fails.

--self-test runs a tiny-size smoke mode of every workload, traced and
untraced, and asserts every named metric is emitted and measured by some
workload.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "locat_perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "locat_perfbench"
    return binary if binary.exists() else None


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fixed_layout_prefix():
    """`setarch <arch> -R` when the host allows it, else nothing.

    Without address-space randomization every run gets the same memory
    layout. With it, the layout alone moved grid-sim's wall by up to 25%
    between runs of one seed, while passes within one run agreed to a few
    percent."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def run_once(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = fixed_layout_prefix() + [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--tmp-dir", str(build_dir() / "tmp")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines, bench):
    """The binary's JSON line, checked against BENCHMARK.json; None after
    logging what is wrong."""
    if not lines:
        log("no output")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not JSON: " + lines[-1][:200])
        return None
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if name not in units or metric["unit"] != units[name]:
            log(f"{name} [{metric['unit']}]: not in BENCHMARK.json as such")
            return None
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"{name}: not a finite number")
            return None
    return result


def report(result, bench, trace):
    """The mode's metrics, in BENCHMARK.json order. A layer the workload
    bypasses did no work, so its per-layer metrics read zero; every
    end-to-end metric must have been measured and be positive."""
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        measured = result["metrics"].get(m["name"])
        if measured is None and not trace:
            log(f"{m['name']}: not measured")
            return None
        value = measured["value"] if measured is not None else 0
        if not trace and value <= 0:
            log(f"{m['name']}: end-to-end metric is {value}, expected > 0")
            return None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def self_test(binary, bench):
    ok = True
    measured = set()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (False, True):
            code, lines = run_once(binary, workload, 0, 1, trace, smoke=True)
            result = parse_result(lines, bench)
            out = report(result, bench, trace) if result else None
            passed = code == 0 and out is not None and out["correct"]
            if result:
                measured.update(result["metrics"])
            ok = ok and passed
            print(f"self-test {workload} trace={int(trace)}: "
                  f"{'ok' if passed else 'FAILED'}")
    # Every per-layer metric is measured by some workload; the others read
    # zero on it because they bypass that layer.
    never = [m["name"] for m in bench["per_layer"]
             if m["name"] not in measured]
    print(f"self-test metrics never measured: {never or 'none'}")
    return ok and not never


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    bench = spec()
    if args.self_test:
        return 0 if self_test(binary, bench) else 1
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2

    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    for line in lines[:-1]:
        print(line)
    result = parse_result(lines, bench)
    out = report(result, bench, args.trace) if result else None
    if out is None:
        log(f"benchmark failed (exit {code})")
        return code or 1
    # A run whose output checks failed still reports (correct: false), but
    # exits non-zero.
    print(json.dumps(out), flush=True)
    if code != 0:
        log(f"benchmark output checks failed (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
