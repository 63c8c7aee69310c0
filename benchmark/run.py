#!/usr/bin/env python3
"""Build and run the wormnet end-to-end benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py [--seed N] [--seconds S]      # every workload,
                                                           # untraced then traced

Builds benchmark/ (its own CMake project, Release) into .bench_build/, runs
each workload in its own process, prints every metric as
`workload metric value unit (n=samples)` plus the host fingerprint, checks
the printed metrics against BENCHMARK.json, writes the result to
.bench_build/out/, and prints one JSON object as the last line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A workload that aborts (a failed precondition, a signal) is reported as
failed with its signal and stderr tail; the other workloads still run.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build" / "benchmark"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "wormnet_bench"
WORKLOADS = ["whatif_tune", "whatif_retune", "availability_n1", "fabric_scale",
             "sim_crosscheck"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_declaration():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    decl = json.loads(path.read_text())
    return decl, {
        0: {m["name"]: m["unit"] for m in decl["end_to_end"]},
        1: {m["name"]: m["unit"] for m in decl["per_layer"]},
    }


def build():
    if not any((ROOT / "src").rglob("*.cpp")):
        fail(f"no library sources under {ROOT / 'src'}; nothing to benchmark")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def fingerprint(binary_info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": binary_info.get("compiler", "unknown"),
            "build_type": binary_info.get("build_type", "unknown"),
            "commit": commit}


def run_workload(name, seed, seconds, trace):
    """One workload in its own process; a crash becomes a failed result."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={name}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--out={OUT_DIR}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return None, f"timed out after {RUN_TIMEOUT_S} s", (e.stderr or "")
    lines = proc.stdout.strip().splitlines()
    crashed = proc.returncode != 0 or not lines
    for line in lines if crashed else lines[:-1]:
        print(f"  | {line}")
    if crashed:
        why = f"exit code {proc.returncode}"
        if proc.returncode < 0:
            why = f"killed by {signal.Signals(-proc.returncode).name}"
        return None, why, proc.stderr
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1]), None, ""


def report(name, trace, result, declared):
    """Print the metric lines; return the declaration problems found."""
    problems = []
    printed = result["metrics"]
    for metric in sorted(set(printed) - set(declared[trace])):
        problems.append(f"{name}: undeclared metric {metric}")
    for metric in sorted(set(declared[trace]) - set(printed)):
        problems.append(f"{name}: declared metric {metric} not printed")
    for metric, m in sorted(printed.items()):
        if metric in declared[trace] and m["unit"] != declared[trace][metric]:
            problems.append(f"{name}: {metric} unit {m['unit']} != declared "
                            f"{declared[trace][metric]}")
        print(f"{name} {metric} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name} failed_share {failed / max(1, attempted):.6g} ratio "
          f"(n={attempted})")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()

    decl, declared = load_declaration()
    seconds = args.seconds or decl["run_seconds"]
    build()
    binary_info = {}

    names = [args.workload] if args.workload else WORKLOADS
    passes = [args.trace] if args.trace is not None else [0, 1]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    problems = []
    for trace in passes:
        for name in names:
            t0 = time.monotonic()
            print(f"== {name} ({'traced' if trace else 'untraced'}, seed "
                  f"{args.seed}, {seconds} s)", flush=True)
            result, crash, stderr = run_workload(name, args.seed, seconds, trace)
            if result is None:
                tail = "\n".join(stderr.strip().splitlines()[-10:])
                print(f"{name} failed_share 1 ratio ({crash})")
                print(f"run.py: {name} {crash}; stderr tail:\n{tail}",
                      file=sys.stderr)
                result = {"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}, "crash": crash}
                problems.append(f"{name}: {crash}")
            else:
                binary_info = result.get("host", binary_info)
                problems += report(name, trace, result, declared)
            print(f"{name} wall {time.monotonic() - t0:.1f} s", flush=True)
            results[f"{name}.trace{trace}"] = result
            combined["correct"] &= bool(result["correct"])
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                key = metric if len(names) == 1 else f"{name}.{metric}"
                combined["metrics"][key] = {"value": m["value"], "unit": m["unit"]}

    host = fingerprint(binary_info)
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = args.workload or "all"
    (OUT_DIR / f"{stem}.seed{args.seed}.json").write_text(json.dumps(
        {"host": host, "seed": args.seed, "seconds": seconds, "results": results},
        indent=1))
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    print(json.dumps(combined))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
