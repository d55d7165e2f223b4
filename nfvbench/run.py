#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see nfvbench/README.md).

One workload (the last stdout line is the JSON result):
    python3 nfvbench/run.py --workload cp-static-wax400 --seed 1 --seconds 25 --trace 0
Every workload with a summary table (writes nfvbench/out/results.json):
    python3 nfvbench/run.py [--seed 1] [--seconds 25] [--trace 0]
The benchmark's own self-test:
    python3 nfvbench/run.py --selftest

Builds with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
repository root on first use; later runs rebuild incrementally. Build output
goes to stderr so that stdout stays the report.
"""
import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


def fail(message, code=2):
    print(f"nfvbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the nfvm sources (src/) are not in this checkout; nothing to benchmark")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_metric_names(result, trace, spec):
    """The reported metrics must be the ones BENCHMARK.json declares."""
    if spec is None:
        return True
    declared = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    reported = list(result["metrics"])
    if sorted(declared) != sorted(reported):
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        print(f"nfvbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return False
    return True


def run_one(binary, workload, seed, seconds, trace, echo=True):
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", trace, "--out-dir", OUT_DIR]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build_dir = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(build_dir, "nfvbench_selftest")]).returncode)

    spec = benchmark_spec()
    seconds = args.seconds or (spec["run_seconds"] if spec else 20)
    binary = os.path.join(build_dir, "nfvbench")

    if args.workload:
        code, _, result = run_one(binary, args.workload, args.seed, seconds, args.trace)
        if code == 0 and result is not None and not check_metric_names(result, args.trace, spec):
            code = 1
        sys.exit(code)

    # Every workload: a table of every metric with its unit, and the results.
    names = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True, check=True)
    workloads = [line.split("\t")[0] for line in names.stdout.splitlines() if line]
    results, exit_code = {}, 0
    for workload in workloads:
        code, text, result = run_one(binary, workload, args.seed, seconds, args.trace, echo=False)
        if result is None or code != 0 or not check_metric_names(result, args.trace, spec):
            exit_code = 1
            sys.stdout.write(text)
        not_applicable = [line.split()[1] for line in text.splitlines()
                          if line.startswith("#   ") and " = n/a" in line]
        results[workload] = {"exit_code": code, "result": result,
                             "not_applicable": not_applicable}
    metric_names = list(next((r["result"]["metrics"] for r in results.values() if r["result"]), {}))
    print(f"{'metric':48s} {'unit':6s} " + " ".join(f"{w:>18s}" for w in workloads))
    for name in metric_names:
        unit = next(r["result"]["metrics"][name]["unit"] for r in results.values() if r["result"])
        cells = []
        for workload in workloads:
            r = results[workload]["result"]
            if r is None:
                cells.append(f"{'-':>18s}")
            elif name in results[workload]["not_applicable"]:
                cells.append(f"{'n/a':>18s}")
            else:
                cells.append(f"{r['metrics'][name]['value']:18.6g}")
        print(f"{name:48s} {unit:6s} " + " ".join(cells))
    for workload in workloads:
        r = results[workload]["result"]
        status = "no result" if r is None else (
            f"correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        print(f"# {workload}: exit {results[workload]['exit_code']}, {status}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "trace": int(args.trace),
                   "workloads": results}, f, indent=1)
    print(f"# wrote {os.path.relpath(os.path.join(OUT_DIR, 'results.json'), ROOT)}")
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
