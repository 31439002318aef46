#!/usr/bin/env python3
"""Benchmark of record for the MBB engine.

Run from the repository root:

    python3 bench_record/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 bench_record/run.py --workload all          # every workload in turn

Builds the `bench_record` binary (bench_record/CMakeLists.txt: the repo's
`mbb` library in Release plus the sources in bench_record/src) into
$CARGO_TARGET_DIR/bench_record, default .bench_build/bench_record, then runs
one workload of bench_record/workloads.json. Untraced runs (--trace 0)
report the end-to-end metrics of BENCHMARK.json; traced runs (--trace 1)
report its per-layer metrics and write the spans to
<build>/traces/<workload>-seed<N>.json.

Prints a metric table, a diagnostics line, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}. Exits 0 only when
every answer matched its reference optimum.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"bench_record: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no mbb sources next to {HERE.name}/ (expected {ROOT}/src)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                fail(f"cmake configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "bench_record"]
        if subprocess.run(step, stdout=log, stderr=log).returncode:
            sys.stderr.write(log_path.read_text()[-4000:])
            fail(f"build failed, see {log_path}")
    return build_dir / "bench_record"


def workload_args(spec):
    args = []
    for key, value in spec["params"].items():
        args += ["--param", f"{key}={value}"]
    for inst in spec["instances"]:
        if "random" in inst:
            fields = ["random", *map(str, inst["random"])]
        else:
            fields = ["dataset", inst["dataset"], str(inst["scale"])]
        if "optimum" in inst:
            fields.append(str(inst["optimum"]))
        args += ["--instance", ":".join(fields)]
    return args


def run_one(binary, build_dir, name, spec, args, expected):
    cmd = [str(binary), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{name}-seed{args.seed}.json")]
    cmd += workload_args(spec)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail(f"{name}: bench_record exited {proc.returncode} without a result")
    diagnostics = json.loads(lines[-2])["diagnostics"]
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    if names != expected:
        fail(f"{name}: metrics {names} differ from BENCHMARK.json {expected}")
    ok = result["correct"] and result["failed"] == 0 and proc.returncode == 0
    return ok, result, diagnostics


def print_table(name, result, diagnostics):
    print(f"== {name}: {result['attempted']} answers checked, "
          f"{result['failed']} wrong")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"workload": name, "diagnostics": diagnostics}))


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "bench_record"
    binary = build(build_dir)
    expected = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    names = list(workloads) if args.workload == "all" else [args.workload]

    all_ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        ok, result, diagnostics = run_one(binary, build_dir, name, workloads[name],
                                          args, expected)
        print_table(name, result, diagnostics)
        all_ok = all_ok and ok
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, entry in result["metrics"].items():
            combined["metrics"][prefix + metric] = entry
    print(json.dumps(combined))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
