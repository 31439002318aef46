#!/usr/bin/env python3
"""Steadiness record of the benchmark of record.

Run from the repository root:

    python3 bench_record/steadiness.py --runs 10 --first-seed 101 --label set-a

Runs bench_record/run.py --trace 0 once per seed for every workload (or
those named by --workloads) and merges into bench_record/steadiness.json,
under --label, each metric's ten values with their median, quartiles and
spread: (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the metric's
BENCHMARK.json bound is flagged (setup_s is exempt: it is bounded only
median to median). Measuring some workloads again under an existing label
replaces only theirs. Each run's calibration time is kept, so a set measured
during a host slowdown can be told apart from a steady one.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "spread_below_third_of_bound": spread <= bound / 3}


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--out", default=str(HERE / "steadiness.json"))
    args = parser.parse_args()

    out_path = Path(args.out)
    record = json.loads(out_path.read_text()) if out_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    entry = {"runs": args.runs, "seeds": [args.first_seed + i for i in range(args.runs)],
             "run_seconds": benchmark["run_seconds"], "workloads": {}}
    # Re-measuring some workloads under an existing label keeps the others.
    if record.get(args.label, {}).get("seeds") == entry["seeds"]:
        entry["workloads"] = record[args.label]["workloads"]
    for name in args.workloads.split(","):
        runs = []
        for seed in entry["seeds"]:
            start = time.time()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(seed), "--trace", "0"],
                                  capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(lines[-1])
            diagnostics = json.loads(lines[-2])["diagnostics"]
            runs.append({"seed": seed, "wall_s": round(time.time() - start, 2),
                         "calibration_ms": float(diagnostics["calibration_ms_start"]),
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        metrics = {k: summarize([r["metrics"][k] for r in runs], bounds[k]) for k in bounds}
        entry["workloads"][name] = {"metrics": metrics, "runs": runs}
        for k, s in metrics.items():
            flag = "" if s["spread_below_third_of_bound"] or k == "setup_s" else "  <-- above bound/3"
            print(f"  {name:12s} {k:16s} median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s['bound']}{flag}")
    record[args.label] = entry
    out_path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
