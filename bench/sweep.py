"""Run every workload over several seeds and summarise each metric.

    python3 bench/sweep.py [--seeds 1,2,3] [--seconds 30] [--trace 0|1]
                           [--workload NAME ...] [--write-baseline]

For each workload and metric it prints the median over the seeds, the
quartiles and their distance as a share of the median (the spread the
bounds in BENCHMARK.json are checked against), plus failed_frac from the
rows attempted and failed. --write-baseline stores the summary, with the
environment, in baseline.json, under "end_to_end" for --trace 0 and
"per_layer" for --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import workloads

BASELINE_PATH = os.path.join(run.HERE, "baseline.json")


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise run.BenchError(f"{workload} seed {seed}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = run.quartiles(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values,
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out["failed_frac"] = {"unit": "frac", "value": failed / attempted,
                          "failed": failed, "attempted": attempted}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    summary = {}
    for name in args.workload or list(workloads.WORKLOADS):
        results = [one_run(name, seed, args.seconds, args.trace) for seed in seeds]
        summary[name] = summarise(results)
        print(name)
        for metric, s in summary[name].items():
            if "median" in s:
                print(f"  {metric:<30} {s['median']:<12.6g} {s['unit']:<7} quartiles "
                      f"{s['q1']:.6g} .. {s['q3']:.6g}  spread {s['spread']:.4f}  n={s['n']}")
            else:
                print(f"  {metric:<30} {s['value']:<12.6g} {s['unit']:<7} "
                      f"({s['failed']} of {s['attempted']} rows)")
        sys.stdout.flush()
    if args.write_baseline:
        doc = {}
        if os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH) as fh:
                doc = json.load(fh)
        doc["per_layer" if args.trace else "end_to_end"] = {
            "seeds": seeds, "seconds": args.seconds, "env": run.environment(),
            "workloads": summary}
        with open(BASELINE_PATH, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
