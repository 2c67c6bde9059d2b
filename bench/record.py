"""Measure the benchmark on several seeds and write ``bench/baseline.json``.

    python3 bench/record.py --seeds 1-10

For every workload this runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run on the first seed, and records each end-to-end metric's
values, median, quartiles and spread (the distance between the quartiles as
a share of the median), the per-layer metrics of the traced run, and where
and how it was measured.  Run it from the repository root on an otherwise
idle machine.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Instances named by the benchmark's design but kept out of the timed loop.
EXCLUDED = [
    {
        "instance": "covectors and facets on dense 3x7 (geometry)",
        "why": "5-7 s per op, a fifth of a run, so too few ops for a median and tail; "
               "add once covector enumeration no longer multiplies over all column choices",
    },
    {
        "instance": "covectors on dense 4x6 (geometry)",
        "why": "about 26 s per op",
    },
    {
        "instance": "covectors on 4x8 (geometry)",
        "why": "does not finish in useful time",
    },
    {
        "instance": "render on dense 3x6 (geometry)",
        "why": "about 2.9 s per op; render runs on 3x6 with four ∞ entries, which keeps it "
               "in the middle cost group where the median and tail of a run fall",
    },
    {
        "instance": "the minors workload",
        "why": "kept runnable (run.py --workload minors, record.py --workloads minors) but not "
               "in BENCHMARK.json: with three workloads the time limit allows 30 s runs, and "
               "on a shared 2-vCPU machine those spread past the 25% bounds",
    },
    {
        "instance": "membership matrices with d < 3",
        "why": "their queries take under a millisecond, so they measure call overhead and "
               "put the median between the modes of different shapes",
    },
    {
        "instance": "membership matrices of shape 3x6",
        "why": "about three times the cost of 3x5, so a run covers a third as many matrices "
               "and its figures spread with the matrices drawn",
    },
]


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: attempted {result['attempted']}"
          f" failed {result['failed']}", file=sys.stderr, flush=True)
    return result


def summarize(values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    out = HERE / "baseline.json"
    results = json.loads(out.read_text())["results"] if out.exists() else {}
    for workload in names:
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        traced = run_once(spec, workload, seeds[0], 1)
        results[workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            # latency_tail_s is the order statistic with ten ops beyond it
            "tail_percentile": [100 * max(r["attempted"] - 10, 1) / r["attempted"] for r in runs],
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summarize([r["metrics"][m["name"]]["value"] for r in runs]))
                for m in spec["end_to_end"]
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }

    baseline = {
        "recorded": datetime.date.today().isoformat(),
        "seeds": seeds,
        "run_seconds": spec["run_seconds"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "load": "closed loop, one client, one op at a time, one benchmark process",
        "workloads": spec["workloads"],
        "excluded": EXCLUDED,
        "results": results,
    }
    out.write_text(json.dumps(baseline, indent=1) + "\n")
    for workload in names:
        res = results[workload]
        print(f"{workload:<11} {'error_rate':<15} {sum(res['failed']) / sum(res['attempted']):.4g}")
        for name, s in res["end_to_end"].items():
            print(f"{workload:<11} {name:<15} median {s['median']:.5g} {s['unit']:<3}"
                  f" spread {s['spread']:.3f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
