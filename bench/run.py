"""Benchmark for tropstiefel: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload geometry --seed 1 --seconds 45 --trace 0

Workloads (inputs and checks are in ``workloads.py``):

* ``geometry``: one CLI process per op (covectors, facets, render, bounded SVG).
* ``membership``: in-process library queries y ∈ L(A) by three routes.
* ``minors``: one CLI process per op (stiefel, multifield, member,
  plucker-check, coherent); not listed in ``BENCHMARK.json``, run on request.

Load is a closed loop: one client, one operation at a time.  Each workload
runs whole cycles of ops with a fixed mix, as many as take about
``--seconds`` of op time on the machine the benchmark was sized on (see
``CYCLE_SECONDS``); every run thus does the same work, and no metric depends
on where a run happens to stop.  Input generation and output checks happen
outside the timed ops.  Every output is checked by an independent route, and
an op that exits nonzero, prints a traceback, times out or fails its check
counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
in-process (CLI ops through ``cli.main``): half of the cycles untraced, half
with spans around the package's public functions, and prints the per-layer
metrics per traced op plus the tracing overhead.  ``--smoke`` uses tiny
inputs and at most a dozen ops.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 2 when the package sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import CLI_WORKLOADS, CYCLE_SECONDS, WORKLOADS, Op, VerifyError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 60
SETUP_PER_CYCLE = 3
SMOKE_OPS = 12

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("cpu_s_per_op", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (span, module, function or Class.method) for every traced public function.
TARGETS = (
    ("arrangement.enumerate_covectors", "arrangement", "enumerate_covectors"),
    ("geom.strict_feasible", "geom", "strict_feasible"),
    ("geom.affine_dimension", "geom", "Polyhedron.affine_dimension"),
    ("geom.lp_solve", "geom", "lp_solve"),
    ("linspace.decompose", "linspace", "decompose"),
    ("linspace.contains", "linspace", "contains"),
    ("linspace.bounded_complex", "linspace", "bounded_complex"),
    ("subdivision.facets_of_D", "subdivision", "facets_of_D"),
    ("subdivision.select_matroid", "subdivision", "select_matroid"),
    ("bipartite.transversal_matroid", "bipartite", "transversal_matroid"),
    ("bipartite.min_matchings", "bipartite", "min_matchings"),
    ("bipartite.matching_multifield", "bipartite", "matching_multifield"),
    ("bipartite.is_coherent", "bipartite", "is_coherent"),
    ("plucker.stiefel_map", "plucker", "stiefel_map"),
    ("plucker.check_plucker", "plucker", "check_plucker"),
    ("cli.main", "cli", "main"),
) + tuple(
    ("core.codec", module, name)
    for module, name in (
        ("core", "dumps"),
        ("core", "matrix_from_json"),
        ("core", "matrix_to_json"),
        ("core", "vector_from_json"),
        ("core", "vector_to_json"),
        ("bipartite", "graph_from_json"),
        ("bipartite", "multifield_from_json"),
        ("bipartite", "multifield_to_json"),
        ("plucker", "plucker_from_json"),
        ("plucker", "plucker_to_json"),
        ("arrangement", "complex_to_json"),
        ("subdivision", "facets_to_json"),
        ("linspace", "certificate_to_json"),
    )
)
COVECTORS = "arrangement.enumerate_covectors"
DECOMPOSE = "linspace.decompose"
CHECKS = "geom.strict_feasible"
LAYERS = ("core", "geom", "bipartite", "plucker", "arrangement", "subdivision", "linspace", "cli")
CALL_SPANS = (
    COVECTORS, CHECKS, "geom.affine_dimension", "geom.lp_solve", DECOMPOSE,
    "subdivision.select_matroid", "bipartite.transversal_matroid", "bipartite.min_matchings",
)
SELF_SPANS = CALL_SPANS + (
    "linspace.contains", "linspace.bounded_complex", "subdivision.facets_of_D",
    "bipartite.matching_multifield", "bipartite.is_coherent", "plucker.stiefel_map",
    "plucker.check_plucker", "cli.main",
)
PER_LAYER = (
    tuple((f"{span}.calls", "calls/op") for span in CALL_SPANS)
    + tuple((f"{span}.self_s", "s/op") for span in SELF_SPANS)
    + (
        ("arrangement.cells", "cells/call"),
        ("arrangement.checks_per_cell", "checks/cell"),
        ("linspace.decompose.checks_per_query", "checks/call"),
        ("core.codec_s", "s/op"),
    )
    + tuple((f"{layer}.errors", "count") for layer in LAYERS)
    + (
        ("trace.ops_per_s", "1/s"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.overhead", "ratio"),
    )
)


@dataclass
class Record:
    op: Op
    output: object
    error: str | None
    latency: float
    cpu: float


# ---------------------------------------------------------------------------
# Executing one op
# ---------------------------------------------------------------------------

def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(op, env):
    """One cold CLI process; CPU time is read from RUSAGE_CHILDREN."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tropstiefel.cli", *op.argv],
            input=op.stdin, capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        output, error = None, f"timeout after {OP_TIMEOUT_S} s"
    else:
        output, error = proc.stdout, None
        if proc.returncode != 0 or "Traceback" in proc.stderr:
            error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    latency = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Record(op, output, error, latency, cpu)


def run_in_process(op):
    """A library call, or a CLI command through ``cli.main`` with redirected
    standard streams."""
    from tropstiefel import cli  # importable once main() has put SRC on sys.path

    saved = sys.stdin, sys.stdout, sys.stderr
    cpu0 = time.process_time()
    start = time.perf_counter()
    output = error = None
    try:
        if op.call is not None:
            output = op.call()
        else:
            sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.stdin), io.StringIO(), io.StringIO()
            code = cli.main(list(op.argv))
            output = sys.stdout.getvalue()
            if code != 0:
                error = f"exit {code}: {sys.stderr.getvalue().strip()[-300:]} {output[-200:]}"
    except Exception:  # the loop must go on; the op counts as failed
        error = traceback.format_exc(limit=-3)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    latency = time.perf_counter() - start
    return Record(op, output, error, latency, time.process_time() - cpu0)


def measure(cycles, execute, count, max_ops=None, before_cycle=None):
    """Closed loop over ``count`` whole cycles of ops, cut short after
    ``max_ops`` ops (smoke runs).  Input generation is not timed;
    ``before_cycle`` is called, untimed, ahead of each cycle."""
    records, busy = [], 0.0
    for _, cycle in zip(range(count), cycles):
        if before_cycle is not None:
            before_cycle()
        for op in cycle:
            if max_ops is not None and len(records) >= max_ops:
                return records, busy
            record = execute(op)
            busy += record.latency
            records.append(record)
    return records, busy


def verify(records):
    for r in records:
        if r.error is not None:
            continue
        try:
            r.op.check(r.output)
        except VerifyError as exc:
            r.error = f"wrong output: {exc}"
        except Exception as exc:  # malformed output also fails the op
            r.error = f"unreadable output: {type(exc).__name__}: {exc}"


def measure_setup(env, repeats, times):
    """Append to ``times`` the wall times of ``repeats`` fresh interpreters
    importing ``tropstiefel.cli``."""
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import tropstiefel.cli"],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=OP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def passed_rate(records, busy):
    return sum(r.error is None for r in records) / busy if busy > 0 else 0.0


def tail(latencies):
    """The highest order statistic with ten samples beyond it, and its
    percentile; with ten samples or fewer, the smallest."""
    lat = sorted(latencies)
    k = max(len(lat) - 11, 0)
    return lat[k], 100.0 * (k + 1) / len(lat)


def end_to_end(records, busy, peak_rss_mb, setup_s):
    latencies = [r.latency for r in records]
    tail_s, _ = tail(latencies)
    values = {
        "ops_per_s": passed_rate(records, busy),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "cpu_s_per_op": sum(r.cpu for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, traced, traced_busy, untraced, untraced_busy):
    n = len(traced)
    values = {}
    for span in CALL_SPANS:
        values[f"{span}.calls"] = tracer.get(span).calls / n
    for span in SELF_SPANS:
        values[f"{span}.self_s"] = tracer.get(span).self_s / n
    tc = tracer.get(COVECTORS)
    values["arrangement.cells"] = tc.size / tc.calls if tc.calls else 0.0
    values["arrangement.checks_per_cell"] = (
        tracer.scoped.get((COVECTORS, CHECKS), 0) / tc.size if tc.size else 0.0
    )
    dec = tracer.get(DECOMPOSE)
    values["linspace.decompose.checks_per_query"] = (
        tracer.scoped.get((DECOMPOSE, CHECKS), 0) / dec.calls if dec.calls else 0.0
    )
    values["core.codec_s"] = tracer.get("core.codec").self_s / n
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    # cli.main turns DomainErrors into exit code 1; count those as its errors
    values["cli.errors"] += sum(
        r.op.argv is not None and (r.error or "").startswith("exit ") for r in traced
    )
    traced_rate = passed_rate(traced, traced_busy)
    untraced_rate = passed_rate(untraced, untraced_busy)
    values["trace.ops_per_s"] = traced_rate
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.overhead"] = untraced_rate / traced_rate - 1 if traced_rate else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def cycle_count(workload, seconds):
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload and return (result object, report lines)."""
    rng = random.Random(f"{workload}:{seed}")
    cycles = WORKLOADS[workload](rng, smoke=smoke)
    max_ops = SMOKE_OPS if smoke else None
    env = cli_env()
    if trace:
        half = max(1, cycle_count(workload, seconds) // 2)
        untraced, untraced_busy = measure(cycles, run_in_process, half, max_ops)
        with Tracer(TARGETS, scopes=(COVECTORS, DECOMPOSE), sizes={COVECTORS: len}) as tracer:
            traced, traced_busy = measure(cycles, run_in_process, half, max_ops)
        records = untraced + traced
        verify(records)
        metrics = per_layer(tracer, traced, traced_busy, untraced, untraced_busy)
    else:
        # set-up samples are spread over the run, a few ahead of each cycle,
        # so that a short slow spell of the machine moves their median less
        setup_times = []
        sample_setup = lambda: measure_setup(env, 2 if smoke else SETUP_PER_CYCLE, setup_times)
        if workload in CLI_WORKLOADS:
            execute, who = (lambda op: run_subprocess(op, env)), resource.RUSAGE_CHILDREN
        else:
            execute, who = run_in_process, resource.RUSAGE_SELF
        records, busy = measure(cycles, execute, cycle_count(workload, seconds), max_ops, sample_setup)
        peak = resource.getrusage(who).ru_maxrss
        verify(records)
        metrics = end_to_end(records, busy, peak / 1024, statistics.median(setup_times))

    failed = [r for r in records if r.error is not None]
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  ops {len(records)}"
        f"  failed {len(failed)}  error_rate {len(failed) / len(records):.4f}"
    ]
    if not trace:
        _, pct = tail([r.latency for r in records])
        lines.append(f"latency_tail_s is the p{pct:.1f} latency of {len(records)} ops")
    lines += [f"  {name:<44} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r.op.kind, []).append(r.latency)
    lines += [
        f"  op {kind:<30} n={len(lat):<4} median {statistics.median(lat):.4f} s"
        for kind, lat in sorted(by_kind.items())
    ]
    lines += [f"  FAILED {r.op.kind}: {r.error}" for r in failed[:10]]
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, at most a dozen ops")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tropstiefel" / "cli.py").is_file():
        print(f"tropstiefel sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
