"""Benchmark of the qpdl exact checker: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload axioms|circuits|protocols \
        --seed N --seconds S --trace 0|1

Each workload runs in its own single-threaded worker process against the
checkout's ``src``.  Every verdict is checked against the answer its input
was built with.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details (input fingerprint, wall-clock times, tail percentile,
per-family times, the tracer's per-target durations and absent metrics).
The same details, with every verdict's record, are written to
``perfbench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones, measured for about
``--seconds``:

- ``cpu_s``: CPU seconds of a typical block of the workload;
- ``verdict_cpu_ms_gmean``: geometric mean of the CPU milliseconds of
  one verdict, over every verdict of the run;
- ``setup_s``: median CPU seconds a fresh process takes to import qpdl,
  generate the inputs and build the first block, scaled like the
  verdicts by references taken in that process;
- ``peak_rss_mb``: peak resident memory of the measuring process.

Times are CPU times because the checker is single-threaded and does no
I/O, so on an idle machine its wall time equals its CPU time, while on a
shared one the wall clock also counts waits for a core that other
tenants impose.  Each verdict's CPU time is further scaled by the speed
the processor showed during and around it (see ``scaled``), because on a
shared host that speed changes by tens of percent from minute to minute.
The unscaled and wall-clock figures are in the details.  Workers keep
their bytecode in ``perfbench/out/pycache``, warmed by one untimed
set-up, so that set-up does not depend on what other runs left in
``src``.

With ``--trace 1`` the worker runs a fixed number of blocks twice,
untraced and then with every layer's public functions wrapped, and
reports the per-layer metrics of ``tracer.METRICS`` (self times scaled
like the verdicts) and the tracing overhead as the ratio of traced to
untraced scaled verdict CPU time of those blocks.

The whole run ends within ``RUN_BUDGET_S``: a verdict still running at
its worker's budget is interrupted, and it and the verdicts after it
count as failed, so a much slower checker still gets a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed in this many fresh processes and reported as the
# median; no more are started once SETUP_BUDGET_S wall seconds are spent.
SETUP_RUNS = 7
SETUP_BUDGET_S = 30
# Blocks the traced run executes, whatever its speed, so that its counts
# are equal across commits for one seed.
TRACE_BLOCKS = {"axioms": 2, "circuits": 1, "protocols": 1}
# Wall seconds for the whole run.  Each worker gets what is left, less
# WORKER_GRACE_S, as its budget, and is killed only if it overruns that
# budget by WORKER_GRACE_S.
RUN_BUDGET_S = 160
WORKER_GRACE_S = 5
# Typical CPU seconds of worker.reference_cpu_s on the machine the
# baseline was measured on.  Verdict times are scaled to that speed,
# because the processor speed of a shared machine drifts between runs.
REFERENCE_CPU_S = 0.025


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(HERE / "out" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args: list, deadline: float, share: int = 1) -> dict:
    """Run worker.py with the given arguments and a budget of 1/share of
    the time left before ``deadline``; its last stdout line, parsed."""
    budget = (deadline - time.perf_counter()) / share - WORKER_GRACE_S
    if budget <= 0:
        raise RuntimeError("the run's time budget is spent")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args,
                           "--budget", f"{budget:.1f}"],
                          env=worker_env(), cwd=str(ROOT), capture_output=True,
                          text=True, timeout=budget + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_setups(workload: str, seed: int, deadline: float) -> tuple[list, list]:
    """Wall seconds and outputs of up to SETUP_RUNS set-up-only processes,
    after one untimed process that fills the bytecode cache."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    outs = [run_worker(args, deadline)]
    walls, timed = [], []
    stop = time.perf_counter() + SETUP_BUDGET_S
    while len(timed) < SETUP_RUNS and (not timed or time.perf_counter() < stop):
        t0 = time.perf_counter()
        timed.append(run_worker(args, deadline))
        walls.append(time.perf_counter() - t0)
    return walls, outs + timed


def scaled(cpu_s: float, reference_cpu_s: float) -> float:
    """A verdict's CPU seconds as if the processor had run at the speed at
    which the reference elimination takes REFERENCE_CPU_S, given the
    reference's median time just before, during and just after the
    verdict."""
    return cpu_s * REFERENCE_CPU_S / reference_cpu_s


def tail(values: list) -> dict:
    """The highest of the usual percentiles with at least ten samples
    beyond it (nearest rank), or None when the sample is too small."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            rank = max(1, -(-n * p // 100))
            return {"percentile": p, "value": ordered[int(rank) - 1],
                    "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def typical_block(records: list, key: str) -> float:
    """Time of a typical block: per slot, the median over blocks of that
    verdict's time, summed over the block's slots."""
    slots: dict = {}
    for rec in records:
        slots.setdefault(rec["slot"], []).append(rec[key])
    return sum(statistics.median(v) for v in slots.values())


def measure(args, deadline: float) -> tuple[dict, dict, dict]:
    setup_walls, setups = timed_setups(args.workload, args.seed, deadline)
    setup_cpus = [o["setup_cpu_s"] for o in setups[1:]]
    setup_scaled = [scaled(o["setup_cpu_s"], o["reference_cpu_s"])
                    for o in setups[1:]]
    out = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds)], deadline)
    prints = {o["fingerprint"] for o in setups + [out]}
    if len(prints) != 1:
        raise RuntimeError(f"inputs differ between processes: {sorted(prints)}")
    ok = [r for r in out["records"] if not r["error"]]
    if not ok:
        raise RuntimeError("every verdict failed")
    for r in ok:
        r["scaled"] = scaled(r["cpu"], r["reference_cpu_s"])
    cpu_ms = [r["scaled"] * 1000 for r in ok]
    wall_ms = [r["s"] * 1000 for r in ok]
    # the geometric mean, not the median, because a block's verdicts
    # fall into groups by qubit count, and the median sits on whichever
    # group is in the middle, so it follows one family's random content
    metrics = {
        "cpu_s": {"value": typical_block(ok, "scaled"), "unit": "s"},
        "verdict_cpu_ms_gmean": {"value": statistics.geometric_mean(cpu_ms),
                                 "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }
    families: dict = {}
    for r in ok:
        families.setdefault(r["family"], []).append(r["scaled"])
    details = {
        "fingerprint": out["fingerprint"],
        "blocks": len(out["block_walls"]),
        "unscaled_cpu_s": typical_block(ok, "cpu"),
        "verdict_cpu_ms_p50": statistics.median(cpu_ms),
        "unscaled_verdict_cpu_ms_p50": statistics.median(r["cpu"] * 1000 for r in ok),
        "wall_s": typical_block(ok, "s"),
        "verdict_ms_p50": statistics.median(wall_ms),
        "verdict_ms_tail": tail(wall_ms),
        "verdict_cpu_ms_tail": tail(cpu_ms),
        "reference_cpu_s_p50": statistics.median(r["reference_cpu_s"] for r in ok),
        "failed_share": sum(1 for r in out["records"] if r["error"])
                        / len(out["records"]),
        "block_walls_s": out["block_walls"],
        "measured_s": out["measured_s"],
        "unscaled_setup_s": statistics.median(setup_cpus),
        "setup_wall_s": setup_walls,
        "setup_cpu_s": setup_cpus,
        "setup_reference_cpu_s": [o["reference_cpu_s"] for o in setups[1:]],
        "family_cpu_median_s": {k: statistics.median(v)
                                for k, v in sorted(families.items())},
    }
    return metrics, details, out


def measure_traced(args, deadline: float) -> tuple[dict, dict, dict]:
    blocks = ["--workload", args.workload, "--seed", str(args.seed),
              "--blocks", str(TRACE_BLOCKS[args.workload])]
    plain = run_worker(blocks, deadline, share=2)
    traced = run_worker(blocks + ["--trace", "1"], deadline)
    if plain["fingerprint"] != traced["fingerprint"]:
        raise RuntimeError("traced and untraced inputs differ")
    # the overhead compares the verdicts that passed in both runs
    passed = ({(r["block"], r["slot"]) for r in plain["records"] if not r["error"]}
              & {(r["block"], r["slot"]) for r in traced["records"] if not r["error"]})
    plain_cpu, traced_cpu = (
        sum(scaled(r["cpu"], r["reference_cpu_s"]) for r in out["records"]
            if (r["block"], r["slot"]) in passed)
        for out in (plain, traced))
    units = {"calls": "count", "cells": "count", "macs": "count",
             "self_s": "s", "distinct_share": "ratio", "terms_in": "count",
             "terms_out": "count"}
    # self times are scaled by the traced run's median reference
    speed = REFERENCE_CPU_S / statistics.median(
        r["reference_cpu_s"] for r in traced["records"])
    metrics = {}
    for name, value in traced["trace"].items():
        unit = units[name.rsplit(".", 1)[1]]
        metrics[name] = {"value": value * speed if unit == "s" else value,
                         "unit": unit}
    if passed:
        metrics["trace.overhead_ratio"] = {"value": traced_cpu / plain_cpu,
                                           "unit": "ratio"}
    details = {
        "fingerprint": traced["fingerprint"],
        "blocks": TRACE_BLOCKS[args.workload],
        "untraced_cpu_s": plain_cpu,
        "traced_cpu_s": traced_cpu,
        "self_time_scale": speed,
        **traced["trace_details"],
    }
    return metrics, details, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("axioms", "circuits", "protocols"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qpdl" / "__init__.py").is_file():
        print(f"error: no qpdl sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        measure_one = measure_traced if args.trace else measure
        metrics, details, out = measure_one(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [f"block {r['block']} {r['family']}: {r['error']}"
              for r in out["records"] if r["error"]]
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "errors": errors, **details}
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({**details, "metrics": metrics,
                                "records": out["records"]}, indent=1))
    print(json.dumps(details))
    print(json.dumps({"correct": not errors, "attempted": len(out["records"]),
                      "failed": len(errors), "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
