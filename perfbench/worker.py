"""One benchmark process: set up a workload, run it, gate every verdict.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Set-up is import, input generation and building the first block;
``--setup-only`` stops after it (the parent times several such
processes).  Otherwise the worker runs whole blocks, either until
``--seconds`` would be exceeded or, with ``--blocks``, exactly that many,
and prints one JSON object on its last line.  No verdict runs past its
limit or past ``--budget`` wall seconds from the worker's start: it is
interrupted, and it and every verdict not yet started count as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

import workloads

# Blocks generated in set-up; only the first is parsed and built there,
# the others just before they run.  A run stops early, rather than repeat
# inputs, if a much faster checker gets through all of them.
MAX_BLOCKS = {"axioms": 24, "circuits": 16, "protocols": 4}

# Seconds of verdict CPU time per timing of the reference elimination
# while a verdict runs.
REFERENCE_EVERY_S = 0.25

# A verdict slower than this counts as failed; the slowest verdicts of the
# three workloads took about 1, 6 and 15 s when the benchmark was written.
VERDICT_LIMIT_S = {"axioms": 30.0, "circuits": 120.0, "protocols": 150.0}

# References timed before and after set-up, to scale set-up time.
SETUP_REFERENCES = 3


class OverLimit(BaseException):
    """Raised by the alarm in a verdict that ran past its limit.  Not an
    Exception, so that no handler inside the checker can swallow it."""


def _alarm(signum, frame):
    raise OverLimit()


def build_value(qpdl, frame, spec):
    """A Subspace or Region for one valuation spec of ``workloads``."""
    kind = spec[0]
    if kind == "sub":
        rows = [[qpdl.GaussianRational(re, im) for re, im in row]
                for row in spec[1]]
        return qpdl.Subspace.from_rows(rows, frame.dim)
    if kind == "zero":
        return qpdl.Subspace.from_rows([], frame.dim)
    if kind == "lift":
        amps = [qpdl.GaussianRational(Fraction(re), Fraction(im))
                for re, im in spec[1]]
        return frame.state_lift(amps, spec[2])
    if kind == "meet":
        acc = build_value(qpdl, frame, spec[1][0])
        for part in spec[1][1:]:
            acc = acc.meet(build_value(qpdl, frame, part))
        return acc
    if kind == "union":
        acc = qpdl.Region.of_subspace(build_value(qpdl, frame, spec[1][0]))
        for part in spec[1][1:]:
            acc = acc.union(qpdl.Region.of_subspace(build_value(qpdl, frame, part)))
        return acc
    if kind == "region":
        acc = qpdl.Region.of_subspace(build_value(qpdl, frame, spec[1]))
        for op in spec[2]:
            if op[0] == "complement":
                acc = acc.complement()
            else:
                other = qpdl.Region.of_subspace(build_value(qpdl, frame, op[1]))
                acc = acc.union(other) if op[0] == "union" else acc.intersect(other)
        return acc
    raise ValueError(f"unknown valuation spec {kind!r}")


def prepare(qpdl, item: dict) -> dict:
    """Parse the formula and build the environment of one claim."""
    if "formula" not in item:
        return item
    frame = qpdl.Frame(item["n"])
    vals = {name: build_value(qpdl, frame, spec)
            for name, spec in item["vals"].items()}
    return {**item, "env": qpdl.Environment(frame, vals),
            "parsed": qpdl.parse_formula(item["formula"])}


def reference_cpu_s() -> float:
    """CPU seconds of a fixed exact elimination that uses the standard
    library only, so that no change to qpdl moves it.  Timed between
    verdicts, it shows how fast the processor ran at that moment.  The
    collector is off, so that a large heap left by the checker cannot
    slow it down."""
    rng = random.Random(0)
    work = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(16)]
            for _ in range(16)]
    gc.disable()
    try:
        start = time.thread_time()
        for c in range(16):
            pivot = next((r for r in range(c, 16) if work[r][c]), None)
            if pivot is None:
                continue
            work[c], work[pivot] = work[pivot], work[c]
            inv = 1 / work[c][c]
            work[c] = [inv * x for x in work[c]]
            for r in range(16):
                if r != c and work[r][c]:
                    f = work[r][c]
                    work[r] = [x - f * y for x, y in zip(work[r], work[c])]
        return time.thread_time() - start
    finally:
        gc.enable()


class Sampler:
    """Times the reference every REFERENCE_EVERY_S of CPU time while a
    verdict runs, from the handler of a CPU-time timer, so that a long
    verdict is scaled by the speed the processor showed during it and not
    only around it.  The time the references take is kept apart, to be
    left out of the verdict's."""

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            self.samples.append(reference_cpu_s())
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.thread_time() - cpu
            self._busy = False


SAMPLER = Sampler()


def _clock() -> tuple:
    SAMPLER.start()
    return time.perf_counter(), time.thread_time(), SAMPLER.wall, SAMPLER.cpu


def _since(start: tuple) -> dict:
    """Wall and CPU seconds since ``start``, less the references taken
    meanwhile.  CPU time is the thread's, because the checker starts no
    threads, and because the process's clock turns coarse (a tick, some
    milliseconds) while a CPU-time timer is armed."""
    SAMPLER.stop()
    wall, cpu = time.perf_counter(), time.thread_time()
    return {"s": wall - start[0] - (SAMPLER.wall - start[2]),
            "cpu": cpu - start[1] - (SAMPLER.cpu - start[3])}


def check_claim(qpdl, item: dict) -> tuple[dict, str]:
    """Decide one claim; (times, error or "") under the known-answer gate.

    A refuted claim's witness must fail the formula pointwise and survive
    a round trip through the state-file format."""
    env, formula = item["env"], item["parsed"]
    start = _clock()
    witness = qpdl.check_valid(env, formula)
    took = _since(start)
    got = "VALID" if witness is None else "REFUTED"
    if got != item["expect"]:
        return took, f"expected {item['expect']}, got {got}"
    if witness is not None:
        if qpdl.check_state(env, witness, formula):
            return took, "witness satisfies the formula"
        n, back = qpdl.parse_state(qpdl.format_state(item["n"], witness))
        if n != item["n"] or back != witness:
            return took, "witness does not survive format/parse"
    return took, ""


def check_protocol(item: dict) -> tuple[dict, str]:
    """Run one verify call or mutant target and compare with its answer.

    A FAIL answer needs a witness on every failing line."""
    import qpdl.cli
    import qpdl.protocols
    if item["call"] == "cli":
        out = io.StringIO()
        start = _clock()
        with contextlib.redirect_stdout(out):
            code = qpdl.cli.main(item["args"])
        took = _since(start)
        lines = out.getvalue().splitlines()
        headline = lines[0] if lines else ""
        want = 0 if item["expect"] == "PASS" else 1
        if code != want:
            return took, f"exit {code}, expected {want}"
    else:
        start = _clock()
        report = getattr(qpdl.protocols, item["call"])(**item["kwargs"])
        took = _since(start)
        lines = report.render_text().splitlines()
        headline = lines[0]
    if f": {item['expect']}" not in headline:
        return took, f"headline {headline!r}, expected {item['expect']}"
    failing = [ln for ln in lines[1:] if "\tFAIL" in ln]
    if item["expect"] == "FAIL" and not failing:
        return took, "FAIL without a failing line"
    if any("witness=" not in ln for ln in failing):
        return took, "a failing line has no witness"
    return took, ""


def run_item(qpdl, workload: str, item: dict, limit_s: float) -> dict:
    """Run one verdict under the gate, interrupted after ``limit_s`` wall
    seconds.  A crash or an interrupted verdict is a failed verdict, not
    a failed run."""
    if limit_s <= 0:
        return {"family": item["family"], "s": None, "cpu": None,
                "error": "not run: the run's time budget is spent"}
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        if workload == "protocols":
            took, error = check_protocol(item)
        else:
            took, error = check_claim(qpdl, item)
    except OverLimit:
        return {"family": item["family"], "s": None, "cpu": None,
                "error": f"interrupted after {limit_s:.1f} s, over the limit"}
    except Exception:
        return {"family": item["family"], "s": None, "cpu": None,
                "error": traceback.format_exc(limit=3)}
    finally:
        SAMPLER.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {"family": item["family"], **took, "error": error}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--blocks", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--budget", type=float, default=150.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.budget

    if args.setup_only:
        # set-up starts at the import of qpdl: interpreter start-up is
        # the same for every commit, and does not slow down with the
        # processor the way the references and the checker do
        references = [reference_cpu_s() for _ in range(SETUP_REFERENCES)]
        setup_start = time.thread_time()
    spans = None
    if args.trace:
        from tracer import Tracer
        spans = Tracer()
        spans.install()
    import qpdl
    import qpdl.cli  # noqa: F401  (imported in set-up, not in the first verdict)
    import qpdl.protocols  # noqa: F401

    specs = workloads.generate(args.workload, args.seed,
                               MAX_BLOCKS[args.workload])
    result = {"fingerprint": workloads.fingerprint(specs)}
    if args.blocks:
        specs = specs[:args.blocks]
    first = [prepare(qpdl, item) for item in specs[0]]
    if args.setup_only:
        result["setup_cpu_s"] = time.thread_time() - setup_start
        references += [reference_cpu_s() for _ in range(SETUP_REFERENCES)]
        result["reference_cpu_s"] = statistics.median(references)
        print(json.dumps(result))
        return 0

    records = []
    block_walls = []
    start = time.perf_counter()
    for b, spec in enumerate(specs):
        if not args.blocks and block_walls:
            elapsed = time.perf_counter() - start
            if elapsed * (len(block_walls) + 1) / len(block_walls) > args.seconds:
                break
        block = first if b == 0 else [prepare(qpdl, item) for item in spec]
        before = [reference_cpu_s()]
        t0 = time.perf_counter()
        for slot, item in enumerate(block):
            limit = min(VERDICT_LIMIT_S[args.workload],
                        deadline - time.perf_counter())
            taken = len(SAMPLER.samples)
            rec = run_item(qpdl, args.workload, item, limit)
            during = SAMPLER.samples[taken:]
            after = [reference_cpu_s()]
            rec.update(block=b, slot=slot, references=len(during) + 2,
                       reference_cpu_s=statistics.median(before + during + after))
            records.append(rec)
            before = after
        block_walls.append(time.perf_counter() - t0)
    result.update({
        "records": records,
        "block_walls": block_walls,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if spans is not None:
        spans.uninstall()
        result["trace"], result["trace_details"] = spans.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
