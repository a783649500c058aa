"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q

They check the benchmark's arithmetic and gates, not the checker."""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_root():
    t = tracer.Tracer()
    t.span_names, t.layers = ["outer", "inner"], ["L1", "L2"]
    t.present = {"outer", "inner"}
    for name, s, e, p in [(0, 0.0, 8.0, -1), (1, 1.0, 3.0, 0), (0, 4.0, 7.0, 0),
                          (1, 5.0, 6.0, 2)]:
        t.name_of.append(name)
        t.starts.append(s)
        t.ends.append(e)
        t.parents.append(p)
    _, details = t.metrics()
    assert details["layer_self_s"] == {"L1": 5.0, "L2": 3.0}


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.generate(workload, 7, 2)
        b = workloads.generate(workload, 7, 2)
        c = workloads.generate(workload, 8, 2)
        assert a == b
        assert workloads.fingerprint(a) == workloads.fingerprint(b)
        assert workloads.fingerprint(a) != workloads.fingerprint(c)


def test_blocks_have_the_same_shape_for_every_seed():
    for workload in workloads.WORKLOADS:
        shapes = {tuple((i["family"], i.get("n")) for i in block)
                  for seed in (1, 2) for block in workloads.generate(workload, seed, 2)}
        assert len(shapes) == 1


def test_gate_flags_a_wrong_expected_answer():
    import qpdl
    right = {"family": "t", "n": 1, "formula": "0_1 -> [X_1]1_1",
             "expect": "VALID", "vals": {}}
    assert worker.check_claim(qpdl, worker.prepare(qpdl, right))[1] == ""
    wrong = {**right, "expect": "REFUTED"}
    assert "expected REFUTED" in worker.check_claim(qpdl, worker.prepare(qpdl, wrong))[1]
    refuted = {**right, "formula": "0_1 -> [X_1]0_1", "expect": "REFUTED"}
    assert worker.check_claim(qpdl, worker.prepare(qpdl, refuted))[1] == ""
    rec = worker.run_item(qpdl, "circuits",
                          worker.prepare(qpdl, {**refuted, "expect": "VALID"}), 30.0)
    assert rec["error"]


def test_a_verdict_over_its_limit_is_interrupted_and_failed():
    import qpdl
    slow = next(i for i in workloads.generate("circuits", 1, 1)[0] if i["n"] == 6)
    item = worker.prepare(qpdl, slow)
    start = time.perf_counter()
    rec = worker.run_item(qpdl, "circuits", item, 0.05)
    assert time.perf_counter() - start < 1.0
    assert "over the limit" in rec["error"]
    assert "not run" in worker.run_item(qpdl, "circuits", item, 0.0)["error"]


def test_tracer_reports_a_missing_name_as_absent():
    specs = [("frame.ortho", "frame.lattice", "qpdl.frame:Subspace.ortho", "args"),
             ("regions.witness", "regions", "qpdl.regions:Term.no_such_method", None),
             ("parser", "parser", "qpdl.no_such_module:parse", None)]
    t = tracer.Tracer()
    t.install(specs)
    try:
        import qpdl
        qpdl.Subspace.full(2).ortho()
    finally:
        t.uninstall()
    metrics, details = t.metrics()
    assert metrics["frame.ortho.calls"] == 1
    assert "regions.witness.calls" in details["absent"]
    assert "parser.self_s" in details["absent"]
    assert len(details["missing_names"]) == 2
    assert qpdl.Subspace.ortho is not None and not hasattr(qpdl.Subspace.ortho, "__wrapped__")


def test_tracer_rebinds_imported_copies_of_functions():
    import qpdl
    import qpdl.checker
    original = qpdl.checker.check_valid
    t = tracer.Tracer()
    t.install([("checker.check_valid", "checker", "qpdl.checker:check_valid", None)])
    try:
        assert qpdl.check_valid is qpdl.checker.check_valid is not original
    finally:
        t.uninstall()
    assert qpdl.check_valid is original


def test_tracer_reports_an_unreadable_argument_as_absent():
    import qpdl
    t = tracer.Tracer()
    t.install([("linalg.matmul", "linalg.matmul", "qpdl.linalg:Matrix.__mul__", "macs")])
    try:
        m = qpdl.Matrix.identity(2)
        assert (m * m) == m
        assert m.__mul__(3) is NotImplemented  # no .rows on an int
    finally:
        t.uninstall()
    metrics, details = t.metrics()
    assert metrics["linalg.matmul.calls"] == 2
    assert "linalg.matmul.macs" in details["absent"]


@pytest.mark.parametrize("n, percentile", [(5, None), (20, 50), (100, 90), (250, 95)])
def test_tail_needs_ten_samples_beyond_it(n, percentile):
    got = run.tail(list(range(n)))
    assert got["percentile"] == percentile
    if percentile is not None:
        assert sum(v > got["value"] for v in range(n)) >= 10
