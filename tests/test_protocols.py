"""Protocol verification reports: teleportation, secret sharing, the
sanity mutations that must fail, and the rendering the command line
prints."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qpdl import parser, protocols
from qpdl.checker import Environment, check_valid, eval_symbolic
from qpdl.frame import Frame, Subspace
from qpdl.parser import parse_formula
from qpdl.protocols import (
    DEFAULT_SEED,
    LOCAL_STATES_AXIOM,
    _ax_superpositions,
    _lemma_bell_preparation,
    quantum_secret_sharing,
    run_target,
    teleportation,
)


def test_teleportation_passes():
    report = teleportation()
    assert report.passed
    assert report.headline == "PASS (12/12 instances, 4 branches)"
    assert report.seed == DEFAULT_SEED
    # 12 schematic instances plus 20 random-state corroborations
    assert len(report.lines) == 32
    assert all(line.startswith("teleportation\t") for line in report.lines)
    assert sum("\tPASS" in line for line in report.lines) == 32


def test_teleportation_render_is_byte_stable():
    a = teleportation(seed=7, samples=3).render_text()
    b = teleportation(seed=7, samples=3).render_text()
    c = teleportation(seed=8, samples=3).render_text()
    assert a == b
    assert a != c


def test_teleportation_without_z_correction_fails():
    report = teleportation(drop_z=True, samples=0)
    assert not report.passed
    assert report.headline == "FAIL (10/12 instances, 4 branches)"
    bad = [line for line in report.lines if "\tFAIL" in line]
    assert len(bad) == 2
    # the phase fix only matters in the x=1 branches, and only for a
    # secret with both basis components
    assert all("q=+" in line and "x=1" in line for line in bad)
    assert all("witness=" in line for line in bad)


def test_teleportation_without_x_correction_fails():
    report = teleportation(drop_x=True, samples=0)
    assert not report.passed
    assert report.headline == "FAIL (8/12 instances, 4 branches)"
    bad = [line for line in report.lines if "\tFAIL" in line]
    # X fixes the y=1 branches; it acts trivially on q=+, so only the
    # basis secrets break
    assert len(bad) == 4
    assert all("y=1" in line for line in bad)
    assert not any("q=+" in line for line in bad)


def test_qss_passes_with_intermediate_bell_facts():
    report = quantum_secret_sharing()
    assert report.passed
    assert report.headline == "PASS (26/26 instances, 8 branches)"
    ghz = [line for line in report.lines if "ghz intermediate" in line]
    assert len(ghz) == 2
    assert all("\tPASS" in line for line in ghz)


def test_qss_without_pooled_bit_fails():
    report = quantum_secret_sharing(omit_z=True, samples=0)
    assert not report.passed
    assert report.headline == "FAIL (22/26 instances, 8 branches)"
    bad = [line for line in report.lines if "\tFAIL" in line]
    # the pooled phase bit only matters for a superposed secret
    assert len(bad) == 4
    assert all("q=+" in line and "z=1" in line for line in bad)
    assert all("witness=" in line for line in bad)


def test_qss_with_inverted_sign_reading_fails():
    report = quantum_secret_sharing(invert_sign=True, samples=0)
    assert not report.passed
    assert report.headline == "FAIL (16/26 instances, 8 branches)"
    ghz = [line for line in report.lines if "ghz intermediate" in line]
    assert len(ghz) == 2
    assert all("\tFAIL" in line for line in ghz)


# sha256 of render_text() for the mutants and a second seed, each with its
# 20 random-state corroborations; the default reports are pinned in
# test_acceptance.REPORT_SHA256.
VARIANT_SHA256 = [
    pytest.param(teleportation, {"drop_x": True},
                 "44335bf374fcf9a2b5d9d4a70a30da7e4a2174421f2fcf3716a840b97518ec46",
                 id="teleportation-drop_x"),
    pytest.param(teleportation, {"drop_z": True},
                 "e2b6c58a00a561218f7f62bb07d06ccc6d5213d93cfbe8eee9c2fbaa9583600e",
                 id="teleportation-drop_z"),
    pytest.param(quantum_secret_sharing, {"omit_z": True},
                 "68b5a55fc837348c4c88f3387424e32b797bdf564134b199b9f9873ea41d58d1",
                 id="qss-omit_z"),
    pytest.param(quantum_secret_sharing, {"invert_sign": True},
                 "16e150a49607a9e0888f46c237eb0e52379a7c8f2cc54d747e7135a75917dba2",
                 id="qss-invert_sign"),
    pytest.param(teleportation, {"seed": 7},
                 "414151a85ab845b88acb0db41297fcc588bfb5183634fcdd77717cca892a1791",
                 id="teleportation-seed7"),
    pytest.param(quantum_secret_sharing, {"seed": 7},
                 "722db0852c1176bb882328e442ca405a82c5b664b81772707ec2b242c47ed477",
                 id="qss-seed7"),
]


@pytest.mark.parametrize("target, kwargs, digest", VARIANT_SHA256)
def test_variant_reports_are_byte_pinned(target, kwargs, digest):
    text = target(**kwargs).render_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_render_layout():
    report = teleportation(samples=1)
    text = report.render_text().splitlines()
    assert text[0] == "teleportation: PASS (12/12 instances, 4 branches)"
    assert text[1] == f"teleportation: seed {DEFAULT_SEED}"
    assert text[2].split("\t") == ["teleportation", "q=0 x=0,y=0", "PASS"]
    assert text[-1].split("\t")[1] == "random state 1"


def test_run_target_dispatch():
    reports = run_target("teleportation", seed=5)
    assert [r.name for r in reports] == ["teleportation"]
    assert reports[0].seed == 5
    with pytest.raises(KeyError):
        run_target("bogus")


def test_exhaustive_families_hold():
    rows = _lemma_bell_preparation(random.Random(1))
    assert len(rows) == 8
    assert all(r.valid for r in rows)
    rows = _ax_superpositions()
    assert len(rows) == 10
    assert all(r.valid for r in rows)


@pytest.mark.parametrize("qubits, p", [
    ("1", "true"), ("2", "true"), ("1,2", "true"), ("1,3", "true"),
    ("1,2", "0_1"), ("1,3", "0_1 | 1_3"), ("2", "+_2 | !+_2"),
])
def test_local_states_axiom_holds_for_p_beyond_a_part_state(qubits, p):
    # the axiom suite draws p as the lift of one part-state; a p that
    # spans more than one part-state on I must not refute it either
    fr = Frame(3)
    text = LOCAL_STATES_AXIOM.replace("{I}", "{" + qubits + "}")
    for q in ("0_1", "0_1 & 0_2", "0_1 & 1_3", "+_2", "0_1 | 1_1"):
        env = Environment(fr, {"p": region(fr, p), "q": region(fr, q)})
        assert check_valid(env, parse_formula(text)) is None, (qubits, p, q)


def region(fr, text):
    return eval_symbolic(Environment(fr), parse_formula(text))


def test_suites_parse_each_schema_once(monkeypatch):
    # schemas are parsed once per family and filled by substitution;
    # random words are trees and are never printed and parsed back
    counts = {"formula": 0, "program": 0}

    def counting(kind, parse):
        def counted(text):
            counts[kind] += 1
            return parse(text)
        return counted

    monkeypatch.setattr(protocols, "parse_formula",
                        counting("formula", parser.parse_formula))
    monkeypatch.setattr(protocols, "parse_program",
                        counting("program", parser.parse_program))
    monkeypatch.setattr(parser, "parse_program",
                        counting("program", parser.parse_program))
    assert protocols.axiom_suite(seed=2026).passed
    assert counts["formula"] <= 320 and counts["program"] == 0, counts
    counts["program"] = 0
    assert protocols.lemma_suite(seed=2026).passed
    assert counts["program"] == 0
    # a protocol parses its claim once and each branch once
    for run, formulas, programs in ((protocols.teleportation, 1, 4),
                                    (protocols.quantum_secret_sharing, 3, 8)):
        counts.update(formula=0, program=0)
        assert run(samples=2).passed
        assert counts == {"formula": formulas, "program": programs}, counts


def test_importing_protocols_parses_nothing():
    probe = (
        "import sys\n"
        "calls = []\n"
        "def profile(frame, event, arg):\n"
        "    if (event == 'call' and frame.f_code.co_name == 'tokenize'\n"
        "            and frame.f_globals.get('__name__') == 'qpdl.parser'):\n"
        "        calls.append(1)\n"
        "sys.setprofile(profile)\n"
        "import qpdl.protocols\n"
        "at_import = len(calls)\n"
        "qpdl.protocols.parse_formula('p')\n"
        "sys.setprofile(None)\n"
        "print(at_import, len(calls))\n")
    src = str(Path(protocols.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # none at import, and the probe does see the one call of a parse
    assert proc.stdout == "0 1\n"
