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
from qpdl.checker import Environment, check_schematic, check_valid, eval_symbolic
from qpdl.frame import Frame, Subspace
from qpdl.parser import parse_formula
from qpdl.protocols import (
    DEFAULT_SEED,
    LOCAL_STATES_AXIOM,
    _ax_superpositions,
    _lemma_bell_preparation,
    axiom_suite,
    lemma_suite,
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



def test_reports_and_their_records_are_immutable():
    report = protocols.Report("t", True, "PASS", (), None, 0.0)
    result = check_schematic(
        Environment(Frame(1)), parse_formula("q -> q"), "q", (1,))[0][0]
    token = parser.tokenize("p")[0]
    assert (result.label, result.valid, result.witness) == ("q=0", True, None)
    assert (token.kind, token.value, token.line, token.col) == ("word", "p", 1, 1)
    assert report.render_text() == "t: PASS"
    for record, name in ((report, "passed"), (result, "valid"), (token, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

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


# sha256 of render_text() for the mutants and two more seeds, each with its
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
    pytest.param(teleportation, {"seed": 99},
                 "d22af7cc28ae7828cee33fcc8de5974c79cf9a25972781fd47b1f6ca5e6cd013",
                 id="teleportation-seed99"),
    pytest.param(quantum_secret_sharing, {"seed": 99},
                 "c839559fcebf2a30a5ebc121e91512c1b4319c48f749ea4f78adad5cb05761df",
                 id="qss-seed99"),
    pytest.param(lemma_suite, {"seed": 7},
                 "fb91a890ec1a3e6a7bb073e6da71dc49e171b71a4042c6cd3cd8478dbb52dbd9",
                 id="lemmas-seed7"),
    pytest.param(lemma_suite, {"seed": 99},
                 "5b3746e27ee013053c2a83cd2f87310ee216b06516a74618c9a4778058f281ef",
                 id="lemmas-seed99"),
    pytest.param(axiom_suite, {"seed": 7},
                 "123751f286a650d3989ce970fb7dbdc161bfc17d966070725675529511f38122",
                 id="axioms-seed7"),
    pytest.param(axiom_suite, {"seed": 99},
                 "4f6fd8499075155581ddad8f4bb3f66df9789046670f00e661d052d8cbe9aeb2",
                 id="axioms-seed99"),
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


# Runs `qpdl verify all --seed 2026` in a fresh process, then lemma_suite
# again, and prints the exit code, the number of parses in each and the
# number of distinct texts parsed: every parse tokenizes its text once.
PARSE_PROBE = """\
import contextlib, io, sys
texts = []
def profile(frame, event, arg):
    if (event == 'call' and frame.f_code.co_name == 'tokenize'
            and frame.f_globals.get('__name__') == 'qpdl.parser'):
        texts.append(frame.f_locals['text'])
sys.setprofile(profile)
from qpdl import protocols
from qpdl.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(['verify', 'all', '--seed', '2026'])
first = len(texts)
assert protocols.lemma_suite(seed=2026).passed
sys.setprofile(None)
print(code, first, len(texts) - first, len(set(texts)))
"""


def test_suites_parse_each_schema_once():
    # a claim is parsed once per process at qubits 1, 2, ... and each case
    # is built from it by ast.instantiate, so verify all parses no text
    # twice, and a second suite in the same process parses nothing
    proc = subprocess.run([sys.executable, "-c", PARSE_PROBE], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, first, again, distinct = map(int, proc.stdout.split())
    assert (code, again) == (0, 0)
    assert first == distinct <= 110, (first, distinct)


# sha256 over the repr of every claim each suite hands to check_valid,
# check_state and check_schematic, in order, with the count of claims:
# the claims as they were built when each case formatted its text at its
# own qubits and parsed it, taken at seeds 2026, 7 and 99.  Teleportation
# and secret sharing check the same claims at every seed.
CLAIM_SHA256 = [
    pytest.param(teleportation, 2026, 1,
                 "babbc0d1bff206bd83ed6430573b5259cad87fa61427fa4df24099a72dbed21a",
                 id="teleportation"),
    pytest.param(quantum_secret_sharing, 2026, 3,
                 "44e9138c5ea954609d2bc8eb43fbefd4afff8b61c3b892b451fbe9e2d5fcae4a",
                 id="qss"),
    pytest.param(lemma_suite, 2026, 76,
                 "36cc4bb30ac48fc6bddac44cba2b59ad81e34d06cc81a4f7178211e9ff6f6653",
                 id="lemmas-seed2026"),
    pytest.param(lemma_suite, 7, 76,
                 "d53beeff0e61b5152b52e41dab1fb44238d3c1435d12e0fd828311d4bd258734",
                 id="lemmas-seed7"),
    pytest.param(lemma_suite, 99, 76,
                 "dd8925d2826eeadbb163994761d6e5c60434e24568bf5b2180a1f2610be0ed3d",
                 id="lemmas-seed99"),
    pytest.param(axiom_suite, 2026, 1670,
                 "afe8af642fb897a5c1b917a62ce428cae48856266022423eb1c28a4e213dfe2e",
                 id="axioms-seed2026"),
    pytest.param(axiom_suite, 7, 1670,
                 "722605819674b1e614f8220211b629be6c96a58165a8a58ff1d73db40d5e6f08",
                 id="axioms-seed7"),
    pytest.param(axiom_suite, 99, 1670,
                 "276eab0cc06bf7ecf35636c0d9109133ba8476417d3cae3065e2052ba8b91076",
                 id="axioms-seed99"),
]


@pytest.mark.parametrize("target, seed, count, digest", CLAIM_SHA256)
def test_template_instances_equal_the_parsed_per_case_text(
        monkeypatch, target, seed, count, digest):
    seen = []

    def recording(check, at):
        def record(env, *args, **kwargs):
            seen.append(repr(args[at]))
            return check(env, *args, **kwargs)
        return record

    for name, at in (("check_valid", 0), ("check_state", 1), ("check_schematic", 0)):
        monkeypatch.setattr(protocols, name, recording(getattr(protocols, name), at))
    target(seed=seed)
    text = "\n".join(seen)
    assert (len(seen), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


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
    proc = subprocess.run([sys.executable, "-c", probe], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # none at import, and the probe does see the one call of a parse
    assert proc.stdout == "0 1\n"


def fresh_env():
    """The environment of a new process that imports this checkout's qpdl."""
    src = str(Path(protocols.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))
