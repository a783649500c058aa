"""Command-line behaviour: output text and exit codes for every
subcommand, including the error paths."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qpdl
import qpdl.cli
from qpdl.checker import Environment, check_state
from qpdl.cli import MAX_QUBITS, main
from qpdl.desugar import MAX_NODES
from qpdl.frame import Frame, PartialMap, parse_state
from qpdl.parser import parse_formula
from qpdl.regions import WitnessSearchExhausted


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_parse_reports_formula_or_program(capsys):
    code, out, _ = run(capsys, ["parse", "p & q -> r"])
    assert code == 0
    assert out == "formula: p & q -> r\n"
    code, out, _ = run(capsys, ["parse", "X_1 ; H_2"])
    assert code == 0
    assert out == "program: X_1;H_2\n"


def run_module(*argv):
    """``python -m qpdl argv`` in a fresh process, on this checkout's sources."""
    src = str(Path(qpdl.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", "qpdl", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_package_runs_as_a_module():
    proc = run_module("parse", "0_1")
    assert proc.returncode == 0
    assert proc.stdout == "formula: 0_1\n"


def test_cold_process_matches_warm_run(capsys):
    # a fresh process starts with no interned subspace and no memoised
    # orthocomplement; the in-process run reuses those of its warm-up
    argv = ["verify", "qss", "--seed", "2026"]
    cold = run_module(*argv)
    assert cold.returncode == 0
    run(capsys, argv)
    code, warm, _ = run(capsys, argv)
    assert code == 0
    assert warm == cold.stdout
    assert warm.startswith("qss: PASS")


def test_valid_formula_exits_zero(capsys):
    code, out, _ = run(capsys, ["valid", "-n", "1", "0_1 | !0_1"])
    assert code == 0
    assert out == "VALID\n"


def test_invalid_formula_prints_checkable_witness(capsys):
    code, out, _ = run(capsys, ["valid", "-n", "1", "0_1"])
    assert code == 1
    header, rest = out.split("\n", 1)
    assert header == "COUNTEREXAMPLE:"
    n, ray = parse_state(rest)
    assert n == 1
    assert not check_state(Environment(Frame(1)), ray, parse_formula("0_1"))


def test_holds_at_state(tmp_path, capsys):
    plus = write_state(tmp_path, "plus.state", "n=1\n1 0\n1 0\n")
    code, out, _ = run(capsys, ["holds", "-n", "1", "--state", plus, "+_1"])
    assert (code, out) == (0, "TRUE\n")
    code, out, _ = run(capsys, ["holds", "-n", "1", "--state", plus, "0_1"])
    assert (code, out) == (1, "FALSE\n")


def test_holds_separation_atom_at_state(tmp_path, capsys):
    product = write_state(tmp_path, "p.state", "n=2\n1 0\n0 0\n0 0\n0 0\n")
    bell = write_state(tmp_path, "b.state", "n=2\n1 0\n0 0\n0 0\n1 0\n")
    code, out, _ = run(capsys, ["holds", "-n", "2", "--state", product,
                               "T{1}"])
    assert (code, out) == (0, "TRUE\n")
    code, out, _ = run(capsys, ["holds", "-n", "2", "--state", bell, "T{1}"])
    assert (code, out) == (1, "FALSE\n")


def test_denote_prints_branch_matrices(capsys):
    code, out, _ = run(capsys, ["denote", "-n", "1", "X_1"])
    assert code == 0
    assert out == "branch 1:\n[0, 1]\n[1, 0]\n"
    # a union lists each branch
    code, out, _ = run(capsys, ["denote", "-n", "1", "X_1 + Z_1"])
    assert code == 0
    assert out.count("branch") == 2
    # `;` composes branch by branch, in the order of the union's branches
    code, out, _ = run(capsys, ["denote", "-n", "1", "(X_1 + Z_1) ; H_1"])
    assert code == 0
    assert out == "branch 1:\n[1, 1]\n[-1, 1]\nbranch 2:\n[1, -1]\n[1, 1]\n"
    # orthogonal tests compose to the nowhere-defined zero map
    code, out, _ = run(capsys, ["denote", "-n", "1", "0_1? ; 1_1?"])
    assert code == 0
    assert out == "branch 1:\n[0, 0]\n[0, 0]\n"


def test_denote_trivial_local_program(capsys):
    for program in ("T{1,2}", "adj(T{1,2})"):
        code, out, _ = run(capsys, ["denote", "-n", "2", program])
        assert (code, out) == (0, "trivial local program on qubits {1,2}\n")


@pytest.mark.parametrize("formula, expected", [
    ("localp{1,2}(T{1})", 0),
    ("dom(T{1,2})", 0),
    ("[T{1,2}]true", 0),
    ("localp{2}(T{1})", 1),
    ("[T{1} ; X_1]0_1", 3),
    ("[T{1} + X_1]0_1", 3),
    ("img(T{1}, 0_1)", 3),
    ("localp{1}(T{1} ; X_1)", 3),
    ("post(T{1}, 0_1)", 3),
])
def test_trivial_program_only_alone_under_a_box_or_in_localp(capsys, formula,
                                                             expected):
    # T{I} is every I-local map at once, which no tuple of maps denotes
    code, _, err = run(capsys, ["valid", "-n", "2", formula])
    assert code == expected
    assert err.startswith("unsupported:") == (expected == 3)


def test_eval_prints_region_shape(capsys):
    code, out, _ = run(capsys, ["eval", "-n", "1", "0_1 & !0_1"])
    assert (code, out) == (0, "EMPTY\n")
    code, out, _ = run(capsys, ["eval", "-n", "1", "0_1 | !0_1"])
    assert (code, out) == (0, "FULL\n")
    code, out, _ = run(capsys, ["eval", "-n", "1", "0_1"])
    assert (code, out) == (0, "term 1: span of dimension 1\n  (1)e0\n")
    code, out, _ = run(capsys, ["eval", "-n", "1", "!0_1"])
    assert code == 0
    assert out == ("term 1: span of dimension 2\n"
                   "  (1)e0\n  (1)e1\n"
                   "  minus span of dimension 1\n    (1)e0\n")


def test_eval_separation_atom_is_unsupported(capsys):
    code, _, err = run(capsys, ["eval", "-n", "2", "T{1}"])
    assert code == 3
    assert err.startswith("unsupported:")


def test_syntax_errors_exit_two(capsys):
    code, _, err = run(capsys, ["parse", "p &"])
    assert code == 2
    assert err.startswith("syntax error:")
    code, _, err = run(capsys, ["valid", "-n", "1", "(0_1"])
    assert code == 2
    assert err.startswith("syntax error:")


@pytest.mark.parametrize("text, message", [
    ("bell[0,2,1,2]", "bell bits must be 0 or 1"),
    ("ghz[1,2]", "expected 3 indices"),
    ("X_1 ;", "expected a program"),
])
def test_parse_reports_the_reading_that_got_further(capsys, text, message):
    # a bad bell or ghz index list fails both readings at the bad item
    # (the program reading tests the atom and keeps its error), and a tie
    # is read as a formula; "X_1 ;" is a program missing its tail
    code, out, err = run(capsys, ["parse", text])
    assert (code, out) == (2, "")
    assert err.startswith(f"syntax error: {message} ")
    column = {"bell[0,2,1,2]": 8, "ghz[1,2]": 8, "X_1 ;": 6}[text]
    assert err.endswith(f" at line 1 column {column}\n")


def test_deep_nesting_is_a_syntax_error(capsys):
    nested = "(" * 3000 + "0_1" + ")" * 3000
    code, out, err = run(capsys, ["valid", "-n", "1", nested])
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: nesting deeper than")


DEEP_WORD = " ; ".join(["(H_1 ; CNOT_1_2 ; X_3)"] * 64)
WITNESS_00 = "COUNTEREXAMPLE:\nn=3\n1 0\n0 0\n1 0\n" + "0 0\n" * 5


@pytest.mark.parametrize("formula, code, out", [
    (f"0_1 & +_2 -> [{DEEP_WORD} ; adj({DEEP_WORD})](0_1 & +_2)", 0, "VALID\n"),
    (f"eqf(img({DEEP_WORD} ; adj({DEEP_WORD}), 0_1 & +_2), 0_1 & +_2)", 0,
     "VALID\n"),
    (f"0_1 & +_2 -> [{DEEP_WORD}](1_1 & +_2)", 1, WITNESS_00),
])
def test_a_word_of_192_gates_keeps_its_verdict(capsys, formula, code, out):
    # a composite forms its product, and takes a preimage through its
    # factors, by a loop over the factor tree: a long word is no
    # RecursionError (exit 4); (H_1 ; CNOT_1_2 ; X_3)^64 is the identity
    # up to a scalar
    assert run(capsys, ["valid", "-n", "3", formula]) == (code, out, "")


@pytest.mark.parametrize("formula", [
    "testable(" * 60 + "0_1" + ")" * 60,
    "eqf(0_1, " * 40 + "0_1" + ")" * 40,
])
def test_exponential_expansion_exits_two_fast(capsys, formula):
    # each level doubles the core tree; desugaring stops at a node budget
    start = time.perf_counter()
    code, out, err = run(capsys, ["valid", "-n", "1", formula])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: expression expands past {MAX_NODES} nodes\n"


@pytest.mark.parametrize("depth", [9, 10, 11])
def test_core_tree_past_the_node_budget_exits_two_fast(capsys, depth):
    # eqf uses each part twice, so a tower of 9 or more needs few
    # rewrites but unfolds into more than MAX_NODES core nodes
    formula = "eqf(0_1, " * depth + "0_1" + ")" * depth
    start = time.perf_counter()
    code, out, err = run(capsys, ["valid", "-n", "1", formula])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == f"error: expression expands past {MAX_NODES} nodes\n"


@pytest.mark.parametrize("error", [
    RuntimeError("symbolic and pointwise evaluation disagree on the witness"),
    WitnessSearchExhausted("no witness among 4 candidates"),
    KeyError("surprise\nacross lines"),
    ValueError("shape mismatch (2, 2) * (4, 4)"),
])
def test_internal_errors_exit_four(monkeypatch, capsys, error):
    def broken(env, formula):
        raise error
    monkeypatch.setattr(qpdl.cli, "check_valid", broken)
    code, out, err = run(capsys, ["valid", "-n", "1", "0_1"])
    assert (code, out) == (4, "")
    assert err.startswith(f"internal error: {type(error).__name__}: ")
    assert err.count("\n") == 1


def test_maps_composed_in_reverse_are_a_disagreement(monkeypatch, capsys):
    # the symbolic side composes the branch maps, while the pointwise
    # side runs the actions one at a time, so maps composed in the wrong
    # order refute the claim symbolically and are caught at the witness
    claim = "0_1 -> [X_1 ; H_1]-_1"
    assert run(capsys, ["valid", "-n", "1", claim])[:2] == (0, "VALID\n")
    monkeypatch.setattr(PartialMap, "then",
                        lambda f, g: PartialMap(f.matrix * g.matrix))
    code, out, err = run(capsys, ["valid", "-n", "1", claim])
    assert (code, out) == (4, "")
    assert err == ("internal error: RuntimeError: symbolic and pointwise "
                   "evaluation disagree on the witness\n")


def test_an_implication_is_not_complemented_twice(capsys):
    # "F -> 0_1" is !(F & !0_1), which validity negates once more; F is
    # the conjunction of five (~a | ~b) over distinct product states a, b
    words = ["".join(w) for w in itertools.product("01+-", repeat=4)]
    states = random.Random(2026).sample(words, 10)
    vec = lambda w: "vec{1,2,3,4}(" + ",".join(w) + ")"
    f5 = " & ".join(f"(~{vec(a)} | ~{vec(b)})"
                    for a, b in zip(states[::2], states[1::2]))
    start = time.process_time()
    code, out, _ = run(capsys, ["valid", "-n", "4", f"({f5}) -> 0_1"])
    assert time.process_time() - start < 2.0
    assert (code, out.split("\n")[0]) == (1, "COUNTEREXAMPLE:")
    _, witness = parse_state(out.split("\n", 1)[1])
    env = Environment(Frame(4))
    assert check_state(env, witness, parse_formula(f5))
    assert not check_state(env, witness, parse_formula("0_1"))


def test_unbound_variable_exits_two(capsys):
    code, _, err = run(capsys, ["valid", "-n", "1", "p -> p"])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["valid", "-n", "2", "[w]true"],
    ["valid", "-n", "2", "ent[1,2](w)"],
    ["denote", "-n", "2", "mov[1,2](w)"],
    ["denote", "-n", "2", "adj(w)"],
    ["valid", "-n", "2", "localp{1}(w)"],
])
def test_unsubstituted_program_variable_exits_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: unbound variable 'w'\n"


@pytest.mark.parametrize("formula, message", [
    ("ent[1,2](T{1})", "ent takes a one-qubit program, not T{1}"),
    ("ent[1,2](CNOT_1_2)", "ent takes a one-qubit program, not CNOT_1_2"),
    ("ent[1,2](X_2)", "ent takes a one-qubit program, not X_2"),
    ("ent[1,2](X_1 + Z_1)", "ent encodes one linear map, not a union"),
    ("[mov[1,2](H_2)]true", "mov takes a one-qubit program, not H_2"),
    ("[unary1(X_1; (0_1 & 1_2)?)]true", "unary1 takes a one-qubit program, not 1_2"),
    ("ent[1,2](T{1}?)", "ent takes a one-qubit program, not T{1}"),
])
def test_one_qubit_program_restrictions_exit_three(capsys, formula, message):
    # ent, unary1 and mov take a deterministic program on qubit 1 alone;
    # a rejection names the subterm that breaks the rule
    code, out, err = run(capsys, ["valid", "-n", "2", formula])
    assert (code, out) == (3, "")
    assert err == f"unsupported: {message}\n"


def test_malformed_gate_in_program_position_is_unbound(capsys):
    # closed world: CNOT takes two qubits, so CNOT_1 is an identifier
    code, out, err = run(capsys, ["valid", "-n", "2", "[CNOT_1]p"])
    assert (code, out) == (2, "")
    assert err == "error: unbound variable 'CNOT_1'\n"


def test_bindings_from_state_files(tmp_path, capsys):
    zero = write_state(tmp_path, "zero.state", "n=1\n1 0\n0 0\n")
    one = write_state(tmp_path, "one.state", "n=1\n0 0\n1 0\n")
    code, out, _ = run(capsys, ["valid", "-n", "1", "-b", f"p=@{zero}",
                               "p -> 0_1"])
    assert (code, out) == (0, "VALID\n")
    # a span binding joins the listed rays
    code, out, _ = run(capsys, ["valid", "-n", "1",
                               "-b", f"p=span:@{zero},@{one}", "p"])
    assert (code, out) == (0, "VALID\n")
    code, out, _ = run(capsys, ["eval", "-n", "1",
                               "-b", f"p=span:@{zero},@{one}", "p"])
    assert (code, out) == (0, "FULL\n")


def test_bad_bindings_exit_two(tmp_path, capsys):
    zero = write_state(tmp_path, "zero.state", "n=1\n1 0\n0 0\n")
    for bind in ["p", f"p={zero}", "p=span:zero"]:
        code, _, err = run(capsys, ["valid", "-n", "1", "-b", bind, "p"])
        assert code == 2
        assert err.startswith("error:")
    # a name no formula can reference: a keyword, a gate or gate word, a
    # leading underscore, a non-ASCII letter, a space; the state file is
    # not read
    for name in ["box", "dia", "X", "CNOT", "H_1", "flip_1_2", "_p", "\u00f1",
                 "p q", " p", "p1 ", ""]:
        code, out, err = run(capsys, ["valid", "-n", "1", "-b", f"{name}=@nope",
                                      "p -> p"])
        assert (code, out) == (2, "")
        assert err == (f"error: bad binding {name + '=@nope'!r}, {name!r} is not "
                       f"a variable: a letter, then letters, digits or _, "
                       f"not a keyword or a gate\n")
    # letters, digits and _ after a letter are variables, bound and read
    for name in ["p", "P0", "p_1", "Ab9_", "CNOT_1"]:
        code, out, _ = run(capsys, ["valid", "-n", "1", "-b", f"{name}=@{zero}",
                                    f"{name} -> 0_1"])
        assert (code, out) == (0, "VALID\n")
    # dimension mismatch between the file and -n
    code, _, err = run(capsys, ["valid", "-n", "2", "-b", f"p=@{zero}", "p"])
    assert code == 2
    assert "expected n=2" in err


def test_parser_is_built_once_and_each_call_keeps_its_own_result(tmp_path, capsys):
    assert qpdl.cli._build_parser() is qpdl.cli._build_parser()
    zero = write_state(tmp_path, "zero.state", "n=1\n1 0\n0 0\n")
    # a binding list is the call's own: p bound by the first call is
    # unbound in the second
    assert run(capsys, ["valid", "-n", "1", "-b", f"p=@{zero}", "p -> 0_1"]) == \
        (0, "VALID\n", "")
    assert run(capsys, ["valid", "-n", "1", "p -> 0_1"]) == \
        (2, "", "error: unbound variable 'p'\n")
    code, out, err = run(capsys, ["valid", "-n", "1", "-b", f"q=@{zero}", "q -> 1_1"])
    assert (code, out.splitlines()[0], err) == (1, "COUNTEREXAMPLE:", "")
    with pytest.raises(SystemExit) as exc:
        main(["valid", "p"])
    assert exc.value.code == 2
    assert "-n" in capsys.readouterr().err
    assert run(capsys, ["parse", "p"]) == (0, "formula: p\n", "")


def test_huge_state_file_header_exits_two(tmp_path, capsys):
    huge = write_state(tmp_path, "huge.state", "n=1000000000000\n1 0\n0 0\n")
    for argv in (["holds", "-n", "1", "--state", huge, "0_1"],
                 ["valid", "-n", "1", "-b", f"p=@{huge}", "p"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: expected 2^1000000000000 amplitude lines")
        assert err.count("\n") == 1


def test_non_decimal_state_file_header_exits_two(tmp_path, capsys):
    # int() would read "n=+1" as 1, and the body fits one qubit
    signed = write_state(tmp_path, "signed.state", "n=+1\n1 0\n0 0\n")
    code, out, err = run(capsys, ["holds", "-n", "1", "--state", signed, "0_1"])
    assert (code, out) == (2, "")
    assert err == "error: bad qubit count in state file\n"


def test_qubit_count_above_cap_exits_two(capsys):
    for argv in (["valid", "-n", "11", "x"],
                 ["holds", "-n", "11", "--state", "nope", "x"],
                 ["denote", "-n", "11", "x?"],
                 ["eval", "-n", "11", "x"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: -n 11 exceeds the limit of {MAX_QUBITS} qubits\n"
    # at the cap the frame is accepted, and the unbound variable is the error
    code, _, err = run(capsys, ["valid", "-n", str(MAX_QUBITS), "x"])
    assert code == 2 and "unbound" in err


@pytest.mark.parametrize("formula, qubit", [
    ("T{0,5}", 0),
    ("[T{3,4}]true", 3),
    ("~T{0,5}", 0),
    ("localp{0}(X_1)", 0),
    ("localp{1}(T{0})", 0),
    ("localp{5}(X_1)", 5),
])
def test_out_of_range_qubits_exit_two(tmp_path, capsys, formula, qubit):
    state = write_state(tmp_path, "s.state", "n=2\n1 0\n0 0\n0 0\n0 0\n")
    for argv in (["valid", "-n", "2", formula],
                 ["holds", "-n", "2", "--state", state, formula],
                 ["eval", "-n", "2", formula]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: qubit {qubit} outside 1..2\n"


def test_missing_state_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["holds", "-n", "1",
                               "--state", str(tmp_path / "nope"), "0_1"])
    assert code == 2
    assert err.startswith("error:")


def test_verify_target_output_is_byte_stable(capsys):
    code, first, _ = run(capsys, ["verify", "teleportation"])
    assert code == 0
    again = run(capsys, ["verify", "teleportation"])[1]
    assert first == again
    lines = first.splitlines()
    assert lines[0] == "teleportation: PASS (12/12 instances, 4 branches)"
    assert lines[1] == "teleportation: seed 2026"


def test_verify_honours_seed_flag(capsys):
    code, out, _ = run(capsys, ["verify", "teleportation", "--seed", "3"])
    assert code == 0
    assert out.splitlines()[1] == "teleportation: seed 3"


def test_verify_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
