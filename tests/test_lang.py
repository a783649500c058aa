"""Concrete syntax: parsing, printing, and their round trip."""

import dataclasses
import gc
import operator
import random
import re
import time
import types
from collections import Counter

import pytest

from qpdl import ast
from qpdl.ast import pretty
from qpdl.checker import Environment, check_valid
from qpdl.desugar import desugar_formula, desugar_program
from qpdl.errors import CheckError, UnsupportedNesting
from qpdl.frame import GATES, Frame
from qpdl.parser import (MAX_DEPTH, RESERVED, ParseError, parse_formula,
                          parse_program, tokenize)

import lexer_reference
import parser_reference

N = 3


def rand_qubits(rng, k=None):
    k = k or rng.randint(1, N)
    return tuple(sorted(rng.sample(range(1, N + 1), k)))


def rand_formula(rng, depth):
    if depth <= 0:
        choices = ["var", "true", "false", "const", "one", "plus", "top",
                   "vec", "bell", "ghz", "gamma"]
        kind = rng.choice(choices)
        if kind == "var":
            return ast.Var(rng.choice("pqr"))
        if kind == "true":
            return ast.TrueF()
        if kind == "false":
            return ast.FalseF()
        if kind == "const":
            return ast.Const(rng.choice("01+-"), rng.randint(1, N))
        if kind == "one":
            return ast.One()
        if kind == "plus":
            return ast.Plus()
        if kind == "top":
            return ast.Top(rand_qubits(rng))
        if kind == "vec":
            qs = rand_qubits(rng)
            return ast.VecC(qs, "".join(rng.choice("01+-") for _ in qs))
        if kind == "bell":
            i, j = rng.sample(range(1, N + 1), 2)
            return ast.Bell(rng.randrange(2), rng.randrange(2), i, j)
        if kind == "ghz":
            i, j, k = rng.sample(range(1, N + 1), 3)
            return ast.GHZ(i, j, k)
        i, j = rng.sample(range(1, N + 1), 2)
        return ast.Gamma(i, j)
    kind = rng.choice(["not", "ortho", "boxm", "diam", "and", "or",
                       "implies", "sqcup", "box", "dia", "leq", "eqf",
                       "perpf", "testable", "eqi", "component", "localf",
                       "localp", "ent", "dom", "post", "img"])
    sub = lambda: rand_formula(rng, depth - 1)
    prog = lambda: rand_program(rng, depth - 1)
    if kind == "not":
        return ast.Not(sub())
    if kind == "ortho":
        return ast.Ortho(sub())
    if kind == "boxm":
        return ast.BoxM(sub())
    if kind == "diam":
        return ast.DiaM(sub())
    if kind == "and":
        return ast.And(sub(), sub())
    if kind == "or":
        return ast.Or(sub(), sub())
    if kind == "implies":
        return ast.Implies(sub(), sub())
    if kind == "sqcup":
        return ast.Sqcup(sub(), sub())
    if kind == "box":
        return ast.Box(prog(), sub())
    if kind == "dia":
        return ast.Dia(prog(), sub())
    if kind == "leq":
        return ast.Leq(sub(), sub())
    if kind == "eqf":
        return ast.EqF(sub(), sub())
    if kind == "perpf":
        return ast.PerpF(sub(), sub())
    if kind == "testable":
        return ast.Testable(sub())
    if kind == "eqi":
        return ast.EqI(sub(), sub(), rand_qubits(rng))
    if kind == "component":
        return ast.Component(sub(), rand_qubits(rng))
    if kind == "localf":
        return ast.LocalF(sub(), rand_qubits(rng))
    if kind == "localp":
        return ast.LocalP(prog(), rand_qubits(rng))
    if kind == "ent":
        i, j = rng.sample(range(1, N + 1), 2)
        return ast.Ent(i, j, prog())
    if kind == "dom":
        return ast.Dom(prog())
    if kind == "post":
        return ast.PostF(prog(), sub())
    return ast.Img(prog(), sub())


def rand_program(rng, depth):
    if depth <= 0:
        kind = rng.choice(["gate1", "cnot", "id", "topp", "flip",
                           "set0", "proj0"])
        if kind == "gate1":
            return ast.GateP(rng.choice("XZH"), (rng.randint(1, N),))
        if kind == "cnot":
            return ast.GateP("CNOT", tuple(rng.sample(range(1, N + 1), 2)))
        if kind == "id":
            return ast.Id()
        if kind == "topp":
            return ast.TopP(rand_qubits(rng))
        if kind == "flip":
            i, j = rng.sample(range(1, N + 1), 2)
            return ast.Flip(i, j)
        if kind == "set0":
            return ast.Set0(rand_qubits(rng))
        return ast.Proj0(rand_qubits(rng))
    kind = rng.choice(["test", "seq", "union", "adj", "mov", "unary1"])
    if kind == "test":
        return ast.Test(rand_formula(rng, depth - 1))
    if kind == "seq":
        return ast.SeqP(rand_program(rng, depth - 1),
                        rand_program(rng, depth - 1))
    if kind == "union":
        return ast.UnionP(rand_program(rng, depth - 1),
                          rand_program(rng, depth - 1))
    if kind == "adj":
        return ast.Adj(rand_program(rng, depth - 1))
    if kind == "mov":
        i, j = rng.sample(range(1, N + 1), 2)
        if rng.random() < 0.2:
            j = i
        return ast.Mov(i, j, rand_program(rng, depth - 1))
    return ast.Unary1(rand_program(rng, depth - 1))


def test_formula_round_trip():
    rng = random.Random(401)
    seen = 0
    while seen < 120:
        node = rand_formula(rng, rng.randint(1, 4))
        text = pretty(node)
        assert parse_formula(text) == node, text
        seen += 1


def test_program_round_trip():
    rng = random.Random(402)
    seen = 0
    while seen < 120:
        node = rand_program(rng, rng.randint(1, 4))
        text = pretty(node)
        assert parse_program(text) == node, text
        seen += 1


def test_a_parse_is_one_node_per_distinct_subterm():
    # each random tree is written twice, joined by & or +, so that every
    # parse has equal subtrees to share
    rng = random.Random(408)
    for k in range(240):
        if k % 2:
            tree = ast.And(*[rand_formula(rng, rng.randint(1, 4))] * 2)
            parse = parse_formula
        else:
            tree = ast.UnionP(*[rand_program(rng, rng.randint(1, 4))] * 2)
            parse = parse_program
        text = pretty(tree)
        got = parse(text)
        assert got == tree and got.left is got.right, text
        first = {}
        for node in subtrees(got):
            assert first.setdefault(node, node) is node, text
        # the table lives for one parse: a second parse builds anew
        assert parse(text) is not got


def test_program_variable_round_trip():
    # in program position a non-keyword identifier is a program variable,
    # read only once the test reading f? has failed
    w, u = ast.PVar("w"), ast.PVar("u")
    for text, node in [
        ("w", w),
        ("w;X_1 + adj(u)", ast.UnionP(ast.SeqP(w, ast.GateP("X", (1,))),
                                      ast.Adj(u))),
        ("mov[1,2](w)", ast.Mov(1, 2, w)),
        ("CNOT_1", ast.PVar("CNOT_1")),
    ]:
        assert parse_program(text) == node
        assert pretty(node) == text
    assert parse_program("w?") == ast.Test(ast.Var("w"))
    assert parse_program("(w & q)?") == ast.Test(ast.And(ast.Var("w"), ast.Var("q")))
    kripke = parse_formula("[w](p -> q) -> ([w]p -> [w]q)")
    assert kripke.left.prog == w
    assert parse_formula(pretty(kripke)) == kripke
    for keyword in ("true", "bell", "T"):
        with pytest.raises(ParseError):
            parse_program(keyword)


def test_connective_precedence():
    f = parse_formula("p & q | r -> !p")
    assert f == ast.Implies(ast.Or(ast.And(ast.Var("p"), ast.Var("q")),
                                   ast.Var("r")),
                            ast.Not(ast.Var("p")))
    # implication associates right
    g = parse_formula("p -> q -> r")
    assert g == ast.Implies(ast.Var("p"),
                            ast.Implies(ast.Var("q"), ast.Var("r")))


def test_program_precedence():
    p = parse_program("X_1 ; Z_1 + H_1")
    assert p == ast.UnionP(ast.SeqP(ast.GateP("X", (1,)),
                                    ast.GateP("Z", (1,))),
                           ast.GateP("H", (1,)))
    q = parse_program("X_1 ; (Z_1 + H_1)")
    assert q == ast.SeqP(ast.GateP("X", (1,)),
                         ast.UnionP(ast.GateP("Z", (1,)),
                                    ast.GateP("H", (1,))))
    # sequencing associates left
    r = parse_program("X_1 ; Z_1 ; H_1")
    assert r == ast.SeqP(ast.SeqP(ast.GateP("X", (1,)),
                                  ast.GateP("Z", (1,))),
                         ast.GateP("H", (1,)))


def test_unary_binds_tightest():
    f = parse_formula("!p & q")
    assert f == ast.And(ast.Not(ast.Var("p")), ast.Var("q"))
    g = parse_formula("box p & q")
    assert g == ast.And(ast.BoxM(ast.Var("p")), ast.Var("q"))
    h = parse_formula("[X_1]p & q")
    assert h == ast.And(ast.Box(ast.GateP("X", (1,)), ast.Var("p")),
                        ast.Var("q"))


def test_constant_tokens():
    assert parse_formula("+_2") == ast.Const("+", 2)
    assert parse_formula("-_1") == ast.Const("-", 1)
    assert parse_formula("one") == ast.One()
    assert parse_formula("plus") == ast.Plus()
    assert parse_formula("T{1,3}") == ast.Top((1, 3))
    assert parse_formula("vec{1,2}(0,+)") == ast.VecC((1, 2), "0+")


def test_teleportation_branch_text():
    text = "CNOT_1_2 ; H_1 ; (1_1 & 0_2)? ; Z_3"
    assert parse_program(text) == ast.SeqP(
        ast.SeqP(ast.SeqP(ast.GateP("CNOT", (1, 2)), ast.GateP("H", (1,))),
                 ast.Test(ast.And(ast.Const("1", 1), ast.Const("0", 2)))),
        ast.GateP("Z", (3,)))


def test_protocol_claim_text():
    f = parse_formula(
        "eqi{3}(img(CNOT_1_2 ; H_1, q & bell[0,0,2,3]), img(mov[1,3](id), q))")
    assert f == ast.EqI(
        ast.Img(ast.SeqP(ast.GateP("CNOT", (1, 2)), ast.GateP("H", (1,))),
                ast.And(ast.Var("q"), ast.Bell(0, 0, 2, 3))),
        ast.Img(ast.Mov(1, 3, ast.Id()), ast.Var("q")),
        (3,))


def test_spatial_atom_text():
    f = parse_formula("ent[1,2](H_1 ; Z_1)")
    assert f == ast.Ent(1, 2, ast.SeqP(ast.GateP("H", (1,)),
                                       ast.GateP("Z", (1,))))
    g = parse_formula("ghz[2,3,4] & gamma[1,2]")
    assert g == ast.And(ast.GHZ(2, 3, 4), ast.Gamma(1, 2))
    # the body of cmp{I} is written in the component's own coordinates
    h = parse_formula("cmp{2}(+_1)")
    assert h == ast.Component(ast.Const("+", 1), (2,))


def test_ray_formula_prints_but_does_not_parse():
    # RayF is the one node with no concrete syntax (see the ast docstring)
    for node in (ast.RayF((1,), (1, 0)), ast.And(ast.Var("p"), ast.RayF((2,), (0, 1)))):
        text = pretty(node)
        assert "ray{" in text
        with pytest.raises(ParseError):
            parse_formula(text)
    assert pretty(ast.RayF((1,), (1, 0))) == "ray{1}(1, 0)"


# Exact messages, among them one or more malformed inputs per keyword form:
# a wrong index count, a missing delimiter, bell bits out of range, a
# keyword used as a variable and a keyword in the other position.
FORMULA_ERRORS = [
    ("p &", "expected a formula (found eof) at line 1 column 4"),
    ("(p", "expected ')' (found eof) at line 1 column 3"),
    ("[X_1 p", "expected ']' (found word) at line 1 column 6"),
    ("p -> -> q", "expected a formula (found ->) at line 1 column 6"),
    ("0_", "qubit index expected after '_' at line 1 column 3"),
    ("1_ & p", "qubit index expected after '_' at line 1 column 3"),
    ("+_", "qubit index expected after '_' at line 1 column 3"),
    ("0_01", "number with a leading zero at line 1 column 3"),
    ("+_01", "number with a leading zero at line 1 column 3"),
    ("p & -_007", "number with a leading zero at line 1 column 7"),
    ("T{}", "expected 'number' (found }) at line 1 column 3"),
    ("T{1", "expected '}' (found eof) at line 1 column 4"),
    ("T{1,}", "expected 'number' (found }) at line 1 column 5"),
    ("T[1]", "expected '{' (found [) at line 1 column 2"),
    ("true(p)", "unparsed input after formula (found () at line 1 column 5"),
    ("one[1]", "unparsed input after formula (found [) at line 1 column 4"),
    ("bell[0,0,1]", "expected 4 indices (found ]) at line 1 column 11"),
    ("bell[0,0,1,2,3] & p", "expected 4 indices (found number) at line 1 column 14"),
    ("bell[0,2,1,2]", "bell bits must be 0 or 1 (found number) at line 1 column 8"),
    ("bell[2,0,1,2]", "bell bits must be 0 or 1 (found number) at line 1 column 6"),
    ("bell[0,2,1,2] & 0_1", "bell bits must be 0 or 1 (found number) at line 1 column 8"),
    ("[bell[0,2,1,2]]p", "bell bits must be 0 or 1 (found number) at line 1 column 9"),
    ("bell(0,0,1,2)", "expected '[' (found () at line 1 column 5"),
    ("bell[0,0,1,2", "expected ']' (found eof) at line 1 column 13"),
    ("ghz[1,2]", "expected 3 indices (found ]) at line 1 column 8"),
    ("ghz[1,2] | 0_1", "expected 3 indices (found ]) at line 1 column 8"),
    ("ghz{1,2,3}", "expected '[' (found {) at line 1 column 4"),
    ("gamma[1]", "expected 2 indices (found ]) at line 1 column 8"),
    ("gamma[1,2](p)", "unparsed input after formula (found () at line 1 column 11"),
    ("ent[1](X_1)", "expected 2 indices (found ]) at line 1 column 6"),
    ("ent[1,2]X_1", "expected '(' (found gate) at line 1 column 9"),
    ("ent[1,2](X_1", "expected ')' (found eof) at line 1 column 13"),
    ("ent[1,2](true)", "expected one of &, ->, ?, | (found )) at line 1 column 14"),
    ("cmp{1}p", "expected '(' (found word) at line 1 column 7"),
    ("cmp{1}(p, q)", "expected ')' (found ,) at line 1 column 9"),
    ("cmp[1](p)", "expected '{' (found [) at line 1 column 4"),
    ("cmp{1}(X_1)", "expected a formula (found gate) at line 1 column 8"),
    ("local(p)", "expected '{' (found () at line 1 column 6"),
    ("local{1}(p", "expected ')' (found eof) at line 1 column 11"),
    ("localp{1}X_1", "expected '(' (found gate) at line 1 column 10"),
    ("localp{1}(true)", "expected one of &, ->, ?, | (found )) at line 1 column 15"),
    ("eqi{1}(p q)", "expected ',' (found word) at line 1 column 10"),
    ("eqi{1}(p)", "expected ',' (found )) at line 1 column 9"),
    ("eqi(p, q)", "expected '{' (found () at line 1 column 4"),
    ("eqi{1}p, q)", "expected '(' (found word) at line 1 column 7"),
    ("testable p", "expected '(' (found word) at line 1 column 10"),
    ("testable(p, q)", "expected ')' (found ,) at line 1 column 11"),
    ("leq(p q)", "expected ',' (found word) at line 1 column 7"),
    ("leq p, q", "expected '(' (found word) at line 1 column 5"),
    ("eqf(p,)", "expected a formula (found )) at line 1 column 7"),
    ("perpf(p, q", "expected ')' (found eof) at line 1 column 11"),
    ("sqcup(,q)", "expected a formula (found ,) at line 1 column 7"),
    ("dom X_1", "expected '(' (found gate) at line 1 column 5"),
    ("dom(X_1, p)", "expected ')' (found ,) at line 1 column 8"),
    ("dom(true)", "expected one of &, ->, ?, | (found )) at line 1 column 9"),
    ("post(X_1)", "expected ',' (found )) at line 1 column 9"),
    ("post(X_1 p)", "expected ',' (found word) at line 1 column 10"),
    ("img X_1, p", "expected '(' (found gate) at line 1 column 5"),
    ("img(X_1, X_1)", "expected a formula (found gate) at line 1 column 10"),
    ("vec{1}(01)", "number with a leading zero at line 1 column 8"),
    ("T{01}", "number with a leading zero at line 1 column 3"),
    ("bell[0,0,01,2]", "number with a leading zero at line 1 column 10"),
    ("vec{1,2}(0)", "one state symbol per qubit expected (found eof) at line 1 column 12"),
    ("vec{1}(2)", "expected one of 0 1 + - (found number) at line 1 column 8"),
    ("vec(0)", "expected '{' (found () at line 1 column 4"),
    ("vec{1}0", "expected '(' (found number) at line 1 column 7"),
    ("p & leq", "expected '(' (found eof) at line 1 column 8"),
    ("[X_1]cmp", "expected '{' (found eof) at line 1 column 9"),
    ("testable -> p", "expected '(' (found ->) at line 1 column 10"),
    ("box", "expected a formula (found eof) at line 1 column 4"),
    ("dia & p", "expected a formula (found &) at line 1 column 5"),
    ("vec", "expected '{' (found eof) at line 1 column 4"),
    ("flip", "'flip' cannot appear here (found word) at line 1 column 1"),
    ("X", "'X' cannot appear here (found word) at line 1 column 1"),
    ("H & p", "'H' cannot appear here (found word) at line 1 column 1"),
    ("CNOT", "'CNOT' cannot appear here (found word) at line 1 column 1"),
    ("T", "expected '{' (found eof) at line 1 column 2"),
    ("id", "'id' cannot appear here (found word) at line 1 column 1"),
    ("set0{1}", "'set0' cannot appear here (found word) at line 1 column 1"),
    ("proj0{1}", "'proj0' cannot appear here (found word) at line 1 column 1"),
    ("unary1(X_1)", "'unary1' cannot appear here (found word) at line 1 column 1"),
    ("mov[1,2](X_1)", "'mov' cannot appear here (found word) at line 1 column 1"),
    ("mov[1](X_1)", "'mov' cannot appear here (found word) at line 1 column 1"),
    ("adj(X_1)", "'adj' cannot appear here (found word) at line 1 column 1"),
    ("T{1}?", "unparsed input after formula (found ?) at line 1 column 5"),
    ("[true]p", "expected one of &, ->, ?, | (found ]) at line 1 column 6"),
    ("<false>p", "expected one of &, ->, ?, | (found >) at line 1 column 7"),
    ("[bell[0,0,1,2]]p", "expected one of &, ->, ?, | (found ]) at line 1 column 15"),
    ("<leq(p, q)>p", "expected one of &, ->, ?, | (found >) at line 1 column 11"),
]
PROGRAM_ERRORS = [
    ("X_1 ;", "expected a program (found eof) at line 1 column 6"),
    ("(X_1", "expected ')' (found eof) at line 1 column 5"),
    ("X_1 + + Z_1", "expected a program (found +) at line 1 column 7"),
    ("?p", "expected a program (found ?) at line 1 column 1"),
    ("T", "expected '{' (found eof) at line 1 column 2"),
    ("T{}", "expected 'number' (found }) at line 1 column 3"),
    ("T{1}? ?", "unparsed input after program (found ?) at line 1 column 7"),
    ("id(X_1)", "unparsed input after program (found () at line 1 column 3"),
    ("set0", "expected '{' (found eof) at line 1 column 5"),
    ("set0{}", "expected 'number' (found }) at line 1 column 6"),
    ("set0[1]", "expected '{' (found [) at line 1 column 5"),
    ("proj0{1,}", "expected 'number' (found }) at line 1 column 9"),
    ("unary1 X_1", "expected '(' (found gate) at line 1 column 8"),
    ("unary1(X_1", "expected ')' (found eof) at line 1 column 11"),
    ("mov[1](X_1)", "expected 2 indices (found ]) at line 1 column 6"),
    ("mov[1,2,3](X_1)", "expected 2 indices (found number) at line 1 column 9"),
    ("X_1 ; ghz[1,2]?", "expected 3 indices (found ]) at line 1 column 14"),
    ("mov[1,2]X_1", "expected '(' (found gate) at line 1 column 9"),
    ("adj X_1", "expected '(' (found gate) at line 1 column 5"),
    ("adj()", "expected a program (found )) at line 1 column 5"),
    ("flip", "expected a program (found word) at line 1 column 1"),
    ("flip_1_2(X_1)", "unparsed input after program (found () at line 1 column 9"),
    ("Z", "expected a program (found word) at line 1 column 1"),
    ("CNOT", "expected a program (found word) at line 1 column 1"),
    ("true", "expected one of &, ->, ?, | (found eof) at line 1 column 5"),
    ("bell[0,0,1,2]", "expected one of &, ->, ?, | (found eof) at line 1 column 14"),
    ("leq(p, q)", "expected one of &, ->, ?, | (found eof) at line 1 column 10"),
    ("cmp{1}(p)", "expected one of &, ->, ?, | (found eof) at line 1 column 10"),
    ("vec{1}(0)", "expected one of &, ->, ?, | (found eof) at line 1 column 10"),
    ("dom(X_1)", "expected one of &, ->, ?, | (found eof) at line 1 column 9"),
    ("ghz[1,2,3]", "expected one of &, ->, ?, | (found eof) at line 1 column 11"),
    ("box", "expected one of !, (, <, [, formula, ~ (found eof) at line 1 column 4"),
    ("<bell>p", "expected one of [ (found >) at line 1 column 6"),
    ("(1_01)?", "number with a leading zero at line 1 column 4"),
    ("X_1 ; 0_?", "qubit index expected after '_' at line 1 column 9"),
]


def test_parse_errors():
    for text, message in FORMULA_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message, text
    for text, message in PROGRAM_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert str(exc.value) == message, text
    # a malformed gate or flip word, a wrong qubit count or an index with
    # a leading zero, is still a legal identifier; it is caught as an
    # unbound variable at evaluation time, not by the parser
    for word in ("CNOT_1", "X_1_2", "X_1x", "X_01", "CNOT_01_2", "CNOT_1_02",
                 "flip_01_2", "flip_1"):
        assert parse_formula(word) == ast.Var(word)
        assert parse_program(word) == ast.PVar(word)
    assert parse_formula("[X_01]p") == ast.Box(ast.PVar("X_01"), ast.Var("p"))


def subtrees(node):
    yield node
    for part in ast.parts(node):
        yield from subtrees(part)


def test_generators_cover_every_node_and_keyword_form():
    # A node class added without syntax, or a keyword form lost, fails here.
    rng = random.Random(403)
    seen = {}
    for _ in range(300):
        for node in (rand_formula(rng, 4), rand_program(rng, 4)):
            for sub in subtrees(node):
                seen.setdefault(type(sub), sub)
    nodes = {cls for cls in vars(ast).values()
             if isinstance(cls, type) and issubclass(cls, ast.Node)
             and cls not in (ast.Node, ast.Formula, ast.Program)}
    assert len(nodes) == 47
    # RayF has no concrete syntax; PVar is covered by
    # test_program_variable_round_trip
    assert set(seen) == nodes - {ast.RayF, ast.PVar}
    for cls in ast.SYNTAX:
        parse = parse_formula if issubclass(cls, ast.Formula) else parse_program
        assert parse(pretty(seen[cls])) == seen[cls]
    assert RESERVED == {
        "true", "false", "one", "plus", "id", "box", "dia", "T",
        "bell", "ghz", "gamma", "ent", "cmp", "local", "localp",
        "testable", "leq", "eqf", "eqi", "perpf", "sqcup",
        "img", "post", "dom", "vec", "set0", "proj0", "unary1", "mov",
        "adj", "X", "Z", "H", "CNOT", "flip",
    }


def _reference_classes():
    """Each node class rebuilt as the frozen dataclass it replaces."""
    return {cls: dataclasses.make_dataclass(cls.__name__, list(cls.FIELDS.items()),
                                            frozen=True)
            for cls in ast.PARTS}


def _as_reference(node, refs):
    values = [getattr(node, name) for name in node.FIELDS]
    values = [_as_reference(v, refs) if isinstance(v, ast.Node) else v
              for v in values]
    return refs[type(node)](*values)


def test_nodes_match_the_frozen_dataclasses_they_replace():
    refs = _reference_classes()
    rng = random.Random(405)
    trees = [rand_formula(rng, 3) for _ in range(40)] + [
        rand_program(rng, 3) for _ in range(40)]
    nodes = [ast.PVar("w"), ast.RayF((1, 2), (1, 0, 0, -1)),
             ast.Box(ast.PVar("w"), ast.Var("p"))]
    roots = []
    for t in trees:
        roots.append(len(nodes))
        nodes.extend(subtrees(t))
    # each tree against an equal copy that is not the same object
    copies = [(root, len(nodes) + k) for k, root in enumerate(roots)]
    nodes += [parse_formula(pretty(t)) if isinstance(t, ast.Formula)
              else parse_program(pretty(t)) for t in trees]
    assert {type(node) for node in nodes} == set(refs)
    mirror = [_as_reference(node, refs) for node in nodes]
    for node, ref in zip(nodes, mirror):
        assert repr(node) == repr(ref)
        assert hash(node) == hash(ref)
        for name in node.FIELDS:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
    picks = random.Random(406).choices(range(len(nodes)), k=4000)
    for i, j in list(zip(picks[::2], picks[1::2])) + copies:
        a, b, ra, rb = nodes[i], nodes[j], mirror[i], mirror[j]
        assert (a == b, a != b) == (ra == rb, ra != rb)
        assert (a.__eq__(b) is NotImplemented) == (ra.__eq__(rb) is NotImplemented)
    # the same hashes keep every dict and set keyed on nodes in one order
    assert list(map(repr, dict.fromkeys(nodes))) == list(map(repr, dict.fromkeys(mirror)))
    assert list(map(repr, set(nodes))) == list(map(repr, set(mirror)))
    for t in trees:
        parse = parse_formula if isinstance(t, ast.Formula) else parse_program
        assert parse(pretty(t)) == t


# The nodes with a form of their own, read by f_atom or p_factor, and
# RayF, which is printed but not parsed.
BESPOKE = [ast.Var, ast.PVar, ast.Const, ast.VecC, ast.RayF, ast.Test,
           ast.GateP, ast.Flip]


def test_every_node_has_exactly_one_printed_form():
    # A node class added without syntax fails here, not when printed.
    operators = [op.cls for kind, ops in ast.OPERATORS.items()
                 for op in ops.infix + ops.prefix if issubclass(op.cls, kind)]
    forms = list(ast.SYNTAX) + operators + BESPOKE
    nodes = ast.Formula.__subclasses__() + ast.Program.__subclasses__()
    # as lists: a class with two forms is counted twice
    assert sorted(forms, key=repr) == sorted(nodes, key=repr)


_FIELDS = operator.attrgetter("kind", "value", "line", "col")


def lexed(lex, text):
    """The tokens as tuples, or the ParseError as (message, line, column)."""
    try:
        return list(map(_FIELDS, lex(text)))
    except ParseError as exc:
        return (str(exc), exc.line, exc.col)


def test_every_operator_and_gate_word_lexes_as_one_token():
    def one_token(text, kind, value):
        return lexed(tokenize, text) == [(kind, value, 1, 1),
                                         ("eof", None, 1, len(text) + 1)]
    for ops in ast.OPERATORS.values():
        for op in ops.infix + ops.prefix:
            for text in filter(None, (op.text.strip(), getattr(op, "closing", ""))):
                assert one_token(text, "word" if text.isalpha() else text, text)
    for name, g in GATES.items():
        qubits = tuple(range(1, g.rows.bit_length()))
        assert one_token(pretty(ast.GateP(name, qubits)), "gate", (name, qubits))
        assert one_token(name, "word", name) and name in RESERVED
    assert one_token(pretty(ast.Flip(2, 3)), "flip", (2, 3))


# Inputs on which the lexer's one rule for indices changes the reference's
# outcome contain a '_' followed by a leading zero or by no digit.
INDEX_RULE = re.compile("_(?:0[0-9]|(?![0-9]))")
_WORD = re.compile("[A-Za-z][A-Za-z0-9_]*")


def index_rule_applied(text, outcome):
    """The reference lexer's outcome on ``text`` with every index read by
    one rule, decimal without a leading zero: a constant whose index has
    one is an error at the index, a gate or flip word with one is an
    identifier, and '0_' or '1_' without an index is reported after the
    '_', as '+_' is."""
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    at = lambda line, col: starts[line - 1] + col - 1
    tokens, error = outcome, None
    if isinstance(outcome, tuple):
        message, line, col = error = outcome
        cut = at(line, col)
        if message.startswith("qubit index expected"):
            if text[cut:cut + 1] in ("0", "1"):
                error = (f"qubit index expected after '_' at line {line} column {col + 2}",
                         line, col + 2)
            else:
                cut -= 2  # '+_' and '-_' are reported after the '_'
        tokens = lexed(lexer_reference.tokenize, text[:cut])[:-1]
    out = []
    for kind, value, line, col in tokens:
        if kind in ("gate", "flip"):
            word = _WORD.match(text, at(line, col)).group()
            if re.search("_0[0-9]", word):
                kind, value = "word", word
        if kind == "const" and re.match("0[0-9]", text[at(line, col) + 2:]):
            return (f"number with a leading zero at line {line} column {col + 2}",
                    line, col + 2)
        out.append((kind, value, line, col))
    return error or out


LEXER_CASES = [
    "", "\n", " \t\r\n ", "X_01", "CNOT_01_2", "CNOT_1_02", "flip_01_2",
    "0_01", "+_01", "-_00", "vec{1}(01)", "T{01}", "bell[0,0,01,2]", "0_", "1_",
    "+_", "-_x", "CNOT_1", "X_1_2", "X_1x", "X_0", "0_1x", "10_1", "a_$",
    "->-", "-_1->+_2", "p\n  & é", "[X_1]0_1 -> flip_1_2",
    # words that read as gates or flips only when the whole word fits
    "Xy_1", "CNOTX_1_2", "flipper_1_2", "CNOT_1_2_3", "H_1_", "flip_1",
    "flip_1_2_3", "Z_10", "CNOT_10_0", "X_1X_2", "H__1", "xflip_1_2",
]
# Single characters and fragments that make gate words, constants and
# indices, with and without leading zeros, when spliced into a text.
_LEXER_PIECES = list("0123456789_ \n\t+-()[]{}<>?;&|!~,pXZHx$") + [
    "X_", "CNOT_", "flip_", "0_", "1_", "+_", "-_", "_0", "->", "box ", "T{"]


def lexer_corpus(rng):
    """Printed random trees, a truncation and three single-character edits
    of each, random strings of pieces, and the hand cases."""
    corpus = list(LEXER_CASES)
    chars = [p for p in _LEXER_PIECES if len(p) == 1]
    for _ in range(3000):
        depth = rng.randint(0, 3)
        node = rand_formula(rng, depth) if rng.random() < 0.6 else rand_program(rng, depth)
        text = pretty(node)
        corpus += [text, text[:rng.randrange(len(text) + 1)]]
        for _ in range(3):
            i = rng.randrange(len(text) + 1)
            corpus.append(rng.choice([text[:i] + rng.choice(chars) + text[i:],
                                      text[:i] + rng.choice(chars) + text[i + 1:],
                                      text[:i] + text[i + 1:]]))
    for _ in range(5000):
        corpus.append("".join(rng.choices(_LEXER_PIECES, k=rng.randint(1, 12))))
    return corpus


def test_lexer_matches_reference_outside_the_index_rule():
    corpus = lexer_corpus(random.Random(417))
    assert len(corpus) >= 20_000
    changed, differ = 0, []
    for text in corpus:
        want = lexed(lexer_reference.tokenize, text)
        if INDEX_RULE.search(text):
            fixed = index_rule_applied(text, want)
            changed += fixed != want
            want = fixed
        if lexed(tokenize, text) != want:
            differ.append(text)
    assert differ == []
    # the hand cases are in that class, and the edits add to it
    assert changed >= 500


# Each shape nests one construct k levels deep, with the outcome
# check_valid gives at n = 2 at the deepest k the parser accepts.
DEEP_SHAPES = [
    (lambda k: "!" * k + "0_1", "refuted"),
    (lambda k: "[X_1]" * k + "0_1", "refuted"),
    (lambda k: "<X_1>" * k + "0_1", "refuted"),
    (lambda k: "0_1 -> " * k + "0_1", "valid"),
    (lambda k: "[" + ";".join(["X_1"] * k) + "]0_1", "refuted"),
    (lambda k: "leq(" * k + "0_1" + ", 0_1)" * k, "refuted"),
    (lambda k: "perpf(0_1, " * k + "0_1" + ")" * k, "valid"),
    (lambda k: "sqcup(0_1, " * k + "0_1" + ")" * k, "refuted"),
    (lambda k: "post(X_1, " * k + "0_1" + ")" * k, "refuted"),
    (lambda k: "img(X_1, " * k + "0_1" + ")" * k, "refuted"),
    (lambda k: "[" + "adj(" * k + "X_1" + ")" * k + "]0_1", "refuted"),
    # a one-qubit program holds no unary1 or mov: refused at the second level
    (lambda k: "[" + "unary1(" * k + "X_1" + ")" * k + "]0_1", "unsupported"),
    (lambda k: "[" + "mov[1,2](" * k + "X_1" + ")" * k + "]0_1", "unsupported"),
]


def test_nesting_depth_limit():
    # Below the limit every shape parses.
    k = MAX_DEPTH - 10
    assert parse_formula("!" * k + "0_1") is not None
    assert parse_formula(" & ".join(["0_1"] * k)) is not None
    assert parse_formula("[" + ";".join(["X_1"] * k) + "]0_1") is not None
    assert parse_program("(" * (k // 2) + "X_1" + ")" * (k // 2)) is not None
    # Past it, prefix chains, flat chains and brackets all fail cleanly.
    k = MAX_DEPTH + 10
    for text in ["~" * k + "0_1", "0_1 -> " * k + "0_1",
                 " | ".join(["0_1"] * k), "[X_1]" * k + "0_1",
                 "[" + "+".join(["X_1"] * k) + "]0_1",
                 "(" * k + "0_1" + ")" * k]:
        with pytest.raises(ParseError, match="nesting deeper"):
            parse_formula(text)
    # At the deepest nesting the parser accepts, the tree stays shallow
    # enough for the evaluators' recursion: each shape gets its answer.
    env = Environment(Frame(2))
    for shape, outcome in DEEP_SHAPES:
        accepted, refused = 1, MAX_DEPTH + 1
        while refused - accepted > 1:
            k = (accepted + refused) // 2
            try:
                parse_formula(shape(k))
                accepted = k
            except ParseError as exc:
                assert "nesting deeper" in str(exc)
                refused = k
        try:
            valid = check_valid(env, parse_formula(shape(accepted))) is None
            got = "valid" if valid else "refuted"
        except UnsupportedNesting:
            got = "unsupported"
        assert got == outcome, shape(1)


def parsed(parse, text):
    """The tree ``parse`` gives for ``text`` with the number of distinct
    node objects in it, or the class, message, line, column and expected
    tokens of the ParseError it raises."""
    try:
        tree = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line, exc.col, exc.expected
    return tree, len({id(node) for node in subtrees(tree)})


# Token texts spliced into printed trees, and chains and nests of each
# construct whose depth the parser counts.
_PARSER_PIECES = ["->", "|", "&", "!", "~", "box ", "dia ", "[", "]", "<", ">",
                  "(", ")", "?", ";", "+", ",", "{", "}", "X_1", "0_1", "p",
                  "w", "leq(", "T{1}", "vec{1}(", "id", "1", " "]
_NESTS = [
    lambda k: "!" * k + "0_1", lambda k: "~" * k + "p", lambda k: "box " * k + "p",
    lambda k: "(" * k + "0_1" + ")" * k, lambda k: "0_1 -> " * k + "0_1",
    lambda k: " | ".join(["p"] * k), lambda k: " & ".join(["p"] * k),
    lambda k: "p & q | " * (k // 2) + "r", lambda k: "p | q -> " * (k // 2) + "r",
    lambda k: "p -> q & " * (k // 2) + "r", lambda k: "[X_1]" * k + "0_1",
    lambda k: "[" + ";".join(["X_1"] * k) + "]0_1",
    lambda k: "[" + " + ".join(["X_1"] * k) + "]0_1",
    lambda k: "[" + "X_1 ; Z_1 + " * (k // 2) + "H_1]p",
    lambda k: "<(" * (k // 2) + "0_1?" + ")>0_1" * (k // 2),
    lambda k: "[" + "(" * (k // 2) + "p?" + ")" * (k // 2) + "]q",
    lambda k: "leq(" * (k // 2) + "p" + ", q)" * (k // 2),
    lambda k: "[adj(" * (k // 3) + "X_1" + ")]" * (k // 3) + "p",
]


def parser_corpus(rng):
    """Printed random trees and the nests at MAX_DEPTH - 10 and
    MAX_DEPTH + 10, each with a truncation and three edits (a token text
    inserted, one replaced, one character dropped); the nests at the
    limit and one past it; and the error texts."""
    corpus = [text for text, _ in FORMULA_ERRORS + PROGRAM_ERRORS]
    corpus += [nest(k) for nest in _NESTS for k in (MAX_DEPTH, MAX_DEPTH + 1)]
    edits = [nest(k) for nest in _NESTS for k in (MAX_DEPTH - 10, MAX_DEPTH + 10)]
    for _ in range(1000):
        depth = rng.randint(0, 4)
        node = rand_formula(rng, depth) if rng.random() < 0.6 else rand_program(rng, depth)
        edits.append(pretty(node))
    for text in edits:
        corpus += [text, text[:rng.randrange(len(text) + 1)]]
        for _ in range(3):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice(_PARSER_PIECES)
            corpus.append(rng.choice([text[:i] + piece + text[i:],
                                      text[:i] + piece + text[i + 1:],
                                      text[:i] + text[i + 1:]]))
    return corpus


def test_parser_matches_reference():
    # the precedence loop and the prefix dispatch give the tree, with its
    # sharing, or the message, position and expected tokens of the
    # reference's recursion per level and accept per operator
    corpus = parser_corpus(random.Random(421))
    outcomes = Counter()
    for text in corpus:
        for parse, reference in ((parse_formula, parser_reference.parse_formula),
                                 (parse_program, parser_reference.parse_program)):
            got = parsed(parse, text)
            assert got == parsed(reference, text), text
            outcomes["refused" if isinstance(got[0], type) else "parsed"] += 1
            outcomes["too deep"] += "nesting deeper" in str(got[1])
    assert min(outcomes.values()) >= 100, outcomes


CORE = {ast.Var, ast.TrueF, ast.FalseF, ast.Const, ast.RayF, ast.Top, ast.Not,
        ast.Ortho, ast.And, ast.Box, ast.Leq, ast.Ent, ast.EqI, ast.Component,
        ast.LocalF, ast.LocalP, ast.Img, ast.Test, ast.GateP, ast.Id, ast.SeqP,
        ast.UnionP, ast.TopP}


def test_desugared_trees_are_core_only():
    # A class missing from the desugaring rules would pass through to the
    # evaluators, which reject it as "not a core node" (an internal error).
    # The evaluators dispatch on ``type(f) is``, which matches isinstance
    # because each core class derives from Formula or Program directly
    # and has no subclass.
    assert all(cls.__bases__ in ((ast.Formula,), (ast.Program,))
               and not cls.__subclasses__() for cls in CORE)
    rng = random.Random(1313)
    desugared = 0
    for k in range(2000):
        n = 1 + k % 4
        if k % 2:
            tree, desugar = rand_formula(rng, rng.randint(1, 4)), desugar_formula
        else:
            tree, desugar = rand_program(rng, rng.randint(1, 4)), desugar_program
        try:
            core = desugar(tree, n)
        except CheckError:
            continue
        desugared += 1
        assert {type(sub) for sub in subtrees(core)} <= CORE, pretty(tree)
    assert desugared > 1000


def test_nested_test_readings_fail_fast():
    # Each '(' in program position may open a test 'f?'; a reading that
    # failed is not retried, so the work stops doubling with every level.
    text = "<(" * 40 + "0_1?" + ")>0_1" * 40
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == \
        "expected one of &, ->, ?, | (found >) at line 1 column 91"
    assert time.perf_counter() - start < 1.0
    # Past the depth limit the limit itself is the error, not whatever the
    # '( program )' reading reports once the test readings are cut short.
    text = "<(" * 60 + "0_1?" + ")>0_1" * 60
    with pytest.raises(ParseError,
                       match=f"nesting deeper than {MAX_DEPTH} levels"):
        parse_formula(text)


def test_a_parse_leaves_no_frame_in_a_reference_cycle():
    # A failed test reading is remembered without its traceback: with it,
    # its frames would hold the parser and the table of failed readings.
    text = "[(X_1 ; H_1) ; 0_1?]p -> [X_1 + Z_2]q"
    expected = parse_formula(text)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert parse_formula(text) == expected
        gc.collect()
        frames = [o for o in gc.garbage if isinstance(o, types.FrameType)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert frames == []
    # the remembered errors still give the same messages
    for text, message in FORMULA_ERRORS:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == message, text
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH} levels"):
        parse_formula("<(" * 60 + "0_1?" + ")>0_1" * 60)


def test_instantiate_moves_every_qubit_field_and_fills_variables():
    # a template written at qubits 1, 2, 3 and moved by a permutation is
    # the parse of the text written at the permuted qubits: index sets
    # sorted, gate targets and vec qubits in order, the one-qubit program
    # of ent, mov and unary1 left at qubit 1, bell bits untouched
    move = {1: 3, 2: 1, 3: 2}
    texts = [
        "eqi{1,3}(img(CNOT_1_2 ; H_3 ; flip_2_3, 0_1 & vec{2,1}(+,1)),"
        " img(mov[1,2](X_1 ; 0_1?) ; ent[2,3](Z_1)?, p)) & T{1,2} & cmp{3}(p)",
        "local{1,2}(bell[1,0,1,3] & ghz[3,2,1] & gamma[2,1]) -> localp{2,3}(T{1}"
        " + set0{2,3} ; proj0{1} ; unary1(H_1 ; w))",
    ]
    moved = [
        "eqi{2,3}(img(CNOT_3_1 ; H_2 ; flip_1_2, 0_3 & vec{1,3}(+,1)),"
        " img(mov[3,1](X_1 ; 0_1?) ; ent[1,2](Z_1)?, p)) & T{1,3} & cmp{2}(p)",
        "local{1,3}(bell[1,0,3,2] & ghz[2,1,3] & gamma[1,3]) -> localp{1,2}(T{3}"
        " + set0{1,2} ; proj0{3} ; unary1(H_1 ; w))",
    ]
    for text, want in zip(texts, moved):
        got = ast.instantiate(parse_formula(text), move, {})
        assert got == parse_formula(want)
    word = parse_program("X_1 ; Z_1")
    filled = ast.instantiate(parse_formula(texts[1]), move, {"w": word})
    assert filled == parse_formula(moved[1].replace("; w)", "; (X_1 ; Z_1))"))
    # a node that neither moves nor holds a filled variable is kept
    template = parse_formula("p & [X_1]true")
    assert ast.instantiate(template, {}, {"q": ast.TrueF()}) is template
    one = ast.RayF((2,), (1, 2))
    assert ast.instantiate(one, move, {}) == ast.RayF((1,), (1, 2))
    with pytest.raises(ValueError):
        ast.instantiate(ast.RayF((1, 2), (1, 0, 0, 1)), move, {})
    with pytest.raises(TypeError):
        ast.instantiate(template, {}, {"p": word})
