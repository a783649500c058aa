"""Rewrites surface constructs into the core the evaluator handles.

Core formulas: Var, TrueF, FalseF, Const, RayF, Top, Not, Ortho, And,
Box, Ent, EqI, Component, LocalF, LocalP, Img.  Core programs: Test,
GateP, Id, SeqP, UnionP, TopP.  Everything else is a definitional
rewrite (``ghz`` and ``gamma`` become RayF).  Adjoints distribute down to
the atoms, which are all self-adjoint (gates, tests, swaps built from
gates), so no Adj survives.  An unsubstituted PVar is an UnboundVariable.

Rewrites are frame-relative only where they must be: ``one`` and
``plus`` name the fully separated all-|1> and all-|+> states, so they
expand to one conjunct per qubit.
"""

from __future__ import annotations

from . import ast
from .errors import UnboundVariable, UnsupportedNesting, UnsupportedShape
from .linalg import ONE, ZERO


def _and_all(parts) -> ast.Formula:
    out = parts[0]
    for p in parts[1:]:
        out = ast.And(out, p)
    return out


def _seq(*progs: ast.Program) -> ast.Program:
    out = progs[0]
    for p in progs[1:]:
        out = ast.SeqP(out, p)
    return out


def _flip(i: int, j: int) -> ast.Program:
    if i == j:
        return ast.Id()
    return _seq(ast.GateP("CNOT", (i, j)), ast.GateP("CNOT", (j, i)),
                ast.GateP("CNOT", (i, j)))


def _bell_program(x: int, y: int) -> ast.Program:
    steps = []
    if x:
        steps.append(ast.GateP("Z", (1,)))
    if y:
        steps.append(ast.GateP("X", (1,)))
    if not steps:
        return ast.Id()
    return _seq(*steps)


def _set0_one(i: int) -> ast.Program:
    stay = ast.Test(ast.Const("0", i))
    fix = ast.SeqP(ast.Test(ast.Const("1", i)), ast.GateP("X", (i,)))
    return ast.UnionP(stay, fix)


def adjoint(prog: ast.Program) -> ast.Program:
    """Adjoint of an already-desugared program."""
    if isinstance(prog, (ast.GateP, ast.Id, ast.Test, ast.TopP)):
        return prog
    if isinstance(prog, ast.SeqP):
        return ast.SeqP(adjoint(prog.right), adjoint(prog.left))
    if isinstance(prog, ast.UnionP):
        return ast.UnionP(adjoint(prog.left), adjoint(prog.right))
    raise UnsupportedShape(f"cannot take adjoint of {type(prog).__name__}")


def _check_first_qubit_only(node, context: str):
    """Programs fed to ent/unary1/mov act on one qubit, wired by
    convention to index 1; anything frame-relative is rejected."""
    if isinstance(node, ast.GateP):
        if node.kind == "CNOT" or node.targets != (1,):
            raise UnsupportedNesting(f"{context} takes a one-qubit program")
        return
    if isinstance(node, (ast.Id, ast.TrueF, ast.FalseF, ast.One, ast.Plus)):
        return
    if isinstance(node, ast.Const):
        if node.qubit != 1:
            raise UnsupportedNesting(f"{context} takes a one-qubit program")
        return
    if isinstance(node, ast.RayF):
        if node.qubits != (1,):
            raise UnsupportedNesting(f"{context} takes a one-qubit program")
        return
    if isinstance(node, (ast.Not, ast.Ortho)):
        _check_first_qubit_only(node.body, context)
        return
    if isinstance(node, (ast.And, ast.Or, ast.Implies)):
        _check_first_qubit_only(node.left, context)
        _check_first_qubit_only(node.right, context)
        return
    if isinstance(node, ast.Test):
        _check_first_qubit_only(node.formula, context)
        return
    if isinstance(node, (ast.SeqP, ast.UnionP)):
        _check_first_qubit_only(node.left, context)
        _check_first_qubit_only(node.right, context)
        return
    if isinstance(node, ast.Adj):
        _check_first_qubit_only(node.prog, context)
        return
    if isinstance(node, ast.PVar):
        raise UnboundVariable(node.name)
    raise UnsupportedNesting(
        f"{context} takes a one-qubit program, not {type(node).__name__}")


def _one_qubit_program(prog: ast.Program, context: str) -> ast.Program:
    _check_first_qubit_only(prog, context)
    return desugar_program(prog, 1)


def desugar_formula(node: ast.Formula, n: int) -> ast.Formula:
    if isinstance(node, (ast.Var, ast.TrueF, ast.FalseF, ast.Const, ast.Top,
                         ast.RayF)):
        return node
    if isinstance(node, ast.One):
        return _and_all([ast.Const("1", i) for i in range(1, n + 1)])
    if isinstance(node, ast.Plus):
        return _and_all([ast.Const("+", i) for i in range(1, n + 1)])
    if isinstance(node, ast.VecC):
        return _and_all([ast.Const(c, q)
                         for q, c in zip(node.qubits, node.chars)])
    if isinstance(node, ast.Not):
        return ast.Not(desugar_formula(node.body, n))
    if isinstance(node, ast.Ortho):
        return ast.Ortho(desugar_formula(node.body, n))
    if isinstance(node, ast.And):
        return ast.And(desugar_formula(node.left, n),
                       desugar_formula(node.right, n))
    if isinstance(node, ast.Or):
        return ast.Not(ast.And(ast.Not(desugar_formula(node.left, n)),
                               ast.Not(desugar_formula(node.right, n))))
    if isinstance(node, ast.Implies):
        return ast.Not(ast.And(desugar_formula(node.left, n),
                               ast.Not(desugar_formula(node.right, n))))
    if isinstance(node, ast.BoxM):
        return ast.Box(ast.Test(ast.Not(desugar_formula(node.body, n))),
                       ast.FalseF())
    if isinstance(node, ast.DiaM):
        return ast.Not(ast.Box(ast.Test(desugar_formula(node.body, n)),
                               ast.FalseF()))
    if isinstance(node, ast.Box):
        return ast.Box(desugar_program(node.prog, n),
                       desugar_formula(node.body, n))
    if isinstance(node, ast.Dia):
        return ast.Not(ast.Box(desugar_program(node.prog, n),
                               ast.Not(desugar_formula(node.body, n))))
    if isinstance(node, ast.Sqcup):
        return ast.Ortho(ast.And(ast.Ortho(desugar_formula(node.left, n)),
                                 ast.Ortho(desugar_formula(node.right, n))))
    if isinstance(node, ast.Leq):
        return desugar_formula(
            ast.BoxM(ast.BoxM(ast.Implies(node.left, node.right))), n)
    if isinstance(node, ast.EqF):
        return desugar_formula(ast.And(ast.Leq(node.left, node.right),
                                       ast.Leq(node.right, node.left)), n)
    if isinstance(node, ast.PerpF):
        return desugar_formula(ast.Leq(node.left, ast.Ortho(node.right)), n)
    if isinstance(node, ast.Testable):
        return desugar_formula(ast.Leq(ast.Ortho(ast.Ortho(node.body)),
                                       node.body), n)
    if isinstance(node, ast.Dom):
        return ast.Not(ast.Box(desugar_program(node.prog, n), ast.FalseF()))
    if isinstance(node, ast.PostF):
        return ast.Ortho(ast.Box(adjoint(desugar_program(node.prog, n)),
                                 ast.Ortho(desugar_formula(node.body, n))))
    if isinstance(node, ast.Img):
        return ast.Img(desugar_program(node.prog, n),
                       desugar_formula(node.body, n))
    if isinstance(node, ast.EqI):
        return ast.EqI(desugar_formula(node.left, n),
                       desugar_formula(node.right, n), node.qubits)
    if isinstance(node, ast.Component):
        return ast.Component(desugar_formula(node.body, len(node.qubits)),
                             node.qubits)
    if isinstance(node, ast.LocalF):
        return ast.LocalF(desugar_formula(node.body, n), node.qubits)
    if isinstance(node, ast.LocalP):
        return ast.LocalP(desugar_program(node.prog, n), node.qubits)
    if isinstance(node, ast.Bell):
        return ast.Ent(node.i, node.j, _bell_program(node.x, node.y))
    if isinstance(node, ast.GHZ):
        return ast.RayF((node.i, node.j, node.k), (ONE,) + (ZERO,) * 6 + (ONE,))
    if isinstance(node, ast.Gamma):
        return ast.RayF((node.i, node.j), (ONE,) * 4)
    if isinstance(node, ast.Ent):
        return ast.Ent(node.i, node.j, _one_qubit_program(node.prog, "ent"))
    raise TypeError(f"not a formula node: {node!r}")


def desugar_program(node: ast.Program, n: int) -> ast.Program:
    if isinstance(node, (ast.GateP, ast.Id)):
        return node
    if isinstance(node, ast.TopP):
        if not node.qubits:
            return ast.Id()
        return node
    if isinstance(node, ast.Test):
        return ast.Test(desugar_formula(node.formula, n))
    if isinstance(node, ast.Flip):
        return _flip(node.i, node.j)
    if isinstance(node, ast.Set0):
        if not node.qubits:
            return ast.Id()
        return _seq(*[_set0_one(i) for i in node.qubits])
    if isinstance(node, ast.Proj0):
        if not node.qubits:
            return ast.Id()
        return ast.Test(_and_all([ast.Const("0", i) for i in node.qubits]))
    if isinstance(node, ast.Unary1):
        return _one_qubit_program(node.prog, "unary1")
    if isinstance(node, ast.Mov):
        return _seq(_flip(1, node.i),
                    _one_qubit_program(node.prog, "mov"),
                    _flip(1, node.j))
    if isinstance(node, ast.Adj):
        return adjoint(desugar_program(node.prog, n))
    if isinstance(node, ast.SeqP):
        return ast.SeqP(desugar_program(node.left, n),
                        desugar_program(node.right, n))
    if isinstance(node, ast.UnionP):
        return ast.UnionP(desugar_program(node.left, n),
                          desugar_program(node.right, n))
    if isinstance(node, ast.PVar):
        raise UnboundVariable(node.name)
    raise TypeError(f"not a program node: {node!r}")
