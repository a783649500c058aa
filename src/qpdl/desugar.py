"""Rewrites surface constructs into the core the evaluators handle.

Core formulas: Var, TrueF, FalseF, Const, RayF, Top, Not, Ortho, And,
Box, Ent, EqI, Component, LocalF, LocalP, Img.  Core programs: Test,
GateP, Id, SeqP, UnionP, TopP.  ``RULES`` maps every other class, and
the core classes whose parts need more than a rewrite in the same frame
(``ent``, ``cmp``, ``T{}``), to a rule that returns the finished core
tree; every remaining node is rewritten part by part through
``ast.parts`` and ``ast.rebuild``.  ``ghz`` and ``gamma`` become RayF.
Adjoints distribute down to the atoms, which are all self-adjoint
(gates, tests, swaps built from gates), so no Adj survives.  An
unsubstituted PVar is an UnboundVariable.  ``one`` and ``plus`` name the
all-|1> and all-|+> product states, so they expand to one conjunct per
qubit of the frame.

A rule that uses a part twice (``eqf``, ``testable``) uses its core
tree twice, so nesting them doubles the core tree per level.  Desugaring
stops with an InputError past ``MAX_NODES`` rewrites, and refuses a
finished core tree of more than ``MAX_NODES`` nodes, a part used twice
counting twice, since the evaluators walk it twice.  Every desugaring
goes through a ``DesugarMemo``, which rewrites each node but a leaf
once: a later use answers with the same core tree and charges the
budgets what its first rewrite cost, so an input is refused as if every
use were rewritten.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat

from . import ast
from .errors import InputError, UnboundVariable, UnsupportedNesting, UnsupportedShape
from .linalg import ONE, ZERO

# Rewrites for one formula or program, and nodes of its core tree.  The
# most that `qpdl verify all --seed 2026` takes is 699 rewrites and a core
# tree of 993 nodes, and the most that the test suite takes, with the
# suites also run at seeds 7 and 99, is 779 rewrites and 1,073 nodes;
# 10,000 keeps the evaluation of a core tree to about a second.
MAX_NODES = 10_000


def _seq(progs: list) -> ast.Program:
    return reduce(ast.SeqP, progs) if progs else ast.Id()


def _conj(parts: list) -> ast.Formula:
    return reduce(ast.And, parts)


def _flip(i: int, j: int) -> ast.Program:
    cnot = ast.GateP("CNOT", (i, j))
    return _seq([cnot, ast.GateP("CNOT", (j, i)), cnot] if i != j else [])


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


# A program given to ent, unary1 or mov acts on one qubit, wired by
# convention to index 1.  It holds these classes only, and a qubit field
# names qubit 1 alone.
_AT_QUBIT = {ast.GateP: "targets", ast.Const: "qubit", ast.RayF: "qubits"}
_ONE_QUBIT = _AT_QUBIT.keys() | {
    ast.Id, ast.TrueF, ast.FalseF, ast.One, ast.Plus, ast.Not, ast.Ortho,
    ast.And, ast.Or, ast.Implies, ast.Test, ast.SeqP, ast.UnionP, ast.Adj}


def _one_qubit(node, context: str):
    """``node``, once checked to be a one-qubit program."""
    if isinstance(node, ast.PVar):
        raise UnboundVariable(node.name)
    at = _AT_QUBIT.get(type(node))
    if type(node) not in _ONE_QUBIT or at and getattr(node, at) not in (1, (1,)):
        raise UnsupportedNesting(
            f"{context} takes a one-qubit program, not {ast.pretty(node)}")
    for part in ast.parts(node):
        _one_qubit(part, context)
    return node


# Shapes shared by several rules, over parts already desugared.
def _implies(a, b):
    return ast.Not(ast.And(a, ast.Not(b)))


def _boxm(a):
    return ast.Box(ast.Test(ast.Not(a)), ast.FalseF())


def _leq(a, b):
    return _boxm(_boxm(_implies(a, b)))


def _unbound(d, p, n):
    raise UnboundVariable(p.name)


# A rule takes the desugaring d, the node and the frame's qubit count n,
# and returns the core tree; ``d.core(part, n)`` desugars a part.
RULES = {
    ast.One: lambda d, f, n: _conj([ast.Const("1", i) for i in range(1, n + 1)]),
    ast.Plus: lambda d, f, n: _conj([ast.Const("+", i) for i in range(1, n + 1)]),
    ast.VecC: lambda d, f, n: _conj(list(map(ast.Const, f.chars, f.qubits))),
    ast.Or: lambda d, f, n: ast.Not(ast.And(ast.Not(d.core(f.left, n)),
                                            ast.Not(d.core(f.right, n)))),
    ast.Implies: lambda d, f, n: _implies(d.core(f.left, n), d.core(f.right, n)),
    ast.BoxM: lambda d, f, n: _boxm(d.core(f.body, n)),
    ast.DiaM: lambda d, f, n: ast.Not(ast.Box(ast.Test(d.core(f.body, n)), ast.FalseF())),
    ast.Dia: lambda d, f, n: ast.Not(ast.Box(d.core(f.prog, n),
                                             ast.Not(d.core(f.body, n)))),
    ast.Sqcup: lambda d, f, n: ast.Ortho(ast.And(ast.Ortho(d.core(f.left, n)),
                                                 ast.Ortho(d.core(f.right, n)))),
    ast.Leq: lambda d, f, n: _leq(d.core(f.left, n), d.core(f.right, n)),
    ast.EqF: lambda d, f, n: ast.And(_leq(d.core(f.left, n), d.core(f.right, n)),
                                     _leq(d.core(f.right, n), d.core(f.left, n))),
    ast.PerpF: lambda d, f, n: _leq(d.core(f.left, n), ast.Ortho(d.core(f.right, n))),
    ast.Testable: lambda d, f, n: _leq(ast.Ortho(ast.Ortho(d.core(f.body, n))),
                                       d.core(f.body, n)),
    ast.Dom: lambda d, f, n: ast.Not(ast.Box(d.core(f.prog, n), ast.FalseF())),
    ast.PostF: lambda d, f, n: ast.Ortho(ast.Box(adjoint(d.core(f.prog, n)),
                                                 ast.Ortho(d.core(f.body, n)))),
    ast.Component: lambda d, f, n: ast.Component(d.core(f.body, len(f.qubits)), f.qubits),
    ast.Bell: lambda d, f, n: ast.Ent(f.i, f.j, _seq([ast.GateP("Z", (1,))] * f.x
                                                     + [ast.GateP("X", (1,))] * f.y)),
    ast.GHZ: lambda d, f, n: ast.RayF((f.i, f.j, f.k), (ONE,) + (ZERO,) * 6 + (ONE,)),
    ast.Gamma: lambda d, f, n: ast.RayF((f.i, f.j), (ONE,) * 4),
    ast.Ent: lambda d, f, n: ast.Ent(f.i, f.j, d.core(_one_qubit(f.prog, "ent"), 1)),
    ast.TopP: lambda d, p, n: p if p.qubits else ast.Id(),
    ast.Flip: lambda d, p, n: _flip(p.i, p.j),
    ast.Set0: lambda d, p, n: _seq([_set0_one(i) for i in p.qubits]),
    ast.Proj0: lambda d, p, n: (ast.Test(_conj([ast.Const("0", i) for i in p.qubits]))
                                if p.qubits else ast.Id()),
    ast.Unary1: lambda d, p, n: d.core(_one_qubit(p.prog, "unary1"), 1),
    ast.Mov: lambda d, p, n: _seq([_flip(1, p.i), d.core(_one_qubit(p.prog, "mov"), 1),
                                   _flip(1, p.j)]),
    ast.Adj: lambda d, p, n: adjoint(d.core(p.prog, n)),
    ast.PVar: _unbound,
}


class DesugarMemo:
    """The core trees of one or more desugarings, each node rewritten
    once: a part that a rule uses twice, or the shared nodes of a
    schema's instances.

    ``cores`` is kept per (id(node), n), the node held beside its core
    tree and the rewrites that made it, and ``sizes`` per id of such a
    core tree, the nodes it holds, a part used twice counting twice.  A
    leaf is its own core tree of one node and is not remembered.  A
    remembered node charges both counts to the budgets again, so an input
    is refused exactly when rewriting every use of a part refuses it."""

    __slots__ = ("cores", "sizes")

    def __init__(self):
        self.cores = {}
        self.sizes = {}

    def size(self, core) -> int:
        """The nodes of ``core``, a remembered core counting as many as
        its tree holds."""
        sizes, size, todo = self.sizes, 0, [core]
        while todo:
            part = todo.pop()
            known = sizes.get(id(part))
            if known is None:
                size += 1
                todo.extend(ast.parts(part))
            else:
                size += known
        return size

    def desugar(self, node, n: int):
        """The core tree of ``node``, refused past MAX_NODES rewrites or
        MAX_NODES nodes."""
        tree = _Desugaring(self).core(node, n)
        _Desugaring(self).spend(self.sizes.get(id(tree), 1))
        return tree


class _Desugaring:
    """A budget of MAX_NODES steps: the rewrites of one desugaring, or
    the nodes of its core tree."""

    __slots__ = ("left", "memo")

    def __init__(self, memo: DesugarMemo):
        self.left = MAX_NODES
        self.memo = memo

    def spend(self, steps: int = 1):
        self.left -= steps
        if self.left < 0:
            raise InputError(f"expression expands past {MAX_NODES} nodes")

    def core(self, node, n: int):
        rule = RULES.get(type(node))
        if rule is None:
            parts = ast.parts(node)
            if not parts:
                self.spend()
                return node
        memo = self.memo
        known = memo.cores.get((id(node), n))
        if known is not None:
            self.spend(known[2])
            return known[1]
        before = self.left
        self.spend()
        if rule is not None:
            out = rule(self, node, n)
            size = memo.size(out)
        else:
            # one node more than its parts' trees, without a walk
            parts = tuple(map(self.core, parts, repeat(n)))
            out, sizes, size = ast.rebuild(node, parts), memo.sizes, 1
            for part in parts:
                size += sizes.get(id(part), 1)
        memo.cores[id(node), n] = (node, out, before - self.left)
        memo.sizes[id(out)] = size
        return out


def desugar_formula(node: ast.Formula, n: int) -> ast.Formula:
    if not isinstance(node, ast.Formula):
        raise TypeError(f"not a formula node: {node!r}")
    return DesugarMemo().desugar(node, n)


def desugar_program(node: ast.Program, n: int) -> ast.Program:
    if not isinstance(node, ast.Program):
        raise TypeError(f"not a program node: {node!r}")
    return DesugarMemo().desugar(node, n)
