"""Abstract syntax for formulas and programs, with a canonical printer.

The printer and the parser are inverse on ASTs: ``parse(pretty(t)) == t``
for every node but ``RayF``, which is built by code and has no concrete
syntax: its ``ray{...}(...)`` text is printed but not parsed.
Formula precedence, loosest first: ``->``, ``|``, ``&``, unary prefixes
(``!`` ``~`` ``box`` ``dia`` ``[p]`` ``<p>``), atoms.  Program precedence:
``+``, then ``;``, then atoms; ``?`` binds to a formula atom.
An identifier that is not a keyword is a variable: ``Var`` in formula
position, ``PVar`` in program position.  Schemas are written over both
and instantiated by ``checker.substitute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Formula:
    __slots__ = ()

    def __str__(self):
        return pretty(self)


class Program:
    __slots__ = ()

    def __str__(self):
        return pretty(self)


# ----- formulas --------------------------------------------------------------


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Top(Formula):
    """Separation atom: the named qubits carry a component of their own."""
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Const(Formula):
    """One fixed 1-qubit state at one qubit: char in '01+-'."""
    char: str
    qubit: int


@dataclass(frozen=True)
class One(Formula):
    pass


@dataclass(frozen=True)
class Plus(Formula):
    pass


@dataclass(frozen=True)
class VecC(Formula):
    """A named basis assignment, one of '01+-' per listed qubit."""
    qubits: Tuple[int, ...]
    chars: str


@dataclass(frozen=True)
class RayF(Formula):
    """An exact part-state at the listed qubits: one amplitude per part
    basis index.  Built programmatically (for instance when a claim is
    instantiated at a random state); it has no concrete syntax."""
    qubits: Tuple[int, ...]
    amps: tuple


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class Ortho(Formula):
    body: Formula


@dataclass(frozen=True)
class BoxM(Formula):
    body: Formula


@dataclass(frozen=True)
class DiaM(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Sqcup(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    prog: Program
    body: Formula


@dataclass(frozen=True)
class Dia(Formula):
    prog: Program
    body: Formula


@dataclass(frozen=True)
class Leq(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class EqF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class PerpF(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Testable(Formula):
    body: Formula


@dataclass(frozen=True)
class EqI(Formula):
    """Equality of the named qubits' components on both sides."""
    left: Formula
    right: Formula
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Component(Formula):
    """States separated at the named qubits whose component can satisfy body."""
    body: Formula
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class LocalF(Formula):
    body: Formula
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class LocalP(Formula):
    prog: Program
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Bell(Formula):
    x: int
    y: int
    i: int
    j: int


@dataclass(frozen=True)
class GHZ(Formula):
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Gamma(Formula):
    i: int
    j: int


@dataclass(frozen=True)
class Ent(Formula):
    """States whose {i,j} part encodes the 1-qubit action of prog."""
    i: int
    j: int
    prog: Program


@dataclass(frozen=True)
class Dom(Formula):
    prog: Program


@dataclass(frozen=True)
class PostF(Formula):
    prog: Program
    body: Formula


@dataclass(frozen=True)
class Img(Formula):
    prog: Program
    body: Formula


# ----- programs --------------------------------------------------------------


@dataclass(frozen=True)
class PVar(Program):
    """A schema's program variable, filled by substitution."""
    name: str


@dataclass(frozen=True)
class TopP(Program):
    """Arbitrary action local to the named qubits."""
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Test(Program):
    formula: Formula


@dataclass(frozen=True)
class GateP(Program):
    kind: str
    targets: Tuple[int, ...]


@dataclass(frozen=True)
class Id(Program):
    pass


@dataclass(frozen=True)
class Flip(Program):
    i: int
    j: int


@dataclass(frozen=True)
class Set0(Program):
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Proj0(Program):
    qubits: Tuple[int, ...]


@dataclass(frozen=True)
class Unary1(Program):
    prog: Program


@dataclass(frozen=True)
class Mov(Program):
    i: int
    j: int
    prog: Program


@dataclass(frozen=True)
class Adj(Program):
    prog: Program


@dataclass(frozen=True)
class UnionP(Program):
    left: Program
    right: Program


@dataclass(frozen=True)
class SeqP(Program):
    left: Program
    right: Program


# ----- printer ---------------------------------------------------------------

_F_IMPLIES, _F_OR, _F_AND, _F_UNARY, _F_ATOM = 1, 2, 3, 4, 5
_P_UNION, _P_SEQ, _P_ATOM = 1, 2, 3


def _qubits(qs) -> str:
    return "{" + ",".join(str(q) for q in qs) + "}"


def _f(node: Formula, level: int) -> str:
    text, mine = _formula_text(node)
    if mine < level:
        return "(" + text + ")"
    return text


def _formula_text(node: Formula) -> tuple[str, int]:
    if isinstance(node, Var):
        return node.name, _F_ATOM
    if isinstance(node, TrueF):
        return "true", _F_ATOM
    if isinstance(node, FalseF):
        return "false", _F_ATOM
    if isinstance(node, Top):
        return "T" + _qubits(node.qubits), _F_ATOM
    if isinstance(node, Const):
        return f"{node.char}_{node.qubit}", _F_ATOM
    if isinstance(node, One):
        return "one", _F_ATOM
    if isinstance(node, Plus):
        return "plus", _F_ATOM
    if isinstance(node, VecC):
        return "vec" + _qubits(node.qubits) + "(" + ",".join(node.chars) + ")", _F_ATOM
    if isinstance(node, RayF):
        amps = ", ".join(str(a) for a in node.amps)
        return "ray" + _qubits(node.qubits) + "(" + amps + ")", _F_ATOM
    if isinstance(node, Not):
        return "!" + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, Ortho):
        return "~" + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, BoxM):
        return "box " + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, DiaM):
        return "dia " + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, Box):
        return "[" + _p(node.prog, _P_UNION) + "]" + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, Dia):
        return "<" + _p(node.prog, _P_UNION) + ">" + _f(node.body, _F_UNARY), _F_UNARY
    if isinstance(node, And):
        return _f(node.left, _F_AND) + " & " + _f(node.right, _F_UNARY), _F_AND
    if isinstance(node, Or):
        return _f(node.left, _F_OR) + " | " + _f(node.right, _F_AND), _F_OR
    if isinstance(node, Implies):
        return _f(node.left, _F_OR) + " -> " + _f(node.right, _F_IMPLIES), _F_IMPLIES
    if isinstance(node, Sqcup):
        return _call("sqcup", node.left, node.right), _F_ATOM
    if isinstance(node, Leq):
        return _call("leq", node.left, node.right), _F_ATOM
    if isinstance(node, EqF):
        return _call("eqf", node.left, node.right), _F_ATOM
    if isinstance(node, PerpF):
        return _call("perpf", node.left, node.right), _F_ATOM
    if isinstance(node, Testable):
        return _call("testable", node.body), _F_ATOM
    if isinstance(node, EqI):
        return ("eqi" + _qubits(node.qubits)
                + "(" + pretty(node.left) + ", " + pretty(node.right) + ")", _F_ATOM)
    if isinstance(node, Component):
        return "cmp" + _qubits(node.qubits) + "(" + pretty(node.body) + ")", _F_ATOM
    if isinstance(node, LocalF):
        return "local" + _qubits(node.qubits) + "(" + pretty(node.body) + ")", _F_ATOM
    if isinstance(node, LocalP):
        return "localp" + _qubits(node.qubits) + "(" + pretty(node.prog) + ")", _F_ATOM
    if isinstance(node, Bell):
        return f"bell[{node.x},{node.y},{node.i},{node.j}]", _F_ATOM
    if isinstance(node, GHZ):
        return f"ghz[{node.i},{node.j},{node.k}]", _F_ATOM
    if isinstance(node, Gamma):
        return f"gamma[{node.i},{node.j}]", _F_ATOM
    if isinstance(node, Ent):
        return f"ent[{node.i},{node.j}](" + pretty(node.prog) + ")", _F_ATOM
    if isinstance(node, Dom):
        return "dom(" + pretty(node.prog) + ")", _F_ATOM
    if isinstance(node, PostF):
        return "post(" + pretty(node.prog) + ", " + pretty(node.body) + ")", _F_ATOM
    if isinstance(node, Img):
        return "img(" + pretty(node.prog) + ", " + pretty(node.body) + ")", _F_ATOM
    raise TypeError(f"not a formula node: {node!r}")


def _call(name: str, *args) -> str:
    return name + "(" + ", ".join(pretty(a) for a in args) + ")"


def _p(node: Program, level: int) -> str:
    text, mine = _program_text(node)
    if mine < level:
        return "(" + text + ")"
    return text


def _program_text(node: Program) -> tuple[str, int]:
    if isinstance(node, PVar):
        return node.name, _P_ATOM
    if isinstance(node, TopP):
        return "T" + _qubits(node.qubits), _P_ATOM
    if isinstance(node, Test):
        body, lvl = _formula_text(node.formula)
        if lvl < _F_ATOM:
            body = "(" + body + ")"
        return body + "?", _P_ATOM
    if isinstance(node, GateP):
        return node.kind + "".join(f"_{t}" for t in node.targets), _P_ATOM
    if isinstance(node, Id):
        return "id", _P_ATOM
    if isinstance(node, Flip):
        return f"flip_{node.i}_{node.j}", _P_ATOM
    if isinstance(node, Set0):
        return "set0" + _qubits(node.qubits), _P_ATOM
    if isinstance(node, Proj0):
        return "proj0" + _qubits(node.qubits), _P_ATOM
    if isinstance(node, Unary1):
        return "unary1(" + pretty(node.prog) + ")", _P_ATOM
    if isinstance(node, Mov):
        return f"mov[{node.i},{node.j}](" + pretty(node.prog) + ")", _P_ATOM
    if isinstance(node, Adj):
        return "adj(" + pretty(node.prog) + ")", _P_ATOM
    if isinstance(node, SeqP):
        return _p(node.left, _P_SEQ) + ";" + _p(node.right, _P_ATOM), _P_SEQ
    if isinstance(node, UnionP):
        return _p(node.left, _P_UNION) + " + " + _p(node.right, _P_SEQ), _P_UNION
    raise TypeError(f"not a program node: {node!r}")


def pretty(node) -> str:
    """Canonical concrete syntax; the parser accepts exactly this back."""
    if isinstance(node, Formula):
        return _formula_text(node)[0]
    if isinstance(node, Program):
        return _program_text(node)[0]
    raise TypeError(f"not an AST node: {node!r}")
