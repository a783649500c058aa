"""Abstract syntax for formulas and programs, with a canonical printer.

``SYNTAX`` states the concrete form of every keyword node once, and
``OPERATORS`` the spelling, precedence and associativity of every
operator; the printer and the parser both read them.  They are inverse on
ASTs, ``parse(pretty(t)) == t``, for every node but ``RayF``, which is
built by code and has no concrete syntax: its ``ray{...}(...)`` text is
printed but not parsed.  ``?`` binds to a formula atom.
An identifier that is not a keyword is a variable: ``Var`` in formula
position, ``PVar`` in program position.  Schemas are written over both
and instantiated by ``checker.substitute``.

``PARTS`` states which fields of each node class are subterms; ``parts``
and ``rebuild`` read it for every walk over a tree (desugaring, the
one-qubit check, substitution).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, fields
from typing import NamedTuple, Tuple

Bit = int  # a number field whose value must be 0 or 1


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
    x: Bit
    y: Bit
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


# ----- subterms --------------------------------------------------------------

# The fields of every node class that hold a formula or a program, in field
# order.  Every walk over the tree reads this one table.
PARTS = {cls: tuple(f.name for f in fields(cls) if f.type in ("Formula", "Program"))
         for cls in Formula.__subclasses__() + Program.__subclasses__()}
_ONLY_PARTS = {cls for cls, names in PARTS.items() if len(names) == len(fields(cls))}


def _getter(names):
    # attrgetter gives a bare value, not a tuple, for a single name
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


_GETTERS = {cls: _getter(names) for cls, names in PARTS.items()}


def parts(node) -> tuple:
    """The subterms of ``node``, in ``PARTS`` order."""
    return _GETTERS[type(node)](node)


def rebuild(node, new_parts):
    """``node`` with its subterms replaced, in ``PARTS`` order, by
    ``new_parts``; ``node`` itself when each is the subterm it replaces."""
    new_parts = tuple(new_parts)
    if all(map(operator.is_, new_parts, parts(node))):
        return node
    cls = type(node)
    if cls in _ONLY_PARTS:
        return cls(*new_parts)
    return cls(**{**vars(node), **dict(zip(PARTS[cls], new_parts))})


# ----- keyword forms ---------------------------------------------------------

# The concrete syntax of every keyword node, read by both the parser and the
# printer.  A form is the keyword, then in text order: number fields in
# brackets, one index-set field in braces (printed sorted), and argument
# fields in parentheses.  An argument is read as a formula or a program by
# its field's type, and a number field typed ``Bit`` must be 0 or 1.
SYNTAX = {
    TrueF: "true",
    FalseF: "false",
    One: "one",
    Plus: "plus",
    Top: "T{qubits}",
    Bell: "bell[x,y,i,j]",
    GHZ: "ghz[i,j,k]",
    Gamma: "gamma[i,j]",
    Ent: "ent[i,j](prog)",
    Component: "cmp{qubits}(body)",
    LocalF: "local{qubits}(body)",
    LocalP: "localp{qubits}(prog)",
    EqI: "eqi{qubits}(left,right)",
    Testable: "testable(body)",
    Leq: "leq(left,right)",
    EqF: "eqf(left,right)",
    PerpF: "perpf(left,right)",
    Sqcup: "sqcup(left,right)",
    Dom: "dom(prog)",
    PostF: "post(prog,body)",
    Img: "img(prog,body)",
    TopP: "T{qubits}",
    Id: "id",
    Set0: "set0{qubits}",
    Proj0: "proj0{qubits}",
    Unary1: "unary1(prog)",
    Mov: "mov[i,j](prog)",
    Adj: "adj(prog)",
}


class Form(NamedTuple):
    word: str
    numbers: tuple  # bracketed number fields, in text order
    bits: tuple     # those of them typed Bit
    qubits: str     # the index-set field, or ""
    args: tuple     # (field, is_formula) per argument, in text order


_FORM_RE = re.compile(r"(\w+)(?:\[([\w,]+)\])?(?:\{(\w+)\})?(?:\(([\w,]+)\))?")


def _form(cls, text: str) -> Form:
    word, numbers, qubits, args = _FORM_RE.fullmatch(text).groups()
    numbers = tuple(numbers.split(",")) if numbers else ()
    args = tuple(args.split(",")) if args else ()
    types = {f.name: f.type for f in fields(cls)}
    if sorted(numbers + args + ((qubits,) if qubits else ())) != sorted(types):
        raise TypeError(f"{cls.__name__}: form {text!r} must name each field once")
    return Form(word, numbers, tuple(n for n in numbers if types[n] == "Bit"),
                qubits or "", tuple((a, types[a] == "Formula") for a in args))


FORMS = {cls: _form(cls, text) for cls, text in SYNTAX.items()}


# ----- operators -------------------------------------------------------------


class Infix(NamedTuple):
    cls: type
    text: str            # printed spelling; the parser reads it stripped
    right: bool = False  # right-associative


class Prefix(NamedTuple):
    cls: type
    text: str          # printed spelling, before the body
    closing: str = ""  # for [p]f and <p>f: closes the program before the body


class Operators(NamedTuple):
    infix: tuple   # loosest first
    prefix: tuple  # tighter than every infix operator, looser than atoms


# The operators of each position, read by both the parser and the printer.
# Every other node is an atom: a keyword form of SYNTAX, a variable, or one
# of the bespoke forms of the parser's f_atom and p_factor.
OPERATORS = {
    Formula: Operators(
        infix=(Infix(Implies, " -> ", right=True), Infix(Or, " | "), Infix(And, " & ")),
        prefix=(Prefix(Not, "!"), Prefix(Ortho, "~"), Prefix(BoxM, "box "),
                Prefix(DiaM, "dia "), Prefix(Box, "[", "]"), Prefix(Dia, "<", ">"))),
    Program: Operators(infix=(Infix(UnionP, " + "), Infix(SeqP, ";")), prefix=()),
}


# ----- printer ---------------------------------------------------------------

# Each operator class with its binding strength: its infix level, loosest
# 0, and for a prefix form the level after the infix ones.  An atom binds
# tighter than any operator.
_OPS = {op.cls: (min(k, len(ops.infix)), op) for ops in OPERATORS.values()
        for k, op in enumerate(ops.infix + ops.prefix)}
_ATOM = 1 + max(level for level, _ in _OPS.values())


def _qubits(qs) -> str:
    return "{" + ",".join(str(q) for q in qs) + "}"


def _at(node, level: int) -> str:
    """``node`` printed as an operand that binds at least as tight as ``level``."""
    text = pretty(node)
    return "(" + text + ")" if _OPS.get(type(node), (_ATOM,))[0] < level else text


def _keyword_text(node) -> str:
    form = FORMS[type(node)]
    text = form.word
    if form.numbers:
        text += "[" + ",".join(str(getattr(node, n)) for n in form.numbers) + "]"
    if form.qubits:
        text += _qubits(getattr(node, form.qubits))
    if form.args:
        text += "(" + ", ".join(pretty(getattr(node, a)) for a, _ in form.args) + ")"
    return text


def pretty(node) -> str:
    """Canonical concrete syntax; the parser accepts exactly this back."""
    cls = type(node)
    if cls in _OPS:
        level, op = _OPS[cls]
        if isinstance(op, Infix):
            return (_at(node.left, level + op.right) + op.text
                    + _at(node.right, level + (not op.right)))
        prog = pretty(node.prog) + op.closing if op.closing else ""
        return op.text + prog + _at(node.body, level)
    if cls in FORMS:
        return _keyword_text(node)
    if cls in (Var, PVar):
        return node.name
    if cls is Const:
        return f"{node.char}_{node.qubit}"
    if cls is VecC:
        return "vec" + _qubits(node.qubits) + "(" + ",".join(node.chars) + ")"
    if cls is RayF:
        return "ray" + _qubits(node.qubits) + "(" + ", ".join(map(str, node.amps)) + ")"
    if cls is Test:
        return _at(node.formula, _ATOM) + "?"
    if cls is GateP:
        return node.kind + "".join(f"_{t}" for t in node.targets)
    if cls is Flip:
        return f"flip_{node.i}_{node.j}"
    raise TypeError(f"not an AST node: {node!r}")
