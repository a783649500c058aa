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

Every node is a record of one base class, ``Node``: its class annotates
its fields, in order, and ``FIELDS`` maps each field name to its
annotation.  A node is built positionally, compares equal only to a node
of its own class with equal fields, hashes as the tuple of its fields,
prints as ``Cls(field=value, ...)`` and refuses assignment.  In place of
``dataclasses.fields``, ``replace`` and ``asdict``, read ``FIELDS``:
``type(node)(*values)`` builds a node from its fields in ``FIELDS``
order, and ``{f: getattr(node, f) for f in node.FIELDS}`` lists them.

``PARTS`` states which fields of each node class are subterms; ``parts``
and ``rebuild`` read it for every walk over a tree (desugaring, the
one-qubit check, substitution).
"""

from __future__ import annotations

import operator
import re
from typing import NamedTuple, Tuple

Bit = int  # a number field whose value must be 0 or 1


def _getter(names):
    """A function from a node to the tuple of its fields ``names``."""
    # attrgetter gives a bare value, not a tuple, for a single name
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


_set = object.__setattr__


def _initializer(names):
    """``__init__`` taking the fields ``names`` positionally.

    Parsing, desugaring and substitution build nodes on their hot paths,
    so classes of up to three fields get a body without a loop.  Fields
    are stored through ``object.__setattr__``, as a frozen dataclass
    stores them: writing ``self.__dict__`` builds quicker but leaves every
    later attribute read of the node on a slower path."""
    if len(names) == 0:
        def __init__(self):
            pass
    elif len(names) == 1:
        (n0,) = names

        def __init__(self, a):
            _set(self, n0, a)
    elif len(names) == 2:
        n0, n1 = names

        def __init__(self, a, b):
            _set(self, n0, a)
            _set(self, n1, b)
    elif len(names) == 3:
        n0, n1, n2 = names

        def __init__(self, a, b, c):
            _set(self, n0, a)
            _set(self, n1, b)
            _set(self, n2, c)
    else:
        def __init__(self, *values):
            if len(values) != len(names):
                raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                                f"fields, {len(values)} given")
            for name, value in zip(names, values):
                _set(self, name, value)
    return __init__


class Node:
    """A syntax node: a frozen record of the fields its class annotates."""
    __slots__ = ()
    FIELDS = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls.FIELDS = dict(cls.__dict__.get("__annotations__", {}))
        names = tuple(cls.FIELDS)
        cls.__init__ = _initializer(names)
        cls.__match_args__ = names
        cls._astuple = staticmethod(_getter(names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        return (type(self).__qualname__ + "("
                + ", ".join(f"{name}={value!r}" for name, value
                            in zip(self.FIELDS, self._astuple(self))) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __str__(self):
        return pretty(self)


class Formula(Node):
    __slots__ = ()


class Program(Node):
    __slots__ = ()


# ----- formulas --------------------------------------------------------------


class Var(Formula):
    name: str


class TrueF(Formula):
    pass


class FalseF(Formula):
    pass


class Top(Formula):
    """Separation atom: the named qubits carry a component of their own."""
    qubits: Tuple[int, ...]


class Const(Formula):
    """One fixed 1-qubit state at one qubit: char in '01+-'."""
    char: str
    qubit: int


class One(Formula):
    pass


class Plus(Formula):
    pass


class VecC(Formula):
    """A named basis assignment, one of '01+-' per listed qubit."""
    qubits: Tuple[int, ...]
    chars: str


class RayF(Formula):
    """An exact part-state at the listed qubits: one amplitude per part
    basis index.  Built programmatically (for instance when a claim is
    instantiated at a random state); it has no concrete syntax."""
    qubits: Tuple[int, ...]
    amps: tuple


class Not(Formula):
    body: Formula


class Ortho(Formula):
    body: Formula


class BoxM(Formula):
    body: Formula


class DiaM(Formula):
    body: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Sqcup(Formula):
    left: Formula
    right: Formula


class Box(Formula):
    prog: Program
    body: Formula


class Dia(Formula):
    prog: Program
    body: Formula


class Leq(Formula):
    left: Formula
    right: Formula


class EqF(Formula):
    left: Formula
    right: Formula


class PerpF(Formula):
    left: Formula
    right: Formula


class Testable(Formula):
    body: Formula


class EqI(Formula):
    """Equality of the named qubits' components on both sides."""
    left: Formula
    right: Formula
    qubits: Tuple[int, ...]


class Component(Formula):
    """States separated at the named qubits whose component can satisfy body."""
    body: Formula
    qubits: Tuple[int, ...]


class LocalF(Formula):
    body: Formula
    qubits: Tuple[int, ...]


class LocalP(Formula):
    prog: Program
    qubits: Tuple[int, ...]


class Bell(Formula):
    x: Bit
    y: Bit
    i: int
    j: int


class GHZ(Formula):
    i: int
    j: int
    k: int


class Gamma(Formula):
    i: int
    j: int


class Ent(Formula):
    """States whose {i,j} part encodes the 1-qubit action of prog."""
    i: int
    j: int
    prog: Program


class Dom(Formula):
    prog: Program


class PostF(Formula):
    prog: Program
    body: Formula


class Img(Formula):
    prog: Program
    body: Formula


# ----- programs --------------------------------------------------------------


class PVar(Program):
    """A schema's program variable, filled by substitution."""
    name: str


class TopP(Program):
    """Arbitrary action local to the named qubits."""
    qubits: Tuple[int, ...]


class Test(Program):
    formula: Formula


class GateP(Program):
    kind: str
    targets: Tuple[int, ...]


class Id(Program):
    pass


class Flip(Program):
    i: int
    j: int


class Set0(Program):
    qubits: Tuple[int, ...]


class Proj0(Program):
    qubits: Tuple[int, ...]


class Unary1(Program):
    prog: Program


class Mov(Program):
    i: int
    j: int
    prog: Program


class Adj(Program):
    prog: Program


class UnionP(Program):
    left: Program
    right: Program


class SeqP(Program):
    left: Program
    right: Program


# ----- subterms --------------------------------------------------------------

# The fields of every node class that hold a formula or a program, in field
# order.  Every walk over the tree reads this one table.
PARTS = {cls: tuple(name for name, kind in cls.FIELDS.items()
                   if kind in ("Formula", "Program"))
         for cls in Formula.__subclasses__() + Program.__subclasses__()}
_ONLY_PARTS = {cls for cls, names in PARTS.items() if len(names) == len(cls.FIELDS)}
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
    fields = dict(zip(cls.FIELDS, node._astuple(node)))
    fields.update(zip(PARTS[cls], new_parts))
    return cls(*fields.values())


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
    types = cls.FIELDS
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
