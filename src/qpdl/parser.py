"""Tokenizer and recursive-descent parser for the concrete syntax.

``tokenize`` matches one compiled token pattern once per token.  Its
symbols are the operator spellings of ``ast.OPERATORS`` plus fixed
punctuation, and its gate words are the names of ``frame.GATES``, each
with one index per qubit the gate acts on.  Every index is decimal
without a leading zero.

Every keyword form of ``ast.SYNTAX`` is read by one method, ``keyword``.
The operators of ``ast.OPERATORS`` are read by one precedence loop,
``infix``, in formula and program position alike, and the prefix forms by
one method, ``f_unary``.  ``RESERVED`` is derived from both tables.  The
bespoke atoms (constants, ``vec``, gates, ``flip``, tests and variables)
are read by ``f_atom`` and ``p_factor``.  Errors carry a 1-based line
and column plus the set of token kinds that would have been accepted
there.  The only backtracking point is in program position, where a test
``f?`` is tried first: failing that, a ``(`` opens a parenthesised
program, and an identifier that is not a keyword is a program variable
(``PVar``).  The parser reports the failure that got farthest when every
reading dies.  A test reading that ran past ``MAX_DEPTH`` where no other
reading starts reports the depth limit.

Input nested deeper than ``MAX_DEPTH`` levels of syntax tree is a
ParseError, so deep input fails with a message instead of exhausting the
stack of the parser or of the evaluators that walk the tree.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import ast
from .errors import InputError
from .frame import GATES


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int, expected: frozenset = frozenset()):
        super().__init__(f"{message} at line {line} column {col}")
        self.line = line
        self.col = col
        self.expected = expected


class _Final(ParseError):
    """An error no other reading gets past: nesting past MAX_DEPTH, or a
    bad index list of a keyword form, which has no other reading."""


class Token(NamedTuple):
    kind: str
    value: object
    line: int
    col: int


# The keyword forms of ast.SYNTAX by keyword, one table per position.
_FORMULA_WORDS, _PROGRAM_WORDS = (
    {form.word: cls for cls, form in ast.FORMS.items() if issubclass(cls, kind)}
    for kind in (ast.Formula, ast.Program))
# ast.OPERATORS by the token that reads each operator: infix ones as (token,
# class, right-associative), loosest first; prefix forms as (token, is a
# keyword such as "box", read from a word token, class, closing).
_FORMULA_INFIX, _PROGRAM_INFIX = (
    tuple((op.text.strip(), op.cls, op.right) for op in ast.OPERATORS[kind].infix)
    for kind in (ast.Formula, ast.Program))
_PREFIX = tuple((op.text.strip(), op.text.strip().isalpha(), op.cls, op.closing)
                for op in ast.OPERATORS[ast.Formula].prefix)
# Keywords are never variables; vec, flip and the gates have bespoke syntax.
RESERVED = frozenset(_FORMULA_WORDS.keys() | _PROGRAM_WORDS.keys() | {
    token for token, word, _, _ in _PREFIX if word} | {"vec", "flip"} | GATES.keys())

# The token pattern, one alternative per token kind, tried in order and
# matched once per token.  A gate word is a GATES name with one index per
# qubit it acts on (log2 of its size), flip takes two, and the word must
# end there, so CNOT_1 and X_01 are identifiers.  Symbols go longest first,
# so that -> is not read as - and >.
_DECIMAL = "0|[1-9][0-9]*"  # every number and index: no leading zero
_INDEX = f"_(?:{_DECIMAL})"
_GATE_WORDS = "|".join(f"{re.escape(name)}(?:{_INDEX}){{{g.rows.bit_length() - 1}}}"
                       for name, g in GATES.items())
_SYMBOLS = sorted({token for token, _, _ in _FORMULA_INFIX + _PROGRAM_INFIX}
                  | {text for token, word, _, closing in _PREFIX if not word
                     for text in (token, closing) if text}
                  | set("?(){},-"), key=lambda s: (-len(s), s))
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("space", "[ \t\r]+"),
    ("newline", "\n"),
    ("const", "[01+-]_[0-9]*"),
    ("number", "[0-9]+"),
    ("gate", f"(?:{_GATE_WORDS})(?![A-Za-z0-9_])"),
    ("flip", f"flip(?:{_INDEX}){{2}}(?![A-Za-z0-9_])"),
    ("word", "[A-Za-z][A-Za-z0-9_]*"),
    ("symbol", "|".join(map(re.escape, _SYMBOLS))),
    ("other", "."))))


def _decimal(digits: str, line: int, col: int) -> int:
    """A number or index as written at line:col; none is an index missing
    after a '_'."""
    if not digits:
        raise ParseError("qubit index expected after '_'", line, col)
    if not re.fullmatch(_DECIMAL, digits):
        raise ParseError("number with a leading zero", line, col)
    return int(digits)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        value = m.group()
        col = m.start() - line_start + 1
        if kind == "symbol":
            kind = value
        elif kind == "number":
            value = _decimal(value, line, col)
        elif kind == "gate" or kind == "flip":
            name, *qubits = value.split("_")
            value = tuple(map(int, qubits))
            if kind == "gate":
                value = (name, value)
        elif kind == "const":
            value = (value[0], _decimal(value[2:], line, col + 2))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        elif kind == "other":
            raise ParseError(f"unexpected character {value!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", None, line, len(text) - line_start + 1))
    return tokens


# A level of syntax costs the parser or the evaluators at most about four
# stack frames, so 200 levels stay inside the interpreter's default
# recursion limit of 1000 with 300 frames to spare for the caller.  A
# keyword form with arguments counts a level of its own, since it stands
# for up to ten levels of core tree (perpf) and eight parser frames.
MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0
        self.far_pos = 0
        self.far_expected: set = set()
        # (position, depth) -> the error of a test reading that failed there
        self.failed_tests: dict = {}

    # ----- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def accept(self, kind: str) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            self.pos += 1
            return tok
        self._note(kind)
        return None

    def expect(self, kind: str) -> Token:
        tok = self.accept(kind)
        if tok is None:
            self.fail(f"expected {kind!r}")
        return tok

    def descend(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            raise _Final(f"nesting deeper than {MAX_DEPTH} levels",
                         tok.line, tok.col)

    def _note(self, kind: str):
        if self.pos > self.far_pos:
            self.far_pos = self.pos
            self.far_expected = set()
        if self.pos == self.far_pos:
            self.far_expected.add(kind)

    def fail(self, message: str):
        at = max(self.pos, self.far_pos)
        tok = self.tokens[min(at, len(self.tokens) - 1)]
        expected = frozenset(self.far_expected) if at == self.far_pos else frozenset()
        shown = message
        if expected and at > self.pos:
            shown = "expected one of " + ", ".join(sorted(expected))
        raise ParseError(f"{shown} (found {tok.kind})", tok.line, tok.col, expected)

    def fail_at(self, tok: Token, message: str):
        """A final error at an earlier token, where the fault is."""
        raise _Final(f"{message} (found {tok.kind})", tok.line, tok.col)

    # ----- shared pieces ------------------------------------------------------

    def listed(self, opening: str, item, closing: str) -> list:
        """A non-empty comma-separated list of items between delimiters."""
        self.expect(opening)
        out = [item()]
        while self.accept(","):
            out.append(item())
        self.expect(closing)
        return out

    def number(self) -> int:
        return self.expect("number").value

    def keyword(self, cls):
        """The keyword form ``ast.SYNTAX[cls]``, read field by field; its
        arguments are one level deeper than the form itself."""
        form = ast.FORMS[cls]
        self.pos += 1
        fields = {}
        if form.numbers:
            start = self.pos
            numbers = self.listed("[", self.number, "]")
            # the items are every other token after '[': an error names the
            # first bad item, or the ']' where one is missing
            items = self.tokens[start + 1:self.pos:2] + [self.tokens[self.pos - 1]]
            if len(numbers) != len(form.numbers):
                self.fail_at(items[min(len(numbers), len(form.numbers))],
                             f"expected {len(form.numbers)} indices")
            for name, number, tok in zip(form.numbers, numbers, items):
                if name in form.bits and number not in (0, 1):
                    self.fail_at(tok, f"{form.word} bits must be 0 or 1")
            fields.update(zip(form.numbers, numbers))
        if form.qubits:
            fields[form.qubits] = tuple(sorted(set(self.listed("{", self.number, "}"))))
        if form.args:
            self.descend()
        for k, (name, is_formula) in enumerate(form.args):
            self.expect("," if k else "(")
            fields[name] = self.formula() if is_formula else self.program()
        if form.args:
            self.expect(")")
            self.depth -= 1
        return cls(*map(fields.__getitem__, cls.FIELDS))

    def infix(self, ops: tuple, operand, level: int = 0):
        """Operands read by ``operand`` joined by the infix operators
        ``ops[level:]``, loosest first.  Each operator reads its right
        operand one level deeper: the rest of its own level if it is
        right-associative, else its tighter levels."""
        token, cls, right = ops[level]
        base = self.depth
        left = self.infix(ops, operand, level + 1) if level + 1 < len(ops) else operand()
        while self.accept(token):
            self.descend()
            inner = level if right else level + 1
            left = cls(left, self.infix(ops, operand, inner) if inner < len(ops)
                       else operand())
        self.depth = base
        return left

    # ----- formulas -----------------------------------------------------------

    # formula, program and f_unary each read one level of the syntax tree.
    # They restore the depth inline, not through a wrapper, so that a level
    # costs the parser at most about four stack frames.

    def formula(self) -> ast.Formula:
        base = self.depth
        try:
            self.descend()
            return self.infix(_FORMULA_INFIX, self.f_unary)
        finally:
            self.depth = base

    def f_unary(self) -> ast.Formula:
        """A prefix form of ``ast.OPERATORS``, its body one level deeper, or
        an atom."""
        base = self.depth
        try:
            self.descend()
            tok = self.peek()
            for token, word, cls, closing in _PREFIX:
                if word and tok.kind == "word" and tok.value == token:
                    self.pos += 1
                elif word or not self.accept(token):
                    continue
                if not closing:
                    return cls(self.f_unary())
                prog = self.program()
                self.expect(closing)
                return cls(prog, self.f_unary())
            return self.f_atom()
        finally:
            self.depth = base

    def f_atom(self) -> ast.Formula:
        tok = self.peek()
        if self.accept("("):
            body = self.formula()
            self.expect(")")
            return body
        if tok.kind == "const":
            self.pos += 1
            return ast.Const(tok.value[0], tok.value[1])
        if tok.kind != "word":
            self._note("formula")
            self.fail("expected a formula")
        word = tok.value
        if word in _FORMULA_WORDS:
            return self.keyword(_FORMULA_WORDS[word])
        if word == "vec":
            # Order is kept: the k-th symbol goes with the k-th listed qubit.
            self.pos += 1
            qs = tuple(self.listed("{", self.number, "}"))
            chars = self.listed("(", self.vec_char, ")")
            if len(chars) != len(qs):
                self.fail("one state symbol per qubit expected")
            return ast.VecC(qs, "".join(chars))
        if word in RESERVED:
            self._note("formula")
            self.fail(f"{word!r} cannot appear here")
        self.pos += 1
        return ast.Var(word)

    def vec_char(self) -> str:
        tok = self.peek()
        if tok.kind == "number" and tok.value in (0, 1):
            self.pos += 1
            return str(tok.value)
        if tok.kind in ("+", "-"):
            self.pos += 1
            return tok.kind
        self._note("state symbol")
        self.fail("expected one of 0 1 + -")

    # ----- programs -----------------------------------------------------------

    def program(self) -> ast.Program:
        base = self.depth
        try:
            self.descend()
            return self.infix(_PROGRAM_INFIX, self.p_factor)
        finally:
            self.depth = base

    def p_factor(self) -> ast.Program:
        tok = self.peek()
        if tok.kind == "gate":
            self.pos += 1
            return ast.GateP(tok.value[0], tok.value[1])
        if tok.kind == "flip":
            self.pos += 1
            return ast.Flip(tok.value[0], tok.value[1])
        if tok.kind == "word" and tok.value in _PROGRAM_WORDS:
            node = self.keyword(_PROGRAM_WORDS[tok.value])
            if isinstance(node, ast.TopP) and self.accept("?"):
                return ast.Test(ast.Top(node.qubits))
            return node
        # Anything else is first read as a test: a formula followed by '?'.
        # Its outcome depends on nothing but the position and the depth,
        # and nested '(' would retry a failed reading exponentially often.
        save = (self.pos, self.depth)
        if save not in self.failed_tests:
            try:
                body = self.formula()
                self.expect("?")
                return ast.Test(body)
            except ParseError as exc:
                self.pos = save[0]
                self.failed_tests[save] = exc
        if self.accept("("):
            prog = self.program()
            self.expect(")")
            return prog
        if tok.kind == "word" and tok.value not in RESERVED:
            self.pos += 1
            return ast.PVar(tok.value)
        if isinstance(self.failed_tests[save], _Final):
            # no other reading starts here: the test's error is the error
            raise self.failed_tests[save]
        self._note("program")
        self.fail("expected a program")


def parse_formula(text: str) -> ast.Formula:
    p = _Parser(text)
    node = p.formula()
    if p.peek().kind != "eof":
        p.fail("unparsed input after formula")
    return node


def parse_program(text: str) -> ast.Program:
    p = _Parser(text)
    node = p.program()
    if p.peek().kind != "eof":
        p.fail("unparsed input after program")
    return node
