"""Tokenizer and recursive-descent parser for the concrete syntax.

``tokenize`` matches one compiled token pattern once per token.  Its
symbols are the operator spellings of ``ast.OPERATORS`` plus fixed
punctuation.  A matched word is a gate when it is a name of
``frame.GATES`` with one index per qubit the gate acts on.  Every index
is decimal without a leading zero.

Every keyword form of ``ast.SYNTAX`` is read by one method, ``keyword``.
The operators of ``ast.OPERATORS`` are read by one precedence loop,
``infix``, in formula and program position alike, and the prefix forms by
one method, ``f_unary``; both look the token up in a table, so an operand
costs one lookup per method, not one failed ``accept`` per operator.
``RESERVED`` is derived from both tables.  The bespoke atoms
(constants, ``vec``, gates, ``flip``, tests and variables) are read by
``f_atom`` and ``p_factor``.  Errors carry a 1-based line and column
plus the set of token kinds that would have been accepted there.  The only backtracking point is in program position, where a test
``f?`` is tried first: failing that, a ``(`` opens a parenthesised
program, and an identifier that is not a keyword is a program variable
(``PVar``).  The parser reports the failure that got farthest when every
reading dies.  A test reading that ran past ``MAX_DEPTH`` where no other
reading starts reports the depth limit.

Input nested deeper than ``MAX_DEPTH`` levels of syntax tree is a
ParseError, so deep input fails with a message instead of exhausting the
stack of the parser or of the evaluators that walk the tree.

A parse returns one node per distinct subterm: every node is built
through a table that lives for that one parse (``_Parser.share``), so
equal subtrees of one text are one object, and a claim that writes a
program or formula out several times is desugared and evaluated once
per distinct subterm.  Nodes still compare and hash by structure, and no
table outlives its parse.
"""

from __future__ import annotations

import re
from collections import namedtuple

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


Token = namedtuple("Token", "kind value line col")


# The keyword forms of ast.SYNTAX by keyword, one table per position.
_FORMULA_WORDS, _PROGRAM_WORDS = (
    {form.word: cls for cls, form in ast.FORMS.items() if issubclass(cls, kind)}
    for kind in (ast.Formula, ast.Program))
def _infix_table(kind) -> tuple:
    """The infix operators of ``ast.OPERATORS[kind]`` by their token, as
    (level, class, right-associative, the tokens of the tighter levels),
    the loosest at level 0; and per level, the tokens of it and every
    tighter level."""
    ops = ast.OPERATORS[kind].infix
    tokens = tuple(op.text.strip() for op in ops)
    table = {token: (level, op.cls, op.right, tokens[level + 1:])
             for level, (token, op) in enumerate(zip(tokens, ops))}
    return table, tuple(tokens[level:] for level in range(len(tokens)))


_FORMULA_INFIX, _PROGRAM_INFIX = map(_infix_table, (ast.Formula, ast.Program))


def _prefix_table() -> tuple:
    """The prefix forms of ``ast.OPERATORS`` by the token that reads
    each, a word such as "box" by its text, as (class, closing, the
    symbol tokens of the forms tried before it); and every symbol token,
    which an atom is tried after."""
    table, symbols = {}, ()
    for op in ast.OPERATORS[ast.Formula].prefix:
        token = op.text.strip()
        table[token] = (op.cls, op.closing, symbols)
        if not token.isalpha():
            symbols += (token,)
    return table, symbols


_PREFIX, _PREFIX_SYMBOLS = _prefix_table()
_ATOM_SYMBOLS = _PREFIX_SYMBOLS + ("(",)
# Keywords are never variables; vec, flip and the gates have bespoke syntax.
RESERVED = frozenset(_FORMULA_WORDS.keys() | _PROGRAM_WORDS.keys() | {
    token for token in _PREFIX if token.isalpha()} | {"vec", "flip"} | GATES.keys())

# The token pattern, one alternative per token kind, tried in order and
# matched once per token.  A gate or flip is read from a word by
# ``_INDICES``, after the match.  Symbols go longest first, so that -> is
# not read as - and >, and the one-character ones are a single class.
_SYMBOLS = sorted(_FORMULA_INFIX[0].keys() | _PROGRAM_INFIX[0].keys()
                  | {text for token, (_, closing, _) in _PREFIX.items()
                     if not token.isalpha() for text in (token, closing) if text}
                  | set("?(){},-"), key=lambda s: (-len(s), s))
_SYMBOL = "|".join([re.escape(s) for s in _SYMBOLS if len(s) > 1]
                   + ["[" + "".join(re.escape(s) for s in _SYMBOLS if len(s) == 1) + "]"])
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("space", "[ \t\r]+"),
    ("newline", "\n"),
    ("const", "[01+-]_[0-9]*"),
    ("number", "[0-9]+"),
    ("word", "[A-Za-z][A-Za-z0-9_]*"),
    ("symbol", _SYMBOL),
    ("other", "."))))
# A word is a gate when it is a GATES name followed by one index per qubit
# the gate acts on (log2 of its size) and nothing else, and a flip when it
# is flip followed by two: CNOT_1 and X_1_2 are identifiers.
_INDICES = {name: g.rows.bit_length() - 1 for name, g in GATES.items()} | {"flip": 2}


def _is_decimal(digits: str) -> bool:
    """Whether the ASCII ``digits`` are a number or index as the syntax
    writes them: decimal without a leading zero, so X_01 is an
    identifier."""
    return digits.isdigit() and (digits[0] != "0" or len(digits) == 1)


def _decimal(digits: str, line: int, col: int) -> int:
    """A number or index as written at line:col; none is an index missing
    after a '_'."""
    if not digits:
        raise ParseError("qubit index expected after '_'", line, col)
    if not _is_decimal(digits):
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
        elif kind == "word" and "_" in value:
            name, *indices = value.split("_")
            if _INDICES.get(name) == len(indices) and all(map(_is_decimal, indices)):
                kind, value = "flip", tuple(map(int, indices))
                if name != "flip":
                    kind, value = "gate", (name, value)
        elif kind == "const":
            value = (value[0], _decimal(value[2:], line, col + 2))
        elif kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        elif kind == "other":
            raise ParseError(f"unexpected character {value!r}", line, col)
        # the record Token(...) builds, without a Python frame per token
        tokens.append(tuple.__new__(Token, (kind, value, line, col)))
    tokens.append(Token("eof", None, line, len(text) - line_start + 1))
    return tokens


# A level of syntax costs the parser or the evaluators at most about four
# stack frames, so 200 levels stay inside the interpreter's default
# recursion limit of 1000 with 300 frames to spare for the caller.  A
# keyword form with arguments counts a level of its own, since it stands
# for up to ten levels of formula that the pointwise evaluator walks (the
# unfolding of perpf) and eight parser frames.
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
        # every node built by this parse, by its class and fields, a child
        # node by its id (see ``share``)
        self.nodes: dict = {}

    # ----- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def accept(self, kind: str) -> Token | None:
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
            self.too_deep()

    def too_deep(self):
        tok = self.peek()
        raise _Final(f"nesting deeper than {MAX_DEPTH} levels", tok.line, tok.col)

    def _note(self, *kinds: str):
        """Note that ``kinds`` would have been accepted at this position."""
        if self.pos > self.far_pos:
            self.far_pos = self.pos
            self.far_expected = set()
        if self.pos == self.far_pos:
            self.far_expected.update(kinds)

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

    def share(self, key: tuple, cls, *fields):
        """The node ``cls(*fields)`` of this parse, one object per distinct
        subterm.  ``key`` is the class and then the fields in order, a node
        field by its id: every child was built through this table, so equal
        children are one object already, and the table keeps them alive
        while their ids are in use."""
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def atom(self, cls, *fields):
        """``share`` of a node whose fields are all values."""
        return self.share((cls, *fields), cls, *fields)

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
        values = [fields[name] for name in cls.FIELDS]
        key = (cls, *[id(v) if isinstance(v, ast.Node) else v for v in values])
        return self.share(key, cls, *values)

    def infix(self, ops: tuple, operand, lowest: int = 0):
        """Operands read by ``operand`` joined by the infix operators of
        ``ops`` (see ``_infix_table``) at level ``lowest`` or tighter, by
        precedence climbing: an operator reads its right operand as the
        rest of its own level if it is right-associative, else of its
        tighter levels.

        Each operator reads its right operand one level deeper than the
        last operator of its own or a looser level read here, or than
        the start: a chain of k operators of one level is k levels deep,
        and a looser operator ends the chains of the tighter levels."""
        table, from_level = ops
        base = self.depth
        left = operand()
        # the depth after the last operator at each level or looser
        after = None
        while True:
            op = table.get(self.tokens[self.pos].kind)
            if op is None or op[0] < lowest:
                self._note(*from_level[lowest])
                break
            level, cls, right, tighter = op
            if tighter:
                self._note(*tighter)
            self.pos += 1
            if after is None:
                after = [base] * len(from_level)
            depth = self.depth = after[level] + 1
            after[level:] = [depth] * (len(after) - level)
            if depth > MAX_DEPTH:
                self.too_deep()
            inner = level if right else level + 1
            rhs = self.infix(ops, operand, inner) if inner < len(from_level) else operand()
            left = self.share((cls, id(left), id(rhs)), cls, left, rhs)
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
            tok = self.tokens[self.pos]
            prefix = _PREFIX.get(tok.value if tok.kind == "word" else tok.kind)
            if prefix is None:
                return self.f_atom(tok)
            cls, closing, before = prefix
            if before:
                self._note(*before)
            self.pos += 1
            if not closing:
                body = self.f_unary()
                return self.share((cls, id(body)), cls, body)
            prog = self.program()
            self.expect(closing)
            body = self.f_unary()
            return self.share((cls, id(prog), id(body)), cls, prog, body)
        finally:
            self.depth = base

    def f_atom(self, tok: Token) -> ast.Formula:
        """The atom at ``tok``, where no prefix form starts: the prefix
        symbols and "(" are noted in one call."""
        if tok.kind == "(":
            self._note(*_PREFIX_SYMBOLS)
            self.pos += 1
            body = self.formula()
            self.expect(")")
            return body
        self._note(*_ATOM_SYMBOLS)
        if tok.kind == "const":
            self.pos += 1
            return self.atom(ast.Const, *tok.value)
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
            return self.atom(ast.VecC, qs, "".join(chars))
        if word in RESERVED:
            self._note("formula")
            self.fail(f"{word!r} cannot appear here")
        self.pos += 1
        return self.atom(ast.Var, word)

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
            return self.atom(ast.GateP, *tok.value)
        if tok.kind == "flip":
            self.pos += 1
            return self.atom(ast.Flip, *tok.value)
        if tok.kind == "word" and tok.value in _PROGRAM_WORDS:
            node = self.keyword(_PROGRAM_WORDS[tok.value])
            if isinstance(node, ast.TopP) and self.accept("?"):
                top = self.atom(ast.Top, node.qubits)
                return self.share((ast.Test, id(top)), ast.Test, top)
            return node
        # Anything else is first read as a test: a formula followed by '?'.
        # Its outcome depends on nothing but the position and the depth,
        # and nested '(' would retry a failed reading exponentially often.
        save = (self.pos, self.depth)
        if save not in self.failed_tests:
            try:
                body = self.formula()
                self.expect("?")
                return self.share((ast.Test, id(body)), ast.Test, body)
            except ParseError as exc:
                self.pos = save[0]
                # without its traceback, whose frames would hold this
                # parser, and so the table itself, in a reference cycle
                self.failed_tests[save] = exc.with_traceback(None)
        if self.accept("("):
            prog = self.program()
            self.expect(")")
            return prog
        if tok.kind == "word" and tok.value not in RESERVED:
            self.pos += 1
            return self.atom(ast.PVar, tok.value)
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
