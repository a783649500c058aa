"""The parser as it was before infix operators and prefix forms were
dispatched on the token, kept verbatim as the reference of the parser
differential in ``test_lang.py``.

It reads the tokens of ``qpdl.parser.tokenize`` and raises its
``ParseError`` and ``_Final``: ``infix`` recurses once per precedence
level and tries each level's operator with ``accept``, and ``f_unary``
tries each prefix form in turn.
"""

from qpdl import ast
from qpdl.frame import GATES
from qpdl.parser import MAX_DEPTH, ParseError, Token, _Final, tokenize

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
            rhs = self.infix(ops, operand, inner) if inner < len(ops) else operand()
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
            tok = self.peek()
            for token, word, cls, closing in _PREFIX:
                if word and tok.kind == "word" and tok.value == token:
                    self.pos += 1
                elif word or not self.accept(token):
                    continue
                if not closing:
                    body = self.f_unary()
                    return self.share((cls, id(body)), cls, body)
                prog = self.program()
                self.expect(closing)
                body = self.f_unary()
                return self.share((cls, id(prog), id(body)), cls, prog, body)
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
