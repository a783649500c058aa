"""The tokenizer as it was before the one token pattern, kept verbatim as
the reference of the lexer differential in ``test_lang.py``.

It differs from ``qpdl.parser.tokenize`` only where an index has a
leading zero (``X_01``, ``0_01``) and in the column of ``0_``/``1_``
without an index; ``test_lang.index_rule_applied`` states that difference.
"""

import re

from qpdl.parser import ParseError, Token

_GATE1_RE = re.compile(r"^(X|Z|H)_([0-9]+)$")
_CNOT_RE = re.compile(r"^CNOT_([0-9]+)_([0-9]+)$")
_FLIP_RE = re.compile(r"^flip_([0-9]+)_([0-9]+)$")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"[0-9]+")

_SYMBOLS = ("->", "?", ";", "&", "|", "!", "~", "[", "]", "<", ">",
            "(", ")", "{", "}", ",", "+", "-")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col

        def emit(kind, value, width):
            nonlocal i, col
            tokens.append(Token(kind, value, start_line, start_col))
            i += width
            col += width

        if ch in "+-" and i + 1 < n and text[i + 1] == "_":
            m = _NUM_RE.match(text, i + 2)
            if not m:
                raise ParseError("qubit index expected after '_'", line, col + 2)
            emit("const", (ch, int(m.group())), m.end() - i)
            continue
        if text.startswith("->", i):
            emit("->", "->", 2)
            continue
        m = _NUM_RE.match(text, i)
        if m:
            word = m.group()
            if len(word) > 1 and word[0] == "0":
                raise ParseError("number with a leading zero", line, col)
            rest = text[m.end():m.end() + 1]
            if word in ("0", "1") and rest == "_":
                m2 = _NUM_RE.match(text, m.end() + 1)
                if not m2:
                    raise ParseError("qubit index expected after '_'", line, col)
                emit("const", (word, int(m2.group())), m2.end() - i)
            else:
                emit("number", int(word), m.end() - i)
            continue
        m = _WORD_RE.match(text, i)
        if m:
            word = m.group()
            g = _GATE1_RE.match(word)
            if g:
                emit("gate", (g.group(1), (int(g.group(2)),)), len(word))
                continue
            g = _CNOT_RE.match(word)
            if g:
                emit("gate", ("CNOT", (int(g.group(1)), int(g.group(2)))), len(word))
                continue
            g = _FLIP_RE.match(word)
            if g:
                emit("flip", (int(g.group(1)), int(g.group(2))), len(word))
                continue
            emit("word", word, len(word))
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                emit(sym, sym, len(sym))
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", None, line, col))
    return tokens
