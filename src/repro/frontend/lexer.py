"""Lexer for the C subset.

Preprocessor lines are not expanded: ``#include <...>`` directives are
collected (the sema stage enforces the paper's header allow-list) and any
other directive is rejected — the generators never need macros, and
rejecting them keeps candidate programs analysable.

The scanner is one compiled master regex: each match is one token, or one
run of trivia, led by any blanks and named by the group that matched.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.frontend.tokens import KEYWORDS, PUNCTUATORS, Token, TokenKind

__all__ = ["Lexer", "tokenize", "LexResult"]

#: Stand-ins for non-ASCII characters, so the regex can stay ASCII while
#: classifying them as ``str.isalpha``/``isdigit``/``isalnum`` do:
#: ``_ALNUM`` (``\x80``) may only continue an identifier, and ``_OTHER`` is
#: an unexpected character.
_ALPHA, _DIGIT, _ALNUM, _OTHER = "a", "0", "\x80", "\x81"

#: A string literal without its closing quote (an escape may span a newline).
_STRING_BODY = r'"(?:[^"\\\n]|\\[\s\S])*'

_MASTER = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_\x80]*)"
    r"|(?P<comment>//[^\n]*|/\*[\s\S]*?\*/)"
    r"|(?P<open_comment>/\*)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in PUNCTUATORS) + r")"
    r"|(?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fF]?"
    r"|[0-9]+[eE][+-]?[0-9]+[fF]?)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<newline>\n)"
    r"|(?P<string>" + _STRING_BODY + r'")'
    r'|(?P<open_string>")'
    r"|(?P<directive>\#[^\n]*)"
    r"|(?P<end>\Z)"
    r"|(?P<other>[\s\S]))"
)

#: Runs an unterminated string literal up to where the scan stops.
_STRING_PREFIX = re.compile(_STRING_BODY)

_LITERAL_KINDS = {"int": TokenKind.INT_LIT, "float": TokenKind.FLOAT_LIT}


def _stand_in(c: str) -> str:
    if c.isalpha():
        return _ALPHA
    if c.isdigit():
        return _DIGIT
    return _ALNUM if c.isalnum() else _OTHER


class LexResult:
    """Token stream plus the ``#include`` headers seen."""

    def __init__(self, tokens: list[Token], includes: list[str]) -> None:
        self.tokens = tokens
        self.includes = includes


class Lexer:
    def __init__(self, source: str) -> None:
        self._src = source
        self.includes: list[str] = []

    def _directive(self, text: str, line: int) -> None:
        text = text.strip()
        if text.startswith("#include"):
            rest = text[len("#include"):].strip()
            if (rest.startswith("<") and rest.endswith(">")) or (
                rest.startswith('"') and rest.endswith('"')
            ):
                self.includes.append(rest[1:-1].strip())
                return
            raise LexError(f"malformed include: {text!r}", line, 1)
        raise LexError(f"unsupported preprocessor directive: {text!r}", line, 1)

    def run(self) -> LexResult:
        src = self._src
        scan = src
        if not src.isascii():
            # Same length, so match positions index ``src`` unchanged.
            scan = src.translate({ord(c): _stand_in(c) for c in set(src) if c > "\x7f"})
        tokens: list[Token] = []
        append = tokens.append
        line, line_start = 1, 0
        ident, keyword, punct = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT
        new = tuple.__new__
        for m in _MASTER.finditer(scan):
            kind = m.lastgroup
            start, end = m.span(kind)
            col = start - line_start + 1
            if kind == "ident":
                text = src[start:end]
                append(new(Token, (keyword if text in KEYWORDS else ident, text, line, col)))
            elif kind == "punct":
                append(new(Token, (punct, src[start:end], line, col)))
            elif kind == "newline":
                line += 1
                line_start = end
            elif kind in _LITERAL_KINDS:
                append(new(Token, (_LITERAL_KINDS[kind], src[start:end], line, col)))
            elif kind == "string" or kind == "comment":
                if kind == "string":
                    append(new(Token, (TokenKind.STRING_LIT, src[start + 1:end - 1], line, col)))
                breaks = src.count("\n", start, end)
                if breaks:
                    line += breaks
                    line_start = src.rindex("\n", start, end) + 1
            elif kind == "directive" and col == 1:
                self._directive(src[start:end], line)
            elif kind == "end":
                append(new(Token, (TokenKind.EOF, "", line, col)))
                break
            elif kind == "open_comment":
                raise self._error("unterminated block comment", line, line_start, len(src))
            elif kind == "open_string":
                stop = _STRING_PREFIX.match(scan, start).end()
                if stop < len(src) and src[stop] == "\\":
                    stop = len(src)  # the escape ran off the end
                raise self._error("unterminated string literal", line, line_start, stop)
            else:
                raise LexError(f"unexpected character {src[start]!r}", line, col)
        return LexResult(tokens, self.includes)

    def _error(self, message: str, line: int, line_start: int, pos: int) -> LexError:
        breaks = self._src.count("\n", line_start, pos)
        if breaks:
            line += breaks
            line_start = self._src.rindex("\n", line_start, pos) + 1
        return LexError(message, line, pos - line_start + 1)


def tokenize(source: str) -> LexResult:
    """Tokenize C source, returning tokens and collected includes."""
    return Lexer(source).run()
