"""The master-regex lexer against the per-character reference lexer.

Both must agree on every input: the same tokens at the same line:col, the
same includes, or the same ``LexError`` message (front-end errors are
recorded in checkpoints, so their text is part of the output).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_lexer import Lexer as ReferenceLexer

from repro.errors import LexError
from repro.frontend.lexer import Lexer
from repro.frontend.tokens import PUNCTUATORS

FRAGMENTS = (
    # numbers, including the shapes that stop short of a float
    "0", "12", "1.", ".5", "1e+", "1e5f", "1f", "1.e5", "3.25e-3", "1E+5F",
    "1e", "..5", "1.5ff", "007",
    # punctuators and near misses
    *PUNCTUATORS, "<<=", ">>", "<<", "...", "*/", "#", "@", "$", "`", "\\",
    # strings, escapes and unterminated ones
    '"a"', '"%.17g\\n"', '"\\\\"', '"a\\"b"', '"', '"open', '"x\\', '"\\\n"',
    # comments, closed and not
    "// note\n", "//", "/* c */", "/* multi\nline */", "/*", "/*/", "/**/",
    # directives at and off column 1
    "#include <math.h>", '#include "x.h"', "#include math.h", "#include<stdio.h>",
    "#include", "#define N 4", "#pragma once", " #include <a.h>",
    # blanks
    " ", "\t", "\n", "\r", "\r\n", "\n\n", "\x0c",
    # keywords and identifiers
    "double", "int", "for", "compute", "_x1", "a_b",
    # non-ASCII: letters, non-decimal digits, other numerics, symbols
    "é", "π", "日本", "²", "٣", "½", "Ⅷ", "→", " ",
)

texts = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
        st.from_regex(r"[0-9]{1,4}(\.[0-9]{0,3})?([eE][+-]?[0-9]{0,2})?[fF]?", fullmatch=True),
        st.characters(max_codepoint=0x2FFF),
    ),
    max_size=40,
).map("".join)


def outcome(lexer_cls, source):
    try:
        result = lexer_cls(source).run()
    except LexError as e:
        return ("error", str(e), e.line, e.column)
    tokens = [(t.kind, t.text, t.line, t.column) for t in result.tokens]
    return ("ok", tokens, result.includes)


@settings(max_examples=600, deadline=None)
@given(texts)
def test_same_tokens_includes_and_errors(source):
    assert outcome(Lexer, source) == outcome(ReferenceLexer, source)


@pytest.mark.parametrize(
    "source, message",
    [
        ("int x = 1;\n  @", "2:3: unexpected character '@'"),
        ("a →", "1:3: unexpected character '→'"),
        ("x\n/* open\n comment", "3:9: unterminated block comment"),
        ('y = "abc\n";', "1:9: unterminated string literal"),
        ('z = "tail\\', "1:11: unterminated string literal"),
        ('s = "a\\\nb', "2:2: unterminated string literal"),
        ("\n#include math.h\n", "2:1: malformed include: '#include math.h'"),
        ("#define N 4\n", "1:1: unsupported preprocessor directive: '#define N 4'"),
        ("int a;\n  #include <math.h>", "2:3: unexpected character '#'"),
    ],
)
def test_error_paths_match_the_reference(source, message):
    assert outcome(Lexer, source)[:2] == ("error", message)
    assert outcome(ReferenceLexer, source)[:2] == ("error", message)
