"""The lexer against the character-at-a-time lexer it replaced.

``reference_tokenize`` is that lexer, kept verbatim as the oracle: on
any text, ``tokenize`` must give the same kinds, texts and positions,
or raise a ``LexError`` with the same message.  The one deliberate
difference is a number's digits: the reference read ``str.isdigit``
characters, which include ``²``, that ``int()`` rejects; a number is now
a run of ``str.isdecimal`` characters, so texts holding a digit that is
not decimal are left to the example tests.
"""

from typing import List

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang.lexer import literal_shape, tokenize
from repro.lang.tokens import (
    EOF,
    FLOAT_LIT,
    IDENT,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    OP,
    OPERATORS,
    STRING_LIT,
    Token,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def reference_tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an EOF token."""
    tokens: List[Token] = []
    index = 0
    line = 1
    column = 1
    length = len(source)

    def error(message: str) -> LexError:
        return LexError(message, line, column)

    while index < length:
        char = source[index]

        # Whitespace
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        # Line comments: -- to end of line
        if source.startswith("--", index):
            while index < length and source[index] != "\n":
                index += 1
            continue

        start_line, start_column = line, column

        # Identifiers and keywords
        if char.isalpha() or char == "_":
            begin = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[begin:index]
            column += index - begin
            kind = KEYWORD if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, start_line, start_column))
            continue

        # Numbers: integer or float (digits '.' digits)
        if char.isdigit():
            begin = index
            while index < length and source[index].isdigit():
                index += 1
            is_float = False
            if (
                index + 1 < length
                and source[index] == "."
                and source[index + 1].isdigit()
            ):
                is_float = True
                index += 1
                while index < length and source[index].isdigit():
                    index += 1
            text = source[begin:index]
            column += index - begin
            kind = FLOAT_LIT if is_float else INT_LIT
            tokens.append(Token(kind, text, start_line, start_column))
            continue

        # Strings
        if char == '"':
            index += 1
            column += 1
            chars: List[str] = []
            while True:
                if index >= length:
                    raise error("unterminated string literal")
                current = source[index]
                if current == '"':
                    index += 1
                    column += 1
                    break
                if current == "\n":
                    raise error("newline in string literal")
                if current == "\\":
                    if index + 1 >= length:
                        raise error("dangling escape in string literal")
                    escape = source[index + 1]
                    if escape not in _ESCAPES:
                        raise error("unknown escape \\%s" % escape)
                    chars.append(_ESCAPES[escape])
                    index += 2
                    column += 2
                    continue
                chars.append(current)
                index += 1
                column += 1
            tokens.append(
                Token(STRING_LIT, "".join(chars), start_line, start_column)
            )
            continue

        # Operators (longest match first)
        for op in OPERATORS:
            if source.startswith(op, index):
                index += len(op)
                column += len(op)
                tokens.append(Token(OP, op, start_line, start_column))
                break
        else:
            raise error("unexpected character %r" % char)

    tokens.append(Token(EOF, "", line, column))
    return tokens


def lexed(lex, source):
    try:
        return [tuple(token) for token in lex(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.column)


# Pieces the lexer treats specially, and characters it treats alike
# only by their Unicode class: letters, decimal digits of other
# scripts, numerics that are neither, and other whitespace.
pieces = st.sampled_from(
    list('azAZ_09 \t\r\n"\\-=<>!(){}[],;:.+*/|#$@') + [
        "--", "->", "=>", "==", "!=", "<=", ">=", "let", "in", "typeX",
        '"a"', '"\\n"', '"\\q"', "1.5", "3.", ".7", "L17", "w1a5",
        "é", "ß", "ǅ", "\u0663", "\u0968", "½", "Ⅻ", "\u00a0", "\x0c", "\x00",
    ]
)
texts = st.lists(pieces, max_size=24).map("".join)


def decimal_digits_only(text):
    return all(char.isdecimal() or not char.isdigit() for char in text)


class TestAgainstTheReference:
    @given(texts)
    @settings(max_examples=3000, deadline=None)
    @example("1 -- trailing comment")
    @example("x\n  -- a comment\n  \t")
    @example('"unterminated')
    @example('"dangling \\')
    @example('"new\nline"')
    def test_tokens_positions_and_errors_match(self, text):
        assume(decimal_digits_only(text))
        assert lexed(tokenize, text) == lexed(reference_tokenize, text)

    @given(st.text(max_size=40))
    @settings(max_examples=2000, deadline=None)
    def test_on_any_text(self, text):
        assume(decimal_digits_only(text))
        assert lexed(tokenize, text) == lexed(reference_tokenize, text)


class TestDecimalDigits:
    def test_a_superscript_two_is_an_unexpected_character(self):
        # The reference read "1²" as one INT_LIT that int() rejects.
        with pytest.raises(LexError, match="unexpected character '²'") as excinfo:
            tokenize("1²")
        assert (excinfo.value.line, excinfo.value.column) == (1, 2)

    def test_a_superscript_may_still_continue_an_identifier(self):
        assert [tuple(token) for token in tokenize("x²")] == [
            (IDENT, "x²", 1, 1),
            (EOF, "", 1, 3),
        ]

    def test_other_scripts_decimal_digits_are_numbers(self):
        assert [token.kind for token in tokenize("\u0663\u0664.\u0665")] == [
            FLOAT_LIT,
            EOF,
        ]


class TestShapeScanAgreesWithTheLexer:
    @given(texts)
    @settings(max_examples=2000, deadline=None)
    def test_the_scan_finds_the_lexers_literals(self, text):
        try:
            tokens = tokenize(text)
        except LexError:
            return
        expected = []
        for token in tokens:
            if token.kind == INT_LIT:
                expected.append(int(token.text))
            elif token.kind == FLOAT_LIT:
                expected.append(float(token.text))
            elif token.kind == STRING_LIT:
                expected.append(token.text)
        literals = literal_shape(text)[1]
        assert [(type(value), value) for value in literals] == [
            (type(value), value) for value in expected
        ]
