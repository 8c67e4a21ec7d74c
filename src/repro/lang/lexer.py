"""The DBPL lexer.

Handles identifiers/keywords, integer and float literals, double-quoted
strings with escapes, operators, and ``--`` line comments.  Positions
are tracked for error messages.

One regular-expression match per token skips the whitespace and
comments before it and recognizes the token; only a string with an
escape, and the errors, take the character-by-character path.  A
number is a run of decimal digits (``str.isdecimal``, regex ``\\d``):
exactly what ``int()`` and ``float()`` accept.

:func:`literal_shape` reads a statement's shape without building
tokens: its text with each literal replaced by a marker of its kind.
"""

from __future__ import annotations

import re
from typing import List, Tuple, Union

from repro.errors import LexError
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

# Whitespace and comments (group 1), then one token: a number (2), a
# word (3), an escape-free string with its quotes (4), an operator (5,
# longest first), or else one other character (6): the opening quote of
# a string with an escape, an error, or nothing at the end of input.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|--[^\n]*)*)"
    r"(?:(\d+(?:\.\d+)?)|(\w+)|(\"[^\"\\\n]*\")|(%s)|(.?))"
    % "|".join(re.escape(op) for op in OPERATORS),
    re.DOTALL,
)

# Builds a Token from one tuple, skipping the named tuple's own __new__.
_new_token = tuple.__new__


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into a token list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    index = 0
    line = 1
    line_start = 0  # where the current line begins in ``source``
    while True:
        for skip, number, word, string, op, other in _TOKEN.findall(source, index):
            if skip:
                newline = skip.rfind("\n")
                if newline >= 0:
                    line += skip.count("\n")
                    line_start = index + newline + 1
                index += len(skip)
            column = index - line_start + 1
            if word:
                if not (word[0].isalpha() or word[0] == "_"):
                    raise LexError("unexpected character %r" % word[0], line, column)
                kind = KEYWORD if word in KEYWORDS else IDENT
                append(_new_token(Token, (kind, word, line, column)))
                index += len(word)
            elif op:
                append(_new_token(Token, (OP, op, line, column)))
                index += len(op)
            elif number:
                kind = FLOAT_LIT if "." in number else INT_LIT
                append(_new_token(Token, (kind, number, line, column)))
                index += len(number)
            elif string:
                append(_new_token(Token, (STRING_LIT, string[1:-1], line, column)))
                index += len(string)
            elif other == '"':
                break
            elif other:
                raise LexError("unexpected character %r" % other, line, column)
            else:
                column = _eof_column(source, index - len(skip), line_start)
                append(_new_token(Token, (EOF, "", line, column)))
                return tokens
        text, end = _escaped_string(source, index, line, line_start)
        append(_new_token(Token, (STRING_LIT, text, line, index - line_start + 1)))
        index = end


def _eof_column(source: str, index: int, line_start: int) -> int:
    """The EOF token's column: past the last character, or where a
    comment that ends the input begins (a comment moves no column)."""
    comment = source.find("--", max(index, line_start))
    end = comment if comment >= 0 else len(source)
    return end - line_start + 1


def _escaped_string(
    source: str, begin: int, line: int, line_start: int
) -> Tuple[str, int]:
    """The string literal whose quote is at ``begin``, one character at a
    time, and the index past it; errors name the offending character."""
    chars: List[str] = []
    index = begin + 1
    length = len(source)
    while True:
        if index >= length:
            raise LexError(
                "unterminated string literal", line, index - line_start + 1
            )
        current = source[index]
        if current == '"':
            return "".join(chars), index + 1
        if current == "\n":
            raise LexError(
                "newline in string literal", line, index - line_start + 1
            )
        if current == "\\":
            if index + 1 >= length:
                raise LexError(
                    "dangling escape in string literal",
                    line,
                    index - line_start + 1,
                )
            escape = source[index + 1]
            if escape not in _ESCAPES:
                raise LexError(
                    "unknown escape \\%s" % escape, line, index - line_start + 1
                )
            chars.append(_ESCAPES[escape])
            index += 2
            continue
        chars.append(current)
        index += 1


Literal = Union[int, float, str]

# A comment, a string with valid escapes only (group 1), or a number
# (group 2) that starts no later than its token: a digit after a word
# character belongs to an identifier.  These are the lexer's own rules,
# so on any source the lexer accepts, the matches are its literals.
_LITERAL = re.compile(r'--[^\n]*|"((?:[^"\\\n]|\\[nt"\\])*)"|(?<!\w)(\d+(?:\.\d+)?)')
_ESCAPE = re.compile(r"\\(.)")

# The markers that stand for literals in a shape.  They need not be
# impossible in source text: outside strings and comments the lexer
# rejects them, so a shape's literal count tells their origins apart.
_INT_SLOT = "\0i"
_FLOAT_SLOT = "\0f"
_STRING_SLOT = "\0s"


def literal_shape(source: str) -> Tuple[str, List[Literal]]:
    """``source``'s shape and its literals' values, in source order.

    The shape is the text with comments dropped and each int, float and
    string literal replaced by a marker of its kind; everything else,
    line breaks included, stays.  Two sources with one shape and as
    many literals lex alike but for those values.
    """
    literals: List[Literal] = []

    def slot(found) -> str:
        string, number = found.groups()
        if string is not None:
            if "\\" in string:
                string = _ESCAPE.sub(_unescape, string)
            literals.append(string)
            return _STRING_SLOT
        if number is None:
            return ""  # a comment
        if "." in number:
            literals.append(float(number))
            return _FLOAT_SLOT
        try:
            literals.append(int(number))
        except ValueError:  # past int()'s digit limit: left to the parser
            return number
        return _INT_SLOT

    return _LITERAL.sub(slot, source), literals


def _unescape(found) -> str:
    return _ESCAPES[found.group(1)]
