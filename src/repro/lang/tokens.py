"""Token definitions for the DBPL lexer."""

from __future__ import annotations

from typing import NamedTuple

# Token kinds
IDENT = "IDENT"
INT_LIT = "INT_LIT"
FLOAT_LIT = "FLOAT_LIT"
STRING_LIT = "STRING_LIT"
KEYWORD = "KEYWORD"
OP = "OP"
EOF = "EOF"

KEYWORDS = frozenset(
    {
        "type",
        "let",
        "fun",
        "in",
        "if",
        "then",
        "else",
        "fn",
        "with",
        "dynamic",
        "coerce",
        "to",
        "typeof",
        "true",
        "false",
        "unit",
        "and",
        "or",
        "not",
        "tag",
        "case",
        "of",
    }
)

# Multi-character operators first, so the lexer can match greedily.
OPERATORS = (
    "=>",
    "==",
    "!=",
    "<=",
    ">=",
    "->",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "|",
)


class Token(NamedTuple):
    """One lexical token with its source position (1-based).

    A named tuple: the lexer builds one per token, and a tuple's
    constructor costs a fraction of a frozen dataclass's ``__init__``.
    """

    kind: str
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """Is this the keyword ``word``?"""
        return self.kind == KEYWORD and self.text == word

    def is_op(self, op: str) -> bool:
        """Is this the operator ``op``?"""
        return self.kind == OP and self.text == op

    def __repr__(self) -> str:
        return "Token(%s, %r, %d:%d)" % (self.kind, self.text, self.line, self.column)
