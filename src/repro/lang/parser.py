"""A recursive-descent parser for DBPL.

Precedence (loosest to tightest)::

    or  <  and  <  not  <  comparisons  <  + -  <  * /  <  unary -
        <  postfix (.label, (args), [TypeArgs], with {…})

``dynamic``, ``typeof`` bind like unary operators; ``coerce e to T``
is a primary form whose operand extends to the mandatory ``to``.

A :class:`ProgramTemplate` is a parsed program with a slot for each
int, float and string literal, from which the programs of the same
shape (:func:`~repro.lang.lexer.literal_shape`) are built unparsed.
"""

from __future__ import annotations

from dataclasses import fields
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import Literal, tokenize
from repro.lang.tokens import (
    EOF,
    FLOAT_LIT,
    IDENT,
    INT_LIT,
    KEYWORD,
    OP,
    STRING_LIT,
    Token,
)

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token plumbing ---------------------------------------------------------

    # The index never passes the EOF token that ends the stream.

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != EOF:
            self._index += 1
        return token

    def _at_op(self, op: str) -> bool:
        token = self._tokens[self._index]
        return token.kind == OP and token.text == op

    def _at_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        return token.kind == KEYWORD and token.text == word

    def _eat_op(self, op: str) -> Token:
        if not self._at_op(op):
            raise ParseError("expected %r" % op, self._peek())
        return self._advance()

    def _eat_keyword(self, word: str) -> Token:
        if not self._at_keyword(word):
            raise ParseError("expected keyword %r" % word, self._peek())
        return self._advance()

    def _eat_ident(self) -> Token:
        token = self._peek()
        if token.kind != IDENT:
            raise ParseError("expected an identifier", token)
        return self._advance()

    def _maybe_semicolon(self) -> None:
        if self._at_op(";"):
            self._advance()

    @staticmethod
    def _pos(token: Token) -> ast.Position:
        return (token.line, token.column)

    # -- program & declarations ---------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse the whole token stream as a program."""
        declarations: List[ast.Decl] = []
        while self._peek().kind != EOF:
            declarations.append(self._declaration())
        return ast.Program(tuple(declarations))

    def _declaration(self) -> ast.Decl:
        if self._at_keyword("type"):
            return self._type_decl()
        if self._at_keyword("fun"):
            return self._fun_decl()
        if self._at_keyword("let"):
            return self._let_decl_or_expr()
        token = self._peek()
        expr = self.parse_expr()
        self._maybe_semicolon()
        return ast.ExprStmt(expr, self._pos(token))

    def _type_decl(self) -> ast.Decl:
        start = self._eat_keyword("type")
        name = self._eat_ident().text
        self._eat_op("=")
        definition = self.parse_type()
        self._maybe_semicolon()
        return ast.TypeDecl(name, definition, self._pos(start))

    def _let_decl_or_expr(self) -> ast.Decl:
        start = self._eat_keyword("let")
        name = self._eat_ident().text
        annotation = None
        if self._at_op(":"):
            self._advance()
            annotation = self.parse_type()
        self._eat_op("=")
        value = self.parse_expr()
        if self._at_keyword("in"):
            # Courtesy: a top-level `let x = e in body` is an expression.
            self._advance()
            body = self.parse_expr()
            self._maybe_semicolon()
            return ast.ExprStmt(
                ast.LetIn(name, annotation, value, body, self._pos(start)),
                self._pos(start),
            )
        self._maybe_semicolon()
        return ast.LetDecl(name, annotation, value, self._pos(start))

    def _fun_decl(self) -> ast.Decl:
        start = self._eat_keyword("fun")
        name = self._eat_ident().text
        type_params: List[ast.TypeParam] = []
        if self._at_op("["):
            self._advance()
            while True:
                param_name = self._eat_ident().text
                bound = None
                if self._at_op("<="):
                    self._advance()
                    bound = self.parse_type()
                type_params.append(ast.TypeParam(param_name, bound))
                if self._at_op(","):
                    self._advance()
                    continue
                break
            self._eat_op("]")
        params = self._param_list()
        self._eat_op(":")
        result = self.parse_type()
        self._eat_op("=")
        body = self.parse_expr()
        self._maybe_semicolon()
        return ast.FunDecl(
            name, tuple(type_params), params, result, body, self._pos(start)
        )

    def _param_list(self) -> Tuple[Tuple[str, ast.TypeExpr], ...]:
        self._eat_op("(")
        params: List[Tuple[str, ast.TypeExpr]] = []
        if not self._at_op(")"):
            while True:
                name = self._eat_ident().text
                self._eat_op(":")
                annotation = self.parse_type()
                params.append((name, annotation))
                if self._at_op(","):
                    self._advance()
                    continue
                break
        self._eat_op(")")
        return tuple(params)

    # -- type expressions -----------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        """Parse a type expression (arrow types right-associative)."""
        left = self._type_postfix()
        if self._at_op("->"):
            self._advance()
            result = self.parse_type()  # right-associative
            return ast.TypeFun((left,), result)
        return left

    def _type_postfix(self) -> ast.TypeExpr:
        base = self._type_primary()
        while self._at_keyword("with"):
            token = self._advance()
            extension = self._type_record()
            base = ast.TypeWith(base, extension, self._pos(token))
        return base

    def _type_primary(self) -> ast.TypeExpr:
        token = self._peek()
        if token.kind == IDENT:
            self._advance()
            if token.text == "List" and self._at_op("["):
                self._advance()
                element = self.parse_type()
                self._eat_op("]")
                return ast.TypeList(element, self._pos(token))
            return ast.TypeName(token.text, self._pos(token))
        if token.is_op("{"):
            return self._type_record()
        if token.is_op("["):
            return self._type_variant()
        if token.is_op("("):
            self._advance()
            items = [self.parse_type()]
            while self._at_op(","):
                self._advance()
                items.append(self.parse_type())
            self._eat_op(")")
            if self._at_op("->"):
                self._advance()
                result = self.parse_type()
                return ast.TypeFun(tuple(items), result, self._pos(token))
            if len(items) == 1:
                return items[0]
            raise ParseError(
                "a parenthesized type list must be followed by '->'", self._peek()
            )
        raise ParseError("expected a type", token)

    def _type_variant(self) -> ast.TypeVariant:
        start = self._eat_op("[")
        cases: List[Tuple[str, ast.TypeExpr]] = []
        while True:
            name = self._eat_ident().text
            self._eat_op(":")
            cases.append((name, self.parse_type()))
            if self._at_op("|"):
                self._advance()
                continue
            break
        self._eat_op("]")
        return ast.TypeVariant(tuple(cases), self._pos(start))

    def _type_record(self) -> ast.TypeRecord:
        start = self._eat_op("{")
        fields: List[Tuple[str, ast.TypeExpr]] = []
        if not self._at_op("}"):
            while True:
                name = self._eat_ident().text
                self._eat_op(":")
                fields.append((name, self.parse_type()))
                if self._at_op(","):
                    self._advance()
                    continue
                break
        self._eat_op("}")
        return ast.TypeRecord(tuple(fields), self._pos(start))

    # -- expressions ---------------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """Parse one expression at the loosest precedence level."""
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._at_keyword("or"):
            token = self._advance()
            right = self._and_expr()
            left = ast.BinOp("or", left, right, self._pos(token))
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._at_keyword("and"):
            token = self._advance()
            right = self._not_expr()
            left = ast.BinOp("and", left, right, self._pos(token))
        return left

    def _not_expr(self) -> ast.Expr:
        if self._at_keyword("not"):
            token = self._advance()
            return ast.UnaryOp("not", self._not_expr(), self._pos(token))
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._peek()
        if token.kind == OP and token.text in _COMPARISONS:
            self._advance()
            right = self._additive()
            return ast.BinOp(token.text, left, right, self._pos(token))
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._peek().kind == OP and self._peek().text in ("+", "-"):
            token = self._advance()
            right = self._multiplicative()
            left = ast.BinOp(token.text, left, right, self._pos(token))
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._peek().kind == OP and self._peek().text in ("*", "/"):
            token = self._advance()
            right = self._unary()
            left = ast.BinOp(token.text, left, right, self._pos(token))
        return left

    def _unary(self) -> ast.Expr:
        token = self._peek()
        if token.is_op("-"):
            self._advance()
            return ast.UnaryOp("-", self._unary(), self._pos(token))
        if token.is_keyword("dynamic"):
            self._advance()
            return ast.DynamicExpr(self._unary(), self._pos(token))
        if token.is_keyword("typeof"):
            self._advance()
            return ast.TypeOfExpr(self._unary(), self._pos(token))
        return self._postfix()

    def _same_line_as_previous(self) -> bool:
        """Is the current token on the same line as the one before it?

        Call and type-application brackets are only postfix when they
        start on the expression's own line; a statement beginning with
        ``[`` or ``(`` on a fresh line is a new expression, not an
        application of the previous one.
        """
        if self._index == 0:
            return True
        return self._peek().line == self._tokens[self._index - 1].line

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            token = self._peek()
            if (
                token.kind == OP
                and token.text in ("(", "[")
                and not self._same_line_as_previous()
            ):
                return expr
            if token.is_op("."):
                self._advance()
                label = self._eat_ident().text
                expr = ast.FieldAccess(expr, label, self._pos(token))
            elif token.is_op("("):
                self._advance()
                arguments: List[ast.Expr] = []
                if not self._at_op(")"):
                    while True:
                        arguments.append(self.parse_expr())
                        if self._at_op(","):
                            self._advance()
                            continue
                        break
                self._eat_op(")")
                expr = ast.Apply(expr, tuple(arguments), self._pos(token))
            elif token.is_op("["):
                self._advance()
                type_args = [self.parse_type()]
                while self._at_op(","):
                    self._advance()
                    type_args.append(self.parse_type())
                self._eat_op("]")
                expr = ast.TypeApply(expr, tuple(type_args), self._pos(token))
            elif token.is_keyword("with"):
                self._advance()
                extension = self._record_literal()
                expr = ast.WithExpr(expr, extension, self._pos(token))
            else:
                return expr

    def _primary(self) -> ast.Expr:
        token = self._peek()
        pos = self._pos(token)
        if token.kind == INT_LIT:
            self._advance()
            return ast.IntLit(int(token.text), pos)
        if token.kind == FLOAT_LIT:
            self._advance()
            return ast.FloatLit(float(token.text), pos)
        if token.kind == STRING_LIT:
            self._advance()
            return ast.StringLit(token.text, pos)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLit(True, pos)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLit(False, pos)
        if token.is_keyword("unit"):
            self._advance()
            return ast.UnitLit(pos)
        if token.kind == IDENT:
            self._advance()
            return ast.Var(token.text, pos)
        if token.is_op("{"):
            return self._record_literal()
        if token.is_op("["):
            self._advance()
            elements: List[ast.Expr] = []
            if not self._at_op("]"):
                while True:
                    elements.append(self.parse_expr())
                    if self._at_op(","):
                        self._advance()
                        continue
                    break
            self._eat_op("]")
            return ast.ListLit(tuple(elements), pos)
        if token.is_op("("):
            self._advance()
            inner = self.parse_expr()
            self._eat_op(")")
            return inner
        if token.is_keyword("if"):
            self._advance()
            condition = self.parse_expr()
            self._eat_keyword("then")
            then_branch = self.parse_expr()
            self._eat_keyword("else")
            else_branch = self.parse_expr()
            return ast.If(condition, then_branch, else_branch, pos)
        if token.is_keyword("let"):
            self._advance()
            name = self._eat_ident().text
            annotation = None
            if self._at_op(":"):
                self._advance()
                annotation = self.parse_type()
            self._eat_op("=")
            bound = self.parse_expr()
            self._eat_keyword("in")
            body = self.parse_expr()
            return ast.LetIn(name, annotation, bound, body, pos)
        if token.is_keyword("fn"):
            self._advance()
            params = self._param_list()
            self._eat_op("=>")
            body = self.parse_expr()
            return ast.Lambda(params, body, pos)
        if token.is_keyword("coerce"):
            self._advance()
            operand = self.parse_expr()
            self._eat_keyword("to")
            target = self.parse_type()
            return ast.CoerceExpr(operand, target, pos)
        if token.is_keyword("tag"):
            self._advance()
            label = self._eat_ident().text
            self._eat_op("(")
            if self._at_op(")"):
                operand: ast.Expr = ast.UnitLit(pos)
            else:
                operand = self.parse_expr()
            self._eat_op(")")
            return ast.TagExpr(label, operand, pos)
        if token.is_keyword("case"):
            self._advance()
            subject = self.parse_expr()
            self._eat_keyword("of")
            arms: List[ast.CaseArm] = []
            while True:
                label = self._eat_ident().text
                binder = self._eat_ident().text
                self._eat_op("=>")
                body = self.parse_expr()
                arms.append(ast.CaseArm(label, binder, body))
                if self._at_op("|"):
                    self._advance()
                    continue
                break
            return ast.CaseExpr(subject, tuple(arms), pos)
        raise ParseError("expected an expression", token)

    def _record_literal(self) -> ast.RecordLit:
        start = self._eat_op("{")
        fields: List[Tuple[str, ast.Expr]] = []
        if not self._at_op("}"):
            while True:
                name = self._eat_ident().text
                self._eat_op("=")
                fields.append((name, self.parse_expr()))
                if self._at_op(","):
                    self._advance()
                    continue
                break
        self._eat_op("}")
        return ast.RecordLit(tuple(fields), self._pos(start))


def parse_program(source: str) -> ast.Program:
    """Parse DBPL source text into a :class:`~repro.lang.ast.Program`."""
    parser = _Parser(tokenize(source))
    return parser.parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single expression (for tests and the checker's API)."""
    parser = _Parser(tokenize(source))
    expr = parser.parse_expr()
    if not parser._peek().kind == EOF:
        raise ParseError("trailing input after expression", parser._peek())
    return expr


def parse_type_expression(source: str) -> ast.TypeExpr:
    """Parse a single type expression."""
    parser = _Parser(tokenize(source))
    type_expr = parser.parse_type()
    if not parser._peek().kind == EOF:
        raise ParseError("trailing input after type", parser._peek())
    return type_expr


# -- templates ---------------------------------------------------------------------

_LITERAL_NODES = {int: ast.IntLit, float: ast.FloatLit, str: ast.StringLit}
_LITERAL_TYPES = tuple(_LITERAL_NODES.values())
# What may hold a literal: type expressions and type parameters never do.
_HOLDERS = (tuple, ast.Expr, ast.Decl, ast.CaseArm)
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(f.name for f in fields(cls))
    return names


class _Node:
    """A node of the walk: the AST node (or tuple), its parent and its
    place there, and, once it holds a literal, its children that do."""

    __slots__ = ("node", "parent", "index", "holding", "slot")

    def __init__(self, node, parent: Optional["_Node"], index: int):
        self.node = node
        self.parent = parent
        self.index = index
        self.holding: Optional[List["_Node"]] = None
        self.slot = -1


class ProgramTemplate:
    """A parsed program with one slot per int, float and string literal.

    :meth:`instantiate` builds the program that parsing the same shape
    with other literal values gives, positions aside: it rebuilds the
    nodes on the path from the root to each literal and shares every
    other node with the template.  Building and instantiating both walk
    with explicit stacks, so nesting depth costs no recursion.
    """

    __slots__ = ("slots", "_program", "_steps")

    def __init__(self, program: ast.Program, slots: int, steps: List[tuple]):
        self.slots = slots
        self._program = program
        # Post-order: (slot, literal class, position, None) pushes a
        # literal; (-1, node class or None for a tuple, field values,
        # holes) pops one rebuilt child per hole and pushes the node.
        self._steps = steps

    @classmethod
    def build(
        cls, program: ast.Program, literals: Sequence[Literal]
    ) -> Optional["ProgramTemplate"]:
        """The template of ``program``, parsed from a source whose
        literals are ``literals``; ``None`` unless the program's literal
        nodes, in source order, match them one for one in kind and value."""
        root = _Node(program, None, 0)
        found: List[Tuple[ast.Position, _Node]] = []
        stack = [root]
        while stack:
            walked = stack.pop()
            node = walked.node
            if isinstance(node, tuple):
                children = enumerate(node)
            else:
                children = (
                    (index, getattr(node, name))
                    for index, name in enumerate(_field_names(type(node)))
                    if name != "pos"
                )
            for index, child in children:
                if isinstance(child, _LITERAL_TYPES):
                    found.append((child.pos, _Node(child, walked, index)))
                elif isinstance(child, _HOLDERS):
                    stack.append(_Node(child, walked, index))
        if len(found) != len(literals):
            return None
        found.sort(key=itemgetter(0))
        for slot, ((__, walked), value) in enumerate(zip(found, literals)):
            node = walked.node
            if type(node) is not _LITERAL_NODES[type(value)] or node.value != value:
                return None
            walked.slot = slot
            # Link the path up to the first node already holding one.
            child, parent = walked, walked.parent
            while parent is not None:
                if parent.holding is not None:
                    parent.holding.append(child)
                    break
                parent.holding = [child]
                child, parent = parent, parent.parent
        steps = _steps(root) if found else []
        return cls(program, len(found), steps)

    def instantiate(self, literals: Sequence[Literal]) -> ast.Program:
        """The program of this shape with ``literals`` in its slots."""
        if not self._steps:
            return self._program
        stack: list = []
        push, pop = stack.append, stack.pop
        for slot, node_class, values, holes in self._steps:
            if holes is None:
                push(node_class(literals[slot], values))
                continue
            args = list(values)
            if len(holes) == 1:
                args[holes[0]] = pop()
            else:
                rebuilt = stack[-len(holes):]
                del stack[-len(holes):]
                for hole, child in zip(holes, rebuilt):
                    args[hole] = child
            push(tuple(args) if node_class is None else node_class(*args))
        return stack[0]


def _steps(root: _Node) -> List[tuple]:
    """The post-order rebuild of every node on a path to a literal."""
    steps: List[tuple] = []
    stack = [(root, False)]
    while stack:
        walked, expanded = stack.pop()
        node = walked.node
        if walked.holding is None:  # a literal
            steps.append((walked.slot, type(node), node.pos, None))
        elif not expanded:
            walked.holding.sort(key=lambda child: child.index)
            stack.append((walked, True))
            stack.extend((child, False) for child in reversed(walked.holding))
        elif isinstance(node, tuple):
            holes = tuple(child.index for child in walked.holding)
            steps.append((-1, None, node, holes))
        else:
            values = tuple(getattr(node, name) for name in _field_names(type(node)))
            holes = tuple(child.index for child in walked.holding)
            steps.append((-1, type(node), values, holes))
    return steps
