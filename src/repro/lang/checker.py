"""The DBPL static type checker.

Every program is checked before it runs.  The checker implements the
Cardelli–Wegner discipline over :mod:`repro.types`:

* subsumption at every use site (an argument of a subtype is accepted);
* record types from literals; ``e with {…}`` types as the *meet* of the
  record types (statically inconsistent extensions are compile errors);
* ``if`` joins its branches;
* bounded-polymorphic functions (``fun f[t <= B]…``) acquire nested
  ``ForAll`` types; explicit instantiation ``f[T]`` checks ``T ≤ B``,
  and direct application of a polymorphic function infers its type
  arguments by first-order matching;
* ``dynamic e : Dynamic`` for any ``e``; using a Dynamic where an Int is
  wanted is a *static* error (the paper's "any attempt to use an integer
  operation on d is a (static) type error"); ``coerce e to T : T``
  requires ``e : Dynamic``; ``typeof e : Type``;
* existential results of ``get[T]`` are usable at ``T`` via the
  unpacking rule, so ``get[Employee](db)`` flows into
  ``map(fn(e: Employee) => …, …)`` with no dynamic checks in user code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TypeCheckError, UnknownTypeError
from repro.lang import ast
from repro.types.equivalence import substitute
from repro.types.kinds import (
    BOOL,
    BOTTOM,
    DYNAMIC,
    FLOAT,
    INT,
    STRING,
    TOP,
    TYPE,
    UNIT,
    BaseType,
    Exists,
    ForAll,
    FunctionType,
    ListType,
    Mu,
    RecordType,
    RecVar,
    Type,
    TypeVar,
    VariantType,
    unfold,
)
from repro.types.subtyping import is_subtype, join_types, meet_types

#: The opaque type of mutable database values.
DATABASE = BaseType("Database")

#: The opaque type of generalized relations (cochains of partial records).
RELATION = BaseType("Relation")

_BUILTIN_TYPE_NAMES: Dict[str, Type] = {
    "Int": INT,
    "Float": FLOAT,
    "String": STRING,
    "Bool": BOOL,
    "Unit": UNIT,
    "Dynamic": DYNAMIC,
    "Type": TYPE,
    "Top": TOP,
    "Database": DATABASE,
    "Relation": RELATION,
}


def builtin_signatures() -> Dict[str, Type]:
    """The types of the built-in values (shared with the evaluator)."""
    a, b = TypeVar("a"), TypeVar("b")
    return {
        "newdb": FunctionType([], DATABASE),
        "insert": FunctionType([DATABASE, DYNAMIC], UNIT),
        "remove": FunctionType([DATABASE, DYNAMIC], UNIT),
        "size": FunctionType([DATABASE], INT),
        # Get : ∀t. Database -> List[∃u <= t. u]
        "get": ForAll(
            "t",
            FunctionType(
                [DATABASE], ListType(Exists("u", TypeVar("u"), bound=TypeVar("t")))
            ),
        ),
        "extern": FunctionType([STRING, DYNAMIC], UNIT),
        "intern": FunctionType([STRING], DYNAMIC),
        "map": ForAll(
            "a",
            ForAll("b", FunctionType([FunctionType([a], b), ListType(a)], ListType(b))),
        ),
        "filter": ForAll(
            "a",
            FunctionType([FunctionType([a], BOOL), ListType(a)], ListType(a)),
        ),
        "fold": ForAll(
            "a",
            ForAll(
                "b",
                FunctionType([FunctionType([b, a], b), b, ListType(a)], b),
            ),
        ),
        "append": ForAll(
            "a", FunctionType([ListType(a), ListType(a)], ListType(a))
        ),
        "cons": ForAll("a", FunctionType([a, ListType(a)], ListType(a))),
        "head": ForAll("a", FunctionType([ListType(a)], a)),
        "tail": ForAll("a", FunctionType([ListType(a)], ListType(a))),
        "isEmpty": ForAll("a", FunctionType([ListType(a)], BOOL)),
        "length": ForAll("a", FunctionType([ListType(a)], INT)),
        "sum": FunctionType([ListType(FLOAT)], FLOAT),
        "intToFloat": FunctionType([INT], FLOAT),
        "print": FunctionType([TOP], UNIT),
        "show": FunctionType([TOP], STRING),
        # Generalized relations (the paper's Figure 1 algebra).  Records
        # flow in at any record type; out they come existentially — we
        # type members at the empty record {} (every record's supertype).
        "relation": ForAll(
            "r", FunctionType([ListType(TypeVar("r"))], RELATION),
            bound=RecordType({}),
        ),
        "rinsert": ForAll(
            "r", FunctionType([RELATION, TypeVar("r")], RELATION),
            bound=RecordType({}),
        ),
        "rjoin": FunctionType([RELATION, RELATION], RELATION),
        "rproject": FunctionType([RELATION, ListType(STRING)], RELATION),
        "rmatch": ForAll(
            "r", FunctionType([RELATION, TypeVar("r")], RELATION),
            bound=RecordType({}),
        ),
        "rmembers": FunctionType([RELATION], ListType(RecordType({}))),
        "rcount": FunctionType([RELATION], INT),
        "rleq": FunctionType([RELATION, RELATION], BOOL),
    }


class CheckEnv:
    """Lexically scoped environment of value, type-name, and bound info."""

    def __init__(
        self,
        values: Optional[Dict[str, Type]] = None,
        type_names: Optional[Dict[str, Type]] = None,
        bounds: Optional[Dict[str, Type]] = None,
    ):
        self.values = dict(values or {})
        self.type_names = dict(type_names or {})
        self.bounds = dict(bounds or {})

    def child(self) -> "CheckEnv":
        """A nested scope (copies — scopes are small)."""
        return CheckEnv(self.values, self.type_names, self.bounds)

    @classmethod
    def initial(cls) -> "CheckEnv":
        """The top-level environment with builtins in scope."""
        return cls(values=builtin_signatures(), type_names=_BUILTIN_TYPE_NAMES)


# ---------------------------------------------------------------------------
# Type-expression resolution
# ---------------------------------------------------------------------------


def resolve_type(expr: ast.TypeExpr, env: CheckEnv) -> Type:
    """Resolve a source-level type expression to a semantic Type."""
    if isinstance(expr, ast.TypeName):
        if expr.name in env.bounds:
            return TypeVar(expr.name)
        resolved = env.type_names.get(expr.name)
        if resolved is None:
            raise UnknownTypeError(
                "unknown type %r at %s" % (expr.name, _at(expr.pos))
            )
        return resolved
    if isinstance(expr, ast.TypeRecord):
        fields: Dict[str, Type] = {}
        for label, field_expr in expr.fields:
            if label in fields:
                raise TypeCheckError(
                    "duplicate field %r in record type" % label, _at(expr.pos)
                )
            fields[label] = resolve_type(field_expr, env)
        return RecordType(fields)
    if isinstance(expr, ast.TypeList):
        return ListType(resolve_type(expr.element, env))
    if isinstance(expr, ast.TypeVariant):
        cases: Dict[str, Type] = {}
        for label, case_expr in expr.cases:
            if label in cases:
                raise TypeCheckError(
                    "duplicate case %r in variant type" % label, _at(expr.pos)
                )
            cases[label] = resolve_type(case_expr, env)
        return VariantType(cases)
    if isinstance(expr, ast.TypeFun):
        return FunctionType(
            [resolve_type(p, env) for p in expr.params],
            resolve_type(expr.result, env),
        )
    if isinstance(expr, ast.TypeWith):
        base = resolve_type(expr.base, env)
        extension = resolve_type(expr.extension, env)
        if not isinstance(base, RecordType) or not isinstance(extension, RecordType):
            raise TypeCheckError(
                "'with' extends record types only", _at(expr.pos)
            )
        met = meet_types(base, extension)
        if met is None:
            raise TypeCheckError(
                "extension %s contradicts base %s" % (extension, base),
                _at(expr.pos),
            )
        return met
    raise TypeCheckError("unhandled type expression %r" % (expr,))


def _at(pos: ast.Position) -> str:
    return "line %d, column %d" % pos


# ---------------------------------------------------------------------------
# Expression checking
# ---------------------------------------------------------------------------


def expose(t: Type, env: CheckEnv) -> Type:
    """Reveal what a value of type ``t`` can be *used as*.

    Type variables widen to their bound; existentials of the shape
    ``∃v ≤ B. v`` widen to ``B`` (the unpacking rule) — this is what
    lets a field of an extracted object be read statically.
    """
    while True:
        if isinstance(t, TypeVar):
            bound = env.bounds.get(t.name)
            if bound is None:
                return t
            t = bound
            continue
        if isinstance(t, Exists) and t.body == TypeVar(t.var):
            t = t.bound
            continue
        if isinstance(t, Mu):
            t = unfold(t)  # one layer is all field access ever needs
            continue
        return t


def check_expr(expr: ast.Expr, env: CheckEnv) -> Type:
    """Infer the type of ``expr`` under ``env`` (raises on error)."""
    if isinstance(expr, ast.IntLit):
        return INT
    if isinstance(expr, ast.FloatLit):
        return FLOAT
    if isinstance(expr, ast.StringLit):
        return STRING
    if isinstance(expr, ast.BoolLit):
        return BOOL
    if isinstance(expr, ast.UnitLit):
        return UNIT

    if isinstance(expr, ast.Var):
        found = env.values.get(expr.name)
        if found is None:
            raise TypeCheckError("unbound variable %r" % expr.name, _at(expr.pos))
        return found

    if isinstance(expr, ast.RecordLit):
        fields: Dict[str, Type] = {}
        for label, field_expr in expr.fields:
            if label in fields:
                raise TypeCheckError(
                    "duplicate field %r in record" % label, _at(expr.pos)
                )
            fields[label] = check_expr(field_expr, env)
        return RecordType(fields)

    if isinstance(expr, ast.ListLit):
        element = BOTTOM
        for item in expr.elements:
            element = join_types(element, check_expr(item, env))
        return ListType(element)

    if isinstance(expr, ast.FieldAccess):
        subject = expose(check_expr(expr.subject, env), env)
        if not isinstance(subject, RecordType):
            raise TypeCheckError(
                "field access on non-record type %s" % subject, _at(expr.pos)
            )
        field_type = subject.field(expr.label)
        if field_type is None:
            raise TypeCheckError(
                "type %s has no field %r" % (subject, expr.label), _at(expr.pos)
            )
        return field_type

    if isinstance(expr, ast.WithExpr):
        subject = expose(check_expr(expr.subject, env), env)
        extension = check_expr(expr.extension, env)
        if not isinstance(subject, RecordType):
            raise TypeCheckError(
                "'with' extends records; got %s" % subject, _at(expr.pos)
            )
        assert isinstance(extension, RecordType)
        met = meet_types(subject, extension)
        if met is None:
            raise TypeCheckError(
                "extension %s is inconsistent with %s" % (extension, subject),
                _at(expr.pos),
            )
        return met

    if isinstance(expr, ast.If):
        condition = check_expr(expr.condition, env)
        if not is_subtype(condition, BOOL):
            raise TypeCheckError(
                "if condition must be Bool, got %s" % condition, _at(expr.pos)
            )
        then_type = check_expr(expr.then_branch, env)
        else_type = check_expr(expr.else_branch, env)
        return join_types(then_type, else_type)

    if isinstance(expr, ast.LetIn):
        bound_type = check_expr(expr.bound, env)
        if expr.annotation is not None:
            declared = resolve_type(expr.annotation, env)
            _require_subtype(bound_type, declared, expr.pos, "let binding")
            bound_type = declared
        inner = env.child()
        inner.values[expr.name] = bound_type
        return check_expr(expr.body, inner)

    if isinstance(expr, ast.Lambda):
        inner = env.child()
        param_types = []
        for name, annotation in expr.params:
            param_type = resolve_type(annotation, env)
            inner.values[name] = param_type
            param_types.append(param_type)
        result = check_expr(expr.body, inner)
        return FunctionType(param_types, result)

    if isinstance(expr, ast.TypeApply):
        function = check_expr(expr.function, env)
        for type_arg_expr in expr.type_args:
            if not isinstance(function, ForAll):
                raise TypeCheckError(
                    "%s is not polymorphic; cannot instantiate" % function,
                    _at(expr.pos),
                )
            type_arg = resolve_type(type_arg_expr, env)
            if not is_subtype(type_arg, function.bound, env.bounds):
                raise TypeCheckError(
                    "type argument %s exceeds bound %s"
                    % (type_arg, function.bound),
                    _at(expr.pos),
                )
            function = substitute(function.body, {function.var: type_arg})
        return function

    if isinstance(expr, ast.Apply):
        function = check_expr(expr.function, env)
        argument_types = [check_expr(a, env) for a in expr.arguments]
        if isinstance(function, ForAll):
            function = _infer_instantiation(
                function, argument_types, env, expr.pos
            )
        function = expose(function, env)
        if not isinstance(function, FunctionType):
            raise TypeCheckError(
                "cannot apply non-function of type %s" % function, _at(expr.pos)
            )
        if len(function.params) != len(argument_types):
            raise TypeCheckError(
                "expected %d arguments, got %d"
                % (len(function.params), len(argument_types)),
                _at(expr.pos),
            )
        for i, (param, argument) in enumerate(
            zip(function.params, argument_types)
        ):
            _require_subtype(
                argument, param, expr.pos, "argument %d" % (i + 1)
            )
        return function.result

    if isinstance(expr, ast.BinOp):
        return _check_binop(expr, env)

    if isinstance(expr, ast.UnaryOp):
        operand = check_expr(expr.operand, env)
        if expr.op == "not":
            _require_subtype(operand, BOOL, expr.pos, "'not' operand")
            return BOOL
        if expr.op == "-":
            _require_subtype(operand, FLOAT, expr.pos, "negation operand")
            return operand if operand == INT else FLOAT
        raise TypeCheckError("unknown unary operator %r" % expr.op, _at(expr.pos))

    if isinstance(expr, ast.TagExpr):
        operand = check_expr(expr.operand, env)
        # The minimal (singleton) variant type; width subtyping widens it.
        return VariantType({expr.label: operand})

    if isinstance(expr, ast.CaseExpr):
        subject = expose(check_expr(expr.subject, env), env)
        if not isinstance(subject, VariantType):
            raise TypeCheckError(
                "case subject must have a variant type, got %s" % subject,
                _at(expr.pos),
            )
        covered: Dict[str, bool] = {}
        result = BOTTOM
        for arm in expr.arms:
            if arm.label in covered:
                raise TypeCheckError(
                    "duplicate arm %r" % arm.label, _at(expr.pos)
                )
            covered[arm.label] = True
            # An arm outside the subject's cases can never fire (the
            # subject may be a narrow singleton like `tag some(3)`); it
            # is still checked, with its binder at Bottom.
            case_type = subject.case(arm.label)
            inner = env.child()
            inner.values[arm.binder] = (
                case_type if case_type is not None else BOTTOM
            )
            result = join_types(result, check_expr(arm.body, inner))
        missing = [
            label for label, __ in subject.cases if label not in covered
        ]
        if missing:
            raise TypeCheckError(
                "case is not exhaustive: missing %r" % (missing,),
                _at(expr.pos),
            )
        return result

    if isinstance(expr, ast.DynamicExpr):
        check_expr(expr.operand, env)  # any well-typed value may be sealed
        return DYNAMIC

    if isinstance(expr, ast.CoerceExpr):
        operand = check_expr(expr.operand, env)
        _require_subtype(operand, DYNAMIC, expr.pos, "coerce operand")
        return resolve_type(expr.target, env)

    if isinstance(expr, ast.TypeOfExpr):
        operand = check_expr(expr.operand, env)
        _require_subtype(operand, DYNAMIC, expr.pos, "typeof operand")
        return TYPE

    raise TypeCheckError("unhandled expression %r" % (expr,))


def _require_subtype(
    actual: Type, wanted: Type, pos: ast.Position, what: str
) -> None:
    if not is_subtype(actual, wanted):
        raise TypeCheckError(
            "%s has type %s, expected (a subtype of) %s" % (what, actual, wanted),
            _at(pos),
        )


_NUMERIC_OPS = ("+", "-", "*", "/")
_ORDER_OPS = ("<", "<=", ">", ">=")


def _check_binop(expr: ast.BinOp, env: CheckEnv) -> Type:
    left = check_expr(expr.left, env)
    right = check_expr(expr.right, env)
    op = expr.op
    if op in ("and", "or"):
        _require_subtype(left, BOOL, expr.pos, "'%s' left operand" % op)
        _require_subtype(right, BOOL, expr.pos, "'%s' right operand" % op)
        return BOOL
    if op in ("==", "!="):
        if meet_types(left, right) is None and join_types(left, right) == TOP:
            raise TypeCheckError(
                "cannot compare unrelated types %s and %s" % (left, right),
                _at(expr.pos),
            )
        return BOOL
    if op == "+" and left == STRING and right == STRING:
        return STRING
    if op in _NUMERIC_OPS:
        _require_subtype(left, FLOAT, expr.pos, "'%s' left operand" % op)
        _require_subtype(right, FLOAT, expr.pos, "'%s' right operand" % op)
        return INT if left == INT and right == INT else FLOAT
    if op in _ORDER_OPS:
        if left == STRING and right == STRING:
            return BOOL
        _require_subtype(left, FLOAT, expr.pos, "'%s' left operand" % op)
        _require_subtype(right, FLOAT, expr.pos, "'%s' right operand" % op)
        return BOOL
    raise TypeCheckError("unknown operator %r" % op, _at(expr.pos))


# ---------------------------------------------------------------------------
# Type-argument inference for direct application of polymorphic values
# ---------------------------------------------------------------------------


def _infer_instantiation(
    poly: ForAll,
    argument_types: List[Type],
    env: CheckEnv,
    pos: ast.Position,
) -> Type:
    """Infer type arguments for ``poly`` from the actual argument types.

    First-order matching of each parameter pattern against the argument
    type; multiple constraints on one variable join.  Unconstrained
    variables default to their bound.
    """
    variables: List[Tuple[str, Type]] = []
    body: Type = poly
    while isinstance(body, ForAll):
        variables.append((body.var, body.bound))
        body = body.body
    if not isinstance(body, FunctionType) or len(body.params) != len(
        argument_types
    ):
        raise TypeCheckError(
            "cannot infer instantiation of %s for %d argument(s); "
            "instantiate explicitly with f[T]" % (poly, len(argument_types)),
            _at(pos),
        )
    bindings: Dict[str, Type] = {}
    var_names = {name for name, __ in variables}
    for pattern, argument in zip(body.params, argument_types):
        _match(pattern, argument, var_names, bindings, env)
    substitution: Dict[str, Type] = {}
    for name, bound in variables:
        inferred = bindings.get(name, bound)
        if not is_subtype(inferred, bound, env.bounds):
            raise TypeCheckError(
                "inferred type argument %s for %s exceeds bound %s"
                % (inferred, name, bound),
                _at(pos),
            )
        substitution[name] = inferred
    return substitute(body, substitution)


def _match(
    pattern: Type,
    actual: Type,
    variables: set,
    bindings: Dict[str, Type],
    env: CheckEnv,
) -> None:
    """Accumulate variable bindings making ``pattern`` cover ``actual``.

    Existential wrappers of the ``∃v ≤ B. v`` shape are unwrapped to
    ``B`` at every level, so the elements of a ``get[Employee]`` result
    bind a list-element variable to ``Employee``.  Type *variables* are
    deliberately NOT widened to their bounds here: inside a polymorphic
    body, ``map`` applied at element type ``t`` must bind to ``t``
    itself, not to ``t``'s bound.
    """
    while isinstance(actual, Exists) and actual.body == TypeVar(actual.var):
        actual = actual.bound
    if isinstance(pattern, TypeVar) and pattern.name in variables:
        existing = bindings.get(pattern.name)
        bindings[pattern.name] = (
            actual if existing is None else join_types(existing, actual)
        )
        return
    if isinstance(pattern, ListType) and isinstance(actual, ListType):
        _match(pattern.element, actual.element, variables, bindings, env)
        return
    if isinstance(pattern, RecordType) and isinstance(actual, RecordType):
        for label, field_pattern in pattern.fields:
            actual_field = actual.field(label)
            if actual_field is not None:
                _match(field_pattern, actual_field, variables, bindings, env)
        return
    if isinstance(pattern, FunctionType) and isinstance(actual, FunctionType):
        for p, a in zip(pattern.params, actual.params):
            _match(p, a, variables, bindings, env)
        _match(pattern.result, actual.result, variables, bindings, env)
        return
    if isinstance(pattern, Exists) and isinstance(actual, Exists):
        _match(pattern.bound, actual.bound, variables, bindings, env)
        return
    # Base types, mismatched constructors: nothing to bind.


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


def check_decl(decl: ast.Decl, env: CheckEnv) -> Optional[Type]:
    """Check one declaration, extending ``env`` in place.

    Returns the type of an expression statement, else ``None``.
    """
    if isinstance(decl, ast.TypeDecl):
        if decl.name in _BUILTIN_TYPE_NAMES:
            raise TypeCheckError(
                "cannot redefine builtin type %r" % decl.name, _at(decl.pos)
            )
        # Allow self-reference: resolve the body with the declared name
        # bound to a recursion variable; tie the knot with Mu when used.
        inner = env.child()
        inner.type_names[decl.name] = RecVar(decl.name)
        resolved = resolve_type(decl.definition, inner)
        if _mentions_recvar(resolved, decl.name):
            resolved = Mu(decl.name, resolved)
        env.type_names[decl.name] = resolved
        return None

    if isinstance(decl, ast.LetDecl):
        value_type = check_expr(decl.value, env)
        if decl.annotation is not None:
            declared = resolve_type(decl.annotation, env)
            _require_subtype(value_type, declared, decl.pos, "let binding")
            value_type = declared
        env.values[decl.name] = value_type
        return None

    if isinstance(decl, ast.FunDecl):
        inner = env.child()
        quantified: List[Tuple[str, Type]] = []
        for type_param in decl.type_params:
            bound = (
                resolve_type(type_param.bound, inner)
                if type_param.bound is not None
                else TOP
            )
            inner.bounds[type_param.name] = bound
            quantified.append((type_param.name, bound))
        param_types = []
        for name, annotation in decl.params:
            param_type = resolve_type(annotation, inner)
            inner.values[name] = param_type
            param_types.append(param_type)
        result_type = resolve_type(decl.result, inner)
        function_type: Type = FunctionType(param_types, result_type)
        for name, bound in reversed(quantified):
            function_type = ForAll(name, function_type, bound)
        inner.values[decl.name] = function_type  # recursion
        body_type = check_expr(decl.body, inner)
        _require_subtype(
            body_type, result_type, decl.pos, "body of %r" % decl.name
        )
        env.values[decl.name] = function_type
        return None

    if isinstance(decl, ast.ExprStmt):
        return check_expr(decl.expr, env)

    raise TypeCheckError("unhandled declaration %r" % (decl,))


def _mentions_recvar(t: Type, name: str) -> bool:
    """Does ``RecVar(name)`` occur (free) in ``t``?"""
    if isinstance(t, RecVar):
        return t.name == name
    if isinstance(t, Mu):
        return t.var != name and _mentions_recvar(t.body, name)
    if isinstance(t, RecordType):
        return any(_mentions_recvar(ft, name) for __, ft in t.fields)
    if isinstance(t, VariantType):
        return any(_mentions_recvar(ct, name) for __, ct in t.cases)
    if isinstance(t, ListType):
        return _mentions_recvar(t.element, name)
    if isinstance(t, FunctionType):
        return any(_mentions_recvar(p, name) for p in t.params) or (
            _mentions_recvar(t.result, name)
        )
    if isinstance(t, (ForAll, Exists)):
        return _mentions_recvar(t.bound, name) or _mentions_recvar(t.body, name)
    return False


#: One declaration's binding: the environment table it extends
#: (``"values"`` or ``"type_names"``), the name, and the type bound.
Binding = Tuple[str, str, Type]


def check_program(
    program: ast.Program,
    env: Optional[CheckEnv] = None,
    bindings: Optional[List[Optional[Binding]]] = None,
) -> Tuple[Optional[Type], CheckEnv]:
    """Check a whole program; returns (last expression's type, final env).

    If ``bindings`` is a list, it receives one entry per declaration, in
    order: the :data:`Binding` that declaration added to ``env``, or
    ``None`` for an expression statement.
    """
    env = env if env is not None else CheckEnv.initial()
    last: Optional[Type] = None
    for decl in program.declarations:
        result = check_decl(decl, env)
        if result is not None:
            last = result
        if bindings is not None:
            bindings.append(_binding_of(decl, env))
    return last, env


def _binding_of(decl: ast.Decl, env: CheckEnv) -> Optional[Binding]:
    if isinstance(decl, ast.TypeDecl):
        return "type_names", decl.name, env.type_names[decl.name]
    if isinstance(decl, (ast.LetDecl, ast.FunDecl)):
        return "values", decl.name, env.values[decl.name]
    return None
