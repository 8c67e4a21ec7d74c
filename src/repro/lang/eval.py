"""The DBPL evaluator.

Runs programs that passed the static checker.  Type information is
erased at run time except where the semantics genuinely need it — the
paper's point that "a certain amount of dynamic type-checking may be
needed in the implementation":

* ``dynamic e`` computes the most specific type of the runtime value;
* ``coerce e to T`` checks the carried type against ``T``;
* ``get[T](db)`` filters the database by carried-type subtyping;
* ``extern``/``intern`` serialize values together with their types.

Runtime values: Python scalars, :class:`RuntimeRecord` (records with the
object-level join for ``with``), Python lists, :class:`Closure`,
:class:`~repro.types.dynamic.Dynamic`, :class:`~repro.types.kinds.Type`
values, and :class:`~repro.extents.database.Database`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.orders import Atom, PartialRecord
from repro.core.relation import GeneralizedRelation
from repro.errors import EvalError, NotAValueError, TypeSystemError
from repro.extents.database import Database
from repro.lang import ast
from repro.lang.checker import CheckEnv, check_program, resolve_type
from repro.lang.parser import parse_program
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.persistence.mvcc import TransactionManager
from repro.persistence.replicating import ReplicatingStore
from repro.persistence.serialize import deserialize, serialize, stored_type
from repro.persistence.store import LogStore
from repro.types.dynamic import Dynamic
from repro.types.kinds import (
    BOTTOM,
    DYNAMIC,
    TOP,
    TYPE,
    BaseType,
    ListType,
    RecordType,
    Type,
)
from repro.types.infer import infer_type
from repro.types.subtyping import is_subtype, join_types


class RuntimeRecord:
    """An immutable DBPL record value.

    Field values are arbitrary runtime values (unlike the core domain's
    :class:`~repro.core.orders.PartialRecord`, whose fields are domain
    values only — DBPL records may hold lists and other records freely).
    ``join`` implements the object-level ``⊔`` used by ``with``.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Dict[str, object]):
        self._fields = dict(fields)

    def get(self, label: str) -> object:
        """The field's value; raises :class:`EvalError` when absent."""
        try:
            return self._fields[label]
        except KeyError:
            raise EvalError("record has no field %r" % label) from None

    def has(self, label: str) -> bool:
        """Is the field defined?"""
        return label in self._fields

    def fields(self) -> Dict[str, object]:
        """A copy of the field mapping."""
        return dict(self._fields)

    def join(self, other: "RuntimeRecord") -> "RuntimeRecord":
        """The object-level join: merge, recursing into common records.

        Raises :class:`EvalError` on a genuine conflict — "there is no
        value we can put in the Name field that is better than both
        'J Doe' and 'K Smith'".
        """
        merged = dict(self._fields)
        for label, theirs in other._fields.items():
            if label not in merged:
                merged[label] = theirs
                continue
            mine = merged[label]
            if isinstance(mine, RuntimeRecord) and isinstance(theirs, RuntimeRecord):
                merged[label] = mine.join(theirs)
            elif _runtime_equal(mine, theirs):
                pass  # agreeing values: keep
            else:
                raise EvalError(
                    "cannot join records: field %r holds %s and %s"
                    % (label, format_value(mine), format_value(theirs))
                )
        return RuntimeRecord(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RuntimeRecord):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(frozenset(self._fields))

    def __repr__(self) -> str:
        return format_value(self)


def _runtime_equal(a: object, b: object) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


class VariantValue:
    """A tagged value: one case of a variant type, with its payload."""

    __slots__ = ("label", "payload")

    def __init__(self, label: str, payload: object):
        self.label = label
        self.payload = payload

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariantValue):
            return NotImplemented
        return self.label == other.label and _runtime_equal(
            self.payload, other.payload
        )

    def __hash__(self) -> int:
        try:
            return hash((VariantValue, self.label, self.payload))
        except TypeError:
            return hash((VariantValue, self.label))

    def __repr__(self) -> str:
        return format_value(self)


@dataclass
class Closure:
    """A user function value: parameters, body, and captured environment."""

    params: Tuple[str, ...]
    body: ast.Expr
    env: "Env"
    name: str = "<fn>"

    def __repr__(self) -> str:
        return "<function %s/%d>" % (self.name, len(self.params))


@dataclass
class Builtin:
    """A built-in function, possibly awaiting type arguments (``get``)."""

    name: str
    arity: int
    impl: Callable[..., object]
    type_args: Tuple[Type, ...] = ()

    def with_type_args(self, type_args: Tuple[Type, ...]) -> "Builtin":
        """A copy carrying explicit type arguments."""
        return Builtin(self.name, self.arity, self.impl, type_args)

    def __repr__(self) -> str:
        return "<builtin %s>" % self.name


class Env:
    """A parent-linked runtime environment."""

    __slots__ = ("_bindings", "_parent")

    def __init__(self, parent: Optional["Env"] = None):
        self._bindings: Dict[str, object] = {}
        self._parent = parent

    def define(self, name: str, value: object) -> None:
        """Bind ``name`` in this scope (shadowing outer bindings)."""
        self._bindings[name] = value

    def lookup(self, name: str) -> object:
        """Resolve ``name`` through the scope chain; raise when unbound."""
        env: Optional[Env] = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        raise EvalError("unbound variable %r" % name)

    def child(self) -> "Env":
        """A nested scope whose parent is this environment."""
        return Env(self)


# ---------------------------------------------------------------------------
# Runtime typing (for dynamic / insert)
# ---------------------------------------------------------------------------


def runtime_type_of(value: object) -> Type:
    """The most specific type of a runtime value (DBPL's ``dynamic``)."""
    if isinstance(value, RuntimeRecord):
        return RecordType(
            {label: runtime_type_of(v) for label, v in value.fields().items()}
        )
    if isinstance(value, list):
        element: Type = BOTTOM
        for item in value:
            element = join_types(element, runtime_type_of(item))
        return ListType(element)
    if isinstance(value, Dynamic):
        return DYNAMIC
    if isinstance(value, Type):
        return TYPE
    if isinstance(value, VariantValue):
        from repro.types.kinds import VariantType

        return VariantType({value.label: runtime_type_of(value.payload)})
    if isinstance(value, Database):
        return BaseType("Database")
    if isinstance(value, GeneralizedRelation):
        return BaseType("Relation")
    if isinstance(value, (Closure, Builtin)):
        raise EvalError("functions cannot be made dynamic in DBPL")
    return infer_type(value)


# ---------------------------------------------------------------------------
# Display
# ---------------------------------------------------------------------------


def format_value(value: object) -> str:
    """Human-readable rendering of a runtime value."""
    if value is None:
        return "unit"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return '"%s"' % value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, RuntimeRecord):
        inner = ", ".join(
            "%s = %s" % (label, format_value(v))
            for label, v in sorted(value.fields().items())
        )
        return "{%s}" % inner
    if isinstance(value, list):
        return "[%s]" % ", ".join(format_value(v) for v in value)
    if isinstance(value, VariantValue):
        if value.payload is None:
            return "%s()" % value.label
        return "%s(%s)" % (value.label, format_value(value.payload))
    if isinstance(value, Dynamic):
        return "dynamic(%s : %s)" % (format_value(value.value), value.carried)
    if isinstance(value, Type):
        return str(value)
    if isinstance(value, Database):
        return "<database of %d values>" % len(value)
    if isinstance(value, GeneralizedRelation):
        inner = "; ".join(
            format_value(_record_from_domain(member)) for member in value
        )
        return "rel{%s}" % inner
    return repr(value)


# ---------------------------------------------------------------------------
# Generalized relations at the language boundary
# ---------------------------------------------------------------------------


def _record_to_domain(value: object) -> PartialRecord:
    """Convert a DBPL record into a domain partial record.

    Relation members are partial records over scalars and nested
    records; lists or functions inside a member are rejected — the
    relational side of the paper's world is first-order.
    """
    if not isinstance(value, RuntimeRecord):
        raise EvalError(
            "relation members must be records, got %s" % format_value(value)
        )
    fields = {}
    for label, field_value in value.fields().items():
        if isinstance(field_value, RuntimeRecord):
            fields[label] = _record_to_domain(field_value)
        else:
            try:
                fields[label] = Atom(field_value)  # type: ignore[arg-type]
            except NotAValueError:
                raise EvalError(
                    "relation member field %r holds %s; only scalars and "
                    "records are allowed" % (label, format_value(field_value))
                ) from None
    return PartialRecord(fields)


def _record_from_domain(value) -> RuntimeRecord:
    """Convert a domain partial record back into a DBPL record."""
    fields = {}
    for label, field_value in value.items():
        if isinstance(field_value, PartialRecord):
            fields[label] = _record_from_domain(field_value)
        else:
            fields[label] = field_value.payload
    return RuntimeRecord(fields)


# ---------------------------------------------------------------------------
# Portable form for extern/intern (replication through the serializer)
# ---------------------------------------------------------------------------


_VARIANT_KEY = "variant$label"


def _to_portable(value: object) -> object:
    if isinstance(value, VariantValue):
        return {
            _VARIANT_KEY: value.label,
            "payload": _to_portable(value.payload),
        }
    if isinstance(value, RuntimeRecord):
        if value.has(_VARIANT_KEY):
            raise EvalError(
                "records with the reserved field %r cannot be externed"
                % _VARIANT_KEY
            )
        return {label: _to_portable(v) for label, v in value.fields().items()}
    if isinstance(value, list):
        return [_to_portable(v) for v in value]
    if isinstance(value, Dynamic):
        return Dynamic(_to_portable(value.value), value.carried)
    if isinstance(value, (Closure, Builtin, Database, GeneralizedRelation)):
        raise EvalError(
            "%s values cannot be externed; extern their members instead"
            % type(value).__name__
        )
    return value


def _from_portable(value: object) -> object:
    if isinstance(value, dict):
        if _VARIANT_KEY in value:
            return VariantValue(
                value[_VARIANT_KEY], _from_portable(value.get("payload"))
            )
        return RuntimeRecord(
            {label: _from_portable(v) for label, v in value.items()}
        )
    if isinstance(value, list):
        return [_from_portable(v) for v in value]
    if isinstance(value, Dynamic):
        return Dynamic(_from_portable(value.value), value.carried)
    return value


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """What running a program produced."""

    value: object
    type: Optional[Type]
    output: List[str]


class Interpreter:
    """A DBPL session: checked declarations accumulate across ``run`` calls.

    ``store`` is the extern namespace: a shared
    :class:`~repro.persistence.mvcc.TransactionManager` (as the server's
    sessions share the broker's), a path or :class:`LogStore` to open one
    over, or ``None`` for a private in-memory one; bindings stay private.
    ``session_id`` labels it in journal tags, ``stat`` frames and txns.
    """

    def __init__(
        self,
        store: Union[None, str, LogStore, TransactionManager] = None,
        session_id: Optional[str] = None,
    ):
        self.output: List[str] = []
        self.session_id = session_id
        self._check_env = CheckEnv.initial()
        self._globals = Env()
        # The Amber front every extern and intern goes through, and
        # whose begin/commit/abort scope them in one transaction.
        self.store = ReplicatingStore(store, owner=session_id)
        for name, builtin in _make_builtins(self).items():
            self._globals.define(name, builtin)

    # -- public API ----------------------------------------------------------------

    def run(self, source: str) -> RunResult:
        """Parse, statically check, then evaluate ``source``.

        Declarations persist in the session.  Raises
        :class:`~repro.errors.TypeCheckError` (and never runs) on an
        ill-typed program.  With tracing on, each run records a
        ``lang.run`` span with nested ``lang.parse``/``lang.check``/
        ``lang.eval`` phases (persistence and relation spans hang off
        the eval phase).
        """
        _metrics.REGISTRY.counter("lang.runs").inc()
        tracer = _trace.CURRENT
        if not tracer.enabled:
            program = parse_program(source)
            last_type, __ = check_program(program, self._check_env)
            value: object = None
            for decl in program.declarations:
                value = self._exec_decl(decl)
            return RunResult(value, last_type, list(self.output))
        with tracer.span("lang.run") as run_span:
            with tracer.span("lang.parse"):
                program = parse_program(source)
            with tracer.span("lang.check"):
                last_type, __ = check_program(program, self._check_env)
            with tracer.span("lang.eval"):
                value = None
                for decl in program.declarations:
                    value = self._exec_decl(decl)
            run_span.annotate(declarations=len(program.declarations))
        return RunResult(value, last_type, list(self.output))

    def eval_expr(self, source: str) -> object:
        """Check and evaluate a single expression."""
        return self.run(source).value

    # -- declarations -----------------------------------------------------------------

    def _exec_decl(self, decl: ast.Decl) -> object:
        if isinstance(decl, ast.TypeDecl):
            return None  # types were recorded by the checker
        if isinstance(decl, ast.LetDecl):
            self._globals.define(decl.name, self._eval(decl.value, self._globals))
            return None
        if isinstance(decl, ast.FunDecl):
            closure = Closure(
                tuple(name for name, __ in decl.params),
                decl.body,
                self._globals,
                decl.name,
            )
            self._globals.define(decl.name, closure)
            return None
        if isinstance(decl, ast.ExprStmt):
            return self._eval(decl.expr, self._globals)
        raise EvalError("unhandled declaration %r" % (decl,))

    # -- expressions ---------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Env) -> object:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit)):
            return expr.value
        if isinstance(expr, ast.UnitLit):
            return None
        if isinstance(expr, ast.Var):
            return env.lookup(expr.name)
        if isinstance(expr, ast.RecordLit):
            return RuntimeRecord(
                {label: self._eval(e, env) for label, e in expr.fields}
            )
        if isinstance(expr, ast.ListLit):
            return [self._eval(e, env) for e in expr.elements]
        if isinstance(expr, ast.FieldAccess):
            subject = self._eval(expr.subject, env)
            if not isinstance(subject, RuntimeRecord):
                raise EvalError(
                    "field access on non-record %s" % format_value(subject)
                )
            return subject.get(expr.label)
        if isinstance(expr, ast.WithExpr):
            subject = self._eval(expr.subject, env)
            extension = self._eval(expr.extension, env)
            if not isinstance(subject, RuntimeRecord):
                raise EvalError("'with' on non-record %s" % format_value(subject))
            assert isinstance(extension, RuntimeRecord)
            return subject.join(extension)
        if isinstance(expr, ast.If):
            condition = self._eval(expr.condition, env)
            branch = expr.then_branch if condition else expr.else_branch
            return self._eval(branch, env)
        if isinstance(expr, ast.LetIn):
            inner = env.child()
            inner.define(expr.name, self._eval(expr.bound, env))
            return self._eval(expr.body, inner)
        if isinstance(expr, ast.Lambda):
            return Closure(
                tuple(name for name, __ in expr.params), expr.body, env
            )
        if isinstance(expr, ast.TypeApply):
            function = self._eval(expr.function, env)
            if isinstance(function, Builtin):
                type_args = tuple(
                    self._resolve_runtime_type(t) for t in expr.type_args
                )
                return function.with_type_args(type_args)
            return function  # erasure for user functions
        if isinstance(expr, ast.Apply):
            function = self._eval(expr.function, env)
            arguments = [self._eval(a, env) for a in expr.arguments]
            return self.call(function, arguments)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.UnaryOp):
            operand = self._eval(expr.operand, env)
            if expr.op == "not":
                return not operand
            if expr.op == "-":
                return -operand  # type: ignore[operator]
            raise EvalError("unknown unary operator %r" % expr.op)
        if isinstance(expr, ast.TagExpr):
            return VariantValue(expr.label, self._eval(expr.operand, env))
        if isinstance(expr, ast.CaseExpr):
            subject = self._eval(expr.subject, env)
            if not isinstance(subject, VariantValue):
                raise EvalError(
                    "case subject is not a variant: %s" % format_value(subject)
                )
            for arm in expr.arms:
                if arm.label == subject.label:
                    inner = env.child()
                    inner.define(arm.binder, subject.payload)
                    return self._eval(arm.body, inner)
            raise EvalError(
                "no arm for case %r (checker should have caught this)"
                % subject.label
            )
        if isinstance(expr, ast.DynamicExpr):
            operand = self._eval(expr.operand, env)
            return Dynamic(operand, runtime_type_of(operand))
        if isinstance(expr, ast.CoerceExpr):
            operand = self._eval(expr.operand, env)
            target = self._resolve_runtime_type(expr.target)
            assert isinstance(operand, Dynamic)  # checker guarantees
            if not is_subtype(operand.carried, target):
                raise EvalError(
                    "coercion failed: dynamic carries %s, not a subtype of %s"
                    % (operand.carried, target)
                )
            return operand.value
        if isinstance(expr, ast.TypeOfExpr):
            operand = self._eval(expr.operand, env)
            assert isinstance(operand, Dynamic)
            return operand.carried
        raise EvalError("unhandled expression %r" % (expr,))

    def _resolve_runtime_type(self, type_expr: ast.TypeExpr) -> Type:
        """Resolve a type expression at run time (coerce targets, get[T]).

        Uses the session's global type names; type *parameters* of an
        enclosing polymorphic function are erased and cannot be resolved
        here — using one where the run-time needs a type is reported.
        """
        try:
            return resolve_type(type_expr, self._check_env)
        except TypeSystemError as exc:
            raise EvalError(
                "type not resolvable at run time (erased type parameter?): %s"
                % exc
            ) from exc

    def call(self, function: object, arguments: List[object]) -> object:
        """Apply a closure or builtin to evaluated arguments."""
        if isinstance(function, Closure):
            if len(arguments) != len(function.params):
                raise EvalError(
                    "%r expects %d arguments, got %d"
                    % (function, len(function.params), len(arguments))
                )
            inner = function.env.child()
            for name, value in zip(function.params, arguments):
                inner.define(name, value)
            return self._eval(function.body, inner)
        if isinstance(function, Builtin):
            if len(arguments) != function.arity:
                raise EvalError(
                    "builtin %s expects %d arguments, got %d"
                    % (function.name, function.arity, len(arguments))
                )
            return function.impl(function.type_args, *arguments)
        raise EvalError("cannot call non-function %s" % format_value(function))

    def _eval_binop(self, expr: ast.BinOp, env: Env) -> object:
        op = expr.op
        if op == "and":
            return bool(self._eval(expr.left, env)) and bool(
                self._eval(expr.right, env)
            )
        if op == "or":
            return bool(self._eval(expr.left, env)) or bool(
                self._eval(expr.right, env)
            )
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == "==":
            return _runtime_equal(left, right)
        if op == "!=":
            return not _runtime_equal(left, right)
        if op == "+":
            return left + right  # type: ignore[operator]
        if op == "-":
            return left - right  # type: ignore[operator]
        if op == "*":
            return left * right  # type: ignore[operator]
        if op == "/":
            if right == 0:
                raise EvalError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return left // right
            return left / right  # type: ignore[operator]
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
        raise EvalError("unknown operator %r" % op)


# ---------------------------------------------------------------------------
# Builtin implementations
# ---------------------------------------------------------------------------


def _make_builtins(interp: Interpreter) -> Dict[str, Builtin]:
    def newdb(type_args):
        return Database()

    def insert(type_args, db, dyn):
        db.insert(dyn)
        return None

    def remove(type_args, db, dyn):
        db.remove(dyn)
        return None

    def size(type_args, db):
        return len(db)

    def get(type_args, db):
        query = type_args[0] if type_args else TOP
        _metrics.REGISTRY.counter("lang.gets").inc()
        with _trace.CURRENT.span("lang.get", query=str(query)) as span_obj:
            members = [member.value for member in db.scan(query)]
            span_obj.annotate(scanned=len(db), matched=len(members))
        return members

    # extern/intern copy values through the interpreter's Amber front,
    # at its transaction's snapshot if one is open, else autocommitted.
    def extern(type_args, handle, dyn):
        _metrics.REGISTRY.counter("lang.externs").inc()
        with _trace.CURRENT.span("lang.extern", handle=handle):
            document = serialize(_to_portable(dyn.value), typ=dyn.carried)
            interp.store.extern_document(handle, document)
        return None

    def intern(type_args, handle):
        _metrics.REGISTRY.counter("lang.interns").inc()
        with _trace.CURRENT.span("lang.intern", handle=handle):
            document = interp.store.intern_document(handle)
            if document is None:
                raise EvalError("no value externed under %r" % handle)
            carried = stored_type(document)
            if carried is None:
                raise EvalError("handle %r carries no type" % handle)
            return Dynamic(_from_portable(deserialize(document)), carried)

    def map_(type_args, function, items):
        return [interp.call(function, [item]) for item in items]

    def filter_(type_args, predicate, items):
        return [item for item in items if interp.call(predicate, [item])]

    def fold(type_args, function, initial, items):
        accumulator = initial
        for item in items:
            accumulator = interp.call(function, [accumulator, item])
        return accumulator

    def append(type_args, left, right):
        return list(left) + list(right)

    def cons(type_args, item, items):
        return [item] + list(items)

    def head(type_args, items):
        if not items:
            raise EvalError("head of an empty list")
        return items[0]

    def tail(type_args, items):
        if not items:
            raise EvalError("tail of an empty list")
        return list(items[1:])

    def is_empty(type_args, items):
        return not items

    def length(type_args, items):
        return len(items)

    def sum_(type_args, items):
        return sum(items)

    def int_to_float(type_args, n):
        return float(n)

    def print_(type_args, value):
        interp.output.append(format_value(value))
        return None

    def show(type_args, value):
        return format_value(value)

    def relation(type_args, items):
        return GeneralizedRelation(_record_to_domain(item) for item in items)

    def rinsert(type_args, rel, item):
        return rel.insert(_record_to_domain(item))

    def rjoin(type_args, left, right):
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a timing harness) sees every rjoin.
        from repro.core.relation import join_with_fastpath

        return join_with_fastpath(left, right)

    def rproject(type_args, rel, labels):
        return rel.project(labels)

    def rmatch(type_args, rel, pattern):
        return rel.matching(_record_to_domain(pattern))

    def rmembers(type_args, rel):
        return [_record_from_domain(member) for member in rel]

    def rcount(type_args, rel):
        return len(rel)

    def rleq(type_args, left, right):
        return left.leq(right)

    table = {
        "newdb": (0, newdb),
        "insert": (2, insert),
        "remove": (2, remove),
        "size": (1, size),
        "get": (1, get),
        "extern": (2, extern),
        "intern": (1, intern),
        "map": (2, map_),
        "filter": (2, filter_),
        "fold": (3, fold),
        "append": (2, append),
        "cons": (2, cons),
        "head": (1, head),
        "tail": (1, tail),
        "isEmpty": (1, is_empty),
        "length": (1, length),
        "sum": (1, sum_),
        "intToFloat": (1, int_to_float),
        "print": (1, print_),
        "show": (1, show),
        "relation": (1, relation),
        "rinsert": (2, rinsert),
        "rjoin": (2, rjoin),
        "rproject": (2, rproject),
        "rmatch": (2, rmatch),
        "rmembers": (1, rmembers),
        "rcount": (1, rcount),
        "rleq": (2, rleq),
    }
    return {
        name: Builtin(name, arity, impl) for name, (arity, impl) in table.items()
    }


def run_program(
    source: str, store: Union[None, str, LogStore] = None
) -> RunResult:
    """Parse, check, and run a standalone DBPL program."""
    return Interpreter(store).run(source)
