"""Negative-path tests: the checker and evaluator reject bad programs
with informative errors, and never half-execute them."""

import pytest

from repro.errors import (
    EvalError,
    ParseError,
    TypeCheckError,
    UnknownTypeError,
)
from repro.lang.eval import Interpreter, run_program


def rejects_statically(source, needle=None):
    with pytest.raises((TypeCheckError, UnknownTypeError)) as excinfo:
        run_program(source)
    if needle:
        assert needle in str(excinfo.value)


def fails_at_runtime(source, needle=None):
    with pytest.raises(EvalError) as excinfo:
        run_program(source)
    if needle:
        assert needle in str(excinfo.value)


class TestCheckerErrors:
    def test_with_on_non_record(self):
        rejects_statically("3 with {a = 1}", "records")

    def test_apply_non_function(self):
        rejects_statically("3(4)", "non-function")

    def test_arity_mismatch(self):
        rejects_statically(
            "fun f(x: Int): Int = x\nf(1, 2)", "expected 1 arguments"
        )

    def test_lambda_param_type_unknown(self):
        rejects_statically("fn(x: Mystery) => x", "unknown type")

    def test_coerce_to_unknown_type(self):
        rejects_statically("coerce (dynamic 1) to Mystery", "unknown type")

    def test_duplicate_record_type_field(self):
        rejects_statically("type T = {a: Int, a: String}", "duplicate")

    def test_type_with_on_non_record_type(self):
        rejects_statically("type T = Int with {a: Int}", "record types")

    def test_type_with_contradiction(self):
        rejects_statically(
            "type A = {x: Int}\ntype B = A with {x: String}", "contradicts"
        )

    def test_error_carries_position(self):
        try:
            run_program("let x = 1;\nx + true")
        except TypeCheckError as exc:
            assert "line 2" in str(exc)
        else:
            raise AssertionError("should have raised")

    def test_polymorphic_over_instantiation(self):
        rejects_statically(
            "fun id[t](x: t): t = x\nid[Int, Int](3)", "not polymorphic"
        )

    def test_bound_violation_reported(self):
        rejects_statically(
            "fun f[t <= Int](x: t): t = x\nf[String]", "bound"
        )

    def test_inference_reports_explicit_alternative(self):
        rejects_statically("map(3, [1])")


class TestRuntimeErrors:
    def test_join_conflict_message_names_field(self):
        fails_at_runtime(
            '{Name = "A"} with {Name = "B"}', "Name"
        )

    def test_coercion_failure_names_types(self):
        fails_at_runtime(
            "coerce (dynamic 3) to String", "not a subtype"
        )

    def test_remove_absent_value(self):
        with pytest.raises(Exception):
            run_program("let db = newdb();\nremove(db, dynamic 1)")

    def test_erased_type_parameter_in_get(self):
        """get[t] inside a polymorphic function cannot resolve t at run
        time (type erasure); the error says so instead of misbehaving."""
        fails_at_runtime(
            """
            fun extract[t](db: Database): List[t] =
              map(fn(x: t) => x, get[t](db))
            let db = newdb();
            extract[Int](db)
            """,
            "erased",
        )

    def test_relation_member_with_function_field(self):
        # statically a record of function type is a fine record; the
        # relational boundary rejects it at run time
        with pytest.raises((EvalError, TypeCheckError)):
            run_program("relation([{f = fn(x: Int) => x}])")


class TestSessionIsolation:
    def test_failed_program_leaves_session_usable(self):
        interp = Interpreter()
        interp.run("let x = 1;")
        with pytest.raises(TypeCheckError):
            interp.run("let y = x + true;")
        # y must not be bound; x still is
        with pytest.raises(TypeCheckError):
            interp.run("y")
        assert interp.run("x").value == 1

    def test_runtime_failure_after_partial_effects(self):
        """Effects before the failing expression do happen (no
        transactional rollback in the language) — documented behaviour."""
        interp = Interpreter()
        with pytest.raises(EvalError):
            interp.run('print("before"); 1 / 0; print("after")')
        assert interp.output == ['"before"']

    def test_parse_error_does_not_pollute(self):
        interp = Interpreter()
        with pytest.raises(ParseError):
            interp.run("let = =")
        assert interp.run("2").value == 2


class TestCheckerSessionConsistency:
    def test_a_let_whose_evaluation_fails_binds_nothing(self):
        """A checked `let` whose evaluation raises commits no binding,
        neither to the checker nor at run time: the next use is a type
        error, reported before anything runs."""
        interp = Interpreter()
        with pytest.raises(EvalError):
            interp.run("let x = 1 / 0;")
        with pytest.raises(TypeCheckError, match="unbound variable 'x'"):
            interp.run("x")
