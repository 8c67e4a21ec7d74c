"""Unit tests for the DBPL evaluator."""

import pytest

from repro.errors import EvalError, LexError, TypeCheckError
from repro.lang.eval import Interpreter, RuntimeRecord, format_value, run_program
from repro.persistence.mvcc import TransactionManager
from repro.persistence.store import LogStore
from repro.types.dynamic import Dynamic
from repro.types.kinds import INT, record_type


def value_of(source, store=None):
    return run_program(source, store).value


class TestBasics:
    def test_arithmetic(self):
        assert value_of("1 + 2 * 3") == 7
        assert value_of("7 / 2") == 3
        assert value_of("7.0 / 2") == 3.5
        assert value_of("-(3 - 5)") == 2

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            value_of("1 / 0")

    def test_strings(self):
        assert value_of('"a" + "b"') == "ab"
        assert value_of('"a" < "b"') is True

    def test_comparisons_and_booleans(self):
        assert value_of("1 < 2 and 2 <= 2") is True
        assert value_of("not (1 == 2)") is True
        assert value_of("1 != 2") is True

    def test_short_circuit(self):
        # 'or' must not evaluate the right side when left is true:
        # the right side would divide by zero.
        assert value_of("fun boom(x: Int): Bool = 1 / x > 0\n"
                        "true or boom(0)") is True

    def test_if(self):
        assert value_of("if 1 < 2 then 10 else 20") == 10

    def test_let_in(self):
        assert value_of("let x = 3 in x * x") == 9

    def test_records(self):
        result = value_of('{Name = "J", Age = 3}')
        assert isinstance(result, RuntimeRecord)
        assert result.get("Name") == "J"

    def test_field_access(self):
        assert value_of('{Addr = {City = "Austin"}}.Addr.City') == "Austin"

    def test_lists(self):
        assert value_of("[1, 2, 3]") == [1, 2, 3]

    def test_unit(self):
        assert value_of("unit") is None


class TestFunctions:
    def test_lambda_and_apply(self):
        assert value_of("(fn(x: Int) => x * 2)(21)") == 42

    def test_closure_captures(self):
        assert value_of(
            "let y = 10 in (fn(x: Int) => x + y)(5)"
        ) == 15

    def test_recursion(self):
        assert value_of(
            "fun fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1)\n"
            "fact(6)"
        ) == 720

    def test_forward_reference_is_static_error(self):
        # Declarations scope sequentially; mutual recursion needs a
        # higher-order encoding.  The forward reference never runs.
        with pytest.raises(TypeCheckError):
            value_of(
                """
                fun even(n: Int): Bool = if n == 0 then true else odd(n - 1)
                fun odd(n: Int): Bool = if n == 0 then false else even(n - 1)
                even(10)
                """
            )

    def test_higher_order(self):
        assert value_of(
            "fun twice(f: Int -> Int, x: Int): Int = f(f(x))\n"
            "twice(fn(n: Int) => n + 3, 1)"
        ) == 7

    def test_polymorphic_identity_erased(self):
        assert value_of("fun id[t](x: t): t = x\nid[Int](3)") == 3

    def test_builtin_lists(self):
        assert value_of("map(fn(x: Int) => x * x, [1, 2, 3])") == [1, 4, 9]
        assert value_of("filter(fn(x: Int) => x > 1, [1, 2, 3])") == [2, 3]
        assert value_of("fold(fn(a: Int, x: Int) => a + x, 0, [1, 2, 3])") == 6
        assert value_of("append([1], [2, 3])") == [1, 2, 3]
        assert value_of("cons(0, [1])") == [0, 1]
        assert value_of("head([1, 2])") == 1
        assert value_of("tail([1, 2])") == [2]
        assert value_of("isEmpty([])") is True
        assert value_of("length([1, 2, 3])") == 3
        assert value_of("sum([1, 2, 3])") == 6
        assert value_of("intToFloat(3) / 2") == 1.5

    def test_head_of_empty_raises(self):
        with pytest.raises(EvalError):
            value_of("head([])")


class TestWithJoin:
    def test_with_adds_fields(self):
        result = value_of('{Name = "J"} with {Empno = 1}')
        assert result.get("Empno") == 1

    def test_with_joins_nested(self):
        result = value_of(
            '{Addr = {City = "Austin"}} with {Addr = {Zip = 78759}}'
        )
        assert result.get("Addr").get("City") == "Austin"
        assert result.get("Addr").get("Zip") == 78759

    def test_with_agreeing_values_ok(self):
        result = value_of('{Name = "J"} with {Name = "J", Age = 1}')
        assert result.get("Age") == 1

    def test_with_conflict_raises_at_runtime(self):
        """The K Smith case: statically fine (types agree), but the
        values disagree — join fails at run time."""
        with pytest.raises(EvalError):
            value_of('{Name = "J Doe"} with {Name = "K Smith"}')


class TestDynamicsAtRuntime:
    def test_dynamic_carries_inferred_type(self):
        from repro.types.kinds import STRING

        d = value_of('dynamic {Name = "J"}')
        assert isinstance(d, Dynamic)
        assert d.carried == record_type(Name=STRING)

    def test_coerce_success(self):
        assert value_of("coerce (dynamic 3) to Int") == 3

    def test_coerce_failure_is_runtime(self):
        """'the subsequent line will raise a run-time exception.'"""
        with pytest.raises(EvalError):
            value_of("coerce (dynamic 3) to String")

    def test_coerce_to_supertype(self):
        assert value_of(
            """
            type Person = {Name: String}
            let d = dynamic {Name = "J", Age = 3};
            (coerce d to Person).Name
            """
        ) == "J"

    def test_typeof_returns_type_value(self):
        assert value_of("typeof (dynamic 3)") == INT

    def test_functions_cannot_be_dynamic(self):
        with pytest.raises(EvalError):
            value_of("dynamic (fn(x: Int) => x)")


class TestDatabases:
    SETUP = """
    type Person = {Name: String}
    type Employee = Person with {Empno: Int}
    let db = newdb();
    insert(db, dynamic {Name = "P"});
    insert(db, dynamic {Name = "E", Empno = 1});
    """

    def test_insert_and_size(self):
        assert value_of(self.SETUP + "size(db)") == 2

    def test_get_filters_by_subtype(self):
        assert value_of(self.SETUP + "length(get[Person](db))") == 2
        assert value_of(self.SETUP + "length(get[Employee](db))") == 1

    def test_get_without_instantiation_returns_all(self):
        assert value_of(self.SETUP + "length(get(db))") == 2

    def test_get_values_usable(self):
        assert value_of(
            self.SETUP + "map(fn(e: Employee) => e.Empno, get[Employee](db))"
        ) == [1]

    def test_remove(self):
        assert value_of(
            self.SETUP
            + 'remove(db, dynamic {Name = "P"});\nsize(db)'
        ) == 1


class TestPersistenceBuiltins:
    def test_extern_intern_memory(self):
        assert value_of(
            """
            extern("h", dynamic {Name = "J", Empno = 1});
            let back = coerce intern("h") to {Name: String, Empno: Int};
            back.Empno
            """
        ) == 1

    def test_intern_unknown_handle(self):
        with pytest.raises(EvalError):
            value_of('intern("nothing")')

    def test_coerce_interned_at_wrong_type(self):
        with pytest.raises(EvalError):
            value_of(
                'extern("h", dynamic 3);\n'
                'coerce intern("h") to String'
            )

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "dbpl.log")
        first = Interpreter(path)
        first.run('extern("DBFile", dynamic [1, 2, 3]);')
        second = Interpreter(path)
        result = second.run('sum(coerce intern("DBFile") to List[Int])')
        assert result.value == 6

    def test_replication_semantics(self):
        """Interned values are copies: mutating via one program's view
        (impossible here — records are immutable) aside, re-externing is
        required for changes to be seen, as in the paper."""
        interp = Interpreter()
        interp.run('extern("h", dynamic {N = 1});')
        interp.run(
            'let x = coerce intern("h") to {N: Int};\n'
            'extern("h", dynamic (x with {M = 2}));'
        )
        result = interp.run('coerce intern("h") to {N: Int, M: Int}')
        assert result.value.get("M") == 2

    @staticmethod
    def _check_no_stale_intern(first, second):
        """Standalone interpreters each build their own transaction
        manager: one's extern must reach the other's later transactions,
        not only its autocommit interns."""
        first.run('extern("h", dynamic 1);')
        second.run('extern("h", dynamic 2);')
        assert first.run('coerce intern("h") to Int').value == 2
        first.store.begin()
        assert first.run('coerce intern("h") to Int').value == 2
        first.store.abort()

    def test_transaction_sees_another_interpreters_extern(self):
        shared = {}
        self._check_no_stale_intern(
            Interpreter(TransactionManager(memory=shared)),
            Interpreter(TransactionManager(memory=shared)),
        )

    def test_transaction_sees_another_interpreters_extern_on_disk(
        self, tmp_path
    ):
        store = LogStore(str(tmp_path / "shared.log"))
        try:
            self._check_no_stale_intern(Interpreter(store), Interpreter(store))
        finally:
            store.close()


class TestSessionsAndOutput:
    def test_session_accumulates(self):
        interp = Interpreter()
        interp.run("let x = 40;")
        assert interp.run("x + 2").value == 42

    def test_print_output(self):
        result = run_program('print(1); print("two"); print([3])')
        assert result.output == ["1", '"two"', "[3]"]

    def test_show(self):
        assert value_of('show({A = 1})') == "{A = 1}"

    def test_format_value_forms(self):
        from repro.extents.database import Database

        assert format_value(None) == "unit"
        assert format_value(True) == "true"
        assert format_value(3.5) == "3.5"
        assert "database" in format_value(Database())

    def test_ill_typed_never_runs(self):
        interp = Interpreter()
        with pytest.raises(TypeCheckError):
            interp.run('print(1 + "a")')
        assert interp.output == []  # nothing executed

    def test_result_reports_type(self):
        result = run_program("1 + 1")
        assert result.type == INT


class TestFailedRunsLeaveTheEnvironment:
    """A run that fails commits only the bindings of the declarations
    that evaluated, so the checker never trusts a binding that is not
    there, or not of that type, at run time."""

    def test_a_failed_check_binds_nothing(self):
        interp = Interpreter()
        interp.run('let a = "s";')
        with pytest.raises(TypeCheckError):
            interp.run('let a = 1; a + "x"')
        with pytest.raises(TypeCheckError, match="'\\*' left operand has type String"):
            interp.run("a * 3")
        with pytest.raises(TypeCheckError, match="'\\+' left operand has type String"):
            interp.run("a + 1")
        result = interp.run("a")
        assert (result.value, str(result.type)) == ("s", "String")

    def test_a_failed_evaluation_binds_only_what_ran(self):
        interp = Interpreter()
        with pytest.raises(EvalError, match="head of an empty list"):
            interp.run("let r = 1; let s = head([]);")
        with pytest.raises(TypeCheckError, match="unbound variable 's'"):
            interp.run("s")
        assert interp.run("r").value == 1

    def test_a_redeclared_type_is_committed_where_it_evaluates(self):
        interp = Interpreter()
        interp.run("type T = Int")
        interp.run('extern("k", dynamic "text");')
        # The coercion's target is resolved when it runs: T is still Int
        # there, as the checker saw it, though the program goes on to
        # redeclare T.
        with pytest.raises(EvalError, match="not a subtype of Int"):
            interp.run('coerce intern("k") to T; type T = String')
        # And the redeclaration never ran, so T is still Int.
        assert interp.run("let n: T = 1; n").type == INT


class TestNumberLexing:
    def test_a_superscript_digit_is_not_a_number(self):
        with pytest.raises(LexError, match="unexpected character '²'") as excinfo:
            Interpreter().run("1²")
        assert (excinfo.value.line, excinfo.value.column) == (1, 2)

    def test_decimal_digits_of_any_script_are_numbers(self):
        assert value_of("\u0663 + 1") == 4
