"""The per-session statement-shape cache in front of parse and check.

A statement whose shape (its text with each literal abstracted to its
kind) was checked in the session's current type environment runs from
a template: it is neither parsed nor checked again.  These tests hold
the cached path to what parsing and checking every statement gives —
values, types, output, errors and the session's environment — and pin
the shape's edge cases, the environment version and the cache's bound.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvalError, LexError, ReproError, TypeCheckError
from repro.lang import ast
from repro.lang import eval as eval_module
from repro.lang.eval import SHAPE_CACHE_SIZE, Interpreter, format_value
from repro.lang.lexer import literal_shape
from repro.lang.parser import ProgramTemplate, parse_program
from repro.lang.pretty import pretty_program
from repro.obs import metrics, trace
from tests.lang.test_pretty import atoms, expressions, names, simple_types


class Recording(Interpreter):
    """A session that keeps the program each run evaluated."""

    last_program = None

    def _evaluate(self, program, checked):
        self.last_program = program
        return super()._evaluate(program, checked)


class _Forgetful(dict):
    def __setitem__(self, key, value):
        pass


def parses_every_statement():
    """The reference: a session whose shape cache keeps nothing."""
    interp = Interpreter()
    interp._shapes = _Forgetful()
    return interp


def parses():
    return metrics.REGISTRY.counter("lang.parses").value


def outcome(interp, source):
    """What running ``source`` shows: value, type and output, or the error."""
    before = len(interp.output)
    try:
        result = interp.run(source)
    except (ReproError, RecursionError) as exc:
        return ("error", type(exc).__name__, str(exc), interp.output[before:])
    value = format_value(result.value) if result.value is not None else None
    return ("ok", value, str(result.type), interp.output[before:])


def environment(interp):
    """The session's type environment and its globals' printed values."""
    env = interp._check_env
    bindings = {
        name: format_value(value)
        for name, value in interp._globals._bindings.items()
    }
    return dict(env.values), dict(env.type_names), bindings


def without_positions(node):
    """``node`` with every position zeroed (the trees here are small)."""
    if isinstance(node, tuple):
        return tuple(without_positions(item) for item in node)
    if dataclasses.is_dataclass(node):
        return type(node)(
            **{
                field.name: (0, 0)
                if field.name == "pos"
                else without_positions(getattr(node, field.name))
                for field in dataclasses.fields(node)
            }
        )
    return node


# -- programs and their literals, redrawn --------------------------------------------

type_names = st.sampled_from(["T", "U"])

declarations = st.one_of(
    expressions.map(ast.ExprStmt),
    st.tuples(names, expressions).map(lambda t: ast.LetDecl(t[0], None, t[1])),
    st.tuples(type_names, simple_types).map(lambda t: ast.TypeDecl(t[0], t[1])),
    st.tuples(
        names,
        st.lists(
            st.tuples(names, simple_types), max_size=2, unique_by=lambda p: p[0]
        ),
        simple_types,
        expressions,
    ).map(lambda t: ast.FunDecl(t[0], (), tuple(t[1]), t[2], t[3])),
)

programs = st.lists(declarations, min_size=1, max_size=4).map(
    lambda found: ast.Program(tuple(found))
)

# Programs that rebind the generators' names, often to another type.
rebindings = st.lists(
    st.one_of(
        st.tuples(names, atoms).map(lambda t: ast.LetDecl(t[0], None, t[1])),
        st.tuples(type_names, simple_types).map(lambda t: ast.TypeDecl(t[0], t[1])),
    ),
    min_size=1,
    max_size=2,
).map(lambda found: ast.Program(tuple(found)))

# Values the pretty-printer spells as the lexer reads them back.
new_literals = {
    ast.IntLit: st.integers(min_value=0, max_value=10**6),
    ast.FloatLit: st.integers(min_value=0, max_value=10**6).map(lambda n: n / 100),
    ast.StringLit: st.text(alphabet='ab -"\\\n\t17', max_size=6),
}


def redraw(node, data, floats=False):
    """``node`` with each literal redrawn in its kind; with ``floats``,
    some int literals become float literals first."""
    if isinstance(node, ast.IntLit) and floats and data.draw(st.booleans()):
        return ast.FloatLit(data.draw(new_literals[ast.FloatLit]))
    if type(node) in new_literals:
        return type(node)(data.draw(new_literals[type(node)]))
    if isinstance(node, tuple):
        return tuple(redraw(item, data, floats) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, ast.TypeExpr):
        return type(node)(
            **{
                field.name: redraw(getattr(node, field.name), data, floats)
                for field in dataclasses.fields(node)
            }
        )
    return node


# Binds the generators' names, so more of their programs check.
PRELUDE = 'let x = 1; let y = 2.5; let foo = "s"; let rec = {A = 1, B = "b", C = true};'


class TestDifferential:
    @given(programs, st.one_of(programs, rebindings), st.data())
    @settings(max_examples=400, deadline=None)
    def test_the_cached_path_runs_as_parsing_every_statement(
        self, program, other, data
    ):
        """Two programs alternate, each redrawn three times, so one may
        rebind what the other's shape was checked against."""
        program = redraw(program, data, floats=True)
        other = redraw(other, data, floats=True)
        sources = [PRELUDE]
        for __ in range(3):
            sources.append(pretty_program(redraw(program, data)))
            sources.append(pretty_program(redraw(other, data)))
        cached, reference = Recording(), parses_every_statement()
        shapes = set()
        for source in sources:
            before = parses()
            seen = outcome(cached, source)
            missed = parses() == before + 1
            assert seen == outcome(reference, source)
            assert environment(cached) == environment(reference)
            shape = literal_shape(source)[0]
            if missed:
                shapes.add(shape)
                continue  # parsed and checked as ever
            assert shape in shapes
            assert without_positions(cached.last_program) == without_positions(
                parse_program(source)
            )


class TestShapes:
    def test_a_call_is_not_a_bracket_on_a_new_line(self):
        interp = Interpreter()
        interp.run("fun f(x: Int): Int = x + 10")
        assert literal_shape("f(1)")[0] != literal_shape("f\n(1)")[0]
        assert interp.run("f(1)").value == 11
        assert interp.run("f\n(2)").value == 2
        assert interp.run("f(3)").value == 13

    def test_an_int_is_not_a_float(self):
        assert literal_shape("1")[0] != literal_shape("1.0")[0]
        interp = Interpreter()
        result = interp.run("7 / 2")
        assert (result.value, str(result.type)) == (3, "Int")
        result = interp.run("7.0 / 2")
        assert (result.value, str(result.type)) == (3.5, "Float")

    def test_escapes_are_decoded(self):
        interp = Interpreter()
        assert interp.run('"a\\"b"').value == 'a"b'
        before = parses()
        assert interp.run('"\\n"').value == "\n"
        assert interp.run('"\\\\t"').value == "\\t"
        assert parses() == before  # both hits
        with pytest.raises(LexError, match="unknown escape"):
            interp.run('"\\q"')

    def test_digits_in_identifiers_belong_to_the_shape(self):
        assert literal_shape("L17 + w1a5") == ("L17 + w1a5", [])
        interp = Interpreter()
        interp.run("let L17 = 1; let w1a5 = 2;")
        assert interp.run("L17 + w1a5 + 3").value == 6
        with pytest.raises(TypeCheckError, match="unbound variable 'L18'"):
            interp.run("L18 + w1a5 + 3")

    def test_a_comment_is_dropped_whatever_it_holds(self):
        interp = Interpreter()
        assert interp.run('1 -- "x" 12').value == 1
        before = parses()
        assert interp.run('2 -- 7 "').value == 2
        assert parses() == before

    def test_a_string_may_hold_a_comment_marker(self):
        interp = Interpreter()
        assert interp.run('"a--b" + "c"').value == "a--bc"
        before = parses()
        assert interp.run('"d--" + "--e"').value == "d----e"
        assert parses() == before

    def test_a_number_int_cannot_convert_stays_in_the_shape(self):
        digits = "1" * 5000
        assert literal_shape(digits + " + 1") == (digits + " + \0i", [1])
        # So the lexer, not the scan, reports what comes first.
        with pytest.raises(LexError, match="unexpected character '\\$'"):
            Interpreter().run("$ " + digits)

    def test_negative_literals(self):
        interp = Interpreter()
        assert interp.run("-3 * 2").value == -6
        assert interp.run("-4 * 2").value == -8
        assert interp.run("- 5 * 2").value == -10
        assert interp.run("0 - 5").value == -5


class TestTemplates:
    def test_a_template_needs_the_programs_literals(self):
        program = parse_program('f(1, "a")')
        template = ProgramTemplate.build(program, [1, "a"])
        assert template.instantiate([2, "b"]) == parse_program('f(2, "b")')
        assert ProgramTemplate.build(program, [1]) is None
        assert ProgramTemplate.build(program, [1.0, "a"]) is None
        assert ProgramTemplate.build(program, [2, "a"]) is None

    def test_a_shape_whose_template_cannot_be_built_still_runs(self, monkeypatch):
        def skewed(source):
            shape, literals = literal_shape(source)
            return shape, [value + 1 for value in literals]

        monkeypatch.setattr(eval_module, "literal_shape", skewed)
        interp = Interpreter()
        assert interp.run("1 + 2").value == 3
        before = parses()
        assert interp.run("1 + 2").value == 3
        assert interp.run("5 + 2").value == 7
        assert parses() == before + 2


class TestVersions:
    def test_rebinding_to_another_type_invalidates(self):
        interp = Interpreter()
        interp.run("let x = 1;")
        assert interp.run("x + 1").value == 2
        assert interp.run("x + 2").value == 3
        interp.run('let x = "s";')
        with pytest.raises(TypeCheckError):
            interp.run("x + 3")

    def test_rebinding_to_an_equal_type_keeps_the_version(self):
        interp = Interpreter()
        interp.run("let x = 1;")
        version = interp._env_version
        interp.run("let x = 2;")
        interp.run("let x = 3;")
        assert interp._env_version == version
        before = parses()
        assert interp.run("let x = 4; x").value == 4
        assert interp.run("let x = 5; x").value == 5
        assert parses() == before + 1

    def test_a_type_redeclaration_invalidates(self):
        interp = Interpreter()
        interp.run("type T = {A: Int}")
        assert interp.run("let v: T = {A = 1}; v.A").value == 1
        assert interp.run("let v: T = {A = 2}; v.A").value == 2
        interp.run("type T = {A: String}")
        with pytest.raises(TypeCheckError):
            interp.run("let v: T = {A = 3}; v.A")
        assert interp.run('let v: T = {A = "s"}; v.A').value == "s"

    def test_a_failed_check_moves_nothing(self):
        interp = Interpreter()
        interp.run("let x = 1; type T = Int")
        version, before = interp._env_version, environment(interp)
        with pytest.raises(TypeCheckError):
            interp.run('let y = 2; type T = String; let x = "s"; x + y')
        assert interp._env_version == version
        assert environment(interp) == before

    def test_a_failed_evaluation_commits_what_ran(self):
        interp = Interpreter()
        version = interp._env_version
        with pytest.raises(EvalError):
            interp.run("let r = 1; let s = 1 / 0;")
        assert interp._env_version == version + 1
        assert "s" not in interp._check_env.values
        assert interp.run("r").value == 1


class TestBound:
    def test_the_cache_holds_at_most_its_bound(self):
        interp = Interpreter()
        sources = ["1" + " + 1" * n for n in range(SHAPE_CACHE_SIZE + 1)]
        for n, source in enumerate(sources):
            assert interp.run(source).value == n + 1
        assert len(interp._shapes) == SHAPE_CACHE_SIZE
        # The first shape was the least recently used: evicted, it is
        # parsed again and still right.
        before = parses()
        assert interp.run(sources[0]).value == 1
        assert parses() == before + 1
        assert len(interp._shapes) == SHAPE_CACHE_SIZE

    def test_a_hit_refreshes_a_shape(self):
        interp = Interpreter()
        interp.run("0")
        for n in range(1, SHAPE_CACHE_SIZE + 1):
            interp.run("0" + " + 1" * n)
            interp.run("7")  # keeps the first shape the most recent
        before = parses()
        assert interp.run("9").value == 9
        assert parses() == before

    def test_a_deep_statement_runs_from_its_template(self):
        interp = Interpreter()
        source = "1" + " + 1" * 400
        before = parses()
        assert interp.run(source).value == 401
        assert interp.run(source).value == 401
        assert interp.run("2" + " + 1" * 400).value == 402
        assert parses() == before + 1


class TestObservable:
    def test_parses_count_the_misses(self):
        interp = Interpreter()
        runs = metrics.REGISTRY.counter("lang.runs").value
        before = parses()
        for n in range(5):
            interp.run('"v%d" + "w"' % n)
        assert parses() == before + 1
        assert metrics.REGISTRY.counter("lang.runs").value == runs + 5

    def test_a_hit_traces_only_its_evaluation(self):
        interp = Interpreter()
        tracer = trace.enable()
        try:
            interp.run("40 + 2")
            interp.run("41 + 2")
            miss, hit = tracer.roots[-2:]
        finally:
            trace.disable()
        assert [child.name for child in miss.children] == [
            "lang.parse",
            "lang.check",
            "lang.eval",
        ]
        assert "shape" not in miss.tags
        assert hit.tags["shape"] == "hit"
        assert [child.name for child in hit.children] == ["lang.eval"]
