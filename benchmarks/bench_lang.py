"""E8 (ablation) — the cost of the static discipline in DBPL.

The paper takes the position that "for databases, type-checking is one
of the best techniques for ensuring program correctness" and favours
"predominantly static type-checking in the tradition of Pascal".  The
reproduction band notes the hazard of a Python host: "easy dynamically,
but static typing discipline lost."  This ablation quantifies what the
recovered discipline costs:

* pipeline split: lex / parse / check / eval on a representative
  program — the check is a one-time cost;
* amortization: checking once then evaluating N times vs re-checking
  every time;
* the served statements: the repository benchmark's read statement and
  its two write statements, each as a miss (the shape scan, parse and
  check on a scratch copy of the session environment) and as a hit (the
  shape scan and the template's instantiation), and run whole both ways;
* the residual dynamic checks: DBPL's ``get[T]`` (one subtype check per
  value at run time) against the same query through the library.

Every timing is the median of interleaved repeats with its
interquartile range (``_results.interleaved_medians``).  The run exits
non-zero when a served statement's hit gives another program (positions
aside), type or value than parsing and checking it afresh.  It gates no
timing.

Run:  pytest benchmarks/bench_lang.py --benchmark-only
      python benchmarks/bench_lang.py [--quick]   (prints the E8 tables)
"""

import dataclasses
import itertools
import random

import pytest

from repro.lang.checker import CheckEnv, check_program
from repro.lang.eval import Interpreter, format_value
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program

PROGRAM = """
type Person = {Name: String, Address: {City: String}}
type Employee = Person with {Empno: Int, Dept: String}

let db = newdb();
insert(db, dynamic {Name = "P One", Address = {City = "Austin"}});
insert(db, dynamic {Name = "E One", Address = {City = "Moose"},
                    Empno = 1, Dept = "Sales"});
insert(db, dynamic {Name = "E Two", Address = {City = "Billings"},
                    Empno = 2, Dept = "Manuf"});

fun names(d: Database): List[String] =
  map(fn(e: Employee) => e.Name, get[Employee](d))

fun fact(n: Int): Int = if n <= 1 then 1 else n * fact(n - 1)

sum(map(fn(s: String) => intToFloat(fact(5)), names(db)))
"""

# The repository benchmark's served statements (perfbench/served.py),
# each with the literals of two of its ops.
SERVED = (
    (
        "served_read",
        'rcount(rmatch(rjoin(relation(coerce intern("%s") to List[{}]), dept),'
        ' {Dept = "%s"}))',
        ("L17", "d3"),
        ("L4", "d6"),
    ),
    ("served_write.auto", 'extern("%s", dynamic %d);', ("w0a3", 3), ("w1a7", 10000007)),
    (
        "served_write.txn",
        'let p = coerce intern("%s") to {K: Int, V: String};'
        ' extern("%s", dynamic (p.K + %d)); p.K',
        ("p17", "w0b5", 5),
        ("p3", "w1b2", 10000012),
    ),
)

DEPARTMENTS = 8
RECORDS = 24


def test_lex(benchmark):
    tokens = benchmark(lambda: tokenize(PROGRAM))
    assert len(tokens) > 50


def test_parse(benchmark):
    program = benchmark(lambda: parse_program(PROGRAM))
    assert len(program.declarations) > 5


def test_check(benchmark):
    program = parse_program(PROGRAM)
    result = benchmark(lambda: check_program(program, CheckEnv.initial()))
    assert result[0] is not None


def test_full_run(benchmark):
    def run():
        return Interpreter().run(PROGRAM)

    result = benchmark(run)
    assert result.value == 240.0  # 2 employees × fact(5)


def test_check_once_eval_many(benchmark):
    """The session pattern: declarations checked once, queries repeated."""
    interp = Interpreter()
    interp.run(PROGRAM)

    def query():
        return interp.run("length(get[Employee](db))")

    result = benchmark(query)
    assert result.value == 2


@pytest.mark.parametrize("size", [200])
def test_dbpl_get_vs_library_get(benchmark, size):
    """The residual dynamic check is the same in both worlds."""
    from repro.workloads.employees import EMPLOYEE_T, employee_database

    interp = Interpreter()
    interp.run(
        "type Employee = {Name: String, Emp_no: Int}\nlet db = newdb();"
    )
    db = interp._globals.lookup("db")
    for member in employee_database(size, seed=5):
        db.insert(member)

    library_result = len(db.scan(EMPLOYEE_T))
    result = benchmark(lambda: interp.run("length(get[Employee](db))"))
    # DBPL's Employee type only requires Name+Empno; the library's
    # EMPLOYEE_T requires more fields, so DBPL may see a superset.
    assert result.value >= library_result


def served_session():
    """A session holding what the served statements read: Figure 1's
    departments bound as ``dept``, lists ``L0``–``L23`` of partial
    employee records, and ``{K, V}`` records ``p0``–``p23``."""
    rng = random.Random(11)
    interp = Interpreter()
    depts = ", ".join(
        '{Dept = "d%d", Floor = %d}' % (d, d % 3) for d in range(DEPARTMENTS)
    )
    interp.run("let dept = relation([%s]);" % depts)
    for i in range(RECORDS):
        rows = ", ".join(
            '{Emp = "e%d", Dept = "d%d"}' % (i * RECORDS + r, rng.randrange(DEPARTMENTS))
            for r in range(RECORDS)
        )
        interp.run('extern("L%d", dynamic [%s]);' % (i, rows))
        interp.run(
            'extern("p%d", dynamic {K = %d, V = "v%d"});'
            % (i, rng.randrange(10**6), rng.randrange(997))
        )
    return interp


def without_positions(node):
    """``node`` with every position zeroed."""
    if isinstance(node, tuple):
        return tuple(without_positions(item) for item in node)
    if dataclasses.is_dataclass(node):
        return type(node)(**{
            field.name: (0, 0) if field.name == "pos"
            else without_positions(getattr(node, field.name))
            for field in dataclasses.fields(node)
        })
    return node


def scratch_env(interp):
    env = interp._check_env
    return CheckEnv(env.values, env.type_names, env.bounds)


def check_hits():
    """Each served statement's hit against a fresh parse and check;
    returns the differences found."""
    failures = []
    for name, template, first, second in SERVED:
        source = template % second
        cached = served_session()
        cached.run(template % first)
        cached.run(template % first)  # a declaration commits its binding
        __, __, recalled = cached._recall(source)
        if recalled is None:
            failures.append("%s: the repeated shape missed" % name)
            continue
        if without_positions(recalled[0]) != without_positions(parse_program(source)):
            failures.append("%s: the hit's program differs from a parse" % name)
        hit = cached.run(source)
        fresh = served_session().run(source)
        if str(hit.type) != str(fresh.type):
            failures.append("%s: type %s, not %s" % (name, hit.type, fresh.type))
        if format_value(hit.value) != format_value(fresh.value):
            failures.append("%s: value %s, not %s" % (
                name, format_value(hit.value), format_value(fresh.value)))
    return failures


def time_served_statements(writer, repeats):
    """Each served statement's miss and hit, then its whole run both
    ways; the statements alternate between their two ops' literals."""
    try:
        from benchmarks._results import interleaved_medians
    except ImportError:
        from _results import interleaved_medians

    interp = served_session()
    cases = []
    for name, template, first, second in SERVED:
        sources = [template % first, template % second]
        for source in sources:  # check it, then commit equal bindings
            interp.run(source)
            interp.run(source)
        fresh_source = itertools.cycle(sources).__next__

        def parse_check(fresh_source=fresh_source):
            source = fresh_source()
            return lambda: check_program(parse_program(source), scratch_env(interp))

        def miss(fresh_source=fresh_source):
            source = fresh_source()
            interp._shapes.clear()

            def compile_miss():
                key, literals, __ = interp._recall(source)
                return interp._check(parse_program(source), key, literals)

            return compile_miss

        def hit(fresh_source=fresh_source):
            interp._recall(fresh_source())  # the first hit builds the template
            source = fresh_source()
            return lambda: interp._recall(source)[2]

        def run_miss(fresh_source=fresh_source):
            source = fresh_source()
            interp._shapes.clear()
            return lambda: interp.run(source)

        def run_hit(fresh_source=fresh_source):
            interp.run(fresh_source())
            source = fresh_source()
            return lambda: interp.run(source)

        cases += [
            (name + ".parse_check", parse_check),
            (name + ".miss", miss),
            (name + ".hit", hit),
            (name + ".run_miss", run_miss),
            (name + ".run_hit", run_hit),
        ]
    medians, __ = interleaved_medians(writer, 1, cases, repeats)
    for row in writer.rows[-len(cases):]:
        name, __, kind = row["op"].rpartition(".")
        if kind in ("hit", "run_hit"):
            miss = medians["%s.%s" % (name, kind.replace("hit", "miss"))]
            row["speedup"] = round(miss / row["seconds"], 2)
    print("\nE8 — served statements: median of %d interleaved runs (µs)" % repeats)
    print("%-20s %12s %10s %10s %10s %10s" % (
        "statement", "parse+check", "miss", "hit", "run miss", "run hit"))
    for name, *__ in SERVED:
        print("%-20s %12.1f %10.1f %10.1f %10.1f %10.1f" % ((name,) + tuple(
            medians[name + suffix] * 1e6
            for suffix in (".parse_check", ".miss", ".hit", ".run_miss", ".run_hit")
        )))


def main():
    try:
        from benchmarks._results import (
            ResultsWriter,
            interleaved_medians,
            quick_requested,
        )
    except ImportError:  # run as a script: benchmarks/ is on the path
        from _results import ResultsWriter, interleaved_medians, quick_requested

    quick = quick_requested()
    repeats = 15 if quick else 101
    writer = ResultsWriter("lang", quick=quick)
    program = parse_program(PROGRAM)
    session = Interpreter()
    session.run(PROGRAM)
    medians, __ = interleaved_medians(writer, len(PROGRAM), [
        ("lex", lambda: lambda: tokenize(PROGRAM)),
        ("parse", lambda: lambda: parse_program(PROGRAM)),
        ("check", lambda: lambda: check_program(program, CheckEnv.initial())),
        ("full_run", lambda: lambda: Interpreter().run(PROGRAM)),
        ("repeated_query", lambda: lambda: session.run("length(get[Employee](db))")),
    ], repeats)

    print("E8 — DBPL pipeline split (representative program): median of %d"
          " interleaved runs" % repeats)
    print("%-16s %12s %10s" % ("stage", "time (ms)", "IQR (ms)"))
    for row in writer.rows:
        print("%-16s %12.3f %10.3f" % (row["op"], row["seconds"] * 1e3, row["iqr"] * 1e3))
    print("The static check is a fixed, sub-program-cost overhead paid")
    print("once per compilation — the paper's trade accepted explicitly.")

    time_served_statements(writer, repeats)
    failures = check_hits()
    print("results -> %s" % writer.write())
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("every hit's program, type and value match a fresh parse and check")


if __name__ == "__main__":
    main()
