"""E4/E5 revisited — the signature-partitioned kernel vs the naive oracle.

The original E4/E5 harnesses measured the generalized operators at tens
to hundreds of rows because the all-pairs implementations were
quadratic.  This harness runs the *mixed-signature* workload (every
record carries the ground join key ``K``; three optional labels per side
make up to 8 signatures each) at n≈2–5k and compares:

* cochain **reduction** (relation construction / bulk build): naive
  all-pairs ``cpo.maximal_elements`` vs the kernel's
  signature-partition + ground-atom buckets;
* the generalized **join**: naive |L|·|R| ``try_join`` enumeration plus
  naive reduction vs the hash-bucketed kernel;
* ingestion (E5 revisited): the per-insert subsumption stream — one
  immutable relation per record by construction — vs
  ``RelationBuilder``'s single partitioned bulk reduction.

It also times served_read's op in-process — ``relation(L)`` of 24
partial records joined with a warm 8-department relation, matched on
one department and counted — as the ``served_op`` row.

Kernel rows record the median of interleaved repeats with their IQR,
each repeat on relation objects built afresh outside the timer, so a
cached index does not flatter the row.  A run of the naive oracle
takes seconds at these sizes, so its rows are one run (``repeats: 1``).

The acceptance bar is a ≥5× speedup on join and reduction at these
sizes (2× with ``--quick``), recorded in ``BENCH_relation.json``; the
run *fails* below it, or if the ``relation.join.pairs_pruned`` counter
stays at zero on the mixed-signature join — the pruning counter doubles
as a regression guard on the partition logic (wired into CI via
``--quick``).

Run:  pytest benchmarks/bench_relation.py --benchmark-only
      python benchmarks/bench_relation.py [--quick]
"""

import random

import pytest

from repro.core import cpo
from repro.core.orders import leq, try_join
from repro.core.relation import GeneralizedRelation, RelationBuilder
from repro.lang.eval import RuntimeRecord, _record_to_domain
from repro.obs.metrics import REGISTRY
from repro.workloads.relations import (
    mixed_signature_pair,
    mixed_signature_records,
)


# -- the naive oracle: the pre-kernel all-pairs implementations ------------


def naive_reduce(members):
    """Cochain reduction exactly as the seed implementation ran it."""
    return sorted(cpo.maximal_elements(list(members), leq), key=repr)


def naive_join(left, right):
    """|L|·|R| consistency checks, then the all-pairs reduction."""
    joined = []
    for mine in left.objects:
        for theirs in right.objects:
            combined = try_join(mine, theirs)
            if combined is not None:
                joined.append(combined)
    return naive_reduce(joined)


def insert_stream(records):
    """Per-insert subsumption: one immutable relation per record (E5)."""
    current = GeneralizedRelation()
    for value in records:
        current = current.insert(value)
    return current


# -- pytest benchmarks (small sizes: these run inside tier-1) --------------


@pytest.mark.parametrize("size", [200, 500])
def test_kernel_reduction(benchmark, size):
    records = mixed_signature_records(size, key_cardinality=size // 4, seed=3)
    relation = benchmark(lambda: RelationBuilder().add_all(records).build())
    assert set(relation.objects) == set(naive_reduce(records))


@pytest.mark.parametrize("size", [200, 400])
def test_kernel_join(benchmark, size):
    left, right = mixed_signature_pair(size, key_cardinality=size, seed=3)
    g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
    result = benchmark(lambda: g_left.join(g_right))
    assert set(result.objects) == set(naive_join(g_left, g_right))


def test_mixed_signature_join_prunes_pairs():
    left, right = mixed_signature_pair(200, key_cardinality=50, seed=3)
    g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
    pruned = REGISTRY.counter("relation.join.pairs_pruned")
    before = pruned.value
    g_left.join(g_right)
    assert pruned.value > before


# -- the served op's shape ----------------------------------------------------


def served_shape(seed, records=24, departments=8):
    """served_read's data as DBPL records: ``records`` partial records
    (``Name``; 80% carry ``Dept``, 60% ``Addr.City``, 40% ``Addr.State``)
    and ``departments`` department records (``Dept``, partial ``Addr``)."""
    rng = random.Random(seed)

    def partial(count, depts):
        def chosen(share):
            return set(rng.sample(range(count), round(count * share)))

        with_dept, with_city, with_state = chosen(0.8), chosen(0.6), chosen(0.4)
        rows = []
        for i in range(count):
            fields = {"Dept": "d%d" % i} if depts else {"Name": "n%d" % i}
            if not depts and i in with_dept:
                fields["Dept"] = "d%d" % rng.randrange(departments)
            addr = {}
            if i in with_city:
                addr["City"] = "c%d" % rng.randrange(6)
            if i in with_state:
                addr["State"] = "s%d" % rng.randrange(3)
            if addr:
                fields["Addr"] = RuntimeRecord(addr)
            rows.append(RuntimeRecord(fields))
        return rows

    return partial(records, False), partial(departments, True)


def served_op(members, dept, pattern):
    """``rcount(rmatch(rjoin(relation(L), dept), pattern))`` through the
    builtins' own conversion (``relation`` and ``rmatch`` convert DBPL
    records as served_read's do)."""
    relation = GeneralizedRelation(_record_to_domain(item) for item in members)
    return len(relation.join(dept).matching(_record_to_domain(pattern)))


# -- the directly-runnable sweep -------------------------------------------


def main():
    try:
        from benchmarks._results import (
            ResultsWriter,
            interleaved_medians,
            quick_requested,
        )
    except ImportError:
        from _results import ResultsWriter, interleaved_medians, quick_requested

    quick = quick_requested()
    writer = ResultsWriter("relation", quick=quick)

    reduce_sizes = (400,) if quick else (2000, 5000)
    join_sizes = (300,) if quick else (1000, 2000)
    insert_sizes = (400,) if quick else (2000,)
    repeats = 5 if quick else 9
    served_repeats = 51 if quick else 401

    print("E4/E5 revisited — naive all-pairs vs signature-partitioned kernel")
    print("(mixed-signature workload: ground key K + optional labels)")
    print("kernel columns: median of %d interleaved runs on fresh relations;"
          % repeats)
    print("naive columns: one run (rows marked repeats=1 in the JSON)\n")

    worst_speedup = None

    print("%-22s %8s %12s %12s %9s" % ("op", "n", "naive(s)", "kernel(s)", "speedup"))
    for size in reduce_sizes:
        records = mixed_signature_records(
            size, key_cardinality=size // 4, seed=3
        )
        naive, naive_t = writer.timeit(
            "naive_reduce", size, lambda: naive_reduce(records), repeats=1
        )
        medians, built = interleaved_medians(writer, size, [
            ("kernel_reduce",
             lambda: lambda: RelationBuilder().add_all(records).build()),
        ], repeats)
        kernel_t = medians["kernel_reduce"]
        assert set(built["kernel_reduce"].objects) == set(naive)
        speedup = naive_t / kernel_t if kernel_t else float("inf")
        writer.rows[-1]["speedup"] = round(speedup, 1)
        worst_speedup = min(worst_speedup or speedup, speedup)
        print("%-22s %8d %12.4f %12.4f %8.1fx"
              % ("reduce (build)", size, naive_t, kernel_t, speedup))

    pruned_before = REGISTRY.value("relation.join.pairs_pruned")
    for size in join_sizes:
        left, right = mixed_signature_pair(size, key_cardinality=size, seed=3)
        g_left, g_right = GeneralizedRelation(left), GeneralizedRelation(right)
        naive, naive_t = writer.timeit(
            "naive_join", size, lambda: naive_join(g_left, g_right), repeats=1
        )

        def fresh_join():
            fresh_left = GeneralizedRelation(left)
            fresh_right = GeneralizedRelation(right)
            return lambda: fresh_left.join(fresh_right)

        medians, joined = interleaved_medians(
            writer, size, [("kernel_join", fresh_join)], repeats
        )
        kernel_t = medians["kernel_join"]
        assert set(joined["kernel_join"].objects) == set(naive)
        speedup = naive_t / kernel_t if kernel_t else float("inf")
        writer.rows[-1]["speedup"] = round(speedup, 1)
        worst_speedup = min(worst_speedup or speedup, speedup)
        print("%-22s %8d %12.4f %12.4f %8.1fx"
              % ("join", size, naive_t, kernel_t, speedup))
    pruned = REGISTRY.value("relation.join.pairs_pruned") - pruned_before

    # E5 revisited: per-insert subsumption vs the partitioned bulk build.
    # The stream path pays one relation (scan + copy) per record by
    # construction; RelationBuilder defers to a single partitioned
    # reduction, which is where ingestion should go.
    for size in insert_sizes:
        records = mixed_signature_records(
            size, key_cardinality=size // 4, seed=5, null_fraction=0.5
        )
        medians, results = interleaved_medians(writer, size, [
            ("insert_stream", lambda: lambda: insert_stream(records)),
            ("bulk_build",
             lambda: lambda: RelationBuilder().add_all(records).build()),
        ], repeats)
        stream_t, bulk_t = medians["insert_stream"], medians["bulk_build"]
        assert results["bulk_build"] == results["insert_stream"]
        speedup = stream_t / bulk_t if bulk_t else float("inf")
        writer.rows[-1]["speedup"] = round(speedup, 1)
        print("%-22s %8d %12.4f %12.4f %8.1fx"
              % ("insert vs bulk", size, stream_t, bulk_t, speedup))

    # The served op's shape: relation(L) of 24 partial records, joined
    # with a warm 8-department relation (its index and buckets already
    # built, as a session's prelude ``dept`` is after its first query),
    # then matched on one department and counted.
    members, departments = served_shape(seed=11)
    dept = GeneralizedRelation(_record_to_domain(d) for d in departments)
    pattern = RuntimeRecord({"Dept": "d3"})
    expected = served_op(members, dept, pattern)  # warms dept
    medians, counts = interleaved_medians(writer, len(members), [
        ("served_op", lambda: lambda: served_op(members, dept, pattern)),
    ], served_repeats, departments=len(departments))
    assert counts["served_op"] == expected
    print("%-22s %8d %12s %12.6f"
          % ("served op (24 x 8)", len(members), "-", medians["served_op"]))

    print("\npairs pruned by the bucket kernel this run: %d" % pruned)

    # Regression guards: the partition logic must prune on mixed
    # signatures, and the headline join/reduce speedup must hold.
    if pruned <= 0:
        raise SystemExit(
            "FAIL: relation.join.pairs_pruned did not advance on the"
            " mixed-signature workload — partition/bucket logic regressed"
        )
    floor = 2.0 if quick else 5.0
    if worst_speedup is None or worst_speedup < floor:
        raise SystemExit(
            "FAIL: kernel speedup %.1fx below the %.0fx floor"
            % (worst_speedup or 0.0, floor)
        )
    print("kernel ≥ %.0fx naive on every join/reduce row (worst %.1fx)"
          % (floor, worst_speedup))
    print("results -> %s" % writer.write())


if __name__ == "__main__":
    main()
