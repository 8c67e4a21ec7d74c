"""E2 — Naive vs memoized TotalCost on part explosions.

The paper: when "the parts explosion diagram is not a tree but a
directed acyclic graph", the naive recursion recomputes shared
subparts; memoizing through transient fields visits each part once.

Sweep: sharing factor 0 (tree) → 0.9 (heavy DAG) at fixed depth/fan;
plus the ladder DAG where the gap is exponential.

Expected shape: on trees the two strategies tie; the memoized win grows
with sharing; on the ladder it is astronomically large (the naive run
at depth 18 does 2^19 visits vs 19).

Then the walks are timed on the repository benchmark's heap workload
shape, :func:`~repro.workloads.parts.layered_dag` levels (800, 400, 200,
100, 50) with fan 3 (1,551 parts, 2,300 components; ``--quick`` takes a
tenth of each level): ``clear_memos`` + ``roll_up_memoized``,
``roll_up_naive``, and the same DAG costed as plain dicts, interleaved,
each recorded as a median with its IQR in ``BENCH_bom.json``.  The run
exits non-zero if naive and memoized values differ, if either is not
``isclose`` to the plain-dict cost, or if the memoized run's visits
differ from ``explosion_size``.  No timing ratio is gated: the
walks-to-dicts ratio moves too much from run to run on a shared host.

Run:  pytest benchmarks/bench_bom.py --benchmark-only
      python benchmarks/bench_bom.py [--quick]   (prints the E2 tables)
"""

import math

import pytest

from repro.apps.bom import (
    TOTAL_COST,
    clear_memos,
    components_of,
    explosion_size,
    roll_up_memoized,
    roll_up_naive,
)
from repro.workloads.parts import ladder_dag, layered_dag, random_dag, uniform_tree

DEPTH = 9
FAN = 2
# The repository benchmark's heap workload: parts per level, base first.
LAYERS = (800, 400, 200, 100, 50)
QUICK_LAYERS = (80, 40, 20, 10, 5)
LAYER_FAN = 3


@pytest.mark.parametrize("sharing", [0.0, 0.5, 0.9])
def test_naive_costing(benchmark, sharing):
    part = random_dag(DEPTH, FAN, sharing, seed=11)
    result = benchmark(lambda: roll_up_naive(part, TOTAL_COST))
    assert result.visits == 2 ** (DEPTH + 1) - 1


@pytest.mark.parametrize("sharing", [0.0, 0.5, 0.9])
def test_memoized_costing(benchmark, sharing):
    part = random_dag(DEPTH, FAN, sharing, seed=11)

    def run():
        clear_memos(part, TOTAL_COST)
        return roll_up_memoized(part, TOTAL_COST)

    result = benchmark(run)
    assert result.visits == explosion_size(part)


def test_ladder_memoized_feasible(benchmark):
    """depth-18 ladder: 2^19-1 naive visits vs 19 memoized."""
    part = ladder_dag(depth=18, fan=2)

    def run():
        clear_memos(part, TOTAL_COST)
        return roll_up_memoized(part, TOTAL_COST)

    result = benchmark(run)
    assert result.visits == 19


def test_values_agree():
    for sharing in (0.0, 0.5, 0.9):
        part = random_dag(DEPTH, FAN, sharing, seed=11)
        naive = roll_up_naive(part, TOTAL_COST)
        clear_memos(part, TOTAL_COST)
        memo = roll_up_memoized(part, TOTAL_COST)
        assert naive.value == pytest.approx(memo.value)


def plain_dicts(product):
    """The explosion as plain data: ``(base price or own cost by part
    number, (sub-part number, qty) lists by assembly number)``."""
    numbers, order = {id(product): 0}, [product]
    value, uses = {}, {}
    for number, part in enumerate(order):  # grows as the walk finds parts
        if part["IsBase"]:
            value[number] = part["PurchasePrice"]
            continue
        value[number] = part["ManufacturingCost"]
        uses[number] = []
        for sub_part, qty in components_of(part):
            if id(sub_part) not in numbers:
                numbers[id(sub_part)] = len(order)
                order.append(sub_part)
            uses[number].append((numbers[id(sub_part)], qty))
    return value, uses


def plain_dict_cost(model):
    """TotalCost of part 0 over :func:`plain_dicts`' model, memoized in a
    dict, summed in the walks' order: own value, then each use."""
    value, uses = model
    memo = {}

    def cost(part):
        if part in memo:
            return memo[part]
        total = value[part]
        for sub_part, qty in uses.get(part, ()):
            total += cost(sub_part) * qty
        memo[part] = total
        return total

    return cost(0)


def time_layered_walks(writer, quick):
    """Time the walks against plain dicts on the heap workload's shape;
    returns the failures of the correctness checks."""
    try:
        from benchmarks._results import interleaved_medians
    except ImportError:
        from _results import interleaved_medians

    levels = QUICK_LAYERS if quick else LAYERS
    repeats = 21 if quick else 101
    product = layered_dag(levels, LAYER_FAN, seed=11)
    parts = explosion_size(product)
    model = plain_dicts(product)

    def walks():
        clear_memos(product, TOTAL_COST)
        return roll_up_memoized(product, TOTAL_COST)

    medians, results = interleaved_medians(writer, parts, [
        ("clear_and_memoized", lambda: walks),
        ("naive", lambda: lambda: roll_up_naive(product, TOTAL_COST)),
        ("plain_dicts", lambda: lambda: plain_dict_cost(model)),
    ], repeats, levels=list(levels), fan=LAYER_FAN)
    floor = medians["plain_dicts"]
    print("\nE2 timed — layered DAG %s, fan %d: %d parts; median of %d"
          " interleaved runs" % (levels, LAYER_FAN, parts, repeats))
    print("%-20s %10s %10s %12s" % ("walk", "ms", "IQR ms", "x dicts"))
    for row in writer.rows[-3:]:
        row["ratio_to_plain_dicts"] = round(row["seconds"] / floor, 2)
        print("%-20s %10.3f %10.3f %11.2fx" % (
            row["op"], row["seconds"] * 1e3, row["iqr"] * 1e3,
            row["ratio_to_plain_dicts"]))

    memoized, naive = results["clear_and_memoized"], results["naive"]
    expected = results["plain_dicts"]
    failures = []
    if naive.value != memoized.value:
        failures.append("naive %r != memoized %r" % (naive.value, memoized.value))
    for name, got in (("naive", naive.value), ("memoized", memoized.value)):
        if not math.isclose(got, expected, rel_tol=1e-9):
            failures.append("%s %r is not the plain-dict cost %r"
                            % (name, got, expected))
    if memoized.visits != parts:
        failures.append("memoized visits %d != explosion_size %d"
                        % (memoized.visits, parts))
    return failures


def main():
    try:
        from benchmarks._results import ResultsWriter, quick_requested
    except ImportError:
        from _results import ResultsWriter, quick_requested

    quick = quick_requested()
    writer = ResultsWriter("bom", quick=quick)
    print("E2 — TotalCost: naive vs memoized (depth=%d, fan=%d)" % (DEPTH, FAN))
    print("%-10s %8s %12s %12s %14s" % ("sharing", "parts", "naive", "memoized",
                                        "visit ratio"))
    for sharing in (0.0, 0.25, 0.5, 0.75, 0.9):
        part = random_dag(DEPTH, FAN, sharing, seed=11)
        naive = roll_up_naive(part, TOTAL_COST)
        clear_memos(part, TOTAL_COST)
        memo = roll_up_memoized(part, TOTAL_COST)
        assert naive.value == memo.value
        print("%-10.2f %8d %12d %12d %14.1fx"
              % (sharing, explosion_size(part), naive.visits, memo.visits,
                 naive.visits / memo.visits))

    tree = uniform_tree(depth=8, fan=2)
    naive = roll_up_naive(tree, TOTAL_COST)
    clear_memos(tree, TOTAL_COST)
    memo = roll_up_memoized(tree, TOTAL_COST)
    print("\ntree explosion: naive=%d memo=%d (memoization buys nothing"
          % (naive.visits, memo.visits))
    print("on a tree, exactly as the paper notes)")

    ladder = ladder_dag(depth=18, fan=2)
    memo = roll_up_memoized(ladder, TOTAL_COST)
    print("ladder depth=18: memoized visits=%d; naive would need %d"
          % (memo.visits, 2 ** 19 - 1))

    failures = time_layered_walks(writer, quick)
    print("results -> %s" % writer.write())
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))


if __name__ == "__main__":
    main()
