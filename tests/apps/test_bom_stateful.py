"""Model-based stateful testing of the bill-of-materials walks.

A hypothesis state machine holds a random layered parts DAG in a
:class:`PersistentHeap` (a ``parts`` root listing every part, a
``product`` root over the top level) and a plain-dict model of it.  It
drives prices, costs and masses, in-place component edits (append,
remove, change a ``Qty``), rebinding ``Components``, ``clear_memos``
and ``roll_up_memoized`` for both aggregates from the product or from a
sub-assembly (apart, or one after the other as the heap workload's op
does), commits, and reopens.

Checks:

* a roll-up that follows a clear from the same part (or a reopen), with
  nothing changed in between, equals ``roll_up_naive`` exactly and the
  model within ``isclose``, and visits ``explosion_size`` parts;
* ``clear_memos`` returns how many parts of the explosion held the memo;
* neither walk moves the write stamp of any part or component, and
  every memo a roll-up leaves is marked transient;
* a reopened heap holds no memo field.

Edits keep the graph acyclic: a part only ever uses parts of a lower
level.
"""

import math
import os
import random
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.apps.bom import (
    TOTAL_COST,
    TOTAL_MASS,
    clear_memos,
    explosion_size,
    make_assembly,
    make_base_part,
    roll_up_memoized,
    roll_up_naive,
)
from repro.persistence.heap import PObject
from repro.persistence.intrinsic import PersistentHeap

ROLL_UPS = {"cost": TOTAL_COST, "mass": TOTAL_MASS}
AGGREGATES = st.sampled_from(sorted(ROLL_UPS))
STARTS = st.sampled_from(("product", "sub-assembly"))
PICKS = st.integers(min_value=0, max_value=63)
QTYS = st.integers(min_value=1, max_value=3)
# Two decimals, as prices are quoted; zero included.
AMOUNTS = st.integers(min_value=0, max_value=2000).map(lambda cents: cents / 100)


class BomMachine(RuleBasedStateMachine):
    """Part numbers index ``self.parts`` (the heap's ``parts`` root) and
    the model alike; the product is the last part."""

    @initialize(
        bases=st.integers(min_value=1, max_value=6),
        widths=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        fan=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    def setup(self, bases, widths, fan, seed):
        rng = random.Random(seed)
        self._dir = tempfile.mkdtemp()
        self._path = os.path.join(self._dir, "bom.log")
        # The model: per part number its level, and its base price or
        # own cost, its mass, and (assemblies) its [sub, qty] uses.
        self.level, self.value, self.mass, self.uses = [], [], [], {}
        parts = []
        for __ in range(bases):
            price, mass = rng.randrange(100, 1000) / 100, rng.randrange(1, 50) / 10
            parts.append(make_base_part("b%d" % len(parts), price, mass=mass))
            self._model_part(0, price, mass, None)
        below = list(range(bases))
        for level, width in enumerate(widths + [1], 1):
            current = []
            for __ in range(width):
                uses = [[rng.choice(below), rng.randrange(1, 3)] for __ in range(fan)]
                cost, mass = rng.randrange(0, 200) / 100, rng.randrange(0, 10) / 10
                parts.append(make_assembly(
                    "a%d" % len(parts), cost,
                    [(parts[sub], qty) for sub, qty in uses], assembly_mass=mass,
                ))
                current.append(len(parts) - 1)
                self._model_part(level, cost, mass, uses)
            below = current
        self.product = len(parts) - 1
        self.sub_assembly = min(self.uses)  # the lowest-numbered assembly
        self.heap = PersistentHeap(self._path)
        self.heap.root("parts", parts)
        self.heap.root("product", parts[self.product])
        self.heap.commit()
        self.parts = parts
        # (aggregate, start) of a clear nothing has followed yet, or
        # "everything" while no part holds a memo
        self.cleared = "everything"

    def _model_part(self, level, value, mass, uses):
        self.level.append(level)
        self.value.append(value)
        self.mass.append(mass)
        if uses is not None:
            self.uses[len(self.level) - 1] = uses

    # -- the model ----------------------------------------------------------------

    def _start(self, start):
        return self.product if start == "product" else self.sub_assembly

    def _explosion(self, number):
        """The part numbers reachable from ``number``, itself included."""
        found, order = {number}, [number]
        for part in order:
            for sub, __ in self.uses.get(part, ()):
                if sub not in found:
                    found.add(sub)
                    order.append(sub)
        return order

    def _model_value(self, number, aggregate):
        memo = {}

        def value(part):
            if part not in memo:
                own = self.value[part] if aggregate == "cost" else self.mass[part]
                for sub, qty in self.uses.get(part, ()):
                    own += value(sub) * qty
                memo[part] = own
            return memo[part]

        return value(number)

    def _objects(self):
        """Every part and every component object."""
        found = list(self.parts)
        for number in self.uses:
            found.extend(self.parts[number]["Components"])
        return found

    def _walk(self, fn):
        """Run ``fn``; check that no part's or component's stamp moved."""
        objects = self._objects()
        stamps = [obj.stamp for obj in objects]
        result = fn()
        assert [obj.stamp for obj in objects] == stamps
        return result

    # -- prices, costs and masses -------------------------------------------------------

    @rule(pick=PICKS, amount=AMOUNTS)
    def update_price(self, pick, amount):
        number = pick % len(self.parts)
        field = "ManufacturingCost" if number in self.uses else "PurchasePrice"
        self.parts[number][field] = amount
        self.value[number] = amount
        self.cleared = None

    @rule(pick=PICKS, amount=AMOUNTS)
    def update_mass(self, pick, amount):
        number = pick % len(self.parts)
        self.parts[number]["Mass"] = amount
        self.mass[number] = amount
        self.cleared = None

    # -- component edits ------------------------------------------------------------------

    def _assembly(self, pick):
        assemblies = sorted(self.uses)
        return assemblies[pick % len(assemblies)]

    def _lower(self, assembly, pick):
        lower = [n for n, level in enumerate(self.level) if level < self.level[assembly]]
        return lower[pick % len(lower)]

    @rule(pick=PICKS, sub_pick=PICKS, qty=QTYS)
    def append_component(self, pick, sub_pick, qty):
        assembly = self._assembly(pick)
        sub = self._lower(assembly, sub_pick)
        self.parts[assembly]["Components"].append(
            PObject("Component", {"SubPart": self.parts[sub], "Qty": qty})
        )
        self.uses[assembly].append([sub, qty])
        self.cleared = None

    @rule(pick=PICKS, position=PICKS)
    def remove_component(self, pick, position):
        assembly = self._assembly(pick)
        uses = self.uses[assembly]
        if uses:
            at = position % len(uses)
            del self.parts[assembly]["Components"][at]
            del uses[at]
            self.cleared = None

    @rule(pick=PICKS, position=PICKS, qty=QTYS)
    def change_qty(self, pick, position, qty):
        assembly = self._assembly(pick)
        uses = self.uses[assembly]
        if uses:
            at = position % len(uses)
            self.parts[assembly]["Components"][at]["Qty"] = qty
            uses[at][1] = qty
            self.cleared = None

    @rule(pick=PICKS, sub_picks=st.lists(PICKS, max_size=3), qty=QTYS)
    def rebind_components(self, pick, sub_picks, qty):
        assembly = self._assembly(pick)
        uses = [[self._lower(assembly, sub_pick), qty] for sub_pick in sub_picks]
        self.parts[assembly]["Components"] = [
            PObject("Component", {"SubPart": self.parts[sub], "Qty": qty})
            for sub, qty in uses
        ]
        self.uses[assembly] = uses
        self.cleared = None

    # -- the walks ------------------------------------------------------------------------

    @rule(aggregate=AGGREGATES, start=STARTS)
    def clear(self, aggregate, start):
        roll_up, number = ROLL_UPS[aggregate], self._start(start)
        field = roll_up.memo_field
        held = sum(field in self.parts[n] for n in self._explosion(number))
        cleared = self._walk(lambda: clear_memos(self.parts[number], roll_up))
        assert cleared == held
        assert not any(field in self.parts[n] for n in self._explosion(number))
        self.cleared = (aggregate, start)

    @rule(aggregate=AGGREGATES, start=STARTS)
    def roll_up(self, aggregate, start):
        roll_up, number = ROLL_UPS[aggregate], self._start(start)
        part = self.parts[number]
        result = self._walk(lambda: roll_up_memoized(part, roll_up))
        explosion = self._explosion(number)
        assert result.visits <= len(explosion)
        assert roll_up.memo_field in part
        for obj in self.parts:
            if roll_up.memo_field in obj:
                assert roll_up.memo_field in obj.transient_fields
        if self.cleared in ((aggregate, start), "everything"):
            naive = roll_up_naive(part, roll_up)
            assert result.value == naive.value
            assert math.isclose(
                result.value, self._model_value(number, aggregate),
                rel_tol=1e-9, abs_tol=1e-9,
            )
            assert result.visits == explosion_size(part) == len(explosion)
        self.cleared = None

    @rule(aggregate=AGGREGATES, start=STARTS)
    def recost(self, aggregate, start):
        # The heap workload's op: a clear, then a roll-up from one part.
        self.clear(aggregate, start)
        self.roll_up(aggregate, start)

    # -- commit and reopen -----------------------------------------------------------------

    @rule()
    def commit(self):
        self.heap.commit()

    @rule()
    def reopen(self):
        self.heap.commit()
        self.heap.close()
        self.heap = PersistentHeap(self._path)
        self.parts = self.heap.get_root("parts")
        assert self.heap.get_root("product") is self.parts[self.product]
        for obj in self._objects():
            assert not obj.transient_fields
            for roll_up in ROLL_UPS.values():
                assert roll_up.memo_field not in obj
        # Nothing is memoized: the next roll-up from anywhere is fresh.
        self.cleared = "everything"

    def teardown(self):
        self.heap.close()
        shutil.rmtree(self._dir, ignore_errors=True)


BomMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestBomStateful = BomMachine.TestCase
