"""The bill-of-materials computation (the paper's closing example).

The paper's outline program::

    function TotalCost(p: Part);
      if p.IsBase then p.PurchasePrice
      else p.ManufacturingCost +
           sum{TotalCost(q.SubPart) * q.Qty | q in p.Components}

"The only difficulty with this is that when a given subpart is used in
more than one way in the manufacture of a larger part, the total cost
will be needlessly recomputed for that subpart.  This will happen when
the parts explosion diagram is not a tree but a directed acyclic graph.
The way out of this is to memoize intermediate results.  In order to do
this we need to attach further fields to the Part type in which to store
these results ...  Even though the Part values in which we are
interested are presumably persistent, there is no need for the
additional information to persist."

Parts are :class:`~repro.persistence.heap.PObject` graphs — persistent
under the intrinsic model — and the memo is a field marked *transient*,
so a commit after a costing run writes no memo data (benchmark E2 and
the tests verify both the speedup and the non-persistence).

:class:`RollUp` generalizes the pattern: the paper notes the real
bill-of-materials task computes cost *and* mass simultaneously, so the
roll-up is parameterized by how base parts and assemblies contribute.

**The walks.**  Every walk runs on an explicit stack or queue, so an
explosion of any depth costs no interpreter stack, and each costs a
small multiple of the same walk over plain dicts (benchmark E2 times
both).  A roll-up keeps the assembly it is summing in locals and steps
through that part's ``Components`` list by index; it pushes one frame
per sub-assembly it enters and builds no list of ``(sub-part, qty)``
pairs.  It reads each part's and each component's field mapping once,
through the ``_fields`` slot (:class:`~repro.persistence.heap.PObject`
documents it as the read path for whole-graph walks).  Each memo is
stored with one :meth:`~repro.persistence.heap.PObject.set_transient`
call, so the stamp rule stays in :mod:`repro.persistence.heap`.  The
sum is the part's own value, then each component's ``value * qty`` in
list order, the same order with or without a memo, so a memoized value
is bit-identical to the naive one.  ``clear_memos`` finds the explosion
breadth first and drops each memo with one ``del``, which takes its
transient mark too.  A part without ``IsBase`` or its price, or a
component without ``SubPart``, raises the
:class:`~repro.errors.PersistenceError` that reading the field through
``part[field]`` raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Set, Tuple

from repro.errors import ReproError
from repro.persistence.heap import PObject, missing_field

Component = Tuple[PObject, int]


def make_base_part(
    name: str, purchase_price: float, mass: float = 0.0
) -> PObject:
    """A base (purchased) part: contributes its purchase price."""
    return PObject(
        "Part",
        {
            "Name": name,
            "IsBase": True,
            "PurchasePrice": purchase_price,
            "Mass": mass,
        },
    )


def make_assembly(
    name: str,
    manufacturing_cost: float,
    components: Iterable[Component],
    assembly_mass: float = 0.0,
) -> PObject:
    """A manufactured part with (sub-part, quantity) components."""
    component_objects = []
    for sub_part, qty in components:
        if not isinstance(sub_part, PObject) or sub_part.kind != "Part":
            raise ReproError("component sub-parts must be Part objects")
        if qty <= 0:
            raise ReproError("component quantity must be positive")
        component_objects.append(
            PObject("Component", {"SubPart": sub_part, "Qty": qty})
        )
    return PObject(
        "Part",
        {
            "Name": name,
            "IsBase": False,
            "ManufacturingCost": manufacturing_cost,
            "Mass": assembly_mass,
            "Components": component_objects,
        },
    )


def components_of(part: PObject) -> List[Component]:
    """The (sub-part, quantity) pairs of an assembly (empty for bases)."""
    if part.get("IsBase"):
        return []
    return [(c["SubPart"], c["Qty"]) for c in part.get("Components", [])]


@dataclass
class RollUp:
    """A bottom-up aggregate over the parts explosion.

    ``base_value(part)`` scores a purchased part; ``own_value(part)``
    scores an assembly's own contribution; component contributions are
    ``value(sub) * qty`` summed in.  ``memo_field`` names the transient
    field used by the memoized evaluation.
    """

    name: str
    base_value: Callable[[PObject], float]
    own_value: Callable[[PObject], float]
    memo_field: str = "_memo"


TOTAL_COST = RollUp(
    name="TotalCost",
    base_value=lambda p: p["PurchasePrice"],
    own_value=lambda p: p["ManufacturingCost"],
    memo_field="_TotalCost",
)

TOTAL_MASS = RollUp(
    name="TotalMass",
    base_value=lambda p: p["Mass"],
    own_value=lambda p: p.get("Mass", 0.0),
    memo_field="_TotalMass",
)


@dataclass
class RollUpResult:
    """The value of a roll-up plus how many node visits it took."""

    value: float
    visits: int


def roll_up_naive(part: PObject, roll_up: RollUp = TOTAL_COST) -> RollUpResult:
    """The paper's recursive program: no memoization.

    On a DAG explosion the visit count grows with the number of *paths*,
    not the number of parts — exponential in the worst case.
    """
    return _roll_up(part, roll_up, None)


def roll_up_memoized(part: PObject, roll_up: RollUp = TOTAL_COST) -> RollUpResult:
    """Memoized roll-up: intermediate results live in transient fields.

    Each part's result is stored in ``roll_up.memo_field``, which is
    marked transient — "there is no need for the additional information
    to persist", and a commit after this run confirms it writes nothing
    extra.  Visits are bounded by the number of distinct parts.
    """
    return _roll_up(part, roll_up, roll_up.memo_field)


def _roll_up(part: PObject, roll_up: RollUp, field) -> RollUpResult:
    """The recursion on an explicit stack, memoizing in ``field`` unless
    it is ``None`` (the module docstring describes the walk).

    The assembly being summed lives in locals: itself, its running
    total, its ``Components`` list, the index of the next component and
    its quantity in its parent.  Entering a sub-assembly pushes them as
    one tuple.  The bottom frame stands in for the root's parent and
    holds one Component of the root.
    """
    base_value, own_value = roll_up.base_value, roll_up.own_value
    visits = 0
    stack = []
    assembly, total, qty_in_parent = None, 0.0, 1
    components = (PObject("Component", {"SubPart": part, "Qty": 1}),)
    index = 0
    while True:
        if index == len(components):
            if not stack:
                return RollUpResult(total, visits)
            if field is not None:
                assembly.set_transient(field, total)
            value, qty = total, qty_in_parent
            assembly, total, components, index, qty_in_parent = stack.pop()
            total += value * qty
            continue
        component = components[index]
        index += 1
        try:
            uses = component._fields
            sub_part, qty = uses["SubPart"], uses["Qty"]
        except KeyError as absent:
            raise missing_field(component, absent.args[0]) from None
        fields = sub_part._fields
        if field is not None and field in fields:
            total += fields[field] * qty  # already computed
            continue
        visits += 1
        try:
            is_base = fields["IsBase"]
        except KeyError:
            raise missing_field(sub_part, "IsBase") from None
        if is_base:
            value = base_value(sub_part)
            if field is not None:
                sub_part.set_transient(field, value)
            total += value * qty
        else:
            stack.append((assembly, total, components, index, qty_in_parent))
            assembly, total, qty_in_parent = sub_part, own_value(sub_part), qty
            components, index = fields.get("Components", ()), 0


def clear_memos(part: PObject, roll_up: RollUp = TOTAL_COST) -> int:
    """Remove memo fields from the whole explosion; returns how many.

    A memo field someone made persistent moves its part's stamp as it
    goes; a transient one leaves it put and loses its mark."""
    field = roll_up.memo_field
    cleared = 0
    for node in _all_parts(part):
        if field in node._fields:
            del node[field]
            cleared += 1
    return cleared


def total_cost(part: PObject) -> float:
    """The paper's ``TotalCost``, computed naively."""
    return roll_up_naive(part, TOTAL_COST).value


def total_cost_memoized(part: PObject) -> float:
    """The paper's ``TotalCost`` with transient-field memoization."""
    return roll_up_memoized(part, TOTAL_COST).value


def total_mass(part: PObject) -> float:
    """Total mass of a part — the paper's 'simultaneous' second aggregate."""
    return roll_up_naive(part, TOTAL_MASS).value


# ---------------------------------------------------------------------------
# Explosion-shape diagnostics
# ---------------------------------------------------------------------------


def _all_parts(part: PObject) -> List[PObject]:
    """The explosion's distinct parts, breadth first from ``part``.

    A PObject hashes and compares by identity, so ``seen`` holds the
    parts themselves."""
    seen: Set[PObject] = {part}
    order: List[PObject] = [part]
    for node in order:  # grows as the walk finds parts
        fields = node._fields
        if fields.get("IsBase"):
            continue
        for component in fields.get("Components", ()):
            try:
                sub_part = component._fields["SubPart"]
            except KeyError:
                raise missing_field(component, "SubPart") from None
            if sub_part not in seen:
                seen.add(sub_part)
                order.append(sub_part)
    return order


def explosion_size(part: PObject) -> int:
    """The number of distinct parts in the explosion."""
    return len(_all_parts(part))


def is_tree_explosion(part: PObject) -> bool:
    """Is the parts explosion a tree (no shared subparts)?

    When it is, naive and memoized costing visit the same nodes and the
    memo buys nothing — the paper's distinction between tree and DAG.
    """
    seen: Set[int] = set()
    stack = [part]
    while stack:
        for sub_part, __ in components_of(stack.pop()):
            if id(sub_part) in seen:
                return False
            seen.add(id(sub_part))
            stack.append(sub_part)
    return True
