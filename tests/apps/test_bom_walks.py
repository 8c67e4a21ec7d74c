"""The bill-of-materials walks on malformed and hand-edited parts.

The walks read field mappings directly; these tests pin that they still
raise what reading a field through ``part[field]`` raises, and that
clearing a memo field someone made persistent still moves the stamp.
"""

import pytest

from repro.apps.bom import (
    TOTAL_COST,
    clear_memos,
    explosion_size,
    make_assembly,
    make_base_part,
    roll_up_memoized,
    roll_up_naive,
)
from repro.errors import PersistenceError
from repro.persistence.heap import PObject


def assembly_with(component_fields):
    """An assembly over one good base part plus one hand-made component."""
    part = make_assembly("a", 1.0, [(make_base_part("b", 1.0), 1)])
    part["Components"].append(PObject("Component", component_fields))
    return part


class TestMalformedParts:
    @pytest.mark.parametrize("walk", [roll_up_memoized, roll_up_naive])
    def test_a_part_without_isbase(self, walk):
        part = PObject("Part", {"Name": "x", "PurchasePrice": 1.0})
        with pytest.raises(PersistenceError, match="Part object has no field 'IsBase'"):
            walk(part)

    @pytest.mark.parametrize("fields, missing", [
        ({"IsBase": True}, "PurchasePrice"),
        ({"IsBase": False, "Components": []}, "ManufacturingCost"),
    ])
    def test_a_part_without_its_price(self, fields, missing):
        with pytest.raises(PersistenceError, match="no field '%s'" % missing):
            roll_up_memoized(PObject("Part", fields))

    @pytest.mark.parametrize("walk", [
        roll_up_memoized, roll_up_naive, clear_memos, explosion_size,
    ])
    def test_a_component_without_subpart(self, walk):
        part = assembly_with({"Qty": 1})
        with pytest.raises(
            PersistenceError, match="Component object has no field 'SubPart'"
        ):
            walk(part)

    def test_a_component_without_qty(self):
        part = assembly_with({"SubPart": make_base_part("c", 2.0)})
        with pytest.raises(PersistenceError, match="Component object has no field 'Qty'"):
            roll_up_memoized(part)


class TestMemoStamps:
    def test_clearing_a_memo_made_persistent_moves_the_stamp(self):
        bolt = make_base_part("bolt", 0.5)
        plate = make_assembly("plate", 2.0, [(bolt, 4)])
        roll_up_memoized(plate)
        plate.clear_transient(TOTAL_COST.memo_field)
        before = (plate.stamp, bolt.stamp)
        assert clear_memos(plate) == 2
        assert plate.stamp != before[0]
        assert bolt.stamp == before[1]
        assert TOTAL_COST.memo_field not in plate
