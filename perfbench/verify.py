"""Durability checks, run in a fresh process after the writer is gone.

    python perfbench/verify.py store STORE.log ACKED.json
    python perfbench/verify.py heap HEAP.log EXPECTED.json

``store``: replay the log; every acknowledged extern's last value must
be present.  ``heap``: reopen the intrinsic heap; every acknowledged
part update must be present, and the memoized total cost must equal
both ``roll_up_naive`` and the benchmark's own model.  Exits 1 and
prints what is missing otherwise.
"""

from __future__ import annotations

import json
import math
import sys


def check_store(path: str, acked: dict) -> list:
    from repro.persistence.serialize import deserialize
    from repro.persistence.store import LogStore

    store = LogStore(path)
    missing = []
    for handle, value in sorted(acked.items()):
        document = store.get("extern:" + handle)
        if document is None or deserialize(document) != value:
            missing.append(handle)
    store.close()
    return missing


def check_heap(path: str, expected: dict) -> list:
    from repro.apps.bom import roll_up_memoized, roll_up_naive
    from repro.persistence.intrinsic import PersistentHeap

    heap = PersistentHeap(path)
    parts = heap.get_root("parts")
    problems = []
    for name, (field, value) in sorted(expected["updates"].items()):
        if parts[int(name)][field] != value:
            problems.append("part %s.%s" % (name, field))
    root = heap.get_root("product")
    naive = roll_up_naive(root).value
    memoized = roll_up_memoized(root).value
    for label, got in (("naive", naive), ("memoized", memoized)):
        if not math.isclose(got, expected["cost"], rel_tol=1e-9):
            problems.append("%s cost %r != %r" % (label, got, expected["cost"]))
    heap.close()
    return problems


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in ("store", "heap"):
        sys.stderr.write(__doc__)
        return 2
    kind, path, expected_path = argv
    with open(expected_path) as handle:
        expected = json.load(handle)
    problems = (check_store if kind == "store" else check_heap)(path, expected)
    if problems:
        print("missing after replay: %s" % ", ".join(problems[:20]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
