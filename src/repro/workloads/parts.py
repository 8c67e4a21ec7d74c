"""Parts-explosion workloads: trees and DAGs with controllable sharing.

Experiment E2 needs explosions where "the parts explosion diagram is not
a tree but a directed acyclic graph" to varying degrees:

* :func:`uniform_tree` — no sharing; memoization buys nothing;
* :func:`ladder_dag` — maximal sharing; naive costing is exponential;
* :func:`random_dag` — a sharing-factor dial between the two;
* :func:`layered_dag` — a wide, shallow DAG in levels, the shape the
  repository benchmark's heap workload costs.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.apps.bom import make_assembly, make_base_part
from repro.persistence.heap import PObject


def uniform_tree(depth: int, fan: int = 2, seed: int = 1986) -> PObject:
    """A pure tree: every component is a fresh part (no sharing)."""
    rng = random.Random(seed)
    counter = [0]

    def build(level: int) -> PObject:
        counter[0] += 1
        if level == 0:
            return make_base_part(
                "leaf%d" % counter[0], rng.uniform(1, 10), mass=rng.uniform(0.1, 1)
            )
        children = [(build(level - 1), rng.randrange(1, 4)) for __ in range(fan)]
        return make_assembly(
            "asm%d" % counter[0], rng.uniform(1, 5), children
        )

    return build(depth)


def ladder_dag(depth: int, fan: int = 2, seed: int = 1986) -> PObject:
    """Maximal sharing: each level reuses the previous level ``fan`` times.

    Distinct parts: ``depth + 1``; naive visits: ``Θ(fan^depth)``.
    """
    rng = random.Random(seed)
    part = make_base_part("bolt", rng.uniform(1, 10), mass=0.1)
    for level in range(depth):
        part = make_assembly(
            "asm%d" % level,
            rng.uniform(0, 2),
            [(part, 1) for __ in range(fan)],
        )
    return part


def random_dag(
    depth: int,
    fan: int = 2,
    sharing: float = 0.5,
    seed: int = 1986,
) -> PObject:
    """A random explosion with a sharing dial in ``[0, 1]``.

    Built top-down: each of an assembly's ``fan`` components is, with
    probability ``sharing``, a *reuse* of an existing part of the level
    below; otherwise a freshly built one.  The number of root-to-leaf
    paths is always ``fan ** depth``, but the number of distinct parts
    shrinks from the full tree (sharing 0) toward one part per level
    (sharing → 1) — so naive costing's visits-per-part ratio grows with
    the dial, which is what experiment E2 sweeps.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    rng = random.Random(seed)
    pool: List[List[PObject]] = [[] for __ in range(depth + 1)]
    counter = [0]

    def build(level: int) -> PObject:
        counter[0] += 1
        if level == 0:
            part = make_base_part(
                "base%d" % counter[0],
                rng.uniform(1, 10),
                mass=rng.uniform(0.1, 1),
            )
        else:
            components = []
            for __ in range(fan):
                below = pool[level - 1]
                if below and rng.random() < sharing:
                    sub = rng.choice(below)
                else:
                    sub = build(level - 1)
                components.append((sub, rng.randrange(1, 3)))
            part = make_assembly(
                "asm%d" % counter[0], rng.uniform(0, 2), components
            )
        pool[level].append(part)
        return part

    return build(depth)


def layered_dag(levels: Sequence[int], fan: int = 3, seed: int = 1986) -> PObject:
    """A DAG in levels under one root: ``levels[0]`` base parts, then
    assembly levels of ``levels[1:]`` parts that each use ``fan`` parts
    of the level below, then a root that uses every part of the top level
    once.

    Each level's uses run round-robin over a shuffle of the level below,
    so every part is used at least once and only which part goes where
    varies with ``seed``.  Levels ``(800, 400, 200, 100, 50)`` with fan 3
    give 1,551 parts and 2,300 components, the repository benchmark's
    heap workload.
    """
    if not levels or fan < 1:
        raise ValueError("need at least one level and a positive fan")
    for below, width in zip(levels, levels[1:]):
        if width * fan < below:
            raise ValueError(
                "%d assemblies of fan %d cannot use all %d parts below"
                % (width, fan, below)
            )
    rng = random.Random(seed)
    below = [
        make_base_part(
            "base%d" % index,
            round(rng.uniform(1, 10), 2),
            mass=round(rng.uniform(0.1, 1), 2),
        )
        for index in range(levels[0])
    ]
    for level, width in enumerate(levels[1:], 1):
        order = list(below)
        rng.shuffle(order)
        below = [
            make_assembly(
                "asm%d.%d" % (level, index),
                round(rng.uniform(0, 2), 2),
                [
                    (order[(index * fan + use) % len(order)], rng.randrange(1, 3))
                    for use in range(fan)
                ],
            )
            for index in range(width)
        ]
    return make_assembly("product", 1.0, [(part, 1) for part in below])
