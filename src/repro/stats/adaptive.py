"""Adaptive selectivity estimation: the planner learns from execution.

:mod:`repro.stats.feedback` records what every measured selection
actually kept; this module closes the loop the ROADMAP left open — the
observations flow *back into the estimates*.  The :class:`AdaptiveStore`
keys observed selectivities by ``(relation, attribute, operator,
value-bucket)`` and maintains, per key, an exponentially decayed
posterior: a weighted mean of the observed selectivities and the
evidence mass behind it.  Decay runs over *bind epochs*, not wall time —
a relation that was rebound five times since an observation has drifted
five epochs away from it, so the observation's weight shrinks by
``decay**5`` whether the rebinds took a millisecond or a month.

The cost model consults the store through
:meth:`AdaptiveStore.correct`: when a key holds enough evidence
(``min_weight``), the static estimate (MCV/histogram/constant) is
blended with the posterior, confidence-weighted —

    blended = (w·observed + k·static) / (w + k)

where ``w`` is the decayed evidence mass and ``k``
(``prior_strength``) is how many observations the static estimate is
"worth".  One observation moves the estimate halfway to the truth; each
repetition moves it closer; a rebind pulls it back toward the prior.
Every blended cardinality still goes through the optimizer's one-row
floor, so adaptivity never produces the degenerate zero-row plan.

Like the tracer and the event journal, the store is process-global and
**off by default**: call sites pay one attribute check until
:func:`enable` flips the switch (the REPL's ``:adaptive on``).  Per-
catalog, ``Catalog(adaptive=False)`` is the escape hatch that keeps a
catalog on purely static estimates even while the global store is live.
Training is unconditional — ``explain_analyze`` feeds every measured
selection in regardless, so flipping adaptivity on benefits from
history — but *reads* are gated twice (global switch, catalog flag).

The store is bounded: at most ``capacity`` keys, evicted least-
recently-updated first, so a long-lived session scanning many ad-hoc
predicates cannot grow it without limit (the same discipline as the
flight recorder's ring).

Metrics: ``stats.adaptive.hits`` counts estimates answered with
blending, ``stats.adaptive.misses`` counts lookups that found no (or
too little) evidence; ``stats.adaptive.corrections`` and the
``adaptive_correction`` journal event are published by
``explain_analyze`` per node whose estimate the feedback actually
changed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.stats.histogram import order_key

__all__ = [
    "AdaptiveStore",
    "Posterior",
    "ADAPTIVE",
    "enable",
    "disable",
    "DEFAULT_CAPACITY",
    "DEFAULT_DECAY",
    "DEFAULT_PRIOR_STRENGTH",
    "DEFAULT_MIN_WEIGHT",
]

DEFAULT_CAPACITY = 256
DEFAULT_DECAY = 0.5
DEFAULT_PRIOR_STRENGTH = 1.0
DEFAULT_MIN_WEIGHT = 1.0

# Keys are (relation, attribute, operator, value-bucket); the bucket is
# the operand's type-tagged order key (histogram.order_key), so
# 'shipped' and 'failed' never share evidence, and neither do values of
# different types.
Key = Tuple[str, str, str, object]


@dataclass
class Posterior:
    """The decayed evidence for one key.

    ``mean`` is the exponentially weighted mean observed selectivity;
    ``weight`` is the evidence mass behind it (1.0 per observation,
    shrunk by ``decay`` per bind epoch between observations); ``epoch``
    is the bind epoch of the latest observation; ``observations`` counts
    raw arrivals, undecayed (for the REPL table).
    """

    mean: float
    weight: float
    epoch: int
    observations: int = 1


class AdaptiveStore:
    """A bounded, keyed store of observed selectivities with decay."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        decay: float = DEFAULT_DECAY,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        min_weight: float = DEFAULT_MIN_WEIGHT,
        enabled: bool = False,
    ):
        self.capacity = capacity
        self.decay = decay
        self.prior_strength = prior_strength
        self.min_weight = min_weight
        self.enabled = enabled
        self._entries: "OrderedDict[Key, Posterior]" = OrderedDict()
        self._lock = threading.Lock()

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def key(
        relation: str, attribute: str, op: str, operand: object
    ) -> Key:
        """The store key for one predicate occurrence."""
        return (relation, attribute, op, order_key(operand))

    # -- training (always on) ----------------------------------------------

    def observe(
        self,
        relation: str,
        attribute: str,
        op: str,
        operand: object,
        selectivity: float,
        epoch: int = 0,
    ) -> Posterior:
        """Fold one measured selectivity into the key's posterior.

        Evidence recorded at a different bind epoch decays by
        ``decay**|Δepoch|`` before the new observation joins it — a
        *reset* (epoch jumping back to 0 for a fresh catalog) distances
        the old evidence exactly like forward drift does.
        """
        key = self.key(relation, attribute, op, operand)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = Posterior(
                    mean=selectivity, weight=1.0, epoch=epoch
                )
                self._entries[key] = entry
            else:
                carried = entry.weight * (
                    self.decay ** abs(epoch - entry.epoch)
                )
                entry.mean = (entry.mean * carried + selectivity) / (
                    carried + 1.0
                )
                entry.weight = carried + 1.0
                entry.epoch = epoch
                entry.observations += 1
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            _metrics.REGISTRY.gauge("stats.adaptive.keys").set(
                len(self._entries)
            )
        return entry

    # -- reads (gated by the global switch and the catalog flag) -----------

    def posterior(
        self,
        relation: Optional[str],
        attribute: Optional[str],
        op: Optional[str],
        operand: object,
        epoch: int = 0,
    ) -> Optional[Posterior]:
        """The key's posterior with its weight decayed to ``epoch``.

        ``None`` when the key was never observed (or the key parts are
        unknown).  Reading does not touch recency — only observations
        defend a key from eviction.
        """
        if relation is None or attribute is None or op is None:
            return None
        key = self.key(relation, attribute, op, operand)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            return Posterior(
                mean=entry.mean,
                weight=entry.weight
                * (self.decay ** abs(epoch - entry.epoch)),
                epoch=entry.epoch,
                observations=entry.observations,
            )

    def correct(
        self,
        static: float,
        relation: Optional[str],
        attribute: Optional[str],
        op: Optional[str],
        operand: object,
        epoch: int = 0,
        cost_model=None,
    ) -> float:
        """Blend ``static`` with the key's posterior, when evidenced.

        Counts ``stats.adaptive.hits`` when a blend is applied and
        ``stats.adaptive.misses`` when the evidence is absent or below
        ``min_weight`` — either way the return value is a usable
        selectivity.
        """
        entry = self.posterior(relation, attribute, op, operand, epoch)
        registry = _metrics.REGISTRY
        if entry is None or entry.weight < self.min_weight:
            registry.counter("stats.adaptive.misses").inc()
            return static
        registry.counter("stats.adaptive.hits").inc()
        if cost_model is not None:
            return cost_model.blended_selectivity(
                static, entry.mean, entry.weight, self.prior_strength
            )
        blended = (entry.weight * entry.mean + self.prior_strength * static) / (
            entry.weight + self.prior_strength
        )
        return min(1.0, max(0.0, blended))

    # -- bookkeeping --------------------------------------------------------

    def entries(self) -> List[Tuple[Key, Posterior]]:
        """The retained (key, posterior) pairs, oldest-updated first."""
        with self._lock:
            return [
                (key, Posterior(e.mean, e.weight, e.epoch, e.observations))
                for key, e in self._entries.items()
            ]

    def summary(self) -> Dict[str, object]:
        """Aggregate view (JSON-compatible, for exports and tests)."""
        with self._lock:
            return {
                "keys": len(self._entries),
                "capacity": self.capacity,
                "enabled": self.enabled,
            }

    def clear(self) -> None:
        """Forget all evidence (tests and benchmark phases use this)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # -- the global switch --------------------------------------------------

    def suppressed(self):
        """Context manager: reads disabled inside the block.

        ``explain_analyze`` uses it to recompute each node's *static*
        estimate, so "corrected by feedback" is detectable per node.
        """
        return _Suppressed(self)


class _Suppressed:
    def __init__(self, store: AdaptiveStore):
        self._store = store
        self._was: Optional[bool] = None

    def __enter__(self):
        self._was = self._store.enabled
        self._store.enabled = False
        return self._store

    def __exit__(self, *exc):
        self._store.enabled = self._was
        return False


# The process-global store the planner consults and feedback trains.
ADAPTIVE = AdaptiveStore()


def enable() -> AdaptiveStore:
    """Switch adaptive estimation on process-wide; returns the store."""
    ADAPTIVE.enabled = True
    return ADAPTIVE


def disable() -> None:
    """Switch adaptive estimation off (the store keeps its evidence)."""
    ADAPTIVE.enabled = False
