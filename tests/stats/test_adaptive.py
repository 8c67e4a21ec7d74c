"""Adaptive selectivity estimation: the feedback loop, closed.

Covers the :class:`~repro.stats.adaptive.AdaptiveStore` in isolation
(keying, exponential decay over bind epochs — including resets —
bounded capacity with newest-kept eviction, confidence-weighted
blending) and the loop end to end: repeated ``analyze`` runs of a
misestimated predicate converge the estimate toward the truth, per-node
"corrected by feedback" is reported, counters and the
``adaptive_correction`` journal event fire, and both escape hatches
(the global switch, ``Catalog(adaptive=False)``) restore purely static
estimates.
"""

import pytest

from repro.core import columnar
from repro.core.flat import FlatRelation
from repro.core.index import Catalog
from repro.core.query import (
    ColumnarExec,
    analyze,
    eq,
    explain_analyze,
    optimize,
    scan,
)
from repro.lang.repl import Repl
from repro.obs import events as _events
from repro.obs.metrics import REGISTRY
from repro.stats import adaptive
from repro.stats.adaptive import AdaptiveStore
from repro.stats.cost import CostModel
from repro.workloads.queries import orders_catalog, orders_query, skewed_orders


def failed_orders_node(catalog):
    """Run the skewed 'failed' query measured; return its selection node."""
    __, stats = analyze(optimize(orders_query("failed"), catalog), catalog)
    return next(n for n in stats.walk() if "Status" in n.label)


class TestAdaptiveStore:
    def test_observe_creates_then_accumulates(self):
        store = AdaptiveStore()
        entry = store.observe("orders", "Status", "==", "failed", 0.02)
        assert entry.mean == pytest.approx(0.02)
        assert entry.weight == pytest.approx(1.0)
        entry = store.observe("orders", "Status", "==", "failed", 0.04)
        assert entry.mean == pytest.approx(0.03)
        assert entry.weight == pytest.approx(2.0)
        assert entry.observations == 2

    def test_keys_bucket_by_operand_value(self):
        store = AdaptiveStore()
        store.observe("orders", "Status", "==", "failed", 0.02)
        store.observe("orders", "Status", "==", "shipped", 0.6)
        assert len(store) == 2
        assert store.posterior(
            "orders", "Status", "==", "failed"
        ).mean == pytest.approx(0.02)
        assert store.posterior(
            "orders", "Status", "==", "shipped"
        ).mean == pytest.approx(0.6)

    def test_operand_buckets_are_type_tagged(self):
        # order_key tags by type (mirroring SortedIndex), so an int and
        # a float operand accumulate evidence separately.
        store = AdaptiveStore()
        store.observe("r", "Qty", "==", 1, 0.5)
        store.observe("r", "Qty", "==", 1.0, 0.3)
        assert len(store) == 2
        assert store.posterior("r", "Qty", "==", 1).weight == pytest.approx(1.0)

    def test_decay_over_bind_epochs(self):
        store = AdaptiveStore(decay=0.5)
        store.observe("r", "A", "==", "x", 0.2, epoch=0)
        # Three rebinds later the old evidence carries 0.5**3 weight.
        posterior = store.posterior("r", "A", "==", "x", epoch=3)
        assert posterior.weight == pytest.approx(0.125)
        assert posterior.mean == pytest.approx(0.2)  # mean undecayed

    def test_decay_handles_epoch_reset(self):
        # A fresh catalog restarts epochs at 0; evidence from epoch 5
        # must decay by the distance, not gain weight from a "negative"
        # delta.
        store = AdaptiveStore(decay=0.5)
        store.observe("r", "A", "==", "x", 0.2, epoch=5)
        posterior = store.posterior("r", "A", "==", "x", epoch=0)
        assert posterior.weight == pytest.approx(0.5 ** 5)
        # An observation arriving after the reset folds in the same way:
        # the carried mass is the decayed weight, not the raw one.
        entry = store.observe("r", "A", "==", "x", 0.8, epoch=0)
        carried = 0.5 ** 5
        assert entry.weight == pytest.approx(carried + 1.0)
        assert entry.mean == pytest.approx(
            (0.2 * carried + 0.8) / (carried + 1.0)
        )

    def test_capacity_evicts_oldest_keeps_newest(self):
        store = AdaptiveStore(capacity=3)
        for i in range(5):
            store.observe("r", "A", "==", "v%d" % i, 0.1)
        assert len(store) == 3
        kept = {key[3] for key, __ in store.entries()}
        assert kept == {("str", "v2"), ("str", "v3"), ("str", "v4")}

    def test_observation_defends_a_key_from_eviction(self):
        store = AdaptiveStore(capacity=2)
        store.observe("r", "A", "==", "old", 0.1)
        store.observe("r", "A", "==", "mid", 0.1)
        store.observe("r", "A", "==", "old", 0.2)  # refresh recency
        store.observe("r", "A", "==", "new", 0.1)  # evicts 'mid'
        kept = {key[3] for key, __ in store.entries()}
        assert kept == {("str", "old"), ("str", "new")}

    def test_correct_miss_without_evidence(self):
        store = AdaptiveStore()
        before = REGISTRY.counter("stats.adaptive.misses").value
        assert store.correct(0.1, "r", "A", "==", "x") == pytest.approx(0.1)
        assert REGISTRY.counter("stats.adaptive.misses").value == before + 1

    def test_correct_miss_below_min_weight(self):
        store = AdaptiveStore(decay=0.5, min_weight=1.0)
        store.observe("r", "A", "==", "x", 0.9, epoch=0)
        # Decayed to 0.25 weight at epoch 2: below min_weight, static wins.
        assert store.correct(
            0.1, "r", "A", "==", "x", epoch=2
        ) == pytest.approx(0.1)

    def test_correct_blends_and_counts_hits(self):
        store = AdaptiveStore(prior_strength=1.0)
        store.observe("r", "A", "==", "x", 0.5)
        before = REGISTRY.counter("stats.adaptive.hits").value
        blended = store.correct(0.1, "r", "A", "==", "x")
        assert blended == pytest.approx(0.3)  # midpoint at weight 1
        assert REGISTRY.counter("stats.adaptive.hits").value == before + 1

    def test_clear_forgets(self):
        store = AdaptiveStore()
        store.observe("r", "A", "==", "x", 0.5)
        store.clear()
        assert len(store) == 0
        assert store.posterior("r", "A", "==", "x") is None

    def test_suppressed_restores_switch(self):
        store = AdaptiveStore(enabled=True)
        with store.suppressed():
            assert not store.enabled
        assert store.enabled


class TestBlendArithmetic:
    def test_no_evidence_returns_static(self):
        model = CostModel()
        assert model.blended_selectivity(0.1, 0.9, 0.0) == pytest.approx(0.1)

    def test_evidence_pulls_toward_observed(self):
        model = CostModel()
        assert model.blended_selectivity(0.1, 0.5, 1.0) == pytest.approx(0.3)
        assert model.blended_selectivity(0.1, 0.5, 3.0) == pytest.approx(0.4)

    def test_never_fully_discards_the_prior(self):
        model = CostModel()
        heavy = model.blended_selectivity(0.1, 0.5, 1000.0)
        assert heavy < 0.5

    def test_result_clamped_to_fraction(self):
        model = CostModel()
        assert model.blended_selectivity(1.5, 1.2, 5.0) == 1.0
        assert model.blended_selectivity(-0.2, -0.1, 5.0) == 0.0


class TestFeedbackLoop:
    def test_estimates_converge_monotonically(self):
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed"))

        drifts = []
        for __ in range(4):
            __, stats = analyze(optimize(plan, catalog), catalog)
            node = next(n for n in stats.walk() if "Status" in n.label)
            drifts.append(node.drift_ratio)
        # The 0.1 constant overestimates ~5x; each measured run pulls
        # the next estimate strictly closer to the observed truth.
        assert all(b < a for a, b in zip(drifts, drifts[1:]))

    def test_corrected_flag_and_rendered_annotation(self):
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed"))
        analyze(optimize(plan, catalog), catalog)  # round 1 trains
        text = explain_analyze(optimize(plan, catalog), catalog)
        assert "corrected by feedback: static=40.0" in text
        assert text.splitlines()[-1].endswith("1 corrected by feedback")

    def test_round_one_is_not_corrected(self):
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        node = failed_orders_node(catalog)
        assert not node.corrected
        assert node.static_estimate == pytest.approx(node.estimate)

    @pytest.mark.parametrize("lowered", [False, True], ids=["row", "lowered"])
    def test_corrections_counter_and_event(self, lowered):
        adaptive.enable()
        if lowered:
            columnar.enable()
        journal = _events.enable()
        try:
            journal.clear()
            catalog = Catalog({"orders": skewed_orders(400)})
            plan = scan("orders").where(eq("Status", "failed"))
            analyze(optimize(plan, catalog), catalog)
            before = REGISTRY.counter("stats.adaptive.corrections").value
            optimized = optimize(plan, catalog)
            assert isinstance(optimized, ColumnarExec) == lowered
            __, stats = analyze(optimized, catalog)
            # Each corrected node of the tree counts once, lowered or not.
            corrected = sum(1 for node in stats.walk() if node.corrected)
            assert corrected == 1
            assert (
                REGISTRY.counter("stats.adaptive.corrections").value
                == before + corrected
            )
            corrections = [
                e
                for e in journal.events(subsystem="stats")
                if e.name == "adaptive_correction"
            ]
            assert corrections
            payload = corrections[-1].payload
            assert payload["static"] == pytest.approx(40.0)
            assert payload["blended"] < 40.0
        finally:
            _events.disable()

    @pytest.mark.parametrize("lowered", [False, True], ids=["row", "lowered"])
    def test_estimates_predate_this_runs_feedback(self, lowered):
        # A projection's estimate is its child's.  Within one analyze
        # that holds although the selection below it was observed
        # first: the run's feedback moves the next run, not this one.
        adaptive.enable()
        if lowered:
            columnar.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed")).project(
            ["Order", "Status"]
        )
        optimized = optimize(plan, catalog)
        assert isinstance(optimized, ColumnarExec) == lowered
        __, stats = analyze(optimized, catalog)
        projects = [n for n in stats.walk() if "Project[" in n.label]
        assert len(projects) == 2
        for node in projects:
            (child,) = node.children
            assert node.estimate == pytest.approx(child.estimate), node.label

    def test_global_switch_off_means_static(self):
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed"))
        analyze(optimize(plan, catalog), catalog)  # trains regardless
        node = failed_orders_node(catalog)
        assert node.estimate == pytest.approx(40.0)  # 0.1 * 400
        assert node.static_estimate is None  # adaptivity was not live

    def test_catalog_escape_hatch(self):
        adaptive.enable()
        trained = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed"))
        analyze(optimize(plan, trained), trained)

        hatch = Catalog({"orders": skewed_orders(400)}, adaptive=False)
        node = failed_orders_node(hatch)
        assert node.estimate == pytest.approx(40.0)
        assert not node.corrected

    def test_training_is_unconditional(self):
        # With the store disabled, analyze() still deposits evidence —
        # flipping adaptivity on later benefits from history.
        catalog = Catalog({"orders": skewed_orders(400)})
        failed_orders_node(catalog)
        assert (
            adaptive.ADAPTIVE.posterior("orders", "Status", "==", "failed")
            is not None
        )

    def test_estimate_floor_survives_blending(self):
        # A predicate observed keeping nothing must not estimate below
        # the one-row floor.
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "no-such-status"))
        for __ in range(3):
            __, stats = analyze(optimize(plan, catalog), catalog)
        node = next(n for n in stats.walk() if "Status" in n.label)
        assert node.rows_out == 0
        assert node.estimate >= 1.0

    def test_index_scan_blends_too(self):
        adaptive.enable()
        catalog = orders_catalog(rows=400)
        first = failed_orders_node(catalog)
        second = failed_orders_node(catalog)
        assert "IndexScan" in second.label
        assert second.corrected
        assert second.drift_ratio < first.drift_ratio

    def test_plans_agree_with_adaptivity(self):
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(200)})
        plan = scan("orders").where(eq("Status", "shipped")).project(
            ["Order", "Status"]
        )
        expected = plan.execute(catalog)
        for __ in range(3):
            assert optimize(plan, catalog).execute(catalog) == expected

    def test_rebind_decays_the_posterior(self):
        adaptive.enable()
        catalog = Catalog({"orders": skewed_orders(400)})
        plan = scan("orders").where(eq("Status", "failed"))
        analyze(optimize(plan, catalog), catalog)
        corrected = failed_orders_node(catalog)
        assert corrected.corrected
        # Each rebind bumps the epoch and halves the evidence mass
        # (two measured runs deposited weight 2.0); two rebinds push it
        # below min_weight, so the estimate falls back to static.
        catalog.bind("orders", skewed_orders(400, seed=7))
        catalog.bind("orders", skewed_orders(400, seed=8))
        node = failed_orders_node(catalog)
        assert not node.corrected


class TestReplAdaptive:
    def run_repl(self, *lines):
        out = []
        repl = Repl(writer=out.append)
        for line in lines:
            repl.handle(line)
        return out

    def test_toggle_and_status(self):
        out = self.run_repl(":adaptive", ":adaptive on", ":adaptive",
                            ":adaptive off")
        assert out[0].startswith("adaptive estimation is off")
        assert out[1] == "adaptive estimation on"
        assert out[2].startswith("adaptive estimation is on")
        assert out[3] == "adaptive estimation off"

    def test_usage_message(self):
        out = self.run_repl(":adaptive maybe")
        assert out == ["usage: :adaptive on|off"]

    def test_feedback_table_shows_blend(self):
        out = self.run_repl(
            ":adaptive on",
            'let emp = relation(['
            '{Emp = "S", Dept = "Sales"}, {Emp = "J", Dept = "Sales"},'
            '{Emp = "B", Dept = "Manuf"}, {Emp = "G", Dept = "Manuf"},'
            '{Emp = "W", Dept = "Admin"}])',
            ':explain rmatch(emp, {Dept = "Manuf"})',
            ":stats feedback",
        )
        table = "\n".join(out)
        assert "blend" in table
        # 2 of 5 rows kept: the posterior mean is the observed 0.4.
        assert "0.400 (w=1.0)" in table
