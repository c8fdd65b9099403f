"""Vectorized slot kernel (``repro.sim.kernel``).

Three concerns share this file because they gate each other:

* regressions for the energy-ledger and NVP-trace bug fixes the kernel
  was built on top of (a vectorized copy of buggy physics would have
  frozen the bugs in);
* energy-conservation properties of the per-node ledger, fault-free and
  under faults;
* the kernel's byte-identity contract against the scalar slot loop —
  stage 1 (single node, fixed schedule), stage 2 (batched policy runs)
  and the sweep integration with its scalar fallback.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.policies import (
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.datasets.body import BodyLocation
from repro.datasets.pamap2 import make_pamap2
from repro.energy.harvester import Harvester
from repro.energy.nvp import NonVolatileProcessor
from repro.energy.storage import Capacitor
from repro.energy.traces import PowerTrace
from repro.errors import ConfigurationError
from repro.faults import Brownout, FaultPlan, NodeDeath, PacketLoss
from repro.obs.observer import NULL_OBS, Observability
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.kernel import (
    SlotKernel,
    kernel_eligible,
    run_node_schedule,
    run_policy_batch,
)
from repro.sim.sweep import PolicySweep, paper_policy_grid
from repro.sim.training import TrainedSensorBundle, TrainingConfig
from repro.wsn.comm import CommLink, RadioProfile
from repro.wsn.node import NodeCosts, SensorNode

SLOT_S = 2.56

GRID = [rr_policy(3), aas_policy(6), aasr_policy(9), origin_policy(12)]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _make_node(
    *,
    n_slots: int = 64,
    seed: int = 0,
    mean_slot_j: float = 30e-6,
    capacity_j: float = 60e-6,
    initial_j: float = 0.0,
    leakage_w: float = 2e-7,
    idle_j: float = 0.5e-6,
    sense_j: float = 8e-6,
    inference_j: float = 40e-6,
    checkpoint_overhead: float = 0.05,
    volatile: bool = False,
    max_task_age_slots=None,
    n_classes: int = 5,
) -> SensorNode:
    """A standalone node over a random trace, with a prediction cache."""
    rng = np.random.default_rng(seed)
    watts = rng.uniform(0.0, 2.0 * mean_slot_j / SLOT_S, size=n_slots)
    node = SensorNode(
        0,
        BodyLocation.CHEST,
        None,  # model is never consulted: a prediction cache is installed
        inference_j,
        Harvester(PowerTrace(dt_s=SLOT_S, watts=watts)),
        Capacitor(capacity_j, initial_j, leakage_w),
        NonVolatileProcessor(checkpoint_overhead, volatile=volatile),
        CommLink(RadioProfile.ble()),
        costs=NodeCosts(sense_j=sense_j, idle_j=idle_j),
        slot_duration_s=SLOT_S,
        max_task_age_slots=max_task_age_slots,
    )
    node.prediction_cache = rng.dirichlet(np.ones(n_classes), size=n_slots)
    return node


def _scalar_drive(node: SensorNode, schedule) -> list:
    """The python slot loop the kernel replaces."""
    window = np.zeros((3, 4), dtype=np.float32)
    outcomes = []
    for slot, active in enumerate(schedule):
        if active:
            outcomes.append(node.active_slot(slot, window))
        else:
            node.idle_slot(slot)
    return outcomes


def _assert_outcomes_equal(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.node_id == b.node_id
        assert a.location is b.location
        assert a.slot_index == b.slot_index
        assert a.started_slot == b.started_slot
        assert a.completed == b.completed
        assert a.predicted_label == b.predicted_label
        assert a.confidence == b.confidence
        assert a.energy_consumed_j == b.energy_consumed_j
        assert a.delivered == b.delivered
        assert a.reported_label == b.reported_label
        if a.probabilities is None:
            assert b.probabilities is None
        else:
            np.testing.assert_array_equal(a.probabilities, b.probabilities)


def _assert_results_equal(fast, slow):
    assert fast.policy_name == slow.policy_name
    assert fast.records == slow.records
    assert fast.node_stats == slow.node_stats
    assert fast.comm_energy_j == slow.comm_energy_j
    assert fast.confidence_updates == slow.confidence_updates


def _assert_sweeps_equal(fast, slow):
    assert sorted(fast.policies) == sorted(slow.policies)
    for name in fast.policies:
        _assert_results_equal(fast.policy(name), slow.policy(name))
    assert sorted(fast.baselines) == sorted(slow.baselines)
    for name in fast.baselines:
        np.testing.assert_array_equal(
            fast.baseline(name).true_labels, slow.baseline(name).true_labels
        )
        np.testing.assert_array_equal(
            fast.baseline(name).predicted_labels,
            slow.baseline(name).predicted_labels,
        )


# ---------------------------------------------------------------------------
# regression: idle draw must appear in the consumed ledger
# ---------------------------------------------------------------------------


class TestEnergyLedger:
    def test_idle_draw_is_charged_to_consumed(self):
        # Before the fix, a node that only idled reported consumed_j=0
        # while its capacitor drained — the ledger leaked silently.
        node = _make_node(initial_j=20e-6)
        for slot in range(10):
            node.idle_slot(slot)
        assert node.stats.active_slots == 0
        assert node.stats.consumed_j == pytest.approx(10 * node.costs.idle_j)
        assert node.stats.leaked_j > 0.0

    def test_conservation_fault_free(self):
        # harvested - consumed - leaked == delta(stored), to float
        # accumulation error, over a random active/idle schedule.
        initial = 10e-6
        node = _make_node(seed=3, initial_j=initial)
        schedule = np.random.default_rng(42).random(64) < 0.6
        _scalar_drive(node, schedule)
        stats = node.stats
        balance = initial + stats.harvested_j - stats.consumed_j - stats.leaked_j
        assert balance == pytest.approx(node.capacitor.stored_j, abs=1e-15)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(volatile=True),
            dict(max_task_age_slots=2, mean_slot_j=12e-6),
            dict(capacity_j=12e-6, mean_slot_j=6e-6),
        ],
        ids=["volatile", "stale-abort", "sense-starved"],
    )
    def test_conservation_across_node_variants(self, overrides):
        node = _make_node(seed=5, initial_j=4e-6, **overrides)
        schedule = np.random.default_rng(1).random(64) < 0.8
        _scalar_drive(node, schedule)
        stats = node.stats
        balance = 4e-6 + stats.harvested_j - stats.consumed_j - stats.leaked_j
        assert balance == pytest.approx(node.capacitor.stored_j, abs=1e-15)

    def test_conservation_under_faults(self, tiny_experiment):
        # Brownouts dump stored charge without a ledger entry (the
        # supply collapsed; nothing "consumed" it), so under faults the
        # invariant weakens to "no energy is created": every node's
        # spend never exceeds its income.
        plan = FaultPlan(
            faults=(
                Brownout(node_id=0, start_slot=10, duration_slots=6),
                NodeDeath(1, at_slot=40),
                PacketLoss(rate=0.3),
            )
        )
        result = tiny_experiment.run(rr_policy(3), seed=9, faults=plan)
        for stats in result.node_stats.values():
            spend = stats.consumed_j + stats.leaked_j
            assert spend <= stats.harvested_j + 1e-12

    def test_kernel_lane_conservation(self):
        # The same invariant holds per lane inside the kernel arrays.
        initial = 15e-6
        node = _make_node(seed=5, initial_j=initial)
        kernel = SlotKernel.from_nodes([node], n_runs=3, n_slots=64)
        rng = np.random.default_rng(7)
        for slot in range(64):
            kernel.advance(slot, rng.random(3) < 0.5)
        balance = initial + kernel.harvested_j - kernel.consumed_j - kernel.leaked_j
        np.testing.assert_allclose(balance, kernel.stored, atol=1e-15)


# ---------------------------------------------------------------------------
# regression: the completing burst must trace progress_fraction = 1.0
# ---------------------------------------------------------------------------


class TestNvpProgressTrace:
    @staticmethod
    def _record(nvp):
        events = []
        nvp.observer = lambda event, payload: events.append((event, dict(payload)))
        return events

    def test_completing_burst_reports_full_progress(self):
        nvp = NonVolatileProcessor(checkpoint_overhead=0.0)
        events = self._record(nvp)
        nvp.start_task(10e-6)
        nvp.execute_burst(4e-6)
        assert nvp.done_work_j == pytest.approx(4e-6)
        nvp.execute_burst(20e-6)
        bursts = [payload for event, payload in events if event == "burst"]
        assert bursts[0]["completed"] is False
        assert bursts[0]["progress_fraction"] == pytest.approx(0.4)
        # Before the fix the completing burst reported 0.0 (the state
        # had already been finalized when the observer fired).
        assert bursts[1]["completed"] is True
        assert bursts[1]["progress_fraction"] == 1.0

    def test_volatile_wipe_reports_zero(self):
        nvp = NonVolatileProcessor(checkpoint_overhead=0.0, volatile=True)
        events = self._record(nvp)
        nvp.start_task(10e-6)
        nvp.execute_burst(4e-6)
        bursts = [payload for event, payload in events if event == "burst"]
        assert bursts[0]["completed"] is False
        assert bursts[0]["progress_fraction"] == 0.0
        assert nvp.done_work_j == 0.0

    def test_scan_friendly_properties(self):
        nvp = NonVolatileProcessor(checkpoint_overhead=0.2)
        assert nvp.useful_fraction == pytest.approx(0.8)
        assert nvp.done_work_j == 0.0  # idle reads as zero progress
        nvp.start_task(8e-6)
        nvp.execute_burst(5e-6)
        assert nvp.done_work_j == pytest.approx(4e-6)


# ---------------------------------------------------------------------------
# regression: reset() must drop the cached harvest vector and slot cursor
# ---------------------------------------------------------------------------


class TestResetClearsScanState:
    def test_reset_clears_cached_trace_and_slot_cursor(self):
        node = _make_node(seed=1, initial_j=20e-6)
        window = np.zeros((3, 4), dtype=np.float32)
        for slot in range(4):
            node.active_slot(slot, window)
        assert node._slot_energies is not None
        assert node._current_slot == 3
        # Swap the harvester: before the fix, reset() kept the cached
        # per-slot vector and silently replayed the old trace.
        node.harvester = Harvester(
            PowerTrace(dt_s=SLOT_S, watts=np.full(16, 40e-6 / SLOT_S))
        )
        node.reset()
        assert node._slot_energies is None
        assert node._current_slot == 0
        node.idle_slot(0)
        assert node.stats.harvested_j == pytest.approx(40e-6)


# ---------------------------------------------------------------------------
# scan-friendly harvest vectors (traces/harvester/node agree)
# ---------------------------------------------------------------------------


class TestSlotEnergyVectors:
    def test_trace_pads_and_truncates(self):
        trace = PowerTrace(dt_s=SLOT_S, watts=np.arange(1, 5, dtype=float))
        full = trace.slot_energies(SLOT_S)
        assert full.size == 4
        padded = trace.slot_energies(SLOT_S, n_slots=6)
        np.testing.assert_array_equal(padded[:4], full)
        np.testing.assert_array_equal(padded[4:], 0.0)
        truncated = trace.slot_energies(SLOT_S, n_slots=2)
        np.testing.assert_array_equal(truncated, full[:2])

    def test_harvester_padding_has_no_supplemental(self):
        # Beyond the trace end a node harvests exactly 0.0 J — the
        # battery trickle stops with the trace, exactly like the scalar
        # path's out-of-range fallback.
        trace = PowerTrace(dt_s=SLOT_S, watts=np.full(3, 1e-6))
        harvester = Harvester(trace, supplemental_w=2e-6)
        vec = harvester.slot_energies(SLOT_S, n_slots=5)
        assert vec[0] == pytest.approx((1e-6 + 2e-6) * SLOT_S)
        np.testing.assert_array_equal(vec[3:], 0.0)

    def test_node_vector_matches_scalar_slot_harvest(self):
        node = _make_node(seed=8, n_slots=10)
        vec = node.slot_energy_vector(14)
        scalar = [node._slot_harvest(slot) for slot in range(14)]
        np.testing.assert_array_equal(vec, np.asarray(scalar))


# ---------------------------------------------------------------------------
# stage 1: single node, fixed schedule, byte-identical to the slot loop
# ---------------------------------------------------------------------------


STAGE1_CASES = {
    "nvp": dict(),
    "volatile": dict(volatile=True),
    "stale-abort": dict(max_task_age_slots=2, mean_slot_j=12e-6),
    "sense-starved": dict(capacity_j=12e-6, mean_slot_j=6e-6),
    "checkpoint-heavy": dict(checkpoint_overhead=0.3),
    "pre-charged": dict(initial_j=50e-6),
}


class TestStage1Identity:
    @pytest.mark.parametrize(
        "overrides", list(STAGE1_CASES.values()), ids=list(STAGE1_CASES.keys())
    )
    def test_schedule_identity(self, overrides):
        schedule = np.random.default_rng(9).random(64) < 0.7
        scalar_node = _make_node(seed=21, **overrides)
        kernel_node = _make_node(seed=21, **overrides)
        slow = _scalar_drive(scalar_node, schedule)
        fast, stats = run_node_schedule(kernel_node, schedule)
        _assert_outcomes_equal(fast, slow)
        assert stats == scalar_node.stats
        assert kernel_node.comm.messages_sent == scalar_node.comm.messages_sent
        assert kernel_node.comm.energy_spent_j == scalar_node.comm.energy_spent_j
        # The kernel scans lane state; the node's own capacitor/NVP are
        # left untouched (it remains a reusable template).
        assert kernel_node.capacitor.stored_j == overrides.get("initial_j", 0.0)

    def test_all_idle_schedule(self):
        node = _make_node(seed=2, initial_j=6e-6)
        reference = _make_node(seed=2, initial_j=6e-6)
        _scalar_drive(reference, np.zeros(32, dtype=bool))
        outcomes, stats = run_node_schedule(node, np.zeros(32, dtype=bool))
        assert outcomes == []
        assert stats == reference.stats

    def test_requires_prediction_cache(self):
        node = _make_node()
        node.prediction_cache = None
        with pytest.raises(ConfigurationError, match="prediction_cache"):
            run_node_schedule(node, [True, False])


# ---------------------------------------------------------------------------
# eligibility rules
# ---------------------------------------------------------------------------


class TestEligibility:
    _material = SimpleNamespace(probabilities={0: np.zeros((4, 3))})

    def test_eligible_run(self):
        assert kernel_eligible(
            material=self._material, window_transform=None, faults=None, obs=None
        )
        assert kernel_eligible(
            material=self._material,
            window_transform=None,
            faults=FaultPlan(),  # an empty plan changes nothing
            obs=NULL_OBS,
        )

    def test_scalar_fallback_rules(self):
        eligible = dict(
            material=self._material, window_transform=None, faults=None, obs=None
        )
        assert not kernel_eligible(**{**eligible, "obs": Observability()})
        assert not kernel_eligible(**{**eligible, "window_transform": lambda w: w})
        assert not kernel_eligible(**{**eligible, "material": None})
        assert not kernel_eligible(
            **{**eligible, "material": SimpleNamespace(probabilities=None)}
        )
        assert not kernel_eligible(
            **{**eligible, "faults": FaultPlan(faults=(NodeDeath(0, at_slot=5),))}
        )


# ---------------------------------------------------------------------------
# stage 2: batched policy runs, byte-identical to HARExperiment.run
# ---------------------------------------------------------------------------


class TestBatchIdentity:
    @pytest.mark.parametrize("seed", [7, 13])
    def test_batch_matches_scalar_grid(self, tiny_experiment, seed):
        batch = run_policy_batch(tiny_experiment, GRID, seed)
        assert len(batch) == len(GRID)
        for spec, fast in zip(GRID, batch):
            slow = tiny_experiment.run(spec, seed=seed, kernel=False)
            _assert_results_equal(fast, slow)

    def test_records_equal_across_policy_ladder(self, tiny_experiment):
        ladder = paper_policy_grid() + [naive_policy(), origin_policy(12, adaptive=False)]
        batch = run_policy_batch(tiny_experiment, ladder, 17)
        for spec, fast in zip(ladder, batch):
            slow = tiny_experiment.run(spec, seed=17, kernel=False)
            assert fast.records == slow.records
            # Record by record too, not only the column fast path.
            assert list(fast.records) == list(slow.records)
            assert fast.records.node_ids == slow.records.node_ids

    def test_run_auto_routes_identically(self, tiny_experiment):
        fast = tiny_experiment.run(origin_policy(3), seed=5)  # kernel auto
        slow = tiny_experiment.run(origin_policy(3), seed=5, kernel=False)
        _assert_results_equal(fast, slow)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(volatile=True),
            dict(max_task_age_slots=2),
            dict(battery_supplement_w=2e-6),
            dict(capacitor_capacity_j=30e-6, capacitor_initial_j=10e-6),
            dict(max_recall_age_slots=6),
        ],
        ids=["volatile", "stale-abort", "hybrid", "small-cap", "recall-expiry"],
    )
    def test_config_variants_identical(self, tiny_dataset, tiny_bundle, overrides):
        config = SimulationConfig(n_windows=40, **overrides)
        experiment = HARExperiment(tiny_dataset, tiny_bundle, config=config, seed=3)
        fast = experiment.run(rr_policy(3), seed=9)
        slow = experiment.run(rr_policy(3), seed=9, kernel=False)
        _assert_results_equal(fast, slow)

    def test_confidence_matrix_threading(self, tiny_experiment):
        # A caller-threaded matrix must mutate identically on both
        # paths across consecutive runs (Fig. 6 personalization idiom).
        base = tiny_experiment.bundle.confidence_matrix
        fast_matrix = base.copy(adaptation_alpha=base.adaptation_alpha)
        slow_matrix = base.copy(adaptation_alpha=base.adaptation_alpha)
        spec = origin_policy(3)
        for seed in (3, 4):
            fast = tiny_experiment.run(spec, seed=seed, confidence_matrix=fast_matrix)
            slow = tiny_experiment.run(
                spec, seed=seed, confidence_matrix=slow_matrix, kernel=False
            )
            _assert_results_equal(fast, slow)
        np.testing.assert_array_equal(fast_matrix.as_array(), slow_matrix.as_array())
        assert fast_matrix.updates == slow_matrix.updates

    def test_batch_rejects_mismatched_matrices(self, tiny_experiment):
        with pytest.raises(ConfigurationError, match="confidence_matrices"):
            run_policy_batch(
                tiny_experiment, GRID, 3, confidence_matrices=[None]
            )


@pytest.fixture(scope="module")
def pamap2_experiment():
    """A micro PAMAP2 deployment (second dataset of the identity gate)."""
    config = TrainingConfig(
        epochs=2,
        batch_size=16,
        early_stopping_patience=2,
        finetune_epochs=1,
        final_finetune_epochs=1,
        finetune_every=8,
    )
    dataset = make_pamap2(
        seed=7,
        train_windows_per_activity=8,
        val_windows_per_activity=5,
        test_windows_per_activity=5,
        n_train_subjects=2,
        n_eval_subjects=1,
    )
    bundle = TrainedSensorBundle.train(dataset, budget_j=160e-6, seed=4, config=config)
    return HARExperiment(dataset, bundle, config=SimulationConfig(n_windows=40), seed=2)


class TestPamap2Identity:
    def test_batch_matches_scalar(self, pamap2_experiment):
        specs = [rr_policy(3), origin_policy(6)]
        batch = run_policy_batch(pamap2_experiment, specs, 11)
        for spec, fast in zip(specs, batch):
            slow = pamap2_experiment.run(spec, seed=11, kernel=False)
            _assert_results_equal(fast, slow)


# ---------------------------------------------------------------------------
# sweep integration: batched path, parallel workers, scalar fallback
# ---------------------------------------------------------------------------


SWEEP_GRID = [rr_policy(3), origin_policy(3)]


class TestSweepKernelPath:
    def test_sequential_batch_matches_scalar_sweep(self, tiny_experiment):
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=1)
        slow = PolicySweep(tiny_experiment, n_seeds=2, use_kernel=False).run(
            SWEEP_GRID, workers=1
        )
        _assert_sweeps_equal(fast, slow)

    def test_uncached_sweep_matches(self, tiny_experiment):
        # Without the prediction cache there is no shared material to
        # batch on; per-run kernel eligibility still applies and stays
        # identical to the forced-scalar sweep.
        fast = PolicySweep(
            tiny_experiment, n_seeds=1, use_prediction_cache=False
        ).run(SWEEP_GRID, workers=1)
        slow = PolicySweep(
            tiny_experiment, n_seeds=1, use_kernel=False
        ).run(SWEEP_GRID, workers=1)
        _assert_sweeps_equal(fast, slow)

    def test_parallel_kernel_matches_scalar(self, tiny_experiment):
        slow = PolicySweep(tiny_experiment, n_seeds=2, use_kernel=False).run(
            SWEEP_GRID, workers=1
        )
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=2)
        _assert_sweeps_equal(fast, slow)

    def test_batch_failure_falls_back_identically(self, tiny_experiment, monkeypatch):
        # A failing batch must degrade to the per-run loop with no
        # change in results.  Only multi-policy (batch) calls fail;
        # single-run kernel calls from experiment.run stay live.
        import repro.sim.kernel as kernel_mod

        real = kernel_mod.run_policy_batch

        def flaky_batch(experiment, policies, seed, **kwargs):
            if len(list(policies)) > 1:
                raise RuntimeError("synthetic batch failure")
            return real(experiment, policies, seed, **kwargs)

        monkeypatch.setattr(kernel_mod, "run_policy_batch", flaky_batch)
        fast = PolicySweep(tiny_experiment, n_seeds=2).run(SWEEP_GRID, workers=1)
        slow = PolicySweep(tiny_experiment, n_seeds=2, use_kernel=False).run(
            SWEEP_GRID, workers=1
        )
        _assert_sweeps_equal(fast, slow)

    def test_batch_failure_preserves_salvage_accounting(
        self, tiny_experiment, monkeypatch
    ):
        # Batch fails -> per-run fallback -> one policy's cells fail ->
        # salvage reports exactly those cells (per-cell semantics are
        # preserved through the fallback).
        import repro.sim.kernel as kernel_mod

        real_batch = kernel_mod.run_policy_batch

        def flaky_batch(experiment, policies, seed, **kwargs):
            if len(list(policies)) > 1:
                raise RuntimeError("synthetic batch failure")
            return real_batch(experiment, policies, seed, **kwargs)

        monkeypatch.setattr(kernel_mod, "run_policy_batch", flaky_batch)

        real_run = type(tiny_experiment).run

        def flaky_run(self, spec, **kwargs):
            if spec.name == SWEEP_GRID[0].name:
                raise RuntimeError("synthetic cell failure")
            return real_run(self, spec, **kwargs)

        monkeypatch.setattr(type(tiny_experiment), "run", flaky_run)
        result = PolicySweep(
            tiny_experiment, n_seeds=2, include_baselines=False
        ).run(SWEEP_GRID, workers=1, on_failure="salvage")
        report = result.degradation
        assert report is not None and report.failed_cells == 2
        assert SWEEP_GRID[0].name not in result.policies
        assert SWEEP_GRID[1].name in result.policies
        assert all(
            "synthetic cell failure" in cell.cause for cell in report.failed
        )
