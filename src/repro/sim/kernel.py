"""Structure-of-arrays vectorized per-slot simulation kernel.

The ROADMAP's hot path is the per-slot energy/harvest/progress update:
``SensorNode.harvest`` + ``SensorNode._active_slot`` +
``NonVolatileProcessor.execute_burst``, stepped slot by slot in python
for every run of a sweep.  This module rewrites that physics as a
structure-of-arrays scan: one *lane* per (run, node) pair, one numpy
statement per capacitor/NVP rule, advancing every lane of a batch in
lockstep over a shared ``(n_lanes, n_slots)`` harvest timeline.

Two stages:

* :func:`run_node_schedule` (stage 1) drives a single node through a
  fixed activation schedule — the python slot loop replaced by the
  kernel, producing the same :class:`~repro.wsn.node.InferenceOutcome`
  stream and :class:`~repro.wsn.node.NodeStats`.
* :func:`run_policy_batch` / :func:`run_group_batch` (stage 2) advance
  *many runs at once*: every policy of a sweep cell, or every user of a
  fleet shard, is a block of lanes of one kernel.  The host side of
  every run — ER-r/AAS scheduling, recall memory, voting, confidence
  adaptation and link energy — is a
  :class:`~repro.core.decision_kernel.DecisionKernel` over the same
  lanes, so a slot of the whole batch is a fixed number of numpy
  statements; after the loop every run's per-slot columns are cut from
  the decision histories as one :class:`~repro.sim.results.SlotTable`
  block.

Byte-identity contract
----------------------
The kernel performs **elementwise-identical IEEE float64 operations in
the same per-lane order** as the scalar path (deposit → leak → idle →
stale-abort → sense → burst → complete/wipe → comm draw), so results are
byte-identical — not merely close — to ``HARExperiment.run``'s scalar
loop.  This is asserted by tests and the ``bench_perf_sweep --kernel``
gate.  Two consequences shape the design:

* The slot loop itself stays in python: capacitor clamping makes each
  slot's state a two-sided ``min``/``max`` function of the previous
  slot's, which has no closed form that reproduces float ordering.
  Vectorization happens across *lanes*, not slots.
* Everything with cross-node or cross-slot feedback (scheduling, host
  recall, voting, confidence adaptation, link accounting) is executed by
  the decision kernel, which repeats
  :class:`~repro.core.engine.DecisionEngine`'s float operations in the
  engine's order (see :mod:`repro.core.decision_kernel`).

Scalar-fallback rules
---------------------
The kernel only takes runs it can reproduce exactly; everything else
falls back to the scalar path (see :func:`kernel_eligible`): runs with
observability enabled (per-slot timers/traces instrument the scalar
objects), a window transform (per-slot model inference), no precomputed
softmax, or a non-empty fault plan (fault engines drive node state
imperatively).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from repro.core.decision_kernel import DecisionKernel, LaneRun
from repro.core.policies import PolicySpec
from repro.errors import ConfigurationError, SimulationError
from repro.sim.predcache import RunMaterial, build_run_material, default_subject
from repro.sim.results import ExperimentResult, SlotTable
from repro.utils.rng import SeedSequenceFactory
from repro.wsn.comm import CommLink
from repro.wsn.node import InferenceOutcome, NodeStats, SensorNode

logger = logging.getLogger(__name__)


def kernel_ineligibility_reason(
    *,
    material: Optional[RunMaterial],
    window_transform,
    faults,
    obs,
) -> Optional[str]:
    """Why a run cannot take the vectorized path, or ``None`` if it can.

    The rules mirror the scalar features the kernel does not model (see
    module docstring); the returned tag feeds the ``kernel.fallback.*``
    observability counters so sweeps that quietly lose the kernel
    speedup are visible in ``repro.obs.summarize`` reports.
    """
    # Most specific first: an observed run with a fault plan reports
    # "fault_plan", not the always-true-under-obs "tracing".
    if window_transform is not None:
        return "window_transform"
    if faults is not None and not faults.is_empty:
        return "fault_plan"
    if material is None or material.probabilities is None:
        return "missing_probs"
    if obs is not None and obs.enabled:
        return "tracing"
    return None


def kernel_eligible(
    *,
    material: Optional[RunMaterial],
    window_transform,
    faults,
    obs,
) -> bool:
    """Whether a run with these inputs can take the vectorized path.

    Any ``False`` here routes the run through the scalar loop, whose
    output the kernel is byte-identical to whenever both are possible;
    :func:`kernel_ineligibility_reason` names the blocking feature.
    """
    return (
        kernel_ineligibility_reason(
            material=material,
            window_transform=window_transform,
            faults=faults,
            obs=obs,
        )
        is None
    )


@dataclass(frozen=True)
class SlotEvents:
    """What one :meth:`SlotKernel.advance` call did, per lane.

    Boolean masks select lanes; the float arrays are zero outside their
    mask.  ``started`` is only meaningful for lanes in ``active``.
    """

    active: np.ndarray  # bool: attempted an inference this slot
    sense_fail: np.ndarray  # bool: could not afford the IMU sample
    completed: np.ndarray  # bool: inference finished this slot
    started: np.ndarray  # int64: slot whose window the attempt classifies
    sense_paid: np.ndarray  # float64: IMU draw actually paid
    burst_consumed: np.ndarray  # float64: NVP burst energy drawn
    comm_paid: np.ndarray  # float64: radio draw actually paid


class SlotKernel:
    """Lane-parallel node physics over a shared slot timeline.

    One lane = one (run, node) pair.  All per-lane parameters are
    float64/bool/int64 arrays of shape ``(n_lanes,)``;
    ``slot_energies`` is ``(n_lanes, n_slots)``.  Every update in
    :meth:`advance` is the elementwise image of one scalar-path
    statement, in the same order — see the module docstring's
    byte-identity contract.
    """

    def __init__(
        self,
        *,
        slot_energies: np.ndarray,
        capacity_j: np.ndarray,
        initial_j: np.ndarray,
        leak_j: np.ndarray,
        idle_j: np.ndarray,
        sense_j: np.ndarray,
        task_work_j: np.ndarray,
        useful_fraction: np.ndarray,
        volatile: np.ndarray,
        comm_cost_j: np.ndarray,
        max_task_age_slots: np.ndarray,
    ) -> None:
        self.slot_energies = np.ascontiguousarray(slot_energies, dtype=np.float64)
        if self.slot_energies.ndim != 2:
            raise SimulationError("slot_energies must be (n_lanes, n_slots)")
        n_lanes = self.slot_energies.shape[0]

        def lane_array(name: str, values, dtype=np.float64) -> np.ndarray:
            array = np.ascontiguousarray(values, dtype=dtype)
            if array.shape != (n_lanes,):
                raise SimulationError(
                    f"{name} must have shape ({n_lanes},), got {array.shape}"
                )
            return array

        self.capacity_j = lane_array("capacity_j", capacity_j)
        self.leak_j = lane_array("leak_j", leak_j)
        self.idle_j = lane_array("idle_j", idle_j)
        self.sense_j = lane_array("sense_j", sense_j)
        self.task_work_j = lane_array("task_work_j", task_work_j)
        self.useful_fraction = lane_array("useful_fraction", useful_fraction)
        self.volatile = lane_array("volatile", volatile, dtype=bool)
        self.comm_cost_j = lane_array("comm_cost_j", comm_cost_j)
        self.max_task_age_slots = lane_array("max_task_age_slots", max_task_age_slots)
        # Same expressions as Capacitor.__init__ clamping and
        # SensorNode.can_start_inference / NVP's completion check.
        self.stored = np.minimum(lane_array("initial_j", initial_j), self.capacity_j)
        self.ready_threshold = self.sense_j + self.task_work_j / self.useful_fraction
        self._complete_at = self.task_work_j - 1e-15

        self.n_lanes = n_lanes
        self.n_slots = self.slot_energies.shape[1]
        self.done_work = np.zeros(n_lanes, dtype=np.float64)
        self.pending_slot = np.full(n_lanes, -1, dtype=np.int64)
        self.in_progress = np.zeros(n_lanes, dtype=bool)

        # NodeStats counters, accumulated in the scalar path's per-slot
        # addition order so float sums match bit for bit.
        self.slots = np.zeros(n_lanes, dtype=np.int64)
        self.active_slots = np.zeros(n_lanes, dtype=np.int64)
        self.attempts_started = np.zeros(n_lanes, dtype=np.int64)
        self.completions = np.zeros(n_lanes, dtype=np.int64)
        self.failed_active_slots = np.zeros(n_lanes, dtype=np.int64)
        self.harvested_j = np.zeros(n_lanes, dtype=np.float64)
        self.consumed_j = np.zeros(n_lanes, dtype=np.float64)
        self.comm_j = np.zeros(n_lanes, dtype=np.float64)
        self.leaked_j = np.zeros(n_lanes, dtype=np.float64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_nodes(
        cls, nodes: Sequence[SensorNode], *, n_runs: int, n_slots: int
    ) -> "SlotKernel":
        """Lanes for ``n_runs`` identical runs over freshly built nodes.

        Lane ``r * len(nodes) + k`` is run ``r``'s copy of ``nodes[k]``.
        The nodes must be untouched templates (e.g. fresh from
        ``HARExperiment._build_nodes``): their current capacitor charge
        seeds every run's initial state.
        """
        if n_runs < 1:
            raise SimulationError(f"n_runs must be >= 1, got {n_runs}")
        base = np.stack([node.slot_energy_vector(n_slots) for node in nodes])

        def tiled(values, dtype=np.float64) -> np.ndarray:
            return np.tile(np.asarray(values, dtype=dtype), n_runs)

        return cls(
            slot_energies=np.tile(base, (n_runs, 1)),
            capacity_j=tiled([n.capacitor.capacity_j for n in nodes]),
            initial_j=tiled([n.capacitor.stored_j for n in nodes]),
            leak_j=tiled([n.capacitor.leakage_w * n.slot_duration_s for n in nodes]),
            idle_j=tiled([n.costs.idle_j for n in nodes]),
            sense_j=tiled([n.costs.sense_j for n in nodes]),
            task_work_j=tiled([n.inference_energy_j for n in nodes]),
            useful_fraction=tiled([n.nvp.useful_fraction for n in nodes]),
            volatile=tiled([n.nvp.volatile for n in nodes], dtype=bool),
            comm_cost_j=tiled(
                [n.comm.message_cost_j(n.costs.result_message_bytes) for n in nodes]
            ),
            max_task_age_slots=tiled(
                [
                    np.inf if n.max_task_age_slots is None else float(n.max_task_age_slots)
                    for n in nodes
                ]
            ),
        )

    @classmethod
    def stack(cls, kernels: Sequence["SlotKernel"]) -> "SlotKernel":
        """Concatenate fresh kernels' lanes into one mega-batch kernel.

        The fleet layer's lane packing: each input kernel holds one
        homogeneous slice (e.g. one user's ``policies x nodes`` lanes
        from :meth:`from_nodes`) and the stacked kernel advances every
        slice in a single ``advance`` per slot.  Per-lane physics is
        elementwise, so lane ``i`` of a stacked kernel is byte-identical
        to the same lane advanced in its own kernel.  Inputs must be
        fresh (no slot advanced yet); a single input is returned as-is.
        """
        kernels = list(kernels)
        if not kernels:
            raise SimulationError("stack needs at least one kernel")
        if len(kernels) == 1:
            return kernels[0]
        slot_counts = {kernel.n_slots for kernel in kernels}
        if len(slot_counts) != 1:
            raise SimulationError(
                f"stacked kernels must share one slot count, got {sorted(slot_counts)}"
            )
        for kernel in kernels:
            if kernel.slots.any() or kernel.in_progress.any():
                raise SimulationError("stack needs fresh kernels (no slots advanced)")

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(kernel, name) for kernel in kernels])

        return cls(
            slot_energies=np.concatenate(
                [kernel.slot_energies for kernel in kernels], axis=0
            ),
            capacity_j=cat("capacity_j"),
            # A fresh kernel's ``stored`` is its (already clamped)
            # initial charge, so it seeds the stacked lanes exactly.
            initial_j=cat("stored"),
            leak_j=cat("leak_j"),
            idle_j=cat("idle_j"),
            sense_j=cat("sense_j"),
            task_work_j=cat("task_work_j"),
            useful_fraction=cat("useful_fraction"),
            volatile=cat("volatile"),
            comm_cost_j=cat("comm_cost_j"),
            max_task_age_slots=cat("max_task_age_slots"),
        )

    # ------------------------------------------------------------------
    # per-slot scan
    # ------------------------------------------------------------------

    def ready_mask(self) -> np.ndarray:
        """Per-lane ``SensorNode.can_start_inference()``."""
        return self.stored >= self.ready_threshold

    def advance(self, slot: int, active: np.ndarray) -> SlotEvents:
        """Advance every lane one slot; ``active`` lanes attempt work.

        Each block below is the vectorized image of one scalar-path
        statement (cited in comments), applied in the same order.
        """
        stored = self.stored

        # SensorNode.harvest: deposit -> leak -> idle draw.
        energy = self.slot_energies[:, slot]
        accepted = np.minimum(energy, self.capacity_j - stored)
        stored += accepted
        lost = np.minimum(self.leak_j, stored)
        stored -= lost
        idle = np.minimum(self.idle_j, stored)
        stored -= idle
        self.harvested_j += accepted
        self.consumed_j += idle
        self.leaked_j += lost
        self.slots += 1

        self.active_slots += active

        # Stale in-flight tasks expire before anything runs
        # (SensorNode._active_slot's max_task_age_slots check); the lane
        # then falls through to a fresh sense like the scalar path.
        stale = active & self.in_progress & (
            (slot - self.pending_slot) >= self.max_task_age_slots
        )
        if stale.any():
            self.in_progress &= ~stale
            self.done_work[stale] = 0.0
            self.pending_slot[stale] = -1

        # Fresh inference: sense the current window first.
        fresh = active & ~self.in_progress
        sense_paid = np.where(fresh, np.minimum(self.sense_j, stored), 0.0)
        stored -= sense_paid
        self.consumed_j += sense_paid
        sense_fail = fresh & (sense_paid < self.sense_j)
        started_ok = fresh & ~sense_fail
        self.pending_slot[started_ok] = slot
        self.done_work[started_ok] = 0.0
        self.in_progress |= started_ok
        self.attempts_started += started_ok

        # NVP.execute_burst: consume up to what remaining work (plus
        # checkpoint overhead) requires, bank the useful fraction.
        bursting = active & self.in_progress
        needed = (self.task_work_j - self.done_work) / self.useful_fraction
        burst = np.where(bursting, np.minimum(stored, needed), 0.0)
        stored -= burst
        self.consumed_j += burst
        self.done_work += np.where(bursting, burst * self.useful_fraction, 0.0)

        completed = bursting & (self.done_work >= self._complete_at)
        incomplete = bursting & ~completed
        self.failed_active_slots += sense_fail
        self.failed_active_slots += incomplete

        # Outcome provenance before state is finalized: the slot whose
        # window each attempt classifies.
        started = np.where(sense_fail, slot, self.pending_slot)

        # Volatile MCUs lose an unfinished burst's progress entirely.
        wiped = incomplete & self.volatile
        if wiped.any():
            self.done_work[wiped] = 0.0
            self.in_progress &= ~wiped
            self.pending_slot[wiped] = -1

        # Completion: acknowledge, then pay for the result message.
        self.completions += completed
        self.in_progress &= ~completed
        self.done_work[completed] = 0.0
        self.pending_slot[completed] = -1
        comm_paid = np.where(completed, np.minimum(self.comm_cost_j, stored), 0.0)
        stored -= comm_paid
        self.comm_j += comm_paid
        self.consumed_j += comm_paid

        return SlotEvents(
            active=active,
            sense_fail=sense_fail,
            completed=completed,
            started=started,
            sense_paid=sense_paid,
            burst_consumed=burst,
            comm_paid=comm_paid,
        )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    #: The NodeStats counters, which SlotKernel keeps under the same names.
    _STAT_FIELDS = tuple(f.name for f in fields(NodeStats))

    def all_lane_stats(self) -> List[NodeStats]:
        """Every lane's counters as plain-python :class:`NodeStats`, in lane order."""
        columns = [getattr(self, name).tolist() for name in self._STAT_FIELDS]
        return [NodeStats(*values) for values in zip(*columns)]

    def lane_stats(self, lane: int) -> NodeStats:
        """One lane's counters as a plain-python :class:`NodeStats`."""
        return NodeStats(*(getattr(self, name)[lane].item() for name in self._STAT_FIELDS))


# ---------------------------------------------------------------------------
# stage 1: one node, fixed schedule
# ---------------------------------------------------------------------------


def run_node_schedule(
    node: SensorNode,
    schedule: Sequence[bool],
    *,
    mutate_comm: bool = True,
):
    """Drive one node through a fixed activation schedule via the kernel.

    The vectorized replacement for::

        for slot in range(n_slots):
            if schedule[slot]:
                outcomes.append(node.active_slot(slot, window))
            else:
                node.idle_slot(slot)

    ``node`` must be freshly built (its capacitor charge seeds the lane)
    and must carry a ``prediction_cache`` — the kernel never runs the
    model.  Returns ``(outcomes, stats)``; the node's own capacitor/NVP
    state is left untouched.  With ``mutate_comm`` (default) completed
    results go through ``node.comm.transmit`` so the link's message and
    energy counters advance exactly as in the scalar loop.
    """
    if node.prediction_cache is None:
        raise ConfigurationError(
            "run_node_schedule needs node.prediction_cache (the kernel "
            "does not run models); install the run material's softmax first"
        )
    mask = np.asarray(schedule, dtype=bool)
    n_slots = mask.size
    kernel = SlotKernel.from_nodes([node], n_runs=1, n_slots=n_slots)
    probabilities = node.prediction_cache
    predicted = probabilities.argmax(axis=1)
    confidences = np.var(probabilities, axis=1)

    comm = node.comm if mutate_comm else CommLink(node.comm.profile)
    node_id, location = node.node_id, node.location

    outcomes: List[InferenceOutcome] = []
    active = np.zeros(1, dtype=bool)
    for slot in range(n_slots):
        active[0] = mask[slot]
        events = kernel.advance(slot, active)
        if not active[0]:
            continue
        # The lane's slot outcome, in the scalar path's field order.
        if events.sense_fail[0]:
            outcome = InferenceOutcome(
                node_id, location, slot, slot, False,
                energy_consumed_j=float(events.sense_paid[0]),
            )
        elif not events.completed[0]:
            outcome = InferenceOutcome(
                node_id, location, slot, int(events.started[0]), False,
                energy_consumed_j=float(events.burst_consumed[0]),
            )
        else:
            started_slot = int(events.started[0])
            label = int(predicted[started_slot])
            # The real link transmits, so its message/energy counters
            # (and any delivery hook) match the scalar path; the
            # capacitor-side draw already happened in advance().
            sent = comm.transmit(node.costs.result_message_bytes, slot, label)
            outcome = InferenceOutcome(
                node_id=node_id,
                location=location,
                slot_index=slot,
                started_slot=started_slot,
                completed=True,
                predicted_label=label,
                probabilities=probabilities[started_slot],
                confidence=float(confidences[started_slot]),
                energy_consumed_j=float(events.burst_consumed[0] + events.comm_paid[0]),
                delivered=sent.delivery.delivered,
                reported_label=(sent.delivery.label if sent.delivery.corrupted else None),
            )
        outcomes.append(outcome)
    return outcomes, kernel.lane_stats(0)


# ---------------------------------------------------------------------------
# stage 2: batched policy runs (and stage 3: heterogeneous groups)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchGroup:
    """One homogeneous slice of a (possibly heterogeneous) mega-batch.

    A group is everything that shares a seed, deployment config and run
    material: ``len(policies)`` runs over one set of node templates.
    :func:`run_policy_batch` is a single group; the fleet layer packs
    one group per simulated user — each with its *own* traces,
    capacitor sizing, gains and timeline — into one
    :func:`run_group_batch` call.

    ``config`` (a :class:`~repro.sim.experiment.SimulationConfig`)
    defaults to the experiment's; ``material`` is built on demand when
    omitted; ``confidence_matrices`` optionally supplies (and mutates!)
    one matrix per policy, ``None`` entries meaning fresh copies.
    """

    policies: Sequence[PolicySpec]
    seed: int
    config: Optional[object] = None
    material: Optional[RunMaterial] = None
    subject: Optional[object] = None
    confidence_matrices: Optional[Sequence] = None


@dataclass
class _GroupState:
    """One group's prepared inputs."""

    node_ids: List[int]
    material: int  # index into the batch's _MaterialTable
    policies: List[PolicySpec]
    runs: List[LaneRun]
    n_slots: int


class _MaterialTable:
    """Each distinct material of a batch once: true labels and predictions.

    A fleet shard shares a few materials among hundreds of users, so
    labels and prediction rows are gathered per material, not per group.
    """

    def __init__(self, experiment) -> None:
        self._spec = experiment.dataset.spec
        self._index: dict = {}
        self._materials: List[RunMaterial] = []  # keeps every id() alive
        self.true_labels: List[np.ndarray] = []  # (n_slots,) int64 class indices
        self.predicted: List[np.ndarray] = []  # (n_nodes, n_slots) argmax labels
        self.confidences: List[np.ndarray] = []  # (n_nodes, n_slots) variances

    def index(self, material: RunMaterial, node_ids: Sequence[int]) -> int:
        key = id(material)
        if key not in self._index:
            self._index[key] = len(self._materials)
            self._materials.append(material)
            predictions = material.class_predictions()
            self.true_labels.append(
                np.array([self._spec.label_of(label) for label in material.labels], dtype=np.int64)
            )
            self.predicted.append(np.stack([predictions[n][0] for n in node_ids]))
            self.confidences.append(np.stack([predictions[n][1] for n in node_ids]))
        return self._index[key]


def _prepare_group(experiment, group: BatchGroup, table: _MaterialTable) -> tuple:
    """Materialize one group's nodes, material and decision runs.

    Returns ``(_GroupState, SlotKernel)`` — the kernel holds the
    group's ``len(policies) * len(nodes)`` fresh lanes, ready to be
    stacked with other groups'.
    """
    policies = list(group.policies)
    if not policies:
        raise ConfigurationError("a batch group needs at least one policy")
    config = group.config if group.config is not None else experiment.config
    run_seed = int(group.seed)
    subject = group.subject or default_subject(experiment.dataset)
    confidence_matrices = group.confidence_matrices
    if confidence_matrices is None:
        confidence_matrices = [None] * len(policies)
    elif len(confidence_matrices) != len(policies):
        raise ConfigurationError(
            f"confidence_matrices must match policies "
            f"({len(confidence_matrices)} != {len(policies)})"
        )

    material = group.material
    if material is None:
        material = build_run_material(
            experiment.dataset,
            experiment.bundle,
            run_seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=subject,
            with_predictions=True,
        )
    else:
        material.check_compatible(
            seed=run_seed,
            n_windows=config.n_windows,
            dwell_scale=config.dwell_scale,
            use_pruned_models=config.use_pruned_models,
            subject=subject,
        )
    if material.probabilities is None:
        raise ConfigurationError(
            "the kernel needs material with precomputed softmax "
            "(build_run_material(with_predictions=True))"
        )

    # The seed's node templates: same factory stream as the scalar path,
    # so traces/capacitors/NVPs carry identical parameters.
    factory = SeedSequenceFactory(run_seed)
    nodes = experiment._build_nodes(factory, config)
    node_ids = [node.node_id for node in nodes]
    n_slots = config.n_windows
    kernel = SlotKernel.from_nodes(nodes, n_runs=len(policies), n_slots=n_slots)
    index = table.index(material, node_ids)
    bundle_matrix = experiment.bundle.confidence_matrix
    runs = [
        LaneRun(
            policy=spec,
            # A fresh run adapts a private copy of the bundle's matrix
            # (alpha only matters to adaptive policies).
            confidence=bundle_matrix if matrix is None else matrix,
            material=index,
            max_recall_age_slots=config.max_recall_age_slots,
            write_back=matrix is not None,
        )
        for spec, matrix in zip(policies, confidence_matrices)
    ]
    state = _GroupState(
        node_ids=node_ids, material=index, policies=policies, runs=runs, n_slots=n_slots
    )
    return state, kernel


def run_group_batch(
    experiment,
    groups: Sequence[BatchGroup],
) -> List[List[ExperimentResult]]:
    """Advance every run of every group in lockstep on one kernel.

    The mega-batch entry point: groups may differ in seed, traces,
    capacitor sizing, gains, dwell and material — each contributes its
    own ``policies x nodes`` lane block to one stacked
    :class:`SlotKernel`, so the whole cohort's physics advances with
    one numpy statement per rule per slot instead of one kernel
    invocation per user.  The host side — scheduling, recall, voting
    and confidence adaptation of every run — is one
    :class:`~repro.core.decision_kernel.DecisionKernel` over the same
    lanes.

    Returns one ``List[ExperimentResult]`` per group (one entry per
    policy, in order).  Every result is byte-identical to running that
    group's ``(policy, seed, config)`` alone through
    ``HARExperiment.run`` — per-lane physics is elementwise, and the
    decision kernel repeats the engine's float operations in order.

    All groups must share one slot count (``config.n_windows``).
    """
    groups = list(groups)
    if not groups:
        return []

    table = _MaterialTable(experiment)
    prepared = [_prepare_group(experiment, group, table) for group in groups]
    states = [state for state, _ in prepared]
    n_slots = states[0].n_slots
    node_ids = states[0].node_ids
    for state in states[1:]:
        if state.n_slots != n_slots:
            raise ConfigurationError(
                f"all groups of a batch must share n_windows "
                f"({state.n_slots} != {n_slots})"
            )
        if state.node_ids != node_ids:
            raise ConfigurationError("all groups of a batch must share their nodes")
    kernel = SlotKernel.stack([group_kernel for _, group_kernel in prepared])
    decisions = DecisionKernel(
        [run for state in states for run in state.runs],
        node_ids,
        experiment.bundle.rank_table,
        predicted=np.stack(table.predicted),
        confidences=np.stack(table.confidences),
        comm_cost_j=kernel.comm_cost_j,
        n_slots=n_slots,
    )

    logger.debug(
        "kernel batch: %d group(s), %d lanes x %d slots",
        len(states), kernel.n_lanes, n_slots,
    )
    for slot in range(n_slots):
        active = decisions.begin(slot, kernel.ready_mask())
        events = kernel.advance(slot, active)
        decisions.finish(slot, events.completed, events.started)
    decisions.write_back()
    return _results(experiment, states, table, kernel, decisions)


def _results(
    experiment, states, table: _MaterialTable, kernel: SlotKernel, decisions: DecisionKernel
):
    """Every run's :class:`ExperimentResult` from the batch's histories.

    The per-slot columns of every run are built as one
    ``(n_runs, 7, n_slots)`` block and handed out as per-run
    :class:`SlotTable` views; only the per-node counters and the result
    objects themselves are built per run.
    """
    n_slots, n_runs, n_nodes = decisions.n_slots, decisions.n_runs, decisions.n_nodes
    node_ids = decisions.node_ids
    active = decisions.active_history.reshape(n_slots, n_runs, n_nodes)
    completed = decisions.completed_history.reshape(n_slots, n_runs, n_nodes)
    run_material = np.array([state.material for state in states for _ in state.policies])

    block = np.empty((n_runs, 7, n_slots), dtype=np.int64)
    block[:, 0] = np.arange(n_slots)
    block[:, 1] = np.stack(table.true_labels)[run_material]
    block[:, 2] = decisions.final_history.T
    # Active sets as node-order bitmasks.
    block[:, 3] = (active * (1 << np.arange(n_nodes))).sum(axis=2).T
    block[:, 4] = completed.sum(axis=2).T
    block[:, 5] = active.sum(axis=2).T
    block[:, 6] = 0
    tables = SlotTable.from_runs(block, node_ids)

    lane_stats = kernel.all_lane_stats()
    link_energy = decisions.link_energy_j.tolist()
    updates = decisions.confidence_updates.tolist()
    activities = experiment.dataset.spec.activities

    results: List[List[ExperimentResult]] = []
    r = 0
    for state in states:
        group_results: List[ExperimentResult] = []
        for spec in state.policies:
            lanes = range(r * n_nodes, (r + 1) * n_nodes)
            group_results.append(
                ExperimentResult(
                    policy_name=spec.name,
                    activities=list(activities),
                    records=tables[r],
                    node_stats={
                        node_id: lane_stats[lane] for node_id, lane in zip(node_ids, lanes)
                    },
                    # The scalar path's sum over per-node links, in order.
                    comm_energy_j=sum(link_energy[lane] for lane in lanes),
                    confidence_updates=updates[r],
                )
            )
            r += 1
        results.append(group_results)
    return results


def run_policy_batch(
    experiment,
    policies: Sequence[PolicySpec],
    seed: int,
    *,
    material: Optional[RunMaterial] = None,
    subject=None,
    config=None,
    confidence_matrices: Optional[Sequence] = None,
) -> List[ExperimentResult]:
    """Run every policy for one seed on a single batched timeline.

    The stage-2 entry point: ``len(policies)`` runs advance in lockstep
    as lanes of one :class:`SlotKernel` (they share the seed's traces
    and material), and one
    :class:`~repro.core.decision_kernel.DecisionKernel` makes every
    run's scheduling, recall, voting and confidence decisions over the
    same lanes.  Returns one
    :class:`~repro.sim.results.ExperimentResult` per policy, in order,
    byte-identical to ``experiment.run(policy, seed=seed, ...)``.

    This is :func:`run_group_batch` with a single :class:`BatchGroup`;
    ``confidence_matrices`` optionally supplies (and mutates!) one
    matrix per policy, mirroring ``run(confidence_matrix=...)``, with
    ``None`` entries for the default fresh copies.
    """
    policies = list(policies)
    if not policies:
        return []
    return run_group_batch(
        experiment,
        [
            BatchGroup(
                policies=policies,
                seed=seed,
                config=config,
                material=material,
                subject=subject,
                confidence_matrices=confidence_matrices,
            )
        ],
    )[0]
