"""Lane-vectorized host decisions for a batch of policy runs.

:class:`~repro.core.engine.DecisionEngine` decides one run one slot at a
time through python objects (scheduler, host recall memory, vote,
confidence matrix).  :class:`DecisionKernel` holds the same host state
for *every* run of a batch as arrays over the
:class:`~repro.sim.kernel.SlotKernel` lanes — lane ``run * n_nodes + k``
is run ``run``'s copy of node ``k`` — and decides each slot for the
whole batch in a fixed number of numpy statements:

* ER-r owner and compute slot are closed form in the slot index;
* AAS gathers the rank table on the anticipated label and picks the
  first rested-and-ready (else rested, else best) node, tracking a
  per-node last-activated slot for the cooldown;
* recall memory holds, per run, one entry per reported node (label,
  confidence, started slot) in the host dict's insertion order;
* the vote sums each label's weights entry by entry in that order, with
  a stacked ``(n_runs, n_nodes, n_classes)`` confidence matrix adapted
  by a per-run moving average.

Byte identity with the engine
-----------------------------
Every float the engine computes is computed here by the same IEEE
operations in the same order, so decisions, link energy and adapted
matrices are byte-identical to the scalar loop's:

* the confidence matrix adapts (``cur + alpha * (x - cur)``) *before*
  the vote reads it;
* a weighted vote is ``blend * conf + (1 - blend) * prior`` with the
  prior raw or divided by its row mean (``normalize=True``);
* each label's score is ``0.0`` plus its votes in the host memory's
  dict-insertion (first-report) order;
* ties are ``abs(score - top) < 1e-12``, broken by the freshest started
  slot, then the lowest label;
* AAS uses the last final label, falling back to its own anticipation
  (the last completed label of a slot without a decision), and the ER-r
  owner while neither exists.

Kernel runs never carry faults, tracing, staleness half-life or shedding:
:func:`~repro.sim.kernel.kernel_eligible` keeps such runs on the scalar
loop, and the shed mode belongs to serving.  Strikes/backoff therefore
never trigger (every node is responsive) and vote weights are the
identity; any scheduler or aggregation without a lane form raises
:class:`~repro.errors.SimulationError` instead of degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.ensemble.voting import DEFAULT_BLEND
from repro.core.policies import PolicySpec
from repro.core.scheduling.aas import ActivityAwareScheduler
from repro.core.scheduling.naive import NaiveAllOn
from repro.core.scheduling.rank_table import RankTable
from repro.core.scheduling.round_robin import ExtendedRoundRobin
from repro.errors import ConfigurationError, SchedulingError, SimulationError

__all__ = ["DecisionKernel", "LaneRun"]

#: Beyond any slot, yet ``slot - (-_FAR)`` still fits an int64: marks a
#: node never activated (every cooldown test passes) and a recall
#: without expiry.
_FAR = 2**62


@dataclass(frozen=True)
class LaneRun:
    """One run of a :class:`DecisionKernel` batch.

    ``confidence`` seeds the run's rows of the stacked matrix.  With
    ``write_back`` the matrix is the caller's own (it is mutated at the
    end, like ``HARExperiment.run(confidence_matrix=)``); otherwise the
    run adapts a private copy.  ``material`` selects the run's row of
    the per-material prediction arrays.
    """

    policy: PolicySpec
    confidence: ConfidenceMatrix
    material: int
    max_recall_age_slots: Optional[int] = None
    write_back: bool = False


class DecisionKernel:
    """Host decisions of many runs over the lanes of one slot kernel.

    Parameters
    ----------
    runs:
        The batch's runs; run ``r`` owns lanes ``r * n_nodes ..
        r * n_nodes + n_nodes - 1``.
    node_ids:
        Node ids in construction order (shared by every run).
    rank_table:
        Per-activity sensor ranking for AAS runs.
    predicted / confidences:
        ``(n_materials, n_nodes, n_slots)`` argmax label and
        variance-of-softmax confidence of each node's window per slot.
    comm_cost_j:
        Per-lane result-message energy (what ``CommLink.transmit``
        charges the link).
    n_slots:
        Slots in the batch (sizes the decision history).

    Per slot, :meth:`begin` turns the lanes' ready mask into the active
    mask and :meth:`finish` ingests what completed and decides.  The
    histories (``active_history``, ``completed_history``,
    ``final_history``, ``-1`` meaning no decision) and the per-lane
    ``link_energy_j`` / per-run ``confidence_updates`` are the batch's
    results; :meth:`write_back` hands adapted rows to supplied matrices.
    """

    def __init__(
        self,
        runs: Sequence[LaneRun],
        node_ids: Sequence[int],
        rank_table: Optional[RankTable],
        *,
        predicted: np.ndarray,
        confidences: np.ndarray,
        comm_cost_j: np.ndarray,
        n_slots: int,
    ) -> None:
        self.runs = list(runs)
        self.node_ids = list(node_ids)
        n_runs, n_nodes = len(self.runs), len(self.node_ids)
        if n_runs < 1 or n_nodes < 1:
            raise SimulationError("a decision kernel needs runs and nodes")
        self.predicted = np.asarray(predicted, dtype=np.int64)
        self.confidences = np.asarray(confidences, dtype=np.float64)
        if self.predicted.shape[1:] != (n_nodes, n_slots):
            raise SimulationError(
                f"predicted must be (n_materials, {n_nodes}, {n_slots}), "
                f"got {self.predicted.shape}"
            )
        self.comm_cost_j = np.asarray(comm_cost_j, dtype=np.float64)
        if self.comm_cost_j.shape != (n_runs * n_nodes,):
            raise SimulationError("comm_cost_j must have one entry per lane")
        self.n_runs, self.n_nodes, self.n_slots = n_runs, n_nodes, n_slots
        n_labels = int(self.predicted.max(initial=0)) + 1

        # Static per-run policy parameters, read off the real objects.
        self.material = np.array([run.material for run in self.runs], dtype=np.int64)
        self.naive = np.zeros(n_runs, dtype=bool)
        self.aware = np.zeros(n_runs, dtype=bool)
        self.period = np.ones(n_runs, dtype=np.int64)
        self.cycle = np.ones(n_runs, dtype=np.int64)
        self.cooldown = np.zeros(n_runs, dtype=np.int64)
        self.recall = np.array([run.policy.uses_recall for run in self.runs])
        self.weighted = np.array(
            [run.policy.uses_confidence_matrix for run in self.runs]
        )
        self.adapts = np.array(
            [
                run.policy.adaptive_confidence
                and run.confidence.adaptation_alpha != 0.0
                for run in self.runs
            ]
        )
        self.alpha = np.array([run.confidence.adaptation_alpha for run in self.runs])
        self.normalize = np.array([run.confidence.normalize for run in self.runs])
        self.max_age = np.full(n_runs, _FAR, dtype=np.int64)
        for r, run in enumerate(self.runs):
            self._read_schedule(r, run.policy.make_scheduler(self.node_ids, rank_table))
            if run.max_recall_age_slots is not None:
                if run.max_recall_age_slots < 1:
                    raise SimulationError("max_recall_age_slots must be >= 1 or None")
                self.max_age[r] = run.max_recall_age_slots
        self.rank_index = self._rank_index(rank_table, n_labels)

        # The stacked confidence matrix: only runs that read or adapt it
        # need its rows (the engine never touches it otherwise).
        uses_matrix = self.weighted | np.array(
            [run.policy.adaptive_confidence for run in self.runs]
        )
        n_classes = {
            self.runs[r].confidence.n_classes for r in np.flatnonzero(uses_matrix)
        }
        if len(n_classes) > 1:
            raise ConfigurationError(
                f"confidence matrices of one batch must share n_classes, "
                f"got {sorted(n_classes)}"
            )
        width = n_classes.pop() if n_classes else n_labels
        if uses_matrix.any() and n_labels > width:
            raise ConfigurationError(
                f"label {n_labels - 1} out of range of a {width}-class confidence matrix"
            )
        self.matrix = np.zeros((n_runs, n_nodes, width), dtype=np.float64)
        shared = {}
        for r in np.flatnonzero(uses_matrix):
            run = self.runs[r]
            self.matrix[r] = run.confidence.rows_of(self.node_ids)
            if run.write_back:
                shared.setdefault(id(run.confidence), []).append(r)
        for members in shared.values():
            if len(members) > 1 and self.adapts[members].any():
                raise ConfigurationError(
                    "an adapting confidence matrix may be supplied to only one "
                    "run of a batch"
                )
        self.confidence_updates = np.zeros(n_runs, dtype=np.int64)

        # Mutable host state.
        self.last_final = np.full(n_runs, -1, dtype=np.int64)
        self.anticipated = np.full(n_runs, -1, dtype=np.int64)
        self.last_activated = np.full((n_runs, n_nodes), -_FAR, dtype=np.int64)
        # Recall memory in insertion order, like the host's dict: entry
        # ``p`` of a run is the ``p``-th node to report (``memory_node``),
        # ``position`` maps a node to its entry (-1 before it reports).
        self.position = np.full((n_runs, n_nodes), -1, dtype=np.int64)
        self.n_reported = np.zeros(n_runs, dtype=np.int64)
        self.memory_node = np.zeros((n_runs, n_nodes), dtype=np.int64)
        self.memory_label = np.full((n_runs, n_nodes), -1, dtype=np.int64)
        self.memory_confidence = np.zeros((n_runs, n_nodes), dtype=np.float64)
        self.memory_started = np.zeros((n_runs, n_nodes), dtype=np.int64)
        self._votes: Optional[np.ndarray] = None
        self._expiring = bool((self.max_age < _FAR).any())
        self._any_recall = bool(self.recall.any())
        self.link_energy_j = np.zeros(n_runs * n_nodes, dtype=np.float64)

        self.active_history = np.zeros((n_slots, n_runs * n_nodes), dtype=bool)
        self.completed_history = np.zeros((n_slots, n_runs * n_nodes), dtype=bool)
        self.final_history = np.full((n_slots, n_runs), -1, dtype=np.int64)
        self._run_index = np.arange(n_runs)
        self._labels = np.arange(n_labels)
        # Ranks labels so that the lowest label wins the final tie-break.
        self._label_rank = n_labels - 1 - self._labels

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _read_schedule(self, r: int, scheduler) -> None:
        """Copy one run's cadence/cooldown off its real scheduler."""
        if type(scheduler) is NaiveAllOn:
            self.naive[r] = True
            return
        base = scheduler
        if type(scheduler) is ActivityAwareScheduler:
            self.aware[r] = True
            self.cooldown[r] = scheduler.cooldown_slots
            base = scheduler.base
        if type(base) is not ExtendedRoundRobin or base.node_ids != self.node_ids:
            raise SimulationError(
                f"{type(scheduler).__name__} has no lane form in the decision kernel"
            )
        self.period[r] = base.noops_per_node + 1
        self.cycle[r] = base.cycle_length

    def _rank_index(self, rank_table: Optional[RankTable], n_labels: int) -> np.ndarray:
        """``(n_labels, n_nodes)`` node indices best-first; -1 = unranked."""
        if rank_table is None or not self.aware.any():
            return np.full((n_labels, self.n_nodes), -1, dtype=np.int64)
        position = {node_id: k for k, node_id in enumerate(self.node_ids)}
        size = max(n_labels, max(rank_table.labels) + 1)
        index = np.full((size, self.n_nodes), -1, dtype=np.int64)
        for label in rank_table.labels:
            index[label] = [position[n] for n in rank_table.ranked_nodes(label)]
        return index

    # ------------------------------------------------------------------
    # the two slot phases
    # ------------------------------------------------------------------

    def begin(self, slot: int, ready: np.ndarray) -> np.ndarray:
        """Scheduling phase: the flat per-lane active mask of this slot.

        ``ready`` is the lanes' ``can_start_inference`` mask.  The
        returned array is this slot's row of :attr:`active_history`.
        """
        ready = ready.reshape(self.n_runs, self.n_nodes)
        phase = slot % self.cycle
        # Naive runs (cycle and period 1) compute every slot; their
        # owner is overwritten by the all-nodes row below.
        compute = phase % self.period == 0
        chosen = phase // self.period  # the ER-r owner
        anticipated = np.where(self.last_final >= 0, self.last_final, self.anticipated)
        scheduled = self.aware & compute
        ranked_runs = np.flatnonzero(scheduled & (anticipated >= 0))
        if ranked_runs.size:
            ranked = self.rank_index[anticipated[ranked_runs]]
            if ranked.min() < 0:
                label = anticipated[ranked_runs[(ranked < 0).any(axis=1).argmax()]]
                raise SchedulingError(f"no ranking for class {label}")
            rows = ranked_runs[:, None]
            rested = (slot - self.last_activated[rows, ranked]) >= self.cooldown[rows]
            # First rested-and-ready (3), else first rested (1), else
            # the best-ranked node (all 0): argmax takes the first max.
            pick = (rested + 2 * (rested & ready[rows, ranked])).argmax(axis=1)
            chosen[ranked_runs] = ranked[np.arange(ranked_runs.size), pick]
        self.last_activated[scheduled, chosen[scheduled]] = slot

        active = self.active_history[slot].reshape(self.n_runs, self.n_nodes)
        active[compute, chosen[compute]] = True
        active[self.naive] = True
        return self.active_history[slot]

    def finish(self, slot: int, completed: np.ndarray, started: np.ndarray) -> None:
        """Decision phase: receive, adapt, vote and observe for every run.

        ``completed`` is the lanes' completion mask of this slot and
        ``started`` the slot each lane's finished window was sensed in.
        """
        self.completed_history[slot] = completed
        latest = np.full(self.n_runs, -1, dtype=np.int64)
        lanes = np.flatnonzero(completed)
        if lanes.size:
            runs, nodes = np.divmod(lanes, self.n_nodes)
            start = started[lanes]
            material = self.material[runs]
            label = self.predicted[material, nodes, start]
            confidence = self.confidences[material, nodes, start]
            # CommLink.transmit: every message costs the full radio draw
            # and (no delivery hook) arrives intact.
            self.link_energy_j[lanes] += self.comm_cost_j[lanes]
            # HostDevice.receive: a node's first report appends its
            # entry to the memory; later ones overwrite it in place.
            entry = self.position[runs, nodes]
            first = entry < 0
            if first.any():
                self._append(runs[first], nodes[first])
                entry = self.position[runs, nodes]
            self.memory_label[runs, entry] = label
            self.memory_confidence[runs, entry] = confidence
            self.memory_started[runs, entry] = start
            # ConfidenceMatrix.update, before the vote reads the matrix.
            adapt = self.adapts[runs]
            if adapt.any():
                r, k, c = runs[adapt], nodes[adapt], label[adapt]
                current = self.matrix[r, k, c]
                self.matrix[r, k, c] = current + self.alpha[r] * (confidence[adapt] - current)
                self.confidence_updates += np.bincount(r, minlength=self.n_runs)
            # The last completed report of each run, in node order.
            tail = np.ones(lanes.size, dtype=bool)
            tail[:-1] = runs[1:] != runs[:-1]
            latest[runs[tail]] = label[tail]

        reported = latest >= 0
        final = np.where(reported, latest, self.last_final)
        if self._any_recall:
            # Votes only move with a report (memory, matrix) or an expiry.
            if lanes.size or self._expiring or self._votes is None:
                self._votes = self._vote(slot)
            final = np.where(self.recall, self._votes, final)
        self.final_history[slot] = final
        decided = final >= 0
        self.last_final = np.where(decided, final, self.last_final)
        # ActivityAwareScheduler.observe.
        self.anticipated = np.where(
            decided, final, np.where(reported, latest, self.anticipated)
        )

    def _append(self, runs: np.ndarray, nodes: np.ndarray) -> None:
        """Give first-reporting nodes the next memory entries of their runs.

        ``runs`` is sorted and, within a run, ``nodes`` ascend: the host
        receives a slot's reports in node order.
        """
        index = np.arange(runs.size)
        opens = np.ones(runs.size, dtype=bool)
        opens[1:] = runs[1:] != runs[:-1]
        within = index - np.maximum.accumulate(np.where(opens, index, 0))
        entry = self.n_reported[runs] + within
        self.position[runs, nodes] = entry
        self.memory_node[runs, entry] = nodes
        self.n_reported += np.bincount(runs, minlength=self.n_runs)

    def _vote(self, slot: int) -> np.ndarray:
        """Every run's recall vote (``-1`` when no vote is remembered).

        Memory entries are in insertion order, so summing them left to
        right adds each label's votes in the host's order (a
        non-matching entry adds ``+0.0``, which changes no sum).
        """
        labels, started = self.memory_label, self.memory_started
        valid = (labels >= 0) & (slot - started <= self.max_age[:, None])
        runs, nodes = self._run_index[:, None], self.memory_node
        prior = self.matrix[runs, nodes, np.maximum(labels, 0)]
        if self.normalize.any():
            mean = self.matrix.mean(axis=2)[runs, nodes]
            positive = mean > 0
            scaled = np.where(positive, prior / np.where(positive, mean, 1.0), 1.0)
            prior = np.where(self.normalize[:, None], scaled, prior)
        blended = DEFAULT_BLEND * self.memory_confidence + (1.0 - DEFAULT_BLEND) * prior
        weight = np.where(self.weighted[:, None], blended, 1.0)

        votes = (labels[:, :, None] == self._labels) & valid[:, :, None]
        contributions = np.where(votes, weight[:, :, None], 0.0)
        scores = np.zeros((self.n_runs, self._labels.size), dtype=np.float64)
        for entry in range(self.n_nodes):
            scores += contributions[:, entry]
        present = votes.any(axis=1)
        freshest = np.where(votes, started[:, :, None], -1).max(axis=1)
        top = np.where(present, scores, -np.inf).max(axis=1)
        tied = present & (np.abs(scores - top[:, None]) < 1e-12)
        key = np.where(tied, freshest * self._labels.size + self._label_rank, -1)
        return np.where(present.any(axis=1), key.argmax(axis=1), -1)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def write_back(self) -> None:
        """Hand every supplied, adapting matrix its adapted rows."""
        for r, run in enumerate(self.runs):
            if run.write_back and self.adapts[r]:
                run.confidence.absorb(
                    self.node_ids, self.matrix[r], updates=self.confidence_updates[r]
                )
