"""The policy decision core, shared by simulation and serving.

One slot of Origin's host-side logic — schedule, ingest node reports,
vote, observe — used to live inline in :meth:`HARExperiment.run`'s
scalar loop, duplicated in the vectorized kernel's per-slot epilogue,
and was therefore unusable anywhere a simulation loop was not running.
:class:`DecisionEngine` extracts it behind a two-phase per-slot API so
the same object drives both per-run consumers:

* the scalar experiment loop (physics stepped by ``BodyAreaNetwork``),
* an online serving session (:mod:`repro.serve`), where the "physics"
  is a remote device streaming its own state and reports.

The vectorized kernel batches many runs and decides them all at once
with :class:`~repro.core.decision_kernel.DecisionKernel`, a lane-array
copy of this engine's statements that the engine checks in the tests.

The contract is byte-identity: the engine executes the exact statements
the scalar loop executed, in the same order, so extracting it changes
no simulated result — and a served session fed the same per-slot states
and reports as an offline run produces the identical decision stream.

Per slot::

    active = engine.begin_slot(slot, states)     # scheduling decision
    ... the caller runs/receives the physics for `active` ...
    final = engine.finish_slot(slot, outcomes)   # vote + adaptation

``states`` maps node id -> :class:`NodeSlotState` in **node construction
order** (python dicts preserve insertion order; the scheduling context
dicts are rebuilt in that order, which ER-r/AAS tie-breaking depends
on).  ``outcomes`` are :class:`~repro.wsn.node.InferenceOutcome`-shaped
objects — the serving path feeds wire-decoded reports that duck-type the
same fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.ensemble.voting import MajorityVote, WeightedMajorityVote
from repro.core.policies import AggregationMode, PolicySpec
from repro.core.scheduling.base import SchedulingContext
from repro.core.scheduling.rank_table import RankTable
from repro.errors import SimulationError
from repro.obs.observer import NULL_OBS, Observability
from repro.wsn.host import HostDevice

__all__ = ["DecisionEngine", "NodeSlotState", "make_vote"]


@dataclass(frozen=True)
class NodeSlotState:
    """One node's scheduler-visible state at the top of a slot.

    ``online=False`` models a dead/browned-out node: the scheduler sees
    zero energy and not-ready, and the node is filtered out of the
    active set even if the policy insists on it.
    """

    energy_j: float
    ready: bool
    online: bool = True


def make_vote(spec: PolicySpec, confidence: ConfidenceMatrix):
    """The host-side vote function for a recall-aggregating policy."""
    if spec.aggregation is AggregationMode.MAJORITY_RECALL:
        return MajorityVote()
    if spec.aggregation is AggregationMode.CONFIDENCE_RECALL:
        return WeightedMajorityVote(confidence)
    raise SimulationError(f"{spec.aggregation} has no host-side vote")


class DecisionEngine:
    """Host-side per-slot decision logic for one policy run.

    Owns the scheduler, the :class:`~repro.wsn.host.HostDevice` (recall
    memory + vote) and the confidence matrix of a single run, advancing
    them one slot at a time.  It never touches node physics: callers
    hand it scheduler-visible node states and completed-inference
    reports, which is exactly what lets it serve online traffic where
    the nodes live on the other end of a socket.

    Parameters
    ----------
    policy:
        The :class:`~repro.core.policies.PolicySpec` to execute.
    node_ids:
        Deployment node ids **in construction order** (scheduling
        tie-breaks follow this order).
    rank_table:
        Per-activity sensor ranking (required by activity-aware specs).
    confidence:
        The run's confidence matrix; mutated in place by adaptive
        policies, exactly like ``HARExperiment.run(confidence_matrix=)``.
    max_recall_age_slots / staleness_half_life_slots:
        Host recall knobs (see :class:`~repro.wsn.host.HostDevice`).
    obs:
        Observability bundle; the engine emits the scalar loop's
        ``slot.scheduled`` / ``confidence.updated`` events and the host
        emits ``vote.cast`` when enabled.
    """

    def __init__(
        self,
        policy: PolicySpec,
        node_ids: Sequence[int],
        rank_table: Optional[RankTable],
        confidence: ConfidenceMatrix,
        *,
        max_recall_age_slots: Optional[int] = None,
        staleness_half_life_slots: Optional[int] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.policy = policy
        self.node_ids = list(node_ids)
        self.confidence = confidence
        self.obs = obs
        self.host = HostDevice(
            make_vote(policy, confidence)
            if policy.uses_recall
            else MajorityVote(),
            max_recall_age_slots=max_recall_age_slots,
            staleness_half_life_slots=staleness_half_life_slots,
        )
        if obs.enabled:
            self.host.attach_obs(obs)
        self.scheduler = policy.make_scheduler(self.node_ids, rank_table)
        self.scheduler.reset()
        #: The most recent final classification (the anticipated label).
        self.last_final: Optional[int] = None
        self._confidence_updates_before = confidence.updates

    @property
    def confidence_updates(self) -> int:
        """Online confidence updates applied since construction."""
        return self.confidence.updates - self._confidence_updates_before

    # ------------------------------------------------------------------
    # the two slot phases
    # ------------------------------------------------------------------

    def begin_slot(
        self,
        slot: int,
        states: Dict[int, NodeSlotState],
        *,
        node_responsive: Optional[Dict[int, bool]] = None,
    ) -> List[int]:
        """Scheduling phase: pick (and trace) this slot's active set.

        Offline nodes are masked exactly as the scalar loop masks them:
        the scheduler sees zero stored energy and not-ready, and any
        offline id it picks anyway is dropped from the returned set.
        """
        context = SchedulingContext(
            node_energy_j={
                node_id: (state.energy_j if state.online else 0.0)
                for node_id, state in states.items()
            },
            node_ready={
                node_id: (state.ready and state.online)
                for node_id, state in states.items()
            },
            anticipated_label=self.last_final,
            node_responsive=node_responsive if node_responsive is not None else {},
        )
        active = [
            node_id
            for node_id in self.scheduler.active_nodes(slot, context)
            if states[node_id].online
        ]
        trace = self.obs.tracer
        if trace.enabled:
            trace.append(
                "slot.scheduled",
                slot,
                None,
                {"active": list(active), "anticipated": self.last_final},
            )
        return active

    def finish_slot(
        self,
        slot: int,
        outcomes: Sequence,
        *,
        receive: bool = False,
        decide: bool = True,
        on_completion: Optional[Callable] = None,
    ) -> Optional[int]:
        """Decision phase: ingest reports, adapt, vote, observe.

        Parameters
        ----------
        outcomes:
            This slot's inference outcomes in node construction order
            (``InferenceOutcome`` or any object carrying its report
            fields).
        receive:
            Feed completed+delivered outcomes to the host here.  The
            scalar experiment passes ``False`` because
            ``BodyAreaNetwork.step_slot`` already delivered them; the
            kernel and serving paths pass ``True``.
        decide:
            ``False`` skips the vote (an overloaded serving session
            shedding work): reports are still ingested and the
            scheduler still observes the slot — with ``final=None`` —
            so the session stays consistent, but no decision is made
            and ``last_final`` is unchanged.
        on_completion:
            Called with each completed outcome before confidence
            adaptation (the fault engine's completion hook).
        """
        policy = self.policy
        trace = self.obs.tracer
        if receive:
            for outcome in outcomes:
                if outcome.completed and outcome.delivered:
                    self.host.receive(outcome)
        for outcome in outcomes:
            if not outcome.completed:
                continue
            if on_completion is not None:
                on_completion(outcome)
            if policy.adaptive_confidence and outcome.delivered:
                # The matrix lives on the host: it adapts on what
                # arrived, including a corrupted label.
                self.confidence.update(
                    outcome.node_id, outcome.delivered_label, outcome.confidence
                )
                if trace.enabled:
                    trace.append(
                        "confidence.updated",
                        slot,
                        outcome.node_id,
                        {
                            "label": outcome.delivered_label,
                            "confidence": float(outcome.confidence),
                        },
                    )
        final: Optional[int] = None
        if decide:
            if policy.uses_recall:
                final = self.host.classify(slot)
            else:
                completed = [o for o in outcomes if o.completed and o.delivered]
                if completed:
                    self.last_final = completed[-1].delivered_label
                final = self.last_final
            if final is not None:
                self.last_final = final
        # The scheduler is host-side: it never observes a result whose
        # message was lost in transit.
        self.scheduler.observe(
            slot, [o for o in outcomes if o.delivered], final
        )
        return final
