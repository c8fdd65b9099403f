"""``DecisionKernel`` against the scalar ``DecisionEngine``, slot by slot.

Both are driven in lockstep with the same ready masks and the same
completed reports, so every edge of the vote, the recall memory and the
AAS fallback is compared on inputs chosen to hit it.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decision_kernel import DecisionKernel, LaneRun
from repro.core.engine import DecisionEngine, NodeSlotState
from repro.core.ensemble.confidence import ConfidenceMatrix
from repro.core.policies import (
    AggregationMode,
    PolicySpec,
    aas_policy,
    aasr_policy,
    naive_policy,
    origin_policy,
    rr_policy,
)
from repro.core.scheduling.rank_table import RankTable
from repro.datasets.body import BodyLocation
from repro.errors import ConfigurationError, SimulationError
from repro.sim.experiment import SimulationConfig
from repro.sim.kernel import BatchGroup, run_group_batch
from repro.wsn.node import InferenceOutcome

N_CLASSES = 5


def _all_on_recall(n_nodes: int) -> PolicySpec:
    """Every node every slot, confidence-weighted recall vote."""
    return PolicySpec(
        name="all-on recall",
        rr_length=n_nodes,
        activity_aware=False,
        aggregation=AggregationMode.CONFIDENCE_RECALL,
        all_on=True,
    )


def _rank_table(n_nodes: int) -> RankTable:
    nodes = list(range(n_nodes))
    return RankTable(
        {label: nodes[label % n_nodes :] + nodes[: label % n_nodes] for label in range(N_CLASSES)}
    )


def _lockstep(
    policy,
    matrix_rows,
    *,
    labels,
    confidences,
    completes,
    started=None,
    ready=None,
    normalize=False,
    alpha=0.0,
    max_recall_age_slots=None,
):
    """Drive kernel and engine over ``labels.shape[1]`` slots.

    ``labels``/``confidences`` are ``(n_nodes, n_slots)``: what a node
    reports for the window sensed in a slot.  ``completes(slot, node)``
    says whether an active node finishes; ``started(slot, node)`` which
    window it finished (default: the current slot); ``ready(slot, node)``
    is the AAS energy check.  Returns both decision streams plus the two
    matrices after the run.
    """
    n_nodes, n_slots = labels.shape
    node_ids = list(range(n_nodes))
    started = started or (lambda slot, node: slot)
    ready = ready or (lambda slot, node: True)
    rank_table = _rank_table(n_nodes)

    def matrix():
        return ConfidenceMatrix(
            dict(enumerate(matrix_rows)), adaptation_alpha=alpha, normalize=normalize
        )

    kernel_matrix, engine_matrix = matrix(), matrix()
    kernel = DecisionKernel(
        [
            LaneRun(
                policy=policy,
                confidence=kernel_matrix,
                material=0,
                max_recall_age_slots=max_recall_age_slots,
                write_back=True,
            )
        ],
        node_ids,
        rank_table,
        predicted=labels[None],
        confidences=confidences[None],
        comm_cost_j=np.full(n_nodes, 1e-6),
        n_slots=n_slots,
    )
    engine = DecisionEngine(
        policy,
        node_ids,
        rank_table,
        engine_matrix,
        max_recall_age_slots=max_recall_age_slots,
    )

    kernel_finals, engine_finals = [], []
    for slot in range(n_slots):
        ready_mask = np.array([ready(slot, k) for k in node_ids])
        active = kernel.begin(slot, ready_mask)
        engine_active = engine.begin_slot(
            slot,
            {k: NodeSlotState(energy_j=1e-4, ready=bool(ready_mask[k])) for k in node_ids},
        )
        assert [k for k in node_ids if active[k]] == sorted(engine_active), slot
        done = np.array([bool(active[k]) and completes(slot, k) for k in node_ids])
        begun = np.array([started(slot, k) for k in node_ids], dtype=np.int64)
        kernel.finish(slot, done, begun)
        outcomes = [
            InferenceOutcome(
                node_id=k,
                location=BodyLocation.CHEST,
                slot_index=slot,
                started_slot=int(begun[k]),
                completed=True,
                predicted_label=int(labels[k, begun[k]]),
                probabilities=np.ones(N_CLASSES) / N_CLASSES,
                confidence=float(confidences[k, begun[k]]),
            )
            if done[k]
            else InferenceOutcome(k, BodyLocation.CHEST, slot, slot, False)
            for k in engine_active
        ]
        engine_finals.append(engine.finish_slot(slot, outcomes, receive=True))
        final = int(kernel.final_history[slot, 0])
        kernel_finals.append(None if final < 0 else final)
    kernel.write_back()
    assert int(kernel.confidence_updates[0]) == engine.confidence_updates
    return kernel_finals, engine_finals, kernel_matrix, engine_matrix


def _assert_same_matrices(a: ConfidenceMatrix, b: ConfidenceMatrix) -> None:
    assert a.as_array().tobytes() == b.as_array().tobytes()
    assert a.updates == b.updates


class TestWeightedTies:
    def test_tie_within_tolerance_goes_to_freshest_vote(self):
        # Slot 0: node 0 says 1.  Slot 1: node 1 says 2 with a score
        # 1e-13 higher — inside the tie tolerance, so the fresher vote
        # (node 1's) must win, not the strictly larger score.
        labels = np.array([[1, 1, 1], [2, 2, 2]])
        confidences = np.array([[0.3, 0.3, 0.3], [0.3 + 2e-13, 0.3, 0.3]])
        rows = [np.full(N_CLASSES, 0.2), np.full(N_CLASSES, 0.2)]
        kernel, engine, _, _ = _lockstep(
            _all_on_recall(2),
            rows,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: slot == node,
        )
        assert kernel == engine == [1, 2, 2]

    def test_equally_fresh_tie_goes_to_lowest_label(self):
        # Both nodes finish the same window: the scores differ by less
        # than 1e-12 and the freshness ties, so the lower label wins.
        labels = np.array([[3, 3], [1, 1]])
        confidences = np.array([[0.4 + 3e-13, 0.4], [0.4, 0.4]])
        rows = [np.full(N_CLASSES, 0.1), np.full(N_CLASSES, 0.1)]
        kernel, engine, _, _ = _lockstep(
            _all_on_recall(2),
            rows,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: True,
        )
        assert kernel == engine == [1, 1]


class TestVoteOrder:
    def test_same_label_votes_sum_in_first_report_order(self):
        # Three nodes vote label 0 with large weights whose float sum
        # depends on the order; node 3 votes 4 with exactly the
        # first-report-order sum.  Summed in first-report order (nodes
        # 2, 0, 1) the labels tie and node 3's fresher vote wins; summed
        # in node order label 0 would lead by more than 1e-12.
        priors = [88100.11305349502, 38244.74679244825, 96279.34837676096]
        weights = [0.5 * p for p in priors]
        reported = (weights[2] + weights[0]) + weights[1]
        node_order = (weights[0] + weights[1]) + weights[2]
        assert node_order - reported > 1e-12
        rows = [np.full(N_CLASSES, p) for p in priors] + [np.full(N_CLASSES, 2 * reported)]
        labels = np.array([[0] * 4, [0] * 4, [0] * 4, [4] * 4])
        confidences = np.zeros((4, 4))
        first_slot = {2: 0, 0: 1, 1: 2, 3: 3}
        kernel, engine, _, _ = _lockstep(
            _all_on_recall(4),
            rows,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: first_slot[node] == slot,
        )
        assert kernel == engine == [0, 0, 0, 4]


    def test_first_reports_in_one_slot_each_keep_an_entry(self):
        # All three nodes report first in slot 0: two say 2, one says 1
        # with a larger single weight that the pair still outweighs.
        labels = np.array([[2, 2], [2, 2], [1, 1]])
        confidences = np.array([[0.2, 0.2], [0.2, 0.2], [0.3, 0.3]])
        kernel, engine, _, _ = _lockstep(
            _all_on_recall(3),
            [np.full(N_CLASSES, 0.2)] * 3,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: slot == 0,
        )
        assert kernel == engine == [2, 2]


class TestNormalizedMatrix:
    @pytest.mark.parametrize(
        "policy", [origin_policy(3), origin_policy(3, adaptive=False)], ids=["adaptive", "static"]
    )
    def test_normalized_origin(self, policy):
        rng = np.random.default_rng(5)
        n_slots = 48
        labels = rng.integers(0, N_CLASSES, size=(3, n_slots))
        confidences = rng.uniform(0.0, 0.2, size=(3, n_slots))
        rows = [rng.uniform(0.01, 0.3, size=N_CLASSES) for _ in range(3)]
        rows[1][:] = 0.0  # a zero-mean row weighs every vote 1.0
        kernel, engine, kernel_matrix, engine_matrix = _lockstep(
            policy,
            rows,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: (slot * 7 + node) % 3 != 0,
            ready=lambda slot, node: (slot + node) % 4 != 0,
            normalize=True,
            alpha=0.3,
        )
        assert kernel == engine
        assert (engine_matrix.updates > 0) == policy.adaptive_confidence
        _assert_same_matrices(kernel_matrix, engine_matrix)


class TestRecallExpiry:
    def test_expired_vote_leaves_no_decision_and_aas_follows_the_report(self):
        # RR4 AASR over four nodes, recall expiring after one slot: node
        # 2 finishes at slot 2 a window sensed at slot 0, so the vote is
        # empty (final None).  AAS must still anticipate the reported
        # label 4 and, at slot 3, pick that label's best rested node (0)
        # instead of the round-robin owner (3).
        labels = np.full((4, 8), 4)
        confidences = np.full((4, 8), 0.1)
        kernel, engine, _, _ = _lockstep(
            aasr_policy(4),
            [np.full(N_CLASSES, 0.1)] * 4,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: slot == 2,
            started=lambda slot, node: 0 if slot == 2 else slot,
            max_recall_age_slots=1,
        )
        assert kernel == engine
        assert engine[:4] == [None, None, None, None]


class TestLockstepLadder:
    @pytest.mark.parametrize(
        "policy", [rr_policy(3), aasr_policy(6), origin_policy(9), origin_policy(3)]
    )
    def test_random_reports(self, policy):
        rng = np.random.default_rng(11)
        n_slots = 60
        labels = rng.integers(0, N_CLASSES, size=(3, n_slots))
        confidences = rng.uniform(0.0, 0.25, size=(3, n_slots))
        rows = [rng.uniform(0.01, 0.3, size=N_CLASSES) for _ in range(3)]
        kernel, engine, kernel_matrix, engine_matrix = _lockstep(
            policy,
            rows,
            labels=labels,
            confidences=confidences,
            completes=lambda slot, node: (slot + 2 * node) % 5 < 3,
            started=lambda slot, node: max(slot - (slot + node) % 3, 0),
            ready=lambda slot, node: (slot * node) % 3 != 1,
            alpha=0.05,
            max_recall_age_slots=7,
        )
        assert kernel == engine
        _assert_same_matrices(kernel_matrix, engine_matrix)


class TestNoLaneForm:
    def _kernel(self, runs, n_nodes=3):
        return DecisionKernel(
            runs,
            list(range(n_nodes)),
            _rank_table(n_nodes),
            predicted=np.zeros((1, n_nodes, 4), dtype=np.int64),
            confidences=np.zeros((1, n_nodes, 4)),
            comm_cost_j=np.zeros(n_nodes * len(runs)),
            n_slots=4,
        )

    def test_unknown_scheduler_raises(self):
        class Custom(PolicySpec):
            def make_scheduler(self, node_ids, rank_table):
                from repro.core.scheduling.naive import NaiveAllOn

                class Subclassed(NaiveAllOn):
                    pass

                return Subclassed(node_ids)

        spec = Custom("custom", 3, False, AggregationMode.LAST_INFERENCE)
        matrix = ConfidenceMatrix({k: np.ones(N_CLASSES) for k in range(3)})
        with pytest.raises(SimulationError, match="no lane form"):
            self._kernel([LaneRun(policy=spec, confidence=matrix, material=0)])

    def test_shared_adapting_matrix_raises(self):
        matrix = ConfidenceMatrix({k: np.ones(N_CLASSES) for k in range(3)})
        runs = [
            LaneRun(policy=origin_policy(3), confidence=matrix, material=0, write_back=True)
            for _ in range(2)
        ]
        with pytest.raises(ConfigurationError, match="only one run"):
            self._kernel(runs)


# ---------------------------------------------------------------------------
# differential: run_group_batch against the scalar loop, generated batches
# ---------------------------------------------------------------------------

LADDER = (
    [factory(n) for factory in (rr_policy, aas_policy, aasr_policy, origin_policy)
     for n in (3, 6, 9, 12)]
    + [naive_policy(3), origin_policy(6, adaptive=False), origin_policy(12, adaptive=False)]
)


@st.composite
def _batches(draw):
    """Groups of (policies, seed, config, matrix recipes) sharing n_windows."""
    n_windows = draw(st.integers(min_value=8, max_value=40))
    groups = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        policies = draw(st.lists(st.sampled_from(LADDER), min_size=1, max_size=4))
        config = SimulationConfig(
            n_windows=n_windows,
            max_recall_age_slots=draw(st.one_of(st.none(), st.integers(1, 12))),
            capacitor_capacity_j=draw(st.sampled_from([60e-6, 100e-6, 200e-6])),
            volatile=draw(st.booleans()),
        )
        matrices = [
            draw(
                st.one_of(
                    st.none(),
                    st.tuples(st.sampled_from([0.0, 0.05, 0.4]), st.booleans()),
                )
            )
            for _ in policies
        ]
        groups.append((policies, draw(st.integers(0, 40)), config, matrices))
    return groups


def _supplied(base: ConfidenceMatrix, recipe):
    """A caller-owned matrix from ``(alpha, normalize)`` (or ``None``)."""
    if recipe is None:
        return None
    alpha, normalize = recipe
    return ConfidenceMatrix(
        {node_id: base.row(node_id) for node_id in base.node_ids},
        adaptation_alpha=alpha,
        normalize=normalize,
    )


class TestGroupBatchDifferential:
    @given(batch=_batches())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_group_batch_matches_scalar_runs(self, tiny_experiment, batch):
        base = tiny_experiment.bundle.confidence_matrix
        groups, oracle_matrices = [], []
        for policies, seed, config, recipes in batch:
            batch_matrices = [_supplied(base, recipe) for recipe in recipes]
            oracle_matrices.append([_supplied(base, recipe) for recipe in recipes])
            groups.append(
                BatchGroup(
                    policies=policies,
                    seed=seed,
                    config=config,
                    confidence_matrices=batch_matrices,
                )
            )
        results = run_group_batch(tiny_experiment, groups)

        for group, rows, matrices in zip(groups, results, oracle_matrices):
            solo = copy.copy(tiny_experiment)
            solo.config = group.config
            for spec, fast, supplied, matrix in zip(
                group.policies, rows, group.confidence_matrices, matrices
            ):
                slow = solo.run(spec, seed=group.seed, confidence_matrix=matrix, kernel=False)
                assert fast.policy_name == slow.policy_name
                assert fast.records == slow.records
                assert fast.node_stats == slow.node_stats
                assert fast.comm_energy_j == slow.comm_energy_j
                assert fast.confidence_updates == slow.confidence_updates
                if matrix is not None:
                    _assert_same_matrices(supplied, matrix)
