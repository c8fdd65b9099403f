"""Unit tests for ``repro.resilience``: the supervised pool, the sweep
journal (exact payload round-trips, torn tails, fingerprints), the
chaos plan, the degradation report and the journal CLI.

Sweep-level integration (chaos byte-identity, resume, salvage) lives in
``test_resilience_sweep.py``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.policies import origin_policy, rr_policy
from repro.errors import ConfigurationError, ResilienceError
from repro.faults import FaultPlan
from repro.resilience import (
    ChaosAction,
    ChaosPlan,
    DegradationReport,
    FailedCell,
    SupervisedPool,
    SupervisedTask,
    SweepJournal,
    baseline_cell,
    decode_baseline_result,
    decode_experiment_result,
    encode_baseline_result,
    encode_experiment_result,
    policy_cell,
    sweep_fingerprint,
)
from repro.resilience.__main__ import main as journal_cli
from repro.sim.baselines import BaselineResult
from repro.sim.experiment import HARExperiment, SimulationConfig
from repro.sim.results import SlotRecord


# ---------------------------------------------------------------------------
# pool worker functions (module level so they pickle)
# ---------------------------------------------------------------------------


def _work(value, mode="ok", sleep_s=0.0):
    if mode == "crash":
        os._exit(139)
    if mode == "raise":
        raise ValueError(f"boom:{value}")
    if sleep_s:
        time.sleep(sleep_s)
    return value * 2


def _crash_then_ok(attempt, value=7):
    return (value, "crash" if attempt == 0 else "ok")


def _hang_then_ok(attempt, value=3, hang_s=30.0):
    return (value, "ok", hang_s if attempt == 0 else 0.0)


class TestSupervisedPool:
    def test_clean_run_in_task_order(self):
        pool = SupervisedPool(2, backoff_s=0.0)
        outcomes = pool.run([SupervisedTask(fn=_work, args=(v,)) for v in range(5)])
        assert [o.index for o in outcomes] == list(range(5))
        assert [o.result for o in outcomes] == [0, 2, 4, 6, 8]
        assert all(o.ok and o.attempts == 1 and not o.retried for o in outcomes)
        assert not any(pool.stats.values())

    def test_crash_is_retried(self):
        pool = SupervisedPool(2, max_retries=2, backoff_s=0.01)
        outcomes = pool.run(
            [
                SupervisedTask(fn=_work, args=(1,)),
                SupervisedTask(fn=_work, args_for_attempt=_crash_then_ok),
            ]
        )
        assert outcomes[0].ok and outcomes[0].result == 2
        assert outcomes[1].ok and outcomes[1].result == 14
        assert outcomes[1].retried and "crashed" in outcomes[1].failures[0]
        assert pool.stats["crashes"] >= 1
        assert pool.stats["pool_restarts"] >= 1
        assert pool.stats["giveups"] == 0

    def test_hang_times_out_and_innocent_requeues(self):
        # task0 hangs on attempt 0; task1 finishes at ~0.75s, freeing a
        # slot for task2 (2.5s, so its own deadline is ~3.25s).  When
        # task0 expires at 3.0s, task2 is mid-flight but within ITS
        # deadline — so it must requeue uncharged and rerun clean.
        pool = SupervisedPool(2, task_timeout_s=3.0, max_retries=1, backoff_s=0.0)
        outcomes = pool.run(
            [
                SupervisedTask(fn=_work, args_for_attempt=_hang_then_ok, label="hang"),
                SupervisedTask(fn=_work, args=(1, "ok", 0.75)),
                SupervisedTask(fn=_work, args=(2, "ok", 2.5)),
            ]
        )
        assert all(o.ok for o in outcomes)
        assert [o.result for o in outcomes] == [6, 2, 4]
        assert outcomes[0].attempts == 2
        assert "timed out" in outcomes[0].failures[0]
        assert outcomes[2].attempts == 1  # requeued, never charged
        assert pool.stats["timeouts"] == 1
        assert pool.stats["requeued"] == 1
        assert pool.stats["pool_restarts"] == 1

    def test_retries_exhaust_into_failed_outcome(self):
        seen = []
        pool = SupervisedPool(1, max_retries=1, backoff_s=0.0)
        outcomes = pool.run(
            [SupervisedTask(fn=_work, args=(9, "raise"))],
            on_outcome=seen.append,
        )
        outcome = outcomes[0]
        assert not outcome.ok and outcome.attempts == 2
        assert outcome.failures == ["ValueError: boom:9", "ValueError: boom:9"]
        assert outcome.cause == "ValueError: boom:9"
        assert pool.stats["task_errors"] == 2
        assert pool.stats["retries"] == 1
        assert pool.stats["giveups"] == 1
        assert seen == [outcome]  # terminal callback fired exactly once

    def test_no_orphan_workers_after_run(self):
        pool = SupervisedPool(2, max_retries=1, backoff_s=0.01)
        pool.run(
            [
                SupervisedTask(fn=_work, args=(1,)),
                SupervisedTask(fn=_work, args_for_attempt=_crash_then_ok),
            ]
        )
        assert multiprocessing.active_children() == []

    def test_exception_in_callback_kills_pool(self):
        def explode(outcome):
            raise RuntimeError("callback bug")

        pool = SupervisedPool(2, backoff_s=0.0)
        with pytest.raises(RuntimeError, match="callback bug"):
            pool.run(
                [SupervisedTask(fn=_work, args=(v, "ok", 0.2)) for v in range(6)],
                on_outcome=explode,
            )
        assert multiprocessing.active_children() == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisedPool(0)
        with pytest.raises(ConfigurationError):
            SupervisedPool(1, max_retries=-1)
        with pytest.raises(ConfigurationError):
            SupervisedPool(1, task_timeout_s=0.0)

    def test_empty_task_list(self):
        assert SupervisedPool(1).run([]) == []


# ---------------------------------------------------------------------------
# chaos plans
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_action_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosAction(kind="meteor")
        with pytest.raises(ConfigurationError):
            ChaosAction(kind="crash", on_attempt=-1)
        with pytest.raises(ConfigurationError):
            ChaosAction(kind="drop_store_entry")  # needs a store_key

    def test_action_fires_only_on_its_attempt(self):
        plan = ChaosPlan(actions={2: ChaosAction(kind="crash", on_attempt=1)})
        assert plan.action_for(2, 0) is None
        assert plan.action_for(2, 1).kind == "crash"
        assert plan.action_for(0, 1) is None
        assert not plan.empty
        assert ChaosPlan().empty

    def test_for_units_is_deterministic_and_kills_at_least_one(self):
        a = ChaosPlan.for_units(10, crash_fraction=0.3, hang_units=1, seed=4)
        b = ChaosPlan.for_units(10, crash_fraction=0.3, hang_units=1, seed=4)
        assert a.actions == b.actions
        kinds = [action.kind for action in a.actions.values()]
        assert kinds.count("crash") == 3 and kinds.count("hang") == 1
        tiny = ChaosPlan.for_units(4, crash_fraction=0.01)
        assert sum(1 for x in tiny.actions.values() if x.kind == "crash") == 1
        with pytest.raises(ConfigurationError):
            ChaosPlan.for_units(4, crash_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPlan.for_units(4, hang_units=-1)


# ---------------------------------------------------------------------------
# exact payload round-trips
# ---------------------------------------------------------------------------


def _json_roundtrip(document):
    """Through the same serialization the journal file uses."""
    return json.loads(json.dumps(document, sort_keys=True))


#: One journal cell line written by the codec while results were still
#: lists of ``SlotRecord`` objects.  A journal written then must resume
#: unchanged.
GOLDEN_CELL_LINE = (
    '{"cell": "policy:Origin-12:abc:seed=3", "kind": "cell", "payload": {"a'
    'ctivities": ["walking", "running", "cycling"], "comm_energy_j": 6e-06,'
    ' "confidence_updates": 4, "fault_stats": null, "node_stats": {"0": {"a'
    'ctive_slots": 3, "attempts_started": 2, "comm_j": 2e-06, "completions"'
    ': 1, "consumed_j": 0.000125, "failed_active_slots": 2, "harvested_j": '
    '0.00015, "leaked_j": 3e-07, "slots": 6}, "1": {"active_slots": 2, "att'
    'empts_started": 2, "comm_j": 4e-06, "completions": 2, "consumed_j": 0.'
    '0002, "failed_active_slots": 0, "harvested_j": 0.00025, "leaked_j": 1e'
    '-07, "slots": 6}, "2": {"active_slots": 0, "attempts_started": 0, "com'
    'm_j": 0.0, "completions": 0, "consumed_j": 0.0, "failed_active_slots":'
    ' 0, "harvested_j": 0.0, "leaked_j": 0.0, "slots": 0}}, "policy_name": '
    '"Origin-12", "records": [[0, 0, null, [], 0, 0, 0], [1, 0, null, [0], '
    '0, 1, 0], [2, 1, 0, [1], 1, 1, 0], [3, 1, 1, [0, 1, 2], 2, 3, 1], [4, '
    '2, 1, [2], 1, 1, 1], [5, 2, 2, [0, 2], 0, 2, 0]], "type": "experiment"'
    '}}'
)
GOLDEN_CELL = "policy:Origin-12:abc:seed=3"


class TestPayloadRoundTrip:
    def test_experiment_result_exact(self, tiny_experiment):
        run = tiny_experiment.run(
            origin_policy(3), seed=9, faults=FaultPlan.from_failures({1: 10})
        )
        decoded = decode_experiment_result(
            _json_roundtrip(encode_experiment_result(run))
        )
        assert decoded.policy_name == run.policy_name
        assert decoded.activities == run.activities
        assert decoded.records == run.records
        assert decoded.node_stats == run.node_stats
        assert decoded.comm_energy_j == run.comm_energy_j
        assert decoded.confidence_updates == run.confidence_updates
        assert decoded.fault_stats == run.fault_stats

    def test_pre_columnar_journal_line_resumes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        header = {"fingerprint": "fp", "kind": "sweep-journal", "schema_version": 1}
        path.write_text(json.dumps(header, sort_keys=True) + "\n" + GOLDEN_CELL_LINE + "\n")
        with SweepJournal.open(str(path), "fp") as journal:
            payload = journal.get(GOLDEN_CELL)
        result = decode_experiment_result(payload)
        assert result.records == [
            SlotRecord(0, 0, None, (), 0, 0),
            SlotRecord(1, 0, None, (0,), 0, 1),
            SlotRecord(2, 1, 0, (1,), 1, 1),
            SlotRecord(3, 1, 1, (0, 1, 2), 2, 3, 1),
            SlotRecord(4, 2, 1, (2,), 1, 1, 1),
            SlotRecord(5, 2, 2, (0, 2), 0, 2),
        ]
        assert result.records.node_ids == (0, 1, 2)
        assert result.total_dropped_messages == 2
        assert result.event_accuracy == 1 / 3
        # Re-encoding writes the very same cell line.
        line = json.dumps(
            {"cell": GOLDEN_CELL, "kind": "cell", "payload": encode_experiment_result(result)},
            sort_keys=True,
        )
        assert line == GOLDEN_CELL_LINE

    def test_baseline_result_exact(self, tiny_experiment):
        result = BaselineResult(
            baseline_name="Baseline-1",
            activities=list(tiny_experiment.dataset.spec.activities),
            true_labels=np.array([0, 1, 2, 1], dtype=np.int64),
            predicted_labels=np.array([0, 1, 1, 1], dtype=np.int64),
        )
        decoded = decode_baseline_result(
            _json_roundtrip(encode_baseline_result(result))
        )
        assert decoded.baseline_name == result.baseline_name
        assert decoded.activities == result.activities
        np.testing.assert_array_equal(decoded.true_labels, result.true_labels)
        np.testing.assert_array_equal(
            decoded.predicted_labels, result.predicted_labels
        )
        assert decoded.true_labels.dtype == np.int64


# ---------------------------------------------------------------------------
# fingerprints and cell keys
# ---------------------------------------------------------------------------


class TestKeys:
    def test_fingerprint_tracks_config(self, tiny_dataset, tiny_bundle):
        a = HARExperiment(
            tiny_dataset, tiny_bundle, config=SimulationConfig(n_windows=60), seed=3
        )
        b = HARExperiment(
            tiny_dataset, tiny_bundle, config=SimulationConfig(n_windows=60), seed=3
        )
        c = HARExperiment(
            tiny_dataset, tiny_bundle, config=SimulationConfig(n_windows=61), seed=3
        )
        assert sweep_fingerprint(a) == sweep_fingerprint(b)
        assert sweep_fingerprint(a) != sweep_fingerprint(c)

    def test_policy_cell_keys_on_spec_fields_not_name(self):
        spec = rr_policy(3)
        twin = dataclasses.replace(spec, rr_length=6)  # same name field order
        assert policy_cell(spec, 5) != policy_cell(spec, 6)
        assert policy_cell(spec, 5) != policy_cell(twin, 5)
        assert policy_cell(spec, 5) == policy_cell(dataclasses.replace(spec), 5)
        assert baseline_cell("Baseline-1", 5) == "baseline:Baseline-1:seed=5"


# ---------------------------------------------------------------------------
# the journal file
# ---------------------------------------------------------------------------


class TestSweepJournal:
    def test_record_and_resume(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, "fp-1") as journal:
            journal.record("cell-a", {"x": 1.5})
            journal.record("cell-b", {"x": [1, 2]})
            journal.record("cell-a", {"x": 999})  # duplicate: first wins
            assert len(journal) == 2
        reopened = SweepJournal.open(path, "fp-1")
        assert reopened.cells == ["cell-a", "cell-b"]
        assert reopened.get("cell-a") == {"x": 1.5}
        assert "cell-b" in reopened and "cell-c" not in reopened
        reopened.close()
        with pytest.raises(ResilienceError, match="closed"):
            reopened.record("cell-c", {})

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        SweepJournal.open(path, "fp-1").close()
        with pytest.raises(ResilienceError, match="different sweep"):
            SweepJournal.open(path, "fp-2")
        # resume=False replaces the journal instead.
        fresh = SweepJournal.open(path, "fp-2", resume=False)
        assert len(fresh) == 0
        fresh.close()
        SweepJournal.open(path, "fp-2").close()

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, "fp-1") as journal:
            journal.record("cell-a", {"x": 1})
        with open(path, "a") as handle:
            handle.write('{"kind": "cell", "cell": "cell-b", "payl')  # no newline
        size_before = os.path.getsize(path)
        reopened = SweepJournal.open(path, "fp-1")
        assert reopened.cells == ["cell-a"]
        assert os.path.getsize(path) < size_before
        # The truncated journal stays appendable.
        reopened.record("cell-b", {"x": 2})
        reopened.close()
        assert SweepJournal.open(path, "fp-1").cells == ["cell-a", "cell-b"]

    def test_not_a_journal_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "something-else"}\n')
        with pytest.raises(ResilienceError, match="not a schema"):
            SweepJournal.open(path, "fp-1")


# ---------------------------------------------------------------------------
# degradation report
# ---------------------------------------------------------------------------


class TestDegradationReport:
    def test_accounting_and_summary(self):
        report = DegradationReport(
            total_cells=8,
            failed=[
                FailedCell(cell="policy:A:seed=1", seed=1, attempts=3,
                           cause="timed out", policy="A"),
                FailedCell(cell="policy:B:seed=1", seed=1, attempts=3,
                           cause="timed out", policy="B"),
            ],
            retries=4,
            timeouts=2,
            crashes=1,
            pool_restarts=2,
        )
        assert report.completed_cells == 6
        assert report.failed_cells == 2
        assert not report.complete
        assert report.causes() == {"timed out": 2}
        text = report.summary()
        assert "6/8" in text and "policy:A:seed=1" in text
        assert DegradationReport(total_cells=3, retries=1).complete


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestJournalCli:
    def test_info_and_cells(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal.open(path, "fp-cli") as journal:
            journal.record("policy:RR3:abc:seed=1", {"x": 1})
            journal.record("baseline:Baseline-1:seed=1", {"x": 2})
        assert journal_cli(["info", path]) == 0
        out = capsys.readouterr().out
        assert "fp-cli" in out and "cells        : 2" in out
        assert "policy" in out and "baseline" in out
        assert journal_cli(["cells", path]) == 0
        out = capsys.readouterr().out
        assert "policy:RR3:abc:seed=1" in out

    def test_rejects_non_journal(self, tmp_path):
        path = str(tmp_path / "nope.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "other"}\n')
        with pytest.raises(ResilienceError):
            journal_cli(["info", path])
