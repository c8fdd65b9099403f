"""Columnar run results (``repro.sim.results.SlotTable``).

The metric oracle below is the list-based ``ExperimentResult`` metric
code as it stood before results became columnar, copied verbatim; the
column metrics must agree with it bit for bit on any run, including
empty runs and runs with no classification event.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.activities import Activity
from repro.errors import SimulationError
from repro.sim.results import CompletionBreakdown, ExperimentResult, SlotRecord, SlotTable

ACTIVITIES = [Activity.WALKING, Activity.CLIMBING, Activity.CYCLING]
NODES = (0, 1, 2)


# ---------------------------------------------------------------------------
# the list-based metrics (verbatim, over a plain list of records)
# ---------------------------------------------------------------------------


class ListResult:
    def __init__(self, records: List[SlotRecord], activities: List[Activity]):
        self.records = records
        self.activities = activities

    def true_labels(self) -> np.ndarray:
        """Ground-truth label per slot."""
        return np.array([record.true_label for record in self.records], dtype=np.int64)

    def predicted_labels(self) -> np.ndarray:
        """System output per slot; -1 where no decision existed yet."""
        return np.array(
            [
                record.predicted_label if record.predicted_label is not None else -1
                for record in self.records
            ],
            dtype=np.int64,
        )

    @property
    def overall_accuracy(self) -> float:
        if not self.records:
            raise SimulationError("no slots recorded")
        return float(np.mean([record.correct for record in self.records]))

    def per_activity_accuracy(self) -> Dict[Activity, float]:
        """Per-slot accuracy restricted to slots of each activity."""
        true = self.true_labels()
        pred = self.predicted_labels()
        report = {}
        for label, activity in enumerate(self.activities):
            mask = true == label
            report[activity] = (
                float((pred[mask] == label).mean()) if mask.any() else float("nan")
            )
        return report

    def _event_records(self) -> List[SlotRecord]:
        return [record for record in self.records if record.completions > 0]

    @property
    def n_events(self) -> int:
        """Slots in which at least one inference completed."""
        return len(self._event_records())

    @property
    def event_accuracy(self) -> float:
        events = self._event_records()
        if not events:
            return 0.0
        return float(np.mean([record.correct for record in events]))

    def per_activity_event_accuracy(self) -> Dict[Activity, float]:
        """Event accuracy restricted to each activity."""
        events = self._event_records()
        report = {}
        for label, activity in enumerate(self.activities):
            of_class = [r for r in events if r.true_label == label]
            report[activity] = (
                float(np.mean([r.correct for r in of_class]))
                if of_class
                else float("nan")
            )
        return report

    @property
    def total_attempts(self) -> int:
        """Active-slot inference attempts across all nodes."""
        return sum(record.attempts for record in self.records)

    @property
    def total_completions(self) -> int:
        """Completed inferences across all nodes."""
        return sum(record.completions for record in self.records)

    @property
    def completion_rate(self) -> float:
        """Completions per attempt slot."""
        return (
            self.total_completions / self.total_attempts if self.total_attempts else 0.0
        )

    @property
    def total_dropped_messages(self) -> int:
        """Result messages lost in transit across the run."""
        return sum(record.dropped_messages for record in self.records)

    def completion_breakdown(self) -> CompletionBreakdown:
        attempting = [record for record in self.records if record.attempts > 0]
        all_done = sum(
            1 for record in attempting if record.completions == record.attempts
        )
        some = sum(
            1
            for record in attempting
            if 0 < record.completions < record.attempts
        )
        none = sum(1 for record in attempting if record.completions == 0)
        return CompletionBreakdown(len(attempting), all_done, some, none)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def slot_records(draw, max_slots=40):
    n_slots = draw(st.integers(0, max_slots))
    # Skewed towards no-completion slots so event-free runs show up.
    no_events = draw(st.booleans())
    records = []
    for slot in range(n_slots):
        active = tuple(node for node in NODES if draw(st.booleans()))
        attempts = draw(st.integers(0, 3))
        completions = 0 if no_events else draw(st.integers(0, attempts))
        records.append(
            SlotRecord(
                slot_index=slot,
                true_label=draw(st.integers(0, len(ACTIVITIES) - 1)),
                predicted_label=draw(
                    st.one_of(st.none(), st.integers(0, len(ACTIVITIES)))
                ),
                active_nodes=active,
                completions=completions,
                attempts=attempts,
                dropped_messages=draw(st.integers(0, completions)),
            )
        )
    return records


def _same(a: float, b: float) -> bool:
    """Bit-equal floats (NaN equal to NaN)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _same_report(a: Dict[Activity, float], b: Dict[Activity, float]) -> bool:
    return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)


# ---------------------------------------------------------------------------
# metrics against the oracle
# ---------------------------------------------------------------------------


class TestColumnMetricsOracle:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(records=slot_records())
    def test_metrics_bit_equal(self, records):
        oracle = ListResult(records, ACTIVITIES)
        result = ExperimentResult(policy_name="p", activities=ACTIVITIES, records=records)
        assert isinstance(result.records, SlotTable)

        np.testing.assert_array_equal(result.true_labels(), oracle.true_labels())
        assert result.true_labels().dtype == np.int64
        np.testing.assert_array_equal(result.predicted_labels(), oracle.predicted_labels())
        assert result.predicted_labels().dtype == np.int64
        if records:
            assert _same(result.overall_accuracy, oracle.overall_accuracy)
        else:
            with pytest.raises(SimulationError):
                result.overall_accuracy
        assert _same_report(result.per_activity_accuracy(), oracle.per_activity_accuracy())
        assert result.n_events == oracle.n_events
        assert _same(result.event_accuracy, oracle.event_accuracy)
        assert _same_report(
            result.per_activity_event_accuracy(), oracle.per_activity_event_accuracy()
        )
        for name in ("total_attempts", "total_completions", "total_dropped_messages"):
            value = getattr(result, name)
            assert type(value) is int and value == getattr(oracle, name)
        assert _same(result.completion_rate, oracle.completion_rate)
        assert result.completion_breakdown() == oracle.completion_breakdown()

    def test_breakdown_that_does_not_add_up_raises_in_both(self):
        records = [SlotRecord(0, 0, 0, (0,), 2, 1)]  # more completions than attempts
        with pytest.raises(SimulationError):
            ListResult(records, ACTIVITIES).completion_breakdown()
        with pytest.raises(SimulationError):
            ExperimentResult("p", ACTIVITIES, records=records).completion_breakdown()


# ---------------------------------------------------------------------------
# the sequence contract
# ---------------------------------------------------------------------------


class TestSequenceContract:
    @settings(max_examples=80, deadline=None)
    @given(records=slot_records(), data=st.data())
    def test_round_trips(self, records, data):
        table = SlotTable(records)
        assert len(table) == len(records)
        assert list(table) == records
        assert table == records and records == table
        assert (table == SlotTable(records)) is True
        assert (table != SlotTable(records)) is False

        start = data.draw(st.integers(-len(records) - 2, len(records) + 2))
        stop = data.draw(st.integers(-len(records) - 2, len(records) + 2))
        step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
        part = table[start:stop:step]
        assert isinstance(part, SlotTable)
        assert list(part) == records[start:stop:step]
        for index in range(-len(records), len(records)):
            assert table[index] == records[index]

        assert pickle.loads(pickle.dumps(table)) == table
        assert copy.deepcopy(table) == table

        split = data.draw(st.integers(0, len(records)))
        joined = table[:split]
        joined.extend(table[split:])
        assert joined == table
        grown = SlotTable()
        for record in records[:split]:
            grown.append(record)
        grown.extend(records[split:])
        assert grown == table

    def test_records_are_plain_python(self):
        table = SlotTable([SlotRecord(0, 1, None, (0, 2), 1, 2, 1)], node_ids=NODES)
        record = table[0]
        assert record == SlotRecord(0, 1, None, (0, 2), 1, 2, 1)
        for value in (
            record.slot_index,
            record.true_label,
            record.completions,
            record.attempts,
            record.dropped_messages,
            *record.active_nodes,
        ):
            assert type(value) is int
        assert type(record.active_nodes) is tuple
        table.append(SlotRecord(1, 1, 2, (), 0, 0))
        assert type(table[1].predicted_label) is int

    def test_index_errors(self):
        table = SlotTable([SlotRecord(0, 1, None, (), 0, 0)])
        with pytest.raises(IndexError):
            table[1]
        with pytest.raises(IndexError):
            table[-2]
        with pytest.raises(TypeError):
            table["0"]

    def test_inequality(self):
        base = [SlotRecord(0, 1, None, (0,), 1, 1), SlotRecord(1, 1, 1, (1,), 1, 1)]
        table = SlotTable(base)
        assert table != SlotTable(base[:1])
        assert table != SlotTable([base[0], dataclasses.replace(base[1], active_nodes=(2,))])
        assert table != SlotTable([base[0], dataclasses.replace(base[1], predicted_label=None)])
        assert table != base[:1]
        assert (table == 3) is False

    def test_node_order_is_enforced(self):
        table = SlotTable(node_ids=NODES)
        table.append_row(0, 0, None, (0, 2), 0, 2)
        with pytest.raises(SimulationError, match="node order"):
            table.append_row(1, 0, None, (2, 0), 0, 2)
        assert len(table) == 1

    def test_unseen_nodes_keep_ascending_order(self):
        records = [
            SlotRecord(0, 0, None, (5,), 0, 1),
            SlotRecord(1, 0, None, (1, 5), 0, 2),
            SlotRecord(2, 0, None, (0, 1, 5), 0, 3),
        ]
        table = SlotTable(records)
        assert table.node_ids == (0, 1, 5)
        assert list(table) == records
        assert table.active_mask.tolist() == [4, 6, 7]

    def test_orders_that_differ_compare_by_record(self):
        records = [SlotRecord(0, 0, None, (1,), 0, 1), SlotRecord(1, 0, 0, (0,), 1, 1)]
        assert SlotTable(records, node_ids=(1, 0)) == SlotTable(records, node_ids=(0, 1))

    def test_negative_predicted_label_rejected(self):
        with pytest.raises(SimulationError):
            SlotTable([SlotRecord(0, 0, -1, (), 0, 0)])

    def test_result_coerces_record_lists(self):
        records = [SlotRecord(0, 0, 0, (0,), 1, 1)]
        result = ExperimentResult("p", ACTIVITIES, records=records)
        assert isinstance(result.records, SlotTable) and result.records == records
        result.records = records + records
        assert isinstance(result.records, SlotTable) and result.n_slots == 2
        sliced = dataclasses.replace(result, records=result.records[1:])
        assert isinstance(sliced.records, SlotTable) and sliced.n_slots == 1
        assert result == copy.deepcopy(result)
        assert pickle.loads(pickle.dumps(result)) == result
        assert ExperimentResult("p", ACTIVITIES).records == []

    def test_columns(self):
        table = SlotTable(
            [SlotRecord(3, 2, None, (0, 1), 1, 2, 1), SlotRecord(4, 1, 0, (2,), 0, 1)],
            node_ids=NODES,
        )
        assert table.slot_index.tolist() == [3, 4]
        assert table.true_label.tolist() == [2, 1]
        assert table.predicted_label.tolist() == [-1, 0]
        assert table.active_mask.tolist() == [3, 4]
        assert table.completions.tolist() == [1, 0]
        assert table.attempts.tolist() == [2, 1]
        assert table.dropped_messages.tolist() == [1, 0]
        assert all(
            column.dtype == np.int64
            for column in (table.slot_index, table.active_mask, table.attempts)
        )
        assert math.isclose(
            ExperimentResult("p", ACTIVITIES, records=table).completion_rate, 1 / 3
        )
