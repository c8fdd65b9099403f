"""Result containers for the slot-by-slot simulation.

A run's per-slot outcomes live in a :class:`SlotTable`: one int64 column
per :class:`SlotRecord` field, with the active set stored as a bitmask
over node positions.  The kernel writes whole columns from its decision
histories, the scalar loop appends one row per slot, and every
:class:`ExperimentResult` metric is a numpy reduction over the columns.
Reading the table as a sequence still yields :class:`SlotRecord` values,
so code that iterates, indexes or compares records is unchanged.
"""

from __future__ import annotations

import bisect
import operator
from collections import abc
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.datasets.activities import Activity
from repro.errors import SimulationError
from repro.faults.stats import FaultStats
from repro.wsn.node import NodeStats


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one scheduling slot.

    ``dropped_messages`` counts completed inferences whose result
    message was lost in transit this slot (always 0 without link
    faults).
    """

    slot_index: int
    true_label: int
    predicted_label: Optional[int]
    active_nodes: tuple
    completions: int
    attempts: int
    dropped_messages: int = 0

    @property
    def correct(self) -> bool:
        """Whether the system's output matched the true activity."""
        return self.predicted_label == self.true_label


# Row order of a SlotTable's (n_columns, capacity) int64 block.
_SLOT, _TRUE, _PREDICTED, _ACTIVE, _COMPLETIONS, _ATTEMPTS, _DROPPED = range(7)
_N_COLUMNS = 7
#: Node positions an int64 bitmask can hold.
_MAX_NODES = 62


class _NodeOrder:
    """Node ids by bit position, shared by tables until one adds a node.

    Never mutated once a table holds it except for the ``patterns``
    cache (mask -> node-id tuple), whose entries stay valid for every
    holder; adding a node builds a new instance.
    """

    __slots__ = ("ids", "position", "patterns")

    def __init__(self, ids: Sequence[int]) -> None:
        self.ids = tuple(int(node_id) for node_id in ids)
        if len(set(self.ids)) != len(self.ids):
            raise SimulationError(f"duplicate node ids in {self.ids}")
        if len(self.ids) > _MAX_NODES:
            raise SimulationError(f"a slot table holds at most {_MAX_NODES} nodes")
        self.position = {node_id: k for k, node_id in enumerate(self.ids)}
        self.patterns: Dict[int, tuple] = {}

    def nodes_of(self, mask: int) -> tuple:
        nodes = self.patterns.get(mask)
        if nodes is None:
            nodes = tuple(
                node_id for k, node_id in enumerate(self.ids) if mask >> k & 1
            )
            self.patterns[mask] = nodes
        return nodes

    def agrees(self, other: "_NodeOrder") -> bool:
        """Whether one order is a prefix of the other, so that a bitmask
        names the same nodes under both."""
        shorter = min(len(self.ids), len(other.ids))
        return self.ids[:shorter] == other.ids[:shorter]


def _column(row: int) -> property:
    """One column over a table's filled rows, as a view (callers only read it)."""
    return property(lambda table: table._data[row, : table._n])


class SlotTable(abc.Sequence):
    """One run's per-slot outcomes as int64 columns.

    Columns: :attr:`slot_index`, :attr:`true_label`,
    :attr:`predicted_label` (``-1`` = no decision yet),
    :attr:`active_mask` (bit ``k`` = the ``k``-th id of
    :attr:`node_ids`), :attr:`completions`, :attr:`attempts` and
    :attr:`dropped_messages`.  The column properties are views of the
    table's storage; treat them as read-only.

    As a sequence the table reads back :class:`SlotRecord` values with
    plain Python ints and ``active_nodes`` in node order; slicing gives
    a new table, and ``==`` compares record by record (against another
    table or any sequence of records).  Rows are added with
    :meth:`append`, :meth:`append_row` or :meth:`extend`.  An active
    set must list its nodes in the table's node order — the order every
    scheduler emits — because the bitmask cannot store any other; a
    table given no ``node_ids`` keeps its nodes in ascending id order.
    """

    __slots__ = ("_data", "_n", "_nodes")
    __hash__ = None  # mutable

    def __init__(
        self, records: Iterable[SlotRecord] = (), *, node_ids: Sequence[int] = ()
    ) -> None:
        self._data = np.empty((_N_COLUMNS, 0), dtype=np.int64)
        self._n = 0
        self._nodes = _NodeOrder(node_ids)
        self.extend(records)

    @classmethod
    def _wrap(cls, data: np.ndarray, nodes: _NodeOrder) -> "SlotTable":
        """A table over ``data`` (``(7, n)`` int64, not copied)."""
        table = cls.__new__(cls)
        table._data = data
        table._n = data.shape[1]
        table._nodes = nodes
        return table

    @classmethod
    def from_runs(cls, block: np.ndarray, node_ids: Sequence[int]) -> List["SlotTable"]:
        """One table per run of a ``(n_runs, 7, n_slots)`` int64 block.

        The tables are views of ``block`` and share one node order.
        """
        nodes = _NodeOrder(node_ids)
        return [cls._wrap(run, nodes) for run in block]

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> tuple:
        """Node id of each bit position of :attr:`active_mask`."""
        return self._nodes.ids

    slot_index = _column(_SLOT)
    true_label = _column(_TRUE)
    #: System output per slot; ``-1`` where no decision existed yet.
    predicted_label = _column(_PREDICTED)
    active_mask = _column(_ACTIVE)
    completions = _column(_COMPLETIONS)
    attempts = _column(_ATTEMPTS)
    dropped_messages = _column(_DROPPED)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _add_node(self, node_id: int) -> None:
        """Give an unseen node a bit position.

        An ascending order stays ascending (higher bits of the stored
        masks shift up to make room); any other order gains the node
        at its end.
        """
        ids = self._nodes.ids
        k = bisect.bisect(ids, node_id) if list(ids) == sorted(ids) else len(ids)
        if k < len(ids):
            masks = self._data[_ACTIVE, : self._n]
            masks[:] = (masks & ((1 << k) - 1)) | ((masks >> k) << (k + 1))
        self._nodes = _NodeOrder(ids[:k] + (node_id,) + ids[k:])

    def _mask_of(self, active_nodes: Sequence[int]) -> int:
        for node_id in active_nodes:
            if node_id not in self._nodes.position:
                self._add_node(int(node_id))
        position = self._nodes.position
        mask = 0
        last = -1
        for node_id in active_nodes:
            k = position[node_id]
            if k <= last:
                raise SimulationError(
                    f"active set {tuple(active_nodes)} is not in node order "
                    f"{self._nodes.ids}"
                )
            mask |= 1 << k
            last = k
        return mask

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        capacity = self._data.shape[1]
        if needed > capacity:
            grown = np.empty((_N_COLUMNS, max(needed, 2 * capacity, 16)), dtype=np.int64)
            grown[:, : self._n] = self._data[:, : self._n]
            self._data = grown

    def append_row(
        self,
        slot_index: int,
        true_label: int,
        predicted_label: Optional[int],
        active_nodes: Sequence[int],
        completions: int,
        attempts: int,
        dropped_messages: int = 0,
    ) -> None:
        """Append one slot's outcome, field by field."""
        if predicted_label is None:
            predicted_label = -1
        elif predicted_label < 0:
            raise SimulationError(f"predicted label {predicted_label} is negative")
        mask = self._mask_of(active_nodes)
        self._reserve(1)
        self._data[:, self._n] = (
            slot_index,
            true_label,
            predicted_label,
            mask,
            completions,
            attempts,
            dropped_messages,
        )
        self._n += 1

    def append(self, record: SlotRecord) -> None:
        """Append one :class:`SlotRecord`."""
        self.append_row(
            record.slot_index,
            record.true_label,
            record.predicted_label,
            record.active_nodes,
            record.completions,
            record.attempts,
            record.dropped_messages,
        )

    def extend(self, records: Iterable[SlotRecord]) -> None:
        """Append every record; a table whose node order agrees copies columns."""
        if isinstance(records, SlotTable):
            if self._nodes.agrees(records._nodes):
                if len(records._nodes.ids) > len(self._nodes.ids):
                    self._nodes = records._nodes
                self._reserve(records._n)
                self._data[:, self._n : self._n + records._n] = records._data[:, : records._n]
                self._n += records._n
                return
            records = list(records)
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def _record(self, row: List[int]) -> SlotRecord:
        slot, true, predicted, mask, completions, attempts, dropped = row
        return SlotRecord(
            slot,
            true,
            None if predicted < 0 else predicted,
            self._nodes.nodes_of(mask),
            completions,
            attempts,
            dropped,
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SlotTable._wrap(self._data[:, : self._n][:, index].copy(), self._nodes)
        position = operator.index(index)
        if position < 0:
            position += self._n
        if not 0 <= position < self._n:
            raise IndexError(f"slot table index {index} out of range ({self._n} rows)")
        return self._record(self._data[:, position].tolist())

    def __iter__(self) -> Iterator[SlotRecord]:
        record = self._record
        for row in self._data[:, : self._n].T.tolist():
            yield record(row)

    def __eq__(self, other) -> bool:
        if isinstance(other, SlotTable):
            if self._n != other._n:
                return False
            if self._nodes.agrees(other._nodes):
                return bool(
                    np.array_equal(self._data[:, : self._n], other._data[:, : other._n])
                )
            return list(self) == list(other)
        if isinstance(other, abc.Sequence) and not isinstance(other, (str, bytes)):
            return len(other) == self._n and list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return (_restore_table, (self._nodes.ids, self._data[:, : self._n].copy()))

    def __repr__(self) -> str:
        return f"SlotTable({self._n} slot(s), node_ids={self._nodes.ids})"


def _restore_table(node_ids: tuple, data: np.ndarray) -> SlotTable:
    return SlotTable._wrap(data, _NodeOrder(node_ids))


@dataclass(frozen=True)
class CompletionBreakdown:
    """Fig. 1-style inference completion statistics."""

    n_slots: int
    slots_all_completed: int
    slots_some_completed: int
    slots_none_completed: int

    def __post_init__(self) -> None:
        total = (
            self.slots_all_completed
            + self.slots_some_completed
            + self.slots_none_completed
        )
        if total != self.n_slots:
            raise SimulationError(
                f"breakdown does not add up: {total} != {self.n_slots}"
            )

    @property
    def all_fraction(self) -> float:
        """Fraction of slots where every active node completed."""
        return self.slots_all_completed / self.n_slots if self.n_slots else 0.0

    @property
    def some_fraction(self) -> float:
        """Fraction where at least one (but not all) completed."""
        return self.slots_some_completed / self.n_slots if self.n_slots else 0.0

    @property
    def any_fraction(self) -> float:
        """Fraction where at least one completed."""
        return self.all_fraction + self.some_fraction

    @property
    def failed_fraction(self) -> float:
        """Fraction with no completion at all."""
        return self.slots_none_completed / self.n_slots if self.n_slots else 0.0


def _share(mask: np.ndarray) -> float:
    """``np.mean`` of a non-empty bool mask, to the bit: the count of
    ``True`` values is exact, so both are one correctly rounded division."""
    return np.count_nonzero(mask) / mask.size


@dataclass
class ExperimentResult:
    """Full outcome of one policy run.

    ``records`` is always a :class:`SlotTable`; assigning (or passing)
    any other iterable of :class:`SlotRecord` converts it.
    """

    policy_name: str
    activities: List[Activity]
    records: SlotTable = field(default_factory=SlotTable)
    node_stats: Dict[int, NodeStats] = field(default_factory=dict)
    comm_energy_j: float = 0.0
    confidence_updates: int = 0
    #: Degradation accounting, attached when a non-empty fault plan ran.
    fault_stats: Optional[FaultStats] = None

    def __setattr__(self, name: str, value) -> None:
        if name == "records" and not isinstance(value, SlotTable):
            value = SlotTable(value)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------

    @property
    def n_slots(self) -> int:
        """Simulated slot count."""
        return len(self.records)

    @property
    def n_classes(self) -> int:
        """Activity class count."""
        return len(self.activities)

    def true_labels(self) -> np.ndarray:
        """Ground-truth label per slot."""
        return self.records.true_label.copy()

    def predicted_labels(self) -> np.ndarray:
        """System output per slot; -1 where no decision existed yet."""
        return self.records.predicted_label.copy()

    def _correct(self) -> np.ndarray:
        """Per-slot correctness (a slot with no decision is wrong)."""
        return self.records.predicted_label == self.records.true_label

    @property
    def overall_accuracy(self) -> float:
        """Fraction of slots classified correctly (no-decision = wrong).

        The strict stream metric: every window counts, skipped windows
        fall back to the recalled output and transitions are penalized
        in full.
        """
        if not len(self.records):
            raise SimulationError("no slots recorded")
        return _share(self._correct())

    def per_activity_accuracy(self) -> Dict[Activity, float]:
        """Per-slot accuracy restricted to slots of each activity."""
        true = self.records.true_label
        pred = self.records.predicted_label
        report = {}
        for label, activity in enumerate(self.activities):
            mask = true == label
            report[activity] = (
                float((pred[mask] == label).mean()) if mask.any() else float("nan")
            )
        return report

    # ------------------------------------------------------------------
    # classification-event metrics (the paper's regime)
    # ------------------------------------------------------------------

    def _events(self) -> np.ndarray:
        """Slots in which at least one inference completed (a mask)."""
        return self.records.completions > 0

    @property
    def n_events(self) -> int:
        """Slots in which at least one inference completed."""
        return int(np.count_nonzero(self._events()))

    @property
    def event_accuracy(self) -> float:
        """Accuracy over classification events.

        The paper reports accuracy per classification (e.g. Fig. 6's
        "10000 successful classifications"): a window that is skipped to
        harvest costs nothing, but an inference that completes *late*
        (NVP spanning several slots) is judged against the activity at
        completion time — staleness is penalized, skipping is not.
        """
        events = self._events()
        if not events.any():
            return 0.0
        return _share(self._correct()[events])

    def per_activity_event_accuracy(self) -> Dict[Activity, float]:
        """Event accuracy restricted to each activity."""
        events = self._events()
        correct = self._correct()
        true = self.records.true_label
        report = {}
        for label, activity in enumerate(self.activities):
            of_class = events & (true == label)
            report[activity] = (
                _share(correct[of_class]) if of_class.any() else float("nan")
            )
        return report

    # ------------------------------------------------------------------

    @property
    def total_attempts(self) -> int:
        """Active-slot inference attempts across all nodes."""
        return int(self.records.attempts.sum())

    @property
    def total_completions(self) -> int:
        """Completed inferences across all nodes."""
        return int(self.records.completions.sum())

    @property
    def completion_rate(self) -> float:
        """Completions per attempt slot."""
        attempts = self.total_attempts
        return self.total_completions / attempts if attempts else 0.0

    @property
    def total_dropped_messages(self) -> int:
        """Result messages lost in transit across the run."""
        return int(self.records.dropped_messages.sum())

    # ------------------------------------------------------------------
    # graceful-degradation accounting
    # ------------------------------------------------------------------

    def degradation_vs(self, fault_free: "ExperimentResult") -> Dict[str, float]:
        """Accuracy-under-fault deltas against a fault-free run.

        Returns absolute accuracy deltas (fault-free minus faulted, so
        positive = degradation) and the retained fraction of fault-free
        event accuracy — the headline graceful-degradation number.
        """
        if fault_free.n_slots == 0 or self.n_slots == 0:
            raise SimulationError("both runs need recorded slots")
        baseline_event = fault_free.event_accuracy
        return {
            "event_accuracy_delta": baseline_event - self.event_accuracy,
            "overall_accuracy_delta": (
                fault_free.overall_accuracy - self.overall_accuracy
            ),
            "retained_event_accuracy": (
                self.event_accuracy / baseline_event if baseline_event else 0.0
            ),
        }

    def completion_breakdown(self) -> CompletionBreakdown:
        """Fig. 1-style slot breakdown over *attempting* slots.

        Slots with no active node (no-ops) are excluded — the paper's
        Fig. 1 counts inference windows.
        """
        attempts = self.records.attempts
        completions = self.records.completions
        attempting = attempts > 0
        all_done = attempting & (completions == attempts)
        some = attempting & (completions > 0) & (completions < attempts)
        none = attempting & (completions == 0)
        return CompletionBreakdown(
            int(np.count_nonzero(attempting)),
            int(np.count_nonzero(all_done)),
            int(np.count_nonzero(some)),
            int(np.count_nonzero(none)),
        )

    def summary(self) -> str:
        """One-paragraph text summary."""
        per_activity = self.per_activity_accuracy()
        lines = [
            f"{self.policy_name}: overall accuracy "
            f"{self.overall_accuracy * 100:.2f}% over {self.n_slots} slots "
            f"({self.total_completions}/{self.total_attempts} inferences completed)"
        ]
        for activity, acc in per_activity.items():
            lines.append(f"  {activity.label:<10} {acc * 100:6.2f}%")
        return "\n".join(lines)
