"""Fully-powered baseline evaluation (paper §IV-C).

Baseline-1 (unpruned DNNs) and Baseline-2 (energy-aware pruned DNNs)
both run on steady power: every sensor classifies every window and the
host takes a naive majority vote.  To compare apples to apples with the
EH policy runs, the evaluator replays the *same* Markov activity
timeline and subject that :meth:`repro.sim.experiment.HARExperiment.run`
would generate for the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.policies import BaselineSpec
from repro.sim.training import TrainedSensorBundle
from repro.datasets.activities import Activity
from repro.datasets.base import HARDataset
from repro.datasets.markov import MarkovActivityModel
from repro.datasets.subjects import SubjectProfile
from repro.datasets.synthesis import StyleWobble
from repro.errors import SimulationError
from repro.utils.rng import SeedSequenceFactory


@dataclass
class BaselineResult:
    """Outcome of one fully-powered baseline run."""

    baseline_name: str
    activities: List[Activity]
    true_labels: np.ndarray
    predicted_labels: np.ndarray

    @property
    def overall_accuracy(self) -> float:
        """Fraction of windows classified correctly."""
        return float((self.true_labels == self.predicted_labels).mean())

    def per_activity_accuracy(self) -> Dict[Activity, float]:
        """Accuracy restricted to windows of each activity."""
        report = {}
        for label, activity in enumerate(self.activities):
            mask = self.true_labels == label
            report[activity] = (
                float((self.predicted_labels[mask] == label).mean())
                if mask.any()
                else float("nan")
            )
        return report


def per_sensor_accuracy(
    dataset: HARDataset,
    bundle: TrainedSensorBundle,
    *,
    pruned: bool = True,
    windows_per_class: int = 60,
    seed: int = 0,
    subject: Optional[SubjectProfile] = None,
) -> tuple:
    """Fig. 2's data: per-location per-activity accuracy + majority vote.

    Uses a *balanced, aligned* evaluation set: ``windows_per_class``
    windows per activity, with the execution-style wobble shared across
    locations per window (all sensors observe the same instant).
    Returns ``(per_sensor, majority)`` where ``per_sensor`` maps each
    location label to ``{activity: accuracy}`` and ``majority`` is the
    naive-majority ensemble's ``{activity: accuracy}``.
    """
    factory = SeedSequenceFactory(seed)
    spec = dataset.spec
    subject = subject or (
        dataset.eval_subjects[0] if dataset.eval_subjects else SubjectProfile.canonical()
    )
    labels = [
        activity for activity in spec.activities for _ in range(windows_per_class)
    ]
    n_windows = len(labels)
    true = np.array([spec.label_of(activity) for activity in labels], dtype=np.int64)
    style_rng = factory.generator("style")
    styles = [StyleWobble.sample(style_rng) for _ in range(n_windows)]

    models = bundle.models(pruned=pruned)
    votes = {}
    per_sensor: Dict[str, Dict[Activity, float]] = {}
    for location in spec.locations:
        node_id = bundle.node_id_of(location)
        rng = factory.generator(f"windows/{location.value}")
        batch = dataset.synthesizer.batch(
            labels, location, subject=subject, seed=rng, style=styles
        )
        votes[node_id] = models[node_id].predict(batch)
        report = {}
        for label, activity in enumerate(spec.activities):
            mask = true == label
            report[activity] = (
                float((votes[node_id][mask] == label).mean()) if mask.any() else 0.0
            )
        per_sensor[location.label] = report

    stacked = np.stack([votes[bundle.node_id_of(loc)] for loc in spec.locations])
    predicted = np.array(
        [
            int(np.bincount(stacked[:, index], minlength=spec.n_classes).argmax())
            for index in range(n_windows)
        ]
    )
    majority = {}
    for label, activity in enumerate(spec.activities):
        mask = true == label
        majority[activity] = (
            float((predicted[mask] == label).mean()) if mask.any() else 0.0
        )
    return per_sensor, majority


def evaluate_baseline(
    dataset: HARDataset,
    bundle: TrainedSensorBundle,
    baseline: BaselineSpec,
    *,
    n_windows: int = 600,
    seed: int = 0,
    subject: Optional[SubjectProfile] = None,
    dwell_scale: float = 1.0,
    window_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> BaselineResult:
    """Run one baseline over a simulated activity timeline.

    Uses the same seed-derivation labels as the EH simulation, so for a
    given ``seed`` the baseline sees exactly the timeline the policies
    saw.
    """
    if n_windows < 1:
        raise SimulationError(f"n_windows must be >= 1, got {n_windows}")
    factory = SeedSequenceFactory(seed)
    spec = dataset.spec
    subject = subject or (
        dataset.eval_subjects[0] if dataset.eval_subjects else SubjectProfile.canonical()
    )

    markov = MarkovActivityModel(
        list(spec.activities),
        window_duration_s=spec.window_duration_s,
        dwell_scale=dwell_scale,
    )
    labels = markov.sample_labels(n_windows, factory.generator("timeline"))
    true = np.array([spec.label_of(activity) for activity in labels], dtype=np.int64)

    models = bundle.models(pruned=baseline.pruned)
    synthesizer = dataset.synthesizer

    # Shared execution style per window (same stream the EH sim uses).
    style_rng = factory.generator("style")
    styles = [StyleWobble.sample(style_rng) for _ in range(n_windows)]

    # Synthesize per-location window batches, then batch-predict.
    votes = np.empty((len(models), n_windows), dtype=np.int64)
    for row, location in enumerate(spec.locations):
        node_id = bundle.node_id_of(location)
        rng = factory.generator(f"windows/{location.value}")
        batch = synthesizer.batch(labels, location, subject=subject, seed=rng, style=styles)
        if window_transform is not None:
            batch = np.stack([window_transform(window) for window in batch])
        votes[row] = models[node_id].predict(batch)

    # Naive majority vote; ties resolve to the lowest label (fixed,
    # unbiased across a run).
    predicted = np.empty(n_windows, dtype=np.int64)
    for index in range(n_windows):
        counts = np.bincount(votes[:, index], minlength=spec.n_classes)
        predicted[index] = int(counts.argmax())

    return BaselineResult(
        baseline_name=baseline.name,
        activities=list(spec.activities),
        true_labels=true,
        predicted_labels=predicted,
    )
