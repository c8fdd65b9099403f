"""Population-scale execution: cohorts through the mega-batched kernel.

Three speed layers, matching the package docstring:

1. **Kernel mega-batching** — every user of a shard contributes one
   :class:`~repro.sim.kernel.BatchGroup` (its own seed, traces, gains,
   capacitor sizing and material) to a single
   :func:`~repro.sim.kernel.run_group_batch` call, so the whole shard's
   slot physics advances as one stacked structure-of-arrays kernel.
2. **Sharded execution** — ``(lo, hi)`` user ranges run under a
   :class:`~repro.resilience.SupervisedPool` with store-keyed bundle
   rehydration and a :class:`~repro.resilience.SweepJournal` recording
   each shard's exact aggregate for crash-tolerant resume.
3. **Streaming aggregation** — shards reduce to
   :class:`~repro.fleet.aggregate.FleetAggregate` tables whose merge is
   exact and order-invariant, so 1, 3 or N shards (or a resumed run)
   produce byte-identical cohort statistics in ``O(bins)`` memory.

Run material — the expensive per-timeline window/softmax build — is
memoized per ``(seed, dwell)`` pair, which :class:`CohortSpec` keeps
finite by drawing timelines from a small seed pool and dwell from a
discrete distribution.
"""

from __future__ import annotations

import copy
import logging
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PolicySpec, origin_policy
from repro.errors import ConfigurationError, FleetError
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.spec import CohortSpec, UserSpec
from repro.obs import NULL_OBS, Observability
from repro.resilience.journal import SweepJournal, _digest, sweep_fingerprint
from repro.resilience.pool import SupervisedPool, SupervisedTask
from repro.sim.experiment import HARExperiment
from repro.sim.kernel import BatchGroup, run_group_batch
from repro.sim.predcache import RunMaterial, build_run_material
from repro.sim.results import ExperimentResult
from repro.sim.sweep import _init_sweep_worker, worker_experiment_payload

__all__ = [
    "FleetResult",
    "FleetRunner",
    "default_metric_bounds",
    "user_metrics",
    "simulate_users",
    "shard_aggregate",
    "fleet_fingerprint",
    "shard_cell",
]

logger = logging.getLogger(__name__)

#: Ceiling on distinct materials a worker keeps alive at once.  Only
#: reachable with a *continuous* dwell distribution (discrete cohorts
#: are bounded by ``CohortSpec.material_group_bound``); past it the
#: memo evicts least-recently-used entries and rebuilds on demand.
MATERIAL_MEMO_CAP = 64

_FLEET_HEADER_KIND = "fleet-journal"
FLEET_SCHEMA_VERSION = 1


def default_metric_bounds(
    n_slots: int, n_nodes: int
) -> Dict[str, Tuple[float, float]]:
    """Histogram ranges derived from the experiment shape.

    Every shard of a cohort derives the same bounds from the same
    ``(spec, experiment)``, which is what makes shard aggregates
    mergeable.  Energy ceilings are generous envelopes — outliers clamp
    into the edge bins while min/max/mean stay exact.
    """
    if n_slots < 1 or n_nodes < 1:
        raise ConfigurationError(
            f"need n_slots >= 1 and n_nodes >= 1, got {n_slots}, {n_nodes}"
        )
    events = float(n_slots * n_nodes)
    energy_hi = max(1e-6, 1e-3 * events)
    return {
        "event_accuracy": (0.0, 1.0),
        "overall_accuracy": (0.0, 1.0),
        "completion_rate": (0.0, 1.0),
        "completions": (0.0, events + 1.0),
        "harvested_j": (0.0, energy_hi),
        "consumed_j": (0.0, energy_hi),
        "comm_energy_j": (0.0, energy_hi),
        "accuracy_drop": (-1.0, 1.0),
    }


def user_metrics(
    result: ExperimentResult, reference: Optional[ExperimentResult] = None
) -> Dict[str, float]:
    """One user's scalar metrics for the cohort distributions.

    ``reference`` is the same ``(timeline, dwell, policy)`` run under
    the cohort's *base* config; ``accuracy_drop`` is how much this
    user's sampled deployment degrades event accuracy relative to it
    (negative = the sampled deployment did better).
    """
    stats = result.node_stats.values()
    metrics = {
        "event_accuracy": float(result.event_accuracy),
        "overall_accuracy": float(result.overall_accuracy),
        "completion_rate": float(result.completion_rate),
        "completions": float(result.total_completions),
        "harvested_j": float(sum(s.harvested_j for s in stats)),
        "consumed_j": float(sum(s.consumed_j for s in stats)),
        "comm_energy_j": float(result.comm_energy_j),
    }
    if reference is not None:
        metrics["accuracy_drop"] = float(
            reference.event_accuracy - result.event_accuracy
        )
    return metrics


# ---------------------------------------------------------------------------
# material + reference memoization
# ---------------------------------------------------------------------------


class _MaterialMemo:
    """LRU cache of :class:`RunMaterial` keyed by ``(seed, dwell)``.

    One per worker process (and one in the parent for sequential runs).
    Sharing is what amortizes the window/softmax build across every
    user on the same timeline.
    """

    def __init__(self, experiment: HARExperiment, cap: int = MATERIAL_MEMO_CAP):
        self.experiment = experiment
        self.cap = int(cap)
        self._entries: "OrderedDict[Tuple[int, float], RunMaterial]" = OrderedDict()

    def material(self, user: UserSpec) -> RunMaterial:
        key = user.material_key
        material = self._entries.get(key)
        if material is not None:
            self._entries.move_to_end(key)
            return material
        material = build_run_material(
            self.experiment.dataset,
            self.experiment.bundle,
            user.seed,
            n_windows=user.config.n_windows,
            dwell_scale=user.config.dwell_scale,
            use_pruned_models=user.config.use_pruned_models,
        )
        self._entries[key] = material
        while len(self._entries) > self.cap:
            evicted, _ = self._entries.popitem(last=False)
            logger.debug("material memo evicted %s", evicted)
        return material


class _ReferenceMemo:
    """Base-config reference runs keyed by ``(seed, dwell)``.

    The reference twin shares the user's timeline and material but runs
    the cohort's base config (dwell excepted — dwell shapes the
    timeline itself), so ``accuracy_drop`` isolates the *energy*
    heterogeneity.  Pure function of ``(experiment, spec, policies)``:
    every shard computes identical references.  The mega-batched
    :func:`simulate_users` runs missing twins inside the users' own
    kernel batch (:meth:`missing`, :meth:`group`, :meth:`store`);
    :meth:`results` runs one on its own.
    """

    def __init__(
        self,
        experiment: HARExperiment,
        spec: CohortSpec,
        policies: Sequence[PolicySpec],
    ):
        self.experiment = experiment
        self.spec = spec
        self.policies = list(policies)
        self._entries: Dict[Tuple[int, float], List[ExperimentResult]] = {}

    def missing(
        self, prepared: Sequence[Tuple[UserSpec, RunMaterial]]
    ) -> List[Tuple[Tuple[int, float], RunMaterial]]:
        """``(key, material)`` of each twin the users need and the memo
        lacks, once per key, in first-user order."""
        wanted: Dict[Tuple[int, float], RunMaterial] = {}
        for user, material in prepared:
            key = user.material_key
            if key not in self._entries and key not in wanted:
                wanted[key] = material
        return list(wanted.items())

    def group(self, key: Tuple[int, float], material: RunMaterial) -> BatchGroup:
        """The kernel group computing the twin for ``key``."""
        seed, dwell = key
        return BatchGroup(
            policies=self.policies,
            seed=seed,
            config=replace(self.spec.base, dwell_scale=dwell),
            material=material,
        )

    def store(self, key: Tuple[int, float], results: List[ExperimentResult]) -> None:
        # Slicing copies each table out of its batch's shared column
        # block, which the memo would otherwise keep alive for the run.
        self._entries[key] = [
            replace(result, records=result.records[:]) for result in results
        ]

    def results(
        self, user: UserSpec, material: RunMaterial
    ) -> List[ExperimentResult]:
        key = user.material_key
        cached = self._entries.get(key)
        if cached is None:
            cached = run_group_batch(self.experiment, [self.group(key, material)])[0]
            self.store(key, cached)
        return cached


# ---------------------------------------------------------------------------
# shard execution
# ---------------------------------------------------------------------------


def simulate_users(
    experiment: HARExperiment,
    users: Sequence[UserSpec],
    policies: Sequence[PolicySpec],
    *,
    mega: bool = True,
    materials: Optional[_MaterialMemo] = None,
    references: Optional[_ReferenceMemo] = None,
) -> List[List[ExperimentResult]]:
    """Run every policy for every user; one result row per user.

    ``mega=True`` packs the whole slice into one
    :func:`run_group_batch` call (one :class:`BatchGroup` per user);
    ``mega=False`` is the reference per-user loop through
    ``HARExperiment.run`` that the benchmark's identity assertion and
    speedup headline compare against.  Both paths consume identical
    materials, so their results are byte-identical.

    With ``mega`` and a ``references`` memo, every base-config twin the
    users need and the memo lacks joins the same batch as one more
    group; the memo keeps those results and the returned rows are still
    the users' only, row ``i`` for ``users[i]``.
    """
    users = list(users)
    if not users:
        return []
    memo = materials if materials is not None else _MaterialMemo(experiment)
    prepared = [(user, memo.material(user)) for user in users]
    if mega:
        groups = [
            BatchGroup(
                policies=policies,
                seed=user.seed,
                config=user.config,
                material=material,
            )
            for user, material in prepared
        ]
        twins = references.missing(prepared) if references is not None else []
        groups.extend(references.group(key, material) for key, material in twins)
        results = run_group_batch(experiment, groups)
        for (key, _), twin in zip(twins, results[len(users):]):
            references.store(key, twin)
        return results[: len(users)]
    rows: List[List[ExperimentResult]] = []
    for user, material in prepared:
        solo = copy.copy(experiment)
        solo.config = user.config
        rows.append(
            [
                solo.run(policy, seed=user.seed, material=material)
                for policy in policies
            ]
        )
    return rows


def shard_aggregate(
    experiment: HARExperiment,
    spec: CohortSpec,
    policies: Sequence[PolicySpec],
    lo: int,
    hi: int,
    *,
    mega: bool = True,
    materials: Optional[_MaterialMemo] = None,
    references: Optional[_ReferenceMemo] = None,
) -> FleetAggregate:
    """Simulate users ``[lo, hi)`` and reduce them to one aggregate."""
    users = list(spec.users(lo, hi))
    bounds = default_metric_bounds(
        spec.base.n_windows, len(experiment.dataset.spec.locations)
    )
    aggregate = FleetAggregate(bounds=bounds)
    aggregate.shards = 1
    memo = materials if materials is not None else _MaterialMemo(experiment)
    refs = (
        references
        if references is not None
        else _ReferenceMemo(experiment, spec, policies)
    )
    rows = simulate_users(
        experiment, users, policies, mega=mega, materials=memo, references=refs
    )
    for user, row in zip(users, rows):
        material = memo.material(user)
        reference_row = refs.results(user, material)
        aggregate.add_user(
            {
                policy.name: user_metrics(result, reference)
                for policy, result, reference in zip(policies, row, reference_row)
            }
        )
    return aggregate


# ---------------------------------------------------------------------------
# journal plumbing
# ---------------------------------------------------------------------------


def fleet_fingerprint(
    experiment: HARExperiment,
    spec: CohortSpec,
    policies: Sequence[PolicySpec],
    shard_size: int,
) -> str:
    """The digest keying a journal to one fleet run's inputs.

    Folds the sweep fingerprint (dataset + bundle provenance + the
    experiment's own config) together with the full cohort spec, the
    policy set and the shard layout — shard cells are only valid
    against the layout that produced them.
    """
    return _digest(
        {
            "kind": _FLEET_HEADER_KIND,
            "schema_version": FLEET_SCHEMA_VERSION,
            "sweep": sweep_fingerprint(experiment),
            "spec": spec.to_dict(),
            "policies": [asdict(policy) for policy in policies],
            "shard_size": int(shard_size),
        }
    )


def shard_cell(lo: int, hi: int) -> str:
    """The journal key of one ``[lo, hi)`` user range."""
    return f"shard:{int(lo)}-{int(hi)}"


# ---------------------------------------------------------------------------
# pool workers
# ---------------------------------------------------------------------------

_FLEET_SPEC: Optional[CohortSpec] = None
_FLEET_POLICIES: Optional[List[PolicySpec]] = None
_FLEET_MATERIALS: Optional[_MaterialMemo] = None
_FLEET_REFERENCES: Optional[_ReferenceMemo] = None
_FLEET_MEGA: bool = True


def _init_fleet_worker(
    experiment: HARExperiment,
    store_key: Optional[str],
    recipe: Any,
    spec: CohortSpec,
    policies: List[PolicySpec],
    mega: bool,
) -> None:
    """Install the cohort in this worker process.

    Delegates bundle rehydration (store key -> load, miss -> exact
    retrain) to the sweep's worker initializer, then pins the spec,
    policy list and the per-process material/reference memos.
    """
    global _FLEET_SPEC, _FLEET_POLICIES, _FLEET_MATERIALS, _FLEET_REFERENCES
    global _FLEET_MEGA
    _init_sweep_worker(experiment, False, store_key, recipe)
    # _init_sweep_worker rehydrated the bundle onto this same object.
    _FLEET_SPEC = spec
    _FLEET_POLICIES = list(policies)
    _FLEET_MATERIALS = _MaterialMemo(experiment)
    _FLEET_REFERENCES = _ReferenceMemo(experiment, spec, _FLEET_POLICIES)
    _FLEET_MEGA = bool(mega)


def _run_fleet_shard(lo: int, hi: int) -> Dict[str, Any]:
    """Worker entry point: one shard to an exact aggregate document."""
    if _FLEET_SPEC is None or _FLEET_MATERIALS is None:
        raise ConfigurationError("fleet worker used before initialization")
    aggregate = shard_aggregate(
        _FLEET_MATERIALS.experiment,
        _FLEET_SPEC,
        _FLEET_POLICIES,
        lo,
        hi,
        mega=_FLEET_MEGA,
        materials=_FLEET_MATERIALS,
        references=_FLEET_REFERENCES,
    )
    return aggregate.to_dict()


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


@dataclass
class FleetResult:
    """Outcome of one :meth:`FleetRunner.run`."""

    aggregate: FleetAggregate
    spec: CohortSpec
    policy_names: List[str]
    elapsed_s: float
    #: Users actually simulated this call (journal hits excluded).
    users_simulated: int
    shards: int
    journal_hits: int = 0
    #: ``(cell, attempts, cause)`` per shard lost under ``salvage``.
    failed: List[Tuple[str, int, str]] = field(default_factory=list)

    @property
    def users(self) -> int:
        """Total cohort members covered (simulated + journal-resumed)."""
        return self.aggregate.users

    @property
    def lost_users(self) -> int:
        """Cohort members missing from the aggregate (failed shards)."""
        return self.spec.size - self.aggregate.users

    @property
    def users_per_second(self) -> float:
        """The headline throughput: simulated users per wall second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.users_simulated / self.elapsed_s

    def summary(self) -> str:
        """Human-readable report (headline + percentile tables)."""
        lines = [
            f"fleet: {self.users}/{self.spec.size} user(s) x "
            f"{len(self.policy_names)} policy(ies) in {self.elapsed_s:.2f} s "
            f"({self.users_per_second:,.0f} users/s simulated)",
            f"shards: {self.shards} total, {self.journal_hits} from journal, "
            f"{len(self.failed)} failed",
        ]
        for cell, attempts, cause in self.failed:
            lines.append(f"  LOST {cell} after {attempts} attempt(s): {cause}")
        lines.extend(self.aggregate.summary_lines())
        return "\n".join(lines)


class FleetRunner:
    """Drive a :class:`CohortSpec` through the mega-batched kernel.

    Parameters
    ----------
    experiment:
        The trained :class:`HARExperiment` supplying dataset, bundle
        and the *base* deployment config the cohort perturbs.
    spec:
        Who the users are.
    policies:
        Policy set every user runs (default: ``origin_policy(12)``).
    shard_size:
        Users per kernel mega-batch / journal cell / pool task.
    worker_rehydrate:
        Forwarded to :func:`worker_experiment_payload` — ``None`` lets
        store-keyed bundles rehydrate by key instead of pickling.
    """

    def __init__(
        self,
        experiment: HARExperiment,
        spec: CohortSpec,
        *,
        policies: Optional[Sequence[PolicySpec]] = None,
        shard_size: int = 256,
        worker_rehydrate: Optional[bool] = None,
    ) -> None:
        if shard_size < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
        self.experiment = experiment
        self.spec = spec
        self.policies = list(policies) if policies is not None else [origin_policy(12)]
        if not self.policies:
            raise ConfigurationError("fleet needs at least one policy")
        self.shard_size = int(shard_size)
        self.worker_rehydrate = worker_rehydrate

    def shards(self) -> List[Tuple[int, int]]:
        """The ``[lo, hi)`` user ranges, in index order."""
        return [
            (lo, min(lo + self.shard_size, self.spec.size))
            for lo in range(0, self.spec.size, self.shard_size)
        ]

    def fingerprint(self) -> str:
        """Journal fingerprint of this exact cohort/policy/layout."""
        return fleet_fingerprint(
            self.experiment, self.spec, self.policies, self.shard_size
        )

    def run(
        self,
        *,
        workers: int = 1,
        mega: bool = True,
        journal: Optional[str] = None,
        resume: bool = True,
        obs: Optional[Observability] = None,
        on_failure: str = "raise",
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> FleetResult:
        """Simulate the cohort and return its aggregate statistics.

        ``journal`` (a path) checkpoints each shard's exact aggregate:
        an interrupted run resumes from completed cells, and the merged
        output is byte-identical to an uninterrupted one.  ``workers >
        1`` shards over a :class:`SupervisedPool`; ``on_failure`` is
        ``"raise"`` (default — a shard that exhausts retries raises
        :class:`FleetError`) or ``"salvage"`` (drop it, report it in
        ``FleetResult.failed``).
        """
        if on_failure not in ("raise", "salvage"):
            raise ConfigurationError(
                f'on_failure must be "raise" or "salvage", got {on_failure!r}'
            )
        obs = obs if obs is not None else NULL_OBS
        shards = self.shards()
        started = time.perf_counter()
        if obs.enabled:
            obs.metrics.gauge("fleet.total_users").set(self.spec.size)
            obs.metrics.gauge("fleet.total_shards").set(len(shards))
            timeseries = obs.timeseries
            if timeseries is not None:
                timeseries.mark(
                    "fleet.run.started",
                    users=self.spec.size,
                    shards=len(shards),
                    policies=len(self.policies),
                )
                timeseries.sample(force=True)

        book: Optional[SweepJournal] = None
        if journal is not None:
            book = self._open_journal(journal, resume=resume)
        try:
            payloads, journal_hits, failed = self._execute(
                shards,
                book,
                workers=workers,
                mega=mega,
                obs=obs,
                on_failure=on_failure,
                task_timeout_s=task_timeout_s,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s,
            )
        finally:
            if book is not None:
                book.close()

        bounds = default_metric_bounds(
            self.spec.base.n_windows, len(self.experiment.dataset.spec.locations)
        )
        total = FleetAggregate(bounds=bounds)
        for payload in payloads:
            total.merge(FleetAggregate.from_dict(payload))
        elapsed = time.perf_counter() - started
        users_simulated = total.users - sum(
            hi - lo for (lo, hi), hit in zip(shards, journal_hits) if hit
        )
        if obs.enabled:
            obs.metrics.inc("fleet.users", users_simulated)
            obs.metrics.inc("fleet.shards", len(shards))
            obs.metrics.inc("fleet.journal.hit", sum(journal_hits))
            obs.metrics.inc("fleet.failed_shards", len(failed))
            obs.metrics.timer("fleet.run").record(elapsed)
            timeseries = obs.timeseries
            if timeseries is not None:
                timeseries.mark(
                    "fleet.run.finished",
                    users=total.users,
                    failed=len(failed),
                    elapsed_s=round(elapsed, 3),
                )
                timeseries.sample(force=True)
        result = FleetResult(
            aggregate=total,
            spec=self.spec,
            policy_names=[policy.name for policy in self.policies],
            elapsed_s=elapsed,
            users_simulated=users_simulated,
            shards=len(shards),
            journal_hits=sum(journal_hits),
            failed=failed,
        )
        logger.info(
            "fleet run: %d user(s), %d shard(s), %.2f s (%.0f users/s)",
            result.users,
            result.shards,
            result.elapsed_s,
            result.users_per_second,
        )
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _record_shard_progress(obs: Observability, lo: int, hi: int) -> None:
        """Count one simulated shard toward live progress.

        Journal-hit shards never pass through here, so the progress
        counters (and any watcher rate derived from them) reflect users
        actually simulated this run.  The totals are identical for any
        worker layout — every simulated shard is counted exactly once,
        parent-side — so the counters stay inside the deterministic
        metrics contract.
        """
        if not obs.enabled:
            return
        obs.metrics.inc("fleet.progress.users", hi - lo)
        obs.metrics.inc("fleet.progress.shards")
        timeseries = obs.timeseries
        if timeseries is not None:
            timeseries.sample()

    def _open_journal(self, path: str, *, resume: bool) -> SweepJournal:
        try:
            return SweepJournal.open(path, self.fingerprint(), resume=resume)
        except Exception as error:
            raise FleetError(
                f"fleet journal {path!r} could not be opened: {error}"
            ) from error

    def _execute(
        self,
        shards: List[Tuple[int, int]],
        book: Optional[SweepJournal],
        *,
        workers: int,
        mega: bool,
        obs: Observability,
        on_failure: str,
        task_timeout_s: Optional[float],
        max_retries: int,
        retry_backoff_s: float,
    ) -> Tuple[List[Dict[str, Any]], List[bool], List[Tuple[str, int, str]]]:
        """Produce one aggregate payload per surviving shard, in order."""
        journal_hits = [False] * len(shards)
        payloads: Dict[int, Dict[str, Any]] = {}
        pending: List[int] = []
        for index, (lo, hi) in enumerate(shards):
            cached = book.get(shard_cell(lo, hi)) if book is not None else None
            if cached is not None:
                payloads[index] = cached
                journal_hits[index] = True
            else:
                pending.append(index)

        failed: List[Tuple[str, int, str]] = []
        if pending and workers <= 1:
            materials = _MaterialMemo(self.experiment)
            references = _ReferenceMemo(self.experiment, self.spec, self.policies)
            for index in pending:
                lo, hi = shards[index]
                aggregate = shard_aggregate(
                    self.experiment,
                    self.spec,
                    self.policies,
                    lo,
                    hi,
                    mega=mega,
                    materials=materials,
                    references=references,
                )
                payload = aggregate.to_dict()
                payloads[index] = payload
                if book is not None:
                    book.record(shard_cell(lo, hi), payload)
                self._record_shard_progress(obs, lo, hi)
        elif pending:
            failed = self._run_pool(
                shards,
                pending,
                payloads,
                book,
                mega=mega,
                workers=workers,
                obs=obs,
                task_timeout_s=task_timeout_s,
                max_retries=max_retries,
                retry_backoff_s=retry_backoff_s,
            )
            if failed and on_failure == "raise":
                detail = "; ".join(
                    f"{cell} after {attempts} attempt(s): {cause}"
                    for cell, attempts, cause in failed
                )
                raise FleetError(f"{len(failed)} fleet shard(s) failed: {detail}")

        ordered = [payloads[index] for index in sorted(payloads)]
        return ordered, journal_hits, failed

    def _run_pool(
        self,
        shards: List[Tuple[int, int]],
        pending: List[int],
        payloads: Dict[int, Dict[str, Any]],
        book: Optional[SweepJournal],
        *,
        mega: bool,
        workers: int,
        obs: Observability,
        task_timeout_s: Optional[float],
        max_retries: int,
        retry_backoff_s: float,
    ) -> List[Tuple[str, int, str]]:
        stub, store_key, recipe = worker_experiment_payload(
            self.experiment, rehydrate=self.worker_rehydrate
        )
        tasks = [
            SupervisedTask(
                fn=_run_fleet_shard,
                args=shards[index],
                label=shard_cell(*shards[index]),
            )
            for index in pending
        ]

        def checkpoint(outcome: Any) -> None:
            if outcome.ok:
                index = pending[outcome.index]
                if book is not None:
                    book.record(shard_cell(*shards[index]), outcome.result)
                self._record_shard_progress(obs, *shards[index])

        pool = SupervisedPool(
            workers,
            initializer=_init_fleet_worker,
            initargs=(stub, store_key, recipe, self.spec, self.policies, mega),
            task_timeout_s=task_timeout_s,
            max_retries=max_retries,
            backoff_s=retry_backoff_s,
            obs=obs,
        )
        outcomes = pool.run(tasks, on_outcome=checkpoint)

        failed: List[Tuple[str, int, str]] = []
        for position, outcome in enumerate(outcomes):
            index = pending[position]
            if outcome.ok:
                payloads[index] = outcome.result
            else:
                cell = shard_cell(*shards[index])
                cause = outcome.cause or "unknown"
                logger.error(
                    "fleet shard %s lost after %d attempt(s): %s",
                    cell,
                    outcome.attempts,
                    cause,
                )
                failed.append((cell, outcome.attempts, cause))
        return failed
