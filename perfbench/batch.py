"""The offline workloads: ``sweep``, ``fleet`` and ``faults``.

Each workload is a fixture (built in set-up), a repetition (the timed
unit of work, drawn from the run's seed) and an untimed correctness
check that compares a sample of the timed outputs against an
independent path.  :func:`run_workload` repeats a workload for the run's
seconds and reduces the repetitions to the end-to-end metrics.

Why these three (see also ``BENCHMARK.json``):

* ``sweep`` — the 16-policy paper grid through sequential
  ``PolicySweep.run`` with fresh materials each repetition: window
  synthesis, batched softmax and the kernel's decision epilogue split
  the time.
* ``fleet`` — a heterogeneous cohort through sequential
  ``FleetRunner.run``: materials are shared by many users, so the
  decision core and per-user lane set-up dominate.
* ``faults`` — the grid under one mixed ``FaultPlan``; every run takes
  the scalar ``SensorNode`` loop, the only workload that measures
  scalar physics and the fault engine.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import numpy as np

import harness
import spans

#: Cells (policy, seed) of a sweep or faults run, users of a fleet run,
#: re-derived through an independent path after the timed region.
CHECK_SAMPLES = 3


@dataclasses.dataclass
class Rep:
    """One timed repetition: what it decided and what the check needs."""

    ops: int
    slots: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    failed: int = 0
    #: cell key -> decision-stream digest, for the sampled cells only.
    sampled: Dict[Any, str] = dataclasses.field(default_factory=dict)
    digest: str = ""
    #: Host seconds per reference second while it ran (host_factor).
    host: float = 1.0
    #: (seconds, lanes) of each slot step (StepClock.take).
    steps: "np.ndarray" = dataclasses.field(default_factory=lambda: np.zeros((0, 2)))


class StepClock(spans.Patches):
    """Times lockstep slot steps of the simulation.

    A *slot step* is everything between two consecutive slot
    boundaries of one simulated batch: the kernel's ``advance`` calls
    on one ``SlotKernel`` (every run in the batch decides that slot) or
    the scalar loop's ``step_slot`` calls on one network.  Every
    (run, node) lane decided in a step waited for all of it, so the
    batch workloads' ``decision_p50_ms``/``decision_p99_ms`` are
    percentiles of step length weighted by lanes.  The hook stores one
    pair per step, so it stays on in untraced runs.
    """

    #: Attribute holding a batch's previous slot boundary on the batch
    #: object itself, so a new object never inherits an old one's.
    MARK = "_perfbench_last_step"

    def __init__(self) -> None:
        super().__init__()
        #: (seconds, lanes decided) per slot step.
        self.intervals: List[tuple] = []

    def install(self) -> None:
        from repro.sim.kernel import SlotKernel
        from repro.wsn.network import BodyAreaNetwork

        self.patch_method(SlotKernel, "advance", self._stepped("n_lanes"))
        self.patch_method(BodyAreaNetwork, "step_slot", self._stepped("n_nodes"))

    def _stepped(self, lanes: str):
        intervals = self.intervals
        clock = time.perf_counter
        mark = self.MARK

        def make(original):
            def stepped(obj, *args, **kwargs):
                now = clock()
                previous = obj.__dict__.get(mark)
                if previous is not None:
                    intervals.append((now - previous, getattr(obj, lanes)))
                obj.__dict__[mark] = now
                return original(obj, *args, **kwargs)

            return stepped

        return make

    def take(self) -> "np.ndarray":
        """The steps recorded so far as an ``(n, 2)`` array, clearing them."""
        steps = np.array(self.intervals, dtype=np.float64).reshape(-1, 2)
        self.intervals.clear()
        return steps


def _digest_runs(runs) -> str:
    return harness.stream_digest(harness.record_stream(run.records) for run in runs)


def _cell_digest(run) -> str:
    return harness.stream_digest([harness.record_stream(run.records)])


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    name = ""
    n_windows = 300

    def __init__(self, root: str, seed: int, smoke: bool) -> None:
        self.root = root
        self.experiment = None
        self.rng = random.Random(f"{self.name}/{seed}")
        self.rep_seeds: List[int] = []
        #: Set during a traced repetition: the timed call is its root span.
        self.tracer: Optional[spans.SpanTracer] = None

    def setup(self) -> None:
        """The part of set-up a user pays per process (timed, repeated)."""
        self.experiment = harness.build_experiment(self.root, self.n_windows)

    def prepare(self) -> None:
        """One-time hooks, installed after the last set-up."""

    def rep_seed(self, index: int) -> int:
        if index < 0:
            return 1
        while len(self.rep_seeds) <= index:
            self.rep_seeds.append(self.rng.randrange(1, 2**31 - 1))
        return self.rep_seeds[index]

    def run_rep(self, index: int) -> Rep:
        raise NotImplementedError

    def timed_call(self, call):
        """``call()`` with its wall and CPU seconds.

        In a traced repetition the root span covers exactly this call,
        so the traced wall holds none of the harness's own work.
        """
        root = self.tracer.open(spans.ROOT) if self.tracer else None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result = call()
        finally:
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            if root is not None:
                self.tracer.close(root)
        return result, wall, cpu

    def warm_up(self) -> None:
        """One untimed repetition: lazy imports and caches settle first."""
        self.run_rep(-1)

    def runs(self, reps: List[Rep]) -> int:
        """Simulated runs (policy x seed or user) across ``reps``."""
        return sum(rep.ops for rep in reps)

    def check(self, reps: List[Rep]) -> int:
        """Mismatching sampled cells; each counts as a failed operation."""
        raise NotImplementedError


class SweepWorkload(Workload):
    name = "sweep"

    def __init__(self, root: str, seed: int, smoke: bool) -> None:
        super().__init__(root, seed, smoke)
        self.n_windows = 60 if smoke else 300
        self.n_seeds = 1 if smoke else 2

    def setup(self) -> None:
        from repro.sim.sweep import paper_policy_grid

        super().setup()
        self.grid = paper_policy_grid()

    def run_rep(self, index: int) -> Rep:
        from repro.sim.sweep import PolicySweep

        seed = self.rep_seed(index)
        sweep = PolicySweep(self.experiment, n_seeds=self.n_seeds, include_baselines=False)
        result, wall, cpu = self.timed_call(lambda: sweep.run(self.grid, seed=seed))
        cells = len(self.grid) * self.n_seeds
        rep = Rep(ops=cells, slots=cells * self.n_windows, wall_s=wall, cpu_s=cpu)
        runs = []
        for spec in self.grid:
            merged = result.policies[spec.name]
            for offset in range(self.n_seeds):
                run = dataclasses.replace(
                    merged,
                    records=merged.records[
                        offset * self.n_windows : (offset + 1) * self.n_windows
                    ],
                )
                runs.append(run)
                rep.sampled[(spec.name, seed + offset)] = _cell_digest(run)
        rep.digest = _digest_runs(runs)
        return rep

    def check(self, reps: List[Rep]) -> int:
        by_name = {spec.name: spec for spec in self.grid}
        cells = [(rep, key) for rep in reps for key in rep.sampled]
        mismatches = 0
        for rep, (name, seed) in self.rng.sample(cells, min(CHECK_SAMPLES, len(cells))):
            reference = self.experiment.run(by_name[name], seed=seed, kernel=False)
            if _cell_digest(reference) != rep.sampled[(name, seed)]:
                mismatches += 1
        return mismatches


class FleetWorkload(Workload):
    name = "fleet"

    def __init__(self, root: str, seed: int, smoke: bool) -> None:
        super().__init__(root, seed, smoke)
        self.n_windows = 40 if smoke else 200
        # One full shard per repetition.  One activity timeline (three
        # dwell variants, so three materials) keeps the material build
        # near the ~12% share it has in a default 1000-user, 4-timeline
        # cohort, at a quarter of the users: a run holds several
        # repetitions, which steadies its median.
        self.users = 24 if smoke else 256
        self.shard_size = 16 if smoke else 256
        self._capture: Optional[Dict[int, list]] = None
        self._sample: set = set()

    def setup(self) -> None:
        from repro.core.policies import origin_policy

        super().setup()
        self.policies = [origin_policy(12)]

    def prepare(self) -> None:
        import repro.fleet.runner as runner

        # Keep the sampled users' runs as the timed run produces them
        # (simulate_users is looked up in the runner).
        original = runner.simulate_users
        workload = self

        def capturing(experiment, users, policies, **kwargs):
            rows = original(experiment, users, policies, **kwargs)
            if workload._capture is not None:
                for user, row in zip(users, rows):
                    if user.index in workload._sample:
                        workload._capture[user.index] = row
            return rows

        runner.simulate_users = capturing

    def _spec(self, index: int):
        from repro.fleet.spec import CohortSpec

        return CohortSpec(
            size=self.users,
            seed=self.rep_seed(index),
            base=self.experiment.config,
            n_timelines=1,
        )

    def run_rep(self, index: int) -> Rep:
        from repro.fleet.runner import FleetRunner

        spec = self._spec(index)
        self._sample = set(self.rng.sample(range(self.users), CHECK_SAMPLES))
        self._capture = {}
        runner = FleetRunner(
            self.experiment, spec, policies=self.policies, shard_size=self.shard_size
        )
        result, wall, cpu = self.timed_call(runner.run)
        rep = Rep(
            ops=self.users,
            slots=self.users * len(self.policies) * self.n_windows,
            wall_s=wall,
            cpu_s=cpu,
        )
        rep.sampled = {(index, user): _digest_runs(row) for user, row in self._capture.items()}
        # Users the timed path never returned are failures, not skips.
        rep.failed = len(self._sample) - len(self._capture)
        self._capture = None
        rep.digest = harness.stream_digest([[ord(c) for c in result.aggregate.stats_json()]])
        return rep

    def warm_up(self) -> None:
        from repro.fleet.runner import FleetRunner
        from repro.fleet.spec import CohortSpec

        spec = CohortSpec(size=8, seed=1, base=self.experiment.config, n_timelines=1)
        FleetRunner(self.experiment, spec, policies=self.policies).run()

    def runs(self, reps: List[Rep]) -> int:
        return sum(rep.ops for rep in reps) * len(self.policies)

    def check(self, reps: List[Rep]) -> int:
        from repro.fleet.runner import simulate_users

        cells = [(rep, key) for rep in reps for key in rep.sampled]
        mismatches = 0
        for rep, (index, user_index) in self.rng.sample(cells, min(CHECK_SAMPLES, len(cells))):
            user = self._spec(index).user(user_index)
            rows = simulate_users(self.experiment, [user], self.policies, mega=False)
            if _digest_runs(rows[0]) != rep.sampled[(index, user_index)]:
                mismatches += 1
        return mismatches


class FaultsWorkload(Workload):
    name = "faults"

    def __init__(self, root: str, seed: int, smoke: bool) -> None:
        super().__init__(root, seed, smoke)
        self.n_windows = 60 if smoke else 300
        self._conservation_failures = 0

    def setup(self) -> None:
        from repro.faults import Brownout, FaultPlan, HarvesterDropout, PacketLoss
        from repro.sim.sweep import paper_policy_grid

        super().setup()
        self.grid = paper_policy_grid()
        n = self.n_windows
        node_ids = [
            self.experiment.bundle.node_id_of(location)
            for location in self.experiment.dataset.spec.locations
        ]
        self.plan = FaultPlan(
            faults=(
                PacketLoss(rate=0.1),
                Brownout(node_id=node_ids[0], start_slot=n * 2 // 5, duration_slots=n // 8),
                HarvesterDropout(
                    node_id=node_ids[1], windows=((n // 5, n // 5 + n // 6),), factor=0.0
                ),
            )
        )

    def run_rep(self, index: int) -> Rep:
        from repro.sim.predcache import PredictionCache

        seed = self.rep_seed(index)

        def run_grid():
            material = PredictionCache(self.experiment).material(seed)
            return [
                self.experiment.run(spec, seed=seed, faults=self.plan, material=material)
                for spec in self.grid
            ]

        runs, wall, cpu = self.timed_call(run_grid)
        rep = Rep(
            ops=len(runs), slots=len(runs) * self.n_windows, wall_s=wall, cpu_s=cpu
        )
        for spec, run in zip(self.grid, runs):
            rep.sampled[(spec.name, seed)] = _cell_digest(run)
            if not conserves_energy(run, self.experiment.config.capacitor_initial_j):
                rep.failed += 1
        rep.digest = _digest_runs(runs)
        return rep

    def check(self, reps: List[Rep]) -> int:
        by_name = {spec.name: spec for spec in self.grid}
        cells = [(rep, key) for rep in reps for key in rep.sampled]
        mismatches = 0
        for rep, (name, seed) in self.rng.sample(cells, min(CHECK_SAMPLES, len(cells))):
            # Fresh material: the run must not depend on sharing it.
            reference = self.experiment.run(by_name[name], seed=seed, faults=self.plan)
            if _cell_digest(reference) != rep.sampled[(name, seed)]:
                mismatches += 1
        return mismatches


def conserves_energy(run, initial_j: float) -> bool:
    """No node spends more than it started with plus harvested.

    Brownouts discard stored charge without a ledger entry, so under
    faults exact balance weakens to this inequality (as in the test
    suite's conservation properties).
    """
    for stats in run.node_stats.values():
        spend = stats.consumed_j + stats.leaked_j
        if spend > initial_j + stats.harvested_j + 1e-12 or stats.harvested_j < 0:
            return False
    return True


#: Per-layer metrics only the serve workload has.
SERVE_ONLY = (
    "serve.server.queue_wait_p50_ms",
    "serve.server.queue_wait_p99_ms",
    "serve.server.cpu_s",
    "open_loop.p50_ms",
    "open_loop.p99_ms",
    "open_loop.max_rate_wps",
    "loadgen.late_max_ms",
)

WORKLOADS = {
    cls.name: cls for cls in (SweepWorkload, FleetWorkload, FaultsWorkload)
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def _one_rep(workload: Workload, clock: StepClock, index: int) -> Rep:
    """One repetition between two host calibrations."""
    before = harness.calibrate()
    try:
        rep = workload.run_rep(index)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rep = Rep(ops=1, slots=0, failed=1)
    rep.host = harness.host_factor(before, harness.calibrate())
    rep.steps = clock.take()
    return rep


def _fits(started: float, count: int, seconds: float) -> bool:
    """Whether one more repetition, at the mean pace so far, ends in time."""
    elapsed = time.perf_counter() - started
    return count == 0 or elapsed + elapsed / count <= seconds


def run_reps(workload: Workload, clock: StepClock, seconds: float) -> List[Rep]:
    """Repeat while the next repetition fits in ``seconds`` (at least once)."""
    reps: List[Rep] = []
    started = time.perf_counter()
    while _fits(started, len(reps), seconds):
        reps.append(_one_rep(workload, clock, len(reps)))
    return reps


def run_traced(
    workload: Workload, clock: StepClock, seconds: float, tracer: spans.SpanTracer
):
    """Alternate untraced and traced repetitions of the same inputs.

    The timed call of each traced repetition is one root span; the
    ratio of the traced to the untraced timed walls is the tracing
    overhead.
    """
    plain: List[Rep] = []
    traced: List[Rep] = []
    started = time.perf_counter()
    while _fits(started, len(plain), seconds):
        index = len(plain)
        plain.append(_one_rep(workload, clock, index))
        spans.install_layers(tracer)
        workload.tracer = tracer
        try:
            traced.append(_one_rep(workload, clock, index))
        finally:
            workload.tracer = None
            tracer.unpatch()
    return plain, traced


def weighted_percentile(steps: "np.ndarray", q: float) -> float:
    """The value below which ``q`` percent of the weight lies.

    ``steps`` holds (value, weight) rows.
    """
    if not len(steps):
        return 0.0
    ordered = steps[np.argsort(steps[:, 0], kind="stable")]
    cumulative = np.cumsum(ordered[:, 1])
    index = np.searchsorted(cumulative, cumulative[-1] * q / 100.0)
    return float(ordered[min(index, len(ordered) - 1), 0])


def end_to_end(reps: List[Rep]) -> Dict[str, float]:
    """Medians over repetitions, in reference seconds (see host_factor)."""
    timed = [rep for rep in reps if rep.wall_s > 0]
    rates = [rep.slots / rep.wall_s * rep.host for rep in timed]
    per_cpu = [rep.slots / rep.cpu_s * rep.host for rep in timed if rep.cpu_s > 0]
    steps = np.concatenate(
        [rep.steps / np.array([rep.host, 1.0]) for rep in timed] or [np.zeros((0, 2))]
    )
    return {
        "slots_per_s": statistics.median(rates),
        "sessions_per_core": statistics.median(per_cpu) * harness.WINDOW_S,
        "decision_p50_ms": weighted_percentile(steps, 50) * 1e3,
        "decision_p99_ms": weighted_percentile(steps, 99) * 1e3,
    }


def run_workload(
    name: str, root: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Set up, measure, check; returns metrics, counts and details."""
    workload = WORKLOADS[name](root, seed, smoke)
    setups = []
    for _ in range(3):
        workload.experiment = None
        gc.collect()
        setups.append(harness.timed(workload.setup)[1])

    workload.prepare()
    workload.warm_up()
    clock = StepClock()
    clock.install()
    if not trace:
        reps = run_reps(workload, clock, seconds)
        metrics = end_to_end(reps)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    else:
        tracer = spans.SpanTracer()
        reps, traced = run_traced(workload, clock, seconds, tracer)
        tracer.write(harness.work_path(root, "traces", f"{name}-{seed}.spans.jsonl"))
        untraced_s = sum(rep.wall_s for rep in reps)
        traced_s = sum(rep.wall_s for rep in traced)
        materials = max(1, tracer.names.count("sim.predcache"))
        metrics = spans.per_layer_metrics(
            tracer,
            {
                "decision_p99_ms": end_to_end(reps)["decision_p99_ms"],
                "sim.predcache.runs_per_material": workload.runs(traced) / materials,
                "trace.overhead": traced_s / untraced_s - 1.0,
                **dict.fromkeys(SERVE_ONLY, 0.0),
            },
        )
        reps = reps + traced
    clock.unpatch()

    failed = sum(rep.failed for rep in reps)
    failed += workload.check([rep for rep in reps if rep.sampled])
    timed = [rep for rep in reps if rep.wall_s > 0]
    details = {
        "reps": len(reps),
        "rep0_digest": reps[0].digest,
        "slot_steps": sum(len(rep.steps) for rep in reps),
        "host_factor": statistics.median(rep.host for rep in timed),
        "raw_slots_per_s": statistics.median(rep.slots / rep.wall_s for rep in timed),
        # Per repetition, to tell noise within a run from drift between runs.
        "rep_slots_per_s": [rep.slots / rep.wall_s * rep.host for rep in timed],
        "rep_host_factor": [rep.host for rep in timed],
        "setup_ref_s": setups,
    }
    return {
        "metrics": metrics,
        "attempted": sum(rep.ops for rep in reps),
        "failed": failed,
        "details": details,
    }
