"""A supervised process pool: timeouts, retries, crash recovery.

:class:`SupervisedPool` wraps :class:`~concurrent.futures.ProcessPoolExecutor`
with the failure handling a long sweep needs:

* **Per-task timeouts.**  At most ``workers`` tasks are in flight at a
  time, so every submitted task is actually running; a task that
  overruns ``task_timeout_s`` (measured from submission, which includes
  worker startup after a respawn) marks the whole pool suspect — the
  only way to reclaim a hung worker is to kill its process — so the
  pool is terminated, the overrunning task is charged a failed attempt
  and every innocent in-flight task is requeued free of charge.
* **Bounded retries with deterministic backoff.**  A failed attempt
  (crash, timeout, raised exception) is retried up to ``max_retries``
  times, sleeping ``backoff_s * attempt`` before each resubmission —
  deterministic by construction, no jitter, so two identical runs
  retry on an identical schedule.
* **``BrokenProcessPool`` recovery.**  When a worker dies hard
  (``os._exit``, segfault, OOM kill) the executor is unusable; every
  in-flight task is charged one crash attempt, the pool is respawned
  (re-running the initializer) and surviving work continues.  A
  crashing worker therefore costs one retry, not the sweep.

Tasks are deterministic functions, so a retried task returns exactly
what the first attempt would have — supervision is bit-transparent.
Results come back as :class:`TaskOutcome` in task-submission order;
tasks whose retries exhaust are reported as failed outcomes rather than
raised, leaving salvage policy to the caller.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.observer import NULL_OBS, Observability

logger = logging.getLogger(__name__)

#: How long a hard kill waits for the executor's management thread.
_MANAGER_JOIN_S = 0.5


@dataclass
class SupervisedTask:
    """One unit of work for a :class:`SupervisedPool`.

    ``fn`` must be a module-level (picklable) callable.  ``args`` is the
    fixed argument tuple; ``args_for_attempt`` (parent-side, never
    pickled) overrides it per attempt — the hook the chaos harness uses
    to inject a fault on attempt 0 and run clean on the retry.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    args_for_attempt: Optional[Callable[[int], Tuple[Any, ...]]] = None
    label: Optional[str] = None

    def call_args(self, attempt: int) -> Tuple[Any, ...]:
        """The argument tuple to submit for ``attempt`` (0-based)."""
        if self.args_for_attempt is not None:
            return tuple(self.args_for_attempt(attempt))
        return self.args

    @property
    def name(self) -> str:
        """Display name for logs."""
        return self.label if self.label is not None else getattr(
            self.fn, "__name__", repr(self.fn)
        )


@dataclass
class TaskOutcome:
    """Terminal state of one task: its result, or why it failed."""

    index: int
    ok: bool = False
    result: Any = None
    attempts: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def cause(self) -> Optional[str]:
        """The final failure cause (``None`` for clean successes)."""
        return self.failures[-1] if self.failures else None

    @property
    def retried(self) -> bool:
        """Whether this task needed more than one attempt."""
        return self.attempts > 1


class SupervisedPool:
    """Crash-, hang- and interrupt-tolerant process-pool runner.

    One instance is one supervision configuration; :meth:`run` is a
    one-shot call that owns its executor for the duration and always
    shuts it down — with ``cancel_futures=True`` and process
    termination on the error/interrupt path, so no orphan workers
    survive a failed sweep.

    Parameters
    ----------
    workers:
        Pool size; also the in-flight cap (see module docstring).
    initializer / initargs:
        Forwarded to every (re)spawned executor.
    task_timeout_s:
        Per-task wall-clock budget from submission (``None`` = no
        timeout).  Must cover worker startup: after a respawn the first
        task also pays the initializer.
    max_retries:
        Failed attempts a task may retry (0 = one attempt only).
    backoff_s:
        Deterministic linear backoff unit: attempt ``n`` (1-based
        retry) sleeps ``backoff_s * n`` before resubmission.
    heartbeat_s:
        Seconds between liveness gauge updates from the supervision
        loop (used by ``python -m repro.obs.watch``).
    obs:
        Incident counters (``resilience.*``) land here.  The clean path
        records only liveness *gauges* (``resilience.heartbeat`` /
        ``queue_depth`` / ``inflight``, every ``heartbeat_s`` seconds),
        which are excluded from the deterministic metrics — so the
        sweep's workers=N == workers=1 metrics contract still holds.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        task_timeout_s: Optional[float] = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        poll_s: float = 0.05,
        heartbeat_s: float = 1.0,
        obs: Optional[Observability] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ConfigurationError(
                f"task_timeout_s must be positive or None, got {task_timeout_s}"
            )
        self.workers = int(workers)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.task_timeout_s = task_timeout_s
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.poll_s = float(poll_s)
        self.heartbeat_s = float(heartbeat_s)
        self.obs = obs if obs is not None else NULL_OBS
        self._beats = 0
        self._last_beat: Optional[float] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Incident counters of the most recent :meth:`run` (mirrors the
        #: ``resilience.*`` metrics, available even with a null obs).
        self.stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # the supervision loop
    # ------------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[SupervisedTask],
        *,
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Run every task to a terminal outcome; never raises for task
        failures (inspect the outcomes), always reaps its workers.

        ``on_outcome`` is invoked in the parent as each task reaches its
        terminal state (completion order, not submission order) — the
        journal's crash-tolerance hook.  The returned list is in task
        order regardless.
        """
        tasks = list(tasks)
        self.stats = {
            key: 0
            for key in (
                "crashes",
                "timeouts",
                "task_errors",
                "retries",
                "requeued",
                "pool_restarts",
                "giveups",
            )
        }
        outcomes = [TaskOutcome(index=index) for index in range(len(tasks))]
        if not tasks:
            return outcomes
        self._beats = 0
        self._last_beat = None
        pending: Deque[Tuple[int, int]] = deque(
            (index, 0) for index in range(len(tasks))
        )
        inflight: Dict[Future, Tuple[int, int, Optional[float]]] = {}
        clean = False
        try:
            while pending or inflight:
                pool = self._ensure_pool()
                while pending and len(inflight) < self.workers:
                    index, attempt = pending.popleft()
                    if attempt and self.backoff_s:
                        time.sleep(self.backoff_s * attempt)
                    future = pool.submit(
                        tasks[index].fn, *tasks[index].call_args(attempt)
                    )
                    deadline = (
                        time.monotonic() + self.task_timeout_s
                        if self.task_timeout_s is not None
                        else None
                    )
                    inflight[future] = (index, attempt, deadline)
                self._heartbeat(len(pending), len(inflight))
                done, _ = wait(
                    set(inflight), timeout=self.poll_s, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in sorted(done, key=lambda f: inflight[f][0]):
                    index, attempt, _ = inflight.pop(future)
                    error = future.exception()
                    if error is None:
                        outcome = outcomes[index]
                        outcome.ok = True
                        outcome.result = future.result()
                        outcome.attempts = attempt + 1
                        if on_outcome is not None:
                            on_outcome(outcome)
                    elif isinstance(error, BrokenProcessPool):
                        broken = True
                        self._attempt_failed(
                            tasks, outcomes, pending, index, attempt,
                            "crashes", "worker crashed (BrokenProcessPool)",
                            on_outcome,
                        )
                    else:
                        self._attempt_failed(
                            tasks, outcomes, pending, index, attempt,
                            "task_errors", f"{type(error).__name__}: {error}",
                            on_outcome,
                        )
                if broken:
                    # The executor is dead: every in-flight sibling will
                    # fail the same way, so charge them all one crash
                    # attempt now and respawn once.
                    for future in sorted(inflight, key=lambda f: inflight[f][0]):
                        index, attempt, _ = inflight.pop(future)
                        self._attempt_failed(
                            tasks, outcomes, pending, index, attempt,
                            "crashes", "worker crashed (BrokenProcessPool)",
                            on_outcome,
                        )
                    self._restart_pool()
                    continue
                if self.task_timeout_s is not None and inflight:
                    now = time.monotonic()
                    expired = {
                        future
                        for future, (_, _, deadline) in inflight.items()
                        if deadline is not None and now >= deadline
                    }
                    if expired:
                        # Hung workers can only be reclaimed by killing
                        # their processes, which takes the pool with
                        # them; in-flight innocents requeue uncharged.
                        for future in sorted(
                            inflight, key=lambda f: inflight[f][0]
                        ):
                            index, attempt, _ = inflight.pop(future)
                            if future in expired:
                                self._attempt_failed(
                                    tasks, outcomes, pending, index, attempt,
                                    "timeouts",
                                    f"timed out after {self.task_timeout_s:.1f}s",
                                    on_outcome,
                                )
                            else:
                                self._count("requeued")
                                pending.append((index, attempt))
                        self._restart_pool()
            # Final beat so the gauges read drained, not last-polled.
            self._last_beat = None
            self._heartbeat(0, 0)
            clean = True
        finally:
            self._shutdown(force=not clean)
        return outcomes

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------

    def _heartbeat(self, n_pending: int, n_inflight: int) -> None:
        """Cadenced liveness gauges for the live watcher.

        Runs once per ``heartbeat_s`` inside the supervision loop:
        ``resilience.heartbeat`` (beat count), ``resilience.queue_depth``
        and ``resilience.inflight`` say the supervisor is alive and what
        it is holding — a watcher seeing a stale heartbeat knows the
        parent is gone, not just slow.  Gauges only (excluded from the
        deterministic metrics), so workers=N == workers=1 still holds
        on the clean path.
        """
        if not self.obs.enabled:
            return
        now = time.monotonic()
        if self._last_beat is not None and now - self._last_beat < self.heartbeat_s:
            return
        self._last_beat = now
        self._beats += 1
        metrics = self.obs.metrics
        metrics.gauge("resilience.heartbeat").set(self._beats)
        metrics.gauge("resilience.queue_depth").set(n_pending)
        metrics.gauge("resilience.inflight").set(n_inflight)
        timeseries = self.obs.timeseries
        if timeseries is not None:
            timeseries.sample()

    # ------------------------------------------------------------------
    # failure accounting
    # ------------------------------------------------------------------

    def _attempt_failed(
        self,
        tasks: Sequence[SupervisedTask],
        outcomes: List[TaskOutcome],
        pending: Deque[Tuple[int, int]],
        index: int,
        attempt: int,
        kind: str,
        message: str,
        on_outcome: Optional[Callable[[TaskOutcome], None]],
    ) -> None:
        outcome = outcomes[index]
        outcome.attempts = attempt + 1
        outcome.failures.append(message)
        self._count(kind)
        if attempt < self.max_retries:
            self._count("retries")
            logger.warning(
                "task %s attempt %d/%d failed (%s); retrying",
                tasks[index].name, attempt + 1, self.max_retries + 1, message,
            )
            pending.append((index, attempt + 1))
        else:
            self._count("giveups")
            logger.error(
                "task %s exhausted %d attempt(s): %s",
                tasks[index].name, attempt + 1, message,
            )
            if on_outcome is not None:
                on_outcome(outcome)

    def _count(self, kind: str) -> None:
        self.stats[kind] = self.stats.get(kind, 0) + 1
        if self.obs.enabled:
            self.obs.metrics.inc(f"resilience.{kind}")
            timeseries = self.obs.timeseries
            if timeseries is not None:
                # Incidents are rare: mark each one so the watcher can
                # anchor retry/crash spikes to wall-clock time.
                timeseries.mark(f"resilience.{kind}")
                timeseries.sample()

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._pool

    def _restart_pool(self) -> None:
        self._count("pool_restarts")
        logger.warning("supervised pool restarting (%d worker(s))", self.workers)
        self._kill_pool()

    def _kill_pool(self) -> None:
        """Tear the executor down hard, reaping hung/dead workers.

        The worker snapshot is taken only after ``shutdown`` has flagged
        the executor and its management thread has finished (or stalled
        on a hung worker), so no worker it starts in between escapes the
        kill.  The thread is joined again after the kill so that it is
        not still reaping a worker when this returns.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        # CPython internals, stable across 3.8+: the worker dict (shared
        # with the management thread; shutdown() drops the executor's
        # reference to it) is the only handle on hung workers, which
        # ignore shutdown().
        processes = getattr(pool, "_processes", None)
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(timeout=_MANAGER_JOIN_S)
        workers = list(dict(processes or {}).values())
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
        if manager is not None:
            manager.join(timeout=_MANAGER_JOIN_S)
        for proc in workers:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn worker
                proc.kill()
                proc.join(timeout=2.0)

    def _shutdown(self, *, force: bool) -> None:
        """Final cleanup: graceful when the run completed, hard kill
        (terminate + ``cancel_futures=True``) on error or interrupt so
        no worker process is ever orphaned."""
        if force:
            self._kill_pool()
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
