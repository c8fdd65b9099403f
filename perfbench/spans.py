"""In-memory span tracing for the benchmark's traced runs.

The benchmark times the repository's layers from the outside: it wraps
the public functions each layer exposes (``SignalSynthesizer.window``,
``SlotKernel.advance``, ``DecisionEngine.begin_slot`` ...) and records
one span per call — name, start, end and the span that was open when
the call began.  Nothing under ``src/`` changes.

A module-level function is patched at every *lookup site*: modules that
did ``from repro.sim.predcache import build_run_material`` hold their
own reference, so :func:`SpanTracer.wrap_function` replaces the object
in every loaded module that binds it.  Methods are patched on their
class, which covers every caller.

Spans stay in memory (parallel lists, a few hundred bytes each) and are
written out by :meth:`SpanTracer.write` when the run ends.  A layer's
self time is its spans' durations minus the part their child spans
cover; :func:`layer_report` derives it from the raw spans, so the self
times of every layer plus the root's sum to the traced wall time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Every layer the breakdown reports, in a fixed order.  Names are the
#: repository's modules; ``sim.kernel`` is split into the vectorized
#: physics (``.advance``) and the per-run Python epilogue around it.
LAYERS = (
    "datasets.synthesis",
    "nn.model",
    "sim.predcache",
    "sim.kernel.advance",
    "sim.kernel.epilogue",
    "wsn.network",
    "faults.engine",
    "core.engine",
    "fleet.aggregate",
    "serve.protocol",
    "serve.session",
)

ROOT = "root"


def _one(*_args, **_kwargs) -> int:
    return 1


class Patches:
    """Replaces attributes of classes and modules, and puts them back.

    ``make`` turns the original attribute into its replacement.  The
    span tracer and the benchmark's always-on clocks patch through this.
    """

    def __init__(self) -> None:
        self._restore: List[tuple] = []

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def patch_function(self, module: str, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` in every loaded module that binds it."""
        original = getattr(sys.modules[module], attr)
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, replacement)
                self._restore.append((loaded, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


class SpanTracer(Patches):
    """Records nested spans of wrapped calls on one thread.

    ``items`` functions turn a call's arguments and result into the
    amount of work it did (windows, lane-slots, bytes); by default a
    call is one item.  Re-entering the layer that is already open (a
    wrapped ``window`` calling a wrapped ``batch``) records no second
    span, so calls and items count each unit of work once.  Calls made
    while no root span is open are not recorded.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__()
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.items: List[int] = []
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.items.append(0)
        self._stack.append(index)
        return index

    def close(self, index: int, items: int = 1) -> None:
        self.ends[index] = self.clock()
        self.items[index] = int(items)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def current(self) -> Optional[str]:
        return self.names[self._stack[-1]] if self._stack else None

    def wrapper(self, layer: str, func: Callable, items: Callable = _one) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer._stack or tracer.current() == layer:
                return func(*args, **kwargs)
            index = tracer.open(layer)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.close(index, items(args, kwargs, result))

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def wrap_method(self, cls: type, attr: str, layer: str, items: Callable = _one) -> None:
        self.patch_method(cls, attr, lambda original: self.wrapper(layer, original, items))

    def wrap_function(self, module: str, attr: str, layer: str, items: Callable = _one) -> None:
        """Wrap ``module.attr`` in every loaded module that binds it."""
        self.patch_function(module, attr, lambda original: self.wrapper(layer, original, items))

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as handle:
            for i, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                            "items": self.items[i],
                        }
                    )
                    + "\n"
                )


def layer_report(tracer: SpanTracer) -> Dict[str, Dict[str, float]]:
    """Per-name calls, items and self time from the recorded spans.

    Self time is a span's duration minus its direct children's
    durations; spans nest strictly on one thread, so the children of a
    span never overlap and this equals the part of the interval no
    child covers.
    """
    child_time = [0.0] * len(tracer.names)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += tracer.ends[i] - tracer.starts[i]
    report: Dict[str, Dict[str, float]] = {}
    for i, name in enumerate(tracer.names):
        row = report.setdefault(name, {"calls": 0, "items": 0, "self_s": 0.0})
        row["calls"] += 1
        row["items"] += tracer.items[i]
        row["self_s"] += (tracer.ends[i] - tracer.starts[i]) - child_time[i]
    return report


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values).

    Between a finite and an infinite value (a window that never got a
    decision) the percentile is infinite.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    if position == low:
        return ordered[low]
    high = ordered[low + 1]
    if math.isinf(high):
        return high
    return ordered[low] + (high - ordered[low]) * (position - low)


def per_layer_metrics(
    tracer: SpanTracer, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, float]:
    """Flatten the report into ``<layer>.calls/items/self_s/share``.

    ``share`` is self time over the traced wall (the summed root
    spans).  Every layer appears, with zeros where the workload never
    entered it.
    """
    report = layer_report(tracer)
    root = report.get(ROOT)
    if root is None:
        raise RuntimeError("a traced run needs a root span")
    wall = sum(
        tracer.ends[i] - tracer.starts[i]
        for i, name in enumerate(tracer.names)
        if name == ROOT and tracer.parents[i] < 0
    )
    metrics: Dict[str, float] = {"trace.wall_s": wall}
    for layer in LAYERS:
        row = report.get(layer, {"calls": 0, "items": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.items"] = row["items"]
        metrics[f"{layer}.self_s"] = row["self_s"]
        metrics[f"{layer}.share"] = row["self_s"] / wall if wall > 0 else 0.0
    metrics["root.self_s"] = root["self_s"]
    metrics["root.share"] = root["self_s"] / wall if wall > 0 else 0.0
    if extra:
        metrics.update(extra)
    return metrics


# ----------------------------------------------------------------------
# the repository's layer boundaries
# ----------------------------------------------------------------------


def _rows(args, kwargs, result) -> int:
    return int(result.shape[0])


def _lane_slots(args, kwargs, result) -> int:
    return int(result.active.shape[0])


def _run_slots(args, kwargs, result) -> int:
    return sum(len(run.records) for group in result for run in group)


def _length(args, kwargs, result) -> int:
    return len(result)


def _bytes_in(args, kwargs, result) -> int:
    return len(args[0])


def install_layers(tracer: SpanTracer) -> None:
    """Wrap every layer boundary the workloads cross.

    Imports the modules first so each lookup site exists when
    :meth:`SpanTracer.wrap_function` scans for it.  The batch workloads
    never call the serve codec, so its wrappers cost them nothing.
    """
    import repro.fleet.runner  # noqa: F401  (binds user_metrics, build_run_material)
    import repro.serve.client  # noqa: F401
    import repro.sim.experiment  # noqa: F401
    import repro.sim.kernel  # noqa: F401
    from repro.core.engine import DecisionEngine
    from repro.datasets.synthesis import SignalSynthesizer
    from repro.faults.engine import FaultEngine
    from repro.fleet.aggregate import FleetAggregate
    from repro.nn.model import Sequential
    from repro.serve.session import Session
    from repro.sim.kernel import SlotKernel
    from repro.wsn.network import BodyAreaNetwork

    tracer.wrap_method(SignalSynthesizer, "window", "datasets.synthesis")
    tracer.wrap_method(SignalSynthesizer, "batch", "datasets.synthesis", _rows)
    tracer.wrap_method(Sequential, "predict_proba", "nn.model", _rows)
    tracer.wrap_function("repro.sim.predcache", "build_run_material", "sim.predcache")
    tracer.wrap_method(SlotKernel, "advance", "sim.kernel.advance", _lane_slots)
    tracer.wrap_function("repro.sim.kernel", "run_group_batch", "sim.kernel.epilogue", _run_slots)
    tracer.wrap_method(BodyAreaNetwork, "step_slot", "wsn.network", _length)
    tracer.wrap_method(FaultEngine, "begin_slot", "faults.engine")
    tracer.wrap_method(DecisionEngine, "begin_slot", "core.engine")
    tracer.wrap_method(DecisionEngine, "finish_slot", "core.engine")
    tracer.wrap_method(FleetAggregate, "add_user", "fleet.aggregate")
    tracer.wrap_method(FleetAggregate, "merge", "fleet.aggregate")
    tracer.wrap_function("repro.fleet.runner", "user_metrics", "fleet.aggregate")
    tracer.wrap_function("repro.serve.protocol", "encode_frame", "serve.protocol", _length)
    tracer.wrap_function("repro.serve.protocol", "decode_frame", "serve.protocol", _bytes_in)
    tracer.wrap_method(Session, "handle", "serve.session")
