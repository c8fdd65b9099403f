"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

The smoke tests run every workload end to end at a small size; the
first one in a fresh checkout trains the benchmark's bundle store
(about a minute).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import socket
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import batch  # noqa: E402
import harness  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class _Clock:
    """A clock that advances one unit per reading."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_times_plus_root_sum_to_traced_wall():
    tracer = spans.SpanTracer(clock=_Clock())
    inner = tracer.wrapper("core.engine", lambda: None)
    outer = tracer.wrapper("sim.kernel.epilogue", lambda: [inner() for _ in range(3)])
    for _ in range(2):
        root = tracer.open(spans.ROOT)
        outer()
        inner()
        tracer.close(root)
    metrics = spans.per_layer_metrics(tracer)
    total = metrics["root.self_s"] + sum(
        metrics[f"{layer}.self_s"] for layer in spans.LAYERS
    )
    assert total == metrics["trace.wall_s"]
    assert metrics["core.engine.calls"] == 8
    # Each inner span is 1 unit; the outer span's 7 units minus 3 children.
    assert metrics["core.engine.self_s"] == 8.0
    assert metrics["sim.kernel.epilogue.self_s"] == 2 * (7.0 - 3.0)


def test_reentering_a_layer_records_one_span():
    tracer = spans.SpanTracer(clock=_Clock())
    batch_fn = tracer.wrapper("datasets.synthesis", lambda: "windows")
    window_fn = tracer.wrapper("datasets.synthesis", lambda: batch_fn())
    root = tracer.open(spans.ROOT)
    window_fn()
    tracer.close(root)
    assert spans.layer_report(tracer)["datasets.synthesis"]["calls"] == 1


def test_calls_outside_a_root_are_not_recorded():
    tracer = spans.SpanTracer()
    tracer.wrapper("core.engine", lambda: None)()
    assert tracer.names == []


def test_wrap_function_patches_every_lookup_site():
    def target():
        return "original"

    home = types.ModuleType("perfbench_test_home")
    user = types.ModuleType("perfbench_test_user")
    home.target = user.target = target
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        tracer = spans.SpanTracer()
        tracer.wrap_function(home.__name__, "target", "core.engine")
        assert home.target is not target and user.target is not target
        root = tracer.open(spans.ROOT)
        assert user.target() == "original"
        tracer.close(root)
        assert tracer.names.count("core.engine") == 1
        tracer.unpatch()
        assert home.target is target and user.target is target
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_root_span_covers_only_the_timed_call():
    tracer = spans.SpanTracer()
    workload = batch.Workload(ROOT, seed=1, smoke=True)
    workload.tracer = tracer
    harness.calibrate()  # harness work around the call stays outside
    _, wall, _ = workload.timed_call(lambda: time.sleep(0.02))
    (root,) = [i for i, name in enumerate(tracer.names) if name == spans.ROOT]
    assert 0 <= (tracer.ends[root] - tracer.starts[root]) - wall < 1e-3


def test_percentile_is_infinite_next_to_a_lost_window():
    assert spans.percentile([], 50) == 0.0
    assert spans.percentile([1.0, 3.0], 50) == 2.0
    assert spans.percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert spans.percentile([1.0, 2.0, math.inf], 99) == math.inf


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------


def _records(labels):
    from repro.sim.results import SlotRecord

    return [
        SlotRecord(
            slot_index=i, true_label=0, predicted_label=label,
            active_nodes=(i % 3,), completions=1, attempts=1,
        )
        for i, label in enumerate(labels)
    ]


def test_batch_check_flags_one_perturbed_decision():
    from repro.sim.results import ExperimentResult

    labels = [0, 1, 1, 2, None, 3]
    reference = ExperimentResult(policy_name="Origin-12", activities=[])
    reference.records = _records(labels)
    perturbed = list(labels)
    perturbed[3] = 1

    class Experiment:
        def run(self, spec, **kwargs):
            return reference

    workload = batch.SweepWorkload(ROOT, seed=1, smoke=True)
    workload.experiment = Experiment()
    workload.grid = [types.SimpleNamespace(name="Origin-12")]
    good = batch.Rep(ops=1, slots=6, sampled={("Origin-12", 5): batch._cell_digest(reference)})
    assert workload.check([good]) == 0
    run = ExperimentResult(policy_name="Origin-12", activities=[])
    run.records = _records(perturbed)
    bad = batch.Rep(ops=1, slots=6, sampled={("Origin-12", 5): batch._cell_digest(run)})
    assert workload.check([bad]) == 1


def test_energy_check_flags_created_energy():
    stats = types.SimpleNamespace(harvested_j=1e-3, consumed_j=6e-4, leaked_j=3e-4)
    run = types.SimpleNamespace(node_stats={0: stats})
    assert batch.conserves_energy(run, 0.0)
    stats.consumed_j = 8e-4
    assert not batch.conserves_energy(run, 0.0)


def _tape(labels):
    import struct

    def frame(document):
        payload = json.dumps(document, separators=(",", ":")).encode()
        return (struct.pack(">I", len(payload)) + payload).hex()

    actives = [[0]] * (len(labels) + 1)
    return loadgen.Tape(
        {
            "hello": frame({"type": "hello"}),
            "bye": frame({"type": "bye"}),
            "frames": [frame({"type": "window", "slot": i}) for i in range(len(labels))],
            "decisions": [
                frame(
                    {
                        "type": "decision", "slot": i, "label": label, "shed": False,
                        "active_next": actives[i + 1] if i + 1 < len(labels) else None,
                    }
                )
                for i, label in enumerate(labels)
            ],
            "expected_labels": labels,
            "expected_active": actives[: len(labels)],
        }
    )


def test_serve_check_flags_one_perturbed_decision():
    labels = [1, 1, 2, 0, 4]
    tape = _tape(labels)
    served = _tape([1, 1, 3, 0, 4])  # slot 2 decided wrongly
    # The same decision under another key order still passes.
    reordered = json.dumps(
        {"label": 0, "type": "decision", "slot": 3, "shed": False, "active_next": [0]}
    ).encode()
    served.decisions[3] = len(reordered).to_bytes(4, "big") + reordered
    left, right = socket.socketpair()
    with left, right:
        right.sendall(b"".join(served.decisions))
        replies = loadgen.Replies(left, tape)
        while replies.slot < len(labels):
            replies.check(len(labels))
    assert replies.bad == [2]


# ----------------------------------------------------------------------
# end to end, smoke size
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["sweep", "fleet", "faults", "serve"])
def test_workload_prints_every_metric_with_its_unit(workload):
    done = _run(workload, trace=0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in _spec()["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
        assert any(
            line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
            for line in lines
        )
    assert set(result["metrics"]) == {m["name"] for m in _spec()["end_to_end"]}


@pytest.mark.parametrize("workload", ["sweep", "serve"])
def test_traced_run_reports_every_layer(workload):
    done = _run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    metrics = {
        name: value["value"]
        for name, value in json.loads(done.stdout.strip().splitlines()[-1])["metrics"].items()
    }
    assert set(metrics) == {m["name"] for m in _spec()["per_layer"]}
    total = metrics["root.self_s"] + sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["core.engine.calls"] > 0


def test_exits_nonzero_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sweep", trace=0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_fingerprint_names_the_host():
    fingerprint = harness.host_fingerprint(ROOT)
    assert {"cpu", "nproc", "python", "numpy", "git_sha", "src_sha256"} <= set(fingerprint)
    assert fingerprint["nproc"] == os.cpu_count()
    assert len(fingerprint["src_sha256"]) == 16
