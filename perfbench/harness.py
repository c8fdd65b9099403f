"""Shared plumbing of the benchmark: host hygiene, fixtures, results.

Every benchmark process runs pinned (:func:`pin_threads`, inherited by
the serve server and the load generator through :func:`child_env`)
before numpy is imported: an unpinned OpenBLAS spins extra threads on
the batched softmax and burns CPU time for no wall-time gain, which
skews CPU-based metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

#: Thread-count variables honoured by OpenBLAS, MKL, OpenMP and BLIS.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Work directory of the benchmark, relative to the checkout root:
#: the trained-bundle store, serve tapes and trace files live here.
WORK_DIR = os.path.join(".bench_build", "perfbench")

#: Experiment seed of every workload (the trained bundle's identity).
EXPERIMENT_SEED = 7

#: Seconds of real time one decided window stands for (2.56 s at
#: 50 Hz x 128 samples): a core deciding W windows/s carries W x 2.56
#: always-on devices.
WINDOW_S = 2.56


#: Seconds the calibration kernel took on the reference host (an
#: arbitrary fixed constant: it sets the scale of "reference seconds").
REFERENCE_CALIBRATION_S = 0.015


def _calibration_kernel() -> float:
    """Fixed interpreter and small-array work, independent of the repo."""
    import numpy as np

    table = {}
    total = 0.0
    vector = np.zeros(64)
    for i in range(40000):
        table[i & 1023] = i
        total += (i * 0.5) % 7.0
        if i % 8 == 0:
            vector = np.minimum(vector + 1.0, 100.0)
    return total + float(vector[0]) + len(table)


def calibrate() -> float:
    """Seconds the calibration kernel takes here and now (median of 5)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def host_factor(before_s: float, after_s: float) -> float:
    """How much slower than the reference this host ran between two
    calibrations: host seconds per reference second.

    A shared host's speed drifts by tens of percent within minutes; the
    benchmark divides every timing by this factor (taken around the
    timed work it scales), so its figures are in *reference seconds*
    and runs made at different moments compare.  The raw host-second
    figures are printed next to them.
    """
    return (before_s + after_s) / 2.0 / REFERENCE_CALIBRATION_S


def timed(build):
    """``build()`` and its duration in reference seconds."""
    before = calibrate()
    start = time.perf_counter()
    result = build()
    seconds = time.perf_counter() - start
    return result, seconds / host_factor(before, calibrate())


def pin_threads(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Pin ``env`` (default: ours) for repeatable processes.

    Every BLAS/OpenMP pool gets one thread, and string hashing a fixed
    seed: a random one per process reorders dicts and sets and moves
    timings between runs of the same inputs.
    """
    env = os.environ if env is None else env
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def checkout_root() -> str:
    """The directory holding ``src/repro``; exits 2 when there is none."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "perfbench: run from the root of a repository checkout "
            "(src/repro is missing here)\n"
        )
        sys.exit(2)
    return root


def child_env(root: str) -> Dict[str, str]:
    """Environment for benchmark processes: pinned, ``src`` importable,
    the repository's default artifact store inside the checkout."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_STORE_DIR"] = store_dir(root)
    return env


def store_dir(root: str) -> str:
    return os.path.join(root, WORK_DIR, "store")


def work_path(root: str, *parts: str) -> str:
    path = os.path.join(root, WORK_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest(root: str) -> str:
    """SHA-256 over ``src/`` (the checkout may not be a git tree)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_sha(root: str) -> Optional[str]:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()[:12]
        return ref[:12]
    except OSError:
        return None


def host_fingerprint(root: str) -> Dict[str, Any]:
    """Where a number was measured: compare absolutes only on one host."""
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_experiment(root: str, n_windows: int):
    """``HARExperiment.standard_mhealth`` backed by the benchmark's store."""
    from repro.sim.experiment import HARExperiment, SimulationConfig
    from repro.store.core import ArtifactStore

    return HARExperiment.standard_mhealth(
        seed=EXPERIMENT_SEED,
        config=SimulationConfig(n_windows=n_windows),
        store=ArtifactStore(store_dir(root)),
    )


def warm_store(root: str) -> None:
    """Fill the benchmark's store in a child process.

    A cold checkout trains the bundle there once; the measuring process
    then only loads from disk, so its peak RSS never holds training.
    """
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), root],
        env=child_env(root),
        cwd=root,
        check=True,
    )


def record_stream(records: Iterable[Any]) -> List[int]:
    """One run's integer decision stream: label, active set, outcomes per slot."""
    stream: List[int] = []
    for record in records:
        label = record.predicted_label
        mask = 0
        for node_id in record.active_nodes:
            mask |= 1 << int(node_id)
        stream.extend(
            (
                -1 if label is None else int(label),
                mask,
                int(record.completions),
                int(record.attempts),
                int(record.dropped_messages),
            )
        )
    return stream


def stream_digest(streams: Iterable[List[int]]) -> str:
    digest = hashlib.sha256()
    for stream in streams:
        digest.update(json.dumps(stream, separators=(",", ":")).encode())
        digest.update(b";")
    return digest.hexdigest()[:16]


def emit(
    metrics: Dict[str, Any],
    units: Dict[str, str],
    *,
    attempted: int,
    failed: int,
    details: Dict[str, Any],
) -> None:
    """Print every metric with its unit, then the one-line JSON result."""
    for key, value in details.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"error_rate = {error_rate} fraction ({failed} failed of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()


if __name__ == "__main__":
    build_experiment(sys.argv[1], 60)
