"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep|fleet|faults|serve \\
        --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that reports the per-layer
breakdown (calls, items, self time and share of the traced wall per
layer) and the tracing overhead.  Both check the workload's outputs
against an independent path and print every metric with its unit, then
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

The first run in a checkout trains the bundle into the benchmark's own
store under ``.bench_build/perfbench`` (about a minute); later runs load
it.  ``--smoke`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

WORKLOAD_NAMES = ("sweep", "fleet", "faults", "serve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def metric_units(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash seeding is fixed at interpreter start: restart pinned.
        env = harness.pin_threads(dict(os.environ))
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    harness.pin_threads()
    args = parse_args(argv)
    root = harness.checkout_root()
    sys.path.insert(0, os.path.join(root, "src"))
    # Any store the repository opens by default stays in the checkout.
    os.environ.update(harness.child_env(root))
    units = metric_units(root, bool(args.trace))

    # Warm the store before any timed region, in another process.
    harness.warm_store(root)

    if args.workload == "serve":
        import serving

        outcome = serving.run_serve(
            root, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    else:
        import batch

        outcome = batch.run_workload(
            args.workload, root, args.seed, args.seconds, bool(args.trace), args.smoke
        )

    metrics = outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: workload did not report {missing}")
    details = {"host": harness.host_fingerprint(root), **outcome["details"]}
    harness.emit(
        {name: metrics[name] for name in units},
        units,
        attempted=outcome["attempted"],
        failed=outcome["failed"],
        details=details,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
