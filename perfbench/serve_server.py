"""Entry script of the ``serve`` workload's server process.

Builds the standard experiment from the benchmark's store, serves it
with a block-policy ``ServeServer`` and prints one JSON line with the
bound port.  It then takes one command per stdin line and answers each
with one JSON line on stdout:

* ``stats`` — CPU seconds and peak RSS of this process so far;
* ``calibrate`` — seconds the host-speed calibration kernel takes in
  this process now (``harness.calibrate``);
* ``trace_on`` / ``trace_off`` — open / close a root span (with
  ``--trace 1``, which installs the layer wrappers before serving);
* ``frames`` — queue-wait and residence percentiles of the window
  frames handled since the previous ``frames`` (see ``FrameClock``);
* ``stop`` — drain and stop the server; with ``--trace 1`` the answer
  carries the per-layer breakdown and the spans go to ``--spans``.

Run by ``perfbench/serving.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import resource
import sys
import threading
import time
from typing import Dict, List

import harness
import spans


class FrameClock(spans.Patches):
    """Times each window frame inside the server, from decode onwards.

    ``wait`` runs from the frame's decode (in the connection's reader
    pump) to the start of its ``Session.handle`` — time in the server's
    queue; ``residence`` to the end of ``handle``, when the decision is
    made.  The decoded frame object is the key: it sits in the queue
    between the two calls, so its id is unique meanwhile.  Two clock
    reads per frame, so the clock runs in untraced servers too.
    """

    def __init__(self) -> None:
        super().__init__()
        self.waits: List[float] = []
        self.residences: List[float] = []
        self._decoded: Dict[int, float] = {}

    def install(self) -> None:
        from repro.serve.session import Session

        decoded = self._decoded
        waits, residences = self.waits, self.residences
        clock = time.perf_counter

        def stamp(decode):
            @functools.wraps(decode)
            def stamped_decode(payload):
                frame = decode(payload)
                decoded[id(frame)] = clock()
                return frame

            return stamped_decode

        def time_handle(handle):
            @functools.wraps(handle)
            def timed_handle(session, frame, *args, **kwargs):
                start = clock()
                decoded_at = decoded.pop(id(frame), None)
                replies = handle(session, frame, *args, **kwargs)
                if decoded_at is not None and frame.get("type") == "window":
                    waits.append(start - decoded_at)
                    residences.append(clock() - decoded_at)
                return replies

            return timed_handle

        self.patch_function("repro.serve.protocol", "decode_frame", stamp)
        self.patch_method(Session, "handle", time_handle)

    def window(self) -> Dict[str, float]:
        """Percentiles since the last call, in milliseconds."""
        waits = [value * 1e3 for value in self.waits]
        residences = [value * 1e3 for value in self.residences]
        self.waits.clear()
        self.residences.clear()
        return {
            "frames": len(residences),
            "wait_p50_ms": spans.percentile(waits, 50),
            "wait_p99_ms": spans.percentile(waits, 99),
            "residence_p50_ms": spans.percentile(residences, 50),
            "residence_p99_ms": spans.percentile(residences, 99),
        }


def _usage() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": harness.peak_rss_mb()}


def _reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


async def serve(root: str, trace: bool, spans_path: str) -> None:
    from repro.serve.server import ServeServer
    from repro.serve.session import EngineCatalog, ServeProfile

    experiment = harness.build_experiment(root, 60)
    catalog = EngineCatalog([ServeProfile.from_experiment("default", experiment)])
    frames = FrameClock()
    frames.install()
    tracer = spans.SpanTracer()
    if trace:
        spans.install_layers(tracer)
    server = ServeServer(catalog, overload="block")
    await server.start()

    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "stop")

    threading.Thread(target=read_commands, daemon=True).start()
    _reply({"port": server.port})

    root_span = None
    cpu_at_trace_on = traced_cpu = 0.0
    while True:
        command = await commands.get()
        if command == "stats":
            _reply(_usage())
        elif command == "calibrate":
            _reply({"calibration_s": harness.calibrate()})
        elif command == "trace_on":
            cpu_at_trace_on = _usage()["cpu_s"]
            root_span = tracer.open(spans.ROOT)
            _reply({"ok": True})
        elif command == "trace_off":
            tracer.close(root_span)
            traced_cpu += _usage()["cpu_s"] - cpu_at_trace_on
            _reply({"ok": True})
        elif command == "frames":
            _reply(frames.window())
        elif command == "stop":
            break
        else:
            _reply({"error": f"unknown command {command!r}"})
    await server.stop()

    final = _usage()
    if trace:
        tracer.unpatch()
        tracer.write(spans_path)
        final["layers"] = spans.per_layer_metrics(tracer, {"serve.server.cpu_s": traced_cpu})
    _reply(final)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=os.devnull)
    args = parser.parse_args(argv)
    harness.pin_threads()
    sys.path.insert(0, os.path.join(args.root, "src"))
    asyncio.run(serve(args.root, bool(args.trace), args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
