"""Load generator for the ``serve`` workload, in its own process.

Replays pre-encoded device tapes against a running ``ServeServer`` over
``CONNECTIONS`` TCP connections, one session per connection
at a time: a finished tape closes its session and the connection opens
the next.  It imports only the standard library and the benchmark's
stdlib-only ``spans`` (for its percentile).  Frames arrive
encoded and each reply is first compared byte for byte with the
expected decision frame, so the generator spends little CPU and none
of it in the repository's code.

In the open loop each connection has a sender thread, which sleeps
until a window is due and sends it, and a receiver thread, which reads
and checks replies (blocking sockets: ``time.sleep`` wakes within tens
of microseconds, where an event loop's timers round up to whole
milliseconds).

Once its tapes are loaded it prints ``{"ready": true}`` and waits for a
``go`` line on stdin, so whoever drives it can bracket exactly the load
(e.g. a traced server's root span).  Two modes, each then printing one
JSON object:

* ``open`` — open loop: window ``k`` of a connection is *due* at
  ``start + k / (rate / connections)`` and is sent then, however far
  behind the server is.  Its latency runs from that due time to its
  decision, so a stall is charged to every window queued behind it.
  ``--rates`` runs several rates back to back, one phase each,
  stopping after the first phase whose p99 misses ``--limit-ms``.
* ``saturate`` — closed loop: each connection keeps ``IN_FLIGHT``
  windows outstanding for ``--seconds``; the decided count over the
  phase wall is the throughput.

Every decision is checked against the tape; a mismatch, a shed or error
reply, or a window never decided counts as failed (and, in the open
loop, as infinitely late).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import socket
import struct
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from spans import percentile

_LENGTH = struct.Struct(">I")

#: Seconds a session waits for its outstanding decisions after ``bye``.
DRAIN_S = 10.0

#: Windows each connection keeps outstanding in the saturated loop.
IN_FLIGHT = 16

#: Concurrent connections (never above nproc, so the generator's
#: threads do not queue for the CPUs the server needs).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


class Tape:
    def __init__(self, document: Dict[str, Any]) -> None:
        self.hello = bytes.fromhex(document["hello"])
        self.bye = bytes.fromhex(document["bye"])
        self.frames = [bytes.fromhex(frame) for frame in document["frames"]]
        self.decisions = [bytes.fromhex(frame) for frame in document["decisions"]]
        self.labels = document["expected_labels"]
        self.actives = document["expected_active"]

    def matches(self, slot: int, payload: bytes) -> bool:
        """Whether ``payload`` is the decision the tape expects at ``slot``."""
        # Same decision, other encoding (e.g. key order): compare by meaning.
        if slot >= len(self.labels):
            return False
        try:
            frame = json.loads(payload)
        except ValueError:
            return False
        if not isinstance(frame, dict):
            return False
        expected_next = self.actives[slot + 1] if slot + 1 < len(self.actives) else None
        return (
            frame.get("type") == "decision"
            and not frame.get("shed")
            and frame.get("slot") == slot
            and frame.get("label") == self.labels[slot]
            and frame.get("active_next") == expected_next
        )


def load_tapes(path: str) -> List[Tape]:
    with open(path) as handle:
        return [Tape(document) for document in json.load(handle)]


class Phase:
    """Counters of one phase, shared by its connections' threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sent = 0
        self.decided = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.last_decision = 0.0

    def fail(self) -> None:
        with self.lock:
            self.failed += 1


class Replies:
    """One session's replies, read from a blocking socket and checked in order.

    The replies a tape should get are known byte for byte, so a buffered
    reply equal to the expected frame is accepted with one comparison;
    anything else is parsed and compared by meaning (:meth:`Tape.matches`).
    """

    def __init__(self, sock: socket.socket, tape: Tape) -> None:
        self.sock = sock
        self.tape = tape
        self.buffer = b""
        self.offset = 0
        self.slot = 0
        self.bad: List[int] = []

    def fill(self) -> None:
        """Block until more bytes arrive; ConnectionError at end of stream."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the session")
        self.buffer = self.buffer[self.offset :] + chunk
        self.offset = 0

    def _payload(self) -> Optional[bytes]:
        """The next whole buffered frame's payload, or None."""
        if len(self.buffer) - self.offset < _LENGTH.size:
            return None
        (length,) = _LENGTH.unpack_from(self.buffer, self.offset)
        end = self.offset + _LENGTH.size + length
        if len(self.buffer) < end:
            return None
        payload = self.buffer[self.offset + _LENGTH.size : end]
        self.offset = end
        return payload

    def frame(self) -> Dict[str, Any]:
        """The next frame, decoded (hello_ack, bye_ack)."""
        payload = self._payload()
        while payload is None:
            self.fill()
            payload = self._payload()
        return json.loads(payload)

    def check(self, limit: int) -> None:
        """Check decisions up to slot ``limit``; blocks until at least one."""
        decisions = self.tape.decisions
        progressed = False
        while self.slot < limit:
            expected = decisions[self.slot] if self.slot < len(decisions) else b""
            if expected and self.buffer.startswith(expected, self.offset):
                self.offset += len(expected)
            else:
                payload = self._payload()
                if payload is None:
                    if progressed:
                        return
                    self.fill()
                    continue
                if not self.tape.matches(self.slot, payload):
                    self.bad.append(self.slot)
            self.slot += 1
            progressed = True


def _session(address, tape: Tape, run_windows: Callable) -> None:
    """One device session: connect, hello, ``run_windows`` (which ends
    by sending ``bye``), then the ``bye_ack``."""
    with socket.create_connection(address) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        replies = Replies(sock, tape)
        sock.sendall(tape.hello)
        if replies.frame().get("type") != "hello_ack":
            raise ConnectionError("no hello_ack")
        run_windows(sock, replies)
        if replies.frame().get("type") != "bye_ack":
            raise ConnectionError("no bye_ack")


def _receive(replies: Replies, due: List[float], sending: threading.Event, phase: Phase):
    """Check decisions as they come; latency from each window's due time."""
    clock = time.perf_counter
    latencies: List[float] = []
    try:
        while True:
            done = not sending.is_set()
            limit = len(due)
            if replies.slot < limit:
                first = replies.slot
                replies.check(limit)
                now = clock()
                latencies.extend(now - due[slot] for slot in range(first, replies.slot))
            elif done:
                break
            else:
                replies.fill()
    except (ConnectionError, OSError):
        pass
    for slot in replies.bad:
        latencies[slot] = math.inf
    ok = [value for value in latencies if value != math.inf]
    with phase.lock:
        phase.decided += len(ok)
        phase.latencies.extend(ok)
        # Mismatched windows and windows never answered failed.
        phase.failed += len(due) - len(ok)
        phase.last_decision = max(phase.last_decision, clock())


def run_open_loop(address, tapes, first, step, phase: Phase, schedule) -> None:
    """Sessions over one connection slot, sending windows when due.

    A sender (this thread) sleeps until each window is due; a receiver
    thread checks the replies as they come.
    """
    clock = time.perf_counter
    late: List[float] = []
    sent = 0
    done = False

    def run_windows(sock, replies: Replies) -> None:
        nonlocal sent, done
        due: List[float] = []
        sending = threading.Event()
        sending.set()
        receiver = threading.Thread(
            target=_receive, args=(replies, due, sending, phase), daemon=True
        )
        receiver.start()
        try:
            for frame in replies.tape.frames:
                when = schedule()
                if when is None:
                    done = True
                    break
                delay = when - clock()
                if delay > 0:
                    time.sleep(delay)
                late.append(clock() - when)
                due.append(when)
                sock.sendall(frame)
                sent += 1
        finally:
            # The bye_ack that answers this wakes a receiver waiting for
            # replies to windows that were never sent.
            sending.clear()
            sock.sendall(replies.tape.bye)
            receiver.join(DRAIN_S)
            if receiver.is_alive():
                sock.shutdown(socket.SHUT_RDWR)
                receiver.join()

    index = first
    while not done:
        tape = tapes[index % len(tapes)]
        index += step
        try:
            _session(address, tape, run_windows)
        except (ConnectionError, OSError):
            phase.fail()
            break
    with phase.lock:
        phase.sent += sent
        phase.late.extend(late)


def run_saturated(address, tapes, first, step, phase: Phase, stop_at: float):
    """Sessions over one connection slot, ``IN_FLIGHT`` windows outstanding.

    One thread: the credits freed by each batch of replies are spent in
    one send.
    """
    clock = time.perf_counter
    sent = decided = failed = 0
    done = False
    last = 0.0

    def run_windows(sock, replies: Replies) -> None:
        nonlocal sent, decided, failed, done, last
        frames = replies.tape.frames
        next_slot = min(IN_FLIGHT, len(frames))
        sock.sendall(b"".join(frames[:next_slot]))
        try:
            while replies.slot < next_slot:
                answered = replies.slot
                replies.check(next_slot)
                last = clock()
                if not done and last >= stop_at:
                    done = True
                if not done:
                    batch = frames[next_slot : next_slot + replies.slot - answered]
                    if batch:
                        sock.sendall(b"".join(batch))
                        next_slot += len(batch)
        finally:
            sent += next_slot
            decided += replies.slot - len(replies.bad)
            failed += next_slot - replies.slot + len(replies.bad)
        sock.sendall(replies.tape.bye)

    index = first
    while not done:
        tape = tapes[index % len(tapes)]
        index += step
        try:
            _session(address, tape, run_windows)
        except (ConnectionError, OSError):
            failed += 1
            break
    with phase.lock:
        phase.sent += sent
        phase.decided += decided
        phase.failed += failed
        phase.last_decision = max(phase.last_decision, last)


def run_phase(target, make_args) -> Phase:
    """Run ``target`` on every connection slot at once; the merged phase."""
    phase = Phase()
    threads = [
        threading.Thread(target=target, args=make_args(i, phase))
        for i in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase


def summarize(phase: Phase, start: float) -> Dict[str, Any]:
    result = {
        "sent": phase.sent,
        "decided": phase.decided,
        "failed": phase.failed,
        "wall_s": (phase.last_decision or time.perf_counter()) - start,
    }
    if phase.late:  # an open-loop phase
        # Failed windows never met any latency limit.
        latencies = phase.latencies + [math.inf] * phase.failed
        result["p50_ms"] = percentile(latencies, 50) * 1e3
        result["p99_ms"] = percentile(latencies, 99) * 1e3
        result["late_max_ms"] = max(phase.late) * 1e3
    return result


def open_loop(args, tapes: List[Tape], rate: float, first: int) -> Dict[str, Any]:
    """One open-loop phase; connection ``i`` starts at tape ``first + i``."""
    per_connection = rate / CONNECTIONS
    count = int(per_connection * args.seconds)
    start = time.perf_counter() + 0.05

    def make_schedule():
        sent = 0

        def schedule() -> Optional[float]:
            nonlocal sent
            if sent >= count:
                return None
            sent += 1
            return start + (sent - 1) / per_connection

        return schedule

    phase = run_phase(
        run_open_loop,
        lambda i, phase: (
            (args.host, args.port), tapes, first + i, CONNECTIONS, phase,
            make_schedule(),
        ),
    )
    result = summarize(phase, start)
    result["rate"] = rate
    return result


def saturate(args, tapes: List[Tape]) -> Dict[str, Any]:
    start = time.perf_counter()
    phase = run_phase(
        run_saturated,
        lambda i, phase: (
            (args.host, args.port), tapes, i, CONNECTIONS, phase,
            start + args.seconds,
        ),
    )
    return summarize(phase, start)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tapes", required=True)
    parser.add_argument("--mode", choices=("open", "saturate"), required=True)
    parser.add_argument("--rates", type=lambda s: [float(r) for r in s.split(",")], default=[])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit-ms", type=float, default=math.inf)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tapes = load_tapes(args.tapes)
    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    if args.mode == "saturate":
        result: Dict[str, Any] = saturate(args, tapes)
    else:
        phases = []
        for index, rate in enumerate(args.rates):
            phases.append(open_loop(args, tapes, rate, index))
            if phases[-1]["p99_ms"] > args.limit_ms:
                break
        result = {"phases": phases}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
