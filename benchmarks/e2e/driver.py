"""The load generator: open-loop and closed-loop phases over raw samples.

One process, one thread per connection.  Latency phases are **open loop**:
each connection follows a fixed schedule; an operation whose predecessor is
still in flight goes out as soon as the connection frees, but is timed from
the instant it was *due*, so a server stall is charged to every operation it
delays (``repro loadgen`` times from send and hides that wait).  Capacity
phases are **closed loop**: the next operation goes out when the reply
arrives.  Raw samples are kept, so percentiles are exact.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReproError

from .workloads import ConnectionStream, Op

__all__ = [
    "OP_TIMEOUT",
    "Recorder",
    "closed_loop",
    "closed_loop_bursts",
    "execute",
    "merged",
    "open_loop",
    "percentile",
    "run_threads",
]

#: Socket timeout of every benchmark connection: an operation that takes
#: longer counts as failed instead of hanging the run.
OP_TIMEOUT = 20.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of raw samples (0 for an empty list)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Recorder:
    """What one connection observed during one phase."""

    #: kind -> latency samples in seconds.
    latency: dict[str, list[float]] = field(default_factory=dict)
    #: Open loop only: how late each send was relative to its due time.
    lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    started: float = 0.0
    finished: float = 0.0
    #: Open loop only: operations still unsent when the schedule ended.
    backlog_end: int = 0

    def sample(self, kind: str, seconds: float) -> None:
        self.latency.setdefault(kind, []).append(seconds)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def merged(recorders: list[Recorder]) -> Recorder:
    """One phase as all its connections saw it."""
    total = Recorder(
        started=min(r.started for r in recorders), finished=max(r.finished for r in recorders)
    )
    for recorder in recorders:
        for kind, values in recorder.latency.items():
            total.latency.setdefault(kind, []).extend(values)
        total.lateness.extend(recorder.lateness)
        total.attempted += recorder.attempted
        total.failed += recorder.failed
        total.backlog_end += recorder.backlog_end
    return total


def execute(client, op: Op) -> None:
    """Run one operation to completion, consuming its result."""
    if op.kind == "apply":
        client.apply(op.item)
    elif op.kind == "provenance":
        client.provenance(op.relation)
    elif op.kind == "annotation_of":
        client.annotation_of(op.relation, op.row)
    elif op.kind == "raw_state":
        client.raw_state()
    else:
        raise ValueError(f"unknown op kind {op.kind!r}")


def _apply_burst(client, stream: ConnectionStream, burst: int, origin: float | None,
                 recorder: Recorder) -> None:
    """Ship ``burst`` single transactions pipelined; sample each one's latency.

    ``origin`` is the burst's due time (open loop); ``None`` times each
    operation from the flush that put it on the socket (closed loop).
    """
    items = [stream.next_txn() for _ in range(burst)]
    recorder.attempted += burst
    timings: list[tuple[float, float]] = []
    try:
        client.apply_pipelined(items, timings=timings)
    except ReproError:
        # Which response failed is not knowable from outside a burst; the
        # workloads are chosen so that none does, so charge the whole burst.
        recorder.failed += burst
        return
    for sent, received in timings:
        recorder.sample("apply", received - (sent if origin is None else origin))


def open_loop(client, stream: ConnectionStream, rate: float, count: int, burst: int,
              start_at: float, recorder: Recorder,
              on_burst: Callable[[float], None] | None = None) -> None:
    """Send ``count`` applies at ``rate`` per second, ``burst`` due at a time.

    ``on_burst(due)`` runs after each acknowledged burst (the fan-out
    workload reads the acked journal sequence there).
    """
    interval = burst / rate
    bursts = count // burst
    schedule_end = start_at + bursts * interval
    recorder.started = start_at
    for index in range(bursts):
        due = start_at + index * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        if sent > schedule_end and not recorder.backlog_end:
            recorder.backlog_end = (bursts - index) * burst
        recorder.lateness.extend([sent - due] * burst)
        _apply_burst(client, stream, burst, due, recorder)
        if on_burst is not None:
            on_burst(due)
    recorder.finished = time.perf_counter()


def closed_loop(client, next_op: Callable[[], Op], count: int, recorder: Recorder) -> None:
    """Execute ``count`` operations back to back, each on the previous reply."""
    recorder.started = time.perf_counter()
    for _ in range(count):
        op = next_op()
        recorder.attempted += 1
        began = time.perf_counter()
        try:
            execute(client, op)
        except ReproError:
            recorder.failed += 1
            continue
        recorder.sample(op.kind, time.perf_counter() - began)
    recorder.finished = time.perf_counter()


def closed_loop_bursts(client, stream: ConnectionStream, burst: int, count: int,
                       recorder: Recorder) -> None:
    """Ship ``count`` applies as back-to-back pipelined bursts (capacity)."""
    recorder.started = time.perf_counter()
    for _ in range(count // burst):
        _apply_burst(client, stream, burst, None, recorder)
    recorder.finished = time.perf_counter()


def run_threads(targets: list[Callable[[], None]], timeout: float) -> None:
    """Run one thread per target; re-raise the first failure; bound the wait."""
    errors: list[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - reported by the joiner
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(target,), name=f"e2e-conn-{index}", daemon=True)
        for index, target in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError(f"generator threads still running after {timeout}s")
    if errors:
        raise errors[0]
