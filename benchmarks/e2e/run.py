#!/usr/bin/env python3
"""Run the end-to-end benchmark: ``python3 benchmarks/e2e/run.py``.

Driver form (one run, the last stdout line is the result object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics against real ``repro serve`` /
``repro replicate`` child processes.  ``--trace 1`` reports the per-layer
metrics: counters and client diagnostics from a shorter untraced run against
the same child processes, then spans from a run of the same generator against
servers hosted in this process with timing shims installed (``tracing.py``).
The two are never mixed into the end-to-end numbers.

Without ``--workload`` every workload runs in both modes (``--repeat`` seeds
each) and ``--out FILE`` keeps the set for ``compare``::

    python3 benchmarks/e2e/run.py --repeat 10 --out set-a.json
    python3 benchmarks/e2e/run.py compare set-a.json set-b.json
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"benchmarks/e2e measures the repo around it: {ROOT}/src/repro is missing")
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))

from repro.errors import ReproError  # noqa: E402
from repro.replication.client import ReplicatedClient  # noqa: E402
from repro.server.client import ServerClient  # noqa: E402

from benchmarks.e2e import driver  # noqa: E402
from benchmarks.e2e.compare import compare_files  # noqa: E402
from benchmarks.e2e.driver import OP_TIMEOUT, Recorder, percentile  # noqa: E402
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, manifest  # noqa: E402
from benchmarks.e2e.oracle import (  # noqa: E402
    OracleMismatch,
    check_rows_identical,
    check_states_identical,
    replay,
)
from benchmarks.e2e.topology import Topology  # noqa: E402
from benchmarks.e2e.tracing import SPAN_LAYERS, LayerTotals, Tracer  # noqa: E402
from benchmarks.e2e.workloads import SPECS, ConnectionStream, Op, Spec  # noqa: E402

_UNITS = {name: entry[0] for name, entry in {**END_TO_END, **PER_LAYER}.items()}

#: One workload run may not take longer than this (the driver allows 180 s).
HARD_TIMEOUT = 150
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: How long the follower may take to reach the primary's final sequence.
CATCH_UP_TIMEOUT = 30.0


@dataclass
class RunResult:
    """Everything one workload run measured."""

    workload: str
    seed: int
    trace: int
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    #: metric name -> value (end-to-end and per-layer alike).
    values: dict[str, float] = field(default_factory=dict)
    #: metric name -> samples behind a percentile.
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def result_object(self, names) -> dict:
        """The contract's result line: exactly these four keys."""
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values.get(name, 0.0), "unit": _UNITS[name]}
                for name in names
            },
        }


# ---------------------------------------------------------------------------
# One session: a started topology, connected clients, loaded relations
# ---------------------------------------------------------------------------


class Session:
    """A topology with its writer connections warmed up and ready to time."""

    def __init__(self, spec: Spec, seed: int, hosted: str, workdir: Path):
        self.spec = spec
        self.topology = Topology(spec, hosted, workdir)
        self.streams = [ConnectionStream(spec, seed, conn) for conn in range(spec.connections)]
        self.clients: list[ServerClient] = []
        self.control: ServerClient | None = None

    def connect(self, address: tuple[str, int]) -> ServerClient:
        return ServerClient(*address, timeout=OP_TIMEOUT, connect_retry=10.0)

    def setup(self) -> float:
        """Topology start + base load + history + warm-up; returns its seconds."""
        began = time.perf_counter()
        self.topology.start()
        self.control = self.connect(self.topology.primary)
        self.clients = [self.connect(self.topology.primary) for _ in self.streams]
        spec = self.spec

        def prepare(client: ServerClient, stream: ConnectionStream) -> None:
            client.apply(stream.base())
            if spec.history:
                client.apply_pipelined([stream.next_txn() for _ in range(spec.history)])
            for _ in range(spec.warmup):
                driver.execute(client, stream.next_op())

        driver.run_threads(
            [lambda c=client, s=stream: prepare(c, s) for client, stream in zip(self.clients, self.streams)],
            timeout=HARD_TIMEOUT,
        )
        return time.perf_counter() - began

    def disconnect(self) -> None:
        for client in [*self.clients, self.control]:
            if client is not None:
                client.close()
        self.clients, self.control = [], None

    def close(self) -> None:
        self.disconnect()
        self.topology.stop()


# ---------------------------------------------------------------------------
# The follower side of replica_fanout
# ---------------------------------------------------------------------------


class FollowerReader:
    """Thread B: holds a ``subscribe`` on the follower and issues paced reads."""

    def __init__(self, session: Session, writer: ServerClient):
        spec, topology = session.spec, session.topology
        self.relation = session.streams[0].relations[0]
        self.rate = spec.read_rate
        self.writer = writer
        self.lag_records: list[int] = []
        self.client = ReplicatedClient(
            topology.primary,
            [topology.follower],
            max_lag=spec.max_lag,
            timeout=OP_TIMEOUT,
            connect_retry=10.0,
            on_lag=self.lag_records.append,
        )
        self.subscription = self.client.subscribe(self.relation)
        self.stop = threading.Event()
        #: Set when the latency phase ends: the reader then only consumes
        #: pushes, so the capacity phase measures the write path alone.
        self.reads_done = threading.Event()
        #: Due-time -> decoded latency of every completed read.
        self.reads: list[float] = []
        self.lateness: list[float] = []
        #: (version, wall-clock receive time) of every pushed delta batch.
        self.pushes: list[tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0

    def _consume(self, event) -> None:
        if event.lagged:
            raise OracleMismatch("the follower dropped the subscriber as a slow consumer")
        self.pushes.append((event.batch.version, event.received_at))

    def run(self, start_at: float) -> None:
        interval = 1.0 / self.rate
        index = 0
        while not self.stop.is_set():
            due = start_at + index * interval
            remaining = due - time.perf_counter()
            if self.reads_done.is_set() or remaining > 0:
                wait = 0.05 if self.reads_done.is_set() else min(remaining, 0.05)
                event = self.subscription.next(timeout=wait)
                if event is not None:
                    self._consume(event)
                continue
            # The staleness yardstick is the newest write thread A had acked.
            self.client.primary.last_seq = self.writer.last_seq
            self.attempted += 1
            self.lateness.append(-remaining)
            try:
                self.client.provenance(self.relation)
            except ReproError:
                self.failed += 1
            else:
                self.reads.append(time.perf_counter() - due)
            for event in self.subscription.drain():
                self._consume(event)
            index += 1

    def drain_to(self, version: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while self.subscription.version < version and time.monotonic() < deadline:
            event = self.subscription.next(timeout=0.1)
            if event is not None:
                self._consume(event)

    def close(self) -> None:
        self.client.close()


def fanout_latencies(writes: list[tuple[float, int]], first_seq: int,
                     pushes: list[tuple[int, float]], wall_offset: float) -> list[float]:
    """Write due-time -> first pushed delta that reflects the write.

    Thread A is the only writer, so write *i* owns the journal records in
    ``(seq[i-1], seq[i]]``; the first delta whose version reaches into that
    range is the first the subscriber could have seen the write in.
    """
    versions = [version for version, _received in pushes]
    latencies = []
    previous = first_seq
    for due, seq in writes:
        position = bisect.bisect_left(versions, previous + 1)
        if position < len(pushes):
            latencies.append(pushes[position][1] - (due + wall_offset))
        previous = seq
    return latencies


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def run_workload(spec: Spec, seed: int, seconds: float, hosted: str, workdir: Path,
                 tracer: Tracer | None = None, setups: int = 1) -> RunResult:
    """Set up, drive the timed phases, verify, tear down; returns what it saw."""
    result = RunResult(spec.name, seed, trace=int(tracer is not None))
    if tracer is not None:
        tracer.mark_client_thread()
    setup_seconds = []
    session = None
    try:
        for attempt in range(setups):
            if session is not None:
                session.close()
            session = Session(spec, seed, hosted, workdir / f"setup-{attempt}")
            setup_seconds.append(session.setup())
        result.values["setup_s"] = statistics.median(setup_seconds)
        _timed_window(spec, seconds, session, tracer, result)
    except (OracleMismatch, ReproError, TimeoutError, RuntimeError, OSError) as exc:
        result.correct = False
        result.notes.append(f"{type(exc).__name__}: {exc}")
    finally:
        if session is not None:
            session.close()
    return result


@dataclass
class Window:
    """What the generator threads recorded during the timed window."""

    main: Recorder
    capacity: Recorder | None
    readback: Recorder | None
    #: replica_fanout: (due, acked journal seq) per open-loop write, the seq
    #: before the first one, and the perf_counter -> wall-clock offset.
    writes: list[tuple[float, int]]
    first_seq: int
    wall_offset: float


def _drive(spec: Spec, seconds: float, session: Session, reader: FollowerReader | None,
           tracer: Tracer | None) -> Window:
    """Run the phases: every connection walks them in step, on its own thread."""
    connections = list(zip(session.clients, session.streams))
    mark = tracer.mark_client_thread if tracer is not None else (lambda: None)
    main, capacity = ([Recorder() for _ in connections] for _ in range(2))
    readback = Recorder()
    writes: list[tuple[float, int]] = []
    first_seq = session.clients[0].last_seq or 0
    wall_offset = time.time() - time.perf_counter()
    barrier = threading.Barrier(len(connections))
    start_at = time.perf_counter() + 0.05

    def connection(index: int, client: ServerClient, stream: ConnectionStream) -> None:
        mark()
        try:
            if spec.rate:
                on_burst = None
                if reader is not None:
                    on_burst = lambda due: writes.append((due, client.last_seq))  # noqa: E731
                per_connection = spec.rate / len(connections)
                # Connections interleave their bursts instead of colliding.
                offset = index * spec.burst / per_connection / len(connections)
                driver.open_loop(
                    client, stream, per_connection, spec.phase_ops("main", seconds), spec.burst,
                    start_at + offset, main[index], on_burst,
                )
            else:
                driver.closed_loop(client, stream.next_op, spec.phase_ops("main", seconds), main[index])
            barrier.wait(HARD_TIMEOUT)
            if spec.capacity_share:
                if reader is not None:
                    reader.reads_done.set()
                driver.closed_loop_bursts(
                    client, stream, spec.burst, spec.phase_ops("capacity", seconds), capacity[index]
                )
                barrier.wait(HARD_TIMEOUT)
            if reader is not None:
                reader.stop.set()
            if spec.readback_share and index == 0:
                reads = iter(range(spec.phase_ops("readback", seconds)))
                driver.closed_loop(
                    client, lambda: stream.readback_op(next(reads)),
                    spec.phase_ops("readback", seconds), readback,
                )
        except BaseException:
            barrier.abort()
            if reader is not None:
                reader.stop.set()
            raise

    targets = [lambda i=i, c=c, s=s: connection(i, c, s) for i, (c, s) in enumerate(connections)]
    if reader is not None:
        targets.append(lambda: (mark(), reader.run(start_at)))
    driver.run_threads(targets, timeout=HARD_TIMEOUT)
    return Window(
        main=driver.merged(main),
        capacity=driver.merged(capacity) if spec.capacity_share else None,
        readback=readback if spec.readback_share else None,
        writes=writes,
        first_seq=first_seq,
        wall_offset=wall_offset,
    )


def _timed_window(spec: Spec, seconds: float, session: Session, tracer: Tracer | None,
                  result: RunResult) -> None:
    topology, control = session.topology, session.control
    values = result.values
    reader = FollowerReader(session, session.clients[0]) if spec.backend == "replicated" else None
    try:
        before = control.stats()
        if tracer is not None:
            tracer.resume()
        # The numbers should measure the program, not the generator: no
        # collector pauses in this process while the clock runs, and a short
        # switch interval so one connection's response decoding cannot hold
        # the GIL for 5 ms while another connection's operation is due.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        gc.disable()
        try:
            window = _drive(spec, seconds, session, reader, tracer)
        finally:
            gc.enable()
            sys.setswitchinterval(switch_interval)
            if tracer is not None:
                tracer.pause()
        after = control.stats()
        follower_stats = None
        if reader is not None:
            with session.connect(topology.follower) as follower_client:
                follower_stats = follower_client.stats()

        reference = replay(spec, session.streams)
        if spec.backend != "plain":
            values["wal.dir_bytes_end"] = _dir_bytes(topology.state_dir)
        if spec.backend == "journaled":
            # Durability: every acknowledged transaction survives a SIGKILL
            # taken right after the last ack (sync=flush; the OS keeps its
            # page cache, so this is the process-crash guarantee only).
            session.disconnect()
            if tracer is not None:
                tracer.resume()
            try:
                values["wal.recover_s"] = topology.crash_and_restart_primary()
            finally:
                if tracer is not None:
                    tracer.pause()
            with session.connect(topology.primary) as recovered:
                state = recovered.state()
            check_states_identical("state after SIGKILL + restart", state, reference)
        else:
            state = control.state()
            check_states_identical("final state", state, reference)
        if reader is not None:
            _check_follower(session, reader, session.clients[0].last_seq or 0, state)
        _record_metrics(spec, result, window, reader, before, after, follower_stats, state)
    finally:
        if reader is not None:
            reader.close()


def _check_follower(session: Session, reader: FollowerReader, final_seq: int, primary_state) -> None:
    """Follower state equals primary state at the final seq; so does the subscriber."""
    deadline = time.monotonic() + CATCH_UP_TIMEOUT
    with session.connect(session.topology.follower) as client:
        while client.raw_state()[0] < final_seq:
            if time.monotonic() > deadline:
                raise OracleMismatch(f"follower never reached seq {final_seq}")
            time.sleep(0.02)
        follower_state = client.state()
    check_states_identical("follower state at the final seq", follower_state, primary_state)
    reader.drain_to(final_seq, CATCH_UP_TIMEOUT)
    if reader.subscription.version < final_seq:
        raise OracleMismatch(
            f"subscriber stuck at version {reader.subscription.version} < {final_seq}"
        )
    check_rows_identical(
        "subscriber rows at its version", reader.subscription.rows, follower_state[reader.relation]
    )


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _record_metrics(spec: Spec, result: RunResult, window: Window, reader: FollowerReader | None,
                    before: dict, after: dict, follower_stats: dict | None, state: dict) -> None:
    values, samples = result.values, result.samples

    def quantiles(prefix: str, data: list[float], qs: dict[str, float]) -> None:
        for suffix, q in qs.items():
            values[f"{prefix}_{suffix}_ms"] = _ms(percentile(data, q))
            samples[f"{prefix}_{suffix}_ms"] = len(data)

    main = window.main
    phases = [phase for phase in (main, window.capacity, window.readback) if phase is not None]
    result.attempted = sum(phase.attempted for phase in phases)
    result.failed = sum(phase.failed for phase in phases)
    read_ops = sum(
        len(phase.latency.get(kind, []))
        for phase in phases
        for kind in ("provenance", "annotation_of", "raw_state")
    )

    applies = main.latency.get("apply", [])
    if reader is not None:
        reads = reader.reads
        result.attempted += reader.attempted
        result.failed += reader.failed
        read_ops += len(reader.reads)
    elif window.readback is not None:
        reads = window.readback.latency.get("provenance", [])
    else:
        reads = main.latency.get("provenance", [])
    result.completed = result.attempted - result.failed
    quantiles("apply", applies, {"p50": 0.50})
    quantiles("read", reads, {"p50": 0.50})
    quantiles("client.apply", applies, {"p95": 0.95, "p99": 0.99})
    quantiles("client.read", reads, {"p95": 0.95, "p99": 0.99})
    quantiles("client.state", main.latency.get("raw_state", []), {"p50": 0.50})
    quantiles("client.annotation_of", main.latency.get("annotation_of", []), {"p50": 0.50})

    throughput = window.capacity if window.capacity is not None else main
    values["ops_per_s"] = throughput.completed / max(1e-9, throughput.finished - throughput.started)
    samples["ops_per_s"] = throughput.completed

    # The servers' own peak_rss_bytes (ru_maxrss) is useless from here: Linux
    # carries the high-water mark of the *spawning* process across exec, so it
    # reports the generator's size whenever that is larger.  These workloads
    # only grow (interning is grow-only), so the sampled VmRSS peaks at the end.
    memory = after["memory"]
    values["peak_rss_mb"] = max(before["memory"]["rss_bytes"], memory["rss_bytes"]) / 1e6
    values["memory.rss_end_mb"] = memory["rss_bytes"] / 1e6
    values["memory.intern_nodes_end"] = memory["intern_table_size"]
    if reader is not None:
        follower_memory = follower_stats["memory"]
        values["peak_rss_mb"] += follower_memory["rss_bytes"] / 1e6
        values["memory.follower_rss_end_mb"] = follower_memory["rss_bytes"] / 1e6
        replication = follower_stats.get("replication", {})
        values["replication.applied_seq"] = replication.get("applied_seq", 0)
        values["replication.frames_received"] = replication.get("frames_received", 0)
        values["replication.lag_records_p50"] = percentile(reader.lag_records, 0.50)
        fanout = fanout_latencies(window.writes, window.first_seq, reader.pushes, window.wall_offset)
        quantiles("replication.fanout", fanout, {"p50": 0.50, "p95": 0.95})

    # Counters: exact stats-op deltas over the timed window.
    engine = {key: after["engine"][key] - before["engine"][key] for key in after["engine"]}
    server = {
        key: after["server"][key] - before["server"][key]
        for key in ("admitted", "writer_cycles", "captures")
    }
    writes_done = max(1, server["admitted"])
    values["engine.queries"] = engine["queries"]
    values["engine.rows_matched_per_op"] = engine["rows_matched"] / writes_done
    values["engine.rows_created_per_op"] = engine["rows_created"] / writes_done
    values["engine.exec_ms_per_op"] = _ms(engine["wall_time"]) / writes_done
    values["engine.checkpoint_s"] = engine["checkpoint_time"]
    values["store.index_hits"] = engine["index_hits"]
    values["store.fallback_scans"] = engine["fallback_scans"]
    values["store.rows_examined_per_match"] = engine["index_rows_examined"] / max(1, engine["index_hits"])
    values["store.support_rows_end"] = sum(len(rows) for rows in state.values())
    values["store.live_rows_end"] = sum(
        1 for rows in state.values() for _expr, live in rows.values() if live
    )
    values["service.writer_cycles"] = server["writer_cycles"]
    values["service.fusion_factor"] = server["admitted"] / max(1, server["writer_cycles"])
    values["service.captures"] = server["captures"]
    values["service.captures_per_read"] = server["captures"] / max(1, read_ops)

    # Did the generator keep its schedule?  (Closed loop: trivially yes.)
    lateness = main.lateness + (reader.lateness if reader is not None else [])
    values["loadgen.late_p95_ms"] = _ms(percentile(lateness, 0.95))
    samples["loadgen.late_p95_ms"] = len(lateness)
    values["loadgen.backlog_end_ops"] = main.backlog_end
    # Offered: main.attempted ops at spec.rate; achieved: the same ops in the
    # time the generator actually needed to get them acknowledged.
    values["loadgen.achieved_rate_frac"] = (
        min(1.0, main.attempted / spec.rate / max(1e-9, main.finished - main.started))
        if spec.rate
        else 1.0
    )
    phases_seconds = ", ".join(
        f"{name}={phase.finished - phase.started:.2f}s/{phase.attempted}ops"
        for name, phase in (("main", main), ("capacity", window.capacity), ("readback", window.readback))
        if phase is not None
    )
    result.notes.append(f"phases: {phases_seconds}")


def span_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """The traced run's per-layer metrics, per completed client operation."""
    ops = max(1, ops)
    totals = tracer.totals()
    values: dict[str, float] = {}

    def total(layer: str) -> LayerTotals:
        return totals.get(layer, LayerTotals())

    for layer in SPAN_LAYERS:
        values[f"{layer}.calls_per_op"] = total(layer).calls / ops
        values[f"{layer}.cpu_ms_per_op"] = _ms(total(layer).cpu_self) / ops
    values["core.normalize.calls_per_op"] = total("core.normalize").calls / ops
    values["wal.journal.bytes_per_op"] = total("wal.journal.record").weight / ops
    # Every request of a fused group waits out the whole group's apply; what
    # is left of its enqueue -> resolved time is queueing behind the writer.
    admitted, groups = total("server.service.admit"), total("server.service.apply")
    wait = (admitted.wall - groups.weighted_wall) / max(1, admitted.calls)
    values["server.service.wait_ms_per_op"] = _ms(max(0.0, wait))
    cpu = max(1e-9, tracer.cpu_seconds)
    values["trace.unattributed_frac"] = max(
        0.0, 1.0 - sum(entry.cpu_self for entry in totals.values()) / cpu
    )
    values["trace.overhead_frac"] = tracer.span_count() * Tracer.span_cost() / cpu
    values["trace.unresolved"] = len(tracer.unresolved)
    return values


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------


def measure_end_to_end(spec: Spec, seed: int, seconds: float, workdir: Path) -> RunResult:
    """``--trace 0``: real child processes, no shims, ``SETUPS`` set-ups."""
    return run_workload(spec, seed, seconds, "process", workdir / "e2e", setups=SETUPS)


def measure_per_layer(spec: Spec, seed: int, seconds: float, workdir: Path,
                      hosted: str = "process") -> RunResult:
    """``--trace 1``: untraced counters at half length, then a traced quarter."""
    result = run_workload(spec, seed, seconds / 2, hosted, workdir / "counters")
    result.trace = 1
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_workload(spec, seed, seconds / 4, "thread", workdir / "traced", tracer=tracer)
    finally:
        tracer.uninstall()
    result.values.update(span_metrics(tracer, traced.completed))
    if tracer.unresolved:
        result.notes.append("trace.unresolved: " + ", ".join(tracer.unresolved))
    result.correct = result.correct and traced.correct
    result.attempted += traced.attempted
    result.failed += traced.failed
    result.notes += traced.notes
    return result


# ---------------------------------------------------------------------------
# Reporting and the command line
# ---------------------------------------------------------------------------


def print_report(result: RunResult, names) -> None:
    share = result.failed / max(1, result.attempted)
    print(
        f"== {result.workload}  seed={result.seed}  trace={result.trace}  "
        f"correct={result.correct}  failed/attempted={result.failed}/{result.attempted} ({share:.4f})"
    )
    for note in result.notes:
        print(f"   note: {note}")
    for name in names:
        count = f"  (n={result.samples[name]})" if name in result.samples else ""
        print(f"   {name:<42} {result.values.get(name, 0.0):>14.4f} {_UNITS[name]}{count}")


def _remove_work(path: Path) -> None:
    """Delete a scratch file or directory, and ``.bench_work`` once it is empty."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run's scratch is still in there, or it never existed


def _on_alarm(_signum, _frame) -> None:
    raise TimeoutError(f"workload exceeded the hard timeout of {HARD_TIMEOUT}s")


def run_once(spec: Spec, seed: int, seconds: float, trace: int) -> dict:
    """One driver-form run: measure, print the report, return its record."""
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_TIMEOUT)
    try:
        measure = measure_per_layer if trace else measure_end_to_end
        result = measure(spec, seed, seconds, workdir)
    finally:
        signal.alarm(0)
        _remove_work(workdir)
    names = list(PER_LAYER if trace else END_TO_END)
    print_report(result, names)
    return {
        "workload": spec.name, "seed": seed, "trace": trace,
        "samples": result.samples, "notes": result.notes, **result.result_object(names),
    }


def run_set(seeds: list[int], seconds: float) -> list[dict]:
    """Every workload: ``seeds`` untraced runs plus one traced run.

    Each run is its own ``run.py`` process, exactly as the driver starts
    them, so no run inherits another's intern table, heap or warm caches.
    """
    runs = []
    for spec in SPECS.values():
        for trace, seed in [(0, seed) for seed in seeds] + [(1, seeds[0])]:
            record = ROOT / ".bench_work" / f"record-{os.getpid()}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", spec.name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--out", str(record),
            ]
            try:
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=HARD_TIMEOUT + 30)
                # The child's report, minus its result line (kept in the record).
                print(completed.stdout.rsplit("\n", 2)[0], flush=True)
                runs += json.loads(record.read_text())["runs"]
            finally:
                _remove_work(record)
    return runs


def _index_entry(seconds: float, seeds: list[int]) -> dict:
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        revision = head.read_text().strip()
        target = ROOT / ".git" / revision.removeprefix("ref: ")
        if revision.startswith("ref: ") and target.is_file():
            revision = target.read_text().strip()
    return {
        "git_revision": revision,
        "seeds": seeds,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sizes": {
            name: {key: value for key, value in vars(spec).items() if key != "why"}
            for name, spec in SPECS.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare_files(Path(argv[1]), Path(argv[2]))
    if argv and argv[0] == "manifest":
        print(json.dumps(manifest(), indent=2))
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(SPECS), default=None,
                        help="one run of this workload; omit to run the whole set")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="whole set only: untraced runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", default=None, metavar="FILE", help="write the run(s) as a JSON set")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")

    if args.workload:
        seeds = [args.seed]
        runs = [run_once(SPECS[args.workload], args.seed, args.seconds, args.trace)]
    else:
        seeds = [args.seed + offset for offset in range(args.repeat)]
        runs = run_set(seeds, args.seconds)
    if args.out:
        summary = {"index": _index_entry(args.seconds, seeds), "runs": runs, "claim": None}
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    last = runs[-1]
    print(json.dumps({key: last[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(run["correct"] and not run["failed"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
