"""Start, crash, restart and tear down the served topology a workload needs.

``hosted="process"`` spawns real ``repro serve`` / ``repro replicate`` child
processes on ephemeral ports (parsed from their startup lines) with state in
a temp directory the caller owns; ``hosted="thread"`` hosts the same servers
inside this process (``serve_in_thread`` / ``serve_primary`` +
``FollowerNode``), which is what the traced run and the contract test use.
Whatever happens, :meth:`Topology.stop` leaves no child behind: graceful
first, SIGKILL for stragglers.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .workloads import ATTRIBUTES, Spec, empty_database

__all__ = ["SRC", "Topology"]

#: The checkout's ``src/`` — children get it as ``PYTHONPATH``.
SRC = Path(__file__).resolve().parents[2] / "src"

START_TIMEOUT = 30.0
STOP_GRACE = 1.0
_SERVE_LINE = re.compile(r"serving on ([\w.\-]+):(\d+) \(")
_PRIMARY_LINE = re.compile(
    r"primary serving on ([\w.\-]+):(\d+) shipping on ([\w.\-]+):(\d+)"
)
_FOLLOWER_LINE = re.compile(r"follower serving on ([\w.\-]+):(\d+) tracking")


class _Child:
    """One spawned CLI node; its output goes to a log file, never a pipe."""

    def __init__(self, argv: list[str], log: Path, pattern: re.Pattern):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        self.log = log
        self._out = open(log, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._out,
            stderr=subprocess.STDOUT,
        )
        self.match = self._await_line(pattern)

    def _await_line(self, pattern: re.Pattern) -> re.Match:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            match = pattern.search(self.log.read_text(errors="replace"))
            if match:
                return match
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        output = self.log.read_text(errors="replace")
        self.kill()
        raise RuntimeError(f"node did not report its address; output:\n{output}")

    def terminate(self) -> None:
        """SIGTERM, a short grace, then SIGKILL.

        The state directory is the benchmark's own and is deleted next, so
        nothing is lost by not waiting out a slow graceful stop (``repro
        replicate primary`` needs 5 s: its listener joins an accept thread
        that closing the socket does not wake).
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_GRACE)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._out.close()


class Topology:
    """The servers of one workload run; addresses are ``(host, port)``."""

    def __init__(self, spec: Spec, hosted: str, workdir: Path):
        if hosted not in ("process", "thread"):
            raise ValueError(f"hosted must be 'process' or 'thread', not {hosted!r}")
        self.spec = spec
        self.hosted = hosted
        self.workdir = Path(workdir)
        self.primary: tuple[str, int] | None = None
        self.follower: tuple[str, int] | None = None
        self._nodes: list = []  # _Child | ServerHandle | PrimaryHandle | FollowerNode

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Topology":
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            self._nodes.append(self._new_primary())
            if self.spec.backend == "replicated":
                self._start_follower()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Tear everything down, followers first; never raises past a kill."""
        for node in reversed(self._nodes):
            try:
                if isinstance(node, _Child):
                    node.terminate()
                elif hasattr(node, "listener"):
                    # A thread-hosted primary: the follower is already gone,
                    # so the listener's slow stop (see _Child.terminate) may
                    # finish on its own while the server stops now.
                    threading.Thread(target=node.listener.stop, daemon=True).start()
                    node.server.stop()
                else:
                    node.stop()
            except Exception as exc:  # noqa: BLE001 - teardown must reach every node
                print(f"warning: node teardown failed: {exc}", file=sys.stderr)
        self._nodes.clear()

    def crash_and_restart_primary(self) -> float:
        """SIGKILL the primary, restart it on its directory, return the seconds
        from the kill until the restarted server answers ``ping``.

        Thread-hosted servers cannot be killed; they stop without the final
        checkpoint, which leaves the same journal tail for recovery.
        """
        from repro.server.client import ServerClient

        node = self._nodes[0]
        started = time.perf_counter()
        if isinstance(node, _Child):
            node.kill()
        else:
            node.stop(checkpoint=False)
        self._nodes[0] = self._new_primary()
        with ServerClient(*self.primary, connect_retry=START_TIMEOUT) as client:
            client.ping()
        return time.perf_counter() - started

    # -- node construction -----------------------------------------------------

    @property
    def state_dir(self) -> Path:
        return self.workdir / "primary"

    def _schema_specs(self) -> list[str]:
        attrs = ",".join(ATTRIBUTES)
        return [f"{name}:{attrs}" for name in self.spec.relations]

    def _new_primary(self):
        return self._process_primary() if self.hosted == "process" else self._thread_primary()

    def _process_primary(self) -> _Child:
        spec = self.spec
        schema = [arg for item in self._schema_specs() for arg in ("--schema", item)]
        durable = ["--journal-sync", "flush", "--checkpoint-every", str(spec.checkpoint_every)]
        log = self.workdir / f"primary-{len(list(self.workdir.glob('primary-*.log')))}.log"
        if spec.backend == "replicated":
            argv = ["replicate", "primary", str(self.state_dir), "--port", "0", *durable, *schema]
            child = _Child(argv, log, _PRIMARY_LINE)
            self._replication = (child.match.group(3), int(child.match.group(4)))
        elif spec.backend == "journaled":
            argv = ["serve", str(self.state_dir), "--port", "0", *durable, *schema]
            child = _Child(argv, log, _SERVE_LINE)
        else:
            child = _Child(["serve", "--port", "0", *schema], log, _SERVE_LINE)
        self.primary = (child.match.group(1), int(child.match.group(2)))
        return child

    def _thread_primary(self):
        from repro.replication import serve_primary
        from repro.server.server import serve_in_thread
        from repro.server.service import ServerConfig

        spec = self.spec
        database = empty_database(spec)
        if spec.backend == "plain":
            handle = serve_in_thread(database, ServerConfig(backend="plain"))
        else:
            config = ServerConfig(
                backend="journaled",
                directory=str(self.state_dir),
                sync="flush",
                checkpoint_every=spec.checkpoint_every,
            )
            if spec.backend == "replicated":
                handle = serve_primary(database, config)
                self._replication = handle.replication_address
            else:
                handle = serve_in_thread(database, config)
        self.primary = handle.address
        return handle

    def _start_follower(self) -> None:
        spec = self.spec
        directory = self.workdir / "follower"
        if self.hosted == "process":
            argv = [
                "replicate", "follower", str(directory),
                "--primary", f"{self._replication[0]}:{self._replication[1]}",
                "--port", "0",
                "--journal-sync", "flush",
                "--checkpoint-every", str(spec.checkpoint_every),
            ]
            child = _Child(argv, self.workdir / "follower.log", _FOLLOWER_LINE)
            self.follower = (child.match.group(1), int(child.match.group(2)))
            self._nodes.append(child)
            return
        from repro.replication import FollowerNode
        from repro.server.service import ServerConfig

        config = ServerConfig(sync="flush", checkpoint_every=spec.checkpoint_every)
        node = FollowerNode(directory, self._replication, config).start()
        self.follower = node.address
        self._nodes.append(node)
