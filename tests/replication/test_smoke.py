"""CI replication smoke: a real topology under multiprocess load.

One ``repro replicate`` primary plus two follower subprocesses take a
full multiprocess loadgen run whose readers route through the
read/write splitter.  Afterwards the topology is drained and quiesced,
and all three nodes must serve **bit-identical** ``state`` at the same
journal version — the keel, observed end-to-end across process
boundaries.  The run's ``BENCH_loadgen_*.json`` must be well-formed
and carry ``replica_lag`` samples (the follower-read staleness
histogram the splitter feeds).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.engine.oracle import assert_bit_identical
from repro.loadgen import profile_from_name, run_loadgen, schema_specs, write_result
from repro.queries.updates import Insert, Transaction
from repro.replication.process import spawn_follower, spawn_primary
from repro.server.client import ServerClient

POLICY = "normal_form_batch"


def wait_until(predicate, timeout: float = 60.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {message}")
        time.sleep(0.01)


def test_topology_survives_multiprocess_load_and_quiesces_identical(tmp_path):
    profile = profile_from_name("tiny")
    primary = spawn_primary(
        tmp_path / "primary", schema=schema_specs(profile), policy=POLICY
    )
    nodes = []
    clients = []
    try:
        for i in range(2):
            nodes.append(
                spawn_follower(tmp_path / f"follower-{i}", primary.replication_address)
            )
        result = run_loadgen(
            profile,
            host=primary.address[0],
            port=primary.address[1],
            mode="process",  # the real swarm: one OS process per worker
            followers=[node.address for node in nodes],
            max_lag=10**9,  # every read scales out; lag lands in the histogram
        )
        assert result.errors_total == 0
        assert result.hists["replica_lag"].count > 0

        # The persisted trajectory is well-formed and keeps the samples.
        path = write_result(result, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "loadgen"
        assert payload["schema_version"] >= 1
        lag = payload["payload"]["ops"]["replica_lag"]
        assert lag["summary"]["count"] == result.hists["replica_lag"].count
        assert lag["histogram"]["count"] == lag["summary"]["count"]

        # Drain and quiesce: a marker write yields the primary's final
        # journal sequence (a primary's stats version counts admission
        # groups, not journal records — only write acks carry the seq),
        # then both followers catch up to exactly that sequence.
        writer = ServerClient(*primary.address, connect_retry=10.0)
        clients = [writer] + [
            ServerClient(*node.address, connect_retry=10.0) for node in nodes
        ]
        writer.apply(Transaction("quiesce", [Insert("load_0", (10**6, 0, 0))]))
        seq = writer.last_seq
        assert seq
        wait_until(
            lambda: all(
                int(c.stats()["server"]["version"]) >= seq for c in clients[1:]
            ),
            message=f"followers to drain to seq {seq}",
        )

        # Three-way bit-identical state at the same journal sequence: a
        # follower's snapshot version IS its applied seq, so the version
        # check pins both reads to the drained sequence.
        states = [writer.state()]
        for client in clients[1:]:
            states.append(client.state())
            assert client.last_version == seq
        assert_bit_identical(states[1], states[0])
        assert_bit_identical(states[2], states[0])
    finally:
        for client in clients:
            client.close()
        for node in nodes:
            node.stop()
        primary.stop()
