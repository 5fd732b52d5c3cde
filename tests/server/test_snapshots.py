"""Satellite: concurrent readers only ever observe prefix states.

Reader threads hammer ``state`` / ``provenance`` / ``annotation_of``
while a writer streams updates through the admission queue (with fusion
enabled, so some writer cycles apply several requests as one
``apply_batch`` call).  Because one request carries one stream item, the
snapshot ``version`` *is* the prefix length — so every observation is
checked bit-identically (rows, liveness, identical interned annotation
objects) against the in-process replay of exactly its prefix.  A reader
that ever saw a half-applied batch or a torn transaction could not match
any prefix.

Readers record the **raw** wire payloads during the concurrent phase and
decode afterwards: decoding interns, and the test wants the writer to be
the only interner while the race is live (the atomic ``_intern`` makes
concurrent decoding safe, but keeping it out of the loop makes the
observations themselves the thing under test).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.database import Database
from repro.engine.engine import Engine
from repro.queries.updates import Delete, Insert, Modify, Transaction
from repro.server import ServerClient, ServerConfig, serve_in_thread
from repro.shard.codec import capture_engine, decode_capture
from repro.storage.exprjson import expr_from_dict

N_READERS = 3


def build_database() -> Database:
    return Database.from_rows(
        "items", ["id", "grp"], [(i, i % 4) for i in range(12)]
    )


def build_stream(database: Database) -> list:
    """~30 items: bare annotated queries and small transactions."""
    rel = database.relation("items")
    items: list = []
    for i in range(8):
        items.append(Insert("items", (100 + i, i % 4), annotation=f"ins{i}"))
    for g in range(4):
        items.append(
            Transaction(
                f"txn{g}",
                [
                    Modify.set(rel, where={"grp": g}, set_values={"grp": (g + 1) % 4}),
                    Insert.values(rel, (200 + g, g)),
                    Delete.where(rel, {"grp": (g + 2) % 4}),
                ],
            )
        )
    for i in range(8):
        items.append(
            Delete.where(rel, {"id": 100 + i}).annotated(f"del{i}")
            if i % 2
            else Insert("items", (300 + i, i % 4), annotation=f"late{i}")
        )
    for g in range(4):
        items.append(
            Transaction(
                f"fix{g}", [Modify.set(rel, where={"grp": g}, set_values={"grp": 0})]
            )
        )
    return items


@pytest.mark.parametrize("policy", ["naive", "normal_form_batch"])
def test_concurrent_readers_observe_only_prefix_states(policy):
    database = build_database()
    stream = build_stream(database)
    sample_rows = [[3, 3], [100, 0], [201, 1]]  # probed by the annotation reader

    config = ServerConfig(port=0, policy=policy, admission_max=4)
    handle = serve_in_thread(database, config)
    stop = threading.Event()
    observations: list[list[tuple]] = [[] for _ in range(N_READERS)]
    failures: list[BaseException] = []

    def reader(k: int) -> None:
        try:
            with ServerClient(handle.host, handle.port) as connection:
                while not stop.is_set():
                    if k == 0:
                        response = connection._call("state")
                        observations[k].append(
                            ("state", response["version"], response["relations"])
                        )
                    elif k == 1:
                        response = connection._call("provenance", relation="items")
                        observations[k].append(
                            ("rows", response["version"], response["rows"])
                        )
                    else:
                        row = sample_rows[len(observations[k]) % len(sample_rows)]
                        response = connection._call(
                            "annotation_of", relation="items", row=row
                        )
                        observations[k].append(
                            ("ann", response["version"], (tuple(row), response))
                        )
                # One guaranteed post-stream observation per reader.
                response = connection._call("state")
                observations[k].append(
                    ("state", response["version"], response["relations"])
                )
        except BaseException as exc:  # noqa: BLE001 - re-raised in the main thread
            failures.append(exc)

    try:
        with ServerClient(handle.host, handle.port) as writer:
            # Explicit version-0 observation before any update ships.
            response = writer._call("state")
            observations.append([("state", response["version"], response["relations"])])
            threads = [
                threading.Thread(target=reader, args=(k,), daemon=True)
                for k in range(N_READERS)
            ]
            for thread in threads:
                thread.start()
            for position, item in enumerate(stream):
                writer.apply(item, batch=position % 2 == 0)
                time.sleep(0.001)  # widen the mid-stream observation window
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        stop.set()
        handle.stop()
    assert not failures, failures[0]

    # The writer is gone; now replay every prefix in-process and decode.
    prefix_states = []
    direct = Engine(build_database(), policy=policy)
    prefix_states.append(capture_engine(direct))
    for item in stream:
        direct.apply(item)
        prefix_states.append(capture_engine(direct))

    seen_versions: set[int] = set()
    for record in observations:
        last_version = -1
        for kind, version, payload in record:
            # Snapshot versions count applied admissions = stream items,
            # so each observation names its exact prefix.
            assert 0 <= version <= len(stream)
            assert version >= last_version  # monotone per connection
            last_version = version
            seen_versions.add(version)
            expected = prefix_states[version]["items"]
            if kind in ("state", "rows"):
                # Both ops ship one shared node table; decode_capture
                # re-interns, so equality is identity.
                assert decode_capture(payload)["items"] == dict(expected)
            else:
                row, response = payload
                entry = expected.get(row)
                if entry is None:
                    assert response["expr"] is None and not response["stored"]
                else:
                    assert response["stored"]
                    assert response["live"] == entry[1]
                    assert expr_from_dict(response["expr"]) is entry[0]

    # Identity at full strength for the final states: the decoded
    # expression objects are the very nodes the direct engine holds.
    final_payload = observations[0][-1][2]
    for row, (expr, live) in decode_capture(final_payload)["items"].items():
        direct_expr, direct_live = prefix_states[-1]["items"][row]
        assert expr is direct_expr and live == direct_live

    # The pre-poll pins prefix 0 and the post-polls pin the full stream;
    # mid-stream prefixes show up as well under the 1ms stagger, but only
    # the invariant (every observation = some prefix) is load-bearing.
    assert {0, len(stream)} <= seen_versions
