"""Hash-consing guarantees of the expression store."""

import gc
import weakref

from repro.core.expr import (
    intern_table_size,
    minus,
    plus_i,
    plus_m,
    ssum,
    times_m,
    var,
)


def test_structural_equality_is_identity():
    e1 = plus_m(minus(var("a"), var("p")), times_m(ssum([var("a"), var("b")]), var("p")))
    e2 = plus_m(minus(var("a"), var("p")), times_m(ssum([var("a"), var("b")]), var("p")))
    assert e1 is e2


def test_table_grows_only_for_new_structures():
    # The table counts live nodes; keep the cyclic collector from retiring
    # other tests' garbage between the reads.
    gc.collect()
    gc.disable()
    try:
        base = intern_table_size()
        x = plus_i(var("fresh_intern_x"), var("fresh_intern_p"))
        grown = intern_table_size()
        assert grown == base + 3  # two vars + the node
        _again = plus_i(var("fresh_intern_x"), var("fresh_intern_p"))
        assert intern_table_size() == grown  # nothing new
        del x, _again
        assert intern_table_size() == base  # dropped nodes leave the table
    finally:
        gc.enable()


def test_dropped_shape_is_rebuilt_as_a_fresh_live_node():
    ref = weakref.ref(minus(var("mortal_a"), var("mortal_p")))
    assert ref() is None  # nothing but the table referenced it
    again = minus(var("mortal_a"), var("mortal_p"))
    assert minus(var("mortal_a"), var("mortal_p")) is again


def test_clear_semantics_in_isolated_process():
    """Clearing drops identity for prior expressions but restores interning.

    Run in a subprocess: clearing the process-global table would break the
    identity guarantees every *other* test in this suite relies on.
    """
    import subprocess
    import sys

    from ..conftest import subprocess_env

    env = subprocess_env()
    script = (
        "from repro.core.expr import ZERO, clear_intern_table, minus, var\n"
        "before = minus(var('a'), var('p'))\n"
        "clear_intern_table()\n"
        "after = minus(var('a'), var('p'))\n"
        "assert str(after) == str(before)\n"
        "assert after is not before\n"
        "assert minus(var('a'), var('p')) is after\n"
        "assert minus(ZERO, var('q')) is ZERO\n"
        "print('ok')\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


def test_concurrent_interning_yields_one_object_per_shape():
    """The intern table is race-free under concurrent construction (PR 5).

    The provenance server runs its writer on a thread beside client
    decoders in the same process, so two threads may intern the same
    shape simultaneously.  ``_intern``'s miss path goes through the
    atomic ``dict.setdefault``, so both must receive the single table
    entry — a check-then-insert would let each escape with its own node,
    silently breaking structural-equality-iff-identity for the process.
    """
    import threading

    n_threads, n_shapes = 8, 300
    results: list[list] = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads)

    def worker(k: int) -> None:
        barrier.wait()  # maximize overlap on the miss path
        for i in range(n_shapes):
            results[k].append(
                plus_m(
                    minus(var(f"race_a{i}"), var(f"race_p{i}")),
                    times_m(var(f"race_a{i}"), var(f"race_p{i}")),
                )
            )

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    for k in range(1, n_threads):
        assert len(results[k]) == n_shapes
        for left, right in zip(results[0], results[k]):
            assert left is right


def _run_isolated(script: str) -> None:
    """Run an interning scenario that counts the table in its own interpreter.

    ``intern_table_size()`` counts every live node in the process, so a
    count taken in the shared test process would see other tests' nodes
    come and go.
    """
    import subprocess
    import sys

    from ..conftest import subprocess_env

    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"


# Lock-step rounds: every thread has dropped its shapes, so all of them are
# dead; all threads rebuild the same shapes at once, a storm of misses on
# dead entries (the replacement path).  Half the threads drop their list as
# soon as it is built, so entries also die while the others intern; the
# holders then compare their lists pairwise.  A tiny switch interval forces
# thread switches inside ``_intern``.
_STRESS = """
import sys, threading
from repro.core.expr import intern_table_size, minus, plus_m, times_m, var

def shapes(n):
    return [plus_m(minus(var(f"st_a{i}"), var(f"st_p{i}")),
                   times_m(var(f"st_a{i}"), var(f"st_p{i}")))
            for i in range(n)]

n_threads, n_shapes, rounds = 8, 200, 25
held = [None] * n_threads
failures = []
barrier = threading.Barrier(n_threads, timeout=60)

def worker(k):
    holds = k % 2 == 0
    for _ in range(rounds):
        barrier.wait()  # every list dropped: the shapes are dead
        mine = shapes(n_shapes)
        if holds:
            held[k] = mine
        del mine
        barrier.wait()  # every holder holds its list
        if holds:
            for other in held:
                if other is not None and any(a is not b for a, b in zip(held[k], other)):
                    failures.append(k)
        barrier.wait()
        held[k] = None

START = intern_table_size()
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90)
finally:
    sys.setswitchinterval(interval)
assert not any(thread.is_alive() for thread in threads)
assert not failures, f"split shapes seen by holders {sorted(set(failures))}"
"""


def test_concurrent_interning_while_shapes_die_keeps_one_object_per_live_shape():
    """Interning races node death without ever splitting a live shape.

    Every pair of lists two holders hold at the same time must agree
    element by element on identity, while droppers keep the same shapes
    dying and being rebuilt around them.
    """
    _run_isolated(_STRESS + "print('ok')\n")


def test_table_returns_to_its_start_once_every_thread_drops_its_nodes():
    """Counted: after the stress run, the live table is back where it began,
    and churning many distinct dead shapes leaves the raw table bounded
    (dead entries are purged in bulk as the table doubles)."""
    _run_isolated(
        _STRESS
        + "assert intern_table_size() == START, (intern_table_size(), START)\n"
        + "from repro.core import expr as E\n"
        + "for i in range(50_000):\n"
        + "    minus(var(f'churn_{i}'), var('churn_p'))\n"
        + "assert intern_table_size() == START\n"
        + "assert len(E._INTERN) <= 4 * E._PURGE_FLOOR + 2 * START, len(E._INTERN)\n"
        + "print('ok')\n"
    )
