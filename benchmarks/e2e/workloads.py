"""The four frozen workloads and their deterministic operation streams.

Names are permanent; the sizes below were fixed on the 2-core reference box
(see ``README.md``, "How the workloads were sized") and change only in a PR
that re-measures the baseline.  Everything a connection ever sends is a pure
function of ``(spec, seed, connection)``: the runner consumes a prefix of the
stream and the oracle replays exactly that prefix.

Every relation is ``r<connection>(id, grp, v0)``.  Row ids, groups and values
all come from *small fixed domains*, so the support saturates at
``ids * values`` rows per relation during the prelude and stays there:
per-transaction cost currently scales with the support (the batch executor
renormalises every stored row at each transaction end), so a growing support
would make latency a function of run length instead of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from repro.db.database import Database
from repro.db.schema import Relation, Schema
from repro.queries.pattern import Pattern
from repro.queries.updates import Delete, Insert, Modify, Transaction

__all__ = [
    "ATTRIBUTES",
    "SPECS",
    "ConnectionStream",
    "Op",
    "Spec",
    "base_transaction",
    "empty_database",
    "fingerprint",
]

ATTRIBUTES = ("id", "grp", "v0")
_ARITY, _GRP, _V0 = len(ATTRIBUTES), 1, 2
_KINDS = ("insert", "delete", "modify")


@dataclass(frozen=True)
class Spec:
    """One workload: topology, data shape, traffic shape, phase split."""

    name: str
    why: str
    #: ``plain`` (in-memory ``repro serve``), ``journaled`` (``repro serve DIR``,
    #: ``--journal-sync flush``) or ``replicated`` (``repro replicate`` primary
    #: + one follower, both journaled with ``flush``).
    backend: str
    #: Writer connections = generator threads (at most ``nproc``).  Each owns
    #: ``relations_per_connection`` relations nobody else writes.
    connections: int
    ids: int
    groups: int
    values: int
    relations_per_connection: int = 1
    queries_per_txn: int = 1
    #: Share of queries selecting their group by disequalities only (planner
    #: scan fallback) instead of ``grp = g`` (column index).
    neq_share: float = 0.0
    #: Zipf exponent of the group choice; 0 = uniform.
    skew: float = 0.0
    #: Operation weights of the main phase (tenths are dealt exactly).
    mix: Mapping[str, float] = field(default_factory=lambda: {"apply": 1.0})
    #: Open-loop offered rate in ops/s over all connections; 0 = closed loop.
    rate: float = 0.0
    #: Applies shipped per pipelined burst (a burst is due at one instant).
    burst: int = 1
    #: ``replicated`` only: follower reads/s and their staleness bound.
    read_rate: float = 0.0
    max_lag: int = 0
    #: Untimed write transactions per connection after the base load, so
    #: annotations are non-trivial normal forms before the window opens.
    history: int = 0
    #: Untimed operations of the main mix per connection (caches, memo).
    warmup: int = 0
    checkpoint_every: int = 1024
    #: Shares of ``--seconds``: main (latency) phase, closed-loop capacity
    #: phase (open-loop workloads only), provenance read-back phase
    #: (write-only workloads only).
    main_share: float = 1.0
    capacity_share: float = 0.0
    readback_share: float = 0.0
    #: Closed-loop phases run a *fixed operation count*, ``nominal rate *
    #: seconds * share``, so counts (and the final state, and every counter)
    #: repeat exactly and a faster server is not handed more work.  These are
    #: the rates this box sustained when the workload was sized, in ops/s
    #: over all connections: main phase, capacity phase, read-back phase.
    closed_rate: float = 0.0
    capacity_rate: float = 0.0
    readback_rate: float = 0.0

    def relations_of(self, conn: int) -> list[str]:
        return [f"r{conn}_{k}" for k in range(self.relations_per_connection)]

    @property
    def relations(self) -> list[str]:
        return [name for conn in range(self.connections) for name in self.relations_of(conn)]

    def phase_ops(self, phase: str, seconds: float) -> int:
        """Operations per participating connection in one phase of a window.

        Every connection takes part in the main and capacity phases; the
        read-back phase runs on connection 0 alone (two closed-loop readers
        decoding in one process lock into run-specific alternation patterns,
        which made the phase's median latency differ by 20 % between runs).
        """
        rate, share, connections = {
            "main": (self.rate or self.closed_rate, self.main_share, self.connections),
            "capacity": (self.capacity_rate, self.capacity_share, self.connections),
            "readback": (self.readback_rate, self.readback_share, 1),
        }[phase]
        if not share:
            return 0
        bursts = round(rate * seconds * share / connections / self.burst)
        return max(1, bursts) * self.burst


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="write_stream",
            why="journaled single-query writes in pipelined bursts: frame decode, update codec, "
            "admission fusion, journal append, checkpoint stalls and txn-end flush do the work",
            backend="journaled",
            connections=2,
            relations_per_connection=4,
            ids=60,
            groups=12,
            values=4,
            rate=60.0,
            # Odd, so the median falls inside the burst's middle position and
            # not into the gap between two positions (where no samples are).
            burst=9,
            history=40,
            warmup=80,
            checkpoint_every=400,
            main_share=0.40,
            capacity_share=0.35,
            readback_share=0.25,
            capacity_rate=155.0,
            readback_rate=27.0,
        ),
        Spec(
            name="read_mostly",
            why="plain backend, 90% reads of history-laden annotations: snapshot capture, exprjson "
            "encode, large frames and client decode dominate; journal absent, executor idle",
            backend="plain",
            connections=2,
            ids=60,
            groups=20,
            values=3,
            mix={"apply": 0.10, "provenance": 0.50, "annotation_of": 0.30, "raw_state": 0.10},
            history=60,
            warmup=100,
            closed_rate=200.0,
        ),
        Spec(
            name="long_txn",
            why="one client, 25-query transactions on hot groups, index and scan matches, large "
            "matched sets: engine, store planner and core normalisation work; wire is a rounding error",
            backend="plain",
            connections=1,
            ids=120,
            groups=6,
            values=3,
            queries_per_txn=25,
            neq_share=0.3,
            skew=1.2,
            history=4,
            warmup=6,
            main_share=0.30,
            readback_share=0.30,
            closed_rate=70.0,
            readback_rate=9.0,
        ),
        Spec(
            name="replica_fanout",
            why="primary + follower: paced writes ship to a follower that serves a subscriber and "
            "bounded-stale reads; journal shipping, follower apply and delta push do the work",
            backend="replicated",
            connections=1,
            ids=48,
            groups=48,
            values=3,
            rate=40.0,
            read_rate=10.0,
            max_lag=8,
            history=40,
            warmup=60,
            checkpoint_every=400,
            main_share=0.75,
            capacity_share=0.25,
            capacity_rate=500.0,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One generated operation."""

    kind: str  #: apply | provenance | annotation_of | raw_state
    item: Transaction | None = None
    relation: str | None = None
    row: tuple | None = None


def empty_database(spec: Spec) -> Database:
    """The schema every server (and the oracle) of this workload starts from."""
    return Database(Schema(Relation(name, list(ATTRIBUTES)) for name in spec.relations))


def base_transaction(spec: Spec, conn: int) -> Transaction:
    """The load that saturates connection ``conn``'s support (no randomness).

    Per relation: inserts every id, then moves every group through every
    value inside the same transaction, so all ``ids * values`` rows exist
    (one live per id) before any timed operation runs.
    """
    queries: list = []
    for relation in spec.relations_of(conn):
        queries += [
            Insert(relation, (row_id, row_id % spec.groups, 0)) for row_id in range(spec.ids)
        ]
        for value in range(1, spec.values):
            for group in range(spec.groups):
                queries.append(
                    Modify(relation, Pattern(_ARITY, eq={_GRP: group}), {_V0: value})
                )
    return Transaction(f"c{conn}-base", queries)


class _Deck:
    """Draws from a fixed multiset in seeded, shuffled passes.

    Each pass deals every card exactly once, so shares are exact over a pass
    and the total work of a run barely depends on the seed — the seed decides
    the order, the constants and which rows are inserted.  (Independent draws
    made the read-back cost of ten seeds differ by 30 %: the spread measured
    the dice, not the server.)
    """

    def __init__(self, rng: random.Random, cards: list):
        self._rng = rng
        self._cards = cards
        self._hand: list = []

    def draw(self):
        if not self._hand:
            self._hand = self._cards[:]
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def _cards(weights: Mapping, resolution: int) -> list:
    """``resolution`` cards split by weight (each weighted item gets >= 1)."""
    total = sum(weights.values())
    return [
        item
        for item, weight in weights.items()
        for _ in range(max(1, round(resolution * weight / total)))
    ]


class ConnectionStream:
    """Everything connection ``conn`` sends, in order, and what it has sent."""

    def __init__(self, spec: Spec, seed: int, conn: int):
        self.spec = spec
        self.conn = conn
        self.relations = spec.relations_of(conn)
        #: Transactions handed out so far — the prefix the oracle replays.
        self.sent: list[Transaction] = []
        # String seeds hash through SHA-512: stable across processes/versions.
        self._writes = rng = random.Random(f"{spec.name}:{seed}:{conn}:writes")
        self._mix = mix = random.Random(f"{spec.name}:{seed}:{conn}:mix")
        zipf = {group: 1.0 / (group + 1) ** spec.skew for group in range(spec.groups)}
        self._group = _Deck(rng, _cards(zipf, round(sum(zipf.values()) / min(zipf.values()))))
        # One deck over (relation, kind) pairs: every relation receives the
        # same number of inserts, deletes and modifies, so the relations'
        # annotations — and with them the cost of reading each — stay alike.
        self._kind = _Deck(rng, list(_KINDS))
        self._target = _Deck(rng, [(name, kind) for name in self.relations for kind in _KINDS])
        self._by_scan = _Deck(rng, _cards({True: spec.neq_share, False: 1 - spec.neq_share}, 10)
                              if spec.neq_share else [False])
        self._op = _Deck(mix, _cards(spec.mix, 10))
        self._read_relation = _Deck(mix, self.relations)

    def base(self) -> Transaction:
        txn = base_transaction(self.spec, self.conn)
        self.sent.append(txn)
        return txn

    def _query(self, relation: str, group: int, kind: str):
        spec, rng = self.spec, self._writes
        if self._by_scan.draw():
            pattern = Pattern(_ARITY, neq={_GRP: set(range(spec.groups)) - {group}})
        else:
            pattern = Pattern(_ARITY, eq={_GRP: group})
        if kind == "insert":
            row_id = group + spec.groups * rng.randrange(spec.ids // spec.groups)
            return Insert(relation, (row_id, group, rng.randrange(spec.values)))
        if kind == "delete":
            return Delete(relation, pattern)
        return Modify(relation, pattern, {_V0: rng.randrange(spec.values)})

    def next_txn(self) -> Transaction:
        """The next write: ``queries_per_txn`` queries on one (hot) group."""
        (relation, first_kind), group = self._target.draw(), self._group.draw()
        kinds = [first_kind, *(self._kind.draw() for _ in range(self.spec.queries_per_txn - 1))]
        queries = [self._query(relation, group, kind) for kind in kinds]
        txn = Transaction(f"c{self.conn}t{len(self.sent)}", queries)
        self.sent.append(txn)
        return txn

    def next_op(self) -> Op:
        """The next operation of the main-phase mix."""
        kind = self._op.draw()
        if kind == "apply":
            return Op("apply", item=self.next_txn())
        relation = self._read_relation.draw()
        if kind == "annotation_of":
            row_id = self._mix.randrange(self.spec.ids)
            row = (row_id, row_id % self.spec.groups, self._mix.randrange(self.spec.values))
            return Op(kind, relation=relation, row=row)
        return Op(kind, relation=relation)

    def readback_op(self, index: int) -> Op:
        """The read-back phase reads every relation of the workload in turn."""
        relations = self.spec.relations
        return Op("provenance", relation=relations[index % len(relations)])


def fingerprint(spec: Spec, seed: int, conn: int, n_ops: int) -> list:
    """A comparable encoding of the first ``n_ops`` main-phase operations."""
    from repro.workloads.logs import query_to_dict

    stream = ConnectionStream(spec, seed, conn)
    encoded: list = [[query_to_dict(q) for q in stream.base().queries]]
    for op in (stream.next_op() for _ in range(n_ops)):
        if op.kind == "apply":
            encoded.append([op.item.name, [query_to_dict(q) for q in op.item.queries]])
        else:
            encoded.append([op.kind, op.relation, op.row])
    return encoded
