"""The ``repro`` command line interface.

Subcommands::

    repro demo                        the paper's Figure 1/4 walkthrough
    repro figure fig7 [fig8 ...]      regenerate evaluation figures
    repro figure all --save out/      all figures, JSON+CSV persisted
    repro figure cache index ...      a layer's measured axis (counted gate)
    repro tpcc --queries 400          generate + run a TPC-C log, report overheads
    repro tpcc --journal state/ --policy naive   same, durably (WAL + checkpoints)
    repro recover state/              resume a journaled directory after a crash
    repro serve state/ --schema R:a,b serve the engine over TCP (recovers state/
                                      if it already holds a journaled deployment)
    repro client apply log.json       talk to a running server (also: ping, stats,
                                      provenance REL, state, checkpoint, shutdown)
    repro loadgen --profile tiny      drive a running server with a multiprocess
                                      client swarm; p50/p90/p99/max per op type,
                                      SLO floors, BENCH_loadgen_*.json trajectory
    repro sql --schema R:a,b script   execute a SQL-fragment script with provenance
    repro axioms                      check every shipped structure against Figure 3

Every command prints plain text; ``--save`` writes machine-readable copies.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Equivalence-invariant algebraic provenance for hyperplane updates "
        "(SIGMOD 2020 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's products example (Figures 1-4)")
    demo.set_defaults(func=cmd_demo)

    figure = sub.add_parser("figure", help="regenerate evaluation figures")
    figure.add_argument(
        "names",
        nargs="+",
        help="figure ids (fig7 fig8 fig9a fig9b fig10 blowup ablation), measured axes "
        "(cache index server view recovery replication memory) or 'all'",
    )
    figure.add_argument("--scale", default=None, help="tiny | small | medium | paper")
    figure.add_argument("--save", default=None, metavar="DIR", help="write JSON/CSV here")
    figure.set_defaults(func=cmd_figure)

    tpcc = sub.add_parser("tpcc", help="generate and run a TPC-C update log")
    tpcc.add_argument("--queries", type=int, default=400)
    tpcc.add_argument("--warehouses", type=int, default=1)
    tpcc.add_argument("--seed", type=int, default=42)
    tpcc.add_argument(
        "--policy", default="normal_form", help="none | naive | normal_form | mv_tree | mv_string"
    )
    tpcc.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="run durably: write-ahead log + checkpoints in DIR (requires a "
        "resumable policy: naive or normal_form_batch)",
    )
    tpcc.add_argument(
        "--journal-sync",
        choices=["none", "flush", "fsync"],
        default="flush",
        help="journal sync policy (default: flush)",
    )
    tpcc.add_argument(
        "--checkpoint-every",
        type=int,
        default=1024,
        metavar="N",
        help="checkpoint after N journal records (default: 1024)",
    )
    tpcc.set_defaults(func=cmd_tpcc)

    recover = sub.add_parser(
        "recover", help="recover a journaled engine directory (checkpoint + log tail)"
    )
    recover.add_argument("directory", help="directory holding checkpoint.json + journal.log")
    recover.add_argument(
        "--journal-sync",
        choices=["none", "flush", "fsync"],
        default="flush",
        help="sync policy for the resumed journal (match the original run; "
        "default: flush)",
    )
    recover.add_argument(
        "--checkpoint-every",
        type=int,
        default=1024,
        metavar="N",
        help="checkpoint threshold for the resumed engine (match the original "
        "run; default: 1024)",
    )
    recover.set_defaults(func=cmd_recover)

    serve = sub.add_parser(
        "serve", help="serve the engine over TCP (length-prefixed JSON protocol)"
    )
    serve.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="durable directory (journaled backend); an existing "
        "deployment there is recovered and resumed. Omit for a purely "
        "in-memory server",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None, help="default: 7464")
    serve.add_argument(
        "--backend",
        choices=["auto", "plain", "journaled"],
        default="auto",
        help="auto = journaled when a directory is given, plain otherwise",
    )
    serve.add_argument(
        "--policy",
        default="normal_form_batch",
        help="engine policy (journaled backends need a resumable one: naive "
        "or normal_form_batch; default: normal_form_batch)",
    )
    serve.add_argument(
        "--schema",
        action="append",
        default=[],
        metavar="REL:a,b,c",
        help="relation declaration for a fresh server (repeatable; ignored "
        "when recovering an existing directory)",
    )
    serve.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="REL=path",
        help="load initial rows for REL from a CSV file (repeatable)",
    )
    serve.add_argument(
        "--journal-sync", choices=["none", "flush", "fsync"], default="flush"
    )
    serve.add_argument("--checkpoint-every", type=int, default=1024, metavar="N")
    serve.add_argument(
        "--admission-max",
        type=int,
        default=256,
        metavar="N",
        help="most apply requests fused into one writer cycle (1 = per-call "
        "dispatch; default: 256)",
    )
    serve.set_defaults(func=cmd_serve)

    client = sub.add_parser("client", help="talk to a running repro server")
    client.add_argument(
        "action",
        choices=[
            "ping",
            "stats",
            "state",
            "provenance",
            "apply",
            "checkpoint",
            "subscribe",
            "shutdown",
        ],
    )
    client.add_argument(
        "argument",
        nargs="?",
        default=None,
        help="relation name (provenance), update-log JSON file (apply), or "
        "REL[:attr=val,...] standing pattern (subscribe)",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=None, help="default: 7464")
    client.add_argument(
        "--retry",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="keep retrying the connection this long (default: 5)",
    )
    client.set_defaults(func=cmd_client)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running repro server with a multiprocess load swarm "
        "(per-op latency histograms, SLO floors, BENCH_*.json trajectory)",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None, help="default: 7464")
    loadgen.add_argument(
        "--follower",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="replication follower to route reads to (repeatable; writes "
        "stay on --host/--port and a replica_lag histogram is recorded)",
    )
    loadgen.add_argument(
        "--max-lag",
        type=int,
        default=64,
        metavar="N",
        help="staleness bound for follower reads, in journal records "
        "(default: 64; reads outside the bound fall back to the primary)",
    )
    loadgen.add_argument(
        "--profile",
        default="tiny",
        help="named profile (tiny | smoke | medium) the flags below override",
    )
    loadgen.add_argument("--workers", type=int, default=None, metavar="N")
    loadgen.add_argument(
        "--ops", type=int, default=None, metavar="N", help="timed operations per worker"
    )
    loadgen.add_argument(
        "--rows", type=int, default=None, metavar="N", help="prelude rows per worker"
    )
    loadgen.add_argument("--seed", type=int, default=None)
    loadgen.add_argument(
        "--mix",
        default=None,
        metavar="KIND=W,...",
        help=(
            "op mix weights, e.g. apply=0.6,provenance=0.25,state=0.1,"
            "annotation_of=0.05 (a subscribe weight adds live-view drains "
            "with a delta_lag histogram)"
        ),
    )
    loadgen.add_argument(
        "--max-rate",
        type=float,
        default=None,
        metavar="OPS/S",
        help="token-bucket pace the whole swarm at this aggregate rate (0 = unpaced)",
    )
    loadgen.add_argument(
        "--schedule",
        default=None,
        metavar="RATExSECS,...",
        help="ramp schedule, e.g. 50x5,200x10,0 (overrides --max-rate)",
    )
    loadgen.add_argument(
        "--pipeline",
        type=int,
        default=None,
        metavar="N",
        help="max contiguous applies shipped as one pipelined burst",
    )
    loadgen.add_argument(
        "--repeat",
        type=int,
        default=None,
        metavar="N",
        help="soak: each worker replays its op stream N times (default: 1)",
    )
    loadgen.add_argument(
        "--threads",
        action="store_true",
        help="run workers as threads instead of processes (testing/debugging)",
    )
    loadgen.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="OP:pNN<SECS",
        help="latency floor, e.g. apply:p99<0.05 (repeatable; violations exit 1)",
    )
    loadgen.add_argument(
        "--save",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_loadgen_<profile>.json trajectory (default: .)",
    )
    loadgen.add_argument(
        "--no-save", action="store_true", help="skip writing the trajectory file"
    )
    loadgen.add_argument(
        "--csv", default=None, metavar="PATH", help="also export per-op quantiles as CSV"
    )
    loadgen.add_argument(
        "--report-every",
        type=float,
        default=1.0,
        metavar="SECS",
        help="periodic stats-line interval (0 = quiet until the summary)",
    )
    loadgen.add_argument(
        "--print-serve-args",
        action="store_true",
        help="print the repro serve --schema flags this profile needs, then exit",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    replicate = sub.add_parser(
        "replicate",
        help="read-scaling replication: journal-shipping primary, "
        "snapshot-isolated followers, promote-on-failure",
    )
    rsub = replicate.add_subparsers(dest="role", required=True)

    rprimary = rsub.add_parser(
        "primary", help="serve a journaled writer with a shipping endpoint"
    )
    rprimary.add_argument("directory", help="durable directory (recovered if it exists)")
    rprimary.add_argument("--host", default="127.0.0.1")
    rprimary.add_argument("--port", type=int, default=None, help="default: 7464")
    rprimary.add_argument(
        "--replication-port",
        type=int,
        default=0,
        metavar="PORT",
        help="shipping endpoint followers connect to (default: ephemeral, printed)",
    )
    rprimary.add_argument("--policy", default="normal_form_batch")
    rprimary.add_argument(
        "--schema", action="append", default=[], metavar="REL:a,b,c",
        help="relation declaration for a fresh primary (repeatable)",
    )
    rprimary.add_argument("--csv", action="append", default=[], metavar="REL=path")
    rprimary.add_argument(
        "--journal-sync", choices=["none", "flush", "fsync"], default="flush"
    )
    rprimary.add_argument("--checkpoint-every", type=int, default=1024, metavar="N")
    rprimary.add_argument("--admission-max", type=int, default=256, metavar="N")
    rprimary.add_argument(
        "--buffer-records",
        type=int,
        default=4096,
        metavar="N",
        help="shipped records retained in memory for streaming followers "
        "(size above --checkpoint-every; default: 4096)",
    )
    rprimary.set_defaults(func=cmd_replicate)

    rfollower = rsub.add_parser(
        "follower", help="bootstrap from the primary and serve bounded-stale reads"
    )
    rfollower.add_argument("directory", help="durable directory for this follower")
    rfollower.add_argument(
        "--primary", required=True, metavar="HOST:PORT",
        help="the primary's shipping endpoint (from its startup line)",
    )
    rfollower.add_argument("--host", default="127.0.0.1")
    rfollower.add_argument(
        "--port", type=int, default=0, help="read-serving port (default: ephemeral, printed)"
    )
    rfollower.add_argument(
        "--journal-sync", choices=["none", "flush", "fsync"], default="flush"
    )
    rfollower.add_argument("--checkpoint-every", type=int, default=1024, metavar="N")
    rfollower.set_defaults(func=cmd_replicate)

    rpromote = rsub.add_parser(
        "promote", help="turn a follower into a writer (after the primary died)"
    )
    rpromote.add_argument("--host", default="127.0.0.1")
    rpromote.add_argument("--port", type=int, required=True)
    rpromote.add_argument("--retry", type=float, default=5.0, metavar="SECONDS")
    rpromote.set_defaults(func=cmd_replicate)

    rstatus = rsub.add_parser("status", help="one node's role and stream health")
    rstatus.add_argument("--host", default="127.0.0.1")
    rstatus.add_argument("--port", type=int, required=True)
    rstatus.add_argument("--retry", type=float, default=5.0, metavar="SECONDS")
    rstatus.set_defaults(func=cmd_replicate)

    sql = sub.add_parser("sql", help="run a SQL-fragment script with provenance tracking")
    sql.add_argument("script", help="path to the script, or '-' for stdin")
    sql.add_argument(
        "--schema",
        action="append",
        required=True,
        metavar="REL:a,b,c",
        help="relation declaration (repeatable)",
    )
    sql.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="REL=path",
        help="load initial rows for REL from a CSV file (repeatable)",
    )
    sql.add_argument("--policy", default="normal_form")
    sql.add_argument("--minimize", action="store_true", help="apply Prop. 5.5 minimization")
    sql.set_defaults(func=cmd_sql)

    axioms = sub.add_parser("axioms", help="verify shipped structures against Figure 3")
    axioms.set_defaults(func=cmd_axioms)

    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_demo(_args: argparse.Namespace) -> int:
    from .db.database import Database
    from .engine.engine import Engine
    from .queries.updates import Modify, Transaction

    db = Database.from_rows(
        "products",
        ["product", "category", "price"],
        [
            ("Kids mnt bike", "Sport", 120),
            ("Tennis Racket", "Sport", 70),
            ("Kids mnt bike", "Kids", 120),
            ("Children sneakers", "Fashion", 40),
        ],
    )
    rel = db.relation("products")
    names = {
        ("Kids mnt bike", "Sport", 120): "p1",
        ("Tennis Racket", "Sport", 70): "p2",
        ("Kids mnt bike", "Kids", 120): "p3",
        ("Children sneakers", "Fashion", 40): "p4",
    }
    print("Initial table (Figure 1a):")
    for row, name in names.items():
        print(f"  {row!r:48} {name}")
    t1 = Transaction(
        "p",
        [
            Modify.set(
                rel,
                where={"product": "Kids mnt bike", "category": "Kids"},
                set_values={"category": "Sport"},
            ),
            Modify.set(
                rel,
                where={"product": "Kids mnt bike", "category": "Sport"},
                set_values={"category": "Bicycles"},
            ),
        ],
    )
    t2 = Transaction(
        "p'", [Modify.set(rel, where={"category": "Sport"}, set_values={"price": 50})]
    )
    engine = Engine(db, policy="normal_form", annotate=lambda r, row, i: names[row])
    engine.apply(t1).apply(t2)
    print("\nAfter T1 (Figure 2a) and T2 (Figure 2c), annotated output (cf. Figure 4):")
    for row, expr, live in sorted(engine.provenance("products"), key=repr):
        flag = "live" if live else "gone"
        print(f"  [{flag}] {row!r:42} {expr}")
    print("\nWhat-if: abort T1 (assign False to p) — Example 4.4:")
    from .semantics.boolean import BooleanStructure

    structure = BooleanStructure()
    from .core.expr import evaluate

    env = lambda name: name != "p"  # noqa: E731
    for row, expr, _live in sorted(engine.provenance("products"), key=repr):
        if evaluate(expr, structure, env):
            print(f"  {row!r}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    import os

    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    from .bench.figures import ALL_FIGURES, run_figures

    names = list(ALL_FIGURES) if "all" in args.names else args.names
    failed = []
    try:
        for result in run_figures(names):
            result.print()
            if args.save:
                path = result.save(Path(args.save))
                print(f"saved {path}")
            # Measured axes carry a counted-work gate per row; paper figures don't.
            if not all(row.get("gate", True) for row in result.rows):
                failed.append(result.figure)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"error: counted gate failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_tpcc(args: argparse.Namespace) -> int:
    from .engine.engine import Engine
    from .errors import ReproError
    from .tpcc.driver import generate_tpcc
    from .tpcc.loader import TPCCScale

    workload = generate_tpcc(
        TPCCScale(warehouses=args.warehouses), n_queries=args.queries, seed=args.seed
    )
    print(
        f"TPC-C: {workload.database.total_rows():,} initial tuples, "
        f"{workload.log.query_count()} update queries "
        f"({', '.join(f'{k}={v}' for k, v in workload.mix_counts.items() if v)})"
    )
    baseline = Engine(workload.database, policy="none").apply(workload.log)
    try:
        if args.journal:
            from .wal import JournaledEngine

            engine = JournaledEngine(
                workload.database,
                args.journal,
                policy=args.policy,
                sync=args.journal_sync,
                checkpoint_every=args.checkpoint_every,
            )
            engine.apply(workload.log)
        else:
            engine = Engine(workload.database, policy=args.policy).apply(workload.log)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = engine.overhead_report(baseline)
        for key, value in report.items():
            print(f"  {key}: {value}")
        diverged = not engine.result().same_contents(baseline.result())
        if args.journal:
            engine.close()
            print(
                f"  journal: {engine.journal.appended} records appended, "
                f"{engine.checkpoints.written} checkpoints "
                f"({engine.stats.checkpoint_time:.3f}s) -> {args.journal}"
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if diverged:
        print("error: provenance run diverged from the vanilla result", file=sys.stderr)
        return 1
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .wal import recover

    try:
        engine = recover(
            args.directory,
            sync=args.journal_sync,
            checkpoint_every=args.checkpoint_every,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = engine.recovery
    print(f"recovered {args.directory} (policy {report.policy})")
    for key, value in report.as_dict().items():
        if key != "policy":
            print(f"  {key}: {value}")
    stats = engine.stats
    print(
        f"  lifetime: {stats.queries} queries in {stats.transactions} transactions, "
        f"{stats.rows_created} rows created"
    )
    # Fold the replayed tail into a fresh checkpoint so the next recovery
    # starts clean, and close the journal.
    engine.close()
    return 0


def _database_from_specs(schema_specs: list[str], csv_specs: list[str]):
    """Build a Database from repeated ``REL:a,b`` / ``REL=path`` options."""
    from .db.database import Database
    from .db.schema import Relation, Schema
    from .errors import ReproError
    from .storage.csvio import load_csv

    relations = []
    for spec in schema_specs:
        name, _, attrs = spec.partition(":")
        if not attrs:
            raise ReproError(f"schema spec {spec!r} must look like REL:a,b,c")
        relations.append(Relation(name.strip(), [a.strip() for a in attrs.split(",")]))
    db = Database(Schema(relations))
    for item in csv_specs:
        name, _, path = item.partition("=")
        if not path:
            raise ReproError(f"--csv spec {item!r} must look like REL=path")
        loaded = load_csv(path, f"__tmp_{name}")
        db.extend(name, loaded.rows(f"__tmp_{name}"))
    return db


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .errors import ReproError
    from .server.protocol import DEFAULT_PORT
    from .server.server import ProvenanceServer
    from .server.service import ProvenanceService, ServerConfig, build_engine

    backend = args.backend
    if backend == "auto":
        backend = "plain" if args.directory is None else "journaled"
    config = ServerConfig(
        host=args.host,
        port=args.port if args.port is not None else DEFAULT_PORT,
        backend=backend,
        policy=args.policy,
        directory=args.directory,
        sync=args.journal_sync,
        checkpoint_every=args.checkpoint_every,
        admission_max=args.admission_max,
    )

    async def _run() -> int:
        try:
            if args.csv and not args.schema:
                raise ReproError("--csv needs --schema to declare its relation")
            database = _database_from_specs(args.schema, args.csv) if args.schema else None
            service = ProvenanceService(build_engine(database, config), config)
            server = ProvenanceServer(service)
            await server.start()
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        recovery = service.engine.recovery
        if recovery is not None:
            print(f"recovered {args.directory}: {recovery.as_dict()}")
        print(
            f"serving on {server.host}:{server.port} "
            f"(backend={backend}, policy={config.policy}, "
            f"admission_max={config.admission_max})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        # The loop holds only a weak reference to tasks; keep a strong one
        # so the graceful stop cannot be garbage-collected mid-shutdown.
        stop_tasks: list[asyncio.Task] = []
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    signum,
                    lambda: stop_tasks.append(loop.create_task(server.stop())),
                )
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-posix
            pass
        await server.wait_stopped()
        print("server stopped (flushed and checkpointed)")
        return 0

    return asyncio.run(_run())


def _client_subscribe(client, spec: str) -> int:
    """``repro client subscribe REL[:attr=val,...]``: stream deltas until ^C.

    Constants parse as int, then float, then stay strings — the same
    scalars the wire protocol ships.  The seeded answer set prints first
    (so the terminal mirrors the view from version 0 of the stream), then
    one line per delta as batches arrive.
    """
    from .errors import ReproError
    from .db.schema import Relation
    from .queries.pattern import Pattern

    relation_name, _, constraint = spec.partition(":")
    schema = client.ping()["schema"]
    if relation_name not in schema:
        raise ReproError(
            f"unknown relation {relation_name!r} (schema: {', '.join(schema)})"
        )
    relation = Relation(relation_name, list(schema[relation_name]))
    where: dict[str, object] = {}
    if constraint:
        for part in constraint.split(","):
            attr, eq, raw = part.partition("=")
            if not eq:
                raise ReproError(f"bad pattern term {part!r} (want attr=val)")
            value: object = raw
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    continue
            where[attr.strip()] = value
    pattern = Pattern.build(relation, where=where) if where else None
    subscription = client.subscribe(relation_name, pattern)
    described = (pattern or Pattern.any(relation.arity)).describe(relation)
    print(
        f"subscribed #{subscription.view_id} to {relation_name}[{described}] "
        f"at version {subscription.version}"
    )
    for row, (expr, live) in sorted(subscription.rows.items(), key=repr):
        flag = "live" if live else "gone"
        print(f"  [seed] [{flag}] {row!r}  ::  {expr}")
    try:
        for event in subscription:
            if event.lagged:
                print("!! lagged: server dropped this subscription; re-subscribe")
                return 3
            for delta in event.batch:
                flag = "live" if delta.live else "gone"
                print(
                    f"  [v{event.batch.version}] {delta.kind:<10} [{flag}] "
                    f"{delta.row!r}  ::  {delta.expr}"
                )
    except KeyboardInterrupt:
        subscription.unsubscribe()
        print("unsubscribed")
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .server.client import ServerClient
    from .server.protocol import DEFAULT_PORT
    from .workloads.logs import log_from_json

    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        with ServerClient(args.host, port, connect_retry=args.retry) as client:
            if args.action == "ping":
                for key, value in client.ping().items():
                    print(f"  {key}: {value}")
            elif args.action == "stats":
                stats = client.stats()
                for section in ("engine", "server", "memory"):
                    print(f"-- {section}")
                    for key, value in stats[section].items():
                        print(f"  {key}: {value}")
            elif args.action == "state":
                for relation, rows in client.state().items():
                    print(f"-- {relation}")
                    for row, (expr, live) in sorted(rows.items(), key=repr):
                        flag = "live" if live else "gone"
                        print(f"  [{flag}] {row!r}  ::  {expr}")
            elif args.action == "provenance":
                if not args.argument:
                    raise ReproError("provenance needs a relation name argument")
                for row, expr, live in sorted(
                    client.provenance(args.argument), key=repr
                ):
                    flag = "live" if live else "gone"
                    print(f"  [{flag}] {row!r}  ::  {expr}")
            elif args.action == "apply":
                if not args.argument:
                    raise ReproError("apply needs an update-log JSON file argument")
                log, _schema = log_from_json(Path(args.argument).read_text())
                applied = client.apply_batch(log.items)
                print(f"applied {applied} queries")
            elif args.action == "checkpoint":
                print(f"checkpoints written: {client.checkpoint()}")
            elif args.action == "subscribe":
                if not args.argument:
                    raise ReproError(
                        "subscribe needs a REL[:attr=val,...] argument"
                    )
                return _client_subscribe(client, args.argument)
            elif args.action == "shutdown":
                client.shutdown()
                print("server shutting down")
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .errors import ReproError, ServerError
    from .loadgen import (
        ATTRIBUTES,
        check_slos,
        parse_slos,
        profile_from_name,
        run_loadgen,
        schema_specs,
        worker_relation,
        write_result,
    )
    from .server.client import ServerClient
    from .server.protocol import DEFAULT_PORT

    try:
        overrides: dict[str, object] = {}
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.ops is not None:
            overrides["ops_per_worker"] = args.ops
        if args.rows is not None:
            overrides["rows_per_worker"] = args.rows
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.mix is not None:
            from .loadgen import MixSpec

            overrides["mix"] = MixSpec.parse(args.mix)
        if args.max_rate is not None:
            overrides["max_rate"] = args.max_rate
        if args.schedule is not None:
            overrides["schedule"] = args.schedule
        if args.pipeline is not None:
            overrides["pipeline"] = args.pipeline
        if args.repeat is not None:
            overrides["repeat"] = args.repeat
        profile = profile_from_name(args.profile, **overrides)
        slos = parse_slos(args.slo)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.print_serve_args:
        print(" ".join(f"--schema {spec}" for spec in schema_specs(profile)))
        return 0

    port = args.port if args.port is not None else DEFAULT_PORT
    try:
        with ServerClient(args.host, port, connect_retry=10.0) as client:
            served = client.ping().get("schema", {})
        missing = [
            worker_relation(w)
            for w in range(profile.workers)
            if list(served.get(worker_relation(w), [])) != list(ATTRIBUTES)
        ]
        if missing:
            wanted = " ".join(f"--schema {spec}" for spec in schema_specs(profile))
            raise ServerError(
                f"server is missing loadgen relations {missing}; "
                f"start it with: repro serve {wanted}"
            )
        result = run_loadgen(
            profile,
            host=args.host,
            port=port,
            mode="thread" if args.threads else "process",
            progress=print if args.report_every > 0 else None,
            report_every=args.report_every,
            followers=[_parse_address(spec) for spec in (args.follower or [])],
            max_lag=args.max_lag,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(result.format_summary())
    if not args.no_save:
        path = write_result(result, args.save)
        print(f"wrote {path}")
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
        print(f"wrote {args.csv}")
    violations = check_slos(result, slos)
    for violation in violations:
        print(f"SLO violated: {violation}", file=sys.stderr)
    return 1 if violations else 0


def _parse_address(spec: str) -> tuple[str, int]:
    from .errors import ReproError

    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"address {spec!r} must look like HOST:PORT")
    return host, int(port)


def _wait_until_stopped(is_closed) -> None:
    """Block the main thread until SIGINT/SIGTERM or the node shuts down."""
    import signal
    import threading

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - non-main thread
            break
    while not stop.is_set() and not is_closed():
        stop.wait(0.2)


def cmd_replicate(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .server.protocol import DEFAULT_PORT
    from .server.service import ServerConfig

    try:
        if args.role == "primary":
            from .replication import serve_primary

            config = ServerConfig(
                host=args.host,
                port=args.port if args.port is not None else DEFAULT_PORT,
                backend="journaled",
                policy=args.policy,
                directory=args.directory,
                sync=args.journal_sync,
                checkpoint_every=args.checkpoint_every,
                admission_max=args.admission_max,
            )
            if args.csv and not args.schema:
                raise ReproError("--csv needs --schema to declare its relation")
            database = (
                _database_from_specs(args.schema, args.csv) if args.schema else None
            )
            handle = serve_primary(
                database,
                config,
                replication_host=args.host,
                replication_port=args.replication_port,
                buffer_records=args.buffer_records,
            )
            print(
                f"primary serving on {handle.server.host}:{handle.server.port} "
                f"shipping on {handle.listener.host}:{handle.listener.port} "
                f"(policy={config.policy}, seq={handle.hub.last_seq})",
                flush=True,
            )
            try:
                _wait_until_stopped(lambda: handle.service.closed)
            finally:
                handle.stop()
            print("primary stopped (flushed and checkpointed)")
            return 0

        if args.role == "follower":
            from .replication import FollowerNode

            config = ServerConfig(
                host=args.host,
                port=args.port,
                backend="journaled",
                directory=args.directory,
                sync=args.journal_sync,
                checkpoint_every=args.checkpoint_every,
            )
            node = FollowerNode(
                args.directory, _parse_address(args.primary), config
            )
            node.start()
            print(
                f"follower serving on {node.address[0]}:{node.address[1]} "
                f"tracking {args.primary} (seq={node.applied_seq})",
                flush=True,
            )
            try:
                _wait_until_stopped(lambda: node.service.closed)
            finally:
                node.stop()
            print("follower stopped (journal tail kept for the next bootstrap)")
            return 0

        from .server.client import ServerClient

        with ServerClient(args.host, args.port, connect_retry=args.retry) as client:
            if args.role == "promote":
                result = client.promote()
                print(f"promoted: now {result['role']} at seq {result['seq']}")
                return 0
            # status
            stats = client.stats()
            for key, value in stats["server"].items():
                print(f"  {key}: {value}")
            for key, value in stats.get("replication", {}).items():
                print(f"  replication.{key}: {value}")
            return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_sql(args: argparse.Namespace) -> int:
    from .core.minimize import minimize
    from .db.database import Database
    from .db.schema import Relation, Schema
    from .engine.engine import Engine
    from .errors import ReproError
    from .lang.sql import parse_sql_script
    from .storage.csvio import load_csv

    try:
        relations = []
        for spec in args.schema:
            name, _, attrs = spec.partition(":")
            if not attrs:
                raise ReproError(f"schema spec {spec!r} must look like REL:a,b,c")
            relations.append(Relation(name.strip(), [a.strip() for a in attrs.split(",")]))
        schema = Schema(relations)
        db = Database(schema)
        for item in args.csv:
            name, _, path = item.partition("=")
            if not path:
                raise ReproError(f"--csv spec {item!r} must look like REL=path")
            loaded = load_csv(path, f"__tmp_{name}")
            db.extend(name, loaded.rows(f"__tmp_{name}"))
        text = sys.stdin.read() if args.script == "-" else Path(args.script).read_text()
        items = parse_sql_script(text, schema)
        engine = Engine(db, policy=args.policy)
        engine.apply(items)
        for relation in schema.names:
            print(f"-- {relation}")
            for row, expr, live in sorted(engine.provenance(relation), key=repr):
                shown = minimize(expr) if args.minimize else expr
                flag = "live" if live else "gone"
                print(f"  [{flag}] {row!r}  ::  {shown}")
        stats = engine.stats
        print(
            f"-- planner: {stats.index_hits} index hits, "
            f"{stats.fallback_scans} fallback scans, "
            f"{stats.index_rows_examined} rows examined via indexes"
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_axioms(_args: argparse.Namespace) -> int:
    import itertools

    from .semantics.boolean import BooleanStructure
    from .semantics.sets import SetStructure
    from .semantics.trust import TrustStructure, TrustValue

    checks = [
        (BooleanStructure(), [False, True]),
        (
            SetStructure({"a", "b"}),
            [
                frozenset(s)
                for r in range(3)
                for s in itertools.combinations(("a", "b"), r)
            ],
        ),
        (
            TrustStructure(0.5),
            [TrustValue(1.0, "T"), TrustValue(0.0, "F"), TrustValue(0.9, "U"), TrustValue(0.1, "U")],
        ),
    ]
    failed = False
    for structure, elements in checks:
        try:
            structure.check_zero_axioms(elements)
            structure.check_axioms(elements)
            print(f"  {structure.name}: all 12 axioms + zero axioms hold")
        except Exception as exc:  # surface the witness
            failed = True
            print(f"  {structure.name}: FAILED — {exc}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
