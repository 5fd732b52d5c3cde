"""The repro command line interface."""

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_demo_reproduces_figure_4(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Kids mnt bike" in out
    assert "(p1 + p3) *M p" in out or "(p3 + p1) *M p" in out
    assert "(p2 *M p')" in out
    # Example 4.4: aborting T1 brings back (Kids mnt bike, Sport, 50).
    assert "('Kids mnt bike', 'Sport', 50)" in out


def test_axioms_command(capsys):
    assert main(["axioms"]) == 0
    out = capsys.readouterr().out
    assert "boolean" in out and "sets" in out and "trust" in out
    assert "FAILED" not in out


def test_tpcc_command(capsys):
    assert main(["tpcc", "--queries", "40", "--warehouses", "1"]) == 0
    out = capsys.readouterr().out
    assert "TPC-C" in out and "provenance_size" in out


def test_tpcc_journal_then_recover(tmp_path, capsys):
    directory = str(tmp_path / "wal")
    code = main(
        [
            "tpcc", "--queries", "40", "--policy", "naive",
            "--journal", directory, "--checkpoint-every", "30",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "journal:" in out and "checkpoints" in out
    assert main(["recover", directory]) == 0
    out = capsys.readouterr().out
    assert "recovered" in out and "tail_records" in out and "lifetime" in out


def _serve_refused(argv: list[str]) -> str:
    """Run ``repro serve`` in a child that must exit 2; return its stderr.

    A child, so that a server which wrongly starts times out the test
    instead of serving forever inside it.
    """
    import subprocess
    import sys

    from .conftest import subprocess_env

    child = subprocess.run(
        [sys.executable, "-c",
         f"from repro.cli import main; raise SystemExit(main({['serve', *argv]!r}))"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2, child.stdout + child.stderr
    return child.stderr


def test_sharded_directory_is_refused_by_name(tmp_path, capsys):
    """A directory of the retired sharded layout is never read as empty."""
    directory = tmp_path / "sharded"
    directory.mkdir()
    (directory / "shards.json").write_text('{"n_shards": 2}')
    assert main(["recover", str(directory)]) == 2
    served = _serve_refused([str(directory), "--schema", "items:sku,qty", "--port", "0"])
    for err in (capsys.readouterr().err, served):
        assert str(directory) in err and "no longer supported" in err
    assert [path.name for path in directory.iterdir()] == ["shards.json"]


def test_sqlite_checkpoint_is_refused_by_name(tmp_path, capsys):
    """A directory holding a retired SQLite checkpoint is never read as
    empty: recover and serve both exit 2 naming the file."""
    directory = tmp_path / "state"
    directory.mkdir()
    marker = directory / "checkpoint.sqlite"
    marker.write_bytes(b"SQLite format 3\x00")
    assert main(["recover", str(directory)]) == 2
    served = _serve_refused([str(directory), "--schema", "items:sku,qty", "--port", "0"])
    for err in (capsys.readouterr().err, served):
        assert str(marker) in err and "no longer supported" in err
    assert [path.name for path in directory.iterdir()] == ["checkpoint.sqlite"]


def test_serve_plain_backend_refuses_a_directory(tmp_path):
    directory = tmp_path / "state"
    err = _serve_refused([
        str(directory), "--backend", "plain", "--schema", "items:sku,qty", "--port", "0"
    ])
    assert "backend 'plain' keeps no durable directory" in err
    assert not directory.exists()


def test_tpcc_journal_rejects_non_resumable_policy(tmp_path, capsys):
    code = main(
        ["tpcc", "--queries", "10", "--policy", "normal_form",
         "--journal", str(tmp_path / "wal")]
    )
    assert code == 2
    assert "cannot be journaled" in capsys.readouterr().err


def test_recover_without_checkpoint(tmp_path, capsys):
    assert main(["recover", str(tmp_path / "void")]) == 2
    assert "no checkpoint" in capsys.readouterr().err


def test_figure_command_single(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["figure", "blowup"]) == 0
    out = capsys.readouterr().out
    assert "prop5.1" in out


def test_figure_command_unknown(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


def test_figure_save(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert main(["figure", "blowup", "--save", str(tmp_path)]) == 0
    assert (tmp_path / "prop5.1.json").exists()


def test_figure_axis_runs_its_counted_gate(tmp_path, capsys):
    assert main(["figure", "cache", "--scale", "tiny", "--save", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== cache:" in out and "work ratio" in out
    assert (tmp_path / "cache.json").exists() and (tmp_path / "cache.csv").exists()


def test_figure_unknown_scale(capsys):
    assert main(["figure", "cache", "--scale", "huge"]) == 2
    assert "huge" in capsys.readouterr().err


def test_figure_failing_gate_exits_one(capsys, monkeypatch):
    from repro.bench.figures import ALL_FIGURES
    from repro.bench.reporting import FigureResult

    def failing(scale=None):
        row = {"claimed work": 9, "baseline work": 10, "gate": False}
        return [FigureResult("cache", "a failing axis", list(row), rows=[row])]

    monkeypatch.setitem(ALL_FIGURES, "cache", failing)
    assert main(["figure", "cache", "blowup", "--scale", "tiny"]) == 1
    captured = capsys.readouterr()
    assert "prop5.1" in captured.out  # later figures still run and print
    assert "counted gate failed: cache" in captured.err


def test_sql_command(tmp_path, capsys):
    script = tmp_path / "script.sql"
    script.write_text(
        """
        BEGIN TRANSACTION t1;
        UPDATE products SET price = 50 WHERE category = 'Sport';
        COMMIT;
        """
    )
    csv = tmp_path / "products.csv"
    csv.write_text("product,category,price\nRacket,Sport,70\nDress,Fashion,40\n")
    code = main(
        [
            "sql",
            str(script),
            "--schema",
            "products:product,category,price",
            "--csv",
            f"products={csv}",
            "--minimize",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "('Racket', 'Sport', 50)" in out
    assert "*M t1" in out


def test_sql_command_bad_schema_spec(capsys):
    assert main(["sql", "-", "--schema", "nocolumns"]) == 2
    assert "REL:a,b,c" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def free_port() -> int:
    """A port that was free a moment ago (good enough for test servers)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_serve_and_client_round_trip(tmp_path, capsys):
    """``repro serve`` in a child process, driven by ``repro client``."""
    import json
    import subprocess
    import sys

    from .conftest import subprocess_env

    directory = str(tmp_path / "state")
    port = str(free_port())
    log_file = tmp_path / "log.json"
    log_file.write_text(json.dumps({
        "meta": {},
        "items": [{
            "type": "transaction",
            "name": "t1",
            "queries": [{"kind": "insert", "relation": "items", "row": ["widget", 3]}],
        }],
    }))
    server = subprocess.Popen(
        [sys.executable, "-c",
         "from repro.cli import main; raise SystemExit(main("
         f"['serve', {directory!r}, '--backend', 'journaled', '--policy', 'naive',"
         " '--schema', 'items:sku,qty', '--port', " + repr(port) + "]))"],
        env=subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        client = ["client", "--port", port]  # --retry waits for the bind
        assert main([*client, "apply", str(log_file)]) == 0
        assert "applied 1 queries" in capsys.readouterr().out
        assert main([*client, "provenance", "items"]) == 0
        assert "('widget', 3)" in capsys.readouterr().out
        assert main([*client, "stats"]) == 0
        assert "admitted: 1" in capsys.readouterr().out
        assert main([*client, "shutdown"]) == 0
        output, _ = server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    assert server.returncode == 0, output
    assert "server stopped (flushed and checkpointed)" in output
    # The graceful shutdown checkpointed: the directory recovers cleanly.
    assert main(["recover", directory]) == 0
    assert "tail_records: 0" in capsys.readouterr().out


def test_client_without_server_reports_error(capsys):
    assert main(["client", "ping", "--port", str(free_port()), "--retry", "0.1"]) == 2
    assert "cannot connect" in capsys.readouterr().err


def test_loadgen_print_serve_args(capsys):
    assert main(["loadgen", "--profile", "tiny", "--print-serve-args"]) == 0
    out = capsys.readouterr().out
    assert "--schema load_0:id,grp,v0 --schema load_1:id,grp,v0" in out


def test_loadgen_rejects_unknown_profile_and_bad_specs(capsys):
    assert main(["loadgen", "--profile", "galactic"]) == 2
    assert "unknown profile" in capsys.readouterr().err
    assert main(["loadgen", "--slo", "apply-p99-fast"]) == 2
    assert "bad SLO" in capsys.readouterr().err
    assert main(["loadgen", "--mix", "apply=lots"]) == 2
    assert "bad mix weight" in capsys.readouterr().err


@pytest.fixture()
def loadgen_server():
    """An in-process server holding the tiny profile's relations."""
    from repro.db.database import Database
    from repro.loadgen import loadgen_schema, profile_from_name
    from repro.server.server import serve_in_thread
    from repro.server.service import ServerConfig

    database = Database(loadgen_schema(profile_from_name("tiny")))
    handle = serve_in_thread(database, ServerConfig(port=0, policy="normal_form_batch"))
    yield handle
    handle.stop()


def test_loadgen_run_writes_trajectory_and_csv(tmp_path, capsys, loadgen_server):
    import json

    code = main([
        "loadgen", "--port", str(loadgen_server.port), "--threads",
        "--profile", "tiny", "--ops", "30",
        "--slo", "apply:p99<5", "--slo", "state:max<10",
        "--save", str(tmp_path), "--csv", str(tmp_path / "quantiles.csv"),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "profile tiny: 60 ops over 2 workers" in out
    assert "p99" in out
    envelope = json.loads((tmp_path / "BENCH_loadgen_tiny.json").read_text())
    assert envelope["kind"] == "loadgen"
    assert envelope["payload"]["config"]["ops_per_worker"] == 30
    csv_text = (tmp_path / "quantiles.csv").read_text()
    assert csv_text.startswith("op,count,errors,p50,p90,p99,max,mean")


def test_loadgen_slo_violation_exits_nonzero(tmp_path, capsys, loadgen_server):
    code = main([
        "loadgen", "--port", str(loadgen_server.port), "--threads",
        "--profile", "tiny", "--ops", "20", "--report-every", "0",
        "--slo", "apply:p99<0.000001", "--save", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "SLO violated: apply:p99<1e-06" in captured.err


def test_loadgen_refuses_a_server_missing_its_relations(tmp_path, capsys, loadgen_server):
    # Ask for more workers than the served schema has relations for.
    code = main([
        "loadgen", "--port", str(loadgen_server.port), "--threads",
        "--profile", "tiny", "--workers", "3", "--no-save",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "missing loadgen relations" in captured.err
    assert "--schema load_2:id,grp,v0" in captured.err
