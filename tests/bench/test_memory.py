"""A soaked loadgen run on the memory axis (ISSUE 7 acceptance, test scale).

The node-count floor of the ``memory`` axis is held by
``tests/bench/test_axes.py``; this file keeps the served half: a soaked
loadgen run against a sweeping server must complete error-free while the
driver's ``stats`` polls observe memory samples, and the
``BENCH_loadgen_*`` trajectory must carry them.  Runs in a subprocess:
``sweep_every`` enables the process-global intern GC, and sweeps on the
server's writer thread would reclaim *other* tests' unrooted expressions
in a shared pytest process.
"""

from __future__ import annotations

import subprocess
import sys


def test_soaked_loadgen_samples_memory_and_sweeps(tmp_path):
    script = (
        "import json, sys\n"
        "from repro.db.database import Database\n"
        "from repro.loadgen import loadgen_schema, profile_from_name, run_loadgen, write_result\n"
        "from repro.server.server import serve_in_thread\n"
        "from repro.server.service import ServerConfig\n"
        "profile = profile_from_name('tiny', repeat=3)\n"
        "database = Database(loadgen_schema(profile))\n"
        "handle = serve_in_thread(\n"
        "    database, ServerConfig(port=0, policy='normal_form_batch', sweep_every=2))\n"
        "try:\n"
        "    result = run_loadgen(profile, host=handle.host, port=handle.port,\n"
        "                         mode='thread', report_every=0.2)\n"
        "finally:\n"
        "    handle.stop()\n"
        "assert result.errors_total == 0, result.errors\n"
        "assert result.ops_total == 2 * 60 * 3  # tiny stream replayed 3x\n"
        "assert result.memory_samples, 'stats polls produced no samples'\n"
        "for sample in result.memory_samples:\n"
        "    assert sample['intern_table_size'] > 0\n"
        "    assert sample['rss_bytes'] > 0\n"
        "    assert sample['sweep_every'] == 2\n"
        "final = result.memory_samples[-1]\n"
        "assert final['sweep']['gc_active']\n"
        "assert final['sweep']['sweeps'] >= 1\n"
        "path = write_result(result, sys.argv[1])\n"
        "payload = json.loads(path.read_text())['payload']\n"
        "assert payload['config']['repeat'] == 3\n"
        "assert payload['memory']['samples'] == result.memory_samples\n"
        "assert payload['memory']['final'] == final\n"
        "print('ok')\n"
    )
    from ..conftest import subprocess_env

    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
