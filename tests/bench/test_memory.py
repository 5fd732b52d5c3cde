"""A soaked loadgen run on the memory axis (test scale).

The node-count gate of the ``memory`` axis is held by
``tests/bench/test_axes.py``; this file keeps the served half: a soaked
loadgen run against a server must complete error-free while the driver's
``stats`` polls observe memory samples, the ``BENCH_loadgen_*`` trajectory
must carry them, and — interned nodes living only as long as the
provenance holding them — the intern table must not ramp while the same
operation stream is replayed.  Runs in a subprocess: ``intern_table_size``
counts every live node of the process, and a shared pytest process holds
other tests' nodes.
"""

from __future__ import annotations

import subprocess
import sys


def test_soaked_loadgen_samples_a_bounded_intern_table(tmp_path):
    script = (
        "import json, sys\n"
        "from repro.db.database import Database\n"
        "from repro.loadgen import loadgen_schema, profile_from_name, run_loadgen, write_result\n"
        "from repro.server.server import serve_in_thread\n"
        "from repro.server.service import ServerConfig\n"
        "profile = profile_from_name('tiny', repeat=3)\n"
        "database = Database(loadgen_schema(profile))\n"
        "handle = serve_in_thread(database, ServerConfig(port=0, policy='normal_form_batch'))\n"
        "try:\n"
        "    result = run_loadgen(profile, host=handle.host, port=handle.port,\n"
        "                         mode='thread', report_every=0.2)\n"
        "finally:\n"
        "    handle.stop()\n"
        "assert result.errors_total == 0, result.errors\n"
        "assert result.ops_total == 2 * 60 * 3  # tiny stream replayed 3x\n"
        "samples = result.memory_samples\n"
        "assert samples, 'stats polls produced no samples'\n"
        "for sample in samples:\n"
        "    assert sample['intern_table_size'] > 0\n"
        "    assert sample['rss_bytes'] > 0\n"
        "    assert 'sweep' not in sample and 'sweep_every' not in sample\n"
        "warm = samples[len(samples) // 3]\n"
        "final = samples[-1]\n"
        "assert final['intern_table_size'] <= 2 * warm['intern_table_size'], samples\n"
        "path = write_result(result, sys.argv[1])\n"
        "payload = json.loads(path.read_text())['payload']\n"
        "assert payload['config']['repeat'] == 3\n"
        "assert payload['memory']['samples'] == samples\n"
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
