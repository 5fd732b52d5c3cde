"""``repro.memory``: the peak a process reports is its own, not its launcher's."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.memory import current_rss_bytes, peak_rss_bytes

from .conftest import subprocess_env

BALLAST = 200 * 1024 * 1024


def test_peak_is_at_least_current():
    assert peak_rss_bytes() >= current_rss_bytes() > 0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux procfs")
def test_child_peak_is_not_floored_by_a_large_parent():
    """Linux carries ``ru_maxrss`` across ``exec``; ``VmHWM`` starts afresh.

    A launcher holding 200 MB of touched ballast spawns a child that only
    imports ``repro.memory``: the child's reported peak must be its own
    (a few MB), not the launcher's — otherwise ``memchild``'s peak and
    every server's ``stats`` peak are floored by who started it.
    """
    child = (
        "import resource\n"
        "from repro.memory import peak_rss_bytes\n"
        "print(peak_rss_bytes(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024)\n"
    )
    launcher = (
        "import subprocess, sys\n"
        f"ballast = bytearray(b'\\x01') * {BALLAST}  # nonzero fill: every page touched\n"
        f"done = subprocess.run([sys.executable, '-c', {child!r}], capture_output=True, text=True)\n"
        "sys.stderr.write(done.stderr)\n"
        "print(done.stdout.strip(), len(ballast))\n"
        "sys.exit(done.returncode)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", launcher],
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    reported, inherited, held = map(int, completed.stdout.split())
    assert held == BALLAST
    assert 0 < reported < BALLAST, (reported, inherited)
