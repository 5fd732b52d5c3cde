"""The engine-contract layering gate, enforced in tier-1 (CI also runs the script)."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
CHECKER = str(ROOT / "tools" / "check_layering.py")


def run(*args):
    return subprocess.run(
        [sys.executable, CHECKER, *args], capture_output=True, text=True, timeout=60
    )


def test_no_backend_switches_or_private_reach_throughs_outside_the_engines():
    completed = run()
    assert completed.returncode == 0, completed.stdout
    assert ": 0 violations" in completed.stdout


def test_layering_checker_detects_each_kind_of_breakage(tmp_path):
    (tmp_path / "engine").mkdir()
    (tmp_path / "engine" / "engine.py").write_text("x = engine._inside_is_fine\n")
    (tmp_path / "service.py").write_text(
        "def f(self, engine, other):\n"
        "    if isinstance(engine, (Engine, JournaledEngine)):\n"
        "        return self.engine._backend\n"
        "    # engine._in_a_comment and 'engine._in_a_string' do not count\n"
        "    getattr(engine.executor, '_tuple_vars', {})\n"
        "    getattr(other, 'journal', None)  # not an engine: fine\n"
        "    return getattr(self.follower_engine, 'journal', None)\n"
    )
    completed = run(str(tmp_path))
    assert completed.returncode == 1
    for expected in (
        "service.py:2: isinstance(_, JournaledEngine) backend switch",
        "service.py:3: <engine>._backend private access",
        "service.py:5: getattr(<engine>, '_tuple_vars') reach-through",
        "service.py:7: getattr(<engine>, 'journal') reach-through",
    ):
        assert expected in completed.stdout, completed.stdout
    assert "checked 1 modules outside the engine classes: 4 violations" in completed.stdout
