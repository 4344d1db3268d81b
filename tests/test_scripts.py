"""Smoke runs of the scripts under scripts/, each with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# test id -> (script, arguments, exit code, expected): on exit 0 a line
# fragment stdout must contain, on exit 1 the one error line of stderr
SCRIPT_RUNS = {
    "glue_recovery.py": (
        "glue_recovery.py", ["--cases", "6", "--max-size", "40", "--seed", "1"], 0, "6 cases, 0 failures"
    ),
    "poset_experiment.py": (
        "poset_experiment.py", ["--count", "10", "--size", "12", "--width", "4", "--seed", "1"], 0,
        "all checks passed",
    ),
    "profile_catalogue.py": (
        "profile_catalogue.py", ["--n-max", "4", "--entries", "circular", "tree_c"], 0, "ok"
    ),
    "poset_experiment.py --width 0": (
        "poset_experiment.py", ["--width", "0"], 1, "random_poset needs max_width >= 1, got 0"
    ),
    "profile_catalogue.py --entries nope": (
        "profile_catalogue.py", ["--entries", "nope"], 1, "unknown catalogue entry 'nope'"
    ),
}


def test_every_script_has_a_smoke_run():
    """A deleted script leaves no stale run, and a new one lands with one."""
    assert {script for script, _, code, _ in SCRIPT_RUNS.values() if code == 0} == {
        path.name for path in (ROOT / "scripts").glob("*.py")
    }


@pytest.mark.parametrize("script, args, code, expected", list(SCRIPT_RUNS.values()), ids=list(SCRIPT_RUNS))
def test_script_runs(script, args, code, expected):
    """A run ends with its exit code; a refused argument prints one error
    line, as the CLI does, and no traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert expected in done.stdout
    else:
        assert (done.stdout, done.stderr) == ("", f"error: {expected}\n")
