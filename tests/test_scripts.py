"""Smoke runs of the scripts under scripts/, each with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# test id -> (script, arguments, a line fragment the output must contain)
SCRIPT_RUNS = {
    "glue_recovery.py": (
        "glue_recovery.py", ["--cases", "6", "--max-size", "40", "--seed", "1"], "6 cases, 0 failures"
    ),
    "poset_experiment.py": (
        "poset_experiment.py", ["--count", "10", "--size", "12", "--width", "4", "--seed", "1"],
        "all checks passed",
    ),
    "profile_catalogue.py": (
        "profile_catalogue.py", ["--n-max", "4", "--entries", "circular", "tree_c"], "ok"
    ),
}


def test_every_script_has_a_smoke_run():
    """A deleted script leaves no stale run, and a new one lands with one."""
    assert {script for script, _, _ in SCRIPT_RUNS.values()} == {
        path.name for path in (ROOT / "scripts").glob("*.py")
    }


@pytest.mark.parametrize("script, args, expected", list(SCRIPT_RUNS.values()), ids=list(SCRIPT_RUNS))
def test_script_runs(script, args, expected):
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
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
