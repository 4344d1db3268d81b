"""Self-tests of the benchmark: its references and its traced run.

    python3 -m pytest perfbench/tests -q

The traced-run test starts the benchmark twice per workload with
--trace 1 and takes a few minutes in all.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from oligoprofile.glueing import (  # noqa: E402
    normalize_circular,
    normalize_linear,
    sample_circular_fragments,
    sample_linear_fragments,
)

import calibrate  # noqa: E402
import workloads  # noqa: E402

# counts that must repeat exactly between two traced runs of one seed
REPEATED_COUNTS = (
    "catalogue.key_calls",
    "structures.canonical_calls",
    "glueing.classify_calls",
    "posets.triangle_step_calls",
)


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_normalisation_matches_library(seed):
    hidden, _ = sample_linear_fragments(20 + seed, seed)
    assert workloads.normalized_linear(tuple(hidden)) == normalize_linear(hidden)
    hidden, _ = sample_circular_fragments(20 + seed, seed)
    assert workloads.normalized_circular(tuple(hidden)) == normalize_circular(hidden)


def test_calibration_kernel_does_fixed_work():
    assert calibrate.kernel() == 45


def test_clock_leaves_out_its_kernels_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    t0 = perf_counter()
    with calibrate.Clock(process_time) as clock:
        while perf_counter() - t0 < 5 * calibrate.INTERVAL_S:
            pass
        half = clock.split()
        while perf_counter() - t0 < 10 * calibrate.INTERVAL_S:
            pass
    elapsed = perf_counter() - t0
    assert 0 < half < clock.wall_s
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about ten kernels stopped the loop; their time is not the program's
    assert 0 < clock.raw_wall_s < elapsed - 5 * calibrate.REF_KERNEL_S
    assert clock.wall_s > 0 and clock.cpu_s > 0


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_are_correct_and_repeat_their_counts(workload):
    # a traced run fails any task whose traced output bytes differ from
    # the untraced pass before it, so correct means byte-identical
    first, second = _traced_run(workload), _traced_run(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    counts = {n: m["value"] for n, m in first["metrics"].items() if m["unit"] == "count"}
    assert counts == {n: m["value"] for n, m in second["metrics"].items() if m["unit"] == "count"}
