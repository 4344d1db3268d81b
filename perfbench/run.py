"""Benchmark of the oligoprofile package, standard library only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/. Each run starts fresh interpreters: SETUP_REPEATS
set-up-only ones, whose median time is setup_s (interpreter start, import
and seeded input generation), then one that runs the workload (see
worker.py). Workloads are listed in workloads.py and BENCHMARK.json.

The host's speed drifts, so every end-to-end time metric (wall_s, cpu_s,
slowest_task_s and setup_s) and trace.overhead_s is in seconds at a
reference speed: each timed piece is rescaled by the speed of a
calibration kernel measured while it runs or right before and after it
(see calibrate.py). The seconds as measured are printed with the
environment.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it records the
environment. Exit code 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7
# a run must end within 180 s; leave room for set-up and reporting
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # an exported OLIGO_JOBS would move profile onto its process pool
    env.pop("OLIGO_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, work: Path, extra: list[str], deadline: float) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
        *extra,
    ]
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RunError("out of time before the workload ran")
    try:
        # run() kills the child on timeout and waits for it
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return proc


def _measure(args, deadline: float) -> dict:
    work = SCRATCH / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups, raw_setups = [], []
        before = calibrate.sample()[0]
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            _worker(args, work, ["--setup-only"], deadline)
            raw = perf_counter() - t0
            shutil.rmtree(work)
            after = calibrate.sample()[0]
            raw_setups.append(raw)
            setups.append(calibrate.rescale(raw, before, after))
            before = after
        extra = []
        if args.trace:
            trace_out = SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.json"
            extra = ["--trace-out", str(trace_out)]
        proc = _worker(args, work, extra, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["units"]["setup_s"] = "s"
    result["raw_setup_s"] = statistics.median(raw_setups)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "oligoprofile" / "__init__.py").is_file():
        print(f"error: no oligoprofile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = _measure(args, deadline)
    except (RunError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics, units = result["metrics"], result["units"]
    env = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hash_seed": _child_env()["PYTHONHASHSEED"],
        "measured_setup_s": result["raw_setup_s"],
        "measured_pass_wall_s": [p["raw_wall_s"] for p in result["passes"]],
        "measured_pass_cpu_s": [p["raw_cpu_s"] for p in result["passes"]],
        "reference_pass_wall_s": [p["wall_s"] for p in result["passes"]],
    }
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
