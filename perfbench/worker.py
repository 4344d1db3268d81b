"""One workload run in a fresh interpreter; started by run.py.

Set-up generates the seeded inputs. The timed phase then repeats passes
over the workload's tasks until the requested seconds have gone by, and at
least MIN_PASSES times. A pass runs its tasks back to back on a
calibrated clock (calibrate.py), which rescales their seconds to the
reference host speed and leaves out its own calibration kernels, and
checks their outputs afterwards: wall_s and cpu_s are the time to all of
the workload's results, with neither the kernels nor the checks in it,
and slowest_task_s the wall seconds of its longest task.
Per-layer seconds are raw seconds of the traced passes and include the
kernels' pauses in proportion to their length. A task that raises or
fails its check counts as failed. With --trace 1, passes alternate
between untraced and traced ones: the traced passes give the
per-layer metrics, and their outputs must be byte-identical to the
untraced ones. The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oligoprofile  # noqa: E402

if not Path(oligoprofile.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"oligoprofile imported from {oligoprofile.__file__}, not from {ROOT / 'src'}")

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# untraced runs report medians over at least this many passes (on a slow
# host two passes already fill the run); a traced run needs one untraced
# and one traced pass
MIN_PASSES = 2


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs passes over the tasks and keeps what the metrics need."""

    def __init__(self, tasks: list) -> None:
        self.tasks = tasks
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}  # task -> digest of its first output
        self.passes: dict[bool, list[dict]] = {False: [], True: []}
        self.tracers: list[layers.Tracer] = []

    def _run(self, task):
        """Run one task; its result, or None if it raised."""
        self.attempted += 1
        try:
            return task.run()
        except Exception:  # noqa: BLE001 - a failed task is counted, the run goes on
            self._fail(task, "raised")
            return None

    def _verify(self, task, result) -> None:
        try:
            data = task.output(result)
            task.check(result, data)
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(task.name, digest) != digest:
                raise workloads.Mismatch("output bytes differ from the first pass")
        except Exception:  # noqa: BLE001 - a failed check is counted, the run goes on
            self._fail(task, "failed its check")

    def _fail(self, task, what: str) -> None:
        self.failed += 1
        print(f"task {task.name} {what}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def run_pass(self, traced: bool) -> None:
        """Time the tasks back to back on a calibrated clock, then check their outputs untimed."""
        tracer = layers.Tracer() if traced else None
        results, task_s = [], []
        with calibrate.Clock(_cpu_s) as clock, layers.installed(tracer) if traced else nullcontext():
            for task in self.tasks:
                start = clock.split()
                results.append(self._run(task))
                task_s.append(clock.split() - start)
        if traced:
            self.tracers.append(tracer)
        for task, result in zip(self.tasks, results):
            if result is not None:
                self._verify(task, result)
        record = {key: getattr(clock, key) for key in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s")}
        record["slowest_task_s"] = max(task_s)
        self.passes[traced].append(record)


def _median(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="directory for generated inputs and outputs")
    parser.add_argument("--trace-out", type=Path, default=None, help="file for the traced spans")
    parser.add_argument("--setup-only", action="store_true", help="generate the inputs and exit")
    args = parser.parse_args(argv)

    tasks = workloads.build(args.workload, args.seed, args.work)
    if args.setup_only:
        return 0

    runner = Runner(tasks)
    start = perf_counter()
    schedule = (False, True) if args.trace else (False,)
    min_passes = 1 if args.trace else MIN_PASSES
    while len(runner.passes[False]) < min_passes or perf_counter() - start < args.seconds:
        for traced in schedule:
            runner.run_pass(traced)

    if args.trace:
        per_pass = [layers.layer_metrics(t.spans) for t in runner.tracers]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = _median(runner.passes[True], "wall_s") - _median(
            runner.passes[False], "wall_s"
        )
        units = {**layers.LAYER_UNITS, "trace.overhead_s": "s"}
        # counts of a deterministic program repeat exactly from pass to pass
        for name, value in per_pass[0].items():
            if layers.LAYER_UNITS[name] == "count" and any(m[name] != value for m in per_pass):
                print(f"count {name} differs between traced passes", file=sys.stderr)
                runner.failed += 1
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump([[s.to_json_dict() for s in t.spans] for t in runner.tracers], fh)
    else:
        untraced = runner.passes[False]
        metrics = {key: _median(untraced, key) for key in ("wall_s", "cpu_s", "slowest_task_s")}
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = {"wall_s": "s", "cpu_s": "s", "slowest_task_s": "s", "peak_rss_mib": "MiB"}
    print(
        json.dumps(
            {
                "attempted": runner.attempted,
                "failed": runner.failed,
                "passes": runner.passes[False],
                "metrics": metrics,
                "units": units,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
