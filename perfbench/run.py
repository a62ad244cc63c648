"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload campus-500 --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats units of the workload for ``--seconds`` seconds and
reports the end-to-end metrics: medians over the units of their CPU seconds
at the host's reference speed (see ``workloads.CpuClock``).  ``--trace 1`` runs one untraced unit, then
installs the layer wrappers (see ``tracing.py``) and runs two traced units of
the same seed; it reports the per-layer metrics and checks that every count
repeats exactly.  Either mode first runs one smoke-size unit as warm-up, so
imports and allocator growth are paid before anything is timed.

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).  Progress
and check failures go to standard error.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 when the program under test
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"

#: Seed whose digests are recorded in ``reference.json``.
DEFAULT_SEED = 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("campus-500", "testbed-pairs", "sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the small smoke-size units (the self-test uses this)")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed units, with the digests each unit produced."""

    def __init__(self, expected_digest: Optional[str]) -> None:
        self.expected = expected_digest
        self.first_digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def run(self, workload: Any, check_digest: bool = True) -> Any:
        try:
            unit = workload.unit()
        except Exception:  # noqa: BLE001 -- a raising unit is a failed unit
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        failed = unit.failed
        if check_digest:
            self.first_digest = self.first_digest or unit.digest
            wrong = unit.digest != self.first_digest or (
                self.expected is not None and unit.digest != self.expected
            )
            if wrong:
                print(f"perfbench {workload.name}: digest {unit.digest} differs from "
                      f"{self.expected or self.first_digest}", file=sys.stderr)
                failed = unit.attempted
        self.attempted += unit.attempted
        self.failed += failed
        return unit


def end_to_end(units: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Medians over the units of their CPU seconds at reference speed."""
    from workloads import PHASES

    timings = [u.timing for u in units]
    return {
        "setup_s": {"value": statistics.median(t.reference_s("setup") for t in timings),
                    "unit": "s"},
        "cpu_s": {"value": statistics.median(sum(t.reference_s(p) for p in PHASES)
                                             for t in timings),
                  "unit": "s"},
        "sim_s_per_cpu_s": {
            "value": statistics.median(u.sim_s / u.timing.reference_s("timed") for u in units),
            "unit": "sim_s/s",
        },
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def run_untraced(make: Any, tally: Tally, seconds: float) -> Dict[str, Dict[str, Any]]:
    workload = make()
    units = []
    deadline = time.perf_counter() + seconds
    while not units or time.perf_counter() < deadline:
        unit = tally.run(workload)
        if unit is None:
            break
        units.append(unit)
    return end_to_end(units) if units else {}


def run_traced(make: Any, tally: Tally, name: str) -> Dict[str, Dict[str, Any]]:
    import tracing

    workload = make()
    # The traced run reports no end-to-end time, and the reference kernel
    # would add to the self time of the spans it runs in.
    workload.clock.kernel = False
    baseline = tally.run(workload)
    tracer = tracing.Tracer(WORK_DIR / f"spool-{os.getpid()}")
    tracing.install(tracer)
    workload.tracer = tracer
    traced = []
    for run_id in (1, 2):
        tracer.run_id = run_id
        try:
            unit = tally.run(workload)
        finally:
            tracer.run_id = 0
        tracer.collect_workers()
        traced.append(unit)
    if baseline is None or None in traced:
        return {}
    first, second = (tracing.per_layer(tracer, run_id, unit)
                     for run_id, unit in zip((1, 2), traced))
    drifted = tracing.check_repeat(first, second)
    if drifted:
        print(f"perfbench {name}: counts differ between traced runs: {drifted}",
              file=sys.stderr)
        tally.failed += traced[1].attempted
    second["runner.cache_hits_per_s"] = baseline.extra.get("cache_hits_per_s", 0.0)
    second["trace.overhead_frac"] = traced[1].cpu_s / baseline.cpu_s - 1.0
    tracer.dump(WORK_DIR / f"trace-{name}.npz")
    return {key: {"value": value, "unit": tracing.PER_LAYER_UNITS[key]}
            for key, value in second.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Routing BFS uses matrix products; a threaded BLAS would contend with
    # the sweep workers for the machine's 2 cores.  Set before numpy loads,
    # so forked workers inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    size = "smoke" if args.smoke else "full"
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference[size].get(args.workload) if args.seed == DEFAULT_SEED else None

    warmup = Tally(None)
    warmup.run(cls(args.seed, True, WORK_DIR), check_digest=False)
    tally = Tally(expected)

    def make() -> Any:
        return cls(args.seed, args.smoke, WORK_DIR)

    if args.trace:
        metrics = run_traced(make, tally, args.workload)
    else:
        metrics = run_untraced(make, tally, args.seconds)
    attempted = tally.attempted + warmup.attempted
    failed = tally.failed + warmup.failed
    correct = failed == 0 and bool(metrics)
    if tally.first_digest is not None:
        print(f"perfbench {args.workload}: seed {args.seed} digest {tally.first_digest}",
              file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
