"""The three benchmark workloads and their output checks.

Each workload turns the command-line seed into its inputs and runs one
*unit* at a time through the program's public entry points:

* ``campus-500`` -- one :meth:`Scenario.run` of the 500-node scale-free
  campus (large fan-out: ~46 receivers per frame);
* ``testbed-pairs`` -- one Section 4 short-range campaign through
  :meth:`TestbedExperiment.run_campaign` (36 tiny networks, ~2 receivers
  per frame);
* ``sweep`` -- one :class:`Study` of 20 mid-size scenarios on 2 workers into
  a fresh :class:`ResultCache` (cold pass), then replayed from it (warm pass).

A unit returns its CPU time (see :class:`CpuClock`), the simulated
seconds it advanced, how many units of work it attempted and how many failed a
check, and a digest of the simulated statistics that define "same behaviour".
The digest covers named fields only, so columns added to the results later do
not change it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import Study
from repro.registry import TOPOLOGIES
from repro.results import ResultSet
from repro.scenarios import Scenario, execute
from repro.scenarios.topologies import scale_free
from repro.simulation.engine import Simulator
from repro.testbed import measurement, pairs
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.layout import generate_office_layout

#: Sweep worker processes: the benchmark machine has 2 cores.
SWEEP_WORKERS = 2
#: Warm replays of a filled cache per sweep unit (one takes ~50 ms).
WARM_REPLAYS = 5


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    The kernel charges a task only for the time it ran: time its virtual CPU
    spent preempted by the host (steal) and time it waited for a core are not
    counted.  Sweep workers are joined before ``Study.run`` returns, so their
    CPU time is in the children's share by then.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: Phases of a unit, in order: up to the first simulated event, up to the
#: workload's entry call returning, and the output checks.
PHASES = ("setup", "timed", "check")

#: CPU seconds one :func:`reference_kernel` call takes on a quiet host
#: (measured on a 2-core Intel Xeon VM with Python 3.11).  Only the scale of
#: the reported times depends on it.
REFERENCE_KERNEL_S = 25e-6


def reference_kernel() -> None:
    """A fixed slice of interpreter work like the event loop's: heap pushes
    and pops, dict updates and float math.  It never touches the program."""
    heap: List[Tuple[int, int]] = []
    table: Dict[int, float] = {}
    for i in range(48):
        heapq.heappush(heap, ((i * 37) % 48, i))
    while heap:
        key, i = heapq.heappop(heap)
        table[key] = table.get(key, 0.0) + math.sqrt(key + i)


class CpuClock:
    """Times a unit's phases in CPU seconds at the host's reference speed.

    On a shared host the CPU time of the same work varies by up to 2x with
    the other tenants' load, which slows shared caches and cores, and the
    slowdown lasts from milliseconds to minutes.  So the clock runs
    :func:`reference_kernel` between short slices of the program, about once
    per millisecond of CPU: after each testbed link probe and every
    ``slice_s`` simulated seconds inside ``Simulator.run``, which runs the
    same events in the same order when called in segments (the contract
    ``Simulator.run_until`` documents).  The kernel's mean cost over a unit,
    against :data:`REFERENCE_KERNEL_S`, is the host's slowdown while that
    unit ran; :meth:`Timing.reference_s` divides the program's own CPU time
    by it.

    Sweep workers inherit the wrappers through fork and spool their kernel
    time after each task to ``spool_dir``; :meth:`end` merges it.  With
    ``phase`` None the wrappers only pass calls through; with ``kernel``
    False (the traced run) they slice ``Simulator.run`` but run no kernel.
    """

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.phase: Optional[str] = None
        self.kernel = True
        self.slice_s = 0.0
        self.spool_dir: Optional[Path] = None
        self.totals: Dict[str, float] = {}
        self.kernel_s: Dict[str, float] = {}
        self.kernel_calls = 0
        self.phase_mark = 0.0

    @classmethod
    def installed(cls) -> "CpuClock":
        """The process's clock, wrapping the program once."""
        existing = getattr(Simulator.run, "perfbench_clock", None)
        if existing is not None:
            return existing
        clock = cls()
        sim_run, measure_link, task = Simulator.run, measurement.measure_link, execute.run_scenario

        def run(sim: Simulator, until: Optional[float] = None) -> None:
            if until is None or clock.phase is None:
                return sim_run(sim, until)
            if clock.phase == "setup":
                clock.switch("timed")
            start, step = sim.now, 1
            while True:
                bound = min(start + step * clock.slice_s, until)
                sim_run(sim, bound)
                clock.tick()
                if bound >= until:
                    return None
                step += 1

        def probe(*args: Any, **kwargs: Any) -> Any:
            try:
                return measure_link(*args, **kwargs)
            finally:
                clock.tick()

        def run_task(**config: Any) -> Any:
            if clock.phase is None or os.getpid() == clock.owner:
                return task(**config)
            clock.kernel_s, clock.kernel_calls = {}, 0
            try:
                return task(**config)
            finally:
                clock.spool()

        run.perfbench_clock = clock  # type: ignore[attr-defined]
        Simulator.run = run  # type: ignore[method-assign]
        measurement.measure_link = probe
        execute.run_scenario = run_task
        return clock

    def begin(self, slice_s: float, spool_dir: Optional[Path] = None) -> None:
        """Start a unit in the ``setup`` phase, from a collected heap."""
        gc.collect()
        self.slice_s, self.spool_dir = slice_s, spool_dir
        self.totals, self.kernel_s, self.kernel_calls = {}, {}, 0
        self.phase = "setup"
        self.phase_mark = cpu_seconds()

    def tick(self) -> None:
        """Run the reference kernel once and charge it to the current phase.
        The garbage collector is held off, so the kernel never pays for the
        program's garbage."""
        if self.phase is None or not self.kernel:
            return
        collecting = gc.isenabled()
        gc.disable()
        began = time.process_time()
        reference_kernel()
        spent = time.process_time() - began
        if collecting:
            gc.enable()
        self.kernel_s[self.phase] = self.kernel_s.get(self.phase, 0.0) + spent
        self.kernel_calls += 1

    def switch(self, phase: Optional[str]) -> None:
        """Close the current phase's total and start ``phase``."""
        now = cpu_seconds()
        assert self.phase is not None
        self.totals[self.phase] = self.totals.get(self.phase, 0.0) + now - self.phase_mark
        self.phase, self.phase_mark = phase, now

    def end(self) -> "Timing":
        """Finish the unit: close its last phase, merge the workers' kernel time."""
        self.switch(None)
        if self.spool_dir is not None:
            for path in sorted(self.spool_dir.glob("kernel-*.jsonl")):
                for line in path.read_text().splitlines():
                    spent, calls = json.loads(line)
                    for phase, seconds in spent.items():
                        self.kernel_s[phase] = self.kernel_s.get(phase, 0.0) + seconds
                    self.kernel_calls += calls
                path.unlink()
        return Timing(self.totals, self.kernel_s, self.kernel_calls)

    def spool(self) -> None:
        """In a worker: hand the kernel time of the task just run to the parent."""
        if self.spool_dir is None:
            return
        path = self.spool_dir / f"kernel-{os.getpid()}.jsonl"
        with path.open("a") as out:
            out.write(json.dumps([self.kernel_s, self.kernel_calls]) + "\n")


@dataclass
class Timing:
    """CPU time of one unit, per phase."""

    #: CPU seconds per phase, of this process and its reaped children,
    #: reference kernel included.
    totals: Dict[str, float]
    #: CPU seconds of the reference kernel per phase.
    kernel_s: Dict[str, float]
    kernel_calls: int

    def slowdown(self) -> float:
        """The host's speed while the unit ran, relative to a quiet host."""
        if not self.kernel_calls:
            return 1.0
        return sum(self.kernel_s.values()) / self.kernel_calls / REFERENCE_KERNEL_S

    def reference_s(self, phase: str) -> float:
        """The program's CPU seconds in ``phase`` on a quiet host."""
        own = self.totals.get(phase, 0.0) - self.kernel_s.get(phase, 0.0)
        return own / self.slowdown()


@dataclass
class Unit:
    """CPU time, work and checks of one unit."""

    sim_s: float
    attempted: int
    failed: int
    digest: str
    timing: Timing
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        """The unit's CPU seconds as measured, reference kernel included."""
        return sum(self.timing.totals.values())


def digest_of(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def resultset_fields(rs: ResultSet) -> Dict[str, Any]:
    """The named statistics compared across runs: per-flow packet counts and
    events processed per scenario."""
    return {
        "flows": [
            [int(i), str(s), str(d), int(dl), int(sn), int(of)]
            for i, s, d, dl, sn, of in zip(
                rs.scenario_idx, rs.src, rs.dst,
                rs.delivered_packets, rs.sent_packets, rs.offered_packets,
            )
        ],
        "events": [int(entry["events_processed"]) for entry in rs.scenarios],
    }


def resultset_problems(rs: ResultSet) -> List[str]:
    """Invariants every run must meet, on any seed."""
    problems = []
    delivered, sent = rs.delivered_packets, rs.sent_packets
    bad = np.nonzero((sent < 0) | (delivered < 0) | (delivered > sent))[0]
    for row in bad[:5]:
        problems.append(
            f"flow {rs.src[row]}->{rs.dst[row]}: delivered {delivered[row]} > sent {sent[row]}"
        )
    for entry in rs.scenarios:
        if entry["events_processed"] <= 0:
            problems.append(f"scenario {entry['name']} processed no events")
    return problems


class Workload:
    """Base class: seed, size, the unit clock and the tracer pause used
    around checks."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        self.seed = int(seed)
        self.smoke = smoke
        self.work_dir = work_dir
        self.clock = CpuClock.installed()
        #: Set by the traced run; checks must not be counted as layer work.
        self.tracer: Any = None

    @contextlib.contextmanager
    def untraced(self) -> Iterator[None]:
        if self.tracer is None:
            yield
            return
        run_id, self.tracer.run_id = self.tracer.run_id, 0
        try:
            yield
        finally:
            self.tracer.run_id = run_id

    def unit(self) -> Unit:
        raise NotImplementedError


# -- campus-500 -----------------------------------------------------------------

#: The campus is the placement ``generate_topology("scale_free", seed=11)``
#: draws (the 500-node campus of ``benchmarks/test_bench_large_scenario.py``).
#: It is fixed, so ``--seed`` varies the run's random streams (backoff, decode
#: draws) while every run simulates the same hub fan-out.
CAMPUS_TOPOLOGY = "perfbench_campus"
CAMPUS_PLACEMENT_SEED = 11


def _campus_placement(n_nodes: int, extent: float, rng: np.random.Generator, **params: Any):
    campus_rng = np.random.default_rng(np.random.SeedSequence(
        entropy=(CAMPUS_PLACEMENT_SEED, zlib.crc32(b"scale_free"))
    ))
    return scale_free(n_nodes=n_nodes, extent=extent, rng=campus_rng, **params)


class Campus(Workload):
    name = "campus-500"

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        if CAMPUS_TOPOLOGY not in TOPOLOGIES:
            TOPOLOGIES.register(CAMPUS_TOPOLOGY)(_campus_placement)
        self.scenario = Scenario(
            name="perfbench-campus",
            topology=CAMPUS_TOPOLOGY,
            n_nodes=120 if smoke else 500,
            extent_m=8000.0,
            seed=self.seed,
            sigma_db=0.0,
            cca_noise_db=0.0,
            duration_s=0.02 if smoke else 0.1,
            topology_params={"attach_range_frac": 0.008, "n_hubs": 12 if smoke else 30},
        )

    #: Simulated seconds between reference kernel runs: ~1 ms of CPU.
    SLICE_S = 0.0001

    def unit(self) -> Unit:
        # The engine wrapper switches to the timed phase at the first event.
        self.clock.begin(self.SLICE_S)
        rs = self.scenario.run()
        self.clock.switch("check")
        with self.untraced():
            problems = resultset_problems(rs)
            digest = digest_of(resultset_fields(rs))
        timing = self.clock.end()
        report(self.name, problems)
        return Unit(
            sim_s=self.scenario.duration_s,
            attempted=1,
            failed=1 if problems else 0,
            digest=digest,
            timing=timing,
        )


# -- testbed-pairs --------------------------------------------------------------

class _CheckedExperiment(TestbedExperiment):
    """Keeps every network the campaign builds, for the per-network checks."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.networks: List[Tuple[Any, Tuple[Tuple[str, str], ...]]] = []

    def _build_network(self, senders, rate_mbps, cca_threshold_dbm, extra_receivers=()):
        net = super()._build_network(senders, rate_mbps, cca_threshold_dbm, extra_receivers)
        self.networks.append((net, tuple(senders)))
        return net


def _network_problems(net: Any, links: Sequence[Tuple[str, str]]) -> List[str]:
    problems = []
    for sender, receiver in links:
        sent = net.nodes[sender].traffic.packets_sent
        delivered = net.nodes[receiver].stats.packets_from.get(sender, 0)
        if sent <= 0 or not 0 <= delivered <= sent:
            problems.append(f"{sender}->{receiver}: delivered {delivered}, sent {sent}")
    if net.sim.events_processed <= 0:
        problems.append("network processed no events")
    return problems


class TestbedPairs(Workload):
    name = "testbed-pairs"

    #: Pair selection and the office layout are fixed; ``--seed`` seeds the
    #: campaign's networks.
    LAYOUT_SEED = 7
    PAIR_SEED = 3
    #: Simulated seconds between reference kernel runs: ~1 ms of CPU.
    SLICE_S = 0.01

    def unit(self) -> Unit:
        self.clock.begin(self.SLICE_S)
        if self.smoke:
            layout = generate_office_layout(
                n_nodes=16, floors=1, floor_width_m=60.0, floor_depth_m=40.0, seed=5
            )
        else:
            layout = generate_office_layout(seed=self.LAYOUT_SEED)
        combos = pairs.select_competing_pairs(
            layout, "short", n_combinations=1 if self.smoke else 3, seed=self.PAIR_SEED
        )
        experiment = _CheckedExperiment(
            layout,
            rates_mbps=(6.0,) if self.smoke else (6.0, 12.0, 24.0),
            run_duration_s=0.2 if self.smoke else 0.5,
            seed=self.seed,
        )
        self.clock.switch("timed")
        summary = experiment.run_campaign(combos)
        self.clock.switch("check")
        with self.untraced():
            per_network = [_network_problems(net, links) for net, links in experiment.networks]
            problems = [p for found in per_network for p in found]
            digest = digest_of([
                [[d.rate_mbps, d.solo_a_packets, d.solo_b_packets, d.concurrency_a_packets,
                  d.concurrency_b_packets, d.carrier_sense_a_packets, d.carrier_sense_b_packets]
                 for d in result.per_rate]
                for result in summary.results
            ])
        timing = self.clock.end()
        report(self.name, problems)
        n_networks = len(experiment.networks)
        return Unit(
            sim_s=n_networks * experiment.run_duration_s,
            attempted=n_networks,
            failed=sum(1 for found in per_network if found),
            digest=digest,
            timing=timing,
        )


# -- sweep ------------------------------------------------------------------------

GENERATORS = (
    "uniform_disc", "grid", "clustered", "scale_free",
    "hidden_terminal", "exposed_terminal", "line",
)


def sweep_scenarios(seed: int, smoke: bool) -> List[Scenario]:
    """All 7 generators with CCA on and off, a routed line with bounded relay
    queues, and static vs hysteresis control under ON/OFF traffic."""
    duration = 0.05 if smoke else 0.1
    generators = GENERATORS[:2] if smoke else GENERATORS
    grid = (
        Study(n_nodes=12 if smoke else 40, extent_m=300.0, duration_s=duration)
        .sweep(topology=list(generators), cca_threshold_dbm=[-82.0, None])
        .seeds(1, base_seed=seed)
    )
    scenarios = grid.scenarios()
    for replicate in range(1 if smoke else 2):
        scenarios.append(Scenario(
            name=f"perfbench-line-r{replicate}",
            topology="line", n_nodes=8, extent_m=560.0, seed=seed * 100 + replicate,
            topology_params={"flows": "end_to_end"},
            routing="shortest_path", queue_capacity=8, duration_s=duration,
        ))
        for controller in (None, "hysteresis"):
            control: Dict[str, Any] = {}
            if controller is not None:
                control = dict(
                    controller=controller,
                    controller_params={"step_db": 6.0},
                    control_epoch_s=duration / 10,
                )
            scenarios.append(Scenario(
                name=f"perfbench-onoff-{controller or 'static'}-r{replicate}",
                topology="exposed_terminal", n_nodes=8, extent_m=120.0,
                seed=seed * 100 + replicate, duration_s=duration,
                traffic="onoff", traffic_params={"mean_on_s": 0.08, "mean_off_s": 0.04},
                **control,
            ))
    return scenarios


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke, work_dir)
        self._caches = 0
        self.spool_dir = work_dir / f"kernel-{os.getpid()}"

    #: Simulated seconds between reference kernel runs: ~1 ms of CPU.
    SLICE_S = 0.001

    def unit(self) -> Unit:
        self._caches += 1
        cache_dir = self.work_dir / f"cache-{os.getpid()}-{self._caches}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(self.spool_dir, ignore_errors=True)
        self.spool_dir.mkdir(parents=True)
        self.clock.begin(self.SLICE_S, self.spool_dir)
        study = Study.of(sweep_scenarios(self.seed, self.smoke)).cache(str(cache_dir))
        self.clock.switch("timed")
        try:
            began = time.perf_counter()
            cold = study.run(workers=SWEEP_WORKERS)
            cold_wall_s = time.perf_counter() - began
            self.clock.switch("check")
            with self.untraced():
                cold_bytes = [rs.to_bytes() for rs in cold.raw]
                per_task = [resultset_problems(rs) for rs in cold.raw]
                problems = [p for found in per_task for p in found]
                digest = digest_of([resultset_fields(rs) for rs in cold.raw])
            timing = self.clock.end()
            n_tasks = len(cold.raw)
            failed = sum(1 for found in per_task if found)
            hits_per_s = []
            hit_ratio = []
            for _ in range(WARM_REPLAYS):
                began = time.perf_counter()
                warm = study.run(workers=SWEEP_WORKERS)
                hits_per_s.append(warm.report.cache_hits / (time.perf_counter() - began))
                hit_ratio.append(warm.report.cache_hits / warm.report.total)
                with self.untraced():
                    mismatched = sum(
                        1 for rs, payload in zip(warm.raw, cold_bytes)
                        if rs.to_bytes() != payload
                    )
                if mismatched:
                    problems.append(f"warm replay differs from cold pass on {mismatched} tasks")
                failed += mismatched
        finally:
            self.clock.phase = None
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(self.spool_dir, ignore_errors=True)
        report(self.name, problems)
        return Unit(
            sim_s=sum(rs.scenarios[0]["duration_s"] for rs in cold.raw),
            attempted=n_tasks * (1 + WARM_REPLAYS),
            failed=failed,
            digest=digest,
            timing=timing,
            extra={
                "workers": SWEEP_WORKERS,
                "cold_wall_s": cold_wall_s,
                "cache_hits_per_s": statistics.median(hits_per_s),
                "cache_hit_ratio": min(hit_ratio),
            },
        )


WORKLOADS = {cls.name: cls for cls in (Campus, TestbedPairs, Sweep)}


def report(name: str, problems: Sequence[str]) -> None:
    for problem in problems[:10]:
        print(f"perfbench {name}: check failed: {problem}", file=sys.stderr)
