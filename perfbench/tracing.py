"""Outside-in span tracing of the repro layers.

:func:`install` replaces layer entry points (class methods and the
module-level names callers resolve) with thin wrappers that record one span
per call: name, start, end, parent span and run id.  Nothing in ``src/`` is
edited; the wrappers sit in front of the real functions, so every network
built after installation reports through them.

Spans stay in memory as flat arrays and are written out once, by
:meth:`Tracer.dump`.  Self time is a span's duration minus the time its
direct children cover, minus the wrapper cost each child call adds outside
its own span (calibrated once per process on an empty function).

Sweep workers are forked from the traced parent, so they inherit the
wrappers.  Each worker clears its inherited spans at fork, and after every
task it appends the spans it recorded to a file in ``spool_dir``.  The parent
merges those files with :meth:`Tracer.collect_workers`.
"""

from __future__ import annotations

import functools
import os
import pickle
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("i")
        self.stack: List[int] = []
        #: Current run id; 0 means "not recording" and wrappers pass through.
        self.run_id = 0
        #: Event counts keyed by (run id, counter name).
        self.counts: Counter = Counter()
        self._owner_pid = os.getpid()
        self._spool_seq = 0
        #: Host time a traced call adds to its caller outside the span it
        #: records; subtracted from the parent's self time per child.
        self.overhead_ns = self._calibrate()

    # -- recording -------------------------------------------------------------

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter: str, amount: int) -> None:
        if self.run_id:
            self.counts[(self.run_id, counter)] += amount

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        count: Optional[Callable[[Any], int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record a span; ``count(result)`` feeds ``name``'s counter."""
        nid = self.name_index(name)
        names, starts, ends, parents, runs = (
            self.name_id, self.start, self.end, self.parent, self.run
        )
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            run = tracer.run_id
            if not run:
                return fn(*args, **kwargs)
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(run)
            ends.append(0)
            stack.append(index)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                tracer.counts[(run, name)] += count(result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to count its calls under ``name`` (no span)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.add(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _calibrate(self, calls: int = 20000, rounds: int = 5) -> float:
        """Median over rounds of (traced call - untraced call - span length),
        on a three-argument call like the radio and medium entry points."""

        def noop(a: Any, b: Any, c: Any) -> None:
            return None

        traced = self.span("calibration", noop)
        estimates = []
        for _ in range(rounds):
            began = perf_counter_ns()
            for _ in range(calls):
                noop(1, 2, 3)
            bare = perf_counter_ns() - began
            self.run_id = -1
            began = perf_counter_ns()
            for _ in range(calls):
                traced(1, 2, 3)
            wrapped = perf_counter_ns() - began
            self.run_id = 0
            inside = sum(self.end) - sum(self.start)
            estimates.append((wrapped - bare - inside) / calls)
            self._clear()
        return max(0.0, sorted(estimates)[rounds // 2])

    # -- fork handling ---------------------------------------------------------

    def _clear(self) -> None:
        for column in (self.name_id, self.start, self.end, self.parent, self.run):
            del column[:]
        del self.stack[:]
        self.counts.clear()

    def after_fork_in_child(self) -> None:
        """A forked worker starts with an empty span store of its own."""
        if os.getpid() != self._owner_pid:
            self._clear()

    def spool(self) -> None:
        """Worker side: append this process's spans to the spool and clear them."""
        if os.getpid() == self._owner_pid or not len(self.start):
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._spool_seq += 1
        path = self.spool_dir / f"{os.getpid()}-{self._spool_seq}.pkl"
        payload = {
            "names": list(self.names),
            "columns": [np.array(c) for c in (
                self.name_id, self.start, self.end, self.parent, self.run
            )],
            "counts": dict(self.counts),
        }
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        self._clear()

    def collect_workers(self) -> int:
        """Parent side: merge and delete every spooled worker file."""
        merged = 0
        if not self.spool_dir.is_dir():
            return merged
        for path in sorted(self.spool_dir.glob("*.pkl")):
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            path.unlink()
            names, starts, ends, parents, runs = payload["columns"]
            remap = np.asarray([self.name_index(n) for n in payload["names"]], dtype=np.int32)
            offset = len(self.start)
            self.name_id.frombytes(remap[names].tobytes())
            self.start.frombytes(starts.astype(np.int64).tobytes())
            self.end.frombytes(ends.astype(np.int64).tobytes())
            shifted = np.where(parents >= 0, parents + offset, -1)
            self.parent.frombytes(shifted.astype(np.int64).tobytes())
            self.run.frombytes(runs.astype(np.int32).tobytes())
            self.counts.update(payload["counts"])
            merged += len(starts)
        self.spool_dir.rmdir()
        return merged

    # -- analysis --------------------------------------------------------------

    def layer_totals(self, run_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self time (ns) in one run."""
        n = len(self.start)
        if not n:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int32)
        duration = (end - start).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=n
        )
        children = np.bincount(parent[has_parent], minlength=n)
        self_time = duration - covered - children * self.overhead_ns
        mine = run == run_id
        k = len(self.names)
        calls = np.bincount(name_id[mine], minlength=k)
        inclusive = np.bincount(name_id[mine], weights=duration[mine], minlength=k)
        own = np.bincount(name_id[mine], weights=self_time[mine], minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl_ns": float(inclusive[i]), "self_ns": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def run_counts(self, run_id: int) -> Dict[str, int]:
        return {name: value for (run, name), value in self.counts.items() if run == run_id}

    def dump(self, path: Path) -> None:
        """Write every span (one row each) plus the name table to ``path`` (npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run_id=np.frombuffer(self.run, dtype=np.int32),
        )


def _patch(owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping static/class methods."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _events_counted(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    """``Simulator.run`` that adds the events it executed to ``engine.events``."""

    @functools.wraps(run)
    def counted(sim: Any, *args: Any, **kwargs: Any) -> Any:
        before = sim.events_processed
        try:
            return run(sim, *args, **kwargs)
        finally:
            tracer.add("engine.events", sim.events_processed - before)

    return counted


def _spooled(tracer: Tracer, task: Callable[..., Any]) -> Callable[..., Any]:
    """A worker task that ships its spans to the parent when it returns."""

    @functools.wraps(task)
    def spooled(*args: Any, **kwargs: Any) -> Any:
        try:
            return task(*args, **kwargs)
        finally:
            tracer.spool()

    return spooled


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the benchmark reports on.

    Must run before the traced networks are built: MACs bind their radio
    callbacks, and forwarding nodes their delivery hook, at construction.
    """
    from repro.api.study import Study
    from repro.control.env import SimEnv
    from repro.networking.forwarding import ForwardingQueue
    from repro.networking.routing import RouteTable
    from repro.results import ResultSet
    from repro.runner.batch import BatchRunner
    from repro.runner.cache import ResultCache
    from repro.scenarios import execute
    from repro.scenarios.spec import Scenario
    from repro.simulation.engine import Simulator
    from repro.simulation.mac.csma import CsmaMac
    from repro.simulation.medium import Medium
    from repro.simulation.phy import ReceptionModel
    from repro.simulation.radio import Radio
    from repro.simulation.stats import NodeStats
    from repro.testbed import measurement, pairs
    from repro.testbed.experiment import TestbedExperiment

    def spans(owner: Any, name: str, *attrs: str, count: Any = None) -> None:
        for attr in attrs:
            _patch(owner, attr, lambda fn: tracer.span(name, fn, count))

    spans(Scenario, "scenarios.placement", "placement")
    spans(Scenario, "scenarios.build", "build_network")
    spans(Scenario, "results.assemble", "_result_set")
    spans(Medium, "propagation.rx_matrix", "compute_rx_dbm_matrix")
    spans(Medium, "medium.finalize", "finalize")
    spans(Medium, "medium.start", "start_transmission")
    spans(Medium, "medium.finish", "_finish_transmission")
    spans(Radio, "radio.started", "incoming_started")
    spans(Radio, "radio.ended", "incoming_ended")
    spans(ReceptionModel, "phy.decide", "decide", count=lambda outcome: int(outcome.success))
    spans(CsmaMac, "mac.callback", "_on_channel_busy", "_on_channel_idle",
          "_on_frame_received", "_on_transmit_complete")
    _patch(Simulator, "run", lambda fn: tracer.span("engine.run", _events_counted(tracer, fn)))
    spans(Simulator, "engine.run_until", "run_until")
    _patch(NodeStats, "record_reception", lambda fn: tracer.counter("mac.deliveries", fn))
    spans(measurement, "capacity.psr", "average_packet_success_rate")
    spans(pairs, "testbed.link_probe", "measure_all_links")
    spans(pairs, "testbed.pair_select", "select_competing_pairs")
    spans(TestbedExperiment, "testbed.net_build", "_build_network")
    spans(RouteTable, "networking.route", "from_rx_matrix")
    _patch(ForwardingQueue, "push_relay", lambda fn: tracer.counter("networking.relay_frames", fn))
    spans(SimEnv, "control.step", "step")
    spans(ResultSet, "results.encode", "to_bytes", count=len)
    spans(ResultSet, "results.decode", "from_bytes", "load")
    spans(ResultCache, "runner.cache_put", "put")
    spans(ResultCache, "runner.cache_get", "get")
    spans(BatchRunner, "runner.batch", "run")
    spans(Study, "api.expand", "scenarios")
    _patch(execute, "run_scenario", lambda fn: _spooled(tracer, tracer.span("runner.task", fn)))
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)


#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER_UNITS = {
    "scenarios.placement_ms": "ms",
    "scenarios.build_ms": "ms",
    "propagation.rx_matrix_ms": "ms",
    "medium.finalize_ms": "ms",
    "medium.frames": "count",
    "medium.fanout": "receivers/frame",
    "medium.us_per_frame": "us",
    "radio.notifications": "count",
    "radio.us_per_notification": "us",
    "phy.decodes": "count",
    "phy.us_per_decode": "us",
    "radio.decode_success_ratio": "ratio",
    "mac.frames_per_delivery": "frames/packet",
    "mac.callback_ms": "ms",
    "engine.events": "count",
    "engine.us_per_event": "us",
    "engine.residual_us_per_event": "us",
    "capacity.psr_calls": "count",
    "capacity.psr_ms": "ms",
    "testbed.link_probe_ms": "ms",
    "testbed.pair_select_ms": "ms",
    "testbed.networks": "count",
    "testbed.net_build_us": "us",
    "networking.route_ms": "ms",
    "networking.relay_frames": "count",
    "control.epochs": "count",
    "control.step_overhead_frac": "frac",
    "results.assemble_ms": "ms",
    "results.encode_ms": "ms",
    "results.bytes": "bytes",
    "runner.cache_put_ms": "ms",
    "runner.parallel_efficiency": "frac",
    "api.expand_ms": "ms",
    "runner.cache_get_ms": "ms",
    "results.decode_ms": "ms",
    "runner.cache_hit_ratio": "ratio",
    "runner.cache_hits_per_s": "1/s",
    "trace.overhead_frac": "frac",
}

#: Metrics fixed by the simulated behaviour: two traced runs of one seed
#: must agree on them exactly.
REPEATING = (
    "medium.frames", "medium.fanout", "radio.notifications", "phy.decodes",
    "radio.decode_success_ratio", "mac.frames_per_delivery", "engine.events",
    "capacity.psr_calls", "testbed.networks", "networking.relay_frames",
    "control.epochs", "results.bytes",
)


def per_layer(tracer: Tracer, run_id: int, unit: Any) -> Dict[str, float]:
    """The per-layer metrics of one traced unit (all but the two the caller
    adds: cache hits per second and tracing overhead).

    ``_ms`` metrics are self time summed over the unit; ``us_per_`` metrics
    divide self time by the layer's unit of work, except
    ``engine.us_per_event``, which divides the whole event loop's inclusive
    time.  A layer that does no work in a workload reports 0.
    """
    totals = tracer.layer_totals(run_id)
    counts = tracer.run_counts(run_id)
    empty = {"calls": 0, "incl_ns": 0.0, "self_ns": 0.0}

    def calls(name: str) -> int:
        return int(totals.get(name, empty)["calls"])

    def self_ns(*names: str) -> float:
        return sum(totals.get(name, empty)["self_ns"] for name in names)

    def incl_ns(name: str) -> float:
        return totals.get(name, empty)["incl_ns"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    frames = calls("medium.start")
    started = calls("radio.started")
    notifications = started + calls("radio.ended")
    decodes = calls("phy.decide")
    events = counts.get("engine.events", 0)
    networks = calls("testbed.net_build")
    return {
        "scenarios.placement_ms": self_ns("scenarios.placement") / 1e6,
        "scenarios.build_ms": self_ns("scenarios.build") / 1e6,
        "propagation.rx_matrix_ms": self_ns("propagation.rx_matrix") / 1e6,
        "medium.finalize_ms": self_ns("medium.finalize") / 1e6,
        "medium.frames": frames,
        "medium.fanout": ratio(started, frames),
        "medium.us_per_frame": ratio(self_ns("medium.start", "medium.finish") / 1e3, frames),
        "radio.notifications": notifications,
        "radio.us_per_notification": ratio(
            self_ns("radio.started", "radio.ended") / 1e3, notifications
        ),
        "phy.decodes": decodes,
        "phy.us_per_decode": ratio(self_ns("phy.decide") / 1e3, decodes),
        "radio.decode_success_ratio": ratio(counts.get("phy.decide", 0), decodes),
        "mac.frames_per_delivery": ratio(frames, counts.get("mac.deliveries", 0)),
        "mac.callback_ms": self_ns("mac.callback") / 1e6,
        "engine.events": events,
        "engine.us_per_event": ratio(incl_ns("engine.run") / 1e3, events),
        "engine.residual_us_per_event": ratio(self_ns("engine.run") / 1e3, events),
        "capacity.psr_calls": calls("capacity.psr"),
        "capacity.psr_ms": self_ns("capacity.psr") / 1e6,
        "testbed.link_probe_ms": self_ns("testbed.link_probe") / 1e6,
        "testbed.pair_select_ms": self_ns("testbed.pair_select") / 1e6,
        "testbed.networks": networks,
        "testbed.net_build_us": ratio(self_ns("testbed.net_build") / 1e3, networks),
        "networking.route_ms": self_ns("networking.route") / 1e6,
        "networking.relay_frames": counts.get("networking.relay_frames", 0),
        "control.epochs": calls("control.step"),
        "control.step_overhead_frac": ratio(
            self_ns("control.step"), incl_ns("control.step")
        ),
        "results.assemble_ms": self_ns("results.assemble") / 1e6,
        "results.encode_ms": self_ns("results.encode") / 1e6,
        "results.bytes": counts.get("results.encode", 0),
        "runner.cache_put_ms": self_ns("runner.cache_put") / 1e6,
        "runner.parallel_efficiency": ratio(
            incl_ns("runner.task") / 1e9,
            unit.extra.get("workers", 0) * unit.extra.get("cold_wall_s", 0.0),
        ),
        "api.expand_ms": self_ns("api.expand") / 1e6,
        "runner.cache_get_ms": self_ns("runner.cache_get") / 1e6,
        "results.decode_ms": self_ns("results.decode") / 1e6,
        "runner.cache_hit_ratio": unit.extra.get("cache_hit_ratio", 0.0),
    }


def check_repeat(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    """Names of the behaviour-fixed metrics that differ between two traced runs."""
    return [key for key in REPEATING if first.get(key) != second.get(key)]
