"""repro.results: columnar ResultSet construction, storage, and validation.

The contract under test: the ResultSet is the one currency of scenario
runs -- scenario scalars live in ``rs.scenarios``, per-flow values in typed
columns -- its binary form is lossless for every seeded topology, codes
that point outside the name table or scenario index are rejected at
construction (including payloads read from disk), and cache entries written
by the pre-columnar layout miss and re-execute.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.results import FLOW_COLUMNS, ResultSet
from repro.runner import BatchRunner, ResultCache
from repro.scenarios import TOPOLOGIES, Scenario, scenario_task

#: One cheap scenario per registered topology (all 7 seeded generators).
ALL_TOPOLOGY_SCENARIOS = [
    Scenario(name=f"rt-{name}", topology=name, n_nodes=9, extent_m=150.0,
             duration_s=0.1, seed=11 + i)
    for i, name in enumerate(sorted(TOPOLOGIES))
]


def small_resultset() -> ResultSet:
    return Scenario(topology="exposed_terminal", n_nodes=4, duration_s=0.2, seed=5).run()


class TestScenarioRunProducesResultSet:
    def test_native_columns_are_populated(self):
        rs = small_resultset()
        assert rs.n_flows == 2 and rs.n_scenarios == 1
        assert np.all(rs.delivered_packets >= 0)
        assert np.all(rs.offered_packets > 0)
        assert np.all(rs.sent_packets > 0)
        assert np.all(np.isfinite(rs.loss_frac))
        assert np.all((rs.loss_frac >= 0) & (rs.loss_frac <= 1))
        # delay_s carries the mean MAC enqueue-to-delivery latency
        assert np.all(np.isfinite(rs.delay_s))
        assert np.all(rs.delay_s > 0)
        # offered >= sent >= delivered along each flow
        assert np.all(rs.offered_packets >= rs.sent_packets)
        assert np.all(rs.sent_packets >= rs.delivered_packets)

    def test_offered_pps_matches_counters(self):
        rs = small_resultset()
        duration = rs.scenarios[0]["duration_s"]
        assert np.array_equal(rs.offered_pps, rs.offered_packets / duration)

    def test_scenario_entry_carries_summary_scalars(self):
        rs = small_resultset()
        entry = rs.scenarios[0]
        assert list(entry) == [
            "name", "topology", "n_nodes", "n_flows", "seed", "duration_s",
            "total_pps", "mean_flow_pps", "min_flow_pps", "max_flow_pps",
            "events_processed",
        ]
        assert entry["n_flows"] == rs.n_flows
        assert entry["events_processed"] > 0
        with pytest.raises(TypeError):
            rs["total_pps"]  # no dict-subscript view: read rs.scenarios

    def test_summary_scalars_match_per_flow_columns(self):
        rs = small_resultset()
        entry = rs.scenarios[0]
        assert entry["total_pps"] == float(sum(rs.delivered_pps.tolist()))
        assert entry["mean_flow_pps"] == float(np.mean(rs.delivered_pps))
        assert entry["min_flow_pps"] == rs.delivered_pps.min()
        assert entry["max_flow_pps"] == rs.delivered_pps.max()


class TestRoundTripFidelity:
    @pytest.mark.parametrize(
        "scenario", ALL_TOPOLOGY_SCENARIOS, ids=lambda s: s.topology
    )
    def test_bytes_round_trip_every_topology(self, scenario):
        """Every seeded topology survives the binary encoding exactly."""
        rs = scenario.run()
        decoded = ResultSet.from_bytes(rs.to_bytes())
        assert decoded == rs
        # Row records compare NaN sentinels as text.
        assert json.dumps(decoded.to_flow_records()) == json.dumps(rs.to_flow_records())

    def test_binary_round_trip_lossless(self, tmp_path):
        rs = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        path = tmp_path / "sweep.npz"
        rs.save(path)
        assert ResultSet.load(path) == rs
        assert ResultSet.from_bytes(rs.to_bytes()) == rs

    def test_manifest_is_json_able(self):
        manifest = small_resultset().manifest()
        decoded = json.loads(json.dumps(manifest))
        assert decoded["n_flows"] == 2
        assert decoded["scenarios"][0]["topology"] == "exposed_terminal"


class TestCodeValidation:
    """Codes outside the node-name table or the scenario index are rejected
    when the set is built, not when a column is read."""

    @staticmethod
    def _crafted(**overrides):
        arrays = dict(
            node_names=np.asarray(["a", "b"]),
            src_code=np.asarray([0], dtype=np.int32),
            dst_code=np.asarray([1], dtype=np.int32),
            scenario_idx=np.asarray([0], dtype=np.int32),
        )
        arrays.update(overrides)
        return arrays

    @pytest.mark.parametrize("overrides, match", [
        ({"dst_code": [-1]}, "dst_code"),
        ({"dst_code": [2]}, "dst_code"),
        ({"src_code": [-1]}, "src_code"),
        ({"src_code": [5]}, "src_code"),
        ({"scenario_idx": [-1]}, "scenario_idx"),
        ({"scenario_idx": [1]}, "scenario_idx"),
        ({"node_names": []}, "src_code"),
    ], ids=["dst-neg", "dst-high", "src-neg", "src-high", "idx-neg", "idx-high", "no-names"])
    def test_out_of_range_codes_rejected(self, overrides, match):
        arrays = self._crafted(**{key: np.asarray(value) for key, value in overrides.items()})
        with pytest.raises(ValueError, match=match):
            ResultSet(scenarios=[{"name": "s"}], **arrays)

    @pytest.mark.parametrize("field, codes", [
        ("dst_code", [-1, 0]),
        ("dst_code", [1, 99]),
        ("src_code", [-3, 0]),
        ("scenario_idx", [0, -1]),
    ], ids=["dst-neg", "dst-high", "src-neg", "idx-neg"])
    def test_crafted_payload_rejected_by_from_bytes(self, field, codes):
        """A tampered cache sidecar or artifact fails on load, not on read."""
        rs = small_resultset()
        payload = dict(np.load(io.BytesIO(rs.to_bytes())))
        payload[field] = np.asarray(codes, dtype=np.int32)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        with pytest.raises(ValueError, match=field):
            ResultSet.from_bytes(buffer.getvalue())


class TestCombinators:
    def test_concat_remaps_codes_and_offsets_scenarios(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        assert whole.n_scenarios == 3
        assert whole.n_flows == sum(p.n_flows for p in parts)
        offset = 0
        for index, part in enumerate(parts):
            rows = whole.scenario_idx == index
            assert np.array_equal(whole.src[rows], part.src)
            assert np.array_equal(whole.delivered_pps[rows],
                                  part.delivered_pps)
            offset += part.n_flows
        assert ResultSet.concat([]) == ResultSet.empty()

    def test_filter_by_mask(self):
        rs = small_resultset()
        top = rs.filter(rs.delivered_pps >= rs.delivered_pps.max())
        assert top.n_flows == 1
        assert top.delivered_pps[0] == rs.delivered_pps.max()
        with pytest.raises(ValueError):
            rs.filter(np.asarray([True]))

    def test_group_by_flow_column_and_scenario_field(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:2]]
        whole = ResultSet.concat(parts)
        by_topology = whole.group_by("topology")
        assert set(by_topology) == {p.scenarios[0]["topology"] for p in parts}
        for name, group in by_topology.items():
            # Groups are pruned to their own scenarios, so per-group scenario
            # reductions (e.g. mean total_pps per topology) are scoped right.
            assert all(s["topology"] == name for s in group.scenarios)
            assert group.scenarios[0]["total_pps"] == float(sum(group.delivered_pps.tolist()))
        by_dst = whole.group_by("dst")
        assert sum(g.n_flows for g in by_dst.values()) == whole.n_flows

    def test_filter_prune_scenarios_remaps_index(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        whole = ResultSet.concat(parts)
        only_last = whole.filter(whole.scenario_idx == 2, prune_scenarios=True)
        assert only_last.scenarios == [whole.scenarios[2]]
        assert np.all(only_last.scenario_idx == 0)
        assert only_last == parts[2]

    def test_split_inverts_concat(self):
        parts = [s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]]
        assert ResultSet.concat(parts).split() == parts

    def test_scenario_column(self):
        whole = ResultSet.concat([s.run() for s in ALL_TOPOLOGY_SCENARIOS[:3]])
        totals = whole.scenario_column("total_pps")
        assert totals.shape == (3,)
        assert float(totals.sum()) == sum(s["total_pps"] for s in whole.scenarios)

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            small_resultset().column("jitter")
        assert set(FLOW_COLUMNS) >= {"src", "dst", "delivered_pps", "delay_s"}


class TestCacheIntegration:
    def test_resultset_stored_binary_and_reloaded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        assert cache._binary_path(task.cache_key).exists()
        entry = json.loads(cache._path(task.cache_key).read_text())
        assert "__repro_resultset__" in entry["result"]
        second = BatchRunner(workers=0, cache=cache).run([task])
        assert second.report.cache_hits == 1
        assert second.results == first.results
        assert isinstance(second.results[0], ResultSet)

    def test_old_layout_inline_dict_entry_misses_and_reexecutes(self, tmp_path):
        """A pre-columnar entry (inline per-flow dict at ``<root>/<hh>/``)
        is never served: the task re-executes into the current layout."""
        cache = ResultCache(tmp_path / "cache")
        scenario = ALL_TOPOLOGY_SCENARIOS[0]
        task = scenario_task(scenario)
        fresh = scenario.run()
        old_path = tmp_path / "cache" / task.cache_key[:2] / f"{task.cache_key}.json"
        old_path.parent.mkdir(parents=True)
        old_path.write_text(json.dumps({
            "key": task.cache_key,
            "config": task.config,
            "result": {"name": scenario.name, "total_pps": 1.0,
                       "per_flow_pps": {"n000->n001": 1.0}},
        }))
        assert cache._path(task.cache_key) != old_path
        assert cache.get(task.cache_key) is None and len(cache) == 0
        outcome = BatchRunner(workers=0, cache=cache).run([task])
        assert outcome.report.cache_hits == 0 and outcome.report.executed == 1
        assert outcome.results == [fresh]
        assert cache.get(task.cache_key)["result"] == fresh
        again = BatchRunner(workers=0, cache=cache).run([task])
        assert again.report.cache_hits == 1 and again.results == [fresh]

    @pytest.mark.parametrize("corruption", ["garbage", "truncated", "missing"])
    def test_corrupt_binary_sidecar_evicted_and_reexecuted(self, tmp_path, corruption):
        """Unreadable sidecars (np.load raises BadZipFile/EOFError/ValueError
        depending on how the bytes are broken) must evict, not crash."""
        cache = ResultCache(tmp_path / "cache")
        task = scenario_task(ALL_TOPOLOGY_SCENARIOS[0])
        first = BatchRunner(workers=0, cache=cache).run([task])
        sidecar = cache._binary_path(task.cache_key)
        if corruption == "garbage":
            sidecar.write_bytes(b"\x00not an npz")
        elif corruption == "truncated":
            sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
        else:
            sidecar.unlink()
        assert cache.get(task.cache_key) is None
        assert not cache._path(task.cache_key).exists()  # manifest evicted too
        retry = BatchRunner(workers=0, cache=cache).run([task])
        assert retry.report.executed == 1
        assert retry.results == first.results

    def test_columnar_results_identical_across_worker_pool(self, tmp_path):
        tasks = [scenario_task(s) for s in ALL_TOPOLOGY_SCENARIOS[:4]]
        serial = BatchRunner(workers=0).run(tasks)
        pooled = BatchRunner(workers=2).run(tasks)
        assert pooled.results == serial.results
