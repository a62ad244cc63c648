"""Pruned-medium equivalence and vectorized power bookkeeping tests.

The contract under test: for ``cca_noise_db=0`` a scenario run on the
neighbourhood-pruned medium delivers *identical* per-flow results to the
unpruned reference medium, on every registered topology generator, whether
or not pruning is actually removing links.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.capacity.rates import rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.propagation.pathloss import LogDistancePathLoss
from repro.scenarios import TOPOLOGIES, Scenario, unpruned_variant
from repro.simulation.engine import Simulator
from repro.simulation.frames import Frame, FrameKind
from repro.simulation.medium import Medium, Transmission
from repro.simulation.phy import ReceptionModel
from repro.simulation.radio import RESYNC_INTERVAL, Radio
from repro.units import linear_to_db


def build_medium(positions, detectability_margin_db=16.0, cca=-82.0):
    sim = Simulator()
    channel = ChannelModel(
        path_loss=LogDistancePathLoss(
            alpha=3.6, frequency_hz=5.24e9, reference_distance_m=20.0,
            reference_loss_db=77.0,
        ),
        sigma_db=0.0,
        rng=np.random.default_rng(0),
    )
    medium = Medium(sim, channel, detectability_margin_db=detectability_margin_db)
    radios = {}
    for i, (node_id, position) in enumerate(positions.items()):
        radio = Radio(
            node_id, sim, medium, reception=ReceptionModel(snr_jitter_db=0.0),
            cca_threshold_dbm=cca, cca_noise_db=0.0,
            rng=np.random.default_rng(100 + i),
        )
        medium.register(node_id, position, radio)
        radios[node_id] = radio
    return sim, medium, radios


def data_frame(src, mbps=6.0, payload=1400):
    return Frame(FrameKind.DATA, src, "*", payload, rate_by_mbps(mbps))


# With the parameters of build_medium (15 dBm tx, 77 dB loss at 20 m,
# alpha 3.6) the ~-110 dBm detectability floor falls around 430 m.
NEAR, FAR = (10.0, 0.0), (2000.0, 0.0)


class TestMediumFinalize:
    def test_floor_derived_from_margin(self):
        _sim, medium, _ = build_medium({"a": (0, 0)}, detectability_margin_db=16.0)
        assert medium.detectability_floor_dbm == pytest.approx(
            medium.channel.noise_floor_dbm - 16.0
        )
        _sim, unpruned, _ = build_medium({"a": (0, 0)}, detectability_margin_db=None)
        assert unpruned.detectability_floor_dbm is None

    def test_negative_margin_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Medium(sim, ChannelModel(), detectability_margin_db=-1.0)

    def test_neighborhood_prunes_sub_floor_links(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": FAR})
        assert medium.neighborhood("a") == ["b"]
        _sim, unpruned, _ = build_medium(
            {"a": (0, 0), "b": NEAR, "c": FAR}, detectability_margin_db=None
        )
        assert unpruned.neighborhood("a") == ["b", "c"]

    def test_matrix_matches_lazy_link_budget(self):
        positions = {"a": (0, 0), "b": (35, 12), "c": (90, -40), "d": (400, 300)}
        _sim, medium, _ = build_medium(positions)
        lazy = {
            (s, d): medium.rx_power_dbm(s, d)
            for s in positions for d in positions if s != d
        }
        medium.finalize()
        for (s, d), value in lazy.items():
            assert medium.rx_power_dbm(s, d) == value

    def test_register_after_finalize_refinalizes(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        assert medium.finalized
        radio = Radio("c", sim, medium, cca_noise_db=0.0)
        medium.register("c", (20.0, 0.0), radio)
        assert not medium.finalized
        assert set(medium.neighborhood("a")) == {"b", "c"}

    def test_register_mid_flight_rejected(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.start_transmission("a", data_frame("a"))
        with pytest.raises(RuntimeError):
            medium.register("c", (5.0, 5.0), Radio("c", sim, medium))
        sim.run()

    def test_subfloor_power_tracks_active_transmissions(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "far": FAR})
        medium.finalize()
        assert radios["a"].subfloor_noise_mw == 0.0
        medium.start_transmission("far", data_frame("far"))
        expected = medium.rx_power_mw("far", "a")
        assert radios["a"].subfloor_noise_mw == pytest.approx(expected, rel=1e-12)
        # The sub-floor sender is invisible to per-frame bookkeeping but its
        # energy is part of the sensed total.
        assert radios["a"].incoming_count == 0
        assert radios["a"].sensed_power_mw() == pytest.approx(
            medium.noise_floor_mw + expected, rel=1e-12
        )
        sim.run()
        assert radios["a"].subfloor_noise_mw == 0.0

    def test_threshold_change_refreshes_medium_mirror(self):
        # Mid-run CCA threshold changes (tuned/adaptive experiments) must
        # keep the medium's linear guard-band edge for the sub-floor
        # busy-edge check in sync (the lower edge: the radio is idle).
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        slot = radios["a"]._slot
        radios["a"].cca_threshold_dbm = -70.0
        assert medium._cca_edge_mw[slot] == pytest.approx(10.0 ** (-7.0))
        assert medium._cca_edge_mw[slot] == radios["a"]._cca_idle_max_mw
        radios["a"].cca_threshold_dbm = None
        assert medium._cca_edge_mw[slot] == np.inf

    def test_subfloor_power_change_fires_busy_idle_callbacks(self):
        # With a tight margin, aggregate sub-floor power alone can cross a
        # radio's CCA threshold.  Per-frame callbacks never reach sub-floor
        # receivers, so the medium must fire the busy/idle edges itself --
        # otherwise a MAC waiting on on_channel_idle stalls forever.  The
        # pruned callback sequence must match the unpruned reference.
        # At 165 m the sender lands at ~-95 dBm: below the margin-0 floor
        # (~-94 dBm) yet enough, summed with the noise floor, to cross a
        # -93 dBm CCA threshold.
        positions = {"a": (0.0, 0.0), "far": (165.0, 0.0)}

        def run_one(margin):
            sim, medium, radios = build_medium(
                positions, detectability_margin_db=margin, cca=-93.0
            )
            events = []
            radios["a"].on_channel_busy = lambda: events.append("busy")
            radios["a"].on_channel_idle = lambda: events.append("idle")
            medium.start_transmission("far", data_frame("far"))
            return events, medium, sim

        pruned_events, pruned_medium, pruned_sim = run_one(0.0)
        assert pruned_medium.neighborhood("far") == []  # link genuinely pruned
        pruned_sim.run()
        unpruned_events, _, unpruned_sim = run_one(None)
        unpruned_sim.run()
        assert pruned_events == unpruned_events == ["busy", "idle"]

    def test_subfloor_busy_edge_sync_decides_at_the_threshold_exactly(self):
        # Within an ulp of the threshold the medium's linear compare and the
        # radio's dB compare can disagree.  A busy radio whose sub-floor power
        # drops to a value the linear compare still calls busy, but the dB
        # compare calls idle, must still get its idle edge: otherwise a MAC
        # waiting on on_channel_idle stalls until the next above-floor edge.
        for threshold_dbm in (-93.0, -92.0, -91.0, -90.0, -85.0, -82.0, -80.0):
            _sim, medium, radios = build_medium(
                {"a": (0.0, 0.0), "far": FAR}, cca=threshold_dbm
            )
            medium.finalize()
            radio = radios["a"]
            noise_mw = radio._noise_floor_mw
            threshold_mw = 10.0 ** (threshold_dbm / 10.0)
            base = np.float64(threshold_mw - noise_mw)
            # Sub-floor powers a few ulps around the threshold (the radio's
            # sensed total is (0.0 + sub-floor) + noise floor).
            disagreeing = [
                s for s in (
                    float((base.view(np.int64) + k).view(np.float64))
                    for k in range(-8, 9)
                )
                if (s + noise_mw > threshold_mw)
                and not (float(linear_to_db(s + noise_mw)) > threshold_dbm)
            ]
            if disagreeing:
                break
        assert disagreeing, "no threshold where the linear and dB compares disagree"
        events = []
        radio.on_channel_busy = lambda: events.append("busy")
        radio.on_channel_idle = lambda: events.append("idle")
        slot = radio._slot
        everyone = np.ones(len(medium._slot_radios), dtype=bool)
        medium._subfloor_active_mw[slot] = 10.0 * threshold_mw
        medium._sync_subfloor_busy_edges(everyone)
        assert events == ["busy"]
        medium._subfloor_active_mw[slot] = disagreeing[0]
        medium._sync_subfloor_busy_edges(everyone)
        assert events == ["busy", "idle"]
        assert not radio.channel_busy()
        assert not medium._busy_mirror[slot]

    def test_subfloor_resync_restores_exact_state(self):
        sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "far": FAR})
        medium.start_transmission("far", data_frame("far"))
        expected = radios["a"].subfloor_noise_mw
        medium._subfloor_active_mw += 123.0  # inject drift
        medium._resync_subfloor()
        assert radios["a"].subfloor_noise_mw == pytest.approx(expected, rel=1e-12)
        sim.run()
        medium._subfloor_active_mw += 123.0
        medium._resync_subfloor()
        assert radios["a"].subfloor_noise_mw == 0.0


class TestRadioAccumulators:
    def _fake_tx(self, src, start=0.0, duration=1e-3):
        return Transmission(
            frame=data_frame(src), src=src, start_time=start, end_time=start + duration
        )

    def test_accumulator_matches_exact_sum(self):
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        radio = radios["a"]
        rng = np.random.default_rng(0)
        live = []
        for i in range(200):
            if live and rng.random() < 0.4:
                radio.incoming_ended(live.pop(rng.integers(len(live))))
            else:
                tx = self._fake_tx("b", start=i * 1e-4)
                radio.incoming_started(tx, float(rng.uniform(1e-9, 1e-6)))
                live.append(tx)
            assert radio._rx_sum_mw == pytest.approx(
                sum(radio._incoming_power_mw.values()), rel=1e-9, abs=1e-18
            )

    def test_empty_channel_resets_sums_exactly(self):
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        radio = radios["a"]
        tx = self._fake_tx("b")
        radio.incoming_started(tx, 1e-7)
        radio.incoming_ended(tx)
        assert radio._rx_sum_mw == 0.0
        assert radio._cca_sum_mw == 0.0

    def test_periodic_resync_bounds_drift(self):
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        radio = radios["a"]
        anchor = self._fake_tx("b")
        radio.incoming_started(anchor, 1e-7)
        radio._rx_sum_mw += 1.0  # inject drift
        radio._cca_sum_mw += 1.0
        radio._mutations_since_resync = RESYNC_INTERVAL  # due for resync
        tx = self._fake_tx("b", start=1e-4)
        radio.incoming_started(tx, 2e-7)
        assert radio._rx_sum_mw == pytest.approx(3e-7, rel=1e-12)
        assert radio._cca_sum_mw == pytest.approx(3e-7, rel=1e-12)

    def test_standalone_radio_locks_without_finalize(self):
        # A Radio on a never-finalised medium (no slot) must still be able to
        # lock, accumulate worst-case interference, and deliver an outcome.
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR, "c": (20.0, 0.0)})
        radio = radios["a"]
        outcomes = []
        radio.on_frame_received = outcomes.append
        locked = self._fake_tx("b")
        radio.incoming_started(locked, 1e-6)
        assert radio._locked is locked
        interferer = self._fake_tx("c", start=1e-4)
        radio.incoming_started(interferer, 1e-8)
        radio.incoming_ended(interferer)
        radio.incoming_ended(locked)
        assert len(outcomes) == 1
        assert not medium.finalized
        _sim, medium, radios = build_medium({"a": (0, 0), "b": NEAR})
        medium.finalize()
        radio = radios["a"]
        radio.incoming_started(self._fake_tx("b"), 1e-7)
        radio._rx_sum_mw = 42.0
        radio._cca_sum_mw = 42.0
        radio.resync_power_accumulators()
        assert radio._rx_sum_mw == pytest.approx(1e-7, rel=1e-12)
        assert radio._cca_sum_mw == pytest.approx(1e-7, rel=1e-12)
        assert radio._mutations_since_resync == 0


def _scenario(topology, **overrides):
    """A small scenario on the given topology with deterministic CCA."""
    params = {
        "name": f"eq-{topology}",
        "topology": topology,
        "n_nodes": 12,
        "extent_m": 120.0,
        "seed": 7,
        "sigma_db": 0.0,
        "cca_noise_db": 0.0,
        "duration_s": 0.08,
    }
    params.update(overrides)
    return Scenario(**params)


def _assert_equivalent(scenario):
    pruned = scenario.run()
    unpruned = unpruned_variant(scenario).run()
    assert np.array_equal(pruned.src, unpruned.src)
    assert np.array_equal(pruned.dst, unpruned.dst)
    assert np.array_equal(pruned.delivered_pps, unpruned.delivered_pps)
    assert pruned.scenarios[0]["total_pps"] == unpruned.scenarios[0]["total_pps"]
    assert pruned == unpruned
    return pruned


class TestPrunedUnprunedEquivalence:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_compact_layouts_match(self, topology):
        """Dense default-extent layouts (mostly nothing to prune)."""
        _assert_equivalent(_scenario(topology))

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_shadowed_layouts_match(self, topology):
        _assert_equivalent(_scenario(topology, sigma_db=8.0, seed=3))

    def test_spread_line_matches_with_active_pruning(self):
        # 16 nodes spaced 100 m apart: adjacent flows deliver, nodes more
        # than ~430 m apart are pruned from each other's notify lists.
        scenario = _scenario("line", n_nodes=16, extent_m=1500.0, duration_s=0.05)
        net, _ = scenario.build_network()
        net.medium.finalize()
        sizes = [len(net.medium.neighborhood(n)) for n in net.nodes]
        assert max(sizes) < len(net.nodes) - 1  # pruning is really active
        result = _assert_equivalent(scenario)
        assert result.scenarios[0]["total_pps"] > 0

    def test_multi_hub_scale_free_matches_with_active_pruning(self):
        scenario = _scenario(
            "scale_free",
            n_nodes=60,
            extent_m=8000.0,
            duration_s=0.03,
            topology_params={"attach_range_frac": 0.008, "n_hubs": 8},
        )
        net, _ = scenario.build_network()
        net.medium.finalize()
        sizes = [len(net.medium.neighborhood(n)) for n in net.nodes]
        assert np.mean(sizes) < 0.7 * (len(net.nodes) - 1)
        result = _assert_equivalent(scenario)
        assert result.scenarios[0]["total_pps"] > 0

    def test_spread_clustered_matches_with_active_pruning(self):
        scenario = _scenario(
            "clustered",
            n_nodes=24,
            extent_m=4000.0,
            duration_s=0.05,
            topology_params={"n_clusters": 6, "spread_frac": 0.008},
        )
        _assert_equivalent(scenario)


class TestMirrorInvariant:
    """The medium's per-slot mirrors equal the radios' own state at every
    checkpoint of a pruned run, exactly (no tolerance)."""

    @staticmethod
    def _assert_mirrors(medium):
        for slot, radio in enumerate(medium._slot_radios):
            assert medium._busy_mirror[slot] == radio._was_busy
            assert medium._cca_edge_mw[slot] == radio._cca_edge_mw()
            assert medium._locked_mask[slot] == (radio._locked is not None)
            assert medium._above_sum_mw[slot] == radio._rx_sum_mw
            assert medium._cca_live_mw[slot] == radio._cca_sum_mw

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("extent_m", [120.0, 2000.0])
    def test_mirrors_match_radio_state(self, topology, extent_m):
        scenario = _scenario(topology, extent_m=extent_m, cca_noise_db=2.0)
        net, _ = scenario.build_network()
        net.start()
        for checkpoint in np.linspace(0.0, scenario.duration_s, 9)[1:]:
            net.sim.run(until=checkpoint)
            self._assert_mirrors(net.medium)
        assert net.sim.events_processed > 0


class TestLazyNotifyTables:
    """Per-sender notify tables are built on first transmission, not at
    finalisation (pure receivers never pay the tuple packing)."""

    def test_finalize_builds_no_rows(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": (20.0, 0.0)})
        medium.finalize()
        assert medium._row_built == [False, False, False]
        assert medium._notify == [None, None, None]

    def test_first_transmission_builds_only_the_sender_row(self):
        sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": (20.0, 0.0)})
        medium.start_transmission("a", data_frame("a"))
        assert medium._row_built == [True, False, False]
        sim.run()
        assert medium._row_built == [True, False, False]

    def test_lazy_rows_match_neighborhood_query(self):
        _sim, medium, _ = build_medium({"a": (0, 0), "b": NEAR, "c": FAR})
        # neighborhood() forces the row; far node is pruned, near one kept.
        assert medium.neighborhood("a") == ["b"]
        assert medium._row_built[0] and not medium._row_built[1]
        assert medium._subfloor_rows[0] is not None  # c's power folded sub-floor

    def test_lazy_and_eager_runs_identical(self):
        """A scenario driven through lazy tables is bit-identical to itself
        (and the pruned-vs-unpruned suites above pin it against the
        reference medium)."""
        scenario = _scenario("scale_free", n_nodes=10)
        assert scenario.run() == scenario.run()
