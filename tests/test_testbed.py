"""Tests for the synthetic testbed: layout, measurement, pair selection."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.capacity.rates import rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.testbed.layout import generate_office_layout
from repro.testbed.measurement import measure_all_links, measure_link, rssi_survey
from repro.testbed.pairs import select_competing_pairs, select_links


class TestLayout:
    def test_node_count_and_unique_ids(self, office_layout):
        assert len(office_layout.nodes) == 50
        assert len(set(office_layout.node_ids)) == 50

    def test_nodes_within_floor_bounds(self, office_layout):
        for node in office_layout.nodes:
            assert 0.0 <= node.x <= 100.0
            assert 0.0 <= node.y <= 60.0
            assert node.floor in (0, 1)

    def test_deterministic_for_seed(self):
        a = generate_office_layout(n_nodes=20, seed=3)
        b = generate_office_layout(n_nodes=20, seed=3)
        assert [(n.x, n.y, n.floor) for n in a.nodes] == [(n.x, n.y, n.floor) for n in b.nodes]
        pair = (a.node_ids[0], a.node_ids[5])
        assert a.channel.shadowing_db(*pair) == b.channel.shadowing_db(*pair)

    def test_different_seed_differs(self):
        a = generate_office_layout(n_nodes=20, seed=3)
        b = generate_office_layout(n_nodes=20, seed=4)
        assert [(n.x, n.y) for n in a.nodes] != [(n.x, n.y) for n in b.nodes]

    def test_cross_floor_pairs_attenuated_on_average(self, office_layout):
        same, cross = [], []
        ids = office_layout.node_ids
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                value = office_layout.channel.shadowing_db(a, b)
                (same if office_layout.same_floor(a, b) else cross).append(value)
        assert np.mean(cross) < np.mean(same) - 5.0

    def test_distance_symmetry(self, office_layout):
        a, b = office_layout.node_ids[0], office_layout.node_ids[10]
        assert office_layout.distance(a, b) == office_layout.distance(b, a)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            generate_office_layout(n_nodes=3)


class TestMeasurement:
    def test_link_snr_decreases_with_distance_on_average(self, small_layout):
        measurements = measure_all_links(small_layout)
        near = [m.snr_db for m in measurements if m.distance_m < 15.0]
        far = [m.snr_db for m in measurements if m.distance_m > 40.0]
        assert np.mean(near) > np.mean(far)

    def test_delivery_rate_monotone_in_snr_trend(self, small_layout):
        measurements = measure_all_links(small_layout)
        strong = [m.delivery_rate_6mbps for m in measurements if m.snr_db > 30.0]
        weak = [m.delivery_rate_6mbps for m in measurements if m.snr_db < 10.0]
        assert min(strong) > max(weak)

    def test_delivery_band_helper(self, small_layout):
        ids = small_layout.node_ids
        measurement = measure_link(small_layout, ids[0], ids[1])
        assert measurement.in_delivery_band(0.0, 1.0)

    def test_probe_rate_affects_delivery(self, small_layout):
        ids = small_layout.node_ids
        pair = None
        for m in measure_all_links(small_layout):
            if 10.0 < m.snr_db < 18.0:
                pair = (m.src, m.dst)
                break
        assert pair is not None, "expected at least one marginal link in the layout"
        slow = measure_link(small_layout, *pair, probe_rate=rate_by_mbps(6.0))
        fast = measure_link(small_layout, *pair, probe_rate=rate_by_mbps(54.0))
        assert slow.delivery_rate_6mbps > fast.delivery_rate_6mbps

    def test_rssi_survey_structure(self, small_layout):
        survey = rssi_survey(small_layout, seed=1)
        n_nodes = len(small_layout.node_ids)
        total_pairs = n_nodes * (n_nodes - 1) // 2
        assert len(survey["distances"]) + len(survey["censored_distances"]) == total_pairs
        assert len(survey["distances"]) == len(survey["snr_db"])

    def test_rssi_survey_censors_weak_links(self, office_layout):
        survey = rssi_survey(office_layout, detection_threshold_dbm=-80.0, seed=1)
        strict = rssi_survey(office_layout, detection_threshold_dbm=-95.0, seed=1)
        assert len(survey["censored_distances"]) > len(strict["censored_distances"])

    def test_self_link_rejected_without_drawing_shadowing(self, small_layout):
        node = small_layout.node_ids[0]
        channel = small_layout.channel
        state = channel.rng.bit_generator.state
        with pytest.raises(ValueError):
            measure_link(small_layout, node, node)
        assert channel.rng.bit_generator.state == state
        assert (node, node) not in channel._pair_shadowing_db


def _partially_drawn_layout():
    """The smoke layout's nodes on a fresh channel with a few pairs already
    drawn (out of row-major order) and one pinned, so probing has to draw
    the rest around them."""
    base = generate_office_layout(
        n_nodes=16, floors=1, floor_width_m=60.0, floor_depth_m=40.0, seed=5
    )
    channel = ChannelModel(
        path_loss=base.channel.path_loss,
        sigma_db=10.0,
        tx_power_dbm=base.channel.tx_power_dbm,
        rng=np.random.default_rng(42),
    )
    ids = base.node_ids
    channel.shadowing_db(ids[5], ids[2])
    channel.shadowing_db(ids[0], ids[9])
    channel.shadowing_db(ids[14], ids[15])
    channel.set_shadowing_db(ids[3], ids[4], -7.5)
    return dataclasses.replace(base, channel=channel)


_PROBE_LAYOUTS = {
    "office": lambda: generate_office_layout(seed=7),
    "smoke": lambda: generate_office_layout(
        n_nodes=16, floors=1, floor_width_m=60.0, floor_depth_m=40.0, seed=5
    ),
    "partially-drawn": _partially_drawn_layout,
}


class TestBatchedProbing:
    """``measure_all_links`` probes a layout in one matrix pass; it must be
    indistinguishable from the per-link ``measure_link`` loop."""

    @pytest.mark.parametrize("name", sorted(_PROBE_LAYOUTS))
    def test_matches_per_link_loop(self, name):
        reference_layout, batched_layout = _PROBE_LAYOUTS[name](), _PROBE_LAYOUTS[name]()
        ids = reference_layout.node_ids
        reference = [
            measure_link(reference_layout, src, dst) for src in ids for dst in ids if src != dst
        ]
        batched = measure_all_links(batched_layout)
        assert batched == reference
        expected, actual = reference_layout.channel, batched_layout.channel
        assert actual.rng.bit_generator.state == expected.rng.bit_generator.state
        assert actual._pair_shadowing_db == expected._pair_shadowing_db

    def test_distance_matrix_matches_pairwise_distance(self, small_layout):
        ids = small_layout.node_ids
        matrix = small_layout.distance_matrix()
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert matrix[i, j] == small_layout.distance(a, b)


def _reference_rssi_survey(layout, detection_threshold_dbm, measurement_noise_db, seed):
    """The per-pair survey loop: one link budget and one noise draw per pair."""
    rng = np.random.default_rng(seed)
    detected_distances, detected_snr_db, censored_distances = [], [], []
    ids = layout.node_ids
    noise_floor = layout.channel.noise_floor_dbm
    for i, src in enumerate(ids):
        for dst in ids[i + 1 :]:
            distance = max(layout.distance(src, dst), 1.0)
            budget = layout.channel.link_budget(src, dst, distance)
            rssi = budget.rx_power_dbm + float(rng.normal(0.0, measurement_noise_db))
            if rssi >= detection_threshold_dbm:
                detected_distances.append(distance)
                detected_snr_db.append(rssi - noise_floor)
            else:
                censored_distances.append(distance)
    return {
        "distances": np.asarray(detected_distances),
        "snr_db": np.asarray(detected_snr_db),
        "censored_distances": np.asarray(censored_distances),
        "detection_threshold_snr_db": np.asarray(detection_threshold_dbm - noise_floor),
    }


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rssi_survey_matches_per_pair_loop(office_layout, seed):
    survey = rssi_survey(office_layout, detection_threshold_dbm=-92.0, seed=seed)
    reference = _reference_rssi_survey(office_layout, -92.0, 1.0, seed)
    assert sorted(survey) == sorted(reference)
    for key, expected in reference.items():
        assert np.array_equal(survey[key], expected), key


class TestPairSelection:
    def test_short_links_have_high_delivery(self, office_layout):
        links = select_links(office_layout, "short", max_links=50)
        assert links
        assert all(l.measurement.delivery_rate_6mbps >= 0.94 for l in links)

    def test_long_links_in_band(self, office_layout):
        links = select_links(office_layout, "long", max_links=50)
        assert links
        assert all(0.80 <= l.measurement.delivery_rate_6mbps <= 0.95 for l in links)

    def test_long_links_weaker_than_short(self, office_layout):
        short = select_links(office_layout, "short", max_links=100)
        long_ = select_links(office_layout, "long", max_links=100)
        assert np.mean([l.measurement.snr_db for l in short]) > np.mean(
            [l.measurement.snr_db for l in long_]
        )

    def test_prefer_nearby_fraction_shortens_links(self, office_layout):
        all_links = select_links(office_layout, "long")
        near_links = select_links(office_layout, "long", prefer_nearby_fraction=0.3)
        assert np.mean([l.measurement.distance_m for l in near_links]) < np.mean(
            [l.measurement.distance_m for l in all_links]
        )

    def test_unknown_class_rejected(self, office_layout):
        with pytest.raises(ValueError):
            select_links(office_layout, "medium")

    def test_invalid_nearby_fraction_rejected(self, office_layout):
        with pytest.raises(ValueError):
            select_links(office_layout, "short", prefer_nearby_fraction=0.0)

    def test_competing_pairs_are_disjoint_and_sorted(self, office_layout):
        combos = select_competing_pairs(office_layout, "short", n_combinations=6, seed=2)
        assert 1 <= len(combos) <= 6
        rssi = [c.sender_sender_rssi_dbm for c in combos]
        assert rssi == sorted(rssi, reverse=True)
        for combo in combos:
            assert len(set(combo.node_ids)) == 4

    def test_competing_pairs_span_a_wide_rssi_range(self, office_layout):
        combos = select_competing_pairs(office_layout, "short", n_combinations=8, seed=2)
        rssi = [c.sender_sender_rssi_dbm for c in combos]
        assert max(rssi) - min(rssi) > 30.0

    def test_reproducible_selection(self, office_layout):
        a = select_competing_pairs(office_layout, "short", n_combinations=5, seed=9)
        b = select_competing_pairs(office_layout, "short", n_combinations=5, seed=9)
        assert [c.node_ids for c in a] == [c.node_ids for c in b]
