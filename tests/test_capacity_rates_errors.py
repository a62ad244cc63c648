"""Tests for the 802.11 rate tables, frame timing, and error models."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.capacity.error_models import (
    SATURATION_GUARD_DB,
    _gauss_hermite_rule,
    _packet_error_rate_chain,
    _packet_error_rate_scalar,
    _saturation_edges_db,
    average_packet_success_rate,
    ber_bpsk,
    ber_mqam,
    coded_ber,
    packet_error_rate,
    packet_success_rate,
    raw_ber,
)
from repro.capacity.rates import (
    DSSS_RATES,
    EXPERIMENT_RATE_SET,
    OFDM_RATES,
    RateInfo,
    ack_airtime_s,
    frame_airtime_s,
    ofdm_rate_set,
    rate_by_mbps,
)


class TestRateTable:
    def test_all_802_11a_rates_present(self):
        assert [r.mbps for r in OFDM_RATES] == [6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0]

    def test_experiment_rate_set_matches_paper(self):
        assert [r.mbps for r in EXPERIMENT_RATE_SET] == [6.0, 9.0, 12.0, 18.0, 24.0]

    def test_bits_per_symbol_consistent_with_rate(self):
        for rate in OFDM_RATES:
            # 4 microsecond OFDM symbols: data bits per symbol = Mbps * 4.
            assert rate.bits_per_symbol == pytest.approx(rate.mbps * 4.0)

    def test_min_snr_increases_with_rate(self):
        snrs = [r.min_snr_db for r in OFDM_RATES]
        assert snrs == sorted(snrs)

    def test_lookup_by_mbps(self):
        assert rate_by_mbps(24.0).modulation == "16-QAM"
        with pytest.raises(KeyError):
            rate_by_mbps(7.0)

    def test_ofdm_rate_set_sorted(self):
        rates = ofdm_rate_set([24.0, 6.0, 12.0])
        assert [r.mbps for r in rates] == [6.0, 12.0, 24.0]


class TestFrameTiming:
    def test_1400_byte_frame_at_6mbps(self):
        airtime = frame_airtime_s(1400, rate_by_mbps(6.0))
        # 1434 bytes + tail at 6 Mbps is roughly 1.9 ms plus a 20 us preamble.
        assert airtime == pytest.approx(1.936e-3, rel=0.02)

    def test_1400_byte_frame_at_24mbps(self):
        assert frame_airtime_s(1400, rate_by_mbps(24.0)) == pytest.approx(500e-6, rel=0.02)

    def test_airtime_decreases_with_rate(self):
        airtimes = [frame_airtime_s(1400, r) for r in OFDM_RATES]
        assert airtimes == sorted(airtimes, reverse=True)

    def test_ack_much_shorter_than_data(self):
        assert ack_airtime_s(rate_by_mbps(6.0)) < 0.1 * frame_airtime_s(1400, rate_by_mbps(6.0))

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_airtime_s(-1, rate_by_mbps(6.0))

    @given(st.integers(min_value=0, max_value=2304), st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_airtime_monotone_in_payload(self, payload, mbps):
        rate = rate_by_mbps(mbps)
        assert frame_airtime_s(payload + 100, rate) >= frame_airtime_s(payload, rate)


class TestErrorModels:
    def test_bpsk_ber_at_reference_point(self):
        # Q(sqrt(2 * 10)) for 10 dB per-bit SNR is about 3.9e-6.
        assert ber_bpsk(10.0) == pytest.approx(3.87e-6, rel=0.05)

    def test_mqam_requires_power_of_two(self):
        with pytest.raises(ValueError):
            ber_mqam(1.0, 5)

    def test_coded_better_than_uncoded(self):
        rate = rate_by_mbps(12.0)
        assert coded_ber(8.0, rate) <= raw_ber(8.0, rate)

    @given(st.floats(min_value=-10.0, max_value=40.0), st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_per_is_a_probability(self, snr_db, mbps):
        per = packet_error_rate(snr_db, rate_by_mbps(mbps))
        assert 0.0 <= per <= 1.0

    @given(st.sampled_from([6.0, 12.0, 24.0, 54.0]))
    def test_per_monotone_decreasing_in_snr(self, mbps):
        rate = rate_by_mbps(mbps)
        snrs = np.linspace(-5.0, 40.0, 40)
        pers = np.asarray(packet_error_rate(snrs, rate))
        assert np.all(np.diff(pers) <= 1e-12)

    def test_waterfall_shape(self):
        rate = rate_by_mbps(24.0)
        assert packet_error_rate(rate.min_snr_db + 6.0, rate) < 0.01
        assert packet_error_rate(rate.min_snr_db - 8.0, rate) > 0.99

    def test_higher_rates_need_more_snr(self):
        snr = 10.0
        assert packet_success_rate(snr, rate_by_mbps(6.0)) > packet_success_rate(
            snr, rate_by_mbps(54.0)
        )

    def test_longer_packets_fail_more(self):
        rate = rate_by_mbps(12.0)
        snr = rate.min_snr_db
        assert packet_error_rate(snr, rate, 1400) >= packet_error_rate(snr, rate, 100)

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            packet_error_rate(10.0, rate_by_mbps(6.0), payload_bytes=0)


class TestAveragePacketSuccess:
    def test_zero_sigma_matches_instantaneous(self):
        rate = rate_by_mbps(6.0)
        assert average_packet_success_rate(10.0, rate, sigma_db=0.0) == pytest.approx(
            float(packet_success_rate(10.0, rate))
        )

    def test_variation_softens_the_waterfall(self):
        rate = rate_by_mbps(6.0)
        # Well below threshold the variation can only help; well above it hurts.
        below = rate.min_snr_db - 6.0
        above = rate.min_snr_db + 10.0
        assert average_packet_success_rate(below, rate, sigma_db=8.0) > float(
            packet_success_rate(below, rate)
        )
        assert average_packet_success_rate(above, rate, sigma_db=8.0) < float(
            packet_success_rate(above, rate)
        )

    def test_monotone_in_mean_snr(self):
        rate = rate_by_mbps(6.0)
        values = [
            average_packet_success_rate(snr, rate, sigma_db=8.0) for snr in (0.0, 10.0, 20.0, 30.0)
        ]
        assert values == sorted(values)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            average_packet_success_rate(10.0, rate_by_mbps(6.0), sigma_db=-1.0)

    @pytest.mark.parametrize("sigma_db", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma_db):
        with pytest.raises(ValueError):
            average_packet_success_rate(10.0, rate_by_mbps(6.0), sigma_db=sigma_db)

    @pytest.mark.parametrize("n_points", [0, -3])
    def test_too_few_quadrature_points_rejected(self, n_points):
        with pytest.raises(ValueError):
            average_packet_success_rate(10.0, rate_by_mbps(6.0), sigma_db=8.0, n_points=n_points)

    @given(
        snrs=st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=40),
        sigma_db=st.one_of(st.just(0.0), st.floats(0.0, 12.0)),
        rate=st.sampled_from(OFDM_RATES),
        payload=st.sampled_from([1, 100, 1400]),
    )
    def test_array_form_equals_scalar_calls(self, snrs, sigma_db, rate, payload):
        batched = average_packet_success_rate(
            np.asarray(snrs), rate, payload, sigma_db=sigma_db
        )
        assert isinstance(batched, np.ndarray) and batched.shape == (len(snrs),)
        for snr, value in zip(snrs, batched.tolist()):
            scalar = average_packet_success_rate(snr, rate, payload, sigma_db=sigma_db)
            assert isinstance(scalar, float)
            assert scalar == value, (snr, sigma_db, rate.mbps, payload)

    def test_array_form_keeps_the_input_shape(self):
        snrs = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        rate = rate_by_mbps(6.0)
        batched = average_packet_success_rate(snrs, rate, sigma_db=8.0)
        assert batched.shape == (3, 4)
        assert batched[2, 1] == average_packet_success_rate(float(snrs[2, 1]), rate, sigma_db=8.0)

    def test_quadrature_rule_is_memoised_and_read_only(self):
        nodes, weights = _gauss_hermite_rule(33)
        assert _gauss_hermite_rule(33)[0] is nodes
        expected_nodes, expected_weights = np.polynomial.hermite_e.hermegauss(33)
        assert np.array_equal(nodes, expected_nodes)
        assert np.array_equal(weights, expected_weights)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0


ALL_RATES = OFDM_RATES + DSSS_RATES
PIN_PAYLOADS = (1, 14, 100, 1400, 2304)


def _ulp_walk(center: float, ulps: int = 64) -> list:
    """``center`` and the ``ulps`` representable doubles either side of it."""
    points = [center]
    below = above = center
    for _ in range(ulps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        points += [below, above]
    return points


def _pin_points(rate: RateInfo, payload: int) -> np.ndarray:
    """A 0.05 dB grid, +/-64 ulps around both guard edges and around the raw
    transitions they were widened from, and +/-inf / NaN."""
    points = np.linspace(-40.0, 60.0, 2001).tolist() + [math.inf, -math.inf, math.nan]
    low_db, high_db = _saturation_edges_db(rate, payload)
    points += _ulp_walk(high_db) + _ulp_walk(high_db - SATURATION_GUARD_DB)
    if not math.isnan(low_db):
        points += _ulp_walk(low_db) + _ulp_walk(low_db + SATURATION_GUARD_DB)
    return np.asarray(points)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestScalarFastPath:
    """The float fast path of packet_error_rate is bit-identical to the
    vectorized path, and its saturation shortcut to the full chain (the
    per-frame decode must never change a single result)."""

    def _vectorized_reference(self, snr_db, rate, payload_bytes):
        # Route through the array path by wrapping in a 1-element array.
        return float(
            packet_error_rate(np.asarray([snr_db]), rate, payload_bytes)[0]
        )

    def test_bit_identical_across_rates_and_payloads(self):
        snrs = np.linspace(-30.0, 50.0, 2001)
        for rate in OFDM_RATES:
            for payload in (1, 100, 1400):
                vec = packet_error_rate(np.asarray(snrs), rate, payload)
                for i, snr in enumerate(snrs.tolist()):
                    assert packet_error_rate(snr, rate, payload) == vec[i], (
                        f"{rate.mbps} Mbps, payload {payload}, snr {snr}"
                    )

    def test_scalar_edge_cases(self):
        rate = rate_by_mbps(6.0)
        assert packet_error_rate(float("-inf"), rate) == self._vectorized_reference(
            float("-inf"), rate, 1400
        )
        assert packet_error_rate(float("inf"), rate) == self._vectorized_reference(
            float("inf"), rate, 1400
        )
        assert math.isnan(packet_error_rate(float("nan"), rate))
        # int and numpy scalar inputs keep returning plain floats
        assert isinstance(packet_error_rate(10, rate), float)
        assert isinstance(packet_error_rate(np.float64(10.0), rate), float)
        assert packet_error_rate(10, rate) == packet_error_rate(10.0, rate)

    def test_invalid_payload_still_rejected(self):
        with pytest.raises(ValueError):
            packet_error_rate(10.0, rate_by_mbps(6.0), payload_bytes=0)

    @pytest.mark.parametrize("rate", ALL_RATES, ids=lambda rate: f"{rate.mbps:g}Mbps")
    def test_scalar_equals_array_and_full_chain_at_edges(self, rate):
        assert len(ALL_RATES) == 12
        for payload in PIN_PAYLOADS:
            snrs = _pin_points(rate, payload)
            per_array = packet_error_rate(snrs, rate, payload)
            psr_array = packet_success_rate(snrs, rate, payload)
            for i, snr in enumerate(snrs.tolist()):
                per = packet_error_rate(snr, rate, payload)
                where = f"{rate.mbps} Mbps, {payload} B, snr {snr!r}"
                assert type(per) is float, where
                assert _same(per, float(per_array[i])), where
                assert _same(packet_success_rate(snr, rate, payload), float(psr_array[i])), where
                assert _same(per, _packet_error_rate_chain(snr, rate, payload)), where

    @pytest.mark.parametrize("payload", PIN_PAYLOADS)
    def test_edges_bound_the_saturated_constants(self, payload):
        for rate in ALL_RATES:
            low_db, high_db = _saturation_edges_db(rate, payload)
            assert _packet_error_rate_chain(high_db, rate, payload) == 0.0
            assert _packet_error_rate_chain(math.inf, rate, payload) == 0.0
            floor_per = _packet_error_rate_chain(-math.inf, rate, payload)
            if math.isnan(low_db):
                # No lower edge exactly when the curve never rounds to 1.0.
                assert floor_per < 1.0
                assert _packet_error_rate_scalar(-math.inf, rate, payload) == floor_per
            else:
                assert low_db < high_db
                assert floor_per == 1.0
                assert _packet_error_rate_chain(low_db, rate, payload) == 1.0

    def test_edges_are_memoised(self):
        rate = OFDM_RATES[0]
        assert _saturation_edges_db(rate, 1400) is _saturation_edges_db(rate, 1400)

    def test_unknown_modulation_still_raises(self):
        bogus = RateInfo(7.0, "OOK", 1 / 2, 28, 6.0)
        with pytest.raises(KeyError):
            packet_error_rate(10.0, bogus)

    def test_success_rate_complement_uses_fast_path_value(self):
        rate = rate_by_mbps(24.0)
        snr = rate.min_snr_db + 1.0
        assert packet_success_rate(snr, rate) == 1.0 - packet_error_rate(snr, rate)
