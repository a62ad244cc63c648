"""The guard-banded CCA verdict equals the exact dB verdict.

``Radio.channel_busy`` decides in the linear domain outside a 1e-9 relative
band around the threshold and takes the logarithm only inside it.  These
properties pin it against the reference expression
``linear_to_db(sensed) > threshold`` for thresholds across the range the
experiments sweep, with sensed powers drawn both broadly and within a few
ulps of the threshold, where the linear and dB compares can disagree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.capacity.rates import rate_by_mbps
from repro.propagation.channel import ChannelModel
from repro.simulation.engine import Simulator
from repro.simulation.frames import Frame, FrameKind
from repro.simulation.medium import Medium, Transmission
from repro.simulation.radio import Radio
from repro.units import linear_to_db

# A noise floor far below every threshold drawn, so the sensed power can be
# steered onto any threshold by the frame power alone.
NOISE_FLOOR_DBM = -150.0

thresholds = st.floats(min_value=-100.0, max_value=-40.0)
ulp_offsets = st.integers(min_value=-64, max_value=64)
broad_powers = st.floats(min_value=-16.0, max_value=-2.0).map(lambda e: 10.0 ** e)


def finalized_radio(threshold_dbm):
    sim = Simulator()
    channel = ChannelModel(
        sigma_db=0.0, noise_floor_dbm=NOISE_FLOOR_DBM, rng=np.random.default_rng(0)
    )
    medium = Medium(sim, channel)
    radio = Radio(
        "a", sim, medium, cca_threshold_dbm=threshold_dbm, cca_noise_db=0.0,
        rng=np.random.default_rng(1),
    )
    medium.register("a", (0.0, 0.0), radio)
    medium.finalize()
    return radio


def frame_at(radio, power_mw):
    """Put one frame of ``power_mw`` on the radio's channel."""
    frame = Frame(FrameKind.DATA, "b", "*", 100, rate_by_mbps(6.0))
    tx = Transmission(frame=frame, src="b", start_time=0.0, end_time=1e-3)
    radio.incoming_started(tx, power_mw)
    return tx


def power_near(threshold_dbm, noise_floor_mw, ulps):
    """A frame power whose sensed total lies ``ulps`` ulps from the threshold."""
    base = np.float64(10.0 ** (threshold_dbm / 10.0) - noise_floor_mw)
    return float((base.view(np.int64) + ulps).view(np.float64))


def exact_verdict(radio, threshold_dbm):
    return float(linear_to_db(radio.sensed_power_mw())) > threshold_dbm


@settings(max_examples=300, deadline=None)
@given(threshold_dbm=thresholds, power_mw=broad_powers)
def test_broad_powers_match_exact_verdict(threshold_dbm, power_mw):
    radio = finalized_radio(threshold_dbm)
    frame_at(radio, power_mw)
    assert radio.channel_busy() == exact_verdict(radio, threshold_dbm)


@settings(max_examples=300, deadline=None)
@given(threshold_dbm=thresholds, ulps=ulp_offsets)
def test_powers_at_the_threshold_match_exact_verdict(threshold_dbm, ulps):
    radio = finalized_radio(threshold_dbm)
    frame_at(radio, power_near(threshold_dbm, radio._noise_floor_mw, ulps))
    sensed_mw = radio.sensed_power_mw()
    # The draw really lands inside the guard band, where the dB compare decides.
    assert radio._cca_idle_max_mw < sensed_mw <= radio._cca_busy_min_mw
    assert radio.channel_busy() == exact_verdict(radio, threshold_dbm)


@settings(max_examples=100, deadline=None)
@given(power_mw=broad_powers)
def test_carrier_sense_off_is_always_idle(power_mw):
    radio = finalized_radio(None)
    frame_at(radio, power_mw)
    assert not radio.channel_busy()
    assert radio.medium._cca_edge_mw[radio._slot] == np.inf


@settings(max_examples=200, deadline=None)
@given(
    first_dbm=st.one_of(st.none(), thresholds),
    second_dbm=st.one_of(st.none(), thresholds),
    ulps=ulp_offsets,
)
def test_mid_run_threshold_change_refreshes_the_band(first_dbm, second_dbm, ulps):
    radio = finalized_radio(first_dbm)
    target_dbm = second_dbm if second_dbm is not None else -70.0
    tx = frame_at(radio, power_near(target_dbm, radio._noise_floor_mw, ulps))
    radio.cca_threshold_dbm = second_dbm
    if second_dbm is None:
        assert not radio.channel_busy()
    else:
        assert radio.channel_busy() == exact_verdict(radio, second_dbm)
    # The medium's mirror follows the new band on the side of the last verdict.
    slot = radio._slot
    assert radio.medium._cca_edge_mw[slot] == radio._cca_edge_mw()
    radio.incoming_ended(tx)
    assert not radio.channel_busy()
    assert radio.medium._busy_mirror[slot] == radio._was_busy
