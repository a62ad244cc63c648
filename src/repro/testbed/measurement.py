"""Link probing: RSSI and delivery-rate measurements.

Section 4 classifies sender-receiver pairs by their packet delivery rate at
6 Mbps and plots results against the RSSI measured between the two senders.
The appendix (Figure 14) additionally measures RSSI between *all* node pairs
(at 2.4 GHz with 1 Mbps probes) and fits the propagation model to it.

This module provides those measurements on the synthetic testbed.  Delivery
probing uses the PHY error model directly (equivalent to sending a large
number of probe frames on an otherwise idle channel); RSSI probing reads the
channel's link budget, optionally adding measurement noise.

Probing a whole layout is one matrix pass: the clamped distance matrix and
the channel's rx-power matrix are built once, and the delivery model is
evaluated per sender row.  Every entry equals what :func:`measure_link`
reports for that pair, and any shadowing the channel has not drawn yet is
drawn in the order the per-link loop would draw it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..capacity.error_models import average_packet_success_rate
from ..capacity.rates import RateInfo, rate_by_mbps
from ..constants import EXPERIMENT_PAYLOAD_BYTES
from .layout import TestbedLayout

#: Slow channel variation (dB) assumed when probing long-run delivery rates.
#: Over a multi-second measurement the indoor channel wanders (people moving,
#: residual fading, hardware drift); this is what softens the delivery-vs-SNR
#: curve enough that the paper's 94 % / 80-95 % delivery classes correspond to
#: the ~27 dB / ~16 dB average SNR figures it quotes.
DEFAULT_PROBE_VARIATION_DB = 8.0

__all__ = ["LinkMeasurement", "measure_link", "measure_all_links", "rssi_survey"]


@dataclass(frozen=True)
class LinkMeasurement:
    """Probing results for one directed link."""

    src: str
    dst: str
    distance_m: float
    rssi_dbm: float
    snr_db: float
    delivery_rate_6mbps: float

    def in_delivery_band(self, low: float, high: float = 1.0) -> bool:
        """Whether the link's 6 Mbps delivery rate falls within [low, high]."""
        return low <= self.delivery_rate_6mbps <= high


def measure_link(
    layout: TestbedLayout,
    src: str,
    dst: str,
    probe_rate: Optional[RateInfo] = None,
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES,
    probe_variation_db: float = DEFAULT_PROBE_VARIATION_DB,
) -> LinkMeasurement:
    """Probe one link on an otherwise idle channel.

    The delivery rate is the long-run average over slow channel variation of
    ``probe_variation_db`` around the link's mean SNR (see
    :data:`DEFAULT_PROBE_VARIATION_DB`).
    """
    if src == dst:
        raise ValueError(f"cannot probe a link from {src!r} to itself")
    if probe_rate is None:
        probe_rate = rate_by_mbps(6.0)
    distance = max(layout.distance(src, dst), 1.0)
    budget = layout.channel.link_budget(src, dst, distance)
    snr_db = budget.snr_db
    delivery = average_packet_success_rate(
        snr_db, probe_rate, payload_bytes, sigma_db=probe_variation_db
    )
    return LinkMeasurement(
        src=src,
        dst=dst,
        distance_m=distance,
        rssi_dbm=budget.rx_power_dbm,
        snr_db=snr_db,
        delivery_rate_6mbps=delivery,
    )


def _probe_matrices(layout: TestbedLayout) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Node ids, clamped distance matrix and rx-power matrix (dBm) of a layout.

    Distances are clamped to 1 m as in :func:`measure_link`; missing
    shadowing values are drawn in ``(i, j), i < j`` row-major order, the order
    a per-pair loop over the layout meets them.
    """
    ids = layout.node_ids
    distance = np.maximum(layout.distance_matrix(), 1.0)
    return ids, distance, layout.channel.rx_power_matrix(ids, distance)


def measure_all_links(
    layout: TestbedLayout,
    probe_rate: Optional[RateInfo] = None,
    payload_bytes: int = EXPERIMENT_PAYLOAD_BYTES,
) -> List[LinkMeasurement]:
    """Probe every ordered node pair in the testbed, in ``(src, dst)`` order.

    The result equals calling :func:`measure_link` on each pair in turn, and
    leaves the channel's shadowing cache and RNG in the same state.
    """
    if probe_rate is None:
        probe_rate = rate_by_mbps(6.0)
    ids, distance, rx_dbm = _probe_matrices(layout)
    snr_db = rx_dbm - layout.channel.noise_floor_dbm
    distance_m, rssi_dbm, link_snr_db = distance.tolist(), rx_dbm.tolist(), snr_db.tolist()
    measurements: List[LinkMeasurement] = []
    for i, src in enumerate(ids):
        others = [j for j in range(len(ids)) if j != i]
        delivery = average_packet_success_rate(
            snr_db[i, others], probe_rate, payload_bytes, sigma_db=DEFAULT_PROBE_VARIATION_DB
        )
        measurements.extend(
            LinkMeasurement(
                src, ids[j], distance_m[i][j], rssi_dbm[i][j], link_snr_db[i][j], rate
            )
            for j, rate in zip(others, delivery.tolist())
        )
    return measurements


def rssi_survey(
    layout: TestbedLayout,
    detection_threshold_dbm: float = -92.0,
    measurement_noise_db: float = 1.0,
    seed: int = 0,
) -> Dict[str, np.ndarray]:
    """All-pairs RSSI survey in the style of the Figure 14 dataset.

    Each unordered pair ``(i, j), i < j`` is surveyed once, in row-major
    order, with its own Gaussian measurement-noise draw.  Returns arrays of
    distances and SNRs for *detected* links plus the distances of censored
    (undetected) links, ready to feed into
    :func:`repro.propagation.fitting.fit_path_loss_shadowing`.
    """
    rng = np.random.default_rng(seed)
    ids, distance, rx_dbm = _probe_matrices(layout)
    noise_floor = layout.channel.noise_floor_dbm
    iu, ju = np.triu_indices(len(ids), k=1)
    pair_distance = distance[iu, ju]
    rssi = rx_dbm[iu, ju] + rng.normal(0.0, measurement_noise_db, size=iu.size)
    detected = rssi >= detection_threshold_dbm
    return {
        "distances": pair_distance[detected],
        "snr_db": rssi[detected] - noise_floor,
        "censored_distances": pair_distance[~detected],
        "detection_threshold_snr_db": np.asarray(detection_threshold_dbm - noise_floor),
    }
