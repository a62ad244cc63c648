"""SNR -> bit/packet error rate models for the packet simulator.

The analytical model works directly with Shannon capacity, but the packet
simulator needs to decide whether each individual frame is received given its
SINR and bitrate.  We use standard AWGN bit-error-rate expressions for the
802.11a modulations, a simple hard-decision Viterbi coding-gain approximation,
and an independent-bit-error packet-error model.  The resulting per-rate PER
curves have the familiar waterfall shape: ~0 above the rate's minimum SNR and
~1 a few dB below it, which is all the reproduction's conclusions depend on
(the paper's own model is even coarser -- pure Shannon capacity).

The simulator evaluates the PER once per decoded frame, through the scalar
path.  Far from the waterfall the floating-point result is a constant --
exactly 0.0 above it and (for frames long enough) exactly 1.0 below it -- so
the scalar path memoises two *saturation edges* per (rate, payload): the
SNRs where the unchanged ``pow``/``erfc``/``log1p``/``exp`` chain stops
returning those constants, found by bisection and pushed 0.5 dB outward
(:data:`SATURATION_GUARD_DB`).  Outside the edges the constant is returned
after one compare; between them the chain runs exactly as before, so every
value is bit-identical to the array path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Tuple, Union

import numpy as np
from scipy.special import erfc

from .rates import RateInfo

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ber_bpsk",
    "ber_qpsk",
    "ber_mqam",
    "coded_ber",
    "raw_ber",
    "packet_error_rate",
    "packet_success_rate",
    "average_packet_success_rate",
]


def _q_function(x: ArrayLike) -> ArrayLike:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def ber_bpsk(snr_linear: ArrayLike) -> ArrayLike:
    """BPSK bit error rate versus per-bit SNR (AWGN)."""
    snr = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    return _q_function(np.sqrt(2.0 * snr))


def ber_qpsk(snr_linear: ArrayLike) -> ArrayLike:
    """QPSK bit error rate versus per-bit SNR (same as BPSK per bit)."""
    return ber_bpsk(snr_linear)


def ber_mqam(snr_linear: ArrayLike, m: int) -> ArrayLike:
    """Square M-QAM approximate bit error rate versus per-bit SNR."""
    if m < 4 or (m & (m - 1)) != 0:
        raise ValueError("M must be a power of two >= 4")
    k = math.log2(m)
    snr = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    arg = np.sqrt(3.0 * k * snr / (m - 1.0))
    return (4.0 / k) * (1.0 - 1.0 / math.sqrt(m)) * _q_function(arg)


_MODULATION_BITS = {
    "BPSK": 1,
    "DBPSK": 1,
    "QPSK": 2,
    "DQPSK": 2,
    "CCK": 4,
    "16-QAM": 4,
    "64-QAM": 6,
}


def raw_ber(snr_db: ArrayLike, rate: RateInfo) -> ArrayLike:
    """Uncoded bit error rate for the modulation of ``rate`` at the given SNR (dB).

    The SNR is the per-symbol SNR of the 20 MHz channel; it is converted to a
    per-bit SNR by dividing by the modulation's bits per symbol.
    """
    bits = _MODULATION_BITS.get(rate.modulation)
    if bits is None:
        raise KeyError(f"unknown modulation {rate.modulation!r}")
    snr_linear = np.power(10.0, np.asarray(snr_db, dtype=float) / 10.0) / bits
    if bits == 1:
        return ber_bpsk(snr_linear)
    if bits == 2:
        return ber_qpsk(snr_linear)
    if rate.modulation == "CCK":
        # Treat CCK roughly as QPSK with a 3 dB spreading gain.
        return ber_qpsk(2.0 * snr_linear)
    return ber_mqam(snr_linear, 2**bits)


#: Approximate coding gain (dB) of the 802.11a convolutional code at each rate.
_CODING_GAIN_DB = {1 / 2: 5.0, 2 / 3: 4.0, 3 / 4: 3.5, 1.0: 0.0}


def coded_ber(snr_db: ArrayLike, rate: RateInfo) -> ArrayLike:
    """Post-decoding bit error rate, approximating Viterbi decoding as an SNR gain."""
    gain = _CODING_GAIN_DB.get(rate.code_rate, 3.0)
    return raw_ber(np.asarray(snr_db, dtype=float) + gain, rate)


#: Width (dB) by which each bisected saturation edge is pushed outward before
#: the scalar path trusts it (see :func:`_saturation_edges_db`).
SATURATION_GUARD_DB = 0.5


def _packet_error_rate_chain(snr_db: float, rate: RateInfo, payload_bytes: int) -> float:
    """The full scalar PER computation, with no saturation shortcut.

    Bit-identical to the vectorized path on the same input: the
    transcendental steps that numpy evaluates with its own kernels
    (``power``, ``exp``, ``log1p``, ``erfc``) stay numpy/scipy scalar calls
    -- ``math``'s libm versions can differ in the last ulp -- while the
    pure-IEEE arithmetic (multiply, divide, ``sqrt``, min/max) runs as plain
    Python float ops.
    """
    bits_per_symbol = _MODULATION_BITS.get(rate.modulation)
    if bits_per_symbol is None:
        raise KeyError(f"unknown modulation {rate.modulation!r}")
    if snr_db != snr_db:  # NaN propagates exactly as through the array path
        return float("nan")
    gain = _CODING_GAIN_DB.get(rate.code_rate, 3.0)
    snr_linear = float(np.power(10.0, (snr_db + gain) / 10.0)) / bits_per_symbol
    if snr_linear < 0.0:
        snr_linear = 0.0
    if bits_per_symbol <= 2:
        ber = 0.5 * float(erfc(math.sqrt(2.0 * snr_linear) / math.sqrt(2.0)))
    elif rate.modulation == "CCK":
        ber = 0.5 * float(erfc(math.sqrt(2.0 * 2.0 * snr_linear) / math.sqrt(2.0)))
    else:
        m = 2**bits_per_symbol
        k = math.log2(m)
        arg = math.sqrt(3.0 * k * snr_linear / (m - 1.0))
        ber = (
            (4.0 / k)
            * (1.0 - 1.0 / math.sqrt(m))
            * (0.5 * float(erfc(arg / math.sqrt(2.0))))
        )
    if ber > 1.0:
        ber = 1.0
    per = 1.0 - float(np.exp(8 * payload_bytes * float(np.log1p(-min(ber, 1.0 - 1e-15)))))
    if per < 0.0:
        return 0.0
    if per > 1.0:
        return 1.0
    return per


def _bisect_edge_db(below_db: float, above_db: float, below_side: Callable[[float], bool]) -> float:
    """Last SNR on the ``below_side`` of a transition, to float resolution.

    ``below_side(below_db)`` must hold and ``below_side(above_db)`` must not.
    """
    while True:
        mid_db = 0.5 * (below_db + above_db)
        if mid_db in (below_db, above_db):
            return below_db
        if below_side(mid_db):
            below_db = mid_db
        else:
            above_db = mid_db


#: Bracket for the edge search; every rate/payload saturates well inside it.
_EDGE_SEARCH_DB = (-100.0, 200.0)


@lru_cache(maxsize=256)
def _saturation_edges_db(rate: RateInfo, payload_bytes: int) -> Tuple[float, float]:
    """``(low_db, high_db)``: the PER is exactly 1.0 at or below ``low_db``
    and exactly 0.0 at or above ``high_db``.

    Each edge is where the unchanged chain (:func:`_packet_error_rate_chain`)
    stops returning the saturated constant, found by bisection and then
    pushed outward by :data:`SATURATION_GUARD_DB`.  The guard is what makes
    the shortcut exact.  Over every rate and payloads 1..2304 bytes, 0.5 dB
    past the upper edge the bit error rate is at least 86x below the point
    where ``1 - exp(bits*log1p(-ber))`` first rounds to 0, and 0.5 dB below
    the lower edge the exponent ``bits*log1p(-ber)`` is at least 0.025%
    larger in magnitude than where ``1 - exp(...)`` first rounds to 1 (the
    tightest case is 10-byte frames at 24 Mbps) -- ~10^12 ulps, a margin no
    last-ulp behaviour of ``pow``/``erfc`` can cross.  An edge the curve
    never reaches (small payloads never round to a PER of exactly 1.0) is
    NaN, which no comparison selects.  Costs ~120 chain evaluations (under
    half a millisecond), once per (rate, payload).
    """
    def per(snr_db: float) -> float:
        return _packet_error_rate_chain(snr_db, rate, payload_bytes)

    bottom_db, top_db = _EDGE_SEARCH_DB
    per_bottom, per_top = per(bottom_db), per(top_db)
    low_db = high_db = math.nan
    # The chain clamps to [0, 1], so ">= 1.0" means "is 1.0" and "> 0.0"
    # means "is not 0.0".
    if per_bottom >= 1.0 and per_top < 1.0:
        low_db = _bisect_edge_db(bottom_db, top_db, lambda x: per(x) >= 1.0)
        low_db -= SATURATION_GUARD_DB
    if per_bottom > 0.0 and per_top <= 0.0:
        high_db = _bisect_edge_db(bottom_db, top_db, lambda x: per(x) > 0.0)
        high_db += SATURATION_GUARD_DB
    return low_db, high_db


def _packet_error_rate_scalar(snr_db: float, rate: RateInfo, payload_bytes: int) -> float:
    """Scalar PER, bit-identical to the vectorized path and to the full
    chain (pinned on every rate and at both guard edges by
    ``TestScalarFastPath`` in tests/test_capacity_rates_errors.py).

    Outside the saturation edges of :func:`_saturation_edges_db` the result
    is a provable constant and is returned after one compare; between them
    the full chain runs unchanged.  NaN fails both compares and reaches the
    chain, which propagates it; +/-inf land on the side the chain agrees
    with.  The packet simulator calls this once per decoded frame, and over
    half of those decodes are saturated.
    """
    low_db, high_db = _saturation_edges_db(rate, payload_bytes)
    if snr_db >= high_db:
        return 0.0
    if snr_db <= low_db:
        return 1.0
    return _packet_error_rate_chain(snr_db, rate, payload_bytes)


def packet_error_rate(snr_db: ArrayLike, rate: RateInfo, payload_bytes: int = 1400) -> ArrayLike:
    """Packet error rate assuming independent bit errors after decoding.

    Python/numpy float scalars take a dedicated fast path (see
    :func:`_packet_error_rate_scalar`) that returns the bit-identical value
    without any array machinery; array inputs vectorize as before.
    """
    if payload_bytes <= 0:
        raise ValueError("payload size must be positive")
    if isinstance(snr_db, (int, float)) and not isinstance(snr_db, bool):
        return _packet_error_rate_scalar(float(snr_db), rate, payload_bytes)
    ber = np.asarray(coded_ber(snr_db, rate), dtype=float)
    ber = np.clip(ber, 0.0, 1.0)
    bits = 8 * payload_bytes
    with np.errstate(invalid="ignore"):
        per = 1.0 - np.exp(bits * np.log1p(-np.minimum(ber, 1.0 - 1e-15)))
    per = np.clip(per, 0.0, 1.0)
    if np.ndim(snr_db) == 0:
        return float(per)
    return per


def packet_success_rate(snr_db: ArrayLike, rate: RateInfo, payload_bytes: int = 1400) -> ArrayLike:
    """Complement of :func:`packet_error_rate`."""
    return 1.0 - packet_error_rate(snr_db, rate, payload_bytes)


@lru_cache(maxsize=16)
def _gauss_hermite_rule(n_points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights, computed once per size.

    ``hermegauss`` solves an eigenvalue problem; the rule is a pure function
    of ``n_points``, so it is cached and handed out read-only.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def average_packet_success_rate(
    mean_snr_db: ArrayLike,
    rate: RateInfo,
    payload_bytes: int = 1400,
    sigma_db: float = 0.0,
    n_points: int = 33,
) -> ArrayLike:
    """Delivery rate averaged over Gaussian (dB) SNR variation around a mean.

    Real links measured over many seconds see the SNR wander (residual fading,
    people moving, hardware drift), which softens the otherwise knife-edge
    delivery-vs-SNR curve.  The long-run delivery rate is the expectation of
    the instantaneous success probability over that variation; this helper
    computes it by Gauss-Hermite quadrature over a normal dB perturbation with
    standard deviation ``sigma_db``.

    An array of mean SNRs gives an array of delivery rates, each equal to the
    scalar call on that element; a scalar gives a Python ``float``.
    """
    if not math.isfinite(sigma_db) or sigma_db < 0:
        raise ValueError("sigma must be finite and non-negative")
    if n_points < 1:
        raise ValueError("need at least one quadrature point")
    if sigma_db == 0.0:
        return packet_success_rate(mean_snr_db, rate, payload_bytes)
    nodes, weights = _gauss_hermite_rule(n_points)
    snr_values = np.asarray(mean_snr_db, dtype=float)[..., np.newaxis] + sigma_db * nodes
    success = np.asarray(packet_success_rate(snr_values, rate, payload_bytes))
    average = np.sum(weights * success, axis=-1) / np.sum(weights)
    if np.ndim(mean_snr_db) == 0:
        return float(average)
    return average
