"""Radio model: carrier sense, transmission, and frame reception.

Each node owns one :class:`Radio`.  The radio keeps track of every
transmission currently arriving at it (with its received power), which gives
it the two capabilities the MAC needs:

* **clear channel assessment (CCA)** -- the total in-band power compared to a
  configurable threshold (``cca_threshold_dbm``); setting the threshold to
  ``None`` disables carrier sense entirely, which is how the Section 4
  "concurrency" runs were taken;
* **reception** -- the radio locks onto the first detectable frame that
  starts while it is unlocked and not transmitting, accumulates the worst-case
  interference seen during the frame, and asks the :class:`ReceptionModel`
  for a verdict when the frame ends.

The total sensed and interfering powers are maintained *incrementally* (one
add per frame start, one subtract per frame end) rather than re-summed on
every CCA query, so carrier sense stays O(1) no matter how many frames
overlap.  Incremental float sums drift, so the radio re-derives both
accumulators exactly from the per-frame dicts whenever the channel empties
and, as a backstop, every ``RESYNC_INTERVAL`` mutations.

Under the medium's neighbourhood pruning the radio only receives per-frame
notifications for transmissions above the detectability floor; the summed
power of everything below it arrives through the medium's vectorized active
sub-floor array (``Medium.subfloor_noise_mw``), which the radio folds into
every CCA and SINR computation so totals match the unpruned path.

Hot-path layout: the class uses ``__slots__``, the medium hands each
notification the link's received power in *both* milliwatts and dBm (the dBm
value comes from a table precomputed at finalisation, so the per-frame path
never converts units), and each notification reads the sub-floor power and
writes the medium's mirrors inline -- the busy mirror only when the verdict
flips.  CCA verdicts are linear compares against a guard band of
``CCA_GUARD_BAND`` relative width either side of the threshold, whose edges
the ``cca_threshold_dbm`` setter precomputes; only sensed power inside the
band pays the exact ``_lin_to_db_scalar(sensed) > threshold`` compare, so
every verdict equals the dB one.  :func:`_lin_to_db_scalar` (also used for
SINR at decode time) is a lean scalar equivalent of
:func:`repro.units.linear_to_db` that skips the array coercion and errstate
machinery while producing bit-identical values for positive inputs.

State-change notifications (channel busy/idle, frame received, transmission
finished) are delivered to the owning MAC through callback attributes, which
the MAC sets when it attaches.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

import numpy as np

from .engine import Simulator
from .frames import Frame
from .medium import Medium, Transmission
from .phy import ReceptionModel, ReceptionOutcome

__all__ = ["Radio", "RadioStats", "RESYNC_INTERVAL"]

#: Mutations (frame starts + ends) between exact accumulator resyncs.
RESYNC_INTERVAL: int = 1024

#: Relative half-width of the guard band around the linear CCA threshold.
#: The threshold's dBm -> mW conversion and ``np.log10`` round at ~1e-15
#: relative, far inside the band, so linear verdicts outside it are exact.
CCA_GUARD_BAND: float = 1e-9

_np_log10 = np.log10


def _lin_to_db_scalar(value_mw: float) -> float:
    """``float(linear_to_db(x))`` for strictly positive scalars, minus the
    array/errstate overhead (verified bit-identical for positive inputs)."""
    return 10.0 * float(_np_log10(value_mw))


def _default_rng(node_id: Hashable) -> np.random.Generator:
    """Deterministic fallback generator, seeded from the node id.

    Callers that care about the global random stream (the scenario layer, the
    network builder) pass an ``rng`` seeded from the scenario seed; a bare
    ``Radio(...)`` must still be reproducible run-to-run, so the fallback
    seeds from a stable hash of the node id instead of OS entropy.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=zlib.crc32(repr(node_id).encode("utf-8")))
    )


@dataclass(slots=True)
class RadioStats:
    """Low-level radio counters.

    Under a pruning medium, ``frames_missed_while_busy`` and the busy
    fraction derived from ``incoming_count`` only see above-floor frames.
    """

    frames_transmitted: int = 0
    tx_airtime_s: float = 0.0
    frames_decoded: int = 0
    frames_failed: int = 0
    frames_missed_while_busy: int = 0
    receptions_aborted_by_tx: int = 0


class Radio:
    """A half-duplex radio attached to the shared medium."""

    __slots__ = (
        "node_id",
        "sim",
        "medium",
        "reception",
        "_slot",
        "_cca_threshold_dbm",
        "_cca_idle_max_mw",
        "_cca_busy_min_mw",
        "cca_noise_db",
        "rng",
        "stats",
        "_noise_floor_mw",
        "_incoming_power_mw",
        "_incoming_cca_power_mw",
        "_rx_sum_mw",
        "_cca_sum_mw",
        "_mutations_since_resync",
        "_transmitting",
        "_locked",
        "_locked_power_mw",
        "_locked_power_dbm",
        "_locked_max_interference_local_mw",
        "on_channel_busy",
        "on_channel_idle",
        "on_frame_received",
        "on_transmit_complete",
        "_was_busy",
        "_busy_accum_s",
        "_busy_since",
    )

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        medium: Medium,
        reception: Optional[ReceptionModel] = None,
        cca_threshold_dbm: Optional[float] = -82.0,
        cca_noise_db: float = 2.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.medium = medium
        self.reception = reception if reception is not None else ReceptionModel()
        #: Index into the medium's vectorized per-radio state; assigned when
        #: the medium finalises the topology.
        self._slot: Optional[int] = None
        if not math.isfinite(cca_noise_db) or cca_noise_db < 0:
            raise ValueError("cca_noise_db must be finite and non-negative")
        self.cca_threshold_dbm = cca_threshold_dbm
        # Per-frame measurement noise on the sensed power.  Real clear-channel
        # assessment is a noisy estimate, which is what makes marginal senders
        # "flutter" between deferring and transmitting -- a behaviour the paper
        # observes in its long-range experiments (Section 4.2).
        self.cca_noise_db = cca_noise_db
        self.rng = rng if rng is not None else _default_rng(node_id)
        self.stats = RadioStats()
        # The channel noise floor is immutable over a run; cache the linear
        # value so CCA queries avoid a dB conversion per call.
        self._noise_floor_mw = float(medium.noise_floor_mw)

        self._incoming_power_mw: Dict[int, float] = {}
        self._incoming_cca_power_mw: Dict[int, float] = {}
        # Incremental accumulators over the two dicts above.
        self._rx_sum_mw = 0.0
        self._cca_sum_mw = 0.0
        self._mutations_since_resync = 0
        self._transmitting: Optional[Transmission] = None
        self._locked: Optional[Transmission] = None
        self._locked_power_mw: float = 0.0
        self._locked_power_dbm: float = -np.inf
        # Holds the locked frame's worst-case interference until the medium
        # finalises and hands out a slot (standalone radios never get one).
        self._locked_max_interference_local_mw: float = 0.0

        # Callbacks wired up by the MAC.
        self.on_channel_busy: Callable[[], None] = lambda: None
        self.on_channel_idle: Callable[[], None] = lambda: None
        self.on_frame_received: Callable[[ReceptionOutcome], None] = lambda outcome: None
        self.on_transmit_complete: Callable[[Frame], None] = lambda frame: None

        self._was_busy = False
        # Deterministic busy-time ledger, maintained on the busy/idle
        # transitions the radio already detects.  Observation probes read it
        # to report sensed-busy fractions without polling the channel.
        self._busy_accum_s = 0.0
        self._busy_since = 0.0

    # -- medium wiring -------------------------------------------------------------

    def _attach_slot(self, slot: int) -> None:
        """Called by the medium's finalize(): bind this radio to a state slot."""
        self._slot = slot
        self.medium._above_sum_mw[slot] = self._rx_sum_mw
        self.medium._locked_mask[slot] = self._locked is not None
        self.medium._locked_power_mw[slot] = self._locked_power_mw
        self.medium._cca_live_mw[slot] = self._cca_sum_mw
        self.medium._busy_mirror[slot] = self._was_busy
        self.medium._cca_edge_mw[slot] = self._cca_edge_mw()
        if self._locked is not None:
            self.medium._locked_max_interference_mw[slot] = (
                self._locked_max_interference_local_mw
            )

    @property
    def subfloor_noise_mw(self) -> float:
        """Active power from senders pruned out of per-frame notifications."""
        if self._slot is None:
            return 0.0
        return float(self.medium._subfloor_active_mw[self._slot])

    # -- carrier sense ------------------------------------------------------------

    @property
    def cca_threshold_dbm(self) -> Optional[float]:
        """CCA busy threshold (dBm); ``None`` disables carrier sense.

        A property so that mid-run threshold changes (tuned/adaptive CCA
        experiments) also refresh the linear guard band of
        :meth:`channel_busy` and its mirror in the medium, used by the
        vectorized sub-floor busy-edge check.
        """
        return self._cca_threshold_dbm

    @cca_threshold_dbm.setter
    def cca_threshold_dbm(self, value: Optional[float]) -> None:
        if value is not None and value != value:
            raise ValueError("cca_threshold_dbm must not be NaN (None disables carrier sense)")
        self._cca_threshold_dbm = value
        # Carrier sense off: both edges are +inf, so every verdict is idle.
        threshold_mw = np.inf if value is None else float(10.0 ** (value / 10.0))
        self._cca_idle_max_mw = threshold_mw * (1.0 - CCA_GUARD_BAND)
        self._cca_busy_min_mw = threshold_mw * (1.0 + CCA_GUARD_BAND)
        if self._slot is not None:
            self.medium._cca_edge_mw[self._slot] = self._cca_edge_mw()

    def _cca_edge_mw(self) -> float:
        """The guard-band edge sensed power must pass to flip the last verdict
        (the medium mirrors it for the vectorized sub-floor busy-edge check)."""
        return self._cca_busy_min_mw if self._was_busy else self._cca_idle_max_mw

    @property
    def carrier_sense_enabled(self) -> bool:
        return self._cca_threshold_dbm is not None

    @property
    def incoming_count(self) -> int:
        return len(self._incoming_power_mw)

    def sensed_power_mw(self) -> float:
        """Total power the CCA circuit estimates (includes measurement noise)."""
        return self._cca_sum_mw + self.subfloor_noise_mw + self._noise_floor_mw

    def sensed_power_dbm(self) -> float:
        return _lin_to_db_scalar(self.sensed_power_mw())

    def resync_power_accumulators(self) -> None:
        """Re-derive the incremental power sums exactly from the frame dicts."""
        self._rx_sum_mw = sum(self._incoming_power_mw.values())
        self._cca_sum_mw = sum(self._incoming_cca_power_mw.values())
        self._mutations_since_resync = 0
        if self._slot is not None:
            self.medium._above_sum_mw[self._slot] = self._rx_sum_mw
            self.medium._cca_live_mw[self._slot] = self._cca_sum_mw

    def channel_busy(self) -> bool:
        """CCA verdict: busy when sensed power exceeds the threshold.

        With carrier sense disabled the channel always appears idle, and a
        radio never considers the channel busy because of its *own*
        transmission (the MAC already knows when it is transmitting).  The
        verdict equals ``sensed_power_dbm() > cca_threshold_dbm`` exactly;
        the logarithm is only taken inside the guard band.
        """
        slot = self._slot
        subfloor_mw = 0.0 if slot is None else float(self.medium._subfloor_active_mw[slot])
        if not self._incoming_cca_power_mw and subfloor_mw == 0.0:
            return False
        sensed_mw = self._cca_sum_mw + subfloor_mw + self._noise_floor_mw
        if sensed_mw <= self._cca_idle_max_mw:
            return False
        if sensed_mw > self._cca_busy_min_mw:
            return True
        return _lin_to_db_scalar(sensed_mw) > self._cca_threshold_dbm

    def _update_busy_state(self) -> None:
        busy = self.channel_busy()
        if busy != self._was_busy:
            self._was_busy = busy
            slot = self._slot
            if slot is not None:
                self.medium._busy_mirror[slot] = busy
                self.medium._cca_edge_mw[slot] = self._cca_edge_mw()
            if busy:
                self._busy_since = self.sim.now
                self.on_channel_busy()
            else:
                self._busy_accum_s += self.sim.now - self._busy_since
                self.on_channel_idle()

    def sensed_busy_time_s(self, now: float) -> float:
        """Total time the CCA circuit has reported busy, up to ``now``.

        ``now`` must be the caller's current simulation time; an in-progress
        busy period is counted up to it.  The ledger only advances on the
        busy/idle edges the radio already evaluates, so between frame edges
        (e.g. after a mid-run threshold change) it reflects the last verdict
        -- exactly what the MAC itself believes.
        """
        if self._was_busy:
            return self._busy_accum_s + (now - self._busy_since)
        return self._busy_accum_s

    # -- transmission ---------------------------------------------------------------

    @property
    def is_transmitting(self) -> bool:
        return self._transmitting is not None

    def transmit(self, frame: Frame) -> Transmission:
        """Put a frame on the air.  Aborts any reception in progress."""
        if self._transmitting is not None:
            raise RuntimeError(f"radio {self.node_id!r} is already transmitting")
        if self._locked is not None:
            # Half-duplex: transmitting destroys the frame being received.
            self.stats.receptions_aborted_by_tx += 1
            self._unlock()
        tx = self.medium.start_transmission(self.node_id, frame)
        self._transmitting = tx
        self.stats.frames_transmitted += 1
        self.stats.tx_airtime_s += frame.airtime_s
        return tx

    def transmit_finished(self, tx: Transmission) -> None:
        """Called by the medium when this radio's own transmission ends."""
        if self._transmitting is not tx:
            return
        self._transmitting = None
        self.on_transmit_complete(tx.frame)

    # -- reception ------------------------------------------------------------------

    def _lock_onto(
        self,
        tx: Transmission,
        power_mw: float,
        power_dbm: Optional[float] = None,
        interference_mw: Optional[float] = None,
    ) -> None:
        """Lock onto ``tx``; ``interference_mw`` is its current interference
        (all other power), when the caller has already computed it."""
        self._locked = tx
        self._locked_power_mw = power_mw
        self._locked_power_dbm = (
            power_dbm if power_dbm is not None else _lin_to_db_scalar(power_mw)
        )
        if interference_mw is None:
            interference_mw = self._total_interference_excluding(tx.tx_id)
        if self._slot is None:
            self._locked_max_interference_local_mw = interference_mw
            return
        medium = self.medium
        medium._locked_mask[self._slot] = True
        medium._locked_power_mw[self._slot] = power_mw
        medium._locked_max_interference_mw[self._slot] = interference_mw

    def _unlock(self) -> None:
        self._locked = None
        if self._slot is not None:
            self.medium._locked_mask[self._slot] = False

    def _locked_max_interference(self) -> float:
        if self._slot is None:
            return self._locked_max_interference_local_mw
        return float(self.medium._locked_max_interference_mw[self._slot])

    def incoming_started(
        self, tx: Transmission, power_mw: float, power_dbm: Optional[float] = None
    ) -> None:
        """Called by the medium when a (detectable) transmission begins.

        ``power_dbm`` is the same received power in dBm; a finalised medium
        passes it from its precomputed per-link table, while direct callers
        (tests, unfinalised media) may omit it.
        """
        if power_dbm is None:
            power_dbm = _lin_to_db_scalar(power_mw)
        tx_id = tx.tx_id
        self._incoming_power_mw[tx_id] = power_mw
        cca_power_mw = power_mw
        if self.cca_noise_db > 0:
            cca_power_mw *= float(10.0 ** (self.cca_noise_db * self.rng.standard_normal() / 10.0))
        self._incoming_cca_power_mw[tx_id] = cca_power_mw
        # Commit the accumulators and their medium mirrors (a resync every
        # RESYNC_INTERVAL mutations re-derives both from the dicts).
        medium = self.medium
        slot = self._slot
        mutations = self._mutations_since_resync + 1
        if mutations >= RESYNC_INTERVAL:
            self.resync_power_accumulators()
        else:
            self._mutations_since_resync = mutations
            self._rx_sum_mw += power_mw
            self._cca_sum_mw += cca_power_mw
            if slot is not None:
                medium._above_sum_mw[slot] = self._rx_sum_mw
                medium._cca_live_mw[slot] = self._cca_sum_mw

        if self._transmitting is not None:
            self.stats.frames_missed_while_busy += 1
        elif self._locked is None:
            reception = self.reception
            if power_dbm >= reception.sensitivity_dbm:
                interference_mw = self._total_interference_excluding(tx_id)
                sinr_db = _lin_to_db_scalar(power_mw / (self._noise_floor_mw + interference_mw))
                if sinr_db >= reception.preamble_snr_threshold_db:
                    self._lock_onto(tx, power_mw, power_dbm, interference_mw)
        else:
            reception = self.reception
            if (
                power_dbm >= reception.sensitivity_dbm
                and power_dbm >= self._locked_power_dbm + reception.capture_margin_db
            ):
                # Physical-layer capture: the stronger frame steals the lock
                # and the frame being received so far is lost.  The displaced
                # frame still gets a (failed) reception outcome so link-level
                # failure accounting matches the radio counters.
                displaced = self._locked
                displaced_interference_mw = max(
                    self._locked_max_interference(),
                    self._total_interference_excluding(displaced.tx_id),
                )
                displaced_sinr_db = _lin_to_db_scalar(
                    self._locked_power_mw
                    / (self._noise_floor_mw + displaced_interference_mw)
                )
                self.stats.frames_failed += 1
                self._lock_onto(tx, power_mw, power_dbm)
                self.on_frame_received(
                    ReceptionOutcome(
                        frame=displaced.frame,
                        success=False,
                        sinr_db=displaced_sinr_db,
                        success_probability=0.0,
                    )
                )
            else:
                # Track the locked frame's worst-case interference.
                interference_mw = (
                    self._rx_sum_mw - self._incoming_power_mw[self._locked.tx_id]
                )
                if slot is None:
                    if interference_mw > self._locked_max_interference_local_mw:
                        self._locked_max_interference_local_mw = interference_mw
                else:
                    interference_mw += medium._subfloor_active_mw[slot]
                    if interference_mw > medium._locked_max_interference_mw[slot]:
                        medium._locked_max_interference_mw[slot] = interference_mw
        self._update_busy_state()

    def incoming_ended(self, tx: Transmission) -> None:
        """Called by the medium when a (detectable) transmission ends."""
        tx_id = tx.tx_id
        incoming = self._incoming_power_mw
        power_mw = incoming.pop(tx_id, None)
        cca_power_mw = self._incoming_cca_power_mw.pop(tx_id, None)
        # Commit the accumulators and their medium mirrors, as on a start.
        slot = self._slot
        mutations = self._mutations_since_resync + 1
        if incoming and mutations >= RESYNC_INTERVAL:
            self.resync_power_accumulators()
        else:
            if incoming:
                if power_mw is not None:
                    self._rx_sum_mw -= power_mw
                if cca_power_mw is not None:
                    self._cca_sum_mw -= cca_power_mw
            else:
                # An empty channel is the cheapest exact state: reset
                # outright so drift can never outlive a quiet moment.
                self._rx_sum_mw = 0.0
                self._cca_sum_mw = 0.0
                mutations = 0
            self._mutations_since_resync = mutations
            if slot is not None:
                medium = self.medium
                medium._above_sum_mw[slot] = self._rx_sum_mw
                medium._cca_live_mw[slot] = self._cca_sum_mw

        locked = self._locked
        if locked is not None and locked.tx_id == tx_id:
            sinr_linear = self._locked_power_mw / (
                self._noise_floor_mw + self._locked_max_interference()
            )
            sinr_db = _lin_to_db_scalar(sinr_linear)
            outcome = self.reception.decide(tx.frame, sinr_db, self.rng)
            if outcome.success:
                self.stats.frames_decoded += 1
            else:
                self.stats.frames_failed += 1
            self._unlock()
            self.on_frame_received(outcome)
        self._update_busy_state()

    def _total_interference_excluding(self, tx_id: int) -> float:
        """All interfering power except ``tx_id``: detectable plus sub-floor."""
        interference_mw = self._rx_sum_mw - self._incoming_power_mw.get(tx_id, 0.0)
        if self._slot is None:
            return interference_mw
        return interference_mw + float(self.medium._subfloor_active_mw[self._slot])
