"""Ideal time-division multiplexing MAC.

The analytical model's "multiplexing" policy is perfect TDMA: each contender
gets an equal, exclusive share of the channel with no contention overhead.
:class:`TdmaMac` realises this in the packet simulator by driving each node
from a shared :class:`TdmaSchedule`: a node transmits back-to-back frames
only inside its own slots and stays silent otherwise.

The Section 4 experiment protocol measures multiplexing differently (each
pair runs *alone* and the harness halves the time), but a true TDMA MAC is
useful in its own right: the integration tests use it to check that
simulated multiplexing throughput matches the analytical prediction, and the
examples use it to contrast CSMA overhead against an ideal scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from ...capacity.adaptation import RateSelector
from ..engine import Simulator
from ..frames import Frame, FrameKind
from ..phy import ReceptionOutcome
from ..radio import Radio
from .base import MacBase

__all__ = ["TdmaSchedule", "TdmaMac"]

_DATA = FrameKind.DATA


@dataclass(frozen=True, slots=True)
class TdmaSchedule:
    """A global, repeating slot assignment.

    Parameters
    ----------
    slot_duration_s:
        Length of each slot.  Slots should comfortably fit at least one frame
        at the slowest rate in use.
    slot_owners:
        The node id owning each slot of the repeating cycle.
    """

    slot_duration_s: float
    slot_owners: Sequence[Hashable]

    def __post_init__(self) -> None:
        if self.slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        if not self.slot_owners:
            raise ValueError("schedule needs at least one slot")

    @property
    def cycle_duration_s(self) -> float:
        return self.slot_duration_s * len(self.slot_owners)

    def slot_index_at(self, time: float) -> int:
        """Index (within the cycle) of the slot active at ``time``."""
        position = time % self.cycle_duration_s
        return int(position // self.slot_duration_s)

    def owner_at(self, time: float) -> Hashable:
        return self.slot_owners[self.slot_index_at(time)]

    def next_slot_start(self, node_id: Hashable, time: float) -> float:
        """Earliest time at or after ``time`` at which ``node_id`` may transmit.

        Returns ``time`` itself when the node already owns the active slot,
        otherwise the start time of its next owned slot.
        """
        if node_id not in self.slot_owners:
            raise KeyError(f"node {node_id!r} owns no slot in this schedule")
        n = len(self.slot_owners)
        current_index = self.slot_index_at(time)
        if self.slot_owners[current_index] == node_id:
            return time
        cycle_start = time - (time % self.cycle_duration_s)
        for offset in range(1, n + 1):
            index = (current_index + offset) % n
            if self.slot_owners[index] == node_id:
                return cycle_start + (current_index + offset) * self.slot_duration_s
        raise RuntimeError("unreachable: schedule scan failed")

    def slot_end_after(self, time: float) -> float:
        """End time of the slot active at ``time``."""
        index = self.slot_index_at(time)
        cycle_start = time - (time % self.cycle_duration_s)
        return cycle_start + (index + 1) * self.slot_duration_s


class TdmaMac(MacBase):
    """Transmit saturated traffic only within this node's TDMA slots."""

    __slots__ = ("schedule", "guard_time_s", "_pending", "_wakeup")

    def __init__(
        self,
        node_id: Hashable,
        sim: Simulator,
        radio: Radio,
        rate_selector: RateSelector,
        schedule: TdmaSchedule,
        rng: Optional[np.random.Generator] = None,
        guard_time_s: float = 10e-6,
    ) -> None:
        super().__init__(node_id, sim, radio, rate_selector, rng)
        self.schedule = schedule
        self.guard_time_s = guard_time_s
        self._pending: Optional[Frame] = None
        # Single reusable wakeup timer: re-arming recycles its engine slot.
        self._wakeup = sim.timer()

    def start(self) -> None:
        if self.node_id not in self.schedule.slot_owners:
            # Pure receiver: it never transmits, so there is nothing to schedule.
            return
        self._load_next_frame()
        self._schedule_wakeup()

    def _load_next_frame(self) -> None:
        if self.traffic is None:
            self._pending = None
            return
        packet = self.traffic.next_packet()
        if packet is None:
            self._pending = None
            return
        dst, payload_bytes = packet[0], packet[1]
        # Forwarding sources hand out (next_hop, payload, FlowTag) triples;
        # plain sources keep the historical two-element form.
        flow = packet[2] if len(packet) > 2 else None
        rate = self.rate_selector.select((self.node_id, dst))
        if flow is None:
            self._pending = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=dst,
                payload_bytes=payload_bytes,
                rate=rate,
                sequence=self.next_sequence(),
                enqueued_at=self.sim.now,
            )
        else:
            enqueued_at = flow.enqueued_at if flow.enqueued_at >= 0.0 else self.sim.now
            self._pending = Frame(
                kind=FrameKind.DATA,
                src=self.node_id,
                dst=dst,
                payload_bytes=payload_bytes,
                rate=rate,
                sequence=self.next_sequence(),
                enqueued_at=enqueued_at,
                flow_src=flow.flow_src,
                flow_dst=flow.flow_dst,
                hops=flow.hops,
            )

    def _in_own_slot(self) -> bool:
        return self.schedule.owner_at(self.sim.now) == self.node_id

    def _set_wakeup(self, delay_s: float) -> None:
        """(Re)arm the single outstanding retry event."""
        self._wakeup.arm(delay_s, self._try_transmit)

    def _schedule_wakeup(self) -> None:
        """Arrange to try transmitting at the start of the next owned slot."""
        next_start = self.schedule.next_slot_start(self.node_id, self.sim.now)
        self._set_wakeup(max(next_start - self.sim.now, 0.0) + 1e-9)

    def _sleep_past_slot(self) -> None:
        """Sleep to the end of the active slot, then look again."""
        slot_end = self.schedule.slot_end_after(self.sim.now)
        self._set_wakeup(max(slot_end - self.sim.now, 0.0) + 1e-9)

    def notify_traffic(self) -> None:
        """An open-loop arrival while dormant: look for a slot immediately."""
        if self.node_id not in self.schedule.slot_owners:
            # Slotless nodes never transmit (mirrors the start() guard).
            return
        if self._pending is None and not self.radio.is_transmitting:
            self._set_wakeup(0.0)

    def _try_transmit(self) -> None:
        if self._pending is None:
            self._load_next_frame()
        if self._pending is None:
            # Queue empty: go dormant until the next slot boundary rather
            # than retrying within the slot (an open-loop source wakes us
            # sooner through notify_traffic; spinning here melts the engine).
            self._sleep_past_slot()
            return
        if not self._in_own_slot() or self.radio.is_transmitting:
            self._schedule_wakeup()
            return
        slot_end = self.schedule.slot_end_after(self.sim.now)
        if self.sim.now + self._pending.airtime_s + self.guard_time_s > slot_end:
            # Frame no longer fits in this slot; sleep until the slot is over
            # and then look for the next owned slot.
            self._sleep_past_slot()
            return
        frame = self._pending
        self.stats.data_frames_sent += 1
        self.radio.transmit(frame)

    def _on_transmit_complete(self, frame: Frame) -> None:
        self.stats.data_frames_delivered += 1
        if self.traffic is not None:
            self.traffic.notify_sent(frame)
        self.rate_selector.report((self.node_id, frame.dst), frame.rate, True, frame.airtime_s)
        self._pending = None
        self._load_next_frame()
        self._set_wakeup(0.0)

    def _on_channel_busy(self) -> None:
        return None

    def _on_channel_idle(self) -> None:
        return None

    def _on_frame_received(self, outcome: ReceptionOutcome) -> None:
        frame = outcome.frame
        if not outcome.success:
            self.stats.rx_failed_frames += 1
            return
        if frame.kind is _DATA:
            self.stats.rx_data_frames += 1
            self.on_data_received(frame)
