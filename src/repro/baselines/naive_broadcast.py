"""The naive global-broadcast baseline (paper, Section 1).

"One can devise a straightforward solution in which nodes hop among
channels randomly and wait for the message if uninformed, or broadcast
it if they are already informed. Such naive solution would cost
approximately ``Õ((c²/k)·D)`` time."

Per slot every node tunes to a uniform channel; informed nodes broadcast
the message with probability 1/2 (the coin keeps two informed neighbors
from colliding forever), uninformed nodes listen. The message crosses an
edge at rate ``~ k_uv / (4 c²)`` per slot, so each of the ``D`` hops
costs ``~ c²/k`` slots — no pipelining discount, hence the
multiplicative ``·D``.

Implementation note: slots are resolved in chunks for speed, but
semantics stay exact — a node informed at slot ``t`` starts broadcasting
at slot ``t + 1``. When a chunk produces new informed nodes, receptions
up to and including the earliest informing slot are committed and the
remainder of the chunk is re-resolved with the updated informed set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.constants import ProtocolConstants
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import resolve_varying
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub

__all__ = ["NaiveBroadcast", "NaiveBroadcastResult"]


@dataclass
class NaiveBroadcastResult:
    """Result of a naive-broadcast execution.

    Attributes:
        informed: ``(n,)`` boolean; who holds the message at the end.
        informed_slot: ``(n,)`` int; slot of first reception (source 0,
            uninformed -1).
        ledger: Slots charged (phase ``"naive_broadcast"``).
        total_slots: Slots executed (early stop may undercut the
            schedule).
        scheduled_slots: The full schedule length.
    """

    informed: np.ndarray
    informed_slot: np.ndarray
    ledger: SlotLedger
    total_slots: int
    scheduled_slots: int

    @property
    def success(self) -> bool:
        return bool(self.informed.all())

    @property
    def completion_slot(self) -> Optional[int]:
        if not self.success:
            return None
        return int(self.informed_slot.max())


class NaiveBroadcast:
    """The introduction's random-hopping broadcast strawman.

    Args:
        network: Ground-truth network.
        source: Initially informed node.
        knowledge: Global parameters; defaults to realized values.
        constants: ``naive_factor`` stretches the schedule
            ``ceil(naive_factor * (c²/k) * D * lg n)`` slots.
        seed: Randomness seed.
        max_slots: Optional hard override of the schedule length.
        early_stop: Stop once everyone is informed.
        chunk: Slots drawn and resolved per loop iteration. The RNG
            draws labels and coins a chunk at a time, so changing it
            changes the random stream and hence the result rows.
    """

    def __init__(
        self,
        network: CRNetwork,
        source: int = 0,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        seed: int = 0,
        max_slots: Optional[int] = None,
        early_stop: bool = True,
        chunk: int = 128,
    ) -> None:
        if not 0 <= source < network.n:
            raise ProtocolError(
                f"source {source} out of range [0, {network.n})"
            )
        self.network = network
        self.source = source
        self.knowledge = knowledge or network.knowledge()
        self.constants = constants or ProtocolConstants.fast()
        self.seed = seed
        self.early_stop = early_stop
        self.chunk = chunk
        kn = self.knowledge
        if max_slots is not None:
            if max_slots < 1:
                raise ProtocolError(f"max_slots must be >= 1: {max_slots}")
            self.schedule_slots = max_slots
        else:
            self.schedule_slots = max(
                1,
                math.ceil(
                    self.constants.naive_factor
                    * (kn.c * kn.c / kn.k)
                    * kn.diameter
                    * kn.log_n
                ),
            )

    def run(self) -> NaiveBroadcastResult:
        """Execute until the schedule ends or everyone is informed."""
        net = self.network
        n, c = net.n, net.c
        table = net.channel_table()
        rng = RngHub(self.seed).child("naive-broadcast").generator("slots")
        ledger = SlotLedger()
        informed = np.zeros(n, dtype=bool)
        informed[self.source] = True
        informed_slot = np.full(n, -1, dtype=np.int64)
        informed_slot[self.source] = 0
        node_idx = np.arange(n)

        slot_cursor = 0
        while slot_cursor < self.schedule_slots:
            if self.early_stop and informed.all():
                break
            batch = min(self.chunk, self.schedule_slots - slot_cursor)
            labels = rng.integers(0, c, size=(batch, n))
            channels = table[node_idx[None, :], labels]
            coins = rng.random((batch, n)) < 0.5
            # Re-resolve the chunk suffix whenever the informed set grows
            # mid-chunk, so new holders start broadcasting next slot.
            offset = 0
            while offset < batch:
                tx = coins[offset:] & informed[None, :]
                outcome = resolve_varying(net.adjacency, channels[offset:], tx)
                heard = outcome.heard_from >= 0
                new_hits = heard & ~informed[None, :]
                if not new_hits.any():
                    offset = batch
                    continue
                slots_with_new = np.flatnonzero(new_hits.any(axis=1))
                first = int(slots_with_new[0])
                newly = new_hits[first]
                informed_slot[newly] = slot_cursor + offset + first
                informed[newly] = True
                offset += first + 1
            slot_cursor += batch
            ledger.charge("naive_broadcast", batch)

        return NaiveBroadcastResult(
            informed=informed,
            informed_slot=informed_slot,
            ledger=ledger,
            total_slots=slot_cursor,
            scheduled_slots=self.schedule_slots,
        )
