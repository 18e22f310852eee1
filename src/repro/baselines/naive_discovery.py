"""The naive neighbor-discovery baseline (paper, Section 1).

"A simple and straightforward strategy would be for each node to
randomly hop among the set of channels available to it; it would then
broadcast (its identity) or listen each with some probability (e.g.,
using a backoff procedure to resolve contention). This simple algorithm
yields a time complexity of approximately ``Õ((c²/k)·Δ)``."

Concretely, per slot every node:

1. tunes to one of its ``c`` channels uniformly at random,
2. listens with probability 1/2, otherwise
3. broadcasts its identity with probability ``1/Δ`` — the safe
   contention-blind back-off rate, since up to ``Δ`` neighbors might be
   contending and the node has no density information (that information
   is exactly what CSEEK's part one buys).

A directed pair is heard at rate ``~ k_uv / (4 c² Δ)`` per slot, giving
the ``(c²/k)·Δ`` baseline shape that CSEEK beats by replacing the
``·Δ`` with ``+ (kmax/k)·Δ``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

import numpy as np

from repro import obs
from repro.core.constants import ProtocolConstants
from repro.core.cseek import DiscoveryReport
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import StepOutcome, resolve_varying
from repro.sim.environment import (
    SpectrumEnvironment,
    build_column_lut,
    sentinel_columns,
)
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub
from repro.sim.trace import TraceRecorder

__all__ = ["NaiveDiscovery", "NaiveDiscoveryResult"]


class NaiveDiscoveryResult:
    """Result of a naive-discovery execution.

    Attributes:
        discovered: Per-node sets of heard identities.
        trace: First-reception events.
        ledger: Slots charged (phase ``"naive_discovery"``).
        total_slots: Slots executed.
    """

    def __init__(
        self,
        discovered: List[Set[int]],
        trace: TraceRecorder,
        ledger: SlotLedger,
        total_slots: int,
    ) -> None:
        self.discovered = discovered
        self.trace = trace
        self.ledger = ledger
        self.total_slots = total_slots


class NaiveDiscovery:
    """The introduction's random-hopping discovery strawman.

    Args:
        network: Ground-truth network.
        knowledge: Global parameters; defaults to realized values.
        constants: ``naive_factor`` stretches the schedule
            ``ceil(naive_factor * (c²/k) * Δ * lg n)`` slots.
        seed: Randomness seed.
        max_slots: Optional hard override of the schedule length.
        chunk: Slots drawn and resolved per loop iteration. The RNG
            draws labels and coins a chunk at a time, so changing it
            changes the random stream and hence the result rows.
        environment: Optional spectrum environment
            (:class:`repro.sim.environment.SpectrumEnvironment`); each
            run opens a fresh single-trial stream seeded from ``seed``,
            and receptions whose listener sits on an occupied channel
            that slot are killed — the same primary-user semantics the
            CSEEK family applies.
    """

    def __init__(
        self,
        network: CRNetwork,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        seed: int = 0,
        max_slots: Optional[int] = None,
        chunk: int = 128,
        environment: Optional[SpectrumEnvironment] = None,
    ) -> None:
        self.network = network
        self.knowledge = knowledge or network.knowledge()
        self.environment = environment
        self.constants = constants or ProtocolConstants.fast()
        self.seed = seed
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
                    * kn.max_degree
                    * kn.log_n
                ),
            )
        self.chunk = chunk

    def run(self) -> NaiveDiscoveryResult:
        """Execute the schedule and collect receptions."""
        with obs.span("discovery"):
            return self._execute()

    def _execute(self) -> NaiveDiscoveryResult:
        net = self.network
        kn = self.knowledge
        n, c = net.n, net.c
        table = net.channel_table()
        rng = RngHub(self.seed).child("naive-discovery").generator("slots")
        trace = TraceRecorder()
        ledger = SlotLedger()
        traffic = (
            self.environment.stream(self.seed)
            if self.environment is not None
            else None
        )
        lut = (
            build_column_lut(traffic.channel_ids)
            if traffic is not None
            else None
        )
        tx_prob = 0.5 / max(1, kn.max_degree)  # role coin x back-off rate
        node_idx = np.arange(n)
        slot_cursor = 0
        remaining = self.schedule_slots
        while remaining > 0:
            batch = min(self.chunk, remaining)
            labels = rng.integers(0, c, size=(batch, n))
            channels = table[node_idx[None, :], labels]
            tx = rng.random((batch, n)) < tx_prob
            outcome = resolve_varying(net.adjacency, channels, tx)
            if traffic is not None:
                # Per-slot occupancy kill: the naive hopper re-tunes
                # every slot, so the mask is gathered per (slot, node)
                # rather than per fixed-channel step.
                occupied = traffic.occupied_block(batch)
                cols = sentinel_columns(lut[0], lut[1], channels)
                clear = np.zeros((batch, 1), dtype=bool)
                jammed = np.take_along_axis(
                    np.concatenate([occupied, clear], axis=1), cols, 1
                )
                outcome = StepOutcome(
                    heard_from=np.where(jammed, -1, outcome.heard_from),
                    contenders=outcome.contenders,
                )
            trace.record_step(outcome, slot_cursor, "naive_discovery")
            slot_cursor += batch
            remaining -= batch
            ledger.charge("naive_discovery", batch)
        discovered = [set(trace.heard_by(u)) for u in range(n)]
        return NaiveDiscoveryResult(
            discovered=discovered,
            trace=trace,
            ledger=ledger,
            total_slots=slot_cursor,
        )

    def verify(self, result: NaiveDiscoveryResult) -> DiscoveryReport:
        """Check the run found every true neighbor."""
        required = [set(s) for s in self.network.true_neighbor_sets()]
        missing = []
        completion = None
        for u in range(self.network.n):
            for v in sorted(required[u]):
                if v not in result.discovered[u]:
                    missing.append((u, v))
                    continue
                event = result.trace.first_reception(u, v)
                if event is not None and (
                    completion is None or event.slot > completion
                ):
                    completion = event.slot
        return DiscoveryReport(
            success=not missing,
            missing=tuple(missing),
            completion_slot=completion,
            scheduled_slots=result.total_slots,
        )
