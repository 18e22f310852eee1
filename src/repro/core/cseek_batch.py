"""Trial-batched CSEEK execution (the harness's protocol fast path).

:class:`~repro.core.cseek.CSeek` resolves each part-one COUNT step and
each part-two back-off window with one engine call — but a Monte Carlo
sweep still pays that call (plus generator draws, trace scans and
bookkeeping) once per step *per trial*. Homogeneous trials — one
network, one configuration, only the seed varying, which is the shape of
every sweep point in experiments E2/E3/E4/E10/E12 — admit a much better
schedule: run all ``B`` trials in lockstep, so each part-one step is a
single :func:`repro.core.count.run_count_step_batch` call and each
part-two window a single
:func:`repro.core.cseek.resolve_backoff_batch` call over the whole
``(B, T, n)`` trial axis.

Bit-exactness contract: trial ``b`` draws from its *own* generators
(``RngHub(seed_b).child(rng_label)``) in exactly the order
:meth:`CSeek.run` draws them — labels, roles, then engine coins per
step — and a spectrum environment opens one batched stream whose slice
``b`` equals the serial stream of ``seed_b`` — so
``CSeekBatch.run(seeds)[b] == CSeek(seed=seeds[b]).run()`` field for
field. Batching is a pure throughput decision, which is what lets the
``jobs="batch"`` executor strategy route whole protocol runs through
this module without perturbing any experiment table.

The same runner serves CKSEEK (different budgets, same machinery — build
it from a :class:`~repro.core.ckseek.CKSeek` prototype via
:meth:`CSeekBatch.from_serial`), CGCAST's discovery phase and its
simulated exchanges (:mod:`repro.core.cgcast_batch`).

Cross-point batching: :func:`run_cseek_lockstep` is the general form —
it locksteps trials of *several* :class:`CSeekBatch` members at once
(one per sweep point), provided they share a compatibility signature
(:func:`lockstep_signature`: node/channel counts, step budgets,
listener policy, rng namespace, knowledge, constants). Member networks
may differ: the engine resolves against a per-trial ``(B, n, n)``
adjacency stack when they do. The trial axis is the plain concatenation
of every member's seeds, so ragged per-point trial counts need no
padding — each trial draws from its own generators either way, which is
also why per-trial bit-identity to the serial protocol is preserved
member by member. :meth:`CSeekBatch.run` is the single-member special
case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.constants import ProtocolConstants
from repro.core.count import count_schedule, run_count_step_batch
from repro.core.cseek import (
    CSeek,
    CSeekResult,
    ListenerPolicy,
    choose_part2_labels,
    resolve_backoff_batch,
)
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.environment import SpectrumEnvironment
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork
from repro.sim.rng import RngHub
from repro.sim.trace import TraceRecorder, record_step_batch

__all__ = [
    "CSeekBatch",
    "LockstepMember",
    "lockstep_signature",
    "run_cseek_lockstep",
]

class CSeekBatch:
    """Run many homogeneous CSEEK trials in lockstep across the trial axis.

    All trials share the network, knowledge, constants, step budgets and
    listener policy; only the per-trial seed (and, through
    ``environment``, the per-trial primary-user traffic) varies.
    Heterogeneous sweeps belong on the serial or process-pool executors.

    Args:
        network: Ground-truth network shared by every trial.
        knowledge: Global parameters handed to nodes; defaults to the
            network's realized parameters.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        part1_steps: Override the part-one step budget (CKSEEK budgets
            enter here); default per ``constants.part1_steps``.
        part2_steps: Override the part-two step budget; default per
            ``constants.part2_steps``.
        part2_listener: ``"weighted"`` (paper) or ``"uniform"``
            (ablation) — the E10 ablation path batches like any other.
        rng_label: Randomness namespace, as on :class:`CSeek` (CGCAST's
            embedded discovery uses ``"cgcast.discovery"``).
        environment: Optional spectrum environment
            (:class:`~repro.sim.environment.SpectrumEnvironment`); one
            batched traffic stream covers all trials, so every
            protocol step jams the whole trial axis with a single call
            — this is what removed the per-trial Markov loop from the
            batched hot path. Per trial, occupancy is bit-identical to
            the serial ``CSeek(..., environment=...)`` execution.
    """

    def __init__(
        self,
        network: CRNetwork,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        part1_steps: Optional[int] = None,
        part2_steps: Optional[int] = None,
        part2_listener: ListenerPolicy = "weighted",
        rng_label: str = "cseek",
        environment: Optional[SpectrumEnvironment] = None,
    ) -> None:
        # Delegate validation and budget resolution to the serial
        # protocol: one source of truth for schedule sizing.
        self._proto = CSeek(
            network,
            knowledge=knowledge,
            constants=constants,
            seed=0,
            part1_steps=part1_steps,
            part2_steps=part2_steps,
            part2_listener=part2_listener,
            rng_label=rng_label,
        )
        self.environment = environment

    @classmethod
    def from_serial(
        cls,
        proto: CSeek,
        environment: Optional[SpectrumEnvironment] = None,
    ) -> "CSeekBatch":
        """A batch runner with a serial protocol's resolved configuration.

        Works for any :class:`CSeek` instance, including subclasses that
        only reparameterize budgets (:class:`~repro.core.ckseek.CKSeek`):
        the *resolved* step budgets, listener policy and rng namespace
        are copied, so the prototype's seed is irrelevant. The
        prototype's ``environment`` carries over unless an explicit
        ``environment`` is given.
        """
        if environment is None:
            environment = proto.environment
        return cls(
            proto.network,
            knowledge=proto.knowledge,
            constants=proto.constants,
            part1_steps=proto.part1_step_budget,
            part2_steps=proto.part2_step_budget,
            part2_listener=proto.part2_listener,
            rng_label=proto.rng_label,
            environment=environment,
        )

    # Mirror the serial protocol's introspection surface.
    @property
    def network(self) -> CRNetwork:
        return self._proto.network

    @property
    def part1_step_budget(self) -> int:
        return self._proto.part1_step_budget

    @property
    def part2_step_budget(self) -> int:
        return self._proto.part2_step_budget

    @property
    def part2_listener(self) -> ListenerPolicy:
        return self._proto.part2_listener

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, seeds: Sequence[int]) -> List[CSeekResult]:
        """Execute one full CSEEK trial per seed, in lockstep.

        Returns per-trial :class:`CSeekResult` objects, in seed order,
        each bit-identical to ``CSeek(..., seed=seeds[b]).run()``.
        The single-member special case of :func:`run_cseek_lockstep`.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ProtocolError("seeds must name at least one trial")
        return run_cseek_lockstep([LockstepMember(self, seeds)])[0]


@dataclass
class LockstepMember:
    """One sweep point's contribution to a cross-point lockstep run.

    Attributes:
        batch: The point's configured :class:`CSeekBatch` (network,
            budgets, environment).
        seeds: The point's trial seeds — any count; the cross-point
            trial axis is the concatenation of every member's seeds, so
            ragged per-point counts need no padding.
    """

    batch: CSeekBatch
    seeds: Sequence[int]


def lockstep_signature(batch: CSeekBatch) -> tuple:
    """The compatibility key members of one lockstep run must share.

    Everything that shapes the lockstep schedule: node and channel
    counts, resolved step budgets, listener policy, rng namespace, the
    knowledge values the schedule derives from, and the constants
    profile. Networks are deliberately *not* part of the key — trials
    from different graphs resolve against a per-trial adjacency stack.
    Environments differ freely too (each member opens its own streams).
    """
    proto = batch._proto
    net = proto.network
    kn = proto.knowledge
    return (
        net.n,
        net.c,
        proto.part1_step_budget,
        proto.part2_step_budget,
        proto.part2_listener,
        proto.rng_label,
        kn.max_degree,
        kn.log_n,
        kn.log_delta,
        proto.constants,
    )


def run_cseek_lockstep(
    members: Sequence[LockstepMember],
) -> List[List[CSeekResult]]:
    """Run every member's trials in one cross-point lockstep execution.

    All members must share :func:`lockstep_signature`; their networks
    and environments may differ. Each part-one step and part-two window
    resolves as *one* engine call over the concatenated trial axis —
    with a shared adjacency when every member's network coincides (the
    single-point case), or a per-trial ``(B, n, n)`` stack otherwise.
    Per trial, generator draws, jam masks and bookkeeping are exactly
    those of a per-member :meth:`CSeekBatch.run`, so results are
    bit-identical to the per-point path (and hence to serial
    :meth:`CSeek.run`) member by member.

    Returns:
        One result list per member, in member order, each in the
        member's seed order.
    """
    if not members:
        raise ProtocolError("lockstep run needs at least one member")
    signature = lockstep_signature(members[0].batch)
    for member in members[1:]:
        other = lockstep_signature(member.batch)
        if other != signature:
            raise ProtocolError(
                "lockstep members must share a compatibility signature "
                "(n, c, budgets, policy, rng label, knowledge, "
                f"constants); got {other} vs {signature}"
            )
    seed_lists = [[int(s) for s in m.seeds] for m in members]
    if any(not seeds for seeds in seed_lists):
        raise ProtocolError("seeds must name at least one trial")

    proto = members[0].batch._proto
    # Telemetry stage: plain CSEEK/CKSEEK runs and CGCAST's discovery
    # stage are "discovery"; the runner is also reused for simulated
    # meeting-time/color exchanges, which report as "oracle_exchange".
    stage = (
        "discovery"
        if proto.rng_label == "cseek"
        or proto.rng_label.endswith("discovery")
        else "oracle_exchange"
    )
    kn = proto.knowledge
    n, c = proto.network.n, proto.network.c
    per_member = [len(seeds) for seeds in seed_lists]
    num_trials = sum(per_member)
    offsets = np.concatenate([[0], np.cumsum(per_member)])
    slices = [
        slice(int(offsets[j]), int(offsets[j + 1]))
        for j in range(len(members))
    ]
    tables = [m.batch.network.channel_table() for m in members]
    adjacencies = [m.batch.network.adjacency for m in members]
    if all(
        a is adjacencies[0] or np.array_equal(a, adjacencies[0])
        for a in adjacencies[1:]
    ):
        # One shared graph (always true for a single member): keep the
        # 2-D adjacency so the engine's shared-mask path applies.
        adjacency = adjacencies[0]
    else:
        adjacency = np.concatenate(
            [
                np.broadcast_to(adj, (cnt, n, n))
                for adj, cnt in zip(adjacencies, per_member)
            ]
        )
    rows = np.arange(n)

    hubs = [
        RngHub(s).child(proto.rng_label)
        for seeds in seed_lists
        for s in seeds
    ]
    # One batched stream per jammed member: a single jam-mask gather
    # per protocol step, no per-trial loop.
    traffics = [
        m.batch.environment.streams(seeds)
        if m.batch.environment is not None
        else None
        for m, seeds in zip(members, seed_lists)
    ]

    def gather_jam(channels: np.ndarray, num_slots: int):
        """Per-member jam gathers assembled over the full trial axis.

        Unjammed members contribute zeros, which the engine treats
        exactly like the no-jam path — so mixing jammed and unjammed
        points in one group perturbs nothing.
        """
        if all(t is None for t in traffics):
            return None
        jam = np.zeros((num_trials, num_slots, n), dtype=bool)
        for sl, traffic in zip(slices, traffics):
            if traffic is not None:
                jam[sl] = traffic.jam_mask(channels[sl], num_slots)
        return jam

    counts = np.zeros((num_trials, n, c), dtype=np.float64)
    traces = [TraceRecorder() for _ in range(num_trials)]
    ledgers = [SlotLedger() for _ in range(num_trials)]
    step_starts: List[int] = []
    # Per-step (B, n) channel snapshots, re-sliced per trial at the end.
    step_channels: List[np.ndarray] = []
    slot_cursor = 0

    count_rounds, count_round_len = count_schedule(
        kn.max_degree, kn.log_n, proto.constants
    )
    count_slots = count_rounds * count_round_len

    rng1 = [hub.generator("part1") for hub in hubs]
    with obs.span(stage):
        for _ in range(proto.part1_step_budget):
            labels = np.empty((num_trials, n), dtype=np.int64)
            tx_role = np.empty((num_trials, n), dtype=bool)
            for b in range(num_trials):
                labels[b] = rng1[b].integers(0, c, size=n)
                tx_role[b] = rng1[b].random(n) < 0.5
            channels = np.empty((num_trials, n), dtype=np.int64)
            for sl, table in zip(slices, tables):
                channels[sl] = table[rows[None, :], labels[sl]]
            jam = gather_jam(channels, count_slots)
            outcome = run_count_step_batch(
                adjacency,
                channels,
                tx_role,
                max_count=kn.max_degree,
                log_n=kn.log_n,
                constants=proto.constants,
                rngs=rng1,
                jam=jam,
            )
            listeners = ~tx_role
            b_idx, u_idx = np.nonzero(listeners)
            # (b, u) pairs are unique, so plain fancy-index
            # accumulation matches the serial += exactly.
            counts[b_idx, u_idx, labels[b_idx, u_idx]] += (
                outcome.estimates[b_idx, u_idx]
            )
            record_step_batch(
                traces, outcome.step, slot_cursor, "cseek.part1",
                channels=channels,
            )
            step_starts.append(slot_cursor)
            step_channels.append(channels)
            slot_cursor += outcome.num_slots
            for ledger in ledgers:
                ledger.charge("part1", outcome.num_slots)

    discovered_part_one = [
        [set(trace.heard_by(u)) for u in range(n)] for trace in traces
    ]

    rng2 = [hub.generator("part2") for hub in hubs]
    backoff_len = kn.log_delta
    with obs.span(stage):
        for _ in range(proto.part2_step_budget):
            labels = np.empty((num_trials, n), dtype=np.int64)
            tx_role = np.empty((num_trials, n), dtype=bool)
            for b in range(num_trials):
                tx_role[b] = rng2[b].random(n) < 0.5
                labels[b] = choose_part2_labels(
                    rng2[b], tx_role[b], counts[b],
                    policy=proto.part2_listener,
                )
            channels = np.empty((num_trials, n), dtype=np.int64)
            for sl, table in zip(slices, tables):
                channels[sl] = table[rows[None, :], labels[sl]]
            jam = gather_jam(channels, backoff_len)
            outcome = resolve_backoff_batch(
                adjacency, channels, tx_role, backoff_len, rng2, jam=jam
            )
            record_step_batch(
                traces, outcome, slot_cursor, "cseek.part2",
                channels=channels,
            )
            step_starts.append(slot_cursor)
            step_channels.append(channels)
            slot_cursor += backoff_len
            for ledger in ledgers:
                ledger.charge("part2", backoff_len)

    # (S, B, n) -> per-trial (S, n) slices, matching serial vstack.
    all_channels = (
        np.stack(step_channels)
        if step_channels
        else np.zeros((0, num_trials, n), dtype=np.int64)
    )
    step_start_arr = np.array(step_starts, dtype=np.int64)
    results: List[List[CSeekResult]] = []
    for sl in slices:
        member_results: List[CSeekResult] = []
        for b in range(sl.start, sl.stop):
            member_results.append(
                CSeekResult(
                    discovered=[
                        set(traces[b].heard_by(u)) for u in range(n)
                    ],
                    discovered_part_one=discovered_part_one[b],
                    counts=counts[b].copy(),
                    trace=traces[b],
                    ledger=ledgers[b],
                    step_start_slots=step_start_arr,
                    step_channels=np.ascontiguousarray(
                        all_channels[:, b, :]
                    ),
                    total_slots=slot_cursor,
                )
            )
        results.append(member_results)
    return results
