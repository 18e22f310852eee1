"""Trial-batched CSEEK execution (the harness's protocol fast path).

:class:`~repro.core.cseek.CSeek` resolves each part-one COUNT step and
each part-two back-off window with one engine call — but a Monte Carlo
sweep still pays that call (plus generator draws, trace scans and
bookkeeping) once per step *per trial*, and CSEEK's budget is many
short steps. Homogeneous trials — one network, one configuration, only
the seed varying, which is the shape of every sweep point in
experiments E2/E3/E4/E10/E12 — admit a much better schedule: run all
``B`` trials in lockstep over chunks of ``K`` fused steps. Within a
CSEEK part no draw depends on an engine outcome (part-two labels read
only the part-one ``counts``, final before part two starts), so each
trial first draws a whole chunk's labels, roles and coins; then the
chunk's ``K·B`` (step, trial) rows run through one
:func:`repro.core.count.run_count_step_batch` call (part one) or one
:func:`repro.sim.engine.resolve_step_batch` call (part two), one
estimate decode and ``counts`` update, one
:func:`repro.sim.trace.record_step_batch` pass and one ledger charge
per trial. ``K`` comes from a fixed element budget,
``_CHUNK_ELEMENTS // (B·n·max(n, T))`` for steps of ``T`` slots,
which bounds the chunk's masks and coin blocks.

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
may differ: every (step, trial) row resolves against its own trial's
adjacency. The trial axis is the plain concatenation
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
from repro.core.count import count_probabilities, run_count_step_batch
from repro.core.cseek import (
    CSeek,
    CSeekResult,
    ListenerPolicy,
    backoff_probabilities,
    choose_part2_labels,
)
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.engine import resolve_step_batch
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

#: Element budget of one fused chunk of lockstep steps: a chunk spans
#: ``K = max(1, _CHUNK_ELEMENTS // (B·n·max(n, T)))`` steps of ``B``
#: trials, which bounds its ``(K·B, n, n)`` reception masks and
#: ``(K·B, T, n)`` coin and outcome blocks.
_CHUNK_ELEMENTS = 1 << 16

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
    and environments may differ. Each chunk of part-one steps or
    part-two windows resolves as *one* engine call over the fused
    (step, trial) axis, against each trial's own adjacency. Per trial,
    generator draws, jam masks and bookkeeping are exactly
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
    # Per-trial (B, n, n) adjacency; chunks tile it along the steps.
    adjacency = np.concatenate(
        [
            np.broadcast_to(m.batch.network.adjacency, (cnt, n, n))
            for m, cnt in zip(members, per_member)
        ]
    )
    rows = np.arange(n)

    hubs = [
        RngHub(s).child(proto.rng_label)
        for seeds in seed_lists
        for s in seeds
    ]
    # One batched stream per jammed member: one jam-mask gather per
    # member per protocol step, no per-trial loop.
    traffics = [
        m.batch.environment.streams(seeds)
        if m.batch.environment is not None
        else None
        for m, seeds in zip(members, seed_lists)
    ]

    def chunk_inputs(labels: np.ndarray, num_slots: int):
        """Channels and jam masks for a ``(K, B, n)`` chunk of labels.

        Returns ``(channels, jam)`` with ``(K, B, n)`` channels and a
        ``(K·B, num_slots, n)`` jam mask (None when nothing is jammed).
        Unjammed members contribute zeros, which the engine treats
        exactly like the no-jam path — so mixing jammed and unjammed
        points in one group perturbs nothing.
        """
        channels = np.empty(labels.shape, dtype=np.int64)
        for sl, table in zip(slices, tables):
            channels[:, sl] = table[rows, labels[:, sl]]
        if all(t is None for t in traffics):
            return channels, None
        steps = labels.shape[0]
        jam = np.zeros((steps, num_trials, num_slots, n), dtype=bool)
        for sl, traffic in zip(slices, traffics):
            if traffic is not None:
                for k in range(steps):
                    jam[k, sl] = traffic.jam_mask(channels[k, sl], num_slots)
        return channels, jam.reshape(steps * num_trials, num_slots, n)

    def chunks(budget: int, num_slots: int):
        """``(steps, adjacency rows)`` per chunk of a part's budget.

        The adjacency rows are the fused ``(K·B, n, n)`` stack the
        engine resolves the chunk's steps against, step-major.
        """
        k_max = max(
            1, _CHUNK_ELEMENTS // (num_trials * n * max(n, num_slots))
        )
        adj_rows = np.tile(adjacency, (min(k_max, budget), 1, 1))
        for done in range(0, budget, k_max):
            steps = min(k_max, budget - done)
            yield steps, adj_rows[: steps * num_trials]

    counts = np.zeros((num_trials, n, c), dtype=np.float64)
    traces = [TraceRecorder() for _ in range(num_trials)]
    ledgers = [SlotLedger() for _ in range(num_trials)]
    step_starts: List[np.ndarray] = []
    # Per-chunk (K, B, n) channel snapshots, re-sliced per trial at the
    # end.
    step_channels: List[np.ndarray] = []
    slot_cursor = 0

    count_probs = count_probabilities(
        kn.max_degree, kn.log_n, proto.constants
    )
    count_slots = count_probs.size

    rng1 = [hub.generator("part1") for hub in hubs]
    with obs.span(stage):
        for steps, adj_rows in chunks(proto.part1_step_budget, count_slots):
            labels = np.empty((steps, num_trials, n), dtype=np.int64)
            # Row 0 is the role draw, rows 1.. the COUNT coins: one
            # random((T + 1, n)) is the stream of random(n) followed by
            # random((T, n)), the serial loop's draws.
            draws = np.empty((steps, num_trials, count_slots + 1, n))
            for k in range(steps):
                for b, rng in enumerate(rng1):
                    labels[k, b] = rng.integers(0, c, size=n)
                    rng.random(out=draws[k, b])
            tx_role = draws[:, :, 0] < 0.5
            coins = draws[:, :, 1:] < count_probs[:, None]
            channels, jam = chunk_inputs(labels, count_slots)
            fused = steps * num_trials
            outcome = run_count_step_batch(
                adj_rows,
                channels.reshape(fused, n),
                tx_role.reshape(fused, n),
                max_count=kn.max_degree,
                log_n=kn.log_n,
                constants=proto.constants,
                coins=coins.reshape(fused, count_slots, n),
                jam=jam,
            )
            # Estimates are 0 or powers of two, so these float sums are
            # exact integers whatever order np.add.at adds them in.
            k_idx, b_idx, u_idx = np.nonzero(~tx_role)
            np.add.at(
                counts,
                (b_idx, u_idx, labels[k_idx, b_idx, u_idx]),
                outcome.estimates.reshape(labels.shape)[k_idx, b_idx, u_idx],
            )
            starts = slot_cursor + count_slots * np.arange(steps)
            record_step_batch(
                traces, outcome.step, starts, "cseek.part1",
                channels=channels.reshape(fused, n),
            )
            step_starts.append(starts)
            step_channels.append(channels)
            slot_cursor += steps * count_slots
            for ledger in ledgers:
                ledger.charge("part1", steps * count_slots)

    discovered_part_one = [
        [set(trace.heard_by(u)) for u in range(n)] for trace in traces
    ]

    rng2 = [hub.generator("part2") for hub in hubs]
    backoff_len = kn.log_delta
    backoff_probs = backoff_probabilities(backoff_len)
    with obs.span(stage):
        for steps, adj_rows in chunks(proto.part2_step_budget, backoff_len):
            labels = np.empty((steps, num_trials, n), dtype=np.int64)
            tx_role = np.empty((steps, num_trials, n), dtype=bool)
            draws = np.empty((steps, num_trials, backoff_len, n))
            for k in range(steps):
                for b, rng in enumerate(rng2):
                    tx_role[k, b] = rng.random(n) < 0.5
                    labels[k, b] = choose_part2_labels(
                        rng, tx_role[k, b], counts[b],
                        policy=proto.part2_listener,
                    )
                    rng.random(out=draws[k, b])
            channels, jam = chunk_inputs(labels, backoff_len)
            fused = steps * num_trials
            outcome = resolve_step_batch(
                adj_rows,
                channels.reshape(fused, n),
                tx_role.reshape(fused, n),
                (draws < backoff_probs[:, None]).reshape(
                    fused, backoff_len, n
                ),
                jam=jam,
            )
            starts = slot_cursor + backoff_len * np.arange(steps)
            record_step_batch(
                traces, outcome, starts, "cseek.part2",
                channels=channels.reshape(fused, n),
            )
            step_starts.append(starts)
            step_channels.append(channels)
            slot_cursor += steps * backoff_len
            for ledger in ledgers:
                ledger.charge("part2", steps * backoff_len)

    # (S, B, n) -> per-trial (S, n) slices, matching serial vstack.
    all_channels = (
        np.concatenate(step_channels)
        if step_channels
        else np.zeros((0, num_trials, n), dtype=np.int64)
    )
    step_start_arr = (
        np.concatenate(step_starts).astype(np.int64)
        if step_starts
        else np.zeros(0, dtype=np.int64)
    )
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
