"""Trial-batched CGCAST execution (the whole-pipeline fast path).

PR 2's :class:`~repro.core.cseek_batch.CSeekBatch` batched CGCAST's
discovery phase; everything after it — meeting-time exchange, dedicated
channels, Luby coloring, color announcement, dissemination — still ran
one trial at a time in pure Python, so CGCAST sweeps (E6/E9/E11) were
bottlenecked on their cheapest stages. This module locksteps the tail
too: ``B`` homogeneous CGCAST trials execute end-to-end with

* discovery through :func:`~repro.core.cseek_batch.run_cseek_lockstep`
  (one engine call per chunk of protocol steps for the whole trial
  axis);
* the oracle meeting-time exchange and color announcement reduced to
  their deterministic ledger charges, with mutual-edge extraction and
  dedicated-channel agreement as array ops over each trial's ragged
  first-reception list (:func:`_oracle_pairings`) instead of per-trial
  dict loops;
* the Luby edge coloring serial per trial (its phase count is
  data-dependent, so there is no lockstep schedule to share — and it is
  pure Python over the tiny line graph);
* dissemination through
  :func:`~repro.core.dissemination.run_dissemination_batch` — one
  :func:`~repro.sim.engine.resolve_step_batch` call per (phase, color)
  step with per-trial channel vectors, an active-trial mask for
  per-trial ``early_stop``, and per-trial back-off streams.

Bit-exactness contract: trial ``b`` draws from its own generators
(``RngHub(seed_b)`` children ``cgcast.discovery``, ``coloring``,
``dissemination`` — plus ``cgcast.times``/``cgcast.colors`` in
simulated exchange mode) in exactly the order :meth:`CGCast.run` draws
them, so ``CGCastBatch.run(seeds)[b] == CGCast(seed=seeds[b]).run()``
field for field — including ``informed_slot``, the per-phase ledger,
``edge_colors`` and ``dedicated``. Batching is a pure throughput
decision.

In ``exchange_mode="simulated"`` the two fixed exchange executions
(meeting times, color announcement) are themselves CSEEK runs with
per-trial seeds and fixed rng labels, so they lockstep through
:class:`CSeekBatch`; payload delivery, dedicated agreement and edge
assembly then fall back to the serial per-trial implementations
(payloads may be lost, so the dense oracle shortcuts do not apply).

Cross-point batching: :func:`run_cgcast_lockstep` is the general form —
it locksteps trials of several :class:`CGCastBatch` members (one per
sweep point) that share :func:`cgcast_lockstep_signature`; member
networks may differ, in which case dissemination resolves against a
per-trial ``(B, n, n)`` adjacency stack just like discovery does.
:func:`redisseminate_batch` batches the amortized regime the same way:
one message re-disseminated over many trials' reusable schedules in
lockstep (experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cgcast import CGCast, CGCastResult, ExchangeMode
from repro import obs
from repro.core.coloring import LubyEdgeColoring, is_valid_edge_coloring
from repro.core.constants import ProtocolConstants
from repro.core.cseek import CSeekResult
from repro.core.cseek_batch import (
    CSeekBatch,
    LockstepMember,
    lockstep_signature,
    run_cseek_lockstep,
)
from repro.core.dedicated import (
    agree_dedicated_channels,
    first_heard_payloads,
)
from repro.core.dissemination import (
    DisseminationResult,
    run_dissemination_batch,
)
from repro.core.exchange import exchange_slot_cost
from repro.core.linegraph import LineGraph
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.environment import SpectrumEnvironment
from repro.sim.metrics import SlotLedger
from repro.sim.network import CRNetwork

__all__ = [
    "CGCastBatch",
    "CGCastMember",
    "cgcast_lockstep_signature",
    "redisseminate_batch",
    "run_cgcast_lockstep",
]

Edge = Tuple[int, int]


class CGCastBatch:
    """Run many homogeneous CGCAST trials in lockstep across the trial axis.

    All trials share the network, source, knowledge, constants, exchange
    mode, loss rate and early-stop policy; only the per-trial seed (and,
    through ``environment``, the per-trial primary-user occupancy of the
    discovery phase) varies. Heterogeneous sweeps belong on the serial
    or process-pool executors.

    Args:
        network: Ground-truth network shared by every trial.
        source: The node holding the message initially.
        knowledge: Global parameters; defaults to realized values.
        constants: Schedule constants; defaults to
            :meth:`ProtocolConstants.fast`.
        exchange_mode: ``"oracle"`` or ``"simulated"``, as on
            :class:`CGCast`.
        coloring_loss_rate: Exchange-loss injection inside the coloring
            loop.
        early_stop: Stop each trial's dissemination once everyone is
            informed.
        environment: Optional spectrum environment applied to the
            discovery phase, batched as in :class:`CSeekBatch`.
    """

    def __init__(
        self,
        network: CRNetwork,
        source: int = 0,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        exchange_mode: ExchangeMode = "oracle",
        coloring_loss_rate: float = 0.0,
        early_stop: bool = True,
        environment: Optional[SpectrumEnvironment] = None,
    ) -> None:
        # Delegate validation and configuration resolution to the serial
        # protocol: one source of truth for pipeline parameters.
        self._proto = CGCast(
            network,
            source=source,
            knowledge=knowledge,
            constants=constants,
            seed=0,
            exchange_mode=exchange_mode,
            coloring_loss_rate=coloring_loss_rate,
            early_stop=early_stop,
            environment=environment,
        )

    @classmethod
    def from_serial(
        cls,
        proto: CGCast,
        environment: Optional[SpectrumEnvironment] = None,
    ) -> "CGCastBatch":
        """A batch runner with a serial protocol's resolved configuration.

        The prototype's seed is irrelevant; its ``environment`` carries
        over unless an explicit one is given.
        """
        if environment is None:
            environment = proto.environment
        return cls(
            proto.network,
            source=proto.source,
            knowledge=proto.knowledge,
            constants=proto.constants,
            exchange_mode=proto.exchange_mode,
            coloring_loss_rate=proto.coloring_loss_rate,
            early_stop=proto.early_stop,
            environment=environment,
        )

    # Mirror the serial protocol's introspection surface.
    @property
    def network(self) -> CRNetwork:
        return self._proto.network

    @property
    def source(self) -> int:
        return self._proto.source

    @property
    def knowledge(self) -> ModelKnowledge:
        return self._proto.knowledge

    @property
    def constants(self) -> ProtocolConstants:
        return self._proto.constants

    @property
    def exchange_mode(self) -> ExchangeMode:
        return self._proto.exchange_mode

    @property
    def environment(self) -> Optional[SpectrumEnvironment]:
        return self._proto.environment

    # ------------------------------------------------------------------
    def run(self, seeds: Sequence[int]) -> List[CGCastResult]:
        """Execute one full CGCAST trial per seed, in lockstep.

        Returns per-trial :class:`CGCastResult` objects, in seed order,
        each bit-identical to ``CGCast(..., seed=seeds[b]).run()``. The
        single-member special case of :func:`run_cgcast_lockstep`.
        """
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ProtocolError("seeds must name at least one trial")
        return run_cgcast_lockstep([CGCastMember(self, seeds)])[0]

    # ------------------------------------------------------------------
    def _discovery_batch(self) -> CSeekBatch:
        """The lockstep runner of this batch's embedded discovery phase."""
        return CSeekBatch(
            self.network,
            knowledge=self.knowledge,
            constants=self.constants,
            rng_label="cgcast.discovery",
            environment=self.environment,
        )

    def _exchange_batch(self, rng_label: str) -> CSeekBatch:
        """The lockstep runner of one simulated-exchange execution.

        Mirrors :func:`repro.core.exchange.simulated_exchange`, which
        runs a plain unjammed CSEEK under the exchange's rng label.
        """
        return CSeekBatch(
            self.network,
            knowledge=self.knowledge,
            constants=self.constants,
            rng_label=rng_label,
        )


@dataclass
class CGCastMember:
    """One sweep point's contribution to a cross-point CGCAST lockstep run.

    Attributes:
        batch: The point's configured :class:`CGCastBatch`.
        seeds: The point's trial seeds (ragged counts welcome — the
            cross-point trial axis is the concatenation of every
            member's seeds).
    """

    batch: CGCastBatch
    seeds: Sequence[int]


def cgcast_lockstep_signature(batch: CGCastBatch) -> tuple:
    """The compatibility key members of one CGCAST lockstep run must share.

    Everything that shapes the lockstep schedule: the embedded discovery
    phase's own lockstep signature, the source, the exchange mode, the
    loss rate, the early-stop policy, and the full knowledge (the
    dissemination phase count ``D`` and the oracle exchange cost derive
    from fields the discovery signature does not pin). Networks are
    deliberately not part of the key — trials from different graphs
    resolve against per-trial adjacency stacks in both discovery and
    dissemination.
    """
    proto = batch._proto
    return (
        lockstep_signature(batch._discovery_batch()),
        proto.source,
        proto.exchange_mode,
        proto.coloring_loss_rate,
        proto.early_stop,
        proto.knowledge,
    )


def _oracle_pairings(
    result: CSeekResult,
) -> Tuple[List[Edge], Dict[Edge, int]]:
    """Mutual edges and dedicated channels of one trial, vectorized.

    Under the oracle exchange both directions of every mutual edge have
    recorded meetings and payload delivery is reliable, so the serial
    agreement (:func:`~repro.core.dedicated.agree_dedicated_channels`)
    reduces to ``slot = min(t_uv, t_vu)`` resolved against each
    endpoint's channel history. This helper performs that reduction as
    array ops over the trial's ragged first-reception list: one sort +
    searchsorted finds the mutual pairs, one gather resolves both
    endpoints' channels, and the endpoint-consistency check (an engine
    invariant, not an assumption) vectorizes into a single comparison.
    Returns the canonical sorted edge list and the dedicated map in that
    order — exactly ``CGCast._mutual_edges`` + the serial agreement.
    """
    n = len(result.discovered)
    first_heard = result.trace.first_heard
    if not first_heard:
        return [], {}
    pairs = np.array(list(first_heard.keys()), dtype=np.int64)
    slots = np.fromiter(
        (event.slot for event in first_heard.values()),
        dtype=np.int64,
        count=len(first_heard),
    )
    code = pairs[:, 0] * n + pairs[:, 1]
    order = np.argsort(code)
    sorted_code = code[order]
    sorted_slot = slots[order]
    reverse = pairs[:, 1] * n + pairs[:, 0]
    pos = np.minimum(
        np.searchsorted(sorted_code, reverse), sorted_code.size - 1
    )
    mutual = (pairs[:, 0] < pairs[:, 1]) & (sorted_code[pos] == reverse)
    if not mutual.any():
        return [], {}
    edge_u = pairs[mutual, 0]
    edge_v = pairs[mutual, 1]
    t_uv = slots[mutual]
    t_vu = sorted_slot[pos[mutual]]
    # Canonical order (sorted by (u, v)), matching _mutual_edges.
    rank = np.lexsort((edge_v, edge_u))
    edge_u, edge_v = edge_u[rank], edge_v[rank]
    slot = np.minimum(t_uv, t_vu)[rank]
    step = (
        np.searchsorted(result.step_start_slots, slot, side="right") - 1
    )
    channel_u = result.step_channels[step, edge_u]
    channel_v = result.step_channels[step, edge_v]
    bad = np.nonzero(channel_u != channel_v)[0]
    if bad.size:
        i = int(bad[0])
        raise ProtocolError(
            f"endpoints of edge ({int(edge_u[i])}, {int(edge_v[i])}) "
            f"derived different channels ({int(channel_u[i])} vs "
            f"{int(channel_v[i])}) for slot {int(slot[i])}; engine "
            "invariant violated"
        )
    edges = list(zip(edge_u.tolist(), edge_v.tolist()))
    dedicated = dict(zip(edges, channel_u.tolist()))
    return edges, dedicated


def _simulated_payload_maps(
    results: Sequence[CSeekResult],
    payloads_per_trial: Sequence[Sequence[object]],
) -> List[List[Dict[int, object]]]:
    """Per-trial exchange deliveries, as simulated_exchange maps them."""
    out: List[List[Dict[int, object]]] = []
    for result, payloads in zip(results, payloads_per_trial):
        out.append(
            [
                {v: payloads[v] for v in sorted(result.discovered[u])}
                for u in range(len(result.discovered))
            ]
        )
    return out


def run_cgcast_lockstep(
    members: Sequence[CGCastMember],
) -> List[List[CGCastResult]]:
    """Run every member's CGCAST trials in one cross-point lockstep run.

    All members must share :func:`cgcast_lockstep_signature`; their
    networks and environments may differ. Discovery resolves through
    :func:`run_cseek_lockstep` over the concatenated trial axis, and
    dissemination through :func:`run_dissemination_batch` — against a
    shared adjacency when every member's network coincides (the
    single-point case) or a per-trial ``(B, n, n)`` stack otherwise.
    Per trial, generator draws and bookkeeping are exactly those of
    :meth:`CGCast.run`, so results are bit-identical to the serial
    protocol member by member.

    Returns:
        One result list per member, in member order, each in the
        member's seed order.
    """
    if not members:
        raise ProtocolError("lockstep run needs at least one member")
    signature = cgcast_lockstep_signature(members[0].batch)
    for member in members[1:]:
        other = cgcast_lockstep_signature(member.batch)
        if other != signature:
            raise ProtocolError(
                "lockstep members must share a compatibility signature "
                "(discovery schedule, source, exchange mode, loss rate, "
                f"early stop, knowledge); got {other} vs {signature}"
            )
    seed_lists = [[int(s) for s in m.seeds] for m in members]
    if any(not seeds for seeds in seed_lists):
        raise ProtocolError("seeds must name at least one trial")

    proto = members[0].batch._proto
    kn = proto.knowledge
    consts = proto.constants
    mode = proto.exchange_mode
    n = proto.network.n
    per_member = [len(seeds) for seeds in seed_lists]
    num_trials = sum(per_member)
    offsets = np.concatenate([[0], np.cumsum(per_member)])
    slices = [
        slice(int(offsets[j]), int(offsets[j + 1]))
        for j in range(len(members))
    ]

    # 1. Discovery ----------------------------------------------------
    # One cross-point CSEEK lockstep: members share the discovery
    # signature by construction (it is part of the CGCAST signature).
    discoveries = run_cseek_lockstep(
        [
            LockstepMember(m.batch._discovery_batch(), seeds)
            for m, seeds in zip(members, seed_lists)
        ]
    )
    flat_discovery: List[CSeekResult] = [
        result for member_results in discoveries for result in member_results
    ]
    flat_seeds: List[int] = [s for seeds in seed_lists for s in seeds]

    ledgers = [SlotLedger() for _ in range(num_trials)]
    for ledger, discovery in zip(ledgers, flat_discovery):
        ledger.merge(discovery.ledger, prefix="discovery.")

    # 2. Meeting-time exchange + dedicated channels -------------------
    mutual_edges: List[List[Edge]] = []
    dedicated: List[Dict[Edge, int]] = []
    if mode == "oracle":
        # The oracle exchange is deterministic, reliable delivery along
        # discovered pairs: nothing to simulate, only the slot charge —
        # and with both directions' meetings present, the per-edge
        # agreement collapses to the vectorized pairing. (The simulated
        # branch records its span inside the relabelled CSEEK runner.)
        with obs.span("oracle_exchange"):
            cost = exchange_slot_cost(kn, consts)
            for ledger in ledgers:
                ledger.charge("exchange", cost)
            for discovery in flat_discovery:
                edges, channels = _oracle_pairings(discovery)
                mutual_edges.append(edges)
                dedicated.append(channels)
    else:
        times_results = _run_exchange_lockstep(
            members, seed_lists, "cgcast.times"
        )
        payloads = [first_heard_payloads(d) for d in flat_discovery]
        received_times = _simulated_payload_maps(times_results, payloads)
        for ledger, result in zip(ledgers, times_results):
            ledger.charge("exchange", result.total_slots)
        for b, discovery in enumerate(flat_discovery):
            edges = CGCast._mutual_edges(discovery.discovered)
            mutual_edges.append(edges)
            dedicated.append(
                agree_dedicated_channels(
                    discovery, edges, received_times[b]
                )
            )

    # 3. Edge coloring (serial per trial: phase counts are
    # data-dependent, so there is no shared lockstep schedule) --------
    colorings = []
    with obs.span("luby_coloring"):
        for b, (seed, edges) in enumerate(zip(flat_seeds, mutual_edges)):
            net_b = _member_network(members, slices, b)
            coloring = LubyEdgeColoring(
                LineGraph.from_edges(edges),
                kn,
                constants=consts,
                seed=seed,
                loss_rate=proto.coloring_loss_rate,
                exchange_mode=mode,
                network=net_b if mode == "simulated" else None,
            ).run()
            ledgers[b].merge(coloring.ledger)
            colorings.append(coloring)

    # 4. Color announcement -------------------------------------------
    edge_colors_list: List[Dict[Edge, int]] = []
    if mode == "oracle":
        # Reliable delivery means the far endpoint of every colored
        # edge learns its color, so assembly is the identity on the
        # simulator-held colors; only the exchange cost remains.
        with obs.span("oracle_exchange"):
            cost = exchange_slot_cost(kn, consts)
            for ledger in ledgers:
                ledger.charge("exchange", cost)
            for coloring in colorings:
                edge_colors_list.append(dict(coloring.colors))
    else:
        color_results = _run_exchange_lockstep(
            members, seed_lists, "cgcast.colors"
        )
        color_payloads: List[List[Dict[Edge, int]]] = []
        for coloring in colorings:
            per_node: List[Dict[Edge, int]] = [{} for _ in range(n)]
            for edge, color in coloring.colors.items():
                per_node[min(edge)][edge] = color
            color_payloads.append(per_node)
        announced = _simulated_payload_maps(color_results, color_payloads)
        for b, (ledger, result) in enumerate(
            zip(ledgers, color_results)
        ):
            ledger.charge("exchange", result.total_slots)
            edge_colors_list.append(
                CGCast._assemble_edge_colors(
                    colorings[b].colors, announced[b], n
                )
            )
    coloring_valid = [
        is_valid_edge_coloring(edge_colors, edges)
        for edge_colors, edges in zip(edge_colors_list, mutual_edges)
    ]

    # 5. Dissemination ------------------------------------------------
    pre_slots = [ledger.total for ledger in ledgers]
    adjacency = _stacked_adjacency(members, per_member)
    dissemination = run_dissemination_batch(
        adjacency,
        proto.source,
        edge_colors_list,
        dedicated,
        knowledge=kn,
        constants=consts,
        seeds=flat_seeds,
        early_stop=proto.early_stop,
    )

    results: List[List[CGCastResult]] = []
    for j, sl in enumerate(slices):
        member_results: List[CGCastResult] = []
        for b in range(sl.start, sl.stop):
            ledgers[b].merge(dissemination[b].ledger)
            informed_slot = dissemination[b].informed_slot.copy()
            informed_slot[informed_slot >= 0] += pre_slots[b]
            informed_slot[proto.source] = 0
            member_results.append(
                CGCastResult(
                    informed=dissemination[b].informed,
                    informed_slot=informed_slot,
                    ledger=ledgers[b],
                    discovery=flat_discovery[b],
                    coloring=colorings[b],
                    coloring_valid=coloring_valid[b],
                    dissemination=dissemination[b],
                    edge_colors=edge_colors_list[b],
                    dedicated=dedicated[b],
                )
            )
        results.append(member_results)
    return results


def _member_network(
    members: Sequence[CGCastMember],
    slices: Sequence[slice],
    b: int,
) -> CRNetwork:
    """The network trial ``b`` of the concatenated axis belongs to."""
    for member, sl in zip(members, slices):
        if sl.start <= b < sl.stop:
            return member.batch.network
    raise ProtocolError(f"trial index {b} outside the lockstep axis")


def _stacked_adjacency(
    members: Sequence[CGCastMember], per_member: Sequence[int]
) -> np.ndarray:
    """Shared ``(n, n)`` adjacency, or a ``(B, n, n)`` per-trial stack."""
    adjacencies = [m.batch.network.adjacency for m in members]
    if all(
        a is adjacencies[0] or np.array_equal(a, adjacencies[0])
        for a in adjacencies[1:]
    ):
        return adjacencies[0]
    n = adjacencies[0].shape[0]
    return np.concatenate(
        [
            np.broadcast_to(adj, (cnt, n, n))
            for adj, cnt in zip(adjacencies, per_member)
        ]
    )


def _run_exchange_lockstep(
    members: Sequence[CGCastMember],
    seed_lists: Sequence[List[int]],
    rng_label: str,
) -> List[CSeekResult]:
    """One simulated-exchange CSEEK execution per trial, locksteped.

    Returns results over the concatenated trial axis, each bit-identical
    to the CSEEK run :func:`~repro.core.exchange.simulated_exchange`
    performs for that trial's seed under ``rng_label``.
    """
    raw = run_cseek_lockstep(
        [
            LockstepMember(m.batch._exchange_batch(rng_label), seeds)
            for m, seeds in zip(members, seed_lists)
        ]
    )
    return [result for member_results in raw for result in member_results]


def redisseminate_batch(
    network: CRNetwork,
    setups: Sequence[CGCastResult],
    sources: Union[int, Sequence[int]],
    seeds: Sequence[int],
    knowledge: Optional[ModelKnowledge] = None,
    constants: Optional[ProtocolConstants] = None,
    early_stop: bool = True,
) -> List[DisseminationResult]:
    """Broadcast another message over many existing CGCAST schedules.

    The batched counterpart of :func:`repro.core.cgcast.redisseminate`:
    trial ``b`` re-disseminates over ``setups[b]``'s reusable artifacts
    with seed ``seeds[b]``, and all trials run in lockstep through
    :func:`~repro.core.dissemination.run_dissemination_batch` — the
    amortized regime of experiment E11, swept across the trial axis.
    Result ``b`` is bit-identical to the serial ``redisseminate`` call
    with the same arguments.

    Raises:
        ProtocolError: if any setup's coloring was not proper (a broken
            schedule must not be silently reused).
    """
    for setup in setups:
        if not setup.coloring_valid:
            raise ProtocolError(
                "cannot reuse a CGCAST setup whose coloring was invalid"
            )
    if len(setups) != len(seeds):
        raise ProtocolError(
            f"need one setup per seed ({len(seeds)}), got {len(setups)}"
        )
    kn = knowledge or network.knowledge()
    return run_dissemination_batch(
        network.adjacency,
        sources,
        [setup.edge_colors for setup in setups],
        [setup.dedicated for setup in setups],
        knowledge=kn,
        constants=constants,
        seeds=seeds,
        early_stop=early_stop,
    )
