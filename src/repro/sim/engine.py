"""Vectorized synchronous slot engine.

This module implements the paper's communication model (Section 3) as
pure functions over numpy arrays:

* time is divided into discrete slots;
* in a slot, each transceiver tunes to (at most) one channel and either
  broadcasts or listens;
* a listener hears a message iff **exactly one** of its graph neighbors
  broadcasts on its channel in that slot — silence and collisions are
  indistinguishable (no collision detection);
* broadcasters receive nothing (they only "hear" their own message).

Four entry points:

:func:`resolve_slot`
    One slot with explicit per-node channel and broadcast decisions.
:func:`resolve_step`
    A *step*: a batch of ``T`` slots during which channels and roles are
    fixed and only the per-slot broadcast coins vary (this is exactly the
    structure of COUNT rounds and of CSEEK part-two back-off windows).
    Resolved with two matrix products, which is what makes full protocol
    executions tractable in pure Python.
:func:`resolve_step_batch`
    A *trial axis* on top of :func:`resolve_step`: ``B`` independent
    Monte Carlo trials of the same step, sharing one adjacency, resolved
    with a single batched matmul/einsum over ``(B, T, n)`` coins. This
    is the vectorized backbone of homogeneous-trial experiments (E1's
    COUNT sweeps, isolated CSEEK back-off windows), where the per-trial
    loop — not the per-slot loop — is the hot path. Entry ``[b]`` of the
    result is bit-identical to a serial :func:`resolve_step` call on
    trial ``b``'s inputs.
:func:`resolve_varying`
    ``T`` slots in which every node re-tunes and re-rolls its role each
    slot (the naive baselines). There is no fixed-channel step to build
    one mask for, so it works from the transmit events instead: each
    transmitting ``(slot, node)`` is expanded against its adjacency
    column, same-channel receivers are kept, and ``bincount`` reductions
    over ``(slot, receiver)`` give contenders and id-sums. Its cost
    follows the ``~T * n / Delta`` events of the naive hopper, not
    ``T * n^2``.

:func:`resolve_step_batch` additionally accepts a *per-trial* ``(B, n,
n)`` adjacency stack, which is what lets one lockstep execution span
several sweep points (cross-point batching): trials from different
networks ride one batched resolve, each against its own graph.

The per-step arithmetic — the contender-count and id-sum products —
is two float64 BLAS GEMMs in :class:`repro.sim.backend.NumpyBackend`;
every product is an exact integer, so blocking never changes results.

Identity convention: nodes are identified by their index ``0 .. n-1``;
``-1`` means "heard nothing" (silence or collision) in outputs and
"idle / no channel" in channel inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.model.errors import ProtocolError
from repro.sim.backend import BACKEND

__all__ = [
    "BatchStepOutcome",
    "SlotOutcome",
    "StepOutcome",
    "resolve_slot",
    "resolve_step",
    "resolve_step_batch",
    "resolve_varying",
]


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one slot.

    Attributes:
        heard_from: ``(n,)`` int array; ``heard_from[u]`` is the id of the
            unique neighbor whose message ``u`` received this slot, or
            ``-1`` (silence, collision, idle, or ``u`` was broadcasting).
        contenders: ``(n,)`` int array; the number of neighbors of ``u``
            broadcasting on ``u``'s channel (diagnostic ground truth —
            nodes themselves can not observe it, they only see
            message/no-message).
    """

    heard_from: np.ndarray
    contenders: np.ndarray


@dataclass(frozen=True)
class StepOutcome:
    """Result of a fixed-channel, fixed-role batch of ``T`` slots.

    Attributes:
        heard_from: ``(T, n)`` int array; entry ``[t, u]`` is the sender
            ``u`` received in slot ``t`` of the step, or ``-1``.
        contenders: ``(T, n)`` int array of broadcasting-neighbor counts
            (ground-truth diagnostic).
    """

    heard_from: np.ndarray
    contenders: np.ndarray

    @property
    def num_slots(self) -> int:
        return int(self.heard_from.shape[0])

    def heard_sets(self) -> list[set[int]]:
        """Per-node sets of distinct senders heard during the step.

        Vectorized: one ``nonzero`` + ``unique`` over the receptions
        instead of a per-node column scan, so the cost scales with the
        number of receptions rather than ``T * n``.
        """
        n = self.heard_from.shape[1]
        slots, listeners = np.nonzero(self.heard_from >= 0)
        senders = self.heard_from[slots, listeners]
        pairs = np.unique(
            np.stack([listeners, senders.astype(np.int64)], axis=1), axis=0
        )
        # pairs is lexicographically sorted, so each listener's senders
        # form a contiguous block.
        splits = np.searchsorted(pairs[:, 0], np.arange(1, n))
        return [
            set(group.tolist())
            for group in np.split(pairs[:, 1], splits)
        ]


@dataclass(frozen=True)
class BatchStepOutcome:
    """Result of ``B`` independent trials of a fixed-channel step.

    Attributes:
        heard_from: ``(B, T, n)`` int array; entry ``[b, t, u]`` is the
            sender ``u`` received in slot ``t`` of trial ``b``, or ``-1``.
        contenders: ``(B, T, n)`` int array of broadcasting-neighbor
            counts (ground-truth diagnostic).
    """

    heard_from: np.ndarray
    contenders: np.ndarray

    @property
    def num_trials(self) -> int:
        return int(self.heard_from.shape[0])

    @property
    def num_slots(self) -> int:
        return int(self.heard_from.shape[1])

    def trial(self, b: int) -> StepOutcome:
        """Trial ``b``'s slice as a plain :class:`StepOutcome`."""
        return StepOutcome(
            heard_from=self.heard_from[b], contenders=self.contenders[b]
        )


def _validate_common(
    adjacency: np.ndarray, channels: np.ndarray, n_expected: int | None = None
) -> int:
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ProtocolError(
            f"adjacency must be square, got shape {adjacency.shape}"
        )
    n = adjacency.shape[0]
    if channels.shape != (n,):
        raise ProtocolError(
            f"channels must have shape ({n},), got {channels.shape}"
        )
    if n_expected is not None and n != n_expected:
        raise ProtocolError(f"expected {n_expected} nodes, got {n}")
    return n


def _reception_matrix(
    adjacency: np.ndarray, channels: np.ndarray, tx_role: np.ndarray
) -> np.ndarray:
    """Boolean ``(n, n)``: ``[u, v]`` = "v's broadcasts reach u".

    True iff ``v`` is a neighbor of ``u``, both are tuned to the same
    (non-idle) channel, and ``v`` holds the broadcaster role this step.
    """
    tuned = channels >= 0
    same = channels[:, None] == channels[None, :]
    mask = adjacency & same
    mask &= tuned[:, None] & tuned[None, :]
    mask &= tx_role[None, :]
    return mask


#: Memoized reception matrices: (adjacency, channels bytes, tx bytes,
#: reach). Serial protocol loops (COUNT trials on one star, repeated
#: fixed-channel steps) rebuild the identical mask every call; returning
#: the *same object* also lets NumpyBackend reuse its float64
#: casts. Adjacency matches by identity (entries hold strong
#: references, so an id can never be reused while cached); channels and
#: roles match by content, since callers often rebuild those small
#: arrays. The sim layer never mutates an adjacency in place — the one
#: assumption this cache leans on.
_REACH_CACHE: List[Tuple[np.ndarray, bytes, bytes, np.ndarray]] = []
_REACH_CACHE_ENTRIES = 8


def _cached_reception_matrix(
    adjacency: np.ndarray, channels: np.ndarray, tx_role: np.ndarray
) -> np.ndarray:
    """:func:`_reception_matrix`, memoized for repeated step inputs."""
    ch_key = channels.tobytes()
    tx_key = tx_role.tobytes()
    for i, (adj, ch, tx, reach) in enumerate(_REACH_CACHE):
        if adj is adjacency and ch == ch_key and tx == tx_key:
            if i:
                _REACH_CACHE.insert(0, _REACH_CACHE.pop(i))
            obs.count("engine.reach_cache.hits")
            return reach
    obs.count("engine.reach_cache.misses")
    reach = _reception_matrix(adjacency, channels, tx_role)
    _REACH_CACHE.insert(0, (adjacency, ch_key, tx_key, reach))
    if len(_REACH_CACHE) > _REACH_CACHE_ENTRIES:
        obs.count(
            "engine.reach_cache.evictions",
            len(_REACH_CACHE) - _REACH_CACHE_ENTRIES,
        )
    del _REACH_CACHE[_REACH_CACHE_ENTRIES:]
    return reach


def resolve_slot(
    adjacency: np.ndarray, channels: np.ndarray, tx: np.ndarray
) -> SlotOutcome:
    """Resolve a single slot.

    Args:
        adjacency: ``(n, n)`` boolean adjacency matrix.
        channels: ``(n,)`` global channel per node, ``-1`` for idle.
        tx: ``(n,)`` boolean; True = broadcasting this slot (on its
            channel), False = listening.

    Returns:
        A :class:`SlotOutcome` with reception results.
    """
    n = _validate_common(adjacency, channels)
    if tx.shape != (n,):
        raise ProtocolError(f"tx must have shape ({n},), got {tx.shape}")
    # A single slot is a step of length one in which every broadcaster's
    # coin comes up "transmit"; reuse the batched path.
    coins = np.ones((1, n), dtype=bool)
    step = resolve_step(adjacency, channels, tx, coins)
    return SlotOutcome(
        heard_from=step.heard_from[0], contenders=step.contenders[0]
    )


def resolve_step(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    coins: np.ndarray,
    jam: np.ndarray | None = None,
) -> StepOutcome:
    """Resolve a step of ``T`` slots with fixed channels and roles.

    Args:
        adjacency: ``(n, n)`` boolean adjacency matrix.
        channels: ``(n,)`` global channel per node (fixed for the step),
            ``-1`` for idle.
        tx_role: ``(n,)`` boolean; True = broadcaster for this step,
            False = listener. Listeners listen in every slot;
            broadcasters transmit in slot ``t`` iff ``coins[t, u]`` and
            otherwise stay silent (they never listen mid-step, matching
            COUNT and the part-two back-off of CSEEK).
        coins: ``(T, n)`` boolean per-slot transmission coins.
        jam: Optional ``(T, n)`` boolean; True kills node ``u``'s
            reception in slot ``t`` (its channel is occupied by a
            primary user — the signal is noise, indistinguishable from
            silence).

    Returns:
        A :class:`StepOutcome`; ``heard_from[t, u] >= 0`` only for
        listeners with exactly one broadcasting neighbor on their channel.
    """
    n = _validate_common(adjacency, channels)
    if tx_role.shape != (n,):
        raise ProtocolError(
            f"tx_role must have shape ({n},), got {tx_role.shape}"
        )
    if coins.ndim != 2 or coins.shape[1] != n:
        raise ProtocolError(
            f"coins must have shape (T, {n}), got {coins.shape}"
        )
    if jam is not None and jam.shape != coins.shape:
        raise ProtocolError(
            f"jam must have shape {coins.shape}, got {jam.shape}"
        )
    reach = _cached_reception_matrix(adjacency, channels, tx_role)
    # contenders[t, u] = number of u's neighbors transmitting on u's
    # channel in slot t; idsum is the id-sum trick — when exactly one
    # neighbor transmits, the weighted sum of transmitting-neighbor ids
    # *is* the sender's id. Both are exact integers < n^2, so the
    # float64 GEMMs compute them without rounding.
    obs.count("engine.resolve_step_calls")
    with obs.span("gemm"):
        contenders, idsum = BACKEND.step_products(reach, coins)
    listeners = (channels >= 0) & ~tx_role
    receivable = listeners[None, :] & (contenders == 1)
    if jam is not None:
        receivable &= ~jam
    heard = np.where(receivable, idsum, np.int64(-1))
    return StepOutcome(heard_from=heard, contenders=contenders)


def resolve_step_batch(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    coins: np.ndarray,
    jam: np.ndarray | None = None,
) -> BatchStepOutcome:
    """Resolve ``B`` independent trials of a step in one shot.

    Channels and roles are either shared by every trial (1-D inputs —
    the homogeneous fast path: the trial and slot axes flatten into one
    blocked GEMM) or per-trial (2-D inputs, resolved with batched
    per-trial reception masks). The adjacency is likewise shared
    (``(n, n)``) or per-trial (``(B, n, n)`` — the cross-point batching
    path, where trials of several sweep points, each with its own
    network, resolve in lockstep; per-trial adjacency requires the
    per-trial mask path, so channels/roles broadcast to 2-D). Per-slot
    coins always vary per trial.

    Args:
        adjacency: ``(n, n)`` shared or ``(B, n, n)`` per-trial boolean
            adjacency.
        channels: ``(n,)`` shared or ``(B, n)`` per-trial global channel
            per node, ``-1`` for idle.
        tx_role: ``(n,)`` shared or ``(B, n)`` per-trial broadcaster
            roles.
        coins: ``(B, T, n)`` boolean per-trial per-slot transmission
            coins.
        jam: Optional ``(B, T, n)`` boolean reception-kill mask.

    Returns:
        A :class:`BatchStepOutcome`; slice ``b`` is bit-identical to
        ``resolve_step`` on trial ``b``'s inputs (its own adjacency
        when per-trial).
    """
    if adjacency.ndim not in (2, 3) or (
        adjacency.shape[-1] != adjacency.shape[-2]
    ):
        raise ProtocolError(
            f"adjacency must be square (optionally batched), got shape "
            f"{adjacency.shape}"
        )
    n = adjacency.shape[-1]
    if coins.ndim != 3 or coins.shape[2] != n:
        raise ProtocolError(
            f"coins must have shape (B, T, {n}), got {coins.shape}"
        )
    b = coins.shape[0]
    if adjacency.ndim == 3 and adjacency.shape[0] != b:
        raise ProtocolError(
            f"per-trial adjacency must have shape ({b}, {n}, {n}), "
            f"got {adjacency.shape}"
        )
    if channels.shape not in ((n,), (b, n)):
        raise ProtocolError(
            f"channels must have shape ({n},) or ({b}, {n}), "
            f"got {channels.shape}"
        )
    if tx_role.shape not in ((n,), (b, n)):
        raise ProtocolError(
            f"tx_role must have shape ({n},) or ({b}, {n}), "
            f"got {tx_role.shape}"
        )
    if jam is not None and jam.shape != coins.shape:
        raise ProtocolError(
            f"jam must have shape {coins.shape}, got {jam.shape}"
        )
    t_slots = coins.shape[1]
    if channels.ndim == 1 and tx_role.ndim == 1 and adjacency.ndim == 2:
        # Homogeneous trials: one shared (n, n) reception mask; the
        # trial and slot axes flatten into one (B*T, n) product (the
        # GEMM rows are blocked to stay cache-resident).
        reach = _cached_reception_matrix(adjacency, channels, tx_role)
        flat = coins.reshape(b * t_slots, n)
        obs.count("engine.resolve_step_batch_calls")
        with obs.span("gemm"):
            contenders, idsum = BACKEND.step_products(reach, flat)
        contenders = contenders.reshape(b, t_slots, n)
        idsum = idsum.reshape(b, t_slots, n)
        listeners = (channels >= 0) & ~tx_role
        receivable = listeners[None, None, :] & (contenders == 1)
    else:
        channels2 = np.broadcast_to(np.atleast_2d(channels), (b, n))
        tx_role2 = np.broadcast_to(np.atleast_2d(tx_role), (b, n))
        adjacency3 = (
            adjacency[None, :, :] if adjacency.ndim == 2 else adjacency
        )
        tuned = channels2 >= 0
        # reach[b, u, v]: v's trial-b broadcasts reach u (against trial
        # b's own adjacency when the stack is per-trial).
        reach = (
            (channels2[:, :, None] == channels2[:, None, :])
            & adjacency3
            & tuned[:, :, None]
            & tuned[:, None, :]
            & tx_role2[:, None, :]
        )
        obs.count("engine.resolve_step_batch_calls")
        with obs.span("gemm"):
            contenders, idsum = BACKEND.batch_step_products(reach, coins)
        listeners = tuned & ~tx_role2
        receivable = listeners[:, None, :] & (contenders == 1)
    if jam is not None:
        receivable = receivable & ~jam
    heard = np.where(receivable, idsum, np.int64(-1))
    return BatchStepOutcome(heard_from=heard, contenders=contenders)


def resolve_varying(
    adjacency: np.ndarray,
    channels: np.ndarray,
    tx: np.ndarray,
) -> StepOutcome:
    """Resolve ``T`` slots in which channels change every slot.

    Used by the naive baselines, whose nodes re-hop on every slot (no
    fixed-channel step structure to batch over). Resolved from the
    transmit events rather than dense per-slot masks: each transmitting
    ``(t, v)`` expands against ``v``'s adjacency column, receivers on
    ``v``'s slot-``t`` channel are kept, and two ``bincount`` reductions
    over ``(t, u)`` give the contender counts and the id-sums. The work
    scales with the events and their degrees, not with ``T * n^2``.

    Args:
        adjacency: ``(n, n)`` boolean adjacency matrix.
        channels: ``(T, n)`` global channel per node per slot (``-1``
            idle).
        tx: ``(T, n)`` boolean; True = broadcasting that slot.

    Returns:
        A :class:`StepOutcome` over all ``T`` slots (``T`` may be 0).
    """
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ProtocolError(
            f"adjacency must be square, got shape {adjacency.shape}"
        )
    n = adjacency.shape[0]
    if channels.ndim != 2 or channels.shape[1] != n:
        raise ProtocolError(
            f"channels must have shape (T, {n}), got {channels.shape}"
        )
    if tx.shape != channels.shape:
        raise ProtocolError(
            f"tx shape {tx.shape} must match channels {channels.shape}"
        )
    total = channels.shape[0]
    t, v = np.nonzero(tx & (channels >= 0))
    # (event, u) pairs with adjacency[u, v]: v's broadcast reaches u if
    # u is tuned to v's channel that slot (so idle nodes count none).
    event, u = np.nonzero(adjacency.T[v])
    t, v = t[event], v[event]
    same = channels[t, u] == channels[t, v]
    cell = t[same] * n + u[same]
    contenders = np.bincount(cell, minlength=total * n)
    idsum = np.bincount(cell, weights=v[same], minlength=total * n)
    contenders = contenders.reshape(total, n).astype(np.int64, copy=False)
    # The id-sum trick: with exactly one contender the (exact, < n^2)
    # weighted sum is that sender's id.
    receivable = ~tx & (contenders == 1)
    heard = np.where(receivable, idsum.reshape(total, n), -1)
    return StepOutcome(heard_from=heard.astype(np.int64), contenders=contenders)
