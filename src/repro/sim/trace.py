"""Reception tracing.

A :class:`TraceRecorder` captures *who heard whom when* during a protocol
execution. Protocols feed it step outcomes; experiments use it to compute
time-to-completion (e.g. "the slot at which the last node discovered its
last neighbor"), which is the tight empirical counterpart of the paper's
schedule-length bounds.

Recording distinct-first receptions only keeps traces small even for long
runs: the recorder stores the first slot each ordered pair ``(listener,
sender)`` was heard, plus optional full event logs when ``verbose``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.engine import BatchStepOutcome, StepOutcome

__all__ = ["ReceptionEvent", "TraceRecorder", "record_step_batch"]


@dataclass(frozen=True)
class ReceptionEvent:
    """One successful reception.

    Attributes:
        slot: Global slot index at which the message was heard.
        listener: Receiving node id.
        sender: Broadcasting node id.
        channel: Global channel id the exchange happened on (``-1`` if the
            caller did not supply channels).
        phase: Protocol phase label.
    """

    slot: int
    listener: int
    sender: int
    channel: int
    phase: str


@dataclass
class TraceRecorder:
    """Accumulates reception events across protocol phases.

    Attributes:
        verbose: When True, every reception is stored as an event; when
            False only first receptions per ordered pair are kept.
    """

    verbose: bool = False
    first_heard: Dict[Tuple[int, int], ReceptionEvent] = field(
        default_factory=dict
    )
    events: List[ReceptionEvent] = field(default_factory=list)

    def record_step(
        self,
        outcome: StepOutcome,
        start_slot: int,
        phase: str,
        channels: Optional[np.ndarray] = None,
    ) -> None:
        """Ingest a :class:`StepOutcome` whose first slot is ``start_slot``.

        Args:
            outcome: Engine result for the step.
            start_slot: Global slot index of the step's slot 0.
            phase: Phase label for bookkeeping.
            channels: Optional ``(n,)`` global channel per node during the
                step (fixed-channel steps), used to annotate events.
        """
        heard = outcome.heard_from
        slots, listeners = np.nonzero(heard >= 0)
        if slots.size == 0:
            return
        senders = heard[slots, listeners]
        if self.verbose:
            for t, u, s in zip(
                slots.tolist(), listeners.tolist(), senders.tolist()
            ):
                self.events.append(
                    ReceptionEvent(
                        slot=start_slot + t,
                        listener=u,
                        sender=s,
                        channel=int(channels[u]) if channels is not None else -1,
                        phase=phase,
                    )
                )
        # Vectorized first-reception extraction: slot order is already
        # ascending within np.nonzero output (row-major), so np.unique's
        # first occurrence per (listener, sender) key is the earliest.
        n = heard.shape[1]
        keys = listeners.astype(np.int64) * n + senders.astype(np.int64)
        _, first_idx = np.unique(keys, return_index=True)
        for i in first_idx.tolist():
            key = (int(listeners[i]), int(senders[i]))
            if key in self.first_heard:
                continue
            u = key[0]
            self.first_heard[key] = ReceptionEvent(
                slot=start_slot + int(slots[i]),
                listener=u,
                sender=key[1],
                channel=int(channels[u]) if channels is not None else -1,
                phase=phase,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def first_reception(self, listener: int, sender: int) -> Optional[ReceptionEvent]:
        """First time ``listener`` heard ``sender``, or None."""
        return self.first_heard.get((listener, sender))

    def heard_by(self, listener: int) -> List[int]:
        """Sorted sender ids that ``listener`` has heard at least once."""
        return sorted(s for (u, s) in self.first_heard if u == listener)

    def completion_slot(self) -> Optional[int]:
        """Slot of the last *first* reception (None if nothing was heard).

        For discovery protocols this is the empirical time-to-completion:
        after this slot no listener learns anything new.
        """
        if not self.first_heard:
            return None
        return max(e.slot for e in self.first_heard.values())

    def reception_count(self) -> int:
        """Number of distinct ordered ``(listener, sender)`` pairs heard."""
        return len(self.first_heard)


def record_step_batch(
    recorders: Sequence[TraceRecorder],
    outcome: BatchStepOutcome,
    start_slot: Union[int, Sequence[int], np.ndarray],
    phase: str,
    channels: Optional[np.ndarray] = None,
) -> None:
    """Ingest batched steps into per-trial recorders in a single pass.

    The outcome's rows are either one step of ``B`` trials (an int
    ``start_slot``) or ``S`` consecutive steps of ``B`` trials each,
    step-major — row ``s * B + b`` is step ``s`` of trial ``b``, and
    ``start_slot`` holds each step's first global slot. Equivalent to
    ``recorders[b].record_step(...)`` on every row in row order, so each
    recorder's ``first_heard`` gains its new pairs step by step, each
    step's in ``(listener, sender)`` order. The reception scan (the cost
    that dominates protocol bookkeeping once the engine is batched) runs
    once over the whole ``(S·B, T, n)`` block instead of once per row.
    Verbose recorders fall back to the per-row path — event logs need
    every reception, not just firsts.

    Args:
        recorders: One recorder per trial (length ``B``).
        outcome: Batched engine result, ``S·B`` rows.
        start_slot: Global slot index of slot 0 of each step, shared by
            all trials (they run in lockstep): an int for one step, or
            a length-``S`` sequence.
        phase: Phase label for bookkeeping.
        channels: Optional ``(S·B, n)`` per-row global channels, used
            to annotate events.
    """
    heard = outcome.heard_from
    num_trials = len(recorders)
    starts = np.atleast_1d(np.asarray(start_slot, dtype=np.int64))
    if heard.shape[0] != starts.size * num_trials:
        raise ValueError(
            f"{num_trials} recorders x {starts.size} steps for "
            f"{heard.shape[0]} rows"
        )
    if any(rec.verbose for rec in recorders):
        for row in range(heard.shape[0]):
            step, b = divmod(row, num_trials)
            recorders[b].record_step(
                outcome.trial(row),
                int(starts[step]),
                phase,
                channels=channels[row] if channels is not None else None,
            )
        return
    rows, slots, listeners = np.nonzero(heard >= 0)
    if rows.size == 0:
        return
    senders = heard[rows, slots, listeners]
    steps, trials = np.divmod(rows, num_trials)
    # np.nonzero walks row-major — (step, trial, slot, listener)
    # ascending — so np.unique's first occurrence per (trial, listener,
    # sender) key is that trial's earliest reception, as in record_step.
    n = heard.shape[2]
    keys = (trials * n + listeners) * n + senders
    _, first_idx = np.unique(keys, return_index=True)
    # np.unique leaves the firsts in key order; a stable sort by step
    # restores the per-step insertion order of serial recording.
    first_idx = first_idx[np.argsort(steps[first_idx], kind="stable")]
    event_slots = starts[steps[first_idx]] + slots[first_idx]
    event_channels = (
        channels[rows[first_idx], listeners[first_idx]]
        if channels is not None
        else np.full(first_idx.size, -1)
    )
    for b, u, s, slot, ch in zip(
        trials[first_idx].tolist(),
        listeners[first_idx].tolist(),
        senders[first_idx].tolist(),
        event_slots.tolist(),
        event_channels.tolist(),
    ):
        first_heard = recorders[b].first_heard
        if (u, s) in first_heard:
            continue
        first_heard[(u, s)] = ReceptionEvent(
            slot=slot, listener=u, sender=s, channel=ch, phase=phase
        )
