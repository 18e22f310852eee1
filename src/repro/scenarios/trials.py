"""Trial-closure factories: a serial closure plus its batch descriptor.

Every experiment ultimately hands :func:`repro.harness.runner.run_trials`
a callable of one trial seed. These factories build that callable once
per protocol family, with the serial path as the reference semantics,
and attach an :class:`~repro.core.xbatch.XBatchable` descriptor as its
``xbatch`` attribute. The descriptor is the one batch path: the
``jobs="batch"`` executor runs a point's seeds through
:meth:`~repro.core.xbatch.XBatchable.run`, and ``jobs="xbatch"`` groups
points with matching signatures (:func:`repro.core.xbatch.run_group`).
Either way each trial is bit-identical to the serial closure:

* :func:`cseek_trial` — full CSEEK/CKSEEK executions
  (:class:`~repro.core.xbatch.CSeekXBatch`);
* :func:`cgcast_trial` — full CGCAST executions
  (:class:`~repro.core.xbatch.CGCastXBatch`);
* :func:`count_trial` — single COUNT steps
  (:class:`~repro.core.xbatch.CountXBatch`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core import (
    CGCast,
    CGCastXBatch,
    CSeek,
    CSeekXBatch,
    CountXBatch,
    ProtocolConstants,
    count_schedule,
    run_count_step,
)

__all__ = [
    "broadcaster_star",
    "cgcast_trial",
    "count_trial",
    "cseek_trial",
]


def cseek_trial(
    make_protocol: Callable[[int], CSeek],
    postprocess: Callable[..., object],
    environment=None,
) -> Callable[[int], object]:
    """A full-protocol CSEEK/CKSEEK trial with a batch descriptor.

    The closure constructs and runs one protocol per seed. Its
    descriptor runs whole seed lists through
    :class:`repro.core.cseek_batch.CSeekBatch`, so each part-one step
    and part-two window of *all* trials resolves as one batched engine
    call. ``make_protocol`` must be homogeneous in the seed (same
    network/budgets/policy every call). Primary-user traffic comes from
    ``environment`` (a :class:`~repro.sim.environment.SpectrumEnvironment`,
    jammed in one batched gather per step).
    """

    def trial(s: int):
        proto = make_protocol(s)
        if environment is not None:
            proto.environment = environment
        return postprocess(proto.run())

    trial.xbatch = CSeekXBatch(
        make_protocol=make_protocol,
        postprocess=postprocess,
        environment=environment,
    )
    return trial


def cgcast_trial(
    make_protocol: Callable[[int], CGCast],
    postprocess: Callable[..., object],
    environment=None,
) -> Callable[[int], object]:
    """A full-pipeline CGCAST trial with a batch descriptor.

    ``make_protocol(seed)`` must build the protocol homogeneously in the
    seed. Serially each trial runs the whole pipeline; the descriptor
    runs the entire execution — discovery, exchanges, coloring,
    dissemination — of all trials in lockstep via
    :class:`repro.core.cgcast_batch.CGCastBatch`. When the protocol is
    built with a spectrum environment, pass the same ``environment``
    here so the batched discovery jams identically.
    """

    def trial(s: int):
        return postprocess(make_protocol(s).run())

    trial.xbatch = CGCastXBatch(
        make_protocol=make_protocol,
        postprocess=postprocess,
        environment=environment,
    )
    return trial


def broadcaster_star(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The COUNT test rig: one listener facing ``m`` broadcasters.

    Returns ``(adjacency, channels, tx_role)`` for a star whose hub
    (node 0) listens on channel 0 while all ``m`` leaves broadcast.
    """
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, channels, tx_role


def count_trial(
    adj: np.ndarray,
    channels: np.ndarray,
    tx_role: np.ndarray,
    max_count: int,
    log_n: int,
    constants: ProtocolConstants,
    postprocess: Callable[[np.ndarray], object],
    environment=None,
) -> Callable[[int], object]:
    """A single-COUNT-step trial with a batch descriptor.

    ``postprocess`` receives the ``(n,)`` listener-estimate vector of
    one trial. The descriptor resolves a whole seed list through
    :func:`~repro.core.count.run_count_step_batch` in one engine call;
    per-trial coins are drawn exactly as the closure draws them, and a
    spectrum ``environment`` jams the whole axis with one batched
    gather.
    """
    rounds, round_length = count_schedule(max_count, log_n, constants)
    total_slots = rounds * round_length

    def trial(s: int):
        jam: Optional[np.ndarray] = None
        if environment is not None:
            jam = environment.stream(s).jam_mask(channels, total_slots)
        out = run_count_step(
            adj,
            channels,
            tx_role,
            max_count=max_count,
            log_n=log_n,
            constants=constants,
            rng=np.random.default_rng(s),
            jam=jam,
        )
        return postprocess(out.estimates)

    trial.xbatch = CountXBatch(
        adj=adj,
        channels=channels,
        tx_role=tx_role,
        max_count=max_count,
        log_n=log_n,
        constants=constants,
        postprocess=postprocess,
        environment=environment,
    )
    return trial
