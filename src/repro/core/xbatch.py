"""Batch descriptors: one sweep point's trials on the lockstep runners.

Trial factories (:mod:`repro.scenarios.trials`) attach an
:class:`XBatchable` to their trial callable as ``trial.xbatch``. The
descriptor carries everything its kind's lockstep runner needs
(protocol configuration, environment, postprocess) and is the one
batch path of the harness:

* :meth:`XBatchable.run` executes one point's seeds as a one-member
  group — what the ``jobs="batch"`` executor
  (:class:`~repro.harness.executor.BatchedExecutor`) calls;
* :func:`run_group` concatenates the trials of every point whose
  :meth:`XBatchable.signature` matches along one trial axis and runs
  the whole group as a single lockstep execution — one engine call per
  chunk of protocol steps for *every* compatible point of the scenario
  (``jobs="xbatch"`` and the cross-point streaming path).

Three member kinds exist:

``"cseek"``
    Full CSEEK/CKSEEK executions (and anything built on
    :class:`CSeekBatch`); grouped points may have different networks
    and environments — the signature pins only the schedule shape (see
    :func:`~repro.core.cseek_batch.lockstep_signature`).
``"cgcast"``
    Full CGCAST executions, end-to-end through
    :func:`~repro.core.cgcast_batch.run_cgcast_lockstep`; the signature
    pins the discovery schedule plus the pipeline knobs (source,
    exchange mode, loss rate, early stop, knowledge — see
    :func:`~repro.core.cgcast_batch.cgcast_lockstep_signature`), while
    networks may differ per point.
``"count"``
    Single COUNT steps; the signature pins the rig (adjacency,
    channels, roles — content, not identity) and the schedule, so a
    grouped COUNT sweep (e.g. an activity axis on one star) rides the
    engine's fully homogeneous flattened-GEMM path as one giant call.

The trial axis is the concatenation of every member's seeds: ragged
per-point trial counts need no padding, and each trial's generator
draws are its own, so per-trial results are bit-identical to the
serial closure and to any grouping — batching, like grouping, is a
pure throughput decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cgcast import CGCast
from repro.core.cgcast_batch import (
    CGCastBatch,
    CGCastMember,
    cgcast_lockstep_signature,
    run_cgcast_lockstep,
)
from repro.core.constants import ProtocolConstants
from repro.core.count import count_probabilities, run_count_step_batch
from repro.core.cseek import CSeek
from repro.core.cseek_batch import (
    CSeekBatch,
    LockstepMember,
    lockstep_signature,
    run_cseek_lockstep,
)
from repro.model.errors import ProtocolError
from repro.sim.environment import SpectrumEnvironment

__all__ = [
    "CGCastXBatch",
    "CSeekXBatch",
    "CountXBatch",
    "XBatchable",
    "run_group",
]


class XBatchable:
    """How one sweep point's trials run on its kind's lockstep runner.

    Subclasses carry everything their runner needs (protocol
    configuration, environment, postprocess), implement
    :meth:`run_members` (the kind's group runner) and a
    :meth:`signature` naming the compatibility class: points whose
    signatures compare equal may run as one group; any difference
    splits them into separate groups (never an error — grouping
    degrades to one-member groups at worst).
    """

    kind: ClassVar[str] = ""

    def signature(self) -> tuple:
        raise NotImplementedError

    @classmethod
    def run_members(
        cls, xs: Sequence["XBatchable"], seed_lists: Sequence[List[int]]
    ) -> List[List[object]]:
        """Run compatible members in one lockstep execution.

        Returns per-member postprocessed outcomes, in member order and
        per-member seed order.
        """
        raise NotImplementedError

    def run(self, seeds: Sequence[int]) -> List[object]:
        """This point's outcomes for ``seeds``: a one-member group."""
        return self.run_members([self], [[int(s) for s in seeds]])[0]


def _postprocessed(xs, raw) -> List[List[object]]:
    """Each member's raw protocol results through its postprocess."""
    return [
        [x.postprocess(result) for result in member_results]
        for x, member_results in zip(xs, raw)
    ]


@dataclass
class CSeekXBatch(XBatchable):
    """Descriptor for CSEEK/CKSEEK trial factories.

    The :class:`CSeekBatch` is built lazily (first signature probe or
    run) so factories that never meet a batch executor pay nothing.
    """

    make_protocol: Callable[[int], CSeek]
    postprocess: Callable[..., object]
    environment: Optional[SpectrumEnvironment] = None
    _batch: Optional[CSeekBatch] = field(
        default=None, repr=False, compare=False
    )

    kind: ClassVar[str] = "cseek"

    @property
    def batch(self) -> CSeekBatch:
        if self._batch is None:
            self._batch = CSeekBatch.from_serial(
                self.make_protocol(0), environment=self.environment
            )
        return self._batch

    def signature(self) -> tuple:
        return (self.kind, lockstep_signature(self.batch))

    @classmethod
    def run_members(cls, xs, seed_lists):
        raw = run_cseek_lockstep(
            [
                LockstepMember(x.batch, seeds)
                for x, seeds in zip(xs, seed_lists)
            ]
        )
        return _postprocessed(xs, raw)


@dataclass
class CGCastXBatch(XBatchable):
    """Descriptor for full-pipeline CGCAST trial factories.

    ``make_protocol(seed)`` is the factory the serial path uses; the
    batch is built lazily from its seed-0 instance, so factories that
    never meet a batch executor pay nothing.
    """

    make_protocol: Callable[[int], CGCast]
    postprocess: Callable[..., object]
    environment: Optional[SpectrumEnvironment] = None
    _batch: Optional[CGCastBatch] = field(
        default=None, repr=False, compare=False
    )

    kind: ClassVar[str] = "cgcast"

    @property
    def batch(self) -> CGCastBatch:
        if self._batch is None:
            self._batch = CGCastBatch.from_serial(
                self.make_protocol(0), environment=self.environment
            )
        return self._batch

    def signature(self) -> tuple:
        return (self.kind, cgcast_lockstep_signature(self.batch))

    @classmethod
    def run_members(cls, xs, seed_lists):
        raw = run_cgcast_lockstep(
            [
                CGCastMember(x.batch, seeds)
                for x, seeds in zip(xs, seed_lists)
            ]
        )
        return _postprocessed(xs, raw)


@dataclass
class CountXBatch(XBatchable):
    """Descriptor for single-COUNT-step trial factories."""

    adj: np.ndarray
    channels: np.ndarray
    tx_role: np.ndarray
    max_count: int
    log_n: int
    constants: ProtocolConstants
    postprocess: Callable[[np.ndarray], object]
    environment: Optional[SpectrumEnvironment] = None

    kind: ClassVar[str] = "count"

    def signature(self) -> tuple:
        # Content-keyed rig: equal signatures guarantee one shared
        # (adjacency, channels, roles) triple, so the whole group rides
        # the engine's homogeneous flattened-GEMM path.
        return (
            self.kind,
            self.adj.shape[0],
            self.adj.tobytes(),
            self.channels.tobytes(),
            self.tx_role.tobytes(),
            self.max_count,
            self.log_n,
            self.constants,
        )

    @classmethod
    def run_members(cls, xs, seed_lists):
        x0 = xs[0]
        probs = count_probabilities(x0.max_count, x0.log_n, x0.constants)
        total_slots = probs.size
        n = x0.adj.shape[0]
        per_member = [len(seeds) for seeds in seed_lists]
        num_trials = sum(per_member)
        offsets = np.concatenate([[0], np.cumsum(per_member)])
        jam = None
        if any(x.environment is not None for x in xs):
            # Unjammed members contribute zeros — engine-equivalent to
            # the no-jam path, so mixed groups stay bit-identical per
            # member.
            jam = np.zeros((num_trials, total_slots, n), dtype=bool)
            for j, (x, seeds) in enumerate(zip(xs, seed_lists)):
                if x.environment is not None:
                    jam[int(offsets[j]) : int(offsets[j + 1])] = (
                        x.environment.streams(seeds).jam_mask(
                            x.channels, total_slots
                        )
                    )
        out = run_count_step_batch(
            x0.adj,
            x0.channels,
            x0.tx_role,
            max_count=x0.max_count,
            log_n=x0.log_n,
            constants=x0.constants,
            coins=np.stack(
                [
                    np.random.default_rng(s).random((total_slots, n))
                    < probs[:, None]
                    for seeds in seed_lists
                    for s in seeds
                ]
            ),
            jam=jam,
        )
        return [
            [
                x.postprocess(row)
                for row in out.estimates[
                    int(offsets[j]) : int(offsets[j + 1])
                ]
            ]
            for j, x in enumerate(xs)
        ]


def run_group(
    xs: Sequence[XBatchable],
    seed_lists: Sequence[Sequence[int]],
    batch_size: Optional[int] = None,
) -> List[List[object]]:
    """Execute one compatibility group's trials in cross-point lockstep.

    Args:
        xs: The group's members — same ``kind``, equal signatures
            (callers group by :meth:`XBatchable.signature`; the kind
            runners re-validate what correctness depends on).
        seed_lists: Per-member trial seeds (ragged counts welcome).
        batch_size: Optional cap on trials per lockstep execution;
            the concatenated axis is split into consecutive sub-groups
            of at most this many trials (memory bound, same results —
            every trial draws from its own generators).

    Returns:
        Per-member postprocessed outcome lists, in member order and
        per-member seed order.
    """
    if not xs:
        raise ProtocolError("cross-point group needs at least one member")
    if len(xs) != len(seed_lists):
        raise ProtocolError(
            f"{len(xs)} members but {len(seed_lists)} seed lists"
        )
    kind = xs[0].kind
    if any(x.kind != kind for x in xs):
        raise ProtocolError(
            "cross-point group members must share one kind; got "
            f"{sorted({x.kind for x in xs})}"
        )
    runner = type(xs[0]).run_members
    seed_lists = [[int(s) for s in seeds] for seeds in seed_lists]
    total = sum(len(seeds) for seeds in seed_lists)
    cap = batch_size if batch_size else total
    results: List[List[object]] = [[] for _ in xs]
    pending: List[Tuple[int, List[int]]] = []
    filled = 0

    def flush() -> None:
        nonlocal filled
        if not pending:
            return
        sub_xs = [xs[i] for i, _ in pending]
        sub_seeds = [seeds for _, seeds in pending]
        for (i, _), outs in zip(pending, runner(sub_xs, sub_seeds)):
            results[i].extend(outs)
        pending.clear()
        filled = 0

    for i, seeds in enumerate(seed_lists):
        pos = 0
        while pos < len(seeds):
            take = min(cap - filled, len(seeds) - pos)
            pending.append((i, seeds[pos : pos + take]))
            filled += take
            pos += take
            if filled >= cap:
                flush()
    flush()
    return results
