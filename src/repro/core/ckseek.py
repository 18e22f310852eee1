"""CKSEEK — the ``khat``-neighbor-discovery filter (Section 4.4).

Sometimes only *well-connected* neighbors matter: the
``khat``-neighbor-discovery problem asks each node to find (at least) all
neighbors sharing at least ``khat >= k`` channels with it ("good"
neighbors). CKSEEK is CSEEK with shorter schedules:

* part one runs ``Theta((c^2/khat) lg n)`` steps, and
* part two runs ``Theta(((kmax/khat) Delta_khat + Delta + c) lg n)``
  steps, where ``Delta_khat`` bounds the number of good neighbors; when
  no such estimate exists the paper substitutes ``Delta`` (making the
  budget ``Theta(((kmax/khat) Delta + c) lg n)``).

Theorem 6: for ``khat > k`` this is *strictly faster* than full CSEEK —
the filter is cheaper than full discovery. Nodes discovered beyond the
good set are a bonus, not a violation; verification only requires the
good neighbors.
"""

from __future__ import annotations

from typing import Optional

from repro.core.constants import ProtocolConstants
from repro.core.cseek import CSeek, CSeekResult, DiscoveryReport, verify_discovery
from repro.model.errors import ProtocolError
from repro.model.spec import ModelKnowledge
from repro.sim.network import CRNetwork

__all__ = ["CKSeek", "verify_k_discovery"]


class CKSeek(CSeek):
    """CSEEK with the Section 4.4 step budgets.

    Args:
        network: Ground-truth network.
        khat: Overlap threshold defining good neighbors
            (``k <= khat <= kmax``).
        delta_khat: Optional a-priori bound on the number of good
            neighbors (``Delta_khat``); when None the paper's fallback
            (``Delta``) is used in the part-two budget.
        knowledge, constants, seed, part2_listener, rng_label,
        environment: As in :class:`~repro.core.cseek.CSeek`.
    """

    def __init__(
        self,
        network: CRNetwork,
        khat: int,
        delta_khat: Optional[int] = None,
        knowledge: Optional[ModelKnowledge] = None,
        constants: Optional[ProtocolConstants] = None,
        seed: int = 0,
        part2_listener: str = "weighted",
        rng_label: str = "ckseek",
        environment=None,
    ) -> None:
        kn = knowledge or network.knowledge()
        kn.with_khat(khat)
        consts = constants or ProtocolConstants.fast()
        if delta_khat is not None and not 0 <= delta_khat <= kn.max_degree:
            raise ProtocolError(
                f"delta_khat must be in [0, Delta] = [0, {kn.max_degree}], "
                f"got {delta_khat}"
            )
        effective_dk = delta_khat if delta_khat is not None else kn.max_degree
        part1 = consts.ckseek_part1_steps(kn.c, khat, kn.log_n)
        part2 = consts.ckseek_part2_steps(
            kn.kmax,
            khat,
            max(1, effective_dk),
            kn.max_degree,
            kn.c,
            kn.log_n,
        )
        super().__init__(
            network,
            knowledge=kn,
            constants=consts,
            seed=seed,
            part1_steps=part1,
            part2_steps=part2,
            part2_listener=part2_listener,  # type: ignore[arg-type]
            rng_label=rng_label,
            environment=environment,
        )
        self.khat = khat
        self.delta_khat = delta_khat


def verify_k_discovery(
    result: CSeekResult, network: CRNetwork, khat: int
) -> DiscoveryReport:
    """Verify that every node found all its good neighbors.

    Good neighbors are those sharing at least ``khat`` channels;
    discovering additional neighbors is allowed (CKSEEK "finds *at
    least* all good neighbors").
    """
    required = [set(s) for s in network.good_neighbor_sets(khat)]
    return verify_discovery(result, network, required=required)
