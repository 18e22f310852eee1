"""The paper's algorithms: COUNT, CSEEK, CKSEEK, CGCAST and parts."""

from repro.core.cgcast import CGCast, CGCastResult, redisseminate
from repro.core.cgcast_batch import (
    CGCastBatch,
    CGCastMember,
    cgcast_lockstep_signature,
    redisseminate_batch,
    run_cgcast_lockstep,
)
from repro.core.ckseek import CKSeek, verify_k_discovery
from repro.core.coloring import (
    ColoringResult,
    LubyEdgeColoring,
    is_valid_edge_coloring,
)
from repro.core.constants import ProtocolConstants
from repro.core.count import (
    CountBatchOutcome,
    CountOutcome,
    count_probabilities,
    count_schedule,
    run_count_step,
    run_count_step_batch,
)
from repro.core.cseek import (
    CSeek,
    CSeekResult,
    DiscoveryReport,
    choose_part2_labels,
    verify_discovery,
)
from repro.core.cseek_batch import (
    CSeekBatch,
    LockstepMember,
    lockstep_signature,
    run_cseek_lockstep,
)
from repro.core.dedicated import agree_dedicated_channels, first_heard_payloads
from repro.core.dissemination import (
    DisseminationResult,
    build_color_channels,
    run_dissemination,
    run_dissemination_batch,
)
from repro.core.exchange import (
    exchange_slot_cost,
    oracle_exchange,
    simulated_exchange,
)
from repro.core.linegraph import LineGraph, edges_from_discovery
from repro.core.xbatch import (
    CGCastXBatch,
    CountXBatch,
    CSeekXBatch,
    XBatchable,
    run_group,
)

__all__ = [
    "CGCast",
    "CGCastBatch",
    "CGCastMember",
    "CGCastResult",
    "CGCastXBatch",
    "CKSeek",
    "CSeek",
    "CSeekBatch",
    "CSeekResult",
    "ColoringResult",
    "CSeekXBatch",
    "CountBatchOutcome",
    "CountOutcome",
    "CountXBatch",
    "DiscoveryReport",
    "DisseminationResult",
    "LineGraph",
    "LockstepMember",
    "LubyEdgeColoring",
    "ProtocolConstants",
    "XBatchable",
    "agree_dedicated_channels",
    "build_color_channels",
    "cgcast_lockstep_signature",
    "choose_part2_labels",
    "count_probabilities",
    "count_schedule",
    "edges_from_discovery",
    "exchange_slot_cost",
    "first_heard_payloads",
    "is_valid_edge_coloring",
    "lockstep_signature",
    "oracle_exchange",
    "redisseminate",
    "redisseminate_batch",
    "run_cgcast_lockstep",
    "run_cseek_lockstep",
    "run_group",
    "run_count_step",
    "run_count_step_batch",
    "run_dissemination",
    "run_dissemination_batch",
    "simulated_exchange",
    "verify_discovery",
    "verify_k_discovery",
]
