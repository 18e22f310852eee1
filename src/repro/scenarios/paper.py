"""The paper's experiments E1-E12 as registered scenario specs.

Each experiment is a plan-based :class:`~repro.scenarios.spec.ScenarioSpec`
whose plan yields the compiler's :class:`~repro.scenarios.compile.Point`
sequence. The plans preserve the original harness's per-point seeds,
seed-stream labels and trial semantics exactly, so every regenerated
table is row-identical to the pre-scenario implementation at a fixed
``(trials, seed)`` — pinned against golden tables in
``tests/test_scenarios_paper.py``. Batched execution routes through the
shared trial factories in :mod:`repro.scenarios.trials`.

The experiment *defaults* (trials per configuration) and the notes
interpreting each table against the paper's claim live here too; the
legacy entry points in :mod:`repro.harness.experiments` are thin
wrappers over these specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, List

import numpy as np

from repro.analysis import (
    cgcast_bound,
    ckseek_bound,
    complete_game_floor,
    cseek_bound,
    fit_power_law,
    hitting_game_floor,
    naive_broadcast_bound,
    naive_discovery_bound,
    success_rate,
    summarize,
    zeng_discovery_bound,
)
from repro.baselines import (
    NaiveBroadcast,
    NaiveDiscovery,
    broadcast_floor,
    tree_broadcast_floor,
)
from repro.core import (
    CGCast,
    CGCastBatch,
    CKSeek,
    CSeek,
    LineGraph,
    LubyEdgeColoring,
    ProtocolConstants,
    count_schedule,
    is_valid_edge_coloring,
    redisseminate,
    redisseminate_batch,
    XBatchable,
    verify_discovery,
    verify_k_discovery,
)
from repro.graphs import (
    build_network,
    build_theorem14_tree,
    path_of_cliques,
    random_regular,
    star,
)
from repro.lowerbounds import (
    CSeekReductionPlayer,
    FreshRandomPlayer,
    HittingGame,
    UniformRandomPlayer,
    play,
)
from repro.model.errors import HarnessError
from repro.scenarios.compile import Point, Run, RunContext
from repro.scenarios.registry import register
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trials import (
    broadcaster_star,
    cgcast_trial,
    count_trial,
    cseek_trial,
)
from repro.sim import CRNetwork, MarkovTraffic

__all__ = ["PAPER_SPECS", "paper_spec"]

Row = Dict[str, object]


# ----------------------------------------------------------------------
# E1 — COUNT accuracy (Lemma 1)
# ----------------------------------------------------------------------
def _plan_e1(ctx: RunContext) -> Iterable[Point]:
    rules = [
        ("argmax", ProtocolConstants(count_rule="argmax", count_round_slots=8.0)),
        (
            "first_crossing",
            ProtocolConstants(
                count_rule="first_crossing", count_round_slots=192.0
            ),
        ),
    ]
    for rule_name, consts in rules:
        for m in (1, 2, 4, 8, 16, 32):
            adj, channels, tx_role = broadcaster_star(m)
            trial = count_trial(
                adj,
                channels,
                tx_role,
                max_count=32,
                log_n=5,
                constants=consts,
                postprocess=lambda est: float(est[0]),
            )
            rounds, length = count_schedule(32, 5, consts)

            def reduce(
                ctx, outcomes, rule_name=rule_name, m=m,
                slots=rounds * length,
            ) -> List[Row]:
                estimates = outcomes["count"]
                ratios = [e / m for e in estimates]
                in_band = [m / 4 <= e <= 4 * m for e in estimates]
                return [
                    {
                        "rule": rule_name,
                        "m": m,
                        "median_ratio": float(np.median(ratios)),
                        "band_rate(est in [m/4,4m])": success_rate(in_band),
                        "slots": slots,
                    }
                ]

            yield Point(
                [Run("count", trial, f"e1-{rule_name}-{m}", ctx.seed)],
                reduce,
            )


# ----------------------------------------------------------------------
# E2 — CSEEK scaling vs baselines (Theorem 4)
# ----------------------------------------------------------------------
def _discovery_runs(net, point_trials, seed, label) -> List[Run]:
    """The paired CSEEK + naive runs every E2 sweep point executes."""

    def summarize_result(result):
        report = verify_discovery(result, net)
        return report.success, report.completion_slot, result.total_slots

    cseek = cseek_trial(lambda s: CSeek(net, seed=s), summarize_result)

    def naive_trial(s: int):
        nd = NaiveDiscovery(net, seed=s)
        result = nd.run()
        report = nd.verify(result)
        return report.success, report.completion_slot, result.total_slots

    return [
        Run("cseek", cseek, f"{label}-cseek", seed, point_trials),
        Run("naive", naive_trial, f"{label}-naive", seed, point_trials),
    ]


def _discovery_stats(outcomes) -> Row:
    """Measured completion slots + success rates for CSEEK and naive."""
    cs, nv = outcomes["cseek"], outcomes["naive"]
    cs_done = [t for ok, t, _ in cs if ok and t is not None]
    nv_done = [t for ok, t, _ in nv if ok and t is not None]
    return {
        "cseek_success": success_rate([ok for ok, _, _ in cs]),
        "naive_success": success_rate([ok for ok, _, _ in nv]),
        "cseek_completion": (
            summarize(cs_done).mean if cs_done else None
        ),
        "naive_completion": (
            summarize(nv_done).mean if nv_done else None
        ),
        "cseek_schedule": cs[0][2],
        "naive_schedule": nv[0][2],
    }


def _plan_e2(ctx: RunContext) -> Iterable[Point]:
    trials, seed = ctx.trials, ctx.seed
    # --- (a) sweep c with k, Delta fixed (need Delta * k <= c) ------
    for c in (8, 12, 16, 20):
        graph = random_regular(20, 4, seed=seed + c)
        net = build_network(graph, c=c, k=2, seed=seed + c)
        kn = net.knowledge()

        def reduce(ctx, outcomes, c=c, kn=kn) -> List[Row]:
            return [
                {
                    "sweep": "c",
                    "x": c,
                    **_discovery_stats(outcomes),
                    "cseek_bound": cseek_bound(
                        kn.c, kn.k, kn.kmax, kn.max_degree
                    ),
                    "naive_bound": naive_discovery_bound(
                        kn.c, kn.k, kn.max_degree
                    ),
                    "zeng_bound": zeng_discovery_bound(
                        kn.c, kn.k, kn.max_degree
                    ),
                }
            ]

        yield Point(_discovery_runs(net, trials, seed + c, f"e2c{c}"), reduce)
    # --- (b) sweep Delta on crowded stars ---------------------------
    # Delta is the axis on which the bounds diverge (additive for CSEEK,
    # multiplicative for naive); the biggest point is capped at fewer
    # trials to keep the sweep laptop-sized.
    for delta in (8, 32, 128):
        net = build_network(
            star(delta + 1), c=8, k=2, seed=seed + delta, kind="global_core"
        )
        kn = net.knowledge()
        point_trials = trials if delta < 128 else min(trials, 2)

        def reduce(ctx, outcomes, delta=delta, kn=kn) -> List[Row]:
            return [
                {
                    "sweep": "Delta",
                    "x": delta,
                    **_discovery_stats(outcomes),
                    "cseek_bound": cseek_bound(
                        kn.c, kn.k, kn.kmax, kn.max_degree, n=kn.n
                    ),
                    "naive_bound": naive_discovery_bound(
                        kn.c, kn.k, kn.max_degree, n=kn.n
                    ),
                    "zeng_bound": zeng_discovery_bound(
                        kn.c, kn.k, kn.max_degree, n=kn.n
                    ),
                }
            ]

        yield Point(
            _discovery_runs(
                net, point_trials, seed + 100 + delta, f"e2d{delta}"
            ),
            reduce,
        )
    # --- (c) sweep k with c fixed -----------------------------------
    for k in (1, 2, 4):
        graph = random_regular(20, 4, seed=seed + 7)
        net = build_network(graph, c=16, k=k, seed=seed + k)
        kn = net.knowledge()

        def reduce(ctx, outcomes, k=k, kn=kn) -> List[Row]:
            return [
                {
                    "sweep": "k",
                    "x": k,
                    **_discovery_stats(outcomes),
                    "cseek_bound": cseek_bound(
                        kn.c, kn.k, kn.kmax, kn.max_degree
                    ),
                    "naive_bound": naive_discovery_bound(
                        kn.c, kn.k, kn.max_degree
                    ),
                    "zeng_bound": zeng_discovery_bound(
                        kn.c, kn.k, kn.max_degree
                    ),
                }
            ]

        yield Point(
            _discovery_runs(net, trials, seed + 200 + k, f"e2k{k}"), reduce
        )


def _notes_e2(rows: List[Row], ctx: RunContext) -> str:
    slope_note = ""
    c_rows = [r for r in rows if r["sweep"] == "c" and r["cseek_completion"]]
    if len(c_rows) >= 2:
        fit = fit_power_law(
            [r["x"] for r in c_rows], [r["cseek_completion"] for r in c_rows]
        )
        slope_note += (
            f" Measured CSEEK completion-vs-c log-log slope: "
            f"{fit.slope:.2f} (bound predicts ~2 once the c^2/k term "
            "dominates)."
        )
    d_rows = [
        r
        for r in rows
        if r["sweep"] == "Delta"
        and r["cseek_completion"]
        and r["naive_completion"]
    ]
    if len(d_rows) >= 2:
        cs_fit = fit_power_law(
            [r["x"] for r in d_rows], [r["cseek_completion"] for r in d_rows]
        )
        nv_fit = fit_power_law(
            [r["x"] for r in d_rows], [r["naive_completion"] for r in d_rows]
        )
        ratios = [
            r["naive_completion"] / r["cseek_completion"] for r in d_rows
        ]
        slope_note += (
            f" Delta-sweep slopes: CSEEK {cs_fit.slope:.2f} (additive "
            f"Delta term, sub-linear at these sizes), naive "
            f"{nv_fit.slope:.2f} (multiplicative Delta). Naive/CSEEK "
            f"completion ratio along the sweep: "
            + ", ".join(f"{r:.2f}" for r in ratios)
            + " — rising with Delta as the bounds predict. At laptop "
            "sizes the lg^2 n slots inside every COUNT step keep CSEEK's "
            "absolute numbers above naive's; the bound-side crossover "
            "(Delta >~ lg^2 n x constants) extrapolates to Delta in the "
            "several hundreds, beyond this sweep."
        )
    return (
        "Paper claim: CSEEK needs O~(c^2/k + (kmax/k) Delta) slots vs "
        "the naive strawman's O~((c^2/k) Delta); CSEEK's advantage "
        "grows with Delta (additive vs multiplicative) and both scale "
        "as c^2/k in c and 1/k in k." + slope_note
    )


# ----------------------------------------------------------------------
# E3 — part-one vs part-two discovery split (Lemmas 2 and 3)
# ----------------------------------------------------------------------
def _e3_fraction_found(result, truth, total_pairs, n):
    part1 = sum(
        len(result.discovered_part_one[u] & set(truth[u]))
        for u in range(n)
    )
    both = sum(
        len(result.discovered[u] & set(truth[u])) for u in range(n)
    )
    return part1 / total_pairs, both / total_pairs


def _plan_e3(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # (a) full budgets: Lemma 2 says part one alone already finds
    # everything when channels are un-crowded.
    cases = [
        (
            "full budget, sparse (exact k, regular)",
            build_network(
                random_regular(20, 4, seed=seed + 1), c=8, k=2, seed=seed + 1
            ),
        ),
        (
            "full budget, crowded (global core, star)",
            build_network(
                star(25), c=6, k=2, seed=seed + 2, kind="global_core"
            ),
        ),
    ]
    for name, net in cases:
        truth = net.true_neighbor_sets()
        total_pairs = sum(len(s) for s in truth)
        trial = cseek_trial(
            lambda s, net=net: CSeek(net, seed=s),
            lambda result, truth=truth, total_pairs=total_pairs, n=net.n: (
                _e3_fraction_found(result, truth, total_pairs, n)
            ),
        )

        def reduce(ctx, outcomes, name=name, total_pairs=total_pairs):
            results = outcomes["cseek"]
            return [
                {
                    "workload": name,
                    "part2_listener": "weighted",
                    "pairs": total_pairs,
                    "part1_fraction": summarize(
                        [a for a, _ in results]
                    ).mean,
                    "final_fraction": summarize(
                        [b for _, b in results]
                    ).mean,
                }
            ]

        yield Point([Run("cseek", trial, f"e3-{name}", seed)], reduce)
    # (b) starved part one on a heavily crowded star: part two must
    # rescue the remaining pairs, and its density-weighted listener is
    # what makes the rescue fast (Lemma 3's mechanism).
    net = build_network(
        star(65), c=6, k=2, seed=seed + 3, kind="global_core"
    )
    truth = net.true_neighbor_sets()
    total_pairs = sum(len(s) for s in truth)
    for policy in ("weighted", "uniform"):
        trial = cseek_trial(
            lambda s, policy=policy: CSeek(
                net,
                seed=s,
                part1_steps=40,
                part2_steps=150,
                part2_listener=policy,
            ),
            lambda result: _e3_fraction_found(
                result, truth, total_pairs, net.n
            ),
        )

        def reduce(ctx, outcomes, policy=policy, total_pairs=total_pairs):
            results = outcomes["cseek"]
            return [
                {
                    "workload": "starved part one, crowded star",
                    "part2_listener": policy,
                    "pairs": total_pairs,
                    "part1_fraction": summarize(
                        [a for a, _ in results]
                    ).mean,
                    "final_fraction": summarize(
                        [b for _, b in results]
                    ).mean,
                }
            ]

        yield Point(
            [Run("cseek", trial, f"e3b-{policy}", seed + 5)], reduce
        )


# ----------------------------------------------------------------------
# E4 — CKSEEK filter (Theorem 6)
# ----------------------------------------------------------------------
def _plan_e4(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    graph = random_regular(20, 4, seed=seed + 3)
    net = build_network(
        graph, c=16, k=2, seed=seed + 3, kind="heterogeneous", kmax=4
    )
    kn = net.knowledge()
    for khat in range(kn.k, kn.kmax + 1):
        delta_khat = net.max_good_degree(khat)
        trial = cseek_trial(
            lambda s, khat=khat, delta_khat=delta_khat: CKSeek(
                net, khat=khat, delta_khat=delta_khat, seed=s
            ),
            lambda result, khat=khat: (
                verify_k_discovery(result, net, khat=khat).success,
                result.total_slots,
            ),
        )

        def reduce(ctx, outcomes, khat=khat, delta_khat=delta_khat):
            results = outcomes["ckseek"]
            return [
                {
                    "khat": khat,
                    "delta_khat": delta_khat,
                    "success": success_rate([ok for ok, _ in results]),
                    "schedule_slots": results[0][1],
                    "bound": ckseek_bound(
                        kn.c, khat, kn.kmax, delta_khat, kn.max_degree
                    ),
                }
            ]

        yield Point(
            [Run("ckseek", trial, f"e4-{khat}", seed + khat)], reduce
        )


# ----------------------------------------------------------------------
# E5 — Luby line-graph coloring (Lemma 8)
# ----------------------------------------------------------------------
def _plan_e5(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for n in (8, 16, 32, 64, 128):
        graph = random_regular(n, 4, seed=seed + n)
        net = build_network(graph, c=8, k=2, seed=seed + n)
        lg = LineGraph.from_edges(net.edges())
        kn = net.knowledge()

        def trial(s: int, lg=lg, kn=kn):
            result = LubyEdgeColoring(lg, kn, seed=s).run()
            valid = result.complete and is_valid_edge_coloring(
                result.colors, lg.edges
            )
            return valid, result.phases_used

        def reduce(ctx, outcomes, n=n, lg=lg):
            results = outcomes["coloring"]
            return [
                {
                    "n": n,
                    "edges": lg.num_virtual,
                    "valid_rate": success_rate([ok for ok, _ in results]),
                    "mean_phases": summarize(
                        [p for _, p in results]
                    ).mean,
                    "lg_n": math.ceil(math.log2(n)),
                }
            ]

        yield Point([Run("coloring", trial, f"e5-{n}", seed + n)], reduce)


def _notes_e5(rows: List[Row], ctx: RunContext) -> str:
    phase_fit = fit_power_law(
        [r["lg_n"] for r in rows], [max(r["mean_phases"], 0.5) for r in rows]
    )
    return (
        "Paper claim: the phased coloring 2*Delta-colors the line "
        "graph (hence properly edge-colors G, Fact 7) within O(lg n) "
        "phases w.h.p. Expect valid_rate 1.0 and mean_phases growing "
        f"at most like lg n (measured phases-vs-lg n slope: "
        f"{phase_fit.slope:.2f}; sub-linear growth in lg n is "
        "consistent with the bound's generous constant)."
    )


# ----------------------------------------------------------------------
# E6 — CGCAST scaling vs naive broadcast (Theorem 9)
# ----------------------------------------------------------------------
def _plan_e6(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for num_cliques in (2, 4, 8, 12):
        graph = path_of_cliques(num_cliques, 4)
        net = build_network(graph, c=8, k=1, seed=seed + num_cliques)
        kn = net.knowledge()

        cg = cgcast_trial(
            lambda s, net=net: CGCast(net, source=0, seed=s),
            lambda result: (
                result.success,
                result.ledger.get("dissemination"),
                result.total_slots,
            ),
        )

        def nv_trial(s: int, net=net):
            result = NaiveBroadcast(net, source=0, seed=s).run()
            return result.success, result.completion_slot

        def reduce(ctx, outcomes, num_cliques=num_cliques, kn=kn):
            cg_out, nv_out = outcomes["cg"], outcomes["nv"]
            cg_diss = [d for ok, d, _ in cg_out if ok]
            nv_done = [t for ok, t in nv_out if ok and t is not None]
            cg_mean = summarize(cg_diss).mean if cg_diss else None
            nv_mean = summarize(nv_done).mean if nv_done else None
            return [
                {
                    "cliques": num_cliques,
                    "D": kn.diameter,
                    "Delta": kn.max_degree,
                    "cgcast_success": success_rate(
                        [ok for ok, _, _ in cg_out]
                    ),
                    "cgcast_dissemination": cg_mean,
                    "cgcast_per_hop": (
                        cg_mean / kn.diameter if cg_mean else None
                    ),
                    "cgcast_total": cg_out[0][2],
                    "naive_success": success_rate([ok for ok, _ in nv_out]),
                    "naive_completion": nv_mean,
                    "naive_per_hop": (
                        nv_mean / kn.diameter if nv_mean else None
                    ),
                    "cgcast_bound": cgcast_bound(
                        kn.c, kn.k, kn.kmax, kn.max_degree, kn.diameter
                    ),
                    "naive_bound": naive_broadcast_bound(
                        kn.c, kn.k, kn.diameter
                    ),
                }
            ]

        yield Point(
            [
                Run("cg", cg, "e6cg", seed + num_cliques),
                Run("nv", nv_trial, "e6nv", seed + num_cliques),
            ],
            reduce,
        )


def _notes_e6(rows: List[Row], ctx: RunContext) -> str:
    diss = [
        r for r in rows if r["cgcast_dissemination"] and r["naive_completion"]
    ]
    note = ""
    if len(diss) >= 2:
        cg_fit = fit_power_law(
            [r["D"] for r in diss], [r["cgcast_dissemination"] for r in diss]
        )
        nv_fit = fit_power_law(
            [r["D"] for r in diss], [r["naive_completion"] for r in diss]
        )
        note = (
            f" Dissemination-vs-D slopes: CGCAST {cg_fit.slope:.2f}, "
            f"naive {nv_fit.slope:.2f} (both ~linear in D, as the bounds "
            "predict); the naive curve carries the larger c^2/k per-hop "
            "constant, the CGCAST curve only Delta*polylog."
        )
    return (
        "Paper claim: CGCAST spends O~(c^2/k + (kmax/k) Delta) once "
        "on setup, then disseminates at O~(Delta) per hop; the naive "
        "strawman pays O~(c^2/k) per hop. On long thin networks "
        "(growing D) the per-hop comparison favors CGCAST whenever "
        "Delta << c^2/k (here Delta=4 vs c^2/k=64). The one-shot "
        "total still favors naive at these sizes because CGCAST's "
        "setup (discovery + coloring exchanges) is paid once — the "
        "paper's regime is a long-lived network where the schedule "
        "is reused across many broadcasts." + note
    )


# ----------------------------------------------------------------------
# E7 — hitting-game lower bounds (Lemmas 10 and 12)
# ----------------------------------------------------------------------
def _plan_e7(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    for c in (8, 16, 32):
        for k in (1, 2, 4):
            for player_name, factory in (
                ("fresh", lambda s: FreshRandomPlayer(seed=s)),
                ("uniform", lambda s: UniformRandomPlayer(seed=s)),
            ):

                def trial(s: int, c=c, k=k, factory=factory) -> int:
                    game = HittingGame(c=c, k=k, seed=s)
                    transcript = play(
                        game, factory(s + 1), max_rounds=50 * c * c
                    )
                    if not transcript.won:
                        raise HarnessError(
                            "player failed within the generous cap"
                        )
                    return transcript.rounds

                def reduce(ctx, outcomes, c=c, k=k, player_name=player_name):
                    rounds = outcomes["game"]
                    floor = (
                        hitting_game_floor(c, k) if k <= c / 2 else None
                    )
                    return [
                        {
                            "c": c,
                            "k": k,
                            "player": player_name,
                            "mean_rounds": summarize(rounds).mean,
                            "median_rounds": summarize(rounds).median,
                            "floor(c^2/8k)": floor,
                            "c^2/k": c * c / k,
                        }
                    ]

                yield Point(
                    [
                        Run(
                            "game",
                            trial,
                            f"e7-{player_name}",
                            seed + c * 10 + k,
                        )
                    ],
                    reduce,
                )
    # Complete game (k = c): Lemma 12.
    for c in (9, 27):

        def trial(s: int, c=c) -> int:
            game = HittingGame(c=c, k=c, seed=s)
            transcript = play(game, FreshRandomPlayer(seed=s + 1))
            return transcript.rounds

        def reduce(ctx, outcomes, c=c):
            rounds = outcomes["game"]
            return [
                {
                    "c": c,
                    "k": c,
                    "player": "fresh(complete)",
                    "mean_rounds": summarize(rounds).mean,
                    "median_rounds": summarize(rounds).median,
                    "floor(c^2/8k)": complete_game_floor(c),
                    "c^2/k": float(c),
                }
            ]

        yield Point([Run("game", trial, "e7-complete", seed + c)], reduce)


# ----------------------------------------------------------------------
# E8 — the reduction and Theorem 13
# ----------------------------------------------------------------------
def _plan_e8(ctx: RunContext) -> Iterable[Point]:
    trials, seed = ctx.trials, ctx.seed
    for c in (8, 16, 32):
        k = 2

        def trial(s: int, c=c, k=k) -> int:
            player = CSeekReductionPlayer(k=k, seed=s)
            game = HittingGame(c=c, k=k, seed=s + 17)
            budget = 4 * player.schedule_slots(c)
            transcript = play(game, player, max_rounds=budget)
            if not transcript.won:
                raise HarnessError("reduction player failed to meet")
            return transcript.rounds

        def reduce(ctx, outcomes, c=c, k=k):
            rounds = outcomes["game"]
            player = CSeekReductionPlayer(k=k, seed=0)
            return [
                {
                    "case": "reduction(CSEEK)",
                    "x": c,
                    "mean_rounds_to_meet": summarize(rounds).mean,
                    "game_floor": hitting_game_floor(c, k),
                    "cseek_schedule": player.schedule_slots(c),
                }
            ]

        yield Point([Run("game", trial, f"e8-{c}", seed + c)], reduce)
    # Omega(Delta): discovery completion on stars is at least Delta.
    for delta in (4, 8, 16):
        net = build_network(
            star(delta + 1), c=8, k=2, seed=seed + delta, kind="global_core"
        )

        def star_outcome(result, net=net):
            report = verify_discovery(result, net)
            return report.success, report.completion_slot

        star_trial = cseek_trial(
            lambda s, net=net: CSeek(net, seed=s), star_outcome
        )

        def reduce(ctx, outcomes, delta=delta):
            results = outcomes["star"]
            done = [t for ok, t in results if ok and t is not None]
            return [
                {
                    "case": "star Omega(Delta)",
                    "x": delta,
                    "mean_rounds_to_meet": (
                        summarize(done).mean if done else None
                    ),
                    "game_floor": float(delta),
                    "cseek_schedule": None,
                }
            ]

        yield Point(
            [
                Run(
                    "star",
                    star_trial,
                    "e8-star",
                    seed + delta,
                    max(3, trials // 3),
                )
            ],
            reduce,
        )


# ----------------------------------------------------------------------
# E9 — broadcast lower bound on trees (Theorem 14)
# ----------------------------------------------------------------------
def _plan_e9(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    c = 4
    for depth in (2, 3, 4):
        net = build_theorem14_tree(c=c, depth=depth, seed=seed + depth)
        kn = net.knowledge()
        floor = tree_broadcast_floor(c=c, delta=kn.max_degree, depth=depth)
        greedy = broadcast_floor(net, source=0)

        cg = cgcast_trial(
            lambda s, net=net: CGCast(net, source=0, seed=s),
            lambda result: (
                result.success,
                result.ledger.get("dissemination"),
            ),
        )

        def nv_trial(s: int, net=net):
            result = NaiveBroadcast(net, source=0, seed=s).run()
            return result.success, result.completion_slot

        def reduce(
            ctx, outcomes, depth=depth, net=net, floor=floor, greedy=greedy
        ):
            cg_out, nv_out = outcomes["cg"], outcomes["nv"]
            cg_done = [d for ok, d in cg_out if ok]
            nv_done = [t for ok, t in nv_out if ok and t is not None]
            return [
                {
                    "depth": depth,
                    "n": net.n,
                    "analytic_floor": floor,
                    "greedy_oracle": greedy,
                    "cgcast_success": success_rate(
                        [ok for ok, _ in cg_out]
                    ),
                    "cgcast_dissemination": (
                        summarize(cg_done).mean if cg_done else None
                    ),
                    "naive_success": success_rate([ok for ok, _ in nv_out]),
                    "naive_completion": (
                        summarize(nv_done).mean if nv_done else None
                    ),
                }
            ]

        yield Point(
            [
                Run("cg", cg, "e9cg", seed + depth),
                Run("nv", nv_trial, "e9nv", seed + depth),
            ],
            reduce,
        )


# ----------------------------------------------------------------------
# E10 — heterogeneity + part-two ablation (Section 7)
# ----------------------------------------------------------------------
def _plan_e10(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # (a) under starved budgets, discovery probability splits by pair
    # class: high-overlap (k_uv = kmax) pairs are found far more often
    # than low-overlap (k_uv = k) pairs, and the gap widens with kmax/k.
    for kmax in (2, 4, 8):
        graph = random_regular(16, 3, seed=seed + 3)
        net = build_network(
            graph, c=32, k=1, seed=seed + kmax, kind="heterogeneous",
            kmax=kmax,
        )
        lo_pairs = [
            e for e in net.edges() if net.edge_overlap(*e) == 1
        ]
        hi_pairs = [
            e for e in net.edges() if net.edge_overlap(*e) == kmax
        ]

        def pair_rates(result, lo_pairs=lo_pairs, hi_pairs=hi_pairs):
            lo = sum(
                (v in result.discovered[u]) + (u in result.discovered[v])
                for u, v in lo_pairs
            ) / (2 * len(lo_pairs))
            hi = sum(
                (v in result.discovered[u]) + (u in result.discovered[v])
                for u, v in hi_pairs
            ) / (2 * len(hi_pairs))
            return lo, hi

        trial = cseek_trial(
            lambda s, net=net: CSeek(
                net, seed=s, part1_steps=300, part2_steps=400
            ),
            pair_rates,
        )

        def reduce(ctx, outcomes, kmax=kmax):
            results = outcomes["cseek"]
            lo_mean = summarize([a for a, _ in results]).mean
            hi_mean = summarize([b for _, b in results]).mean
            return [
                {
                    "case": f"starved budget, kmax/k={kmax}",
                    "low_overlap_found": lo_mean,
                    "high_overlap_found": hi_mean,
                    "bias(high/low)": (
                        hi_mean / lo_mean if lo_mean else None
                    ),
                    "success": None,
                    "schedule": None,
                }
            ]

        yield Point(
            [Run("cseek", trial, f"e10h{kmax}", seed + kmax)], reduce
        )
    # (b) full budgets: the schedule formula stretches with kmax/k and
    # full discovery still succeeds (Theorem 4's budget absorbs the gap).
    for kmax in (1, 2, 4):
        graph = random_regular(16, 3, seed=seed + 3)
        kind = "exact_uniform" if kmax == 1 else "heterogeneous"
        net = build_network(
            graph, c=16, k=1, seed=seed + kmax, kind=kind, kmax=kmax
        )

        full_trial = cseek_trial(
            lambda s, net=net: CSeek(net, seed=s),
            lambda result, net=net: (
                verify_discovery(result, net).success,
                result.total_slots,
            ),
        )

        def reduce(ctx, outcomes, kmax=kmax):
            results = outcomes["cseek"]
            return [
                {
                    "case": f"full budget, kmax/k={kmax}",
                    "low_overlap_found": None,
                    "high_overlap_found": None,
                    "bias(high/low)": None,
                    "success": success_rate([ok for ok, _ in results]),
                    "schedule": results[0][1],
                }
            ]

        yield Point(
            [Run("cseek", full_trial, f"e10f{kmax}", seed + 40 + kmax)],
            reduce,
        )


@dataclass
class _AmortizedXBatch(XBatchable):
    """E11's batch descriptor: the whole amortized regime in lockstep.

    One :class:`~repro.core.cgcast_batch.CGCastBatch` run builds every
    trial's reusable schedule, then each message's re-dissemination
    sweeps the surviving trials through :func:`redisseminate_batch`.
    Per trial all generator draws are those of the serial E11 closure
    (``NaiveBroadcast`` runs are independent per seed), so outcomes are
    bit-identical to it.
    """

    net: CRNetwork
    num_messages: int

    kind: ClassVar[str] = "e11"

    def signature(self) -> tuple:
        # Plan-based specs never group, so uniqueness is all it needs.
        return (self.kind, id(self))

    @classmethod
    def run_members(cls, xs, seed_lists):
        return [x._run(seeds) for x, seeds in zip(xs, seed_lists)]

    def _run(self, seeds: List[int]) -> list:
        net = self.net
        setups = CGCastBatch(net, source=0).run(seeds)
        state = {}
        for b, setup in enumerate(setups):
            if setup.success:
                diss0 = setup.ledger.get("dissemination")
                state[b] = (setup.total_slots - diss0, [diss0], [])
        for msg in range(1, self.num_messages):
            alive = sorted(state)
            if not alive:
                break
            source = (msg * 7) % net.n
            disses = redisseminate_batch(
                net,
                [setups[b] for b in alive],
                source,
                [seeds[b] + msg for b in alive],
            )
            for b, diss in zip(alive, disses):
                if not diss.success:
                    del state[b]
                    continue
                state[b][1].append(diss.ledger.total)
                nv = NaiveBroadcast(
                    net, source=source, seed=seeds[b] + 100 + msg
                ).run()
                if not nv.success:
                    del state[b]
                    continue
                state[b][2].append(nv.completion_slot)
        outcomes = [None] * len(seeds)
        for b, (setup_slots, per_message, naive_pm) in state.items():
            nv0 = NaiveBroadcast(net, source=0, seed=seeds[b] + 500).run()
            naive_pm.insert(0, nv0.completion_slot)
            outcomes[b] = (setup_slots, per_message, naive_pm)
        return outcomes


# ----------------------------------------------------------------------
# E11 — amortized repeated broadcast (extension; Theorem 9's regime)
# ----------------------------------------------------------------------
def _plan_e11(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    # c^2/k = 256 >> Delta = 4: the regime where the per-hop advantage
    # of the colored schedule is unambiguous.
    graph = path_of_cliques(8, 4)
    net = build_network(graph, c=16, k=1, seed=seed + 1)
    kn = net.knowledge()
    num_messages = 16

    def trial(s: int):
        setup = CGCast(net, source=0, seed=s).run()
        if not setup.success:
            return None
        setup_slots = setup.total_slots - setup.ledger.get("dissemination")
        per_message = [setup.ledger.get("dissemination")]
        naive_per_message = []
        for msg in range(1, num_messages):
            source = (msg * 7) % net.n
            diss = redisseminate(net, setup, source=source, seed=s + msg)
            if not diss.success:
                return None
            per_message.append(diss.ledger.total)
            nv = NaiveBroadcast(
                net, source=source, seed=s + 100 + msg
            ).run()
            if not nv.success:
                return None
            naive_per_message.append(nv.completion_slot)
        nv0 = NaiveBroadcast(net, source=0, seed=s + 500).run()
        naive_per_message.insert(0, nv0.completion_slot)
        return setup_slots, per_message, naive_per_message

    trial.xbatch = _AmortizedXBatch(net, num_messages)

    def reduce(ctx, outcomes):
        ok = [o for o in outcomes["amortized"] if o]
        if not ok:
            raise HarnessError("no successful E11 trial")
        rows: List[Row] = []
        for budget in (1, 4, num_messages):
            cg_totals = []
            nv_totals = []
            for setup_slots, per_message, naive_pm in ok:
                cg_totals.append(setup_slots + sum(per_message[:budget]))
                nv_totals.append(sum(naive_pm[:budget]))
            cg_mean = summarize(cg_totals).mean
            nv_mean = summarize(nv_totals).mean
            rows.append(
                {
                    "messages": budget,
                    "cgcast_total": cg_mean,
                    "cgcast_per_message": cg_mean / budget,
                    "naive_total": nv_mean,
                    "naive_per_message": nv_mean / budget,
                    "ratio(cgcast/naive)": cg_mean / nv_mean,
                }
            )
        # Amortization point estimate for the notes:
        # setup / (naive per msg - diss per msg).
        ctx.extras["e11"] = {
            "setup_mean": summarize([o[0] for o in ok]).mean,
            "diss_pm": summarize(
                [sum(o[1][1:]) / max(1, len(o[1]) - 1) for o in ok]
            ).mean,
            "naive_pm": summarize(
                [sum(o[2]) / len(o[2]) for o in ok]
            ).mean,
            "diameter": net.knowledge().diameter,
            "max_degree": kn.max_degree,
            "c2k": kn.c * kn.c // kn.k,
        }
        return rows

    yield Point([Run("amortized", trial, "trials", seed)], reduce)


def _notes_e11(rows: List[Row], ctx: RunContext) -> str:
    stats = ctx.extras["e11"]
    setup_mean = stats["setup_mean"]
    diss_pm = stats["diss_pm"]
    naive_pm = stats["naive_pm"]
    if naive_pm > diss_pm:
        amortize = setup_mean / (naive_pm - diss_pm)
        amortize_note = (
            f" Per-message costs: re-dissemination {diss_pm:,.0f} vs "
            f"naive {naive_pm:,.0f} slots; the setup "
            f"({setup_mean:,.0f} slots) amortizes after "
            f"~{amortize:,.0f} messages."
        )
    else:
        amortize_note = (
            " At this size the re-dissemination cost does not undercut "
            "naive flooding, so the setup never amortizes — the "
            "asymptotic regime needs Delta*polylog << c^2/k."
        )
    return (
        "Extension experiment (not a numbered claim): the paper's "
        "CGCAST builds a reusable schedule — discovery, dedicated "
        "channels and the edge coloring survive across broadcasts. "
        "Re-dissemination costs only the O~(D Delta) stage, so the "
        "per-message cost collapses as messages accumulate while "
        "naive flooding pays O~((c^2/k) D) every time; the "
        "cgcast/naive ratio falls toward the pure dissemination "
        f"ratio (D={stats['diameter']}, Delta="
        f"{stats['max_degree']}, c^2/k={stats['c2k']})."
        + amortize_note
    )


# ----------------------------------------------------------------------
# E12 — primary-user interference robustness (extension)
# ----------------------------------------------------------------------
def _plan_e12(ctx: RunContext) -> Iterable[Point]:
    seed = ctx.seed
    graph = random_regular(20, 4, seed=seed + 7)
    net = build_network(graph, c=8, k=2, seed=seed + 11)
    all_channels = sorted(net.assignment.universe())
    cases = [("none", 0.0, 0.0)]
    for activity in (0.3, 0.6, 0.8):
        cases.append(("short bursts (dwell 4)", activity, 4.0))
        cases.append(("long bursts (dwell 500)", activity, 500.0))
    for name, activity, dwell in cases:
        # Stream seeds are trial_seed + 1000, the seeding the golden
        # E12 rows were recorded with.
        environment = (
            MarkovTraffic(
                all_channels,
                activity=activity,
                mean_dwell=dwell,
                seed_offset=1000,
            )
            if activity > 0
            else None
        )

        def verify_outcome(result):
            report = verify_discovery(result, net)
            return report.success, report.completion_slot

        trial = cseek_trial(
            lambda s: CSeek(net, seed=s),
            verify_outcome,
            environment=environment,
        )

        def reduce(ctx, outcomes, name=name, activity=activity):
            results = outcomes["cseek"]
            done = [t for ok, t in results if ok and t is not None]
            return [
                {
                    "traffic": name,
                    "activity": activity,
                    "success": success_rate([ok for ok, _ in results]),
                    "mean_completion": (
                        summarize(done).mean if done else None
                    ),
                }
            ]

        yield Point(
            [
                Run(
                    "cseek",
                    trial,
                    f"e12-{name}",
                    seed + int(activity * 10),
                )
            ],
            reduce,
        )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
PAPER_SPECS: Dict[str, ScenarioSpec] = {}


def _paper(spec: ScenarioSpec) -> ScenarioSpec:
    register(spec)
    PAPER_SPECS[spec.name] = spec
    return spec


def paper_spec(experiment_id: str) -> ScenarioSpec:
    """The registered spec for one paper experiment id (E1..E12)."""
    key = experiment_id.upper()
    if key not in PAPER_SPECS:
        raise HarnessError(
            f"unknown experiment {experiment_id!r}; valid: "
            f"{', '.join(PAPER_SPECS)}"
        )
    return PAPER_SPECS[key]


_paper(
    ScenarioSpec(
        name="E1",
        title="COUNT accuracy (Lemma 1)",
        description=(
            "Lemma 1: COUNT estimates the broadcaster count within "
            "constants; both estimation rules over an m sweep."
        ),
        trials=30,
        tags=("paper",),
        plan=_plan_e1,
        notes=(
            "Paper claim: COUNT returns an estimate within a constant "
            "factor of the true broadcaster count m, in O(lg^2 n) slots. "
            "Both rules should hold median ratios within [1/4, 4] across "
            "the m sweep; the paper-exact first-crossing rule needs the "
            "long rounds its hidden constant implies."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E2",
        title="CSEEK vs naive discovery scaling (Theorem 4)",
        description=(
            "Theorem 4: CSEEK's c-, Delta- and k-scaling against the "
            "naive baseline and the analytic bound curves."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e2,
        notes=_notes_e2,
    )
)
_paper(
    ScenarioSpec(
        name="E3",
        title="Discovery split across CSEEK's parts (Lemmas 2-3)",
        description=(
            "Lemmas 2/3: part one suffices on un-crowded channels; on "
            "crowded channels part two's weighted listening rescues."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e3,
        notes=(
            "Paper claims: (Lemma 2) part one alone finds neighbors on "
            "un-crowded channels — full-budget rows show part1_fraction "
            "~1.0; (Lemma 3) on crowded channels the part-two listener, "
            "by revisiting channels proportionally to sampled density, "
            "recovers the rest — in the starved rows the weighted "
            "listener's final_fraction beats the uniform ablation at the "
            "same slot budget."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E4",
        title="CKSEEK k-hat filter (Theorem 6)",
        description=(
            "Theorem 6: k-hat discovery gets strictly cheaper as k-hat "
            "grows."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e4,
        notes=(
            "Paper claim: finding only neighbors sharing >= khat channels "
            "costs O~(c^2/khat + (kmax/khat) Delta_khat + Delta) — "
            "strictly less than full CSEEK once khat > k. Expect "
            "schedule_slots to fall monotonically with khat while success "
            "stays 1.0."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E5",
        title="Line-graph Luby coloring (Lemma 8, Fact 7)",
        description=(
            "Lemma 8: 2*Delta-coloring completes in O(lg n) phases, "
            "always proper."
        ),
        trials=8,
        tags=("paper",),
        plan=_plan_e5,
        notes=_notes_e5,
    )
)
_paper(
    ScenarioSpec(
        name="E6",
        title="CGCAST vs naive broadcast (Theorem 9)",
        description=(
            "Theorem 9: CGCAST's per-hop dissemination cost is "
            "O~(Delta) while naive broadcast pays O~(c^2/k) per hop."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e6,
        notes=_notes_e6,
    )
)
_paper(
    ScenarioSpec(
        name="E7",
        title="Bipartite hitting games (Lemmas 10 and 12)",
        description=(
            "Lemmas 10/12: measured hitting times sit above the game "
            "floors."
        ),
        trials=30,
        tags=("paper",),
        plan=_plan_e7,
        notes=(
            "Paper claim: no player beats c^2/(8k) rounds (k <= c/2) or "
            "c/3 rounds (complete game) with probability 1/2. Expect "
            "every measured mean >= the floor, with the near-optimal "
            "fresh player within the constant-8 gap of c^2/k."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E8",
        title="Reduction to the game + Omega(Delta) (Lemma 11, Theorem 13)",
        description=(
            "Lemma 11 + Theorem 13: discovery algorithms, played through "
            "the reduction, respect the game floor; stars enforce the "
            "Omega(Delta) term."
        ),
        trials=15,
        tags=("paper",),
        plan=_plan_e8,
        notes=(
            "Paper claim: any discovery algorithm's first meeting, viewed "
            "through the Lemma 11 reduction, needs >= c^2/(8k) game "
            "rounds, and a star hub cannot finish before Delta receptions. "
            "Expect mean_rounds_to_meet >= game_floor in every row."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E9",
        title="Broadcast floor on channel-disjoint trees (Theorem 14)",
        description=(
            "Theorem 14: channel-disjoint trees force min(c, Delta)-1 "
            "slots per hop on any broadcast, CGCAST included."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e9,
        notes=(
            "Paper claim: with siblings sharing no channels, every "
            "broadcast needs >= depth * (min(c, Delta) - 1) slots. Expect "
            "both protocols' measured times above the analytic floor and "
            "the greedy omniscient schedule to match it exactly "
            "(greedy_oracle >= analytic_floor, with equality up to the "
            "root's head start)."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E10",
        title="Heterogeneity bias in part two (Section 7)",
        description=(
            "Section 7: part two is biased toward strongly overlapping "
            "neighbors — the source of the upper/lower bound gap when "
            "kmax >> k."
        ),
        trials=5,
        tags=("paper",),
        plan=_plan_e10,
        notes=(
            "Paper discussion (Section 7): part two gives priority to "
            "crowded channels, so under a fixed (starved) budget, "
            "neighbors sharing kmax channels are discovered far more "
            "often than those sharing only k — the bias(high/low) column "
            "grows with kmax/k, which is exactly why the paper's upper "
            "and lower bounds diverge in this regime. Full-budget rows "
            "confirm Theorem 4's schedule (which stretches with kmax/k) "
            "still delivers complete discovery."
        ),
    )
)
_paper(
    ScenarioSpec(
        name="E11",
        title="Amortized repeated broadcast (extension of Theorem 9)",
        description=(
            "Extension: CGCAST's setup is reusable, so over repeated "
            "broadcasts its per-message cost drops to the dissemination "
            "stage while naive flooding pays full price every time."
        ),
        trials=3,
        tags=("paper",),
        plan=_plan_e11,
        notes=_notes_e11,
    )
)
_paper(
    ScenarioSpec(
        name="E12",
        title="Primary-user interference robustness (extension)",
        description=(
            "Extension: discovery under primary-user channel occupancy — "
            "short bursts absorbed, long bursts erase meetings."
        ),
        trials=4,
        tags=("paper",),
        plan=_plan_e12,
        notes=(
            "Extension experiment: COUNT's many-slots-per-step structure "
            "makes CSEEK nearly immune to short occupancy bursts (every "
            "meeting step offers many reception chances), while bursts "
            "longer than a step erase whole meetings — completion "
            "stretches with occupancy and discovery finally fails when "
            "most of the schedule is occupied. The paper's w.h.p. "
            "budget constants are what buy this slack."
        ),
    )
)
