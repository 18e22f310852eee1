"""The scenario compiler: specs -> executable experiment plans.

A compiled scenario is a sequence of :class:`Point` objects, one per
sweep point. Each point names one or more :class:`Run` entries (one
``run_trials`` invocation each — trial callable, seed-stream label,
master seed, trial count) plus a reducer turning the collected outcomes
into table rows. :func:`run_scenario_spec` walks the plan with one
shared executor, so a scenario runs serially, on a process pool
(``jobs=N``) or vectorized over the trial axis (``jobs="batch"``)
without the spec knowing — and produces identical rows either way,
because per-trial seeds derive up front.

Declarative specs are lowered here too: the topology and assignment
specs build the network, the interference spec becomes a spectrum
environment (:mod:`repro.sim.environment` — Markov, Poisson or static
primary-user traffic), the protocol spec picks a trial factory from
:mod:`repro.scenarios.trials` (each with its batch descriptor), and
a stock reducer computes the protocol family's metric
columns. Plan-based specs (the paper experiments) skip the lowering and
supply Points directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.analysis import success_rate, summarize
from repro.baselines import NaiveBroadcast, NaiveDiscovery
from repro.core import (
    CGCast,
    CKSeek,
    CSeek,
    ProtocolConstants,
    count_schedule,
    run_group,
    verify_discovery,
    verify_k_discovery,
)
from repro.graphs import builders, topologies
from repro.harness.executor import Executor, XBatchExecutor, get_executor
from repro.harness.runner import ExperimentTable, run_trials
from repro.model.errors import HarnessError, ReproError
from repro.model.spec import ceil_log2
from repro.scenarios.spec import ScenarioSpec, resolve
from repro.sim.rng import RngHub
from repro.scenarios.trials import (
    broadcaster_star,
    cgcast_trial,
    count_trial,
    cseek_trial,
)
from repro.sim import SpectrumEnvironment, make_environment

__all__ = [
    "LoweredPoint",
    "Point",
    "Run",
    "RunContext",
    "lower_points",
    "run_scenario_spec",
    "scenario_plan",
]

Row = Dict[str, object]
Jobs = int | str | Executor | None


@dataclass
class Run:
    """One ``run_trials`` invocation inside a sweep point.

    Attributes:
        key: Name under which the outcome list reaches the reducer.
        trial: The trial callable (with an ``xbatch`` descriptor when
            batchable).
        label: Seed-stream label (decorrelates runs sharing a seed).
        seed: Master seed for this run's trial-seed derivation.
        trials: Optional trial-count override (default: the context's).
    """

    key: str
    trial: Callable[[int], object]
    label: str
    seed: int
    trials: Optional[int] = None


@dataclass
class Point:
    """One sweep point: runs to execute + a reducer producing rows.

    ``reduce(ctx, outcomes)`` receives the per-run outcome lists keyed
    by run name and returns the point's table rows (several experiments
    emit more than one row per set of trials). Reducers may stash
    derived values in ``ctx.extras`` for computed notes.
    """

    runs: Sequence[Run]
    reduce: Callable[["RunContext", Dict[str, list]], List[Row]]


@dataclass
class RunContext:
    """Per-invocation knobs handed to plans, reducers and notes."""

    trials: int
    seed: int
    extras: Dict[str, object] = field(default_factory=dict)


@dataclass
class LoweredPoint:
    """One declarative sweep point, lowered for both execution paths.

    The fixed-trials path consumes :attr:`point` (whose reducer is the
    reference arithmetic golden tables pin). The streaming path
    (:mod:`repro.scenarios.streaming`) consumes the rest: the same
    trial callable and seed-stream label, plus the metadata its online
    accumulators need to reproduce the reducer's columns chunk by
    chunk — the metric ``family`` names the outcome shape, ``static``
    carries the point's constant columns (e.g. ``khat``), and
    ``context`` carries family constants (e.g. the true broadcaster
    count ``m`` the COUNT metrics normalize by).
    """

    point: Point
    key: str
    trial: Callable[[int], object]
    label: str
    params: Row
    family: str
    static: Row = field(default_factory=dict)
    context: Row = field(default_factory=dict)


def scenario_plan(spec: ScenarioSpec, ctx: RunContext) -> Iterable[Point]:
    """The spec's point sequence (declarative lowering or its plan)."""
    if spec.plan is not None:
        return spec.plan(ctx)
    return _declarative_plan(spec, ctx)


def run_scenario_spec(
    spec: ScenarioSpec,
    trials: Optional[int] = None,
    seed: int = 0,
    jobs: Jobs = None,
) -> ExperimentTable:
    """Compile and execute a scenario; return its table.

    Args:
        spec: The scenario to run.
        trials: Trials per sweep point (None = the spec's default).
        seed: Master seed.
        jobs: Execution strategy (see
            :func:`repro.harness.executor.get_executor`); never changes
            rows, only wall-clock. ``jobs="xbatch"`` additionally
            groups declarative sweep points with matching cross-point
            signatures into single lockstep executions.
    """
    executor = get_executor(jobs)
    ctx = RunContext(
        trials=trials if trials is not None else spec.trials, seed=seed
    )
    if isinstance(executor, XBatchExecutor) and spec.plan is None:
        rows = _xbatch_rows(spec, ctx, executor)
    else:
        rows = []
        for point in scenario_plan(spec, ctx):
            outcomes: Dict[str, list] = {}
            for run in point.runs:
                outcomes[run.key] = run_trials(
                    run.trial,
                    run.trials if run.trials is not None else ctx.trials,
                    run.seed,
                    label=run.label,
                    executor=executor,
                )
            rows.extend(point.reduce(ctx, outcomes))
    notes = spec.notes(rows, ctx) if callable(spec.notes) else spec.notes
    return ExperimentTable(
        experiment_id=spec.table_id,
        title=spec.title,
        rows=rows,
        notes=notes,
        columns=spec.columns,
    )


def _xbatch_rows(
    spec: ScenarioSpec, ctx: RunContext, executor: XBatchExecutor
) -> List[Row]:
    """Execute a declarative spec with cross-point lockstep grouping.

    Runs whose trial factories publish matching
    :meth:`~repro.core.xbatch.XBatchable.signature` descriptors are
    concatenated along one trial axis and executed through
    :func:`repro.core.run_group` — one engine call per protocol step
    for the whole compatibility group, instead of one per sweep point.
    Runs without a descriptor fall back to the executor's inherited
    per-run batch path. Per-trial seeds derive exactly as
    :func:`~repro.harness.runner.run_trials` derives them, so rows are
    byte-identical to every other ``jobs`` value; reducers still see
    outcomes per point, in sweep order.
    """
    lowered = list(lower_points(spec, ctx))
    entries: List[Run] = []  # flattened (point, run) pairs
    by_point: List[List[int]] = []  # entry indices per lowered point
    groups: Dict[tuple, List[int]] = {}
    for lp in lowered:
        idxs: List[int] = []
        for run in lp.point.runs:
            e = len(entries)
            entries.append(run)
            idxs.append(e)
            xb = getattr(run.trial, "xbatch", None)
            if xb is not None:
                groups.setdefault(xb.signature(), []).append(e)
        by_point.append(idxs)

    def run_seeds(run: Run) -> List[int]:
        count = run.trials if run.trials is not None else ctx.trials
        return RngHub(run.seed).spawn_seeds(count, name=run.label)

    grouped: Dict[int, list] = {}
    for members in groups.values():
        xs = [entries[e].trial.xbatch for e in members]
        seed_lists = [run_seeds(entries[e]) for e in members]
        for e, outs in zip(
            members, run_group(xs, seed_lists, executor.batch_size)
        ):
            grouped[e] = outs

    rows: List[Row] = []
    for lp, idxs in zip(lowered, by_point):
        outcomes: Dict[str, list] = {}
        for e in idxs:
            run = entries[e]
            if e in grouped:
                outcomes[run.key] = grouped[e]
            else:
                outcomes[run.key] = run_trials(
                    run.trial,
                    run.trials if run.trials is not None else ctx.trials,
                    run.seed,
                    label=run.label,
                    executor=executor,
                )
        rows.extend(lp.point.reduce(ctx, outcomes))
    return rows


# ----------------------------------------------------------------------
# Declarative lowering
# ----------------------------------------------------------------------
_TOPOLOGY_BUILDERS: Dict[str, Callable] = {
    "star": topologies.star,
    "path": topologies.path,
    "cycle": topologies.cycle,
    "grid": topologies.grid,
    "complete_tree": topologies.complete_tree,
    "path_of_cliques": topologies.path_of_cliques,
    "random_geometric": topologies.random_geometric,
    "erdos_renyi": topologies.erdos_renyi_connected,
    "random_regular": topologies.random_regular,
    "two_node": topologies.two_node,
}
# Generators that take a `seed` argument (defaulted to $pseed).
_SEEDED_TOPOLOGIES = {"random_geometric", "erdos_renyi", "random_regular"}


def _build_net(spec: ScenarioSpec, scope: Dict[str, object]):
    assignment = spec.assignment
    if assignment is None:
        raise HarnessError(
            f"scenario {spec.name!r} needs an assignment spec for "
            f"protocol {spec.protocol.kind!r}"
        )
    if assignment.kind == "random_subsets":
        # White-space lowering: the assignment induces the graph, so
        # there is no topology to build (the spec layer enforces that).
        return builders.build_random_subset_network(
            n=int(resolve(assignment.n, scope)),
            c=int(resolve(assignment.c, scope)),
            k=int(resolve(assignment.k, scope)),
            pool_size=int(resolve(assignment.pool_size, scope)),
            seed=int(resolve(assignment.seed, scope)),
            max_tries=int(resolve(assignment.max_tries, scope)),
        )
    params = dict(resolve(dict(spec.topology.params), scope))
    if spec.topology.kind in _SEEDED_TOPOLOGIES:
        params.setdefault("seed", scope["pseed"])
    graph = _TOPOLOGY_BUILDERS[spec.topology.kind](**params)
    return builders.build_network(
        graph,
        c=int(resolve(assignment.c, scope)),
        k=int(resolve(assignment.k, scope)),
        seed=int(resolve(assignment.seed, scope)),
        kind=assignment.kind,
        kmax=(
            None
            if assignment.kmax is None
            else int(resolve(assignment.kmax, scope))
        ),
        high_fraction=float(resolve(assignment.high_fraction, scope)),
    )


def _environment(
    spec: ScenarioSpec,
    scope: Dict[str, object],
    channel_ids: Sequence[int],
) -> Optional[SpectrumEnvironment]:
    """Lower the interference spec into a spectrum environment.

    Returns None when the sweep point disables interference (zero
    activity, or an empty blocked set for the static model), so
    downstream trial factories skip jam masks entirely. Invalid
    resolved model names fail here with the environment layer's error.
    """
    inter = spec.interference
    if inter is None:
        return None
    blocked = resolve(inter.blocked, scope)
    # A list activity is a per-channel vector (aligned with the sorted
    # channel universe); scalars keep the homogeneous behavior.
    activity = resolve(inter.activity, scope)
    if isinstance(activity, (list, tuple)):
        activity = [float(a) for a in activity]
    else:
        activity = float(activity)
    return make_environment(
        str(resolve(inter.model, scope)),
        sorted(channel_ids),
        activity=activity,
        mean_dwell=float(resolve(inter.mean_dwell, scope)),
        seed_offset=int(resolve(inter.seed_offset, scope)),
        blocked=None if blocked is None else list(blocked),
    )


def _filter_metrics(
    spec: ScenarioSpec, params: Row, metrics: Row
) -> List[Row]:
    if spec.metrics is not None:
        unknown = set(spec.metrics) - set(metrics)
        if unknown:
            raise HarnessError(
                f"scenario {spec.name!r} requests unknown metrics: "
                f"{', '.join(sorted(unknown))}; available: "
                f"{', '.join(metrics)}"
            )
        metrics = {k: metrics[k] for k in spec.metrics}
    return [{**params, **metrics}]


def _discovered_fraction(result, truth) -> float:
    """Fraction of true (listener, neighbor) pairs the run discovered."""
    total = sum(len(s) for s in truth)
    if total == 0:
        return 1.0
    found = sum(
        len(result.discovered[u] & set(truth[u]))
        for u in range(len(truth))
    )
    return found / total


def _discovery_metrics(outcomes: list) -> Row:
    """Stock columns for discovery trials.

    Each outcome is ``(success, completion_slot, total_slots,
    discovered_fraction)``; the fraction keeps starved-budget ablations
    informative where binary success saturates at 0 or 1.
    """
    done = [t for ok, t, _, _ in outcomes if ok and t is not None]
    return {
        "success": success_rate([ok for ok, _, _, _ in outcomes]),
        "discovered_fraction": summarize(
            [f for _, _, _, f in outcomes]
        ).mean,
        "mean_completion": summarize(done).mean if done else None,
        "schedule_slots": outcomes[0][2],
    }


def _lower_point(
    spec: ScenarioSpec, ctx: RunContext, idx: int, params: Row
) -> LoweredPoint:
    scope: Dict[str, object] = dict(params)
    scope.update(seed=ctx.seed, point=idx, pseed=ctx.seed + idx)
    kind = spec.protocol.kind
    proto_params = dict(resolve(dict(spec.protocol.params), scope))
    label = f"{spec.name}[{idx}]"

    if kind == "count":
        if "m" not in proto_params:
            raise HarnessError(
                f"scenario {spec.name!r}: count protocol needs an 'm' "
                "parameter (broadcaster count)"
            )
        m = int(proto_params["m"])
        max_count = int(proto_params.get("max_count", m))
        log_n = int(proto_params.get("log_n", ceil_log2(m + 1)))
        consts_kwargs = {"count_rule": proto_params.get("rule", "argmax")}
        if "round_slots" in proto_params:
            consts_kwargs["count_round_slots"] = float(
                proto_params["round_slots"]
            )
        constants = ProtocolConstants(**consts_kwargs)
        adj, channels, tx_role = broadcaster_star(m)
        trial = count_trial(
            adj,
            channels,
            tx_role,
            max_count=max_count,
            log_n=log_n,
            constants=constants,
            postprocess=lambda est: float(est[0]),
            environment=_environment(spec, scope, [0]),
        )
        rounds, length = count_schedule(max_count, log_n, constants)

        def reduce_count(ctx, outcomes, m=m, slots=rounds * length):
            estimates = outcomes["count"]
            metrics = {
                "median_ratio": float(np.median([e / m for e in estimates])),
                "band_rate": success_rate(
                    [m / 4 <= e <= 4 * m for e in estimates]
                ),
                "slots": slots,
            }
            return _filter_metrics(spec, params, metrics)

        return LoweredPoint(
            point=Point(
                runs=[Run("count", trial, label, ctx.seed)],
                reduce=reduce_count,
            ),
            key="count",
            trial=trial,
            label=label,
            params=params,
            family="count",
            static={"slots": rounds * length},
            context={"m": m},
        )

    try:
        net = _build_net(spec, scope)
    except ReproError as exc:
        # Same type, so existing handlers still match; the message names
        # the point and the seeds needed to replay the failure.
        raise type(exc)(
            f"scenario {spec.name!r} point {idx} {dict(params)} "
            f"(seed={ctx.seed}, pseed={scope['pseed']}): {exc}"
        ) from exc
    environment = _environment(
        spec, scope, sorted(net.assignment.universe())
    )

    if kind in ("cseek", "ckseek"):
        if kind == "ckseek":
            if "khat" not in proto_params:
                raise HarnessError(
                    f"scenario {spec.name!r}: ckseek needs a 'khat' "
                    "parameter"
                )
            khat = int(proto_params.pop("khat"))
            delta_khat = proto_params.pop("delta_khat", "auto")
            if delta_khat == "auto":
                delta_khat = net.max_good_degree(khat)
            truth = net.good_neighbor_sets(khat)

            def make_protocol(s, net=net, khat=khat, dk=delta_khat):
                return CKSeek(
                    net, khat=khat, delta_khat=dk, seed=s, **proto_params
                )

            def postprocess(result, net=net, khat=khat, truth=truth):
                report = verify_k_discovery(result, net, khat=khat)
                return (
                    report.success,
                    report.completion_slot,
                    result.total_slots,
                    _discovered_fraction(result, truth),
                )

            extra_cols = {"khat": khat, "delta_khat": delta_khat}
        else:
            truth = net.true_neighbor_sets()

            def make_protocol(s, net=net):
                return CSeek(net, seed=s, **proto_params)

            def postprocess(result, net=net, truth=truth):
                report = verify_discovery(result, net)
                return (
                    report.success,
                    report.completion_slot,
                    result.total_slots,
                    _discovered_fraction(result, truth),
                )

            extra_cols = {}
        trial = cseek_trial(
            make_protocol, postprocess, environment=environment
        )

        def reduce_discovery(ctx, outcomes, extra_cols=extra_cols):
            metrics = {**extra_cols, **_discovery_metrics(outcomes[kind])}
            return _filter_metrics(spec, params, metrics)

        return LoweredPoint(
            point=Point(
                runs=[Run(kind, trial, label, ctx.seed)],
                reduce=reduce_discovery,
            ),
            key=kind,
            trial=trial,
            label=label,
            params=params,
            family="discovery",
            static=dict(extra_cols),
        )

    if kind == "cgcast":
        source = int(proto_params.pop("source", 0))

        def make_cgcast(s, net=net, source=source, env=environment):
            return CGCast(
                net, source=source, seed=s, environment=env,
                **proto_params,
            )

        def cg_outcome(result):
            return (
                result.success,
                result.ledger.get("dissemination"),
                result.total_slots,
            )

        trial = cgcast_trial(
            make_cgcast, cg_outcome, environment=environment
        )

        def reduce_cgcast(ctx, outcomes):
            cg = outcomes["cgcast"]
            diss = [d for ok, d, _ in cg if ok and d is not None]
            metrics = {
                "success": success_rate([ok for ok, _, _ in cg]),
                "mean_dissemination": (
                    summarize(diss).mean if diss else None
                ),
                "schedule_slots": cg[0][2],
            }
            return _filter_metrics(spec, params, metrics)

        return LoweredPoint(
            point=Point(
                runs=[Run("cgcast", trial, label, ctx.seed)],
                reduce=reduce_cgcast,
            ),
            key="cgcast",
            trial=trial,
            label=label,
            params=params,
            family="cgcast",
        )

    if kind == "naive_discovery":
        nd_truth = net.true_neighbor_sets()
        if "max_slots" in proto_params:
            proto_params["max_slots"] = int(proto_params["max_slots"])

        def nd_trial(s, net=net, truth=nd_truth, params=proto_params):
            nd = NaiveDiscovery(
                net, seed=s, environment=environment, **params
            )
            result = nd.run()
            report = nd.verify(result)
            return (
                report.success,
                report.completion_slot,
                result.total_slots,
                _discovered_fraction(result, truth),
            )

        def reduce_nd(ctx, outcomes):
            return _filter_metrics(
                spec, params, _discovery_metrics(outcomes["naive_discovery"])
            )

        return LoweredPoint(
            point=Point(
                runs=[Run("naive_discovery", nd_trial, label, ctx.seed)],
                reduce=reduce_nd,
            ),
            key="naive_discovery",
            trial=nd_trial,
            label=label,
            params=params,
            family="discovery",
        )

    # naive_broadcast
    source = int(proto_params.pop("source", 0))

    def nb_trial(s, net=net, source=source):
        result = NaiveBroadcast(net, source=source, seed=s).run()
        return result.success, result.completion_slot

    def reduce_nb(ctx, outcomes):
        nv = outcomes["naive_broadcast"]
        done = [t for ok, t in nv if ok and t is not None]
        metrics = {
            "success": success_rate([ok for ok, _ in nv]),
            "mean_completion": summarize(done).mean if done else None,
        }
        return _filter_metrics(spec, params, metrics)

    return LoweredPoint(
        point=Point(
            runs=[Run("naive_broadcast", nb_trial, label, ctx.seed)],
            reduce=reduce_nb,
        ),
        key="naive_broadcast",
        trial=nb_trial,
        label=label,
        params=params,
        family="broadcast",
    )


def lower_points(
    spec: ScenarioSpec, ctx: RunContext
) -> Iterable[LoweredPoint]:
    """Lower a declarative spec's sweep into :class:`LoweredPoint`\\ s.

    The streaming path's entry into the lowering — same trial
    construction as the fixed path (both come from one
    :func:`_lower_point` call per sweep point), so the two paths run
    identical workloads and differ only in how outcomes aggregate.

    Raises:
        HarnessError: for plan-based specs, which have no declarative
            lowering.
    """
    if spec.plan is not None:
        raise HarnessError(
            f"scenario {spec.name!r} is code-defined (plan-based) and "
            "has no declarative lowering"
        )
    points = spec.sweep.points() if spec.sweep is not None else [{}]
    for idx, params in enumerate(points):
        yield _lower_point(spec, ctx, idx, params)


def _declarative_plan(
    spec: ScenarioSpec, ctx: RunContext
) -> Iterable[Point]:
    points = spec.sweep.points() if spec.sweep is not None else [{}]
    for idx, params in enumerate(points):
        yield _lower_point(spec, ctx, idx, params).point
