"""The benchmark's four workloads, as declarative scenario specs.

Each workload is one ``repro.scenarios.run_scenario(spec, seed=...,
jobs=...)`` call. The spec fixes the sweep and trials per point; the
scenario's master seed comes from the benchmark's ``--seed`` (see
``run.scenario_seed``), and every network draw (``$pseed = seed +
point``) and trial seed derives from it. So the same seed gives the
same inputs, and the program sees only the generated networks.

``cross_jobs`` names a second execution strategy whose rows must be
byte-identical to the timed strategy's (per-trial seeds derive up
front, so the strategy never changes results). ``make_references.py``
requires the two to agree before it stores a workload's rows. Naive
trials have no batch path, so for ``naive_star`` both strategies run
the same code and only the stored rows check it.

``exercised`` names the layer boundaries (see ``layers.py``) the
workload must reach; the traced run fails if one of them records no
call, or if any boundary outside the set records one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.scenarios import (
    AssignmentSpec,
    InterferenceSpec,
    ProtocolSpec,
    ScenarioSpec,
    SweepSpec,
    TopologySpec,
)

__all__ = ["WORKLOADS", "Workload"]

# Setup, building and lowering, shared by every workload.
_SETUP = frozenset({"graphs.build_network", "scenarios.compile.lower"})
# What any CSEEK/CGCAST execution reaches, serial or lockstep.
_PROTOCOL = frozenset(
    {"core.count.step", "sim.trace.record", "sim.metrics.charge",
     "sim.backend.gemm"}
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: The ``--workload`` value.
        spec: The scenario run once per timed call.
        jobs: The timed execution strategy.
        cross_jobs: The strategy the stored rows are cross-checked
            against when they are generated.
        exercised: Layer boundaries that must record calls; every
            other boundary must record none.
    """

    name: str
    spec: ScenarioSpec
    jobs: str
    cross_jobs: str
    exercised: FrozenSet[str]

    @property
    def points(self) -> int:
        """Sweep points, hence table rows, per call."""
        return len(self.spec.sweep.points())

    @property
    def trials(self) -> int:
        """Trials attempted per call."""
        return self.points * self.spec.trials


def _path_of_cliques(
    name: str, draws: int, trials: int, **extra
) -> ScenarioSpec:
    """CGCAST on E6's path-of-cliques nets (size-4 cliques, c=8, k=1).

    The ``draw`` axis is a replicate index: each point's ``$pseed``
    differs, so every (cliques, draw) point has its own channel
    assignment and the per-call cost averages over several draws.
    """
    return ScenarioSpec(
        name=name,
        title=f"benchmark workload {name}",
        trials=trials,
        sweep=SweepSpec(
            axes={"cliques": [4, 8, 12], "draw": list(range(draws))}
        ),
        topology=TopologySpec(
            "path_of_cliques", {"num_cliques": "$cliques", "clique_size": 4}
        ),
        assignment=AssignmentSpec(kind="exact_uniform", c=8, k=1),
        protocol=ProtocolSpec("cgcast"),
        **extra,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cseek_xbatch",
            spec=ScenarioSpec(
                name="bench-cseek-xbatch",
                title="benchmark workload cseek_xbatch",
                trials=1,
                sweep=SweepSpec(
                    axes={"c": [8, 12, 16, 20], "draw": [0, 1]}
                ),
                topology=TopologySpec("random_regular", {"n": 20, "d": 4}),
                assignment=AssignmentSpec(kind="exact_uniform", c="$c", k=2),
                protocol=ProtocolSpec("cseek"),
            ),
            jobs="xbatch",
            cross_jobs="serial",
            exercised=_SETUP | _PROTOCOL | {
                "core.cseek_batch.lockstep",
                "sim.engine.resolve_step_batch",
                "core.xbatch.run_group",
            },
        ),
        Workload(
            name="naive_star",
            spec=ScenarioSpec(
                name="bench-naive-star",
                title="benchmark workload naive_star",
                trials=1,
                sweep=SweepSpec(axes={"delta": [32, 64]}),
                topology=TopologySpec(
                    "star", {"n": {"$expr": "delta + 1"}}
                ),
                assignment=AssignmentSpec(kind="global_core", c=8, k=2),
                protocol=ProtocolSpec("naive_discovery"),
            ),
            jobs="batch",
            cross_jobs="serial",
            exercised=_SETUP | {
                "sim.engine.resolve_varying",
                "baselines.naive_discovery.run",
                "sim.trace.record",
                "sim.metrics.charge",
                "harness.executor.run",
            },
        ),
        Workload(
            name="cgcast_serial",
            spec=_path_of_cliques("bench-cgcast-serial", draws=2, trials=1),
            jobs="serial",
            cross_jobs="batch",
            exercised=_SETUP | _PROTOCOL | {
                "core.cseek.serial",
                "sim.engine.resolve_step",
                "core.dissemination.serial",
                "core.coloring.luby",
                "core.exchange.oracle",
                "core.cgcast.run",
                "harness.executor.run",
            },
        ),
        Workload(
            name="cgcast_markov",
            spec=_path_of_cliques(
                "bench-cgcast-markov",
                draws=1,
                trials=2,
                interference=InterferenceSpec(
                    model="markov", activity=0.3, mean_dwell=24.0
                ),
            ),
            jobs="batch",
            cross_jobs="serial",
            exercised=_SETUP | _PROTOCOL | {
                "core.cgcast_batch.lockstep",
                "core.cseek_batch.lockstep",
                "sim.engine.resolve_step_batch",
                "core.dissemination.batch",
                "core.coloring.luby",
                "sim.environment.occupied_block",
                "sim.environment.jam_mask",
                "harness.executor.run",
            },
        ),
    )
}
