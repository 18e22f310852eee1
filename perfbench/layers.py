"""Per-layer tracing from outside the program.

Each :class:`Boundary` names public functions or methods at one module
boundary of ``repro``. :class:`Tracer` wraps them for the length of a
``with`` block: every call records its count, its inclusive (busy)
time, its self time (busy minus the time of traced calls nested in
it) and the boundary's work counts, computed from the call's
arguments. Nothing is added to ``src/``.

Callers bind these functions by name (``from repro.core.count import
run_count_step_batch``), so patching the defining module alone would
miss most calls. The tracer replaces *every* binding of the original
object in every loaded ``repro`` module and class, then audits that no
binding of an original is left.

Time partition: the root span is the timed ``run_scenario`` call. The
wrapper's own cost (clock reads, work counts, stack upkeep) is charged
to a ``bench.trace.bookkeeping`` row rather than to the caller, so
``sum(self) + bookkeeping + unattributed == root wall`` holds exactly,
in integer nanoseconds. It holds by construction (``unattributed`` is
the root wall minus what the top-level spans handed up), so checking
it only checks this file's arithmetic; ``unattributed`` is the figure
that shows how much of the wall the boundaries cover.

A boundary re-entered directly from itself (``record_step_batch``
falling back to ``TraceRecorder.record_step``; the batched executor
delegating to the serial one) records only the outer call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["BOUNDARIES", "Boundary", "LayerStats", "Tracer", "TraceError"]

_now = time.perf_counter_ns


class TraceError(RuntimeError):
    """The tracer could not patch or account for a boundary."""


# ----------------------------------------------------------------------
# Work counts, computed from a call's arguments
# ----------------------------------------------------------------------
def _transmitters(coins: np.ndarray, tx_role: np.ndarray) -> int:
    """Node-slots whose broadcaster coin came up (``coins & tx_role``)."""
    role = tx_role if tx_role.ndim == 1 else tx_role[:, None, :]
    return int(np.count_nonzero(coins & role))


def _step_work(adjacency, channels, tx_role, coins, jam=None):
    return {
        "node_slots": int(coins.size),
        "transmitters": _transmitters(coins, tx_role),
    }


def _varying_work(adjacency, channels, tx, chunk=128):
    n = adjacency.shape[0]
    return {
        "node_slots": int(tx.size),
        "transmitters": int(np.count_nonzero(tx)),
        # The dense (T, n, n) boolean reach masks the chunks build.
        "mask_bytes": int(tx.shape[0]) * n * n,
    }


def _gemm_work(backend, reach, coins):
    # Two products (contenders, id-sums), 2 flops per multiply-add.
    rows = coins.size // coins.shape[-1]
    n = reach.shape[-1]
    return {"flops": 4 * rows * n * n}


def _lockstep_work(members):
    return {"trials": sum(len(m.seeds) for m in members)}


def _group_work(xs, seed_lists, batch_size=None):
    return {"members": len(xs)}


def _occupied_work(stream, num_slots):
    return {
        "slot_channels": stream.num_trials * num_slots * stream.num_channels
    }


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: a name and the callables that make it up.

    Attributes:
        name: ``<module>.<boundary>``, the metric-name prefix.
        targets: ``"module:attr"`` or ``"module:Class.method"`` paths.
        work: Optional ``work(*args, **kwargs) -> {count: int}``.
        counts: The work-count names ``work`` returns.
    """

    name: str
    targets: Tuple[str, ...]
    work: Optional[Callable[..., Dict[str, int]]] = None
    counts: Tuple[str, ...] = ()


_STEP_COUNTS = ("node_slots", "transmitters")

BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary(
        "sim.engine.resolve_varying",
        ("repro.sim.engine:resolve_varying",),
        _varying_work,
        _STEP_COUNTS + ("mask_bytes",),
    ),
    Boundary(
        "baselines.naive_discovery.run",
        ("repro.baselines.naive_discovery:NaiveDiscovery.run",),
    ),
    Boundary(
        "core.cseek_batch.lockstep",
        ("repro.core.cseek_batch:run_cseek_lockstep",),
        _lockstep_work,
        ("trials",),
    ),
    Boundary(
        "core.count.step",
        (
            "repro.core.count:run_count_step",
            "repro.core.count:run_count_step_batch",
        ),
    ),
    Boundary(
        "sim.engine.resolve_step_batch",
        ("repro.sim.engine:resolve_step_batch",),
        _step_work,
        _STEP_COUNTS,
    ),
    Boundary(
        "sim.trace.record",
        (
            "repro.sim.trace:record_step_batch",
            "repro.sim.trace:TraceRecorder.record_step",
        ),
    ),
    Boundary("sim.metrics.charge", ("repro.sim.metrics:SlotLedger.charge",)),
    Boundary(
        "core.xbatch.run_group",
        ("repro.core.xbatch:run_group",),
        _group_work,
        ("members",),
    ),
    Boundary(
        "sim.backend.gemm",
        (
            "repro.sim.backend:NumpyBackend.step_products",
            "repro.sim.backend:NumpyBackend.batch_step_products",
        ),
        _gemm_work,
        ("flops",),
    ),
    Boundary("core.cseek.serial", ("repro.core.cseek:CSeek.run",)),
    Boundary(
        "sim.engine.resolve_step",
        ("repro.sim.engine:resolve_step",),
        _step_work,
        _STEP_COUNTS,
    ),
    Boundary(
        "core.dissemination.serial",
        ("repro.core.dissemination:run_dissemination",),
    ),
    Boundary(
        "core.dissemination.batch",
        ("repro.core.dissemination:run_dissemination_batch",),
    ),
    Boundary(
        "core.coloring.luby",
        ("repro.core.coloring:LubyEdgeColoring.run",),
    ),
    Boundary("core.exchange.oracle", ("repro.core.exchange:oracle_exchange",)),
    Boundary("core.cgcast.run", ("repro.core.cgcast:CGCast.run",)),
    Boundary(
        "harness.executor.run",
        (
            "repro.harness.executor:SerialExecutor.run",
            "repro.harness.executor:BatchedExecutor.run",
        ),
    ),
    Boundary(
        "sim.environment.occupied_block",
        (
            "repro.sim.environment:_MarkovStream.occupied_block",
            "repro.sim.environment:_PoissonStream.occupied_block",
            "repro.sim.environment:_StaticStream.occupied_block",
        ),
        _occupied_work,
        ("slot_channels",),
    ),
    Boundary(
        "sim.environment.jam_mask",
        ("repro.sim.environment:TrafficStream.jam_mask",),
    ),
    Boundary(
        "core.cgcast_batch.lockstep",
        ("repro.core.cgcast_batch:run_cgcast_lockstep",),
        _lockstep_work,
        ("trials",),
    ),
    Boundary("graphs.build_network", ("repro.graphs.builders:build_network",)),
    Boundary("scenarios.compile.lower", ("repro.scenarios.compile:_lower_point",)),
)

BOOKKEEPING = "bench.trace.bookkeeping"


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
@dataclass
class LayerStats:
    """Aggregates for one boundary over one traced call."""

    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    work: Dict[str, int] = field(default_factory=dict)


class _Frame:
    __slots__ = ("name", "child_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child_ns = 0


@dataclass
class TracedCall:
    """One traced root call: its wall time and per-boundary stats."""

    root_ns: int
    unattributed_ns: int
    bookkeeping_ns: int
    layers: Dict[str, LayerStats]

    def partition_gap_ns(self) -> int:
        """Root wall minus (self times + bookkeeping + unattributed)."""
        total = sum(s.self_ns for s in self.layers.values())
        return self.root_ns - (
            total + self.bookkeeping_ns + self.unattributed_ns
        )

    def counts(self) -> Dict[str, int]:
        """Call and work counts, the part that must repeat exactly."""
        out = {}
        for name, st in self.layers.items():
            out[f"{name}.calls"] = st.calls
            for key, value in st.work.items():
                out[f"{name}.{key}"] = value
        return out


def _resolve(path: str) -> Tuple[object, str, object]:
    """``"module:Class.attr"`` -> (owner, attr name, original object)."""
    module_name, _, dotted = path.partition(":")
    owner: object = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise TraceError(f"{path}: {attr!r} is not defined on the class")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def _namespaces() -> List[Tuple[str, object]]:
    """Every loaded ``repro`` module, and every class defined in one."""
    spaces: List[Tuple[str, object]] = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        spaces.append((mod_name, mod))
        for value in list(vars(mod).values()):
            if isinstance(value, type) and getattr(
                value, "__module__", ""
            ).startswith("repro"):
                spaces.append((f"{mod_name}.{value.__name__}", value))
    return spaces


class Tracer:
    """Patches every boundary binding while active; one instance per run.

    Use as ``with Tracer(BOUNDARIES) as tracer: tracer.trace(fn)``.
    Patching happens on entry and is undone on exit, so untraced calls
    made outside the block run the program's own functions.
    """

    def __init__(self, boundaries: Sequence[Boundary]) -> None:
        self.boundaries = {b.name: b for b in boundaries}
        self._patched: List[Tuple[object, str, object]] = []
        # id(original) -> (original, boundary name)
        self._originals: Dict[int, Tuple[object, str]] = {}
        self._stack: List[_Frame] = []
        self._stats: Dict[str, LayerStats] = {}
        self._bookkeeping_ns = 0
        self._recording = False

    # -- patching ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for boundary in self.boundaries.values():
                for path in boundary.targets:
                    self._patch(boundary, path)
            self._audit()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, boundary: Boundary, path: str) -> None:
        owner, attr, original = _resolve(path)
        if id(original) in self._originals:
            raise TraceError(f"{path} is listed twice")
        self._originals[id(original)] = (original, boundary.name)
        wrapper = self._wrap(boundary, original)
        bound = 0
        for _, space in _namespaces():
            for name, value in list(vars(space).items()):
                if value is original:
                    self._patched.append((space, name, original))
                    setattr(space, name, wrapper)
                    bound += 1
        if bound == 0:
            raise TraceError(f"{path}: no binding found to patch")

    def _audit(self) -> None:
        """Fail if any loaded binding still points at an original.

        Importing one target's module can bind an earlier target in a
        module the earlier scan never saw; module-level containers
        (dispatch tables) are searched one level deep too.
        """
        for where, space in _namespaces():
            for name, value in vars(space).items():
                inner = ()
                if isinstance(value, dict):
                    inner = tuple(value.values())
                elif isinstance(value, (list, tuple)):
                    inner = tuple(value)
                for item in (value,) + inner:
                    original, boundary = self._originals.get(id(item), (self, ""))
                    if original is item:
                        raise TraceError(
                            f"{where}.{name} still binds the untraced "
                            f"{boundary} boundary"
                        )

    def _restore(self) -> None:
        for space, name, original in reversed(self._patched):
            setattr(space, name, original)
        self._patched.clear()
        self._originals.clear()

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        name = boundary.name
        work = boundary.work
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording or (stack and stack[-1].name == name):
                return fn(*args, **kwargs)
            enter = _now()
            counts = work(*args, **kwargs) if work is not None else None
            frame = _Frame(name)
            stack.append(frame)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                st = self._stats.get(name)
                if st is None:
                    st = self._stats[name] = LayerStats()
                busy = end - start
                st.calls += 1
                st.busy_ns += busy
                st.self_ns += busy - frame.child_ns
                if counts:
                    for key, value in counts.items():
                        st.work[key] = st.work.get(key, 0) + value
                leave = _now()
                stack[-1].child_ns += leave - enter
                self._bookkeeping_ns += (leave - enter) - busy

        return traced

    # -- recording -----------------------------------------------------
    def trace(self, fn: Callable[[], object]) -> Tuple[object, TracedCall]:
        """Call ``fn()`` as the root span; return its result and stats."""
        if self._stack:
            raise TraceError("trace() does not nest")
        self._stats = {}
        self._bookkeeping_ns = 0
        root = _Frame("root")
        self._stack.append(root)
        self._recording = True
        start = _now()
        try:
            result = fn()
        finally:
            end = _now()
            self._recording = False
            self._stack.clear()
        layers = {
            name: self._stats.get(name, LayerStats())
            for name in self.boundaries
        }
        wall = end - start
        return result, TracedCall(
            root_ns=wall,
            unattributed_ns=wall - root.child_ns,
            bookkeeping_ns=self._bookkeeping_ns,
            layers=layers,
        )
