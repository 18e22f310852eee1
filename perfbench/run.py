"""End-to-end benchmark of the CRN simulator, with an optional layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload cseek_xbatch --seed 0 \\
        --seconds 20 --trace 0

One process runs one workload (see ``workloads.py``): no process pool,
one BLAS thread. The program is imported from ``src/`` of the current
directory; without it the benchmark exits with code 2 and prints no
result.

``--trace 0`` times repeated ``run_scenario`` calls for ``--seconds``
and reports the end-to-end metrics: ``trials_per_s`` (median over
calls of verified trials per second of the call), ``setup_s`` (median
over several fresh interpreters of the time from start-up through the
imports to one lowering pass that builds every network),
``peak_rss_mb`` (the process's RSS high-water mark after the timed
calls) and ``verified_share`` (trials whose rows matched, over trials
attempted).

``--trace 1`` alternates untraced and traced calls and reports the
per-layer table of ``layers.py`` instead, taken from the traced call
with the median wall time, plus the tracing overhead. It fails the run
if a boundary the workload should reach records no call, if one it
should bypass records any, or if call or work counts differ between
traced calls. It also fails if the tracer's own arithmetic breaks the
time partition (a self-check; ``unattributed_s`` is what shows how much
of the wall the boundaries cover).

Every call's rows are checked against the stored reference rows
(``references.json``, seeds 0-31 and 7919). ``--seed`` picks the
scenario seed: itself when it is stored, else ``--seed mod 32``, so
every run has stored rows to match. A trial counts as failed when its
call raised or when its point's row differs. A fixed
calibration kernel is timed before each run and printed with it, so
host drift can be told from code changes; it never rescales a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
# Reference rows are stored for a block of small seeds, which covers the
# default, and for one held-out seed, so a claim tuned on the small
# seeds can be re-checked on one its author did not use.
DEFAULT_SEED = 0
HELDOUT_SEED = 7919
STORED_SEEDS = tuple(range(32)) + (HELDOUT_SEED,)
MIN_CALLS = 3
SETUP_PASSES = 5


def scenario_seed(seed: int) -> int:
    """The stored seed that ``--seed`` runs, so its rows can be checked."""
    return seed if seed in STORED_SEEDS else seed % 32


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def load_program(root: Path) -> None:
    """Import ``repro`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SetupError(
            f"no program source at {src / 'repro'}; run from the "
            "repository root"
        )
    # One BLAS thread keeps the GEMM timing steady and the process
    # within the box's cores; the numpy backend is pinned explicitly.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_BACKEND"] = "numpy"
    sys.path.insert(0, str(src))
    import repro

    where = Path(repro.__file__).resolve()
    if src not in where.parents:
        raise SetupError(f"imported repro from {where}, not from {src}")


# ----------------------------------------------------------------------
# Rows and references
# ----------------------------------------------------------------------
def canonical_rows(rows: Sequence[dict]) -> List[str]:
    """One canonical JSON line per table row (sorted keys, exact floats)."""
    return [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in rows
    ]


def digest(lines: Sequence[str]) -> str:
    """sha256 over canonical row lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def checked_lines(entry: dict) -> List[str]:
    """A stored entry's canonical rows, after checking its sha256."""
    lines = canonical_rows(entry["rows"])
    if digest(lines) != entry["sha256"]:
        raise ValueError("reference rows do not match their sha256")
    return lines


def load_references(path: Path = REFERENCES) -> Dict[str, Dict[int, List[str]]]:
    """Stored reference rows per workload and seed, integrity-checked."""
    payload = json.loads(path.read_text())
    return {
        name: {int(seed): checked_lines(entry) for seed, entry in by_seed.items()}
        for name, by_seed in payload["workloads"].items()
    }


def mismatched_points(
    got: Optional[List[str]], expected: List[str]
) -> List[int]:
    """Indices of points whose row differs (all of them if none came)."""
    if got is None or len(got) != len(expected):
        return list(range(len(expected)))
    return [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]


def self_check(expected: List[str]) -> List[str]:
    """Problems with the checker itself: it must catch a wrong reference.

    Alters one value of one reference row, and one digit of a stored
    digest, and requires both alterations to be detected.
    """
    problems = []
    row = json.loads(expected[-1])
    key = sorted(k for k, v in row.items() if isinstance(v, (int, float)))[0]
    row[key] = row[key] + 1
    wrong = expected[:-1] + canonical_rows([row])
    if mismatched_points(expected, wrong) != [len(expected) - 1]:
        problems.append("an altered reference row went undetected")
    good = digest(expected)
    entry = {
        "rows": [json.loads(line) for line in expected],
        "sha256": ("0" if good[0] != "0" else "1") + good[1:],
    }
    try:
        checked_lines(entry)
        problems.append("an altered reference digest went undetected")
    except ValueError:
        pass
    return problems


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def host_probe(reps: int = 5) -> float:
    """Median seconds of a fixed calibration kernel (diagnostic only).

    A pure-Python loop plus small matrix products: the two kinds of
    work the simulator's hot paths mix.
    """
    import numpy as np

    a = np.random.default_rng(12345).random((64, 64))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i % 7
        for _ in range(600):
            a = a @ a
            a /= np.abs(a).max()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def lower_once(workload, seed: int) -> None:
    """One lowering pass over every sweep point (builds every network)."""
    from repro.scenarios import RunContext, lower_points

    ctx = RunContext(trials=workload.spec.trials, seed=seed)
    lowered = list(lower_points(workload.spec, ctx))
    if len(lowered) != workload.points:
        raise SetupError(f"lowered {len(lowered)} of {workload.points} points")


def setup_seconds(workload, seed: int) -> float:
    """Median wall time of fresh ``--setup-only`` interpreters.

    Each one starts Python, imports numpy, ``repro`` and the workload
    specs, and lowers the workload once: everything a run does before
    its first timed call. Imports cannot be repeated inside one
    process, hence the child processes, run one at a time.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload.name,
        "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_PASSES):
        start = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which quantizes the measurement.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Call:
    """One ``run_scenario`` call: its rows, wall time and outcome."""

    def __init__(self, workload, seed: int, jobs: str, tracer=None) -> None:
        from repro.scenarios import run_scenario

        self.jobs = jobs
        self.trace = None
        gc.collect()

        def go():
            return run_scenario(workload.spec, seed=seed, jobs=jobs)

        start = time.perf_counter()
        try:
            if tracer is None:
                table = go()
            else:
                table, self.trace = tracer.trace(go)
            self.rows: Optional[List[str]] = canonical_rows(table.rows)
        except Exception:  # noqa: BLE001 — a failed call is a result
            traceback.print_exc(file=sys.stderr)
            self.rows = None
        self.wall = time.perf_counter() - start
        self.failed_points: List[int] = []


def timed_calls(seconds: float, make_call) -> List[Call]:
    """Repeat ``make_call()`` for ``seconds`` (at least MIN_CALLS times)."""
    calls: List[Call] = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        calls.append(make_call())
    return calls


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(traced, overhead_ratio: float, probe: float) -> dict:
    """The per-layer metric set of one traced call."""
    from layers import BOOKKEEPING, BOUNDARIES

    out = {}
    for boundary in BOUNDARIES:
        st = traced.layers[boundary.name]
        p = boundary.name
        out[f"{p}.calls"] = _metric(st.calls, "count")
        out[f"{p}.busy_s"] = _metric(st.busy_ns / 1e9, "s")
        out[f"{p}.self_s"] = _metric(st.self_ns / 1e9, "s")
        for key in boundary.counts:
            value = st.work.get(key, 0)
            if key == "transmitters":
                slots = st.work.get("node_slots", 0)
                out[f"{p}.tx_density"] = _metric(
                    value / slots if slots else 0.0, "ratio"
                )
            else:
                out[f"{p}.{key}"] = _metric(value, "count")
    out[f"{BOOKKEEPING}.self_s"] = _metric(traced.bookkeeping_ns / 1e9, "s")
    out["unattributed_s"] = _metric(traced.unattributed_ns / 1e9, "s")
    out["scenario.run.wall_s"] = _metric(traced.root_ns / 1e9, "s")
    out["trace_overhead_ratio"] = _metric(overhead_ratio, "ratio")
    out["host.probe_s"] = _metric(probe, "s")
    return out


def print_layer_table(traced) -> None:
    from layers import BOOKKEEPING

    wall = traced.root_ns
    print(f"{'layer':36} {'calls':>8} {'busy_s':>9} {'self_s':>9} {'self%':>6}")
    rows = [(n, s.calls, s.busy_ns, s.self_ns) for n, s in traced.layers.items()]
    rows.append((BOOKKEEPING, 0, traced.bookkeeping_ns, traced.bookkeeping_ns))
    rows.append(("unattributed", 0, traced.unattributed_ns, traced.unattributed_ns))
    for name, calls, busy, self_ns in rows:
        print(
            f"{name:36} {calls:8d} {busy / 1e9:9.4f} {self_ns / 1e9:9.4f} "
            f"{100 * self_ns / wall:6.2f}"
        )
    print(f"{'root wall':36} {'':8} {wall / 1e9:9.4f}")


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and lower the workload once, then exit (times setup_s)",
    )
    return parser.parse_args(argv)


def trace_report(workload, traced, untraced, probe, problems, record) -> dict:
    """Check the traced calls and return the per-layer metrics.

    The reported table is the traced call with the median wall time.
    """
    from layers import BOUNDARIES, LayerStats, TracedCall

    traces = [c.trace for c in traced if c.trace is not None]
    if not traces:
        problems.append("no traced call completed")
        traces = [TracedCall(0, 0, 0, {b.name: LayerStats() for b in BOUNDARIES})]
    for trace in traces:
        # A self-check of the tracer's arithmetic: the partition holds by
        # construction, so a gap means layers.py itself is broken.
        gap = trace.partition_gap_ns()
        if gap:
            problems.append(f"layer times miss the root wall by {gap} ns")
    first = traces[0].counts()
    if any(trace.counts() != first for trace in traces[1:]):
        problems.append("call/work counts differ between traced calls")
    # Lets two traced runs of one seed be compared count for count.
    record["counts_sha256"] = hashlib.sha256(
        json.dumps(first, sort_keys=True).encode()
    ).hexdigest()
    median = sorted(traces, key=lambda t: t.root_ns)[(len(traces) - 1) // 2]
    for name, st in median.layers.items():
        if name in workload.exercised and st.calls == 0:
            problems.append(f"{name}: expected calls, recorded none")
        if name not in workload.exercised and st.calls:
            problems.append(f"{name}: expected bypass, recorded {st.calls}")
    ratio = statistics.median(t.root_ns / 1e9 for t in traces) / statistics.median(
        c.wall for c in untraced
    )
    print_layer_table(median)
    return layer_metrics(median, ratio, probe)


def run(args: argparse.Namespace) -> dict:
    from layers import BOUNDARIES, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = scenario_seed(args.seed)
    problems: List[str] = []

    probe = host_probe()
    setup_s = None if args.trace else setup_seconds(workload, seed)
    stored = load_references()[workload.name]
    expected = stored[seed]
    problems += self_check(stored[DEFAULT_SEED])

    if args.trace:
        untraced: List[Call] = []

        def pair():
            untraced.append(Call(workload, seed, workload.jobs))
            with Tracer(BOUNDARIES) as tracer:
                return Call(workload, seed, workload.jobs, tracer)

        traced = timed_calls(args.seconds, pair)
        timed = traced + untraced
    else:
        timed = timed_calls(
            args.seconds, lambda: Call(workload, seed, workload.jobs)
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for call in timed:
        call.failed_points = mismatched_points(call.rows, expected)
        if call.failed_points:
            problems.append(
                f"{call.jobs} call: rows differ at points {call.failed_points}"
            )
    per_point = workload.spec.trials
    attempted = workload.trials * len(timed)
    failed = sum(per_point * len(c.failed_points) for c in timed)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scenario_seed": seed,
        "trace": args.trace,
        "host_probe_s": probe,
        "calls": [round(c.wall, 4) for c in timed],
    }

    if args.trace:
        metrics = trace_report(
            workload, traced, untraced, probe, problems, record
        )
    else:
        rates = [
            per_point * (workload.points - len(c.failed_points)) / c.wall
            for c in timed
        ]
        metrics = {
            "trials_per_s": _metric(statistics.median(rates), "1/s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "verified_share": _metric(
                (attempted - failed) / attempted, "ratio"
            ),
        }
    record["problems"] = problems
    print("# run " + json.dumps(record))
    for problem in problems:
        print(f"benchmark check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        load_program(Path.cwd())
        import workloads
    except (SetupError, ImportError) as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        lower_once(workload, scenario_seed(args.seed))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
