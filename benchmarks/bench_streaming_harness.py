"""Streaming vs materialized trial aggregation at equal trial count.

The streaming path exists so precision-targeted runs can take millions
of trials without materializing them; its cost model is "the same
per-chunk vectorized work as the fixed path, plus O(1) accumulator
arithmetic per trial". This benchmark pins that claim on a real COUNT
workload:

* ``stream4096_materialized``: the fixed-path reference — run 4096
  trials through the batched executor, hold every outcome, reduce with
  :func:`repro.analysis.summarize` at the end.
* ``stream4096_streaming``: the same 4096 trials through
  :func:`repro.harness.stream_trials` in 512-trial chunks, folded into
  a :class:`repro.analysis.StreamingSummary` as they arrive. The
  compare gate's ratio check pins this within 25% of the materialized
  reference — the accumulators must stay cheap enough that streaming
  is a memory feature, not a speed tax.
* ``stream_rss_capped``: a subprocess runs a 200k-trial streamed point
  and asserts its peak RSS stays under ``RSS_CAP_MB`` — the memory-cap
  contract itself, checked on every benchmark run. A fresh process is
  the only honest way to measure this: ``ru_maxrss`` is a process-level
  high-water mark, so measuring in-process would report whatever the
  benchmark suite already touched.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np

from repro.analysis import StreamingSummary, summarize
from repro.core import ProtocolConstants
from repro.harness import StreamingExecutor, run_trials, stream_trials
from repro.scenarios.trials import count_trial

TRIALS = 4096
CHUNK = 512
FAST_CONSTS = ProtocolConstants.fast()

#: Declared memory cap for the 200k-trial streamed subprocess, with
#: headroom over the interpreter + numpy import floor (~90 MB here).
RSS_CAP_MB = 512


def _count_workload(m=32):
    """E1's sweep-point shape: one listener, m broadcasters."""
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, channels, tx_role


def _count_trial():
    adj, channels, tx_role = _count_workload()
    return count_trial(
        adj,
        channels,
        tx_role,
        max_count=32,
        log_n=5,
        constants=FAST_CONSTS,
        postprocess=lambda estimates: float(estimates[0]),
    )


def bench_stream4096_materialized(benchmark):
    """4096 trials materialized, then reduced at the end (reference)."""
    trial = _count_trial()

    def run():
        values = run_trials(trial, TRIALS, 7, executor="batch")
        return summarize(values)

    assert benchmark(run).count == TRIALS


def bench_stream4096_streaming(benchmark):
    """The same 4096 trials in 512-trial chunks, folded as they arrive."""
    trial = _count_trial()
    executor = StreamingExecutor(chunk_size=CHUNK)

    def run():
        summary = StreamingSummary()

        def consume(results, total):
            summary.update(results)
            return False

        stream_trials(
            trial, 7, consume, max_trials=TRIALS, executor=executor
        )
        return summary

    assert benchmark(run).moments.count == TRIALS


_RSS_SCRIPT = textwrap.dedent(
    """
    import resource
    import sys

    import numpy as np

    from repro.analysis import StreamingSummary
    from repro.core import CountXBatch, ProtocolConstants
    from repro.harness import StreamingExecutor, stream_trials

    consts = ProtocolConstants.fast()
    m = 8
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False

    def trial(s):
        raise RuntimeError("streamed chunks must ride the descriptor")

    trial.xbatch = CountXBatch(
        adj=adj, channels=channels, tx_role=tx_role, max_count=8,
        log_n=3, constants=consts,
        postprocess=lambda estimates: float(estimates[0]),
    )

    summary = StreamingSummary()

    def consume(results, total):
        summary.update(results)
        return False

    ran = stream_trials(
        trial, 7, consume, max_trials=200_000,
        executor=StreamingExecutor(chunk_size=4096),
    )
    assert ran == 200_000, ran
    assert summary.moments.count == 200_000
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(peak_kb)
    """
)


def bench_stream_rss_capped(benchmark):
    """200k streamed trials in a fresh process stay under the RSS cap."""

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
        )
        return int(proc.stdout.strip().splitlines()[-1])

    peak_kb = benchmark.pedantic(run, rounds=1, iterations=1)
    assert peak_kb < RSS_CAP_MB * 1024, (
        f"streamed 200k-trial run peaked at {peak_kb / 1024:.0f} MB, "
        f"over the declared {RSS_CAP_MB} MB cap"
    )
