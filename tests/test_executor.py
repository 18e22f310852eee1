"""Unit tests for the pluggable trial executors."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core import XBatchable
from repro.harness import (
    BatchedExecutor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    run_trials,
)
from repro.model import HarnessError


def square(s):
    return s * s


class ToyXBatch(XBatchable):
    """A batch descriptor whose runner is a plain seed-list function."""

    kind = "toy"

    def __init__(self, run_seeds):
        self.run_seeds = run_seeds

    def signature(self):
        return (self.kind, id(self))

    @classmethod
    def run_members(cls, xs, seed_lists):
        return [x.run_seeds(seeds) for x, seeds in zip(xs, seed_lists)]


def with_descriptor(trial, run_seeds):
    """``trial`` carrying a :class:`ToyXBatch` over ``run_seeds``."""
    trial.xbatch = ToyXBatch(run_seeds)
    return trial


class TestGetExecutor:
    def test_default_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_ints_map_to_process_pool(self):
        ex = get_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 3

    def test_zero_means_cpu_count(self):
        assert get_executor(0).jobs >= 1

    def test_batch_names(self):
        assert isinstance(get_executor("batch"), BatchedExecutor)
        assert isinstance(get_executor("batched"), BatchedExecutor)

    def test_numeric_string(self):
        ex = get_executor("4")
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 4

    def test_executor_instances_pass_through(self):
        ex = ParallelExecutor(jobs=2)
        assert get_executor(ex) is ex

    def test_rejects_garbage(self):
        with pytest.raises(HarnessError):
            get_executor("warp-speed")
        with pytest.raises(HarnessError):
            get_executor(-1)
        with pytest.raises(HarnessError):
            get_executor(3.5)


class TestSerialExecutor:
    def test_preserves_order(self):
        assert SerialExecutor().run(square, [3, 1, 2]) == [9, 1, 4]

    def test_wraps_failure_with_seed(self):
        def bad(s):
            raise ValueError("boom")

        with pytest.raises(HarnessError, match="seed=17"):
            SerialExecutor().run(bad, [17])


class TestParallelExecutor:
    def test_matches_serial(self):
        seeds = list(range(20))
        assert ParallelExecutor(jobs=2).run(square, seeds) == [
            s * s for s in seeds
        ]

    def test_closures_cross_the_fork(self):
        # Experiment trials are closures over numpy-heavy network
        # objects; the fork-based pool must run them unpickled.
        offset = 1000

        def trial(s):
            return s + offset

        assert ParallelExecutor(jobs=2).run(trial, [1, 2, 3, 4]) == [
            1001,
            1002,
            1003,
            1004,
        ]

    def test_single_seed_falls_back_to_serial(self):
        assert ParallelExecutor(jobs=4).run(square, [5]) == [25]

    def test_failure_names_the_seed(self):
        def bad(s):
            if s == 3:
                raise RuntimeError("worker boom")
            return s

        with pytest.raises(HarnessError, match="seed=3"):
            ParallelExecutor(jobs=2).run(bad, [1, 2, 3, 4])

    def test_chunk_size_validation(self):
        with pytest.raises(HarnessError):
            ParallelExecutor(jobs=2, chunk_size=0)

    def test_explicit_chunking_preserves_order(self):
        seeds = list(range(13))
        out = ParallelExecutor(jobs=2, chunk_size=3).run(square, seeds)
        assert out == [s * s for s in seeds]

    def test_killed_worker_fails_loudly(self):
        # A worker SIGKILLed mid-chunk (the OS out-of-memory killer, a
        # crashed extension) must surface as a HarnessError naming the
        # chunk's seeds. Run in a subprocess with a timeout, so a
        # regression to a hanging pool fails here instead of wedging
        # the suite.
        script = textwrap.dedent(
            """
            import os, signal
            from repro.harness import ParallelExecutor
            from repro.model import HarnessError

            def trial(s):
                if s == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return s

            try:
                ParallelExecutor(jobs=2).run(trial, list(range(8)))
            except HarnessError as exc:
                print(exc)
            else:
                raise SystemExit("no HarnessError raised")
            """
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "pool worker died" in proc.stdout
        assert "seeds=[3]" in proc.stdout


class TestBatchedExecutor:
    def test_uses_descriptor_when_offered(self):
        calls = []

        def trial(s):
            raise AssertionError("serial path must not run")

        def run_seeds(seeds):
            calls.append(list(seeds))
            return [s * 10 for s in seeds]

        with_descriptor(trial, run_seeds)
        assert BatchedExecutor().run(trial, [1, 2]) == [10, 20]
        assert calls == [[1, 2]]

    def test_falls_back_to_serial_without_descriptor(self):
        assert BatchedExecutor().run(square, [2, 3]) == [4, 9]

    def test_rejects_wrong_result_count(self):
        trial = with_descriptor(lambda s: s, lambda seeds: [0])
        with pytest.raises(HarnessError, match="1 results for 2 seeds"):
            BatchedExecutor().run(trial, [1, 2])

    def test_wraps_batch_failure(self):
        def run_seeds(seeds):
            raise ValueError("vector boom")

        trial = with_descriptor(lambda s: s, run_seeds)
        with pytest.raises(HarnessError, match="vector boom"):
            BatchedExecutor().run(trial, [1, 2])


class TestRunTrialsExecutors:
    def test_all_strategies_agree(self):
        serial = run_trials(square, 8, seed=4)
        parallel = run_trials(square, 8, seed=4, executor=2)
        batched = run_trials(square, 8, seed=4, executor="batch")
        assert serial == parallel == batched

    def test_failure_surfaces_failing_seed(self):
        def bad(s):
            raise ValueError("mid-sweep boom")

        with pytest.raises(HarnessError, match=r"seed=\d+"):
            run_trials(bad, 3, seed=0)
