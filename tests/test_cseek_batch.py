"""Batched-vs-serial CSEEK equivalence (the CSeekBatch contract).

Every test pins the same invariant from a different angle: running ``B``
trials through :class:`repro.core.cseek_batch.CSeekBatch` must be
bit-identical, per trial, to ``B`` serial :meth:`CSeek.run` executions —
including the hard paths (primary-user jamming, the uniform-listener
ablation, CKSEEK budgets, CGCAST's embedded discovery).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CGCast,
    CKSeek,
    CSeek,
    CSeekBatch,
    CSeekXBatch,
    LockstepMember,
    run_cseek_lockstep,
)
from repro.harness import run_trials
from repro.harness.executor import BatchedExecutor, get_executor
from repro.model import HarnessError, ProtocolError
from repro.sim import MarkovTraffic
from repro.sim.engine import BatchStepOutcome, resolve_step_batch
from repro.sim.trace import TraceRecorder, record_step_batch

from tests.test_cseek import backoff_coins

SEEDS = [3, 17, 99]


def assert_results_equal(got, ref):
    """Field-by-field bit-identity of two CSeekResults."""
    assert got.discovered == ref.discovered
    assert got.discovered_part_one == ref.discovered_part_one
    assert np.array_equal(got.counts, ref.counts)
    assert np.array_equal(got.step_start_slots, ref.step_start_slots)
    assert np.array_equal(got.step_channels, ref.step_channels)
    assert got.total_slots == ref.total_slots
    assert got.ledger.as_dict() == ref.ledger.as_dict()
    # Item lists, not dicts: consumers iterate first_heard, so its
    # insertion order is part of the contract.
    assert list(got.trace.first_heard.items()) == list(
        ref.trace.first_heard.items()
    )


class TestPlainEquivalence:
    def test_full_budget_matches_serial(self, small_path_net):
        batch = CSeekBatch(small_path_net).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], CSeek(small_path_net, seed=s).run()
            )

    def test_regular_net_reduced_budget(self, small_regular_net):
        kwargs = dict(part1_steps=25, part2_steps=40)
        batch = CSeekBatch(small_regular_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], CSeek(small_regular_net, seed=s, **kwargs).run()
            )

    def test_zero_budgets(self, small_path_net):
        kwargs = dict(part1_steps=0, part2_steps=0)
        batch = CSeekBatch(small_path_net, **kwargs).run([5])
        ref = CSeek(small_path_net, seed=5, **kwargs).run()
        assert_results_equal(batch[0], ref)
        assert batch[0].total_slots == 0
        assert batch[0].ledger.as_dict() == {}

    def test_single_trial(self, small_path_net):
        batch = CSeekBatch(small_path_net).run([42])
        assert_results_equal(batch[0], CSeek(small_path_net, seed=42).run())

    def test_empty_seed_list_rejected(self, small_path_net):
        with pytest.raises(ProtocolError):
            CSeekBatch(small_path_net).run([])


class TestJammedEquivalence:
    def _environment(self, net):
        return MarkovTraffic(
            sorted(net.assignment.universe()), activity=0.5, mean_dwell=6.0
        )

    def test_primary_user_traffic_matches_serial(self, small_path_net):
        env = self._environment(small_path_net)
        batch = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        for b, s in enumerate(SEEDS):
            ref = CSeek(small_path_net, seed=s, environment=env).run()
            assert_results_equal(batch[b], ref)

    def test_jamming_changes_outcomes(self, small_path_net):
        """The jam mask must actually reach the batched engine."""
        env = self._environment(small_path_net)
        jammed = CSeekBatch(small_path_net, environment=env).run(SEEDS)
        clear = CSeekBatch(small_path_net).run(SEEDS)
        assert any(
            jammed[b].trace.first_heard != clear[b].trace.first_heard
            for b in range(len(SEEDS))
        )

    def test_mixed_jammed_and_clear_trials(self, small_path_net):
        """Jammed and clear trials may share one lockstep run on one
        graph; each trial must still match its own serial counterpart."""
        env = self._environment(small_path_net)
        jammed_seeds, clear_seeds = SEEDS[:2], SEEDS[2:]
        got = run_cseek_lockstep(
            [
                LockstepMember(
                    CSeekBatch(small_path_net, environment=env),
                    jammed_seeds,
                ),
                LockstepMember(CSeekBatch(small_path_net), clear_seeds),
            ]
        )
        for g, s in zip(got[0], jammed_seeds):
            ref = CSeek(small_path_net, seed=s, environment=env).run()
            assert_results_equal(g, ref)
        for g, s in zip(got[1], clear_seeds):
            assert_results_equal(g, CSeek(small_path_net, seed=s).run())


class TestUniformListenerEquivalence:
    def test_ablation_matches_serial(self, star_net):
        kwargs = dict(
            part1_steps=20, part2_steps=60, part2_listener="uniform"
        )
        batch = CSeekBatch(star_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], CSeek(star_net, seed=s, **kwargs).run()
            )

    def test_weighted_starved_star_matches_serial(self, star_net):
        """The weighted listener's count-proportional draws are the
        state-dependent path; pin it on a crowded hub."""
        kwargs = dict(part1_steps=20, part2_steps=60)
        batch = CSeekBatch(star_net, **kwargs).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(
                batch[b], CSeek(star_net, seed=s, **kwargs).run()
            )


class TestChunkBoundaries:
    """Lockstep steps run in fused chunks; shrink the chunk budget so
    each part spans at least three chunks, the last one ragged, and pin
    every trial against serial :meth:`CSeek.run`.

    The budget makes part one 3 steps a chunk; part two's chunks are
    longer by ``max(n, T1) / n`` (``T1`` COUNT slots per part-one step),
    which the part-two step budgets below account for.
    """

    def _shrink_chunks(self, monkeypatch, proto, num_trials):
        from repro.core import cseek_batch
        from repro.core.count import count_probabilities

        n = proto.network.n
        kn = proto.knowledge
        count_slots = count_probabilities(
            kn.max_degree, kn.log_n, proto.constants
        ).size
        budget = 3 * num_trials * n * max(n, count_slots)
        for steps, slots in (
            (proto.part1_step_budget, count_slots),
            (proto.part2_step_budget, kn.log_delta),
        ):
            k = budget // (num_trials * n * max(n, slots))
            assert steps // k >= 3 and steps % k, (steps, k)
        monkeypatch.setattr(cseek_batch, "_CHUNK_ELEMENTS", budget)

    def _check(self, monkeypatch, cases):
        """``cases``: ``(make(seed) -> CSeek, seeds)`` per member."""
        members = [
            LockstepMember(CSeekBatch.from_serial(make(0)), seeds)
            for make, seeds in cases
        ]
        self._shrink_chunks(
            monkeypatch,
            cases[0][0](0),
            sum(len(seeds) for _, seeds in cases),
        )
        got = run_cseek_lockstep(members)
        for results, (make, seeds) in zip(got, cases):
            for g, s in zip(results, seeds):
                assert_results_equal(g, make(s).run())

    def test_cross_point_group_on_two_graphs(
        self, monkeypatch, small_path_net
    ):
        from repro.graphs import build_network, cycle

        cycle_net = build_network(cycle(8), c=6, k=2, seed=5)
        # Path and cycle on 8 nodes: 3 and 6 steps a chunk.
        budgets = dict(part1_steps=10, part2_steps=20)
        self._check(
            monkeypatch,
            [
                (lambda s: CSeek(small_path_net, seed=s, **budgets), [3]),
                (lambda s: CSeek(cycle_net, seed=s, **budgets), [17]),
            ],
        )

    def test_jammed_member_beside_clear_one(
        self, monkeypatch, small_path_net
    ):
        env = MarkovTraffic(
            sorted(small_path_net.assignment.universe()),
            activity=0.5,
            mean_dwell=6.0,
        )
        # Path on 8 nodes: 3 and 6 steps a chunk.
        budgets = dict(part1_steps=10, part2_steps=20)
        self._check(
            monkeypatch,
            [
                (
                    lambda s: CSeek(
                        small_path_net, seed=s, environment=env, **budgets
                    ),
                    [3, 17],
                ),
                (lambda s: CSeek(small_path_net, seed=s, **budgets), [99]),
            ],
        )

    def test_uniform_listener_policy(self, monkeypatch, star_net):
        # Star on 10 nodes: 3 and 18 steps a chunk.
        kwargs = dict(
            part1_steps=10, part2_steps=58, part2_listener="uniform"
        )
        self._check(
            monkeypatch,
            [(lambda s: CSeek(star_net, seed=s, **kwargs), SEEDS)],
        )


class TestProtocolReuse:
    def test_ckseek_budgets_via_from_serial(self, hetero_net):
        khat = 3
        delta_khat = hetero_net.max_good_degree(khat)
        make = lambda s: CKSeek(  # noqa: E731
            hetero_net, khat=khat, delta_khat=delta_khat, seed=s
        )
        batch = CSeekBatch.from_serial(make(0)).run(SEEDS)
        for b, s in enumerate(SEEDS):
            assert_results_equal(batch[b], make(s).run())

    def test_from_serial_copies_configuration(self, small_path_net):
        proto = CSeek(
            small_path_net,
            seed=123,
            part1_steps=7,
            part2_steps=9,
            part2_listener="uniform",
            rng_label="custom",
        )
        batch = CSeekBatch.from_serial(proto)
        assert batch.part1_step_budget == 7
        assert batch.part2_step_budget == 9
        assert batch.part2_listener == "uniform"
        assert_results_equal(
            batch.run([55])[0],
            CSeek(
                small_path_net,
                seed=55,
                part1_steps=7,
                part2_steps=9,
                part2_listener="uniform",
                rng_label="custom",
            ).run(),
        )

    def test_cgcast_embedded_discovery(self, clique_chain_net):
        """CGCAST's phase 1 is a CSEEK run under its own rng label."""
        net = clique_chain_net
        batch = CSeekBatch(net, rng_label="cgcast.discovery").run(SEEDS)
        for b, s in enumerate(SEEDS):
            plain = CGCast(net, source=0, seed=s).run()
            assert_results_equal(batch[b], plain.discovery)


class TestExecutorIntegration:
    def _make_trial(self, net):
        def make(s: int) -> CSeek:
            return CSeek(net, seed=s, part1_steps=10, part2_steps=15)

        def outcome(result):
            return sorted(map(sorted, result.discovered))

        def trial(s: int):
            return outcome(make(s).run())

        trial.xbatch = CSeekXBatch(make_protocol=make, postprocess=outcome)
        return trial

    def test_run_trials_batch_matches_serial(self, small_path_net):
        trial = self._make_trial(small_path_net)
        serial = run_trials(trial, 5, 7, executor=None)
        batched = run_trials(trial, 5, 7, executor="batch")
        assert serial == batched

    def test_chunked_batches_match_unchunked(self, small_path_net):
        trial = self._make_trial(small_path_net)
        full = run_trials(trial, 5, 7, executor="batch")
        chunked = run_trials(trial, 5, 7, executor="batch:2")
        assert full == chunked

    def test_get_executor_parses_batch_size(self):
        ex = get_executor("batch:16")
        assert isinstance(ex, BatchedExecutor)
        assert ex.batch_size == 16
        assert get_executor("batch").batch_size is None

    def test_get_executor_rejects_bad_batch_size(self):
        with pytest.raises(HarnessError):
            get_executor("batch:0")
        with pytest.raises(HarnessError):
            get_executor("batch:nope")

    def test_batched_executor_rejects_bad_batch_size(self):
        with pytest.raises(HarnessError):
            BatchedExecutor(batch_size=0)


class TestRecordStepBatch:
    def _batch_outcome(self, seeds, net):
        rng = np.random.default_rng(0)
        n = net.n
        channels = np.stack(
            [rng.integers(0, 3, size=n) for _ in seeds]
        )
        tx_role = np.stack([rng.random(n) < 0.5 for _ in seeds])
        return (
            resolve_step_batch(
                net.adjacency,
                channels,
                tx_role,
                backoff_coins(
                    [np.random.default_rng(s) for s in seeds], 4, n
                ),
            ),
            channels,
        )

    def test_matches_per_trial_record_step(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        batched = [TraceRecorder() for _ in SEEDS]
        record_step_batch(batched, outcome, 100, "test", channels=channels)
        for b in range(len(SEEDS)):
            ref = TraceRecorder()
            ref.record_step(
                outcome.trial(b), 100, "test", channels=channels[b]
            )
            assert list(batched[b].first_heard.items()) == list(
                ref.first_heard.items()
            )

    def test_step_axis_matches_row_by_row(self, small_path_net):
        """``S`` steps of ``B`` trials, step-major, in one call: same
        events and the same insertion order as recording each row in
        turn."""
        steps = [
            self._batch_outcome([s + 10 * k for s in SEEDS], small_path_net)
            for k in range(3)
        ]
        fused = BatchStepOutcome(
            heard_from=np.concatenate([o.heard_from for o, _ in steps]),
            contenders=np.concatenate([o.contenders for o, _ in steps]),
        )
        channels = np.concatenate([ch for _, ch in steps])
        starts = [100, 104, 108]
        batched = [TraceRecorder() for _ in SEEDS]
        record_step_batch(batched, fused, starts, "test", channels=channels)
        refs = [TraceRecorder() for _ in SEEDS]
        for k, (outcome, ch) in enumerate(steps):
            for b, ref in enumerate(refs):
                ref.record_step(
                    outcome.trial(b), starts[k], "test", channels=ch[b]
                )
        for got, ref in zip(batched, refs):
            assert list(got.first_heard.items()) == list(
                ref.first_heard.items()
            )

    def test_verbose_fallback_matches(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        batched = [TraceRecorder(verbose=True) for _ in SEEDS]
        record_step_batch(batched, outcome, 0, "test", channels=channels)
        for b in range(len(SEEDS)):
            ref = TraceRecorder(verbose=True)
            ref.record_step(
                outcome.trial(b), 0, "test", channels=channels[b]
            )
            assert batched[b].events == ref.events
            assert list(batched[b].first_heard.items()) == list(
                ref.first_heard.items()
            )

    def test_recorder_count_mismatch_rejected(self, small_path_net):
        outcome, channels = self._batch_outcome(SEEDS, small_path_net)
        with pytest.raises(ValueError):
            record_step_batch(
                [TraceRecorder()], outcome, 0, "test", channels=channels
            )
