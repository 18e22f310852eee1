"""Unit and statistical tests for CSEEK (Theorem 4)."""

import numpy as np
import pytest

from repro.core import CSeek, ProtocolConstants, verify_discovery
from repro.core.cseek import backoff_probabilities
from repro.model import ProtocolError


def backoff_coins(rngs, backoff_len, n):
    """``(B, backoff_len, n)`` part-two back-off coins, one trial per
    generator, each drawn exactly as :meth:`CSeek.run` draws a window's
    coins (Figure 1, line 14)."""
    probs = backoff_probabilities(backoff_len)
    return np.stack(
        [rng.random((backoff_len, n)) < probs[:, None] for rng in rngs]
    )


class TestScheduleSizing:
    def test_budgets_follow_constants(self, small_regular_net):
        kn = small_regular_net.knowledge()
        consts = ProtocolConstants.fast()
        cseek = CSeek(small_regular_net, constants=consts, seed=0)
        assert cseek.part1_step_budget == consts.part1_steps(
            kn.c, kn.k, kn.log_n
        )
        assert cseek.part2_step_budget == consts.part2_steps(
            kn.kmax, kn.k, kn.max_degree, kn.log_n
        )

    def test_budget_overrides(self, small_path_net):
        cseek = CSeek(small_path_net, seed=0, part1_steps=3, part2_steps=2)
        result = cseek.run()
        assert result.step_start_slots.shape[0] == 5

    def test_rejects_bad_listener_policy(self, small_path_net):
        with pytest.raises(ProtocolError):
            CSeek(small_path_net, part2_listener="bogus")


class TestDiscovery:
    def test_full_discovery_regular(self, small_regular_net):
        result = CSeek(small_regular_net, seed=1).run()
        report = verify_discovery(result, small_regular_net)
        assert report.success, report.missing

    def test_full_discovery_path(self, small_path_net):
        result = CSeek(small_path_net, seed=2).run()
        assert verify_discovery(result, small_path_net).success

    def test_full_discovery_crowded_star(self, star_net):
        result = CSeek(star_net, seed=3).run()
        assert verify_discovery(result, star_net).success

    def test_discovered_are_true_neighbors(self, small_regular_net):
        result = CSeek(small_regular_net, seed=4).run()
        truth = small_regular_net.true_neighbor_sets()
        for u in range(small_regular_net.n):
            assert result.discovered[u] <= set(truth[u])

    def test_part_one_subset_of_total(self, small_regular_net):
        result = CSeek(small_regular_net, seed=5).run()
        for u in range(small_regular_net.n):
            assert result.discovered_part_one[u] <= result.discovered[u]

    def test_counts_shape_and_positivity(self, small_regular_net):
        result = CSeek(small_regular_net, seed=6).run()
        n, c = small_regular_net.n, small_regular_net.c
        assert result.counts.shape == (n, c)
        assert (result.counts >= 0).all()
        assert result.counts.sum() > 0

    def test_determinism(self, small_path_net):
        r1 = CSeek(small_path_net, seed=7).run()
        r2 = CSeek(small_path_net, seed=7).run()
        assert r1.discovered == r2.discovered
        assert np.array_equal(r1.counts, r2.counts)
        assert r1.total_slots == r2.total_slots

    def test_different_seeds_differ(self, small_regular_net):
        r1 = CSeek(small_regular_net, seed=8).run()
        r2 = CSeek(small_regular_net, seed=9).run()
        assert not np.array_equal(r1.step_channels, r2.step_channels)


class TestLedger:
    def test_phases_present(self, small_path_net):
        result = CSeek(small_path_net, seed=10).run()
        assert result.ledger.get("part1") > 0
        assert result.ledger.get("part2") > 0
        assert result.ledger.total == result.total_slots

    def test_part2_slots_use_backoff_window(self, small_path_net):
        kn = small_path_net.knowledge()
        cseek = CSeek(small_path_net, seed=11)
        result = cseek.run()
        assert result.ledger.get("part2") == (
            cseek.part2_step_budget * kn.log_delta
        )


class TestChannelHistory:
    def test_channel_at_slot_matches_step_table(self, small_path_net):
        result = CSeek(small_path_net, seed=12).run()
        # Check a handful of boundaries.
        for idx in (0, 1, len(result.step_start_slots) - 1):
            start = int(result.step_start_slots[idx])
            for node in (0, 3):
                assert result.channel_at_slot(node, start) == int(
                    result.step_channels[idx, node]
                )

    def test_channel_at_slot_out_of_range(self, small_path_net):
        result = CSeek(small_path_net, seed=13).run()
        with pytest.raises(ProtocolError):
            result.channel_at_slot(0, result.total_slots)
        with pytest.raises(ProtocolError):
            result.channel_at_slot(0, -1)

    def test_first_heard_channel_is_shared(self, small_path_net):
        """The channel of a first reception is shared by the pair."""
        net = small_path_net
        result = CSeek(net, seed=14).run()
        for (u, v), event in result.trace.first_heard.items():
            assert event.channel in net.shared_channels(u, v)


class TestAblation:
    def test_uniform_listener_policy_runs(self, star_net):
        result = CSeek(star_net, seed=15, part2_listener="uniform").run()
        assert verify_discovery(result, star_net).success

    def test_weighted_prefers_crowded_channels(self, star_net):
        """On a global-core star, the hub's counts concentrate on core
        channels, so weighted part-two listening revisits them."""
        result = CSeek(star_net, seed=16).run()
        hub = 0
        counts = result.counts[hub]
        labels = np.argsort(counts)[::-1]
        table = star_net.channel_table()
        core = star_net.shared_channels(0, 1)
        top_two_globals = {int(table[hub, labels[0]]), int(table[hub, labels[1]])}
        assert top_two_globals == set(core)


class TestVerifyDiscovery:
    def test_missing_detection(self, small_path_net):
        # A hopeless budget cannot discover anything.
        result = CSeek(
            small_path_net, seed=17, part1_steps=0, part2_steps=0
        ).run()
        report = verify_discovery(result, small_path_net)
        assert not report.success
        assert len(report.missing) == 2 * small_path_net.stats.m

    def test_completion_not_after_schedule(self, small_regular_net):
        result = CSeek(small_regular_net, seed=18).run()
        report = verify_discovery(result, small_regular_net)
        assert report.completion_slot is not None
        assert report.completion_slot < result.total_slots


class TestBackoffBatch:
    def test_batch_matches_serial_windows(self):
        """One ``resolve_step_batch`` call over ``B`` back-off windows
        equals ``B`` serial ``resolve_step`` windows."""
        from repro.sim.engine import resolve_step, resolve_step_batch

        rng = np.random.default_rng(5)
        n, backoff_len = 12, 4
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 3, size=n)
        tx_role = rng.random(n) < 0.5
        seeds = [3, 4, 5]
        coins = backoff_coins(
            [np.random.default_rng(s) for s in seeds], backoff_len, n
        )
        batch = resolve_step_batch(adj, channels, tx_role, coins)
        probs = backoff_probabilities(backoff_len)
        for b, s in enumerate(seeds):
            ref_coins = (
                np.random.default_rng(s).random((backoff_len, n))
                < probs[:, None]
            )
            ref = resolve_step(adj, channels, tx_role, ref_coins)
            assert np.array_equal(batch.heard_from[b], ref.heard_from)

    def test_backoff_probabilities_shape(self):
        probs = backoff_probabilities(3)
        assert np.allclose(probs, [1 / 8, 1 / 4, 1 / 2])
        with pytest.raises(ProtocolError):
            backoff_probabilities(0)
