"""Unit tests for the COUNT procedure (Lemma 1)."""

import numpy as np
import pytest

from repro.core import ProtocolConstants, count_schedule, run_count_step
from repro.model import ProtocolError


def star_setup(m):
    """One listener (node 0) with m broadcasting neighbors on channel 0."""
    n = m + 1
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = True
    adj[1:, 0] = True
    channels = np.zeros(n, dtype=np.int64)
    tx_role = np.ones(n, dtype=bool)
    tx_role[0] = False
    return adj, channels, tx_role


class TestSchedule:
    def test_round_structure(self):
        consts = ProtocolConstants(count_round_slots=4.0)
        rounds, length = count_schedule(8, log_n=5, constants=consts)
        assert rounds == 4  # lg 8 + 1
        assert length == 20

    def test_max_count_one(self):
        rounds, _ = count_schedule(1, 3, ProtocolConstants())
        assert rounds == 2

    def test_rejects_bad_max_count(self):
        with pytest.raises(ProtocolError):
            count_schedule(0, 3, ProtocolConstants())


class TestArgmaxEstimates:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    def test_estimate_within_constant_factor(self, m):
        """Median estimate over trials stays within [m/4, 4m]."""
        consts = ProtocolConstants(
            count_rule="argmax", count_round_slots=8.0
        )
        adj, channels, tx_role = star_setup(m)
        estimates = []
        rng = np.random.default_rng(1234)
        for _ in range(15):
            out = run_count_step(
                adj, channels, tx_role,
                max_count=16, log_n=5, constants=consts, rng=rng,
            )
            estimates.append(out.estimates[0])
        med = float(np.median(estimates))
        assert m / 4 <= med <= 4 * m, f"m={m} median={med}"

    def test_zero_broadcasters_zero_estimate(self):
        adj, channels, tx_role = star_setup(3)
        tx_role[:] = False  # everyone listens
        out = run_count_step(
            adj, channels, tx_role,
            max_count=8, log_n=4,
            constants=ProtocolConstants(), rng=np.random.default_rng(0),
        )
        assert out.estimates[0] == 0.0

    def test_broadcasters_report_zero(self):
        adj, channels, tx_role = star_setup(2)
        out = run_count_step(
            adj, channels, tx_role,
            max_count=8, log_n=4,
            constants=ProtocolConstants(), rng=np.random.default_rng(0),
        )
        assert (out.estimates[1:] == 0.0).all()

    def test_slot_accounting(self):
        consts = ProtocolConstants(count_round_slots=2.0)
        adj, channels, tx_role = star_setup(1)
        out = run_count_step(
            adj, channels, tx_role,
            max_count=4, log_n=3, constants=consts,
            rng=np.random.default_rng(0),
        )
        rounds, length = count_schedule(4, 3, consts)
        assert out.num_slots == rounds * length
        assert out.step.heard_from.shape[0] == out.num_slots

    def test_identities_recoverable_from_step(self):
        adj, channels, tx_role = star_setup(1)
        out = run_count_step(
            adj, channels, tx_role,
            max_count=4, log_n=4,
            constants=ProtocolConstants(), rng=np.random.default_rng(2),
        )
        # The sole broadcaster transmits with p=1 in round one: node 0
        # must hear identity 1.
        assert 1 in out.step.heard_sets()[0]


class TestFirstCrossingEstimates:
    @pytest.mark.slow
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_paper_band(self, m):
        """With long rounds the paper's rule lands in ~[m, 4m]."""
        consts = ProtocolConstants(
            count_rule="first_crossing", count_round_slots=192.0
        )
        adj, channels, tx_role = star_setup(m)
        rng = np.random.default_rng(99)
        estimates = []
        for _ in range(9):
            out = run_count_step(
                adj, channels, tx_role,
                max_count=16, log_n=5, constants=consts, rng=rng,
            )
            estimates.append(out.estimates[0])
        med = float(np.median(estimates))
        assert m / 2 <= med <= 8 * m, f"m={m} median={med}"

    def test_silence_never_crosses(self):
        consts = ProtocolConstants(count_rule="first_crossing")
        adj, channels, tx_role = star_setup(2)
        tx_role[:] = False
        out = run_count_step(
            adj, channels, tx_role,
            max_count=8, log_n=4, constants=consts,
            rng=np.random.default_rng(0),
        )
        assert out.estimates[0] == 0.0


class TestConcurrentChannels:
    def test_independent_channels_do_not_mix(self):
        """Two listener/broadcaster pairs on different channels."""
        n = 4
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True
        channels = np.array([5, 5, 9, 9], dtype=np.int64)
        tx_role = np.array([False, True, False, True])
        out = run_count_step(
            adj, channels, tx_role,
            max_count=2, log_n=4,
            constants=ProtocolConstants(), rng=np.random.default_rng(3),
        )
        assert out.estimates[0] > 0
        assert out.estimates[2] > 0
        assert out.step.heard_sets()[0] == {1}
        assert out.step.heard_sets()[2] == {3}


class TestBatchedCount:
    @pytest.mark.parametrize("rule", ["argmax", "first_crossing"])
    def test_batch_matches_serial_per_trial(self, rule):
        from repro.core import count_probabilities, run_count_step_batch

        consts = ProtocolConstants(count_rule=rule, count_round_slots=8.0)
        adj, channels, tx_role = star_setup(4)
        seeds = [11, 12, 13]
        probs = count_probabilities(8, 4, consts)
        coins = np.stack(
            [
                np.random.default_rng(s).random((probs.size, 4 + 1))
                < probs[:, None]
                for s in seeds
            ]
        )
        batch = run_count_step_batch(
            adj, channels, tx_role,
            max_count=8, log_n=4, constants=consts, coins=coins,
        )
        assert batch.num_trials == len(seeds)
        for b, s in enumerate(seeds):
            ref = run_count_step(
                adj, channels, tx_role,
                max_count=8, log_n=4, constants=consts,
                rng=np.random.default_rng(s),
            )
            assert np.array_equal(batch.estimates[b], ref.estimates)
            assert np.array_equal(
                batch.round_receptions[b], ref.round_receptions
            )
            sliced = batch.trial(b)
            assert np.array_equal(
                sliced.step.heard_from, ref.step.heard_from
            )
            assert sliced.num_slots == ref.num_slots

    def test_rejects_empty_or_misshapen_coins(self):
        from repro.core import run_count_step_batch

        adj, channels, tx_role = star_setup(2)
        consts = ProtocolConstants()
        total_slots = consts.count_round_length(3) * 3
        for shape in ((0, total_slots, 3), (1, total_slots - 1, 3)):
            with pytest.raises(ProtocolError):
                run_count_step_batch(
                    adj, channels, tx_role,
                    max_count=4, log_n=3, constants=consts,
                    coins=np.zeros(shape, dtype=bool),
                )
