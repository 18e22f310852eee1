"""Unit tests for the slot engine's reception semantics."""

import numpy as np
import pytest

from repro.model import ProtocolError
from repro.sim import resolve_slot, resolve_step
from repro.sim.engine import resolve_step_batch, resolve_varying


def triangle_adj():
    adj = np.zeros((3, 3), dtype=bool)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        adj[u, v] = adj[v, u] = True
    return adj


def path_adj(n):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n - 1):
        adj[u, u + 1] = adj[u + 1, u] = True
    return adj


class TestResolveSlot:
    def test_single_broadcaster_is_heard(self):
        adj = path_adj(2)
        out = resolve_slot(
            adj, np.array([5, 5]), np.array([True, False])
        )
        assert out.heard_from[1] == 0
        assert out.heard_from[0] == -1  # broadcaster hears nothing

    def test_different_channels_no_reception(self):
        adj = path_adj(2)
        out = resolve_slot(
            adj, np.array([5, 6]), np.array([True, False])
        )
        assert out.heard_from[1] == -1

    def test_collision_is_silence(self):
        adj = triangle_adj()
        out = resolve_slot(
            adj, np.array([3, 3, 3]), np.array([True, True, False])
        )
        assert out.heard_from[2] == -1
        assert out.contenders[2] == 2

    def test_non_neighbor_does_not_interfere(self):
        adj = path_adj(3)  # 0-1-2; 0 and 2 not adjacent
        out = resolve_slot(
            adj, np.array([7, 7, 7]), np.array([True, False, True])
        )
        # Node 1 has two broadcasting neighbors -> collision.
        assert out.heard_from[1] == -1
        # Node 2's only neighbor is 1 (listening), hears nothing.
        assert out.heard_from[2] == -1

    def test_idle_node_hears_nothing(self):
        adj = path_adj(2)
        out = resolve_slot(
            adj, np.array([4, -1]), np.array([True, False])
        )
        assert out.heard_from[1] == -1

    def test_idle_broadcaster_does_not_transmit(self):
        adj = path_adj(2)
        out = resolve_slot(
            adj, np.array([-1, 4]), np.array([True, False])
        )
        assert out.heard_from[1] == -1

    def test_listener_only_hears_own_channel(self):
        adj = triangle_adj()
        # 1 broadcasts on 8; 2 listens on 9 -> nothing; 0 listens on 8.
        out = resolve_slot(
            adj, np.array([8, 8, 9]), np.array([False, True, False])
        )
        assert out.heard_from[0] == 1
        assert out.heard_from[2] == -1

    def test_shape_validation(self):
        adj = path_adj(2)
        with pytest.raises(ProtocolError):
            resolve_slot(adj, np.array([1, 2, 3]), np.array([True, False]))
        with pytest.raises(ProtocolError):
            resolve_slot(adj, np.array([1, 2]), np.array([True]))


class TestResolveStep:
    def test_coin_gating(self):
        adj = path_adj(2)
        channels = np.array([3, 3])
        tx_role = np.array([True, False])
        coins = np.array([[True, False], [False, False], [True, False]])
        out = resolve_step(adj, channels, tx_role, coins)
        assert out.heard_from[0, 1] == 0
        assert out.heard_from[1, 1] == -1
        assert out.heard_from[2, 1] == 0

    def test_broadcaster_never_hears_in_step(self):
        adj = triangle_adj()
        channels = np.array([2, 2, 2])
        tx_role = np.array([True, True, False])
        coins = np.array([[True, False, False]])
        out = resolve_step(adj, channels, tx_role, coins)
        # Node 1 is a silent-this-slot broadcaster: still hears nothing.
        assert out.heard_from[0, 1] == -1
        assert out.heard_from[0, 2] == 0

    def test_heard_sets(self):
        adj = path_adj(3)
        channels = np.array([1, 1, 1])
        tx_role = np.array([True, False, True])
        coins = np.array([[True, False, False], [False, False, True]])
        out = resolve_step(adj, channels, tx_role, coins)
        sets = out.heard_sets()
        assert sets[1] == {0, 2}

    def test_heard_sets_matches_per_column_scan(self):
        rng = np.random.default_rng(11)
        n = 12
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 3, size=n)
        tx_role = rng.random(n) < 0.5
        coins = rng.random((40, n)) < 0.5
        out = resolve_step(adj, channels, tx_role, coins)
        expected = [
            set(
                int(s)
                for s in out.heard_from[:, u][out.heard_from[:, u] >= 0]
            )
            for u in range(n)
        ]
        assert out.heard_sets() == expected

    def test_heard_sets_all_silent(self):
        adj = path_adj(3)
        out = resolve_step(
            adj,
            np.array([1, 2, 3]),
            np.array([True, False, False]),
            np.ones((4, 3), dtype=bool),
        )
        assert out.heard_sets() == [set(), set(), set()]

    def test_matches_slotwise_resolution(self):
        rng = np.random.default_rng(3)
        n = 10
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 4, size=n)
        tx_role = rng.random(n) < 0.5
        coins = rng.random((6, n)) < 0.6
        step = resolve_step(adj, channels, tx_role, coins)
        for t in range(6):
            tx = tx_role & coins[t]
            slot = resolve_slot(adj, channels, tx)
            listeners = ~tx_role
            assert np.array_equal(
                step.heard_from[t][listeners], slot.heard_from[listeners]
            )

    def test_coin_shape_validation(self):
        adj = path_adj(2)
        with pytest.raises(ProtocolError):
            resolve_step(
                adj,
                np.array([1, 1]),
                np.array([True, False]),
                np.ones((3, 5), dtype=bool),
            )


class TestResolveVarying:
    def test_matches_slotwise(self):
        rng = np.random.default_rng(7)
        n, slots = 8, 20
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(-1, 5, size=(slots, n))
        tx = rng.random((slots, n)) < 0.5
        out = resolve_varying(adj, channels, tx)
        for t in range(slots):
            slot = resolve_slot(adj, channels[t], tx[t])
            assert np.array_equal(out.heard_from[t], slot.heard_from)

    def test_validation(self):
        adj = path_adj(2)
        with pytest.raises(ProtocolError):
            resolve_varying(
                adj, np.ones((4, 3), dtype=int), np.ones((4, 2), dtype=bool)
            )
        with pytest.raises(ProtocolError):
            resolve_varying(
                adj, np.ones((4, 2), dtype=int), np.ones((3, 2), dtype=bool)
            )

    def test_zero_slots_give_empty_outcome(self):
        out = resolve_varying(
            path_adj(3),
            np.zeros((0, 3), dtype=np.int64),
            np.zeros((0, 3), dtype=bool),
        )
        for field in (out.heard_from, out.contenders):
            assert field.shape == (0, 3)
            assert field.dtype == np.int64


def random_step_inputs(seed, n=14, slots=12):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.35
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(0, 4, size=n)
    tx_role = rng.random(n) < 0.5
    coins = rng.random((slots, n)) < 0.5
    return adj, channels, tx_role, coins, rng


class TestJamPath:
    def test_no_jam_equals_all_false_mask(self):
        adj, channels, tx_role, coins, _ = random_step_inputs(2)
        plain = resolve_step(adj, channels, tx_role, coins)
        masked = resolve_step(
            adj,
            channels,
            tx_role,
            coins,
            jam=np.zeros_like(coins, dtype=bool),
        )
        assert np.array_equal(plain.heard_from, masked.heard_from)

    def test_jam_kills_only_jammed_receptions(self):
        adj, channels, tx_role, coins, rng = random_step_inputs(3)
        jam = rng.random(coins.shape) < 0.4
        plain = resolve_step(adj, channels, tx_role, coins)
        jammed = resolve_step(adj, channels, tx_role, coins, jam=jam)
        # Jammed cells hear nothing; un-jammed cells are untouched.
        assert (jammed.heard_from[jam] == -1).all()
        assert np.array_equal(
            jammed.heard_from[~jam], plain.heard_from[~jam]
        )
        # Contenders are ground truth and ignore jamming entirely.
        assert np.array_equal(jammed.contenders, plain.contenders)

    def test_full_jam_silences_everyone(self):
        adj, channels, tx_role, coins, _ = random_step_inputs(4)
        out = resolve_step(
            adj,
            channels,
            tx_role,
            coins,
            jam=np.ones_like(coins, dtype=bool),
        )
        assert (out.heard_from == -1).all()

    def test_unjammed_step_matches_resolve_varying(self):
        # resolve_varying has no jam path; an un-jammed fixed-channel
        # step must agree with it on every listener.
        adj, channels, tx_role, coins, _ = random_step_inputs(5)
        slots = coins.shape[0]
        step = resolve_step(adj, channels, tx_role, coins)
        varying = resolve_varying(
            adj,
            np.tile(channels, (slots, 1)),
            np.tile(tx_role, (slots, 1)) & coins,
        )
        listeners = ~tx_role
        assert np.array_equal(
            step.heard_from[:, listeners], varying.heard_from[:, listeners]
        )

    def test_jam_shape_validation(self):
        adj, channels, tx_role, coins, _ = random_step_inputs(6)
        with pytest.raises(ProtocolError):
            resolve_step(
                adj,
                channels,
                tx_role,
                coins,
                jam=np.zeros((1, adj.shape[0]), dtype=bool),
            )


class TestResolveStepBatch:
    def test_shared_inputs_match_serial(self):
        adj, channels, tx_role, _, rng = random_step_inputs(7)
        coins = rng.random((4, 10, adj.shape[0])) < 0.5
        out = resolve_step_batch(adj, channels, tx_role, coins)
        assert out.num_trials == 4
        assert out.num_slots == 10
        for b in range(4):
            ref = resolve_step(adj, channels, tx_role, coins[b])
            assert np.array_equal(out.heard_from[b], ref.heard_from)
            assert np.array_equal(out.contenders[b], ref.contenders)

    def test_per_trial_inputs_match_serial(self):
        rng = np.random.default_rng(8)
        n, B, T = 12, 5, 6
        adj = rng.random((n, n)) < 0.4
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(-1, 4, size=(B, n))
        tx_role = rng.random((B, n)) < 0.5
        coins = rng.random((B, T, n)) < 0.5
        jam = rng.random((B, T, n)) < 0.3
        out = resolve_step_batch(adj, channels, tx_role, coins, jam=jam)
        for b in range(B):
            ref = resolve_step(
                adj, channels[b], tx_role[b], coins[b], jam=jam[b]
            )
            assert np.array_equal(out.heard_from[b], ref.heard_from)
            assert np.array_equal(out.contenders[b], ref.contenders)

    def test_trial_slicing(self):
        adj, channels, tx_role, _, rng = random_step_inputs(9)
        coins = rng.random((3, 5, adj.shape[0])) < 0.5
        out = resolve_step_batch(adj, channels, tx_role, coins)
        sliced = out.trial(1)
        assert np.array_equal(sliced.heard_from, out.heard_from[1])
        assert sliced.num_slots == 5

    def test_validation(self):
        adj, channels, tx_role, coins, _ = random_step_inputs(10)
        n = adj.shape[0]
        with pytest.raises(ProtocolError):
            resolve_step_batch(adj, channels, tx_role, coins)  # 2-D coins
        batch_coins = np.zeros((2, 3, n), dtype=bool)
        with pytest.raises(ProtocolError):
            resolve_step_batch(
                adj, np.zeros((3, n), dtype=int), tx_role, batch_coins
            )
        with pytest.raises(ProtocolError):
            resolve_step_batch(
                adj,
                channels,
                tx_role,
                batch_coins,
                jam=np.zeros((2, 4, n), dtype=bool),
            )
