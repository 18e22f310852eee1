"""Property-based tests: engine semantics vs a brute-force reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import resolve_slot, resolve_step
from repro.sim.engine import resolve_varying


def reference_slot(adj, channels, tx):
    """O(n^2) straight-line reimplementation of the model semantics."""
    n = adj.shape[0]
    heard = np.full(n, -1, dtype=np.int64)
    for u in range(n):
        if channels[u] < 0 or tx[u]:
            continue
        senders = [
            v
            for v in range(n)
            if adj[u, v] and tx[v] and channels[v] == channels[u]
        ]
        if len(senders) == 1:
            heard[u] = senders[0]
    return heard


@st.composite
def slot_case(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < draw(
        st.floats(min_value=0.1, max_value=0.9)
    )
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 4, size=n)
    tx = rng.random(n) < 0.5
    return adj, channels, tx


class TestSlotSemantics:
    @given(slot_case())
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        assert np.array_equal(out.heard_from, reference_slot(adj, channels, tx))

    @given(slot_case())
    @settings(max_examples=60, deadline=None)
    def test_broadcasters_hear_nothing(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        assert (out.heard_from[tx] == -1).all()

    @given(slot_case())
    @settings(max_examples=60, deadline=None)
    def test_heard_sender_is_neighbor_on_same_channel(self, case):
        adj, channels, tx = case
        out = resolve_slot(adj, channels, tx)
        for u in np.flatnonzero(out.heard_from >= 0):
            v = out.heard_from[u]
            assert adj[u, v]
            assert tx[v]
            assert channels[u] == channels[v]


@st.composite
def step_case(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    slots = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 3, size=n)
    tx_role = rng.random(n) < 0.5
    coins = rng.random((slots, n)) < 0.6
    return adj, channels, tx_role, coins


class TestStepSemantics:
    @given(step_case())
    @settings(max_examples=80, deadline=None)
    def test_step_equals_slotwise_reference(self, case):
        adj, channels, tx_role, coins = case
        out = resolve_step(adj, channels, tx_role, coins)
        for t in range(coins.shape[0]):
            tx = tx_role & coins[t]
            expected = reference_slot(adj, channels, tx)
            # Broadcasters who happen not to transmit this slot still do
            # not listen mid-step; mask them out of the reference.
            expected[tx_role] = -1
            assert np.array_equal(out.heard_from[t], expected)


@st.composite
def varying_case(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    slots = draw(st.integers(min_value=1, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.5
    adj = np.triu(adj, 1)
    adj = adj | adj.T
    channels = rng.integers(-1, 3, size=(slots, n))
    tx = rng.random((slots, n)) < 0.5
    return adj, channels, tx


def resolve_varying_dense(adj, channels, tx, chunk=128):
    """Dense-mask reference for ``resolve_varying``.

    Builds ``(chunk, n, n)`` boolean reach masks, ``reach[t, u, v]`` =
    "v's slot-t broadcast reaches u", and reduces them along ``v``:
    O(T * n^2) work, independent of how many nodes transmit.
    """
    n = adj.shape[0]
    ids = np.arange(n, dtype=np.int64)
    heard_parts = []
    contender_parts = []
    for start in range(0, channels.shape[0], chunk):
        ch = channels[start : start + chunk]
        tx_c = tx[start : start + chunk]
        tuned = ch >= 0
        reach = (
            (ch[:, :, None] == ch[:, None, :])
            & adj[None, :, :]
            & tuned[:, :, None]
            & (tuned & tx_c)[:, None, :]
        )
        contenders = reach.sum(axis=2)
        idsum = (reach * ids[None, None, :]).sum(axis=2)
        listeners = tuned & ~tx_c
        heard = np.where(listeners & (contenders == 1), idsum, -1)
        heard_parts.append(heard.astype(np.int64))
        contender_parts.append(contenders.astype(np.int64))
    return (
        np.concatenate(heard_parts, axis=0),
        np.concatenate(contender_parts, axis=0),
    )


@st.composite
def varying_oracle_case(draw):
    """Arbitrary (asymmetric, self-looped) graphs and idle/all-tx slots."""
    n = draw(st.integers(min_value=1, max_value=9))
    slots = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=1.0))
    channels = rng.integers(-1, draw(st.integers(1, 4)), size=(slots, n))
    tx = rng.random((slots, n)) < draw(st.floats(min_value=0.0, max_value=1.0))
    all_tx = rng.random(slots) < 0.2
    tx[all_tx] = True
    return adj, channels, tx


class TestVaryingSemantics:
    @given(varying_case())
    @settings(max_examples=80, deadline=None)
    def test_varying_equals_slotwise_reference(self, case):
        adj, channels, tx = case
        out = resolve_varying(adj, channels, tx)
        for t in range(channels.shape[0]):
            expected = reference_slot(adj, channels[t], tx[t])
            assert np.array_equal(out.heard_from[t], expected)

    @given(varying_oracle_case(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_event_form_equals_dense_oracle(self, case, chunk):
        adj, channels, tx = case
        out = resolve_varying(adj, channels, tx)
        heard, contenders = resolve_varying_dense(adj, channels, tx, chunk)
        assert out.heard_from.dtype == heard.dtype == np.int64
        assert out.contenders.dtype == contenders.dtype == np.int64
        assert np.array_equal(out.heard_from, heard)
        assert np.array_equal(out.contenders, contenders)
