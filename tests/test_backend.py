"""The engine's step products: exact integers, and one patchable path.

:class:`NumpyBackend` computes exact integer products (counts and
id-sums) through float64 GEMMs — pinned here against a naive integer
reference. The engine reaches the products through the class
attributes at call time, which is what lets a profiler time the GEMM
layer by patching ``NumpyBackend.step_products`` and
``.batch_step_products``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.scenarios import run_scenario_spec
from repro.sim.backend import NumpyBackend
from repro.sim.engine import resolve_step, resolve_step_batch

from tests.test_xbatch import tiny_cseek_sweep


def reference_products(reach, coins):
    """Naive integer products — the semantics the GEMMs must match."""
    contenders = coins.astype(np.int64) @ reach.T.astype(np.int64)
    ids = np.arange(reach.shape[-1], dtype=np.int64)
    idsum = coins.astype(np.int64) @ (reach.astype(np.int64) * ids).T
    return contenders, idsum


class TestBackendEquivalence:
    def test_step_products_match_reference(self):
        rng = np.random.default_rng(5)
        reach = rng.random((7, 7)) < 0.4
        coins = rng.random((23, 7)) < 0.5
        contenders, idsum = NumpyBackend().step_products(reach, coins)
        ref_c, ref_i = reference_products(reach, coins)
        assert contenders.dtype == np.int64
        assert np.array_equal(contenders, ref_c)
        assert np.array_equal(idsum, ref_i)

    def test_batch_step_products_match_reference(self):
        rng = np.random.default_rng(6)
        reach = rng.random((4, 6, 6)) < 0.4
        coins = rng.random((4, 9, 6)) < 0.5
        contenders, idsum = NumpyBackend().batch_step_products(reach, coins)
        for b in range(4):
            ref_c, ref_i = reference_products(reach[b], coins[b])
            assert np.array_equal(contenders[b], ref_c)
            assert np.array_equal(idsum[b], ref_i)

    def test_scenario_rows_identical(self):
        spec = tiny_cseek_sweep()
        reference = run_scenario_spec(spec, seed=2, jobs="batch")
        got = run_scenario_spec(spec, seed=2, jobs="xbatch")
        assert got.rows == reference.rows


class TestTraceHook:
    """Every engine GEMM goes through the patchable class attributes."""

    def test_engine_calls_reach_patched_methods(self, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(NumpyBackend, name)

            def wrapper(self, reach, coins):
                calls.append(name)
                return original(self, reach, coins)

            return wrapper

        for name in ("step_products", "batch_step_products"):
            monkeypatch.setattr(NumpyBackend, name, counting(name))

        rng = np.random.default_rng(14)
        n, b, t = 6, 3, 5
        adj = np.triu(rng.random((n, n)) < 0.5, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 2, size=n)
        tx_role = rng.random(n) < 0.5
        coins = rng.random((b, t, n)) < 0.5

        resolve_step(adj, channels, tx_role, coins[0])
        assert calls == ["step_products"]
        # Shared mask: trials and slots flatten into one product.
        resolve_step_batch(adj, channels, tx_role, coins)
        assert calls == ["step_products"] * 2
        # Per-trial (B, n, n) masks.
        resolve_step_batch(adj, np.tile(channels, (b, 1)), tx_role, coins)
        assert calls == ["step_products"] * 2 + ["batch_step_products"]


class TestNumpyFloatCache:
    def test_same_mask_object_hits_cache(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(7).random((5, 5)) < 0.5
        f1, i1 = backend.reach_floats(reach)
        f2, i2 = backend.reach_floats(reach)
        assert f1 is f2 and i1 is i2

    def test_cache_is_bounded(self):
        backend = NumpyBackend()
        masks = [
            np.random.default_rng(i).random((4, 4)) < 0.5
            for i in range(NumpyBackend._CACHE_ENTRIES + 3)
        ]
        for mask in masks:
            backend.reach_floats(mask)
        assert len(backend._floats) == NumpyBackend._CACHE_ENTRIES

    def test_distinct_objects_get_distinct_casts(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(8).random((5, 5)) < 0.5
        copy = reach.copy()
        f1, _ = backend.reach_floats(reach)
        f2, _ = backend.reach_floats(copy)
        assert f1 is not f2
        assert np.array_equal(f1, f2)

    def test_hit_miss_counters(self):
        backend = NumpyBackend()
        reach = np.random.default_rng(11).random((5, 5)) < 0.5
        with obs.capture() as tel:
            backend.reach_floats(reach)
            backend.reach_floats(reach)
            backend.reach_floats(reach)
        assert tel.counters["backend.float_cache.misses"] == 1
        assert tel.counters["backend.float_cache.hits"] == 2
        assert "backend.float_cache.evictions" not in tel.counters

    def test_eviction_counter_matches_bound(self):
        backend = NumpyBackend()
        extra = 3
        masks = [
            np.random.default_rng(i).random((4, 4)) < 0.5
            for i in range(NumpyBackend._CACHE_ENTRIES + extra)
        ]
        with obs.capture() as tel:
            for mask in masks:
                backend.reach_floats(mask)
        assert tel.counters["backend.float_cache.misses"] == len(masks)
        assert tel.counters["backend.float_cache.evictions"] == extra


class TestEngineReachCache:
    def test_repeated_steps_reuse_one_reception_matrix(self):
        from repro.sim.engine import _cached_reception_matrix

        rng = np.random.default_rng(9)
        n = 6
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 3, size=n)
        tx_role = rng.random(n) < 0.5
        first = _cached_reception_matrix(adj, channels, tx_role)
        second = _cached_reception_matrix(adj, channels, tx_role)
        assert first is second

    def test_hit_miss_counters(self):
        from repro.sim.engine import _cached_reception_matrix

        rng = np.random.default_rng(12)
        n = 5
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        channels = rng.integers(0, 2, size=n)
        tx_role = rng.random(n) < 0.5
        # Fresh arrays cannot already sit in the module-level cache
        # (adjacency matches by identity), so the first call is exactly
        # one miss and the repeats are exactly hits.
        with obs.capture() as tel:
            _cached_reception_matrix(adj, channels, tx_role)
            _cached_reception_matrix(adj, channels, tx_role)
            _cached_reception_matrix(adj, channels, tx_role)
        assert tel.counters["engine.reach_cache.misses"] == 1
        assert tel.counters["engine.reach_cache.hits"] == 2

    def test_changed_channels_miss(self):
        from repro.sim.engine import _cached_reception_matrix, _reception_matrix

        rng = np.random.default_rng(10)
        n = 6
        adj = rng.random((n, n)) < 0.5
        adj = np.triu(adj, 1)
        adj = adj | adj.T
        tx_role = np.ones(n, dtype=bool)
        ch_a = np.zeros(n, dtype=np.int64)
        ch_b = np.arange(n, dtype=np.int64) % 2
        cached_a = _cached_reception_matrix(adj, ch_a, tx_role)
        cached_b = _cached_reception_matrix(adj, ch_b, tx_role)
        assert np.array_equal(cached_a, _reception_matrix(adj, ch_a, tx_role))
        assert np.array_equal(cached_b, _reception_matrix(adj, ch_b, tx_role))
