"""Bit-identity pins for the end-to-end batched CGCAST path.

``CGCastBatch.run(seeds)[b]`` must be field-for-field identical to
``CGCast(..., seed=seeds[b]).run()`` — the batched executor is a pure
throughput decision. These tests pin that contract across the oracle
and simulated exchange modes, jammed discovery, heterogeneous
assignments, non-default sources and the ``early_stop`` policy, plus
the cross-point lockstep layer and the batched re-dissemination of the
amortized regime.
"""

import numpy as np
import pytest

from repro.core import (
    CGCast,
    CGCastBatch,
    CGCastMember,
    CGCastXBatch,
    cgcast_lockstep_signature,
    redisseminate,
    redisseminate_batch,
    run_cgcast_lockstep,
    run_group,
)
from repro.graphs import build_network, path_of_cliques, random_regular
from repro.model.errors import ProtocolError
from repro.sim.environment import MarkovTraffic

SEEDS = [3, 17, 99]


def assert_results_equal(got, ref):
    """Field-for-field equality of two CGCastResult objects."""
    assert np.array_equal(got.informed, ref.informed)
    assert np.array_equal(got.informed_slot, ref.informed_slot)
    assert got.ledger.as_dict() == ref.ledger.as_dict()
    assert got.edge_colors == ref.edge_colors
    assert got.dedicated == ref.dedicated
    assert got.coloring_valid == ref.coloring_valid
    assert got.success == ref.success
    assert got.total_slots == ref.total_slots
    assert got.completion_slot == ref.completion_slot
    # Underlying stage results.
    assert got.discovery.discovered == ref.discovery.discovered
    assert got.discovery.ledger.as_dict() == ref.discovery.ledger.as_dict()
    assert got.coloring.colors == ref.coloring.colors
    assert got.coloring.phases_used == ref.coloring.phases_used
    assert got.dissemination.phases_run == ref.dissemination.phases_run
    assert (
        got.dissemination.scheduled_slots
        == ref.dissemination.scheduled_slots
    )
    assert np.array_equal(
        got.dissemination.informed_slot, ref.dissemination.informed_slot
    )


class TestPlainEquivalence:
    def test_regular_network(self, small_regular_net):
        got = CGCastBatch(small_regular_net).run(SEEDS)
        for s, g in zip(SEEDS, got):
            assert_results_equal(g, CGCast(small_regular_net, seed=s).run())

    def test_clique_chain(self, clique_chain_net):
        got = CGCastBatch(clique_chain_net).run(SEEDS)
        for s, g in zip(SEEDS, got):
            assert_results_equal(g, CGCast(clique_chain_net, seed=s).run())

    def test_nonzero_source(self, small_regular_net):
        got = CGCastBatch(small_regular_net, source=7).run(SEEDS)
        for s, g in zip(SEEDS, got):
            ref = CGCast(small_regular_net, source=7, seed=s).run()
            assert_results_equal(g, ref)

    def test_heterogeneous_assignment(self, hetero_net):
        got = CGCastBatch(hetero_net).run(SEEDS)
        for s, g in zip(SEEDS, got):
            assert_results_equal(g, CGCast(hetero_net, seed=s).run())

    def test_no_early_stop(self, small_regular_net):
        got = CGCastBatch(small_regular_net, early_stop=False).run(SEEDS)
        for s, g in zip(SEEDS, got):
            ref = CGCast(small_regular_net, seed=s, early_stop=False).run()
            assert_results_equal(g, ref)
            # Without early stop, every trial drains the full schedule.
            assert (
                g.dissemination.phases_run
                == small_regular_net.knowledge().diameter
            )

    def test_empty_seeds_rejected(self, small_regular_net):
        with pytest.raises(ProtocolError, match="at least one trial"):
            CGCastBatch(small_regular_net).run([])

    def test_batch_method_round_trip(self, small_regular_net):
        proto = CGCast(small_regular_net, source=3, early_stop=False)
        got = CGCastBatch.from_serial(proto).run(SEEDS)
        for s, g in zip(SEEDS, got):
            ref = CGCast(
                small_regular_net, source=3, seed=s, early_stop=False
            ).run()
            assert_results_equal(g, ref)


class TestJammedDiscovery:
    """Primary-user traffic in discovery erodes the discovered graph;
    the later phases inherit the per-trial differences."""

    def _env(self, net):
        return MarkovTraffic(
            sorted(net.assignment.universe()),
            activity=0.5,
            mean_dwell=6.0,
            seed_offset=1000,
        )

    def test_jammed_equivalence(self, small_regular_net):
        env = self._env(small_regular_net)
        got = CGCastBatch(small_regular_net, environment=env).run(SEEDS)
        for s, g in zip(SEEDS, got):
            ref = CGCast(small_regular_net, seed=s, environment=env).run()
            assert_results_equal(g, ref)

    def test_from_serial_inherits_environment(self, small_regular_net):
        env = self._env(small_regular_net)
        proto = CGCast(small_regular_net, environment=env)
        batch = CGCastBatch.from_serial(proto)
        assert batch.environment is env
        got = batch.run(SEEDS[:2])
        for s, g in zip(SEEDS[:2], got):
            ref = CGCast(small_regular_net, seed=s, environment=env).run()
            assert_results_equal(g, ref)


class TestSimulatedExchange:
    def test_simulated_equivalence(self, small_path_net):
        got = CGCastBatch(
            small_path_net, exchange_mode="simulated"
        ).run(SEEDS)
        for s, g in zip(SEEDS, got):
            ref = CGCast(
                small_path_net, seed=s, exchange_mode="simulated"
            ).run()
            assert_results_equal(g, ref)


class TestCrossPointLockstep:
    def _nets(self):
        net_a = build_network(
            random_regular(12, 4, seed=1), c=8, k=2, seed=1
        )
        net_b = build_network(
            random_regular(12, 4, seed=9), c=8, k=2, seed=9
        )
        return net_a, net_b

    def test_different_networks_one_group(self):
        net_a, net_b = self._nets()
        members = [
            CGCastMember(CGCastBatch(net_a), [3, 4]),
            CGCastMember(CGCastBatch(net_b), [5, 6, 7]),
        ]
        per_member = run_cgcast_lockstep(members)
        for net, seeds, results in zip(
            (net_a, net_b), ([3, 4], [5, 6, 7]), per_member
        ):
            for s, g in zip(seeds, results):
                assert_results_equal(g, CGCast(net, seed=s).run())

    def test_signature_mismatch_rejected(self):
        net_a, _ = self._nets()
        members = [
            CGCastMember(CGCastBatch(net_a, source=0), [1]),
            CGCastMember(CGCastBatch(net_a, source=3), [2]),
        ]
        with pytest.raises(ProtocolError, match="compatibility signature"):
            run_cgcast_lockstep(members)

    def test_signature_pins_pipeline_knobs(self, small_regular_net):
        base = cgcast_lockstep_signature(CGCastBatch(small_regular_net))
        for other in (
            CGCastBatch(small_regular_net, source=2),
            CGCastBatch(small_regular_net, exchange_mode="simulated"),
            CGCastBatch(small_regular_net, early_stop=False),
            CGCastBatch(small_regular_net, coloring_loss_rate=0.1),
        ):
            assert cgcast_lockstep_signature(other) != base

    def test_xbatch_group_runner(self):
        net_a, net_b = self._nets()
        post = lambda r: (r.success, r.total_slots)  # noqa: E731
        xs = [
            CGCastXBatch(
                make_protocol=lambda s, net=net: CGCast(net, seed=s),
                postprocess=post,
            )
            for net in (net_a, net_b)
        ]
        assert xs[0].signature() == xs[1].signature()
        assert xs[0].signature()[0] == "cgcast"
        grouped = run_group(xs, [[3, 4], [5, 6]])
        for net, seeds, outs in zip(
            (net_a, net_b), ([3, 4], [5, 6]), grouped
        ):
            assert outs == [post(CGCast(net, seed=s).run()) for s in seeds]


class TestRedisseminateBatch:
    @pytest.fixture(scope="class")
    def setups(self):
        net = build_network(path_of_cliques(3, 4), c=8, k=1, seed=5)
        return net, CGCastBatch(net).run(SEEDS)

    def test_matches_serial_redisseminate(self, setups):
        net, results = setups
        got = redisseminate_batch(
            net, results, 5, [s + 7 for s in SEEDS]
        )
        for s, setup, g in zip(SEEDS, results, got):
            ref = redisseminate(net, setup, 5, seed=s + 7)
            assert np.array_equal(g.informed, ref.informed)
            assert np.array_equal(g.informed_slot, ref.informed_slot)
            assert g.ledger.as_dict() == ref.ledger.as_dict()
            assert g.phases_run == ref.phases_run
            assert g.scheduled_slots == ref.scheduled_slots

    def test_per_trial_sources(self, setups):
        net, results = setups
        sources = [(1 + 3 * i) % net.n for i in range(len(SEEDS))]
        got = redisseminate_batch(net, results, sources, SEEDS)
        for s, setup, source, g in zip(SEEDS, results, sources, got):
            ref = redisseminate(net, setup, source, seed=s)
            assert np.array_equal(g.informed_slot, ref.informed_slot)
            assert g.ledger.as_dict() == ref.ledger.as_dict()

    def test_invalid_setup_rejected(self, setups):
        net, results = setups
        broken = CGCastBatch(net).run([SEEDS[0]])[0]
        broken.coloring_valid = False
        with pytest.raises(ProtocolError, match="coloring was invalid"):
            redisseminate_batch(net, [broken], 0, [1])

    def test_setup_count_mismatch_rejected(self, setups):
        net, results = setups
        with pytest.raises(ProtocolError, match="one setup per seed"):
            redisseminate_batch(net, results[:1], 0, SEEDS)
