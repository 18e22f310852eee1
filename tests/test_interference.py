"""Primary-user interference: the sequential reference and jam-aware runs.

:class:`PrimaryUserTraffic` is the sequential ON/OFF occupancy process
the protocols consumed before the spectrum-environment subsystem
(:mod:`repro.sim.environment`) existed. It lives on here as the test
oracle :class:`~repro.sim.environment.MarkovTraffic` is pinned against
(``tests/test_environment.py``), next to its own property tests.
"""

from typing import Sequence

import numpy as np
import pytest

from repro.core import CSeek, verify_discovery
from repro.model import ProtocolError
from repro.sim import MarkovTraffic, resolve_step
from repro.sim.environment import build_column_lut, sentinel_columns


class PrimaryUserTraffic:
    """Sequential ON/OFF occupancy over a set of global channels.

    Args:
        channel_ids: Global channel ids the primary users may occupy.
        activity: Target stationary occupied fraction per channel, in
            ``[0, 1)``: one float for every channel, or one per channel
            (aligned with the sorted ids).
        mean_dwell: Mean ON-burst length in slots (``>= 1``); OFF
            lengths follow from the stationarity constraint.
        seed: Randomness seed.

    Feasibility: with geometric ON bursts of mean ``mean_dwell``, the
    OFF->ON transition probability needed for stationarity is
    ``activity / (mean_dwell * (1 - activity))`` and saturates at 1.
    Targets beyond ``mean_dwell / (mean_dwell + 1)`` are therefore
    unreachable — the chain then turns ON every OFF slot and the
    realized occupancy plateaus at that cap. The
    :attr:`realized_activity` property reports the stationary fraction
    the chain actually attains.
    """

    def __init__(
        self,
        channel_ids: Sequence[int],
        activity: "float | Sequence[float]",
        mean_dwell: float = 8.0,
        seed: int = 0,
    ) -> None:
        rates = np.asarray(activity, dtype=float)
        if not np.all((rates >= 0.0) & (rates < 1.0)):
            raise ProtocolError(
                f"activity must be in [0, 1), got {activity}"
            )
        if mean_dwell < 1.0:
            raise ProtocolError(
                f"mean_dwell must be >= 1 slot, got {mean_dwell}"
            )
        ids = sorted(set(int(g) for g in channel_ids))
        if not ids:
            raise ProtocolError("need at least one channel id")
        if any(g < 0 for g in ids):
            raise ProtocolError("channel ids must be non-negative")
        self.channel_ids = ids
        self.activity = activity
        self.mean_dwell = mean_dwell
        # One gather implementation with the environment subsystem:
        # built once here, applied every step in jam_mask.
        self._column_lut, self._max_id = build_column_lut(ids)
        self._rng = np.random.default_rng(seed)
        # ON -> OFF with prob 1/dwell; OFF -> ON tuned for stationarity:
        # p = on_rate / (on_rate + off_rate), clamped at 1 — per channel
        # for a vector target.
        self._off_prob = 1.0 / mean_dwell
        self._on_prob = np.minimum(
            1.0, rates * self._off_prob / (1.0 - rates)
        )
        # Start at stationarity.
        self._state = self._rng.random(len(ids)) < rates

    @property
    def num_channels(self) -> int:
        """Channels under primary-user control."""
        return len(self.channel_ids)

    @property
    def realized_activity(self) -> "float | np.ndarray":
        """The stationary occupancy the chains actually attain.

        Equals ``activity`` whenever the target is feasible for the
        requested dwell, and the ``mean_dwell / (mean_dwell + 1)`` cap
        otherwise (see the class docstring).
        """
        return self._on_prob / (self._on_prob + self._off_prob)

    def occupied_block(self, num_slots: int) -> np.ndarray:
        """Advance the chains; return ``(num_slots, num_channels)`` bool.

        Column order matches ``self.channel_ids``.
        """
        if num_slots < 1:
            raise ProtocolError(f"num_slots must be >= 1, got {num_slots}")
        out = np.empty((num_slots, self.num_channels), dtype=bool)
        state = self._state
        flips = self._rng.random((num_slots, self.num_channels))
        for t in range(num_slots):
            turn_off = state & (flips[t] < self._off_prob)
            turn_on = ~state & (flips[t] < self._on_prob)
            state = (state & ~turn_off) | turn_on
            out[t] = state
        self._state = state
        return out

    def jam_mask(
        self, channels: np.ndarray, num_slots: int
    ) -> np.ndarray:
        """Per-node reception-kill mask for a fixed-channel step.

        Args:
            channels: ``(n,)`` global channel per node (``-1`` idle;
                idle nodes are never jammed — they hear nothing anyway).
            num_slots: Step length; the traffic advances by this much.

        Returns:
            ``(num_slots, n)`` boolean; True where the node's channel is
            occupied that slot. Channels outside the primary users'
            set are never occupied.
        """
        occupied = self.occupied_block(num_slots)
        channels = np.asarray(channels)
        # Channel-column gather through the precomputed LUT: the
        # sentinel column is never occupied (no per-node Python loop).
        cols = sentinel_columns(self._column_lut, self._max_id, channels)
        extended = np.concatenate(
            [occupied, np.zeros((num_slots, 1), dtype=bool)], axis=1
        )
        return extended[:, cols]


class TestPrimaryUserTraffic:
    def test_rejects_bad_params(self):
        with pytest.raises(ProtocolError):
            PrimaryUserTraffic([0, 1], activity=1.0)
        with pytest.raises(ProtocolError):
            PrimaryUserTraffic([0, 1], activity=-0.1)
        with pytest.raises(ProtocolError):
            PrimaryUserTraffic([0, 1], activity=0.5, mean_dwell=0.5)
        with pytest.raises(ProtocolError):
            PrimaryUserTraffic([], activity=0.5)
        with pytest.raises(ProtocolError):
            PrimaryUserTraffic([-1], activity=0.5)

    def test_zero_activity_never_occupies(self):
        traffic = PrimaryUserTraffic([0, 1, 2], activity=0.0, seed=1)
        assert not traffic.occupied_block(200).any()

    def test_stationary_occupancy_near_target(self):
        traffic = PrimaryUserTraffic(
            list(range(20)), activity=0.4, mean_dwell=5.0, seed=2
        )
        block = traffic.occupied_block(4000)
        assert 0.3 <= block.mean() <= 0.5

    def test_bursts_have_requested_dwell(self):
        traffic = PrimaryUserTraffic([0], activity=0.3, mean_dwell=10.0, seed=3)
        series = traffic.occupied_block(20000)[:, 0]
        # Mean run length of ON bursts should be near mean_dwell.
        runs = []
        current = 0
        for on in series:
            if on:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs, "expected some ON bursts"
        mean_run = float(np.mean(runs))
        assert 5.0 <= mean_run <= 20.0

    def test_sequential_blocks_advance_state(self):
        t1 = PrimaryUserTraffic([0, 1], activity=0.5, seed=4)
        a = t1.occupied_block(50)
        b = t1.occupied_block(50)
        t2 = PrimaryUserTraffic([0, 1], activity=0.5, seed=4)
        c = t2.occupied_block(100)
        assert np.array_equal(np.vstack([a, b]), c)

    @pytest.mark.parametrize(
        "activity,mean_dwell",
        [(0.1, 1.5), (0.4, 2.0), (0.55, 1.5), (0.7, 8.0), (0.85, 8.0)],
    )
    def test_stationary_occupancy_converges_to_activity(
        self, activity, mean_dwell
    ):
        # The chains start at stationarity and must stay there: for
        # feasible targets (activity <= dwell / (dwell + 1)) the
        # long-run occupied fraction converges to the activity target
        # across the (activity, dwell) grid, not just one point.
        traffic = PrimaryUserTraffic(
            list(range(16)),
            activity=activity,
            mean_dwell=mean_dwell,
            seed=int(activity * 100) + int(mean_dwell),
        )
        assert traffic.realized_activity == pytest.approx(activity)
        block = traffic.occupied_block(6000)
        assert abs(block.mean() - activity) < 0.05

    def test_infeasible_targets_saturate_at_the_dwell_cap(self):
        # activity > dwell / (dwell + 1) cannot be reached with
        # geometric ON bursts of that mean: the OFF->ON probability
        # clamps at 1 and occupancy plateaus at the cap.
        traffic = PrimaryUserTraffic(
            list(range(16)), activity=0.9, mean_dwell=1.5, seed=8
        )
        cap = 1.5 / 2.5
        assert traffic.realized_activity == pytest.approx(cap)
        block = traffic.occupied_block(6000)
        assert abs(block.mean() - cap) < 0.05

    def test_chunked_consumption_bit_identical_to_one_shot(self):
        # Protocol executions consume occupancy slot by slot in uneven
        # step-sized chunks; the sequence must be exactly the one a
        # single generation from the same seed produces.
        chunks = [1, 7, 64, 3, 1, 100, 24]
        total = sum(chunks)
        chunked = PrimaryUserTraffic(
            [2, 5, 9], activity=0.35, mean_dwell=6.0, seed=13
        )
        parts = [chunked.occupied_block(size) for size in chunks]
        one_shot = PrimaryUserTraffic(
            [2, 5, 9], activity=0.35, mean_dwell=6.0, seed=13
        ).occupied_block(total)
        assert np.array_equal(np.vstack(parts), one_shot)

    def test_chunked_jam_masks_bit_identical_to_one_shot(self):
        # The jam_mask view (what the engine actually consumes) must
        # inherit the same chunking invariance.
        channels = np.array([2, 9, -1, 5])
        chunks = [5, 1, 30, 14]
        chunked = PrimaryUserTraffic(
            [2, 5, 9], activity=0.5, mean_dwell=3.0, seed=21
        )
        parts = [chunked.jam_mask(channels, size) for size in chunks]
        one_shot = PrimaryUserTraffic(
            [2, 5, 9], activity=0.5, mean_dwell=3.0, seed=21
        ).jam_mask(channels, sum(chunks))
        assert np.array_equal(np.vstack(parts), one_shot)

    def test_jam_mask_covers_tuned_channels_only(self):
        traffic = PrimaryUserTraffic([5], activity=0.9, mean_dwell=2.0, seed=5)
        channels = np.array([5, 7, -1])
        mask = traffic.jam_mask(channels, 300)
        assert mask[:, 0].mean() > 0.3  # channel 5 is managed
        assert not mask[:, 1].any()  # channel 7 is outside the set
        assert not mask[:, 2].any()  # idle node never jammed

    def test_jam_mask_rejects_bad_slots(self):
        traffic = PrimaryUserTraffic([0], activity=0.1)
        with pytest.raises(ProtocolError):
            traffic.occupied_block(0)


class TestJamAwareEngine:
    def test_full_jam_silences_reception(self):
        adj = np.array([[False, True], [True, False]])
        channels = np.array([3, 3])
        tx_role = np.array([True, False])
        coins = np.ones((5, 2), dtype=bool)
        jam = np.ones((5, 2), dtype=bool)
        out = resolve_step(adj, channels, tx_role, coins, jam=jam)
        assert (out.heard_from == -1).all()

    def test_partial_jam_kills_exact_slots(self):
        adj = np.array([[False, True], [True, False]])
        channels = np.array([3, 3])
        tx_role = np.array([True, False])
        coins = np.ones((4, 2), dtype=bool)
        jam = np.zeros((4, 2), dtype=bool)
        jam[1, 1] = True
        out = resolve_step(adj, channels, tx_role, coins, jam=jam)
        assert out.heard_from[0, 1] == 0
        assert out.heard_from[1, 1] == -1
        assert out.heard_from[2, 1] == 0

    def test_jam_shape_validated(self):
        adj = np.array([[False, True], [True, False]])
        with pytest.raises(ProtocolError):
            resolve_step(
                adj,
                np.array([1, 1]),
                np.array([True, False]),
                np.ones((3, 2), dtype=bool),
                jam=np.ones((2, 2), dtype=bool),
            )


class TestCSeekUnderInterference:
    @pytest.mark.integration
    def test_short_bursts_are_absorbed(self, small_regular_net):
        net = small_regular_net
        # Traffic stream seed 7 (protocol seed 1 + offset 6).
        env = MarkovTraffic(
            sorted(net.assignment.universe()),
            activity=0.3,
            mean_dwell=4.0,
            seed_offset=6,
        )
        result = CSeek(net, seed=1, environment=env).run()
        assert verify_discovery(result, net).success

    @pytest.mark.integration
    def test_heavy_long_bursts_break_discovery(self, small_regular_net):
        net = small_regular_net
        # Traffic stream seed s, the protocol's own seed.
        env = MarkovTraffic(
            sorted(net.assignment.universe()),
            activity=0.9,
            mean_dwell=2000.0,
            seed_offset=0,
        )
        failures = 0
        for s in range(3):
            result = CSeek(net, seed=s, environment=env).run()
            if not verify_discovery(result, net).success:
                failures += 1
        assert failures > 0
