"""E12 — discovery under primary-user interference (extension).

Times CSEEK with 30% short-burst channel occupancy and asserts the
schedule slack absorbs it.
"""

from __future__ import annotations

from repro.core import CSeek, verify_discovery
from repro.sim import MarkovTraffic


def bench_cseek_under_interference(benchmark, regular_net):
    """CSEEK with 30% primary-user occupancy (dwell 4 slots)."""
    # Traffic stream seed 9: protocol seed 2 plus a seed offset of 7.
    env = MarkovTraffic(
        sorted(regular_net.assignment.universe()),
        activity=0.3,
        mean_dwell=4.0,
        seed_offset=7,
    )

    def run():
        return CSeek(regular_net, seed=2, environment=env).run()

    result = benchmark(run)
    assert verify_discovery(result, regular_net).success
