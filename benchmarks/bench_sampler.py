"""EXP-A4 — implementation ablation: exact grass-hopping vs naive sampler.

Times both exact SKG samplers at increasing order and verifies they agree
on mean statistics where both are feasible.  The grass-hopper is the
substrate that makes the paper-scale (k = 14) experiments practical, so
its speedup and exactness are worth a regenerated artifact.
"""

from __future__ import annotations

import time

import numpy as np

from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_edges
from repro.kronecker.sampling import sample_skg
from repro.reference.sampling import sample_skg_naive
from repro.utils.tables import TextTable

THETA = Initiator(0.99, 0.45, 0.25)


def test_sampler_speed_and_agreement(benchmark, emit):
    # pytest-benchmark measures the paper-scale draw.
    graph = benchmark(lambda: sample_skg(THETA, 14, seed=0))
    assert graph.n_nodes == 2**14

    table = TextTable(
        ["k", "nodes", "grass-hop (s)", "naive (s)", "mean edges", "E[edges]"],
        title="Exact SKG samplers: timing and agreement",
    )
    for k in (8, 10, 12):
        t0 = time.perf_counter()
        fast_edges = [sample_skg(THETA, k, seed=s).n_edges for s in range(10)]
        fast_time = (time.perf_counter() - t0) / 10
        t0 = time.perf_counter()
        naive_edges = [sample_skg_naive(THETA, k, seed=100 + s).n_edges for s in range(10)]
        naive_time = (time.perf_counter() - t0) / 10
        expected = float(expected_edges(*THETA, k))
        table.add_row(
            [k, 2**k, fast_time, naive_time, np.mean(fast_edges + naive_edges), expected]
        )
        # Unbiasedness of both samplers at every order.
        assert np.mean(fast_edges) > 0.7 * expected
        assert np.mean(naive_edges) > 0.7 * expected
        assert fast_time < naive_time  # the point of grass-hopping
    emit("sampler_ablation", table.render())
