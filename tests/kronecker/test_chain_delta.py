"""Regression lock for the chain kernels' touched-cell delta scan.

PR 8 rewrote the Metropolis proposal evaluation in every chain engine:
instead of two full (k+1)² score-table scans per swap, the kernels record
the profile cells the swap actually touches (at most 2·(deg i + deg j)
events) and fold the acceptance delta over that set.  The optimization
must be *invisible* — the float additions happen in the same ascending
cell order as the old full scan, so trajectories are bit-identical to the
pre-delta-scan kernels.

This module locks both halves of that claim:

* **Golden trajectories** — σ checkpoints, profile histograms, and
  acceptance counts captured from the PR 4 full-scan kernels, pinned as
  sha256 digests for every (family, θ) cell and asserted on every
  backend, for a solo chain and for the first and last chain of a
  three-chain ensemble.  The families are built by sampler-independent
  constructors (``sample_skg_naive`` and deterministic generators), so
  these goldens stay valid under future ``sample_skg`` changes.
* **The pass count** — :attr:`PermutationSampler.score_touches` counts
  score-table reads during delta scans; the tests pin that it is
  engine- and place-invariant and *far* below the old full-scan cost of
  2·(k+1)² reads per proposal.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.graphs import Graph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.graphs.operations import pad_to_power_of_two
from repro.kronecker.initiator import Initiator
from repro.kronecker.likelihood import MultiChainSampler, PermutationSampler
from repro.kronecker.sampling import sample_skg_naive
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import NATIVE_BACKENDS


def _backend_params() -> list:
    params = [pytest.param("numpy")]
    for name in NATIVE_BACKENDS:
        if MULTICHAIN_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {MULTICHAIN_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


BACKENDS = _backend_params()
PLACES = (None, 0, 2)  # solo sampler; first and last chain of three

# Built without sample_skg on purpose: the goldens below must never move
# when the grass-hopping sampler's realizations change.
FAMILIES = {
    "skg-naive-k5": lambda: (sample_skg_naive(Initiator(0.9, 0.5, 0.2), 5, seed=3), 5),
    "skg-naive-k7": lambda: (
        sample_skg_naive(Initiator(0.99, 0.45, 0.25), 7, seed=7),
        7,
    ),
    "er-padded-k6": lambda: (
        pad_to_power_of_two(erdos_renyi_graph(50, 0.1, seed=11))[0],
        6,
    ),
    "star-16": lambda: (star_graph(16), 4),
    "clique-8": lambda: (complete_graph(8), 3),
    "near-empty-k3": lambda: (Graph(8, [(0, 1)]), 3),
}

THETAS = {
    "skewed": Initiator(0.9, 0.5, 0.2),
    "paper": Initiator(0.99, 0.45, 0.25),
    "flat": Initiator(0.6, 0.6, 0.6),
}

RUN_LENGTHS = (120, 80)
SEED = 20120330

# Captured from the PR 4 kernels (full-scan proposal evaluation) before
# the delta scan landed: ((sigma digest at checkpoint 1, at checkpoint
# 2), histogram digest, accepted count) per (family, theta) cell, with
# digest = sha256(array.tobytes()).hexdigest()[:16].
GOLDENS = {
    ("skg-naive-k5", "skewed"): (
        ("5e5b88316625d28b", "6f5a071fc101c8c0"),
        "5efbe93e32d1be8b",
        93,
    ),
    ("skg-naive-k5", "paper"): (
        ("051bdf8bd37e69e7", "1b96d92036f861c5"),
        "199910cb417171bf",
        101,
    ),
    ("skg-naive-k5", "flat"): (
        ("95be28c31718b9c7", "ec138b3c7719e552"),
        "ca863238f48c0f3a",
        200,
    ),
    ("skg-naive-k7", "skewed"): (
        ("5cd0e5f44d7a8f46", "ddbff4c7be1697ef"),
        "1b64ea6ecde89708",
        97,
    ),
    ("skg-naive-k7", "paper"): (
        ("710d5e80dd0dcc86", "5cbe597e096f3c98"),
        "9d76057e1faa371f",
        92,
    ),
    ("skg-naive-k7", "flat"): (
        ("16aa3b83eafe4bb9", "e880a5abc7644af9"),
        "8d746745b2bb5bea",
        200,
    ),
    ("er-padded-k6", "skewed"): (
        ("e230eb090b6c22b4", "9aaca815778d889b"),
        "e825b9528e91b7f0",
        77,
    ),
    ("er-padded-k6", "paper"): (
        ("2def915311167202", "29199d2f857a5123"),
        "cc6a3c5de20aa35c",
        64,
    ),
    ("er-padded-k6", "flat"): (
        ("c2375fb16149d067", "d081b31bb6ae5c6b"),
        "a7b203a102d72bba",
        200,
    ),
    ("star-16", "skewed"): (
        ("bc02eb5adf535b76", "5303ff394201e4b1"),
        "d2a409fa4a367e91",
        173,
    ),
    ("star-16", "paper"): (
        ("bc02eb5adf535b76", "5303ff394201e4b1"),
        "d2a409fa4a367e91",
        173,
    ),
    ("star-16", "flat"): (
        ("a93016e00f1380d6", "19f346398ffdc030"),
        "d2a409fa4a367e91",
        200,
    ),
    ("clique-8", "skewed"): (
        ("b708902c9c70d986", "17600eaf44bdd84b"),
        "513db42216b9d6b3",
        200,
    ),
    ("clique-8", "paper"): (
        ("b708902c9c70d986", "17600eaf44bdd84b"),
        "513db42216b9d6b3",
        200,
    ),
    ("clique-8", "flat"): (
        ("b708902c9c70d986", "17600eaf44bdd84b"),
        "513db42216b9d6b3",
        200,
    ),
    ("near-empty-k3", "skewed"): (
        ("3ea22690df51f8f9", "e7520ed371388d7f"),
        "d5e969ec6e56f304",
        160,
    ),
    ("near-empty-k3", "paper"): (
        ("f0d434af8316761f", "3eefe15cf7932332"),
        "e0058bbb4e08b5dc",
        160,
    ),
    ("near-empty-k3", "flat"): (
        ("b708902c9c70d986", "17600eaf44bdd84b"),
        "12403aa05efa8367",
        200,
    ),
}


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> tuple[Graph, int]:
    return FAMILIES[name]()


def run_chain(family: str, theta_name: str, backend: str, place=None):
    """Run one cell's chain; return its sampler (a view when ``place`` is
    set) and σ checkpoints.  With ``place`` the cell is that chain of a
    three-chain ensemble whose other chains run the other θs on other
    seeds, which must not move a bit of it."""
    graph, k = family_graph(family)
    if place is None:
        sampler = PermutationSampler(graph, k, THETAS[theta_name], backend=backend)
        runner, rngs = sampler, np.random.default_rng(SEED)
    else:
        others = [name for name in sorted(THETAS) if name != theta_name]
        names = others[:place] + [theta_name] + others[place:]
        runner = MultiChainSampler(
            graph, k, [THETAS[name] for name in names], backend=backend
        )
        rngs = [np.random.default_rng(SEED + s - place) for s in range(len(names))]
        sampler = runner.chain(place)
    trace = []
    for n_steps in RUN_LENGTHS:
        runner.run(n_steps, rngs)
        trace.append(sampler.sigma.copy())
    return sampler, trace


class TestGoldenTrajectories:
    """Every engine reproduces the PR 4 full-scan kernels bit for bit."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("theta_name", sorted(THETAS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cell_matches_golden(self, family, theta_name, place, backend):
        sigma_digests, hist_digest, accepted = GOLDENS[(family, theta_name)]
        sampler, trace = run_chain(family, theta_name, backend, place)
        for checkpoint, (sigma, want) in enumerate(zip(trace, sigma_digests)):
            assert digest(sigma) == want, (
                f"sigma diverges from the pre-delta-scan kernels at "
                f"checkpoint {checkpoint}"
            )
        assert digest(sampler.histogram()) == hist_digest
        assert sampler.accepted == accepted
        assert sampler.proposed == sum(RUN_LENGTHS)

    def test_goldens_cover_the_family_matrix(self):
        assert set(GOLDENS) == {
            (family, theta) for family in FAMILIES for theta in THETAS
        }


class TestScoreTouches:
    """The delta scan's work counter: small, and engine/place invariant."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("place", PLACES)
    def test_touches_invariant_across_engines(self, backend, place):
        reference, _ = run_chain("skg-naive-k7", "paper", "numpy")
        sampler, _ = run_chain("skg-naive-k7", "paper", backend, place)
        assert sampler.score_touches == reference.score_touches > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_touches_beat_the_full_scan(self, backend):
        """The point of the rewrite: the old kernels read 2·(k+1)² score
        cells per proposal; the delta scan must do far less on sparse
        graphs (the measured ratio on this family is ~19×)."""
        sampler, _ = run_chain("skg-naive-k7", "paper", backend)
        k = 7
        full_scan_reads = 2 * sampler.proposed * (k + 1) ** 2
        assert 0 < sampler.score_touches < full_scan_reads // 8

    def test_touches_accumulate_across_runs(self):
        graph, k = family_graph("skg-naive-k5")
        sampler = PermutationSampler(graph, k, THETAS["paper"], backend="numpy")
        rng = np.random.default_rng(1)
        sampler.run(40, rng)
        first = sampler.score_touches
        sampler.run(40, rng)
        assert sampler.score_touches > first > 0
