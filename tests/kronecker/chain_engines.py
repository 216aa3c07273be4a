"""The two chain engines the chain suites compare, by their old names.

``cext`` is the runtime :class:`MultiChainSampler`; ``numpy`` is its
oracle, :class:`~repro.reference.chain.ReferenceMultiChainSampler`, which
runs every chain contract in numpy.
"""

from __future__ import annotations

import numpy as np

from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import MultiChainSampler
from repro.native.chain import draw_proposal_batch
from repro.reference.chain import ReferenceKronFitEstimator, ReferenceMultiChainSampler

ENGINES = {"numpy": ReferenceMultiChainSampler, "cext": MultiChainSampler}
FITTERS = {"numpy": ReferenceKronFitEstimator, "cext": KronFitEstimator}
BACKENDS = tuple(ENGINES)


def multichain(backend, graph, k, thetas, sigmas=None, threads=None):
    """A ``backend`` sampler of ``thetas``' chains."""
    return ENGINES[backend](graph, k, thetas, sigmas=sigmas, threads=threads)


def solo(backend, graph, k, theta, sigma=None):
    """A one-chain ``backend`` sampler's :class:`PermutationSampler` view."""
    sigmas = None if sigma is None else [sigma]
    return multichain(backend, graph, k, [theta], sigmas, threads=1).chain(0)


def kronfit(backend, **params):
    """A KronFit estimator whose chains run on ``backend``."""
    return FITTERS[backend](**params)


def cancelling_rng(n_nodes: int, pair=(0, 1)):
    """A generator whose first proposal on ``n_nodes`` swaps ``pair``."""
    for seed in range(10_000):
        i, j, _ = draw_proposal_batch(np.random.default_rng(seed), n_nodes, 1)
        if {int(i[0]), int(j[0])} == set(pair):
            return np.random.default_rng(seed)
    raise AssertionError("no seed proposes the pair")
