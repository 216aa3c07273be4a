"""Equivalence harness for the Metropolis chain kernel and its oracle.

KronFit's gradient estimates ride on the permutation chain of
:class:`repro.kronecker.likelihood.PermutationSampler`, so the
compiled-C multichain kernel of :mod:`repro.native.chain`, run at S=1,
must produce **bit-identical** σ trajectories, profile histograms, and
acceptance counts to its numpy oracle
(:class:`repro.reference.chain.ReferenceMultiChainSampler`) for every
graph family × θ cell × split of the run into ``run`` calls.  This module is that
matrix (PR 3's counting-equivalence pattern, now for chains), plus the
contracts around it:

* the draw contract — proposals are pre-drawn ``(i, j, log u)`` streams
  with ``i == j`` collisions resampled away, so ``proposed`` counts real
  proposals and stream consumption is engine-independent;
* the histogram contract — the incrementally maintained histogram always
  bit-matches an ``edge_profiles`` recompute;
* KronFit end-to-end — whole fits are bit-identical across engines.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.errors import KernelUnavailableError, ValidationError
from repro.graphs import Graph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.graphs.operations import pad_to_power_of_two
from repro.kronecker.initiator import Initiator
from repro.kronecker.likelihood import PermutationSampler, edge_profiles, profile_histogram
from repro.kronecker.sampling import sample_skg
from repro.native import chain as native_chain
from repro.native.chain import MULTICHAIN_KERNEL

from chain_engines import BACKENDS, kronfit, solo


CALL_LENGTHS = (None, 1, 17)  # one run() per checkpoint, one proposal per run(), ragged

# Graph families of the matrix: every PermutationSampler graph must have
# exactly 2^k nodes.  Builders are memoized so the full matrix reuses one
# graph per family.
FAMILIES = {
    "skg-k5": lambda: (sample_skg(Initiator(0.9, 0.5, 0.2), 5, seed=3), 5),
    "skg-k7": lambda: (sample_skg(Initiator(0.99, 0.45, 0.25), 7, seed=7), 7),
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

RUN_LENGTHS = (120, 80)  # two run() calls: a checkpointed trajectory
SEED = 20120330


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> tuple[Graph, int]:
    return FAMILIES[name]()


def run_in_calls(sampler, n_steps: int, rngs, call_length) -> None:
    """Run ``n_steps`` proposals as ``run`` calls of at most ``call_length``
    (one call when ``None``).  Each call draws its own proposal block, so
    the trajectory depends on the split, but no engine's may differ from
    the numpy engine's on the same split: a chain's σ, histogram and
    tallies carry across calls, and the kernel's per-call scratch does not."""
    step = n_steps if call_length is None else call_length
    for begin in range(0, n_steps, max(step, 1)):
        sampler.run(min(step, n_steps - begin), rngs)


def run_chain(family: str, theta_name: str, backend: str, call_length=None):
    """Run the two-checkpoint chain of one matrix cell; return its trace."""
    graph, k = family_graph(family)
    sampler = solo(backend, graph, k, THETAS[theta_name])
    rng = np.random.default_rng(SEED)
    trace = []
    for n_steps in RUN_LENGTHS:
        run_in_calls(sampler, n_steps, rng, call_length)
        trace.append(sampler.sigma.copy())
    return {
        "trace": trace,
        "histogram": sampler.histogram(),
        "accepted": sampler.accepted,
        "proposed": sampler.proposed,
        "sampler": sampler,
    }


@functools.lru_cache(maxsize=None)
def reference_cell(family: str, theta_name: str, call_length=None):
    """The numpy oracle of one (family, θ) pair, run in the same calls."""
    return run_chain(family, theta_name, "numpy", call_length)


class TestChainMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("call_length", CALL_LENGTHS)
    @pytest.mark.parametrize("theta_name", sorted(THETAS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cell_bit_identical(self, family, theta_name, call_length, backend):
        expected = reference_cell(family, theta_name, call_length)
        cell = run_chain(family, theta_name, backend, call_length)
        for step, (got, want) in enumerate(zip(cell["trace"], expected["trace"])):
            np.testing.assert_array_equal(
                got, want, err_msg=f"sigma diverges at checkpoint {step}"
            )
        np.testing.assert_array_equal(cell["histogram"], expected["histogram"])
        assert cell["accepted"] == expected["accepted"]
        assert cell["proposed"] == expected["proposed"] == sum(RUN_LENGTHS)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_incremental_histogram_matches_recompute(self, family, backend):
        """The histogram contract: incremental == edge_profiles recompute."""
        cell = run_chain(family, "skewed", backend)
        sampler = cell["sampler"]
        graph, k = family_graph(family)
        z, x, o = edge_profiles(graph, sampler.sigma, k)
        np.testing.assert_array_equal(
            sampler.histogram(), profile_histogram(z, x, o, k)
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sigma_stays_a_permutation(self, backend):
        cell = run_chain("skg-k5", "paper", backend)
        assert sorted(cell["sampler"].sigma.tolist()) == list(range(32))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_theta_update_preserves_equivalence(self, backend):
        """Chains stay identical across set_theta (the KronFit inner loop)."""
        graph, k = family_graph("skg-k5")
        sampler = solo(backend, graph, k, THETAS["skewed"])
        reference = solo("numpy", graph, k, THETAS["skewed"])
        rng = np.random.default_rng(5)
        reference_rng = np.random.default_rng(5)
        for theta in (THETAS["paper"], THETAS["flat"]):
            sampler.run(60, rng)
            reference.run(60, reference_rng)
            sampler.set_theta(theta)
            reference.set_theta(theta)
        np.testing.assert_array_equal(sampler.sigma, reference.sigma)
        np.testing.assert_array_equal(sampler.histogram(), reference.histogram())
        assert sampler.accepted == reference.accepted


class TestDrawContract:
    def test_no_self_swaps(self):
        rng = np.random.default_rng(0)
        i_nodes, j_nodes, log_u = native_chain.draw_proposal_batch(rng, 4, 5000)
        assert not np.any(i_nodes == j_nodes)
        assert log_u.shape == (5000,)
        assert np.all(log_u <= 0.0)

    def test_deterministic_given_seed(self):
        first = native_chain.draw_proposal_batch(np.random.default_rng(7), 32, 100)
        second = native_chain.draw_proposal_batch(np.random.default_rng(7), 32, 100)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_two_node_graphs_always_propose_the_swap(self):
        """With n=2 every collision resamples to the single distinct pair."""
        rng = np.random.default_rng(1)
        i_nodes, j_nodes, _ = native_chain.draw_proposal_batch(rng, 2, 200)
        assert np.all(i_nodes != j_nodes)
        assert set(np.unique(np.stack([i_nodes, j_nodes]))) == {0, 1}

    def test_single_node_rejected(self):
        with pytest.raises(ValidationError):
            native_chain.draw_proposal_batch(np.random.default_rng(0), 1, 10)

    def test_marginals_are_uniform_over_distinct_pairs(self):
        rng = np.random.default_rng(2)
        i_nodes, j_nodes, _ = native_chain.draw_proposal_batch(rng, 4, 12000)
        pairs = i_nodes * 4 + j_nodes
        counts = np.bincount(pairs, minlength=16).reshape(4, 4)
        assert np.all(np.diag(counts) == 0)
        off_diagonal = counts[~np.eye(4, dtype=bool)]
        assert off_diagonal.min() > 0.8 * off_diagonal.mean()


class TestChainBackendSelection:
    """The chain has one runtime engine: without it, a sampler is refused."""

    def test_unavailable_cext_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(MULTICHAIN_KERNEL, "state", (None, "no C compiler found"))
        graph, k = family_graph("skg-k5")
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            PermutationSampler(graph, k, THETAS["paper"])


class TestKronFitAcrossBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fit_bit_identical(self, backend):
        """Whole KronFit runs agree exactly: the chain is the only
        stochastic component, and its engines are bit-identical."""
        graph = sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=1)
        config = dict(
            n_iterations=4,
            warmup_swaps=60,
            n_permutation_samples=2,
            sample_spacing=25,
            seed=3,
        )
        reference = kronfit("numpy", **config).fit(graph)
        result = kronfit(backend, **config).fit(graph)
        assert result.initiator == reference.initiator
        assert result.log_likelihoods == reference.log_likelihoods
        assert result.acceptance_rate == reference.acceptance_rate
        assert result.trajectory == reference.trajectory


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def _streams(n_chains: int, length: int) -> tuple[np.ndarray, ...]:
    return tuple(
        np.empty((n_chains, length), dtype=dtype)
        for dtype in (np.int64, np.int64, np.float64)
    )


class TestNativeDrawContract:
    """The kernel's draw (through each generator's ``bitgen_t``,
    then one bulk ``log``) is ``draw_proposal_batch`` array for array,
    and leaves every generator where the numpy draw leaves it."""

    @pytest.mark.parametrize("size", (1, 7, 200, 2_000))
    @pytest.mark.parametrize("n_nodes", (2, 3, 5, 6_474, 8_192, 2**31 - 1))
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_matches_draw_proposal_batch(self, bit_generator, n_nodes, size):
        rng = np.random.Generator(bit_generator(17))
        twin = np.random.Generator(bit_generator(17))
        streams = _streams(1, size)
        native_chain.bind_proposal_draw(
            MULTICHAIN_KERNEL.kernel(),
            [rng],
            n_nodes,
            np.array([size], dtype=np.int64),
            *streams,
        )()
        for got, want in zip(streams, native_chain.draw_proposal_batch(twin, n_nodes, size)):
            np.testing.assert_array_equal(got[0], want)
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_segments_at_odd_offsets_of_a_shared_buffer(self, bit_generator):
        """Three chains (0 and 2 sharing a generator) over segments that
        start at odd offsets: the rows equal ``draw_proposal_batch`` per
        segment, chain by chain in chain order."""
        ends = np.array([7, 207, 208, 1_209], dtype=np.int64)
        shared = np.random.Generator(bit_generator(3))
        rngs = [shared, np.random.Generator(bit_generator(4)), shared]
        twin = np.random.Generator(bit_generator(3))
        twins = [twin, np.random.Generator(bit_generator(4)), twin]
        streams = _streams(3, int(ends[-1]))
        native_chain.bind_proposal_draw(
            MULTICHAIN_KERNEL.kernel(), rngs, 5, ends, *streams
        )()
        begin = 0
        for end in ends.tolist():
            for s, rng in enumerate(twins):
                want = native_chain.draw_proposal_batch(rng, 5, end - begin)
                for got, expected in zip(streams, want):
                    np.testing.assert_array_equal(got[s, begin:end], expected)
            begin = end
        for rng, twin_rng in zip(rngs, twins):
            np.testing.assert_equal(rng.bit_generator.state, twin_rng.bit_generator.state)

    def test_node_counts_outside_the_32_bit_draw_rejected(self):
        kernel = MULTICHAIN_KERNEL.kernel()
        ends = np.array([4], dtype=np.int64)
        with pytest.raises(ValidationError):
            native_chain.bind_proposal_draw(
                kernel, [np.random.default_rng(0)], 1, ends, *_streams(1, 4)
            )()
        with pytest.raises(RuntimeError, match="status -1"):
            native_chain.bind_proposal_draw(
                kernel, [np.random.default_rng(0)], 2**32, ends, *_streams(1, 4)
            )()

    def test_smoke_test_catches_a_misdirected_draw(self):
        """A kernel that draws through the wrong ``bitgen_t`` fails the
        probe's smoke test, which makes the kernel unavailable instead of
        letting it corrupt chains."""
        kernel = MULTICHAIN_KERNEL.kernel()
        # Keep the generator alive: its bitgen_t is freed with it.
        stranger_rng = np.random.default_rng(99)
        stranger = native_chain.bitgen_pointers([stranger_rng])

        def misdirected(*args):
            if args[0] == native_chain._DRAW:
                args = list(args)
                strangers = np.repeat(stranger, args[3])  # one per chain
                args[18] = strangers.ctypes.data  # bitgens
            return kernel(*args)

        with pytest.raises(RuntimeError, match="draw self-check"):
            native_chain._multichain_smoke_test(misdirected)
