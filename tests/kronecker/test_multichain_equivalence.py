"""Equivalence matrix for the batched multi-chain Metropolis kernel.

PR 10's :class:`repro.kronecker.likelihood.MultiChainSampler` advances S
independent permutation chains — each with its own θ, σ, histogram, and
pre-drawn proposal stream — in **one** native call.  The contract is
per-chain bit-identity: every chain of a batched run must reproduce the
solo :class:`PermutationSampler` trajectory it replaces exactly (σ
checkpoints, profile histogram, acceptance and proposal counts), for
the kernel and its numpy oracle × chain count × split into ``run``
calls × θ assignment,
on the same graph families the solo matrix pins
(``test_chain_equivalence.py``).  On top of the matrix:

* thread invariance — ``kernel_threads`` shards data-independent chains,
  so results are bit-identical for any thread count;
* KronFit end-to-end — a multi-start fit on the fused engine selects
  the same winner, with bit-identical per-start results, as the numpy
  reference engine, and its start 0 is the single-start fit seeded with
  start 0's ``SeedSequence`` child;
* the multi-word touched-cell bitmap — at k=9 the 100 profile cells
  straddle two 64-bit words (k=8 is the smallest order whose bitmap
  has two words, but its highest reachable cell, (k−1)(k+1) = 63, is
  in the first), and at k=13 (196 cells, four words) hubs of degree
  > 64 make hundreds of cell events per proposal.  Both families
  run in the matrix, and are also pinned in ``score_touches`` across
  thread counts and on knife-edge streams whose thresholds sit exactly
  on the reference delta, so a word-indexing or walk-order slip that
  moves one float addition flips an accept decision.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.errors import KernelUnavailableError, ValidationError
from repro.graphs import Graph
from repro.graphs.generators import star_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import (
    MultiChainSampler,
    _LogTables,
    edge_profiles,
    profile_histogram,
)
from repro.kronecker.sampling import sample_skg
from repro.native import chain as native_chain
from repro.native.registry import resolve_kernel_threads
from repro.reference.chain import ReferenceMultiChainSampler

from chain_engines import BACKENDS, kronfit, multichain, solo
CALL_LENGTHS = (None, 1, 17)  # one run() per checkpoint, one proposal per run(), ragged
CHAIN_COUNTS = (1, 3, 5)  # S=1 degenerate, exact θ cover, θ reuse

# The θ cycle chains are assigned from (chain s gets THETA_CYCLE[s % 3]),
# the same three cells the solo matrix pins.
THETA_CYCLE = (
    Initiator(0.9, 0.5, 0.2),  # skewed
    Initiator(0.99, 0.45, 0.25),  # paper
    Initiator(0.6, 0.6, 0.6),  # flat
)


def hub_graph(k: int, n_hubs: int, hub_degree: int, seed: int) -> Graph:
    """``2^k`` nodes: a sparse random background (mean degree ~6) plus
    ``n_hubs`` star centres joined to ``hub_degree`` random nodes each."""
    n = 2**k
    rng = np.random.default_rng(seed)
    hubs = rng.choice(n, size=n_hubs, replace=False)
    u = np.concatenate([rng.integers(0, n, 3 * n), np.repeat(hubs, hub_degree)])
    v = np.concatenate(
        [rng.integers(0, n, 3 * n), rng.integers(0, n, n_hubs * hub_degree)]
    )
    return Graph.from_edge_arrays(n, u, v)


FAMILIES = {
    "skg-k5": lambda: (sample_skg(Initiator(0.9, 0.5, 0.2), 5, seed=3), 5),
    "star-16": lambda: (star_graph(16), 4),
    "near-empty-k3": lambda: (Graph(8, [(0, 1)]), 3),
    # Multi-word touched-cell bitmaps: (k+1)² = 100 and 196 cells.
    "skg-k9": lambda: (sample_skg(Initiator(0.99, 0.45, 0.25), 9, seed=8), 9),
    "hubs-k13": lambda: (hub_graph(13, 512, 80, seed=13), 13),
}
MULTI_WORD_FAMILIES = ("skg-k9", "hubs-k13")

RUN_LENGTHS = (120, 80)  # two run() calls: a checkpointed trajectory
SEED = 20120330


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> tuple[Graph, int]:
    return FAMILIES[name]()


def run_in_calls(sampler, n_steps: int, rngs, call_length) -> None:
    """Run ``n_steps`` proposals as ``run`` calls of at most ``call_length``
    (one call when ``None``).  Each call draws its own proposal block, so
    a split run is compared with a solo run split the same way."""
    step = n_steps if call_length is None else call_length
    for begin in range(0, n_steps, max(step, 1)):
        sampler.run(min(step, n_steps - begin), rngs)


@functools.lru_cache(maxsize=None)
def solo_cell(family: str, chain_index: int, call_length=None):
    """The solo numpy trajectory chain ``chain_index`` must reproduce."""
    graph, k = family_graph(family)
    theta = THETA_CYCLE[chain_index % len(THETA_CYCLE)]
    sampler = solo("numpy", graph, k, theta)
    rng = np.random.default_rng(SEED + chain_index)
    trace = []
    for n_steps in RUN_LENGTHS:
        run_in_calls(sampler, n_steps, rng, call_length)
        trace.append(sampler.sigma.copy())
    return {
        "trace": trace,
        "histogram": sampler.histogram(),
        "accepted": sampler.accepted,
        "proposed": sampler.proposed,
    }


def run_multichain(
    family: str, backend: str, n_chains: int, threads: int = 1, call_length=None
):
    """One batched run; returns per-chain traces alongside the sampler."""
    graph, k = family_graph(family)
    thetas = [THETA_CYCLE[s % len(THETA_CYCLE)] for s in range(n_chains)]
    sampler = multichain(backend, graph, k, thetas, threads=threads)
    rngs = [np.random.default_rng(SEED + s) for s in range(n_chains)]
    traces = [[] for _ in range(n_chains)]
    for n_steps in RUN_LENGTHS:
        run_in_calls(sampler, n_steps, rngs, call_length)
        for s in range(n_chains):
            traces[s].append(sampler.chain(s).sigma.copy())
    return sampler, traces


class TestMultiChainMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("call_length", CALL_LENGTHS)
    @pytest.mark.parametrize("n_chains", CHAIN_COUNTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_chain_matches_its_solo_trajectory(
        self, family, n_chains, call_length, backend
    ):
        sampler, traces = run_multichain(
            family, backend, n_chains, call_length=call_length
        )
        for s in range(n_chains):
            expected = solo_cell(family, s, call_length)
            chain = sampler.chain(s)
            for step, (got, want) in enumerate(zip(traces[s], expected["trace"])):
                np.testing.assert_array_equal(
                    got,
                    want,
                    err_msg=f"chain {s} sigma diverges at checkpoint {step}",
                )
            np.testing.assert_array_equal(chain.histogram(), expected["histogram"])
            assert chain.accepted == expected["accepted"]
            assert chain.proposed == expected["proposed"] == sum(RUN_LENGTHS)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_histograms_stack_and_match_recomputes(self, backend):
        sampler, _ = run_multichain("skg-k5", backend, 3)
        graph, k = family_graph("skg-k5")
        stacked = sampler.histograms()
        assert stacked.shape == (3, k + 1, k + 1)
        for s in range(3):
            chain = sampler.chain(s)
            z, x, o = edge_profiles(graph, chain.sigma, k)
            np.testing.assert_array_equal(stacked[s], profile_histogram(z, x, o, k))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_thread_count_is_bit_invariant(self, backend):
        """Chains are data-independent: sharding them across any number
        of kernel threads cannot change a single bit."""
        serial, serial_traces = run_multichain("skg-k5", backend, 5, threads=1)
        threaded, threaded_traces = run_multichain(
            "skg-k5", backend, 5, threads=4
        )
        for s in range(5):
            for got, want in zip(threaded_traces[s], serial_traces[s]):
                np.testing.assert_array_equal(got, want)
            assert threaded.chain(s).accepted == serial.chain(s).accepted
        np.testing.assert_array_equal(threaded.histograms(), serial.histograms())

    @pytest.mark.parametrize("via", ["ensemble", "view"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_set_theta_preserves_equivalence(self, backend, via):
        """Chains stay identical across per-chain set_theta (the batched
        KronFit inner loop re-points every chain at its new θ) and
        set_sigma, whether written through the ensemble or through a
        chain view — a view's setters write the rows the kernel reads."""
        graph, k = family_graph("skg-k5")
        sampler = multichain(backend, graph, k, [THETA_CYCLE[0], THETA_CYCLE[1]])
        solos = [solo("numpy", graph, k, THETA_CYCLE[s]) for s in range(2)]

        def set_theta(s, theta):
            if via == "view":
                sampler.chain(s).set_theta(theta)
            else:
                sampler.set_theta(s, theta)
            solos[s].set_theta(theta)

        def set_sigma(s, sigma):
            if via == "view":
                sampler.chain(s).set_sigma(sigma)
            else:
                sampler.set_sigma(s, sigma)
            solos[s].set_sigma(sigma)

        rngs = [np.random.default_rng(40 + s) for s in range(2)]
        solo_rngs = [np.random.default_rng(40 + s) for s in range(2)]
        for theta in (THETA_CYCLE[2], THETA_CYCLE[0]):
            sampler.run(60, rngs)
            for s in range(2):
                solos[s].run(60, solo_rngs[s])
                set_theta(s, theta)
        for s in range(2):
            set_sigma(s, np.random.default_rng(90 + s).permutation(graph.n_nodes))
        sampler.run(60, rngs)
        for s in range(2):
            solos[s].run(60, solo_rngs[s])
        for s in range(2):
            np.testing.assert_array_equal(sampler.chain(s).sigma, solos[s].sigma)
            np.testing.assert_array_equal(
                sampler.chain(s).histogram(), solos[s].histogram()
            )
            assert sampler.chain(s).accepted == solos[s].accepted


def knife_edge_streams(family: str, n_chains: int, n_steps: int):
    """Per-chain proposal streams whose thresholds sit on the numpy delta.

    Every other proposal moves a node of maximum degree.  Proposal ``t``'s
    threshold is the numpy engine's exact delta (even ``t``: a negative
    delta is rejected) or the next double below it (odd ``t``: accepted),
    so an engine whose delta differs by one ulp flips a decision.  Returns
    the streams and the numpy ensemble that ran them one proposal at a
    time.  Needs the oracle's ``draw_proposal_batch`` patched to hand a
    stream through.
    """
    graph, k = family_graph(family)
    thetas = [THETA_CYCLE[s % len(THETA_CYCLE)] for s in range(n_chains)]
    reference = ReferenceMultiChainSampler(graph, k, thetas)
    hubs = np.flatnonzero(graph.degrees == graph.degrees.max())
    streams = []
    for s in range(n_chains):
        rng = np.random.default_rng(SEED + s)
        i_nodes, j_nodes, _ = native_chain.draw_proposal_batch(
            rng, graph.n_nodes, n_steps
        )
        i_nodes[::2] = rng.choice(hubs, size=i_nodes[::2].size)
        same = i_nodes == j_nodes
        j_nodes[same] = (i_nodes[same] + 1) % graph.n_nodes
        streams.append((i_nodes, j_nodes, np.empty(n_steps)))
    for t in range(n_steps):
        for s, (i_nodes, j_nodes, log_u) in enumerate(streams):
            delta = reference.swap_delta(s, int(i_nodes[t]), int(j_nodes[t]))
            log_u[t] = delta if t % 2 == 0 else np.nextafter(delta, -np.inf)
        reference.run(1, [tuple(a[t : t + 1] for a in stream) for stream in streams])
    return streams, reference


@functools.lru_cache(maxsize=None)
def numpy_ensemble(family: str, call_length=None) -> MultiChainSampler:
    """The three-chain numpy run the multi-word cells are compared with."""
    return run_multichain(family, "numpy", 3, call_length=call_length)[0]


class TestMultiWordBitmap:
    """Families whose profile cells span several bitmap words."""

    @pytest.mark.parametrize("family", MULTI_WORD_FAMILIES)
    def test_families_exercise_several_words(self, family):
        """The matrix's first-run proposals touch cells past word 0."""
        graph, k = family_graph(family)
        sampler = ReferenceMultiChainSampler(graph, k, [THETA_CYCLE[0]])
        i_nodes, j_nodes, _ = native_chain.draw_proposal_batch(
            np.random.default_rng(SEED), graph.n_nodes, RUN_LENGTHS[0]
        )
        beyond = 0
        for i, j in zip(i_nodes, j_nodes):
            _, touched = sampler._count_delta(sampler._sigma[0], i, j)
            beyond += bool((touched >= 64).any())
        assert beyond >= 5
        if family == "hubs-k13":
            assert graph.degrees.max() > 64

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("call_length", CALL_LENGTHS)
    @pytest.mark.parametrize("family", MULTI_WORD_FAMILIES)
    def test_touches_match_numpy(self, family, call_length, threads, backend):
        reference = numpy_ensemble(family, call_length)
        sampler, _ = run_multichain(family, backend, 3, threads, call_length)
        np.testing.assert_array_equal(sampler._sigma, reference._sigma)
        np.testing.assert_array_equal(sampler.histograms(), reference.histograms())
        assert sampler.accepted == reference.accepted
        assert [sampler.chain(s).score_touches for s in range(3)] == [
            reference.chain(s).score_touches for s in range(3)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("family", MULTI_WORD_FAMILIES)
    def test_knife_edge_thresholds(self, family, backend, monkeypatch):
        """One kernel call over streams built to flip on any one-ulp
        change in any proposal's delta reproduces the numpy run.  The
        streams stand in for the generators: the oracle's draw hands each
        through, and the kernel's draw copies them into its buffers."""

        def stream_draw(kernel, streams, n_nodes, ends, *buffers):
            def draw():
                for buffer, column in zip(buffers, zip(*streams)):
                    buffer[:] = column
            return draw

        monkeypatch.setattr(
            "repro.reference.chain.draw_proposal_batch",
            lambda stream, n_nodes, size: stream,
        )
        monkeypatch.setattr("repro.kronecker.likelihood.bind_proposal_draw", stream_draw)
        streams, reference = knife_edge_streams(family, 3, 160)
        graph, k = family_graph(family)
        thetas = [THETA_CYCLE[s % len(THETA_CYCLE)] for s in range(3)]
        sampler = multichain(backend, graph, k, thetas, threads=2)
        sampler.run(160, streams)
        np.testing.assert_array_equal(sampler._sigma, reference._sigma)
        np.testing.assert_array_equal(sampler.histograms(), reference.histograms())
        assert sampler.accepted == reference.accepted
        assert 0 < min(reference.accepted) and max(reference.accepted) < 160
        assert [sampler.chain(s).score_touches for s in range(3)] == [
            reference.chain(s).score_touches for s in range(3)
        ]


class TestKernelThreadsKnob:
    def test_resolution_order(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        assert resolve_kernel_threads() == 1
        assert resolve_kernel_threads(3) == 3
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "2")
        assert resolve_kernel_threads() == 2
        assert resolve_kernel_threads(5) == 5

    def test_zero_means_all_usable_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        assert resolve_kernel_threads(0) >= 1

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError):
            resolve_kernel_threads("two")
        with pytest.raises(ValidationError):
            resolve_kernel_threads(True)
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "soon")
        with pytest.raises(ValidationError, match="REPRO_KERNEL_THREADS"):
            resolve_kernel_threads()


class TestMultiChainBackendSelection:
    """The ensemble has one runtime engine: without it, the loader and
    the sampler both raise the structured error."""

    def test_unavailable_cext_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(
            native_chain.MULTICHAIN_KERNEL, "state", (None, "no C compiler found")
        )
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            native_chain.resolve_multichain_backend()
        graph, k = family_graph("skg-k5")
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            MultiChainSampler(graph, k, [THETA_CYCLE[0]])


class TestMultiChainValidation:
    def test_empty_thetas_rejected(self):
        graph, k = family_graph("skg-k5")
        with pytest.raises(ValidationError):
            MultiChainSampler(graph, k, [])

    def test_sigma_count_mismatch_rejected(self):
        graph, k = family_graph("skg-k5")
        sigma = np.arange(graph.n_nodes)
        with pytest.raises(ValidationError):
            MultiChainSampler(graph, k, [THETA_CYCLE[0]] * 2, sigmas=[sigma])

    def test_rng_count_mismatch_rejected(self):
        graph, k = family_graph("skg-k5")
        sampler = MultiChainSampler(graph, k, [THETA_CYCLE[0]] * 2)
        with pytest.raises(ValidationError):
            sampler.run(10, [np.random.default_rng(0)])

    def test_view_of_multi_chain_ensemble_cannot_advance_alone(self):
        """Chains advance in lockstep, so only the ensemble runs them."""
        graph, k = family_graph("skg-k5")
        sampler = MultiChainSampler(graph, k, [THETA_CYCLE[0]] * 2)
        view = sampler.chain(1)
        with pytest.raises(ValidationError, match="MultiChainSampler.run"):
            view.run(10, np.random.default_rng(0))
        assert sampler.proposed == view.proposed == 0

    def test_order_beyond_the_bitmap_rejected(self):
        with pytest.raises(ValidationError, match="bitmap"):
            MultiChainSampler(Graph(2, [(0, 1)]), 64, [THETA_CYCLE[0]])

    def test_tables_follow_set_theta(self):
        graph, k = family_graph("skg-k5")
        sampler = MultiChainSampler(graph, k, list(THETA_CYCLE))
        sampler.set_theta(1, THETA_CYCLE[2])
        sampler.chain(2).set_theta(THETA_CYCLE[0])
        assert sampler.thetas == [THETA_CYCLE[0], THETA_CYCLE[2], THETA_CYCLE[0]]
        for s, theta in enumerate(sampler.thetas):
            assert sampler.chain(s).theta == theta
            expected = _LogTables.stack([theta], k)
            for field in ("log_p", "log_1mp", "p"):
                np.testing.assert_array_equal(
                    getattr(sampler.tables[s], field), getattr(expected, field)[0]
                )


class TestKronFitBatchedMultiStart:
    CONFIG = dict(
        n_iterations=3,
        warmup_swaps=60,
        n_permutation_samples=2,
        sample_spacing=25,
        n_starts=4,
        seed=11,
    )

    @functools.lru_cache(maxsize=None)
    def _graph(self):
        return sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=1)

    def test_options_validated(self):
        for bad in ("two", 1.5, True):
            with pytest.raises(ValidationError):
                KronFitEstimator(kernel_threads=bad)
        # One strategy, in-process: the fan-out-era options are gone.
        for retired in ("multi_start", "n_jobs"):
            with pytest.raises(TypeError, match=retired):
                KronFitEstimator(**{retired: 1})

    def _reference(self):
        """The numpy-engine multi-start fit every engine must reproduce."""
        return kronfit("numpy", **self.CONFIG).fit(self._graph())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_start_matches_numpy_engine(self, backend):
        """The batched native call must select the same winner, with
        bit-identical per-start results, as the reference engine."""
        reference = self._reference()
        result = kronfit(backend, **self.CONFIG).fit(self._graph())
        assert result.start == reference.start
        assert result.n_starts == reference.n_starts == 4
        assert result.start_log_likelihoods == reference.start_log_likelihoods
        assert result.initiator == reference.initiator
        assert result.log_likelihoods == reference.log_likelihoods
        assert result.trajectory == reference.trajectory
        assert result.acceptance_rate == reference.acceptance_rate

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_start_zero_is_the_seeded_single_start_fit(self, backend):
        """Chain 0 of a batched fit is bit-identical to the solo fit it
        would be on its own: degree-matched σ, start 0's seed child."""
        config = {**self.CONFIG, "n_starts": 1}
        child = np.random.SeedSequence(config.pop("seed")).spawn(4)[0]
        alone = kronfit(backend, seed=child, **config).fit(self._graph())
        assert alone.log_likelihoods[-1] == self._reference().start_log_likelihoods[0]

    def test_nonpositive_kernel_threads_mean_all_cores(self, monkeypatch):
        """KronFit takes every value the REPRO_KERNEL_THREADS knob takes:
        one at or below 0 means all usable cores, whether it comes from
        the knob through a scenario spec or from the argument."""
        from repro.core.protocols import build_estimator
        from repro.evaluation.experiments import default_config
        from repro.scenarios.presets import estimator_axis

        monkeypatch.setenv("REPRO_KERNEL_THREADS", "-1")
        spec = estimator_axis("KronFit", default_config(), n_starts=2)
        assert dict(spec.params)["kernel_threads"] == -1
        build_estimator(spec.method, spec.params)  # refused -1 before
        serial = KronFitEstimator(kernel_threads=1, **self.CONFIG).fit(self._graph())
        for threads in (0, -1):
            result = KronFitEstimator(kernel_threads=threads, **self.CONFIG).fit(
                self._graph()
            )
            assert result.start_log_likelihoods == serial.start_log_likelihoods

    def test_kernel_threads_do_not_change_the_fit(self):
        graph = self._graph()
        serial = KronFitEstimator(**self.CONFIG).fit(graph)
        threaded = KronFitEstimator(kernel_threads=4, **self.CONFIG).fit(graph)
        assert threaded.start == serial.start
        assert threaded.initiator == serial.initiator
        assert threaded.start_log_likelihoods == serial.start_log_likelihoods

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generator_seed_consumption_matches(self, backend):
        """A multi-start fit consumes exactly one draw from a Generator
        seed on every engine, so downstream code sees the same stream
        position — and the same fit — as under the numpy engine."""
        graph = self._graph()
        config = {**self.CONFIG}
        del config["seed"]
        results = {}
        for engine in ("numpy", backend):
            rng = np.random.default_rng(77)
            result = kronfit(engine, seed=rng, **config).fit(graph)
            results[engine] = (result, rng.integers(0, 2**63 - 1))
        reference, reference_next = results["numpy"]
        result, result_next = results[backend]
        assert result.start == reference.start
        assert result.initiator == reference.initiator
        assert result.start_log_likelihoods == reference.start_log_likelihoods
        one_draw = np.random.default_rng(77)
        one_draw.integers(0, 2**63 - 1)
        assert result_next == reference_next == one_draw.integers(0, 2**63 - 1)
