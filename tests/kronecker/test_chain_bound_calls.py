"""The chain kernel's bound calls and its one-walk delta scan.

The multichain kernel takes raw addresses: every buffer is checked
(dtype, C-contiguity) once, when its address is bound, instead of by an
``ndpointer`` argtype on every call.  Its delta scan walks the touched-cell
bitmap once, listing the nonzero counts that an accepted swap folds into
the histogram.  This module pins what that must not change:

* a wrong-dtype or non-contiguous buffer is refused before any kernel
  call;
* a proposal whose events all cancel has delta +0.0, is accepted, leaves
  the histogram as it was and counts no score-table touch, on the kernel
  and its numpy oracle;
* a sampler whose draw buffers grow between runs (so its bound call is
  rebuilt) runs exactly as fresh samplers do, and a run's snapshots are
  never overwritten by the next run.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.native import chain as native_chain
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import buffer_addresses
from repro.reference.chain import ReferenceMultiChainSampler

from chain_engines import BACKENDS, cancelling_rng, multichain, solo


class TestBufferChecks:
    def test_addresses_of_checked_buffers(self):
        a = np.zeros(3, dtype=np.int64)
        b = np.zeros((2, 2), dtype=np.int64)
        assert buffer_addresses(np.int64, a, b) == [a.ctypes.data, b.ctypes.data]
        assert buffer_addresses(np.int64) == []

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(4, dtype=np.int32),  # wrong dtype
            np.zeros(8, dtype=np.int64)[::2],  # strided
            np.zeros((3, 2), dtype=np.int64).T,  # Fortran order
            [0, 1, 2],  # not an array
        ],
        ids=["int32", "strided", "transposed", "list"],
    )
    def test_wrong_buffers_refused(self, bad):
        with pytest.raises(TypeError, match="C-contiguous int64"):
            buffer_addresses(np.int64, np.zeros(2, dtype=np.int64), bad)

    @pytest.mark.parametrize(
        "slot, bad",
        [
            (0, np.empty((1, 8), dtype=np.int32)),
            (1, np.empty((1, 16), dtype=np.int64)[:, ::2]),
            (2, np.empty((1, 8), dtype=np.float32)),
            (3, np.array([8], dtype=np.int32)),
        ],
        ids=["i-int32", "j-strided", "u-float32", "ends-int32"],
    )
    def test_draw_refuses_a_wrong_buffer_before_calling_the_kernel(self, slot, bad):
        calls = []
        kernel = MULTICHAIN_KERNEL.kernel()

        def spy(*args):
            calls.append(args)
            return kernel(*args)

        buffers = [
            np.empty((1, 8), dtype=np.int64),
            np.empty((1, 8), dtype=np.int64),
            np.empty((1, 8), dtype=np.float64),
            np.array([8], dtype=np.int64),
        ]
        buffers[slot] = bad
        i_all, j_all, u_all, ends = buffers
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError, match="C-contiguous"):
            native_chain.bind_proposal_draw(spy, [rng], 5, ends, i_all, j_all, u_all)()
        assert calls == []
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "n_generators, length, ends",
        [(2, 8, [8]), (1, 8, [4, 9])],
        ids=["generators", "ends"],
    )
    def test_draw_refuses_streams_that_do_not_fit(self, n_generators, length, ends):
        calls = []
        kernel = MULTICHAIN_KERNEL.kernel()
        streams = [
            np.empty((1, length), dtype=dtype) for dtype in (np.int64, np.int64, np.float64)
        ]
        with pytest.raises(ValidationError, match="do not fit"):
            native_chain.bind_proposal_draw(
                lambda *args: calls.append(args) or kernel(*args),
                [np.random.default_rng(s) for s in range(n_generators)],
                5,
                np.array(ends, dtype=np.int64),
                *streams,
            )()
        assert calls == []


class TestCancellingProposal:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_events_cancel(self, backend):
        """Nodes 0 and 1 share their one neighbour, 2: swapping their ids
        moves one edge out of each of two profile cells and one back in,
        so both touched cells end with count 0."""
        graph = Graph(4, [(0, 2), (1, 2)])
        sigma = np.arange(4, dtype=np.int64)
        theta = Initiator(0.9, 0.5, 0.2)
        oracle = ReferenceMultiChainSampler(graph, 2, [theta], sigmas=[sigma])
        counts, touched = oracle._count_delta(oracle._sigma[0], 0, 1)
        assert touched.size == 2 and not counts.any()  # cells touched, all cancel
        delta = oracle.swap_delta(0, 0, 1)
        assert delta == 0.0 and math.copysign(1.0, delta) == 1.0
        sampler = solo(backend, graph, 2, theta, sigma=sigma)
        hist = sampler.histogram()
        sampler.run(1, cancelling_rng(4))
        assert sampler.accepted == 1
        assert sampler.sigma.tolist() == [1, 0, 2, 3]
        np.testing.assert_array_equal(sampler.histogram(), hist)
        assert sampler.score_touches == 0


@functools.lru_cache(maxsize=None)
def _graph():
    return sample_skg(Initiator(0.99, 0.45, 0.25), 7, seed=7), 7


class TestRebindAfterGrowth:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_equal_fresh_samplers(self, backend):
        """Runs of 10, 5,000, 10 and 10 proposals: the 5,000 grows the
        draw buffers, so the bound call must be rebuilt on the new ones.
        Each run must equal the same run on a fresh sampler from the same
        σ, Θ and generator state, and the last two share one layout."""
        graph, k = _graph()
        thetas = [Initiator(0.9, 0.5, 0.2), Initiator(0.6, 0.6, 0.6)]
        sampler = multichain(backend, graph, k, thetas)
        rngs = [np.random.default_rng(31), np.random.default_rng(32)]
        results = []
        layouts = ((10, 2, 3), (5_000, 4, 100), (10, 2, 3), (10, 2, 3))
        for n_steps, n_samples, spacing in layouts:
            fresh = multichain(backend, graph, k, thetas, sigmas=sampler._sigma.copy())
            fresh_rngs = copy.deepcopy(rngs)
            accepted = list(sampler.accepted)
            touches = sampler._stats.copy()
            got = sampler.run(n_steps, rngs, n_samples=n_samples, sample_spacing=spacing)
            want = fresh.run(
                n_steps, fresh_rngs, n_samples=n_samples, sample_spacing=spacing
            )
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(sampler._sigma, fresh._sigma)
            np.testing.assert_array_equal(sampler.histograms(), fresh.histograms())
            assert [a - b for a, b in zip(sampler.accepted, accepted)] == fresh.accepted
            np.testing.assert_array_equal(sampler._stats - touches, fresh._stats)
            assert [r.bit_generator.state for r in rngs] == [
                r.bit_generator.state for r in fresh_rngs
            ]
            results.append((got, got.copy()))
        assert [buffer.size for buffer in sampler._streams] == [2 * 5_000] * 3
        for got, kept in results:  # later runs left earlier snapshots alone
            np.testing.assert_array_equal(got, kept)
