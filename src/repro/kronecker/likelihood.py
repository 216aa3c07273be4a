"""Log-likelihood machinery for KronFit (Leskovec–Faloutsos approximate MLE).

Given a node correspondence σ (a permutation mapping graph nodes to
Kronecker ids), the undirected SKG log-likelihood is

    l(Θ, σ) = Σ_{uv ∈ E} log P_{σu σv} + Σ_{uv ∉ E} log(1 − P_{σu σv}).

Two structural facts make this tractable:

* ``P_{uv} = a^z b^x c^o`` where the *profile* (z, x, o) counts the bit
  positions of (u, v) that are (0,0)/differing/(1,1).  Every edge reduces
  to a profile, and the whole edge term reduces to a ``(k+1)×(k+1)``
  profile histogram.
* The sum over *all* pairs of ``log(1 − P)`` is permutation-invariant and
  has a closed-form second-order Taylor approximation (Leskovec's trick):
  ``Σ log(1−P) ≈ −ΣP − ½ΣP²`` with ``ΣP``, ``ΣP²`` geometric sums of the
  initiator entries.

The residual edge correction ``−Σ_{uv∈E} log(1−P_uv)`` is computed exactly,
so the only approximation is the Taylor step on non-edges — accurate for
the sparse graphs the model targets.

KronFit averages its gradients over Metropolis chains on σ.
:class:`MultiChainSampler` owns every chain's state and advances S of
them in lockstep; every KronFit fit runs on one (S=1 for a single-start
fit).  One scheduled :meth:`MultiChainSampler.run` covers a KronFit
iteration — the warm-up, every permutation sample and the gradient step
— in the compiled-C kernel of :mod:`repro.native.chain`, whose numpy
oracles live in :mod:`repro.reference.chain`.  :class:`PermutationSampler`
is a view of one chain; constructing it directly builds a one-chain
ensemble.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator
from repro.native.chain import (
    _RUN,
    _STEP,
    CHAIN_BITMAP_WORDS,
    MULTICHAIN_KERNEL,
    bind_proposal_draw,
)
from repro.native.registry import buffer_addresses, resolve_kernel_threads, shard_bounds

__all__ = [
    "edge_profiles",
    "profile_histogram",
    "clamped_rows",
    "PermutationSampler",
    "MultiChainSampler",
]

# Initiator entries are clamped into this open interval before taking logs.
_PARAM_FLOOR = 1e-6
_PARAM_CEIL = 1.0 - 1e-6
# KronFit's gradient steps keep Θ in this interval (the chain kernel's
# step mode writes the same literals).
_STEP_LOW = 0.001
_STEP_HIGH = 0.999


def _clamp(value: float) -> float:
    """An initiator entry clamped into ``[_PARAM_FLOOR, _PARAM_CEIL]``."""
    return min(max(value, _PARAM_FLOOR), _PARAM_CEIL)


def _popcount(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64)).astype(np.int64)


def edge_profiles(
    graph: Graph, sigma: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-edge profiles (z, x, o) under node correspondence ``sigma``.

    ``sigma[node]`` is the Kronecker id assigned to ``node``; ids must be a
    permutation of ``0 .. 2^k - 1`` with ``2^k == graph.n_nodes``, checked
    in O(n): any other id would index outside the profile cells.
    """
    if graph.n_nodes != 2**k:
        raise ValidationError(
            f"graph has {graph.n_nodes} nodes, expected 2^{k} = {2**k}"
        )
    sigma, seen = np.asarray(sigma), np.zeros(graph.n_nodes, dtype=bool)
    if sigma.shape == seen.shape and sigma.dtype.kind in "iu":
        seen[sigma[(sigma >= 0) & (sigma < seen.size)]] = True
    if not seen.all():
        raise ValidationError(f"sigma is not a permutation of 0 .. {seen.size - 1}")
    u, v = graph.edge_arrays
    su, sv = sigma[u], sigma[v]
    x = _popcount(su ^ sv)
    o = _popcount(su & sv)
    z = k - x - o
    return z, x, o


def profile_histogram(z: np.ndarray, x: np.ndarray, o: np.ndarray, k: int) -> np.ndarray:
    """Dense ``(k+1)×(k+1)`` histogram ``counts[z, o]`` of edge profiles."""
    flat = z * (k + 1) + o
    counts = np.bincount(flat, minlength=(k + 1) * (k + 1))
    return counts.reshape(k + 1, k + 1)


@functools.lru_cache(maxsize=None)
def _profile_grid(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(k+1)²`` cells' read-only float64 z, x and o rows (x is 0
    where infeasible, z + o > k) and infeasible mask."""
    z, o = np.divmod(np.arange((k + 1) ** 2), k + 1)
    infeasible = z + o > k
    zxo = np.stack([z, np.where(infeasible, 0, k - z - o), o]).astype(np.float64)
    zxo.flags.writeable = infeasible.flags.writeable = False
    return zxo, infeasible


class _LogTables(NamedTuple):
    """Per-profile log-probability tables: ``(k+1, k+1)`` arrays for one
    initiator, or ``(S, k+1, k+1)`` stacks for S of them."""

    log_p: np.ndarray  # log P for profile (z, o)
    log_1mp: np.ndarray  # log(1 - P)
    p: np.ndarray  # P itself

    @classmethod
    def stack(cls, thetas, k: int, out: np.ndarray | None = None) -> "_LogTables":
        """Every Θ's tables in one elementwise pass, stacked in order.

        One ``np.log`` over the ``(S, 3)`` :func:`clamped_rows` (the same
        bits as one scalar call per entry), then elementwise operations,
        whose value per element does not depend on the stack's shape, so
        row ``s`` equals the stack of ``thetas[s]`` alone.  The tables are
        the three planes of ``out``, a C-contiguous float64 ``(3, S, k+1,
        k+1)`` buffer, written in place (a new one without ``out``).
        """
        logs = np.log(clamped_rows(thetas))
        if out is None:
            out = np.empty((3, logs.shape[0], k + 1, k + 1))
        zxo, infeasible = _profile_grid(k)
        planes = out.reshape(3, logs.shape[0], -1)
        log_p, log_1mp, p = planes
        terms = logs[:, :, None] * zxo  # z·log a, x·log b, o·log c
        np.add(np.add(terms[:, 0], terms[:, 1], out=log_p), terms[:, 2], out=log_p)
        np.exp(log_p, out=p)
        np.minimum(p, _PARAM_CEIL, out=log_1mp)
        np.log1p(np.negative(log_1mp, out=log_1mp), out=log_1mp)
        # Infeasible cells can never receive histogram mass (edge profiles
        # always satisfy z + o <= k), so zeroing them is safe and avoids
        # 0 * inf = NaN in histogram contractions.
        np.copyto(planes, 0.0, where=infeasible)
        return cls(*out)


def clamped_rows(thetas) -> np.ndarray:
    """The ``(S, 3)`` rows of each Θ's (a, b, c), clamped as the tables are."""
    return np.array([[_clamp(t.a), _clamp(t.b), _clamp(t.c)] for t in thetas])


class MultiChainSampler:
    """S independent Metropolis chains over node correspondences σ.

    Proposals swap the Kronecker ids of two random nodes; the acceptance
    ratio only involves edges incident to the swapped nodes because the
    non-edge term is permutation-invariant under the Taylor approximation.
    Each chain has its own Θ, σ, score table, and profile histogram
    (multi-start KronFit runs one chain per start); all share the graph's
    CSR structure.  This class owns every chain's state, stacked into
    C-contiguous ``(S, ·)`` blocks, which the compiled-C multichain
    kernel of :mod:`repro.native.chain` advances in one GIL-free call per
    run for each of ``threads`` chain ranges.  Its contracts make
    trajectories, histograms, and acceptance counts **bit-identical** for
    any thread count and to the numpy oracle
    (:class:`repro.reference.chain.ReferenceMultiChainSampler`, which
    overrides :meth:`_execute`), and chain ``s`` matches a one-chain run
    with its Θ, σ, and generator.
    Histograms are maintained incrementally on accepted swaps.
    :meth:`chain` exposes one chain as a :class:`PermutationSampler`
    view whose observables and setters read and write these rows.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        thetas,
        sigmas=None,
        threads: int | None = None,
    ):
        thetas = list(thetas)
        if not thetas:
            raise ValidationError("MultiChainSampler needs at least one chain")
        sigmas = [None] * len(thetas) if sigmas is None else list(sigmas)
        if len(sigmas) != len(thetas):
            raise ValidationError(f"got {len(sigmas)} sigmas for {len(thetas)} chains")
        if (k + 1) ** 2 > 64 * CHAIN_BITMAP_WORDS:
            raise ValidationError(
                f"k={k} has {(k + 1) ** 2} profile cells, more than the chain "
                f"kernel's {64 * CHAIN_BITMAP_WORDS}-bit touched-cell bitmap"
            )
        if graph.n_nodes != 2**k:
            raise ValidationError(
                f"graph has {graph.n_nodes} nodes, expected 2^{k} = {2**k}"
            )
        # The kernel reads the CSR as int32, which a narrowing cast would
        # wrap silently: refuse a graph whose entry count 2E or node ids
        # do not fit.
        self._indptr, self._indices = graph.csr
        if max(int(self._indptr[-1]), graph.n_nodes - 1) > np.iinfo(np.int32).max:
            raise ValidationError(
                f"graph has {int(self._indptr[-1]) // 2} edges on {graph.n_nodes} "
                "nodes, past the chain kernel's int32 CSR indexing"
            )
        self.graph = graph
        self.k = k
        self.n_chains = n_chains = len(thetas)
        # Load the kernel and resolve threads eagerly: a host that cannot
        # build the kernel fails at construction, not mid-fit.
        self._kernel = MULTICHAIN_KERNEL.kernel()
        self.threads = resolve_kernel_threads(threads)
        self._n_cells = (k + 1) * (k + 1)
        self._sigma = np.empty((n_chains, graph.n_nodes), dtype=np.int64)
        self._hist = np.empty((n_chains, self._n_cells), dtype=np.int64)
        self._score = np.empty((n_chains, self._n_cells), dtype=np.float64)
        self._table_planes = np.empty((3, n_chains, k + 1, k + 1))
        # Row s: chain s's Θ (a, b, c); and what the kernel's step writes,
        # the mean log-likelihood, then the stepped Θ.
        self._theta = np.empty((n_chains, 3))
        self._stepped = np.empty((n_chains, 4))
        # _stats[s] accumulates chain s's score-table touches — the
        # observable the O(k²)-rescan regression test pins (see the
        # delta-scan contract in repro.native.chain) — and _accepted[s]
        # its accepted swaps.
        self._stats = np.zeros(n_chains, dtype=np.int64)
        self._accepted = np.zeros(n_chains, dtype=np.int64)
        self.proposed = 0  # chains advance in lockstep
        self.set_thetas(thetas)
        if any(sigma is None for sigma in sigmas):
            matched = degree_matched_initial_sigma(graph, k)
            sigmas = [matched if sigma is None else sigma for sigma in sigmas]
        for s, sigma in enumerate(sigmas):
            self.set_sigma(s, sigma)
        # Flat draw-stream buffers (see _run_layout).
        self._streams = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        self._layout = (None,)  # the last run's, keyed (see _run_layout)
        self._draw = (None, None)  # the last run's generators and bound draw
        # The kernel takes raw addresses: every buffer it reads is checked
        # here, once, and must never be replaced afterwards.
        self._csr32 = [np.ascontiguousarray(self._indptr, dtype=np.int32),
                       np.ascontiguousarray(self._indices, dtype=np.int32)]
        sigma, hist, stats, accepted = buffer_addresses(
            np.int64, self._sigma, self._hist, self._stats, self._accepted
        )
        score, p, theta, stepped = buffer_addresses(
            np.float64, self._score, self._table_planes[2], self._theta, self._stepped
        )
        # The arguments before and after each run's own (see _run_layout).
        self._bound = (
            (*buffer_addresses(np.int32, *self._csr32), n_chains, graph.n_nodes,
             sigma, k, score, hist, stats),
            (accepted, p, theta, stepped),
        )

    @property
    def accepted(self) -> list[int]:
        """Each chain's accepted swaps so far."""
        return self._accepted.tolist()

    def chain(self, index: int) -> "PermutationSampler":
        """Chain ``index`` as a live :class:`PermutationSampler` view."""
        return PermutationSampler._view(self, range(self.n_chains)[index])

    @property
    def tables(self) -> list[_LogTables]:
        """Each chain's log tables (views of the stacked rows)."""
        t = self._tables
        return [
            _LogTables(log_p=t.log_p[s], log_1mp=t.log_1mp[s], p=t.p[s])
            for s in range(self.n_chains)
        ]

    def set_thetas(self, thetas) -> _LogTables:
        """Set every chain's Θ with one stacked table build.

        Returns the stacked ``(S, k+1, k+1)`` tables, which the sampler
        keeps and the next call overwrites: treat them as read-only.
        """
        thetas = list(thetas)
        if len(thetas) != self.n_chains:
            raise ValidationError(
                f"got {len(thetas)} thetas for {self.n_chains} chains"
            )
        self.thetas = thetas
        self._theta[:] = [(t.a, t.b, t.c) for t in thetas]
        self._tables = tables = _LogTables.stack(thetas, self.k, out=self._table_planes)
        # Hoisted out of the proposal loop: `log P - log(1-P)` per profile
        # cell, read by the delta scan.
        np.subtract(tables.log_p, tables.log_1mp, out=self._score.reshape(tables.p.shape))
        return tables

    def set_theta(self, index: int, theta: Initiator) -> None:
        """Update chain ``index``'s Θ (rebuilds the tables and score rows)."""
        thetas = list(self.thetas)
        thetas[index] = theta
        self.set_thetas(thetas)

    def set_sigma(self, index: int, sigma: np.ndarray) -> None:
        """Replace chain ``index``'s σ (rebuilds its profile histogram;
        :func:`edge_profiles` refuses a σ that is not a permutation)."""
        z, x, o = edge_profiles(self.graph, sigma, self.k)
        self._sigma[index] = sigma
        self._hist[index] = profile_histogram(z, x, o, self.k).ravel()

    def histograms(self) -> np.ndarray:
        """All profile histograms, stacked ``(S, k+1, k+1)`` (a copy)."""
        return self._hist.reshape(self.n_chains, self.k + 1, self.k + 1).copy()

    def run(
        self,
        n_steps: int,
        rngs,
        *,
        n_samples: int = 0,
        sample_spacing: int = 1,
        step_scale: float | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray] | None:
        """Advance every chain ``n_steps`` proposals.

        ``rngs`` holds one generator per chain (chains may share one).
        The last ``n_samples`` segments of ``sample_spacing`` proposals
        are sample segments (the rest is warm-up): the run returns the
        ``(n_samples, S, k+1, k+1)`` histograms at the end of each
        (``None`` without samples) — what running each segment on its own
        and reading :meth:`histograms` after it gives.  Every segment's
        streams are drawn first, segment by segment and chain by chain,
        with the draw contract, so chain ``s`` consumes its generator
        exactly like a one-chain run would: that is one native call, and
        running them one more per chain range.

        With ``step_scale`` it returns KronFit's gradient step from the
        samples instead (the step contract, which the kernel takes inside
        its run call): the ``(S,)`` mean log-likelihoods and the new
        ``(S, 3)`` Θ rows.  Θ itself is not changed.  A run with no
        proposals to make (``n_steps == 0``, or a one-node graph) samples
        the current histograms.
        """
        return self._advance(n_steps, rngs, n_samples, sample_spacing, step_scale)

    # -- internals --------------------------------------------------------

    def _advance(self, n_steps: int, rngs, n_samples=0, sample_spacing=1, step_scale=None):
        """Validate a run, lay it out and hand it to :meth:`_execute`."""
        rngs = tuple(rngs)
        if len(rngs) != self.n_chains:
            raise ValidationError(
                f"got {len(rngs)} generators for {self.n_chains} chains"
            )
        if n_steps < 0:
            raise ValidationError(f"n_steps must be non-negative, got {n_steps}")
        if n_samples < 0 or sample_spacing < 1 or n_samples * sample_spacing > n_steps:
            raise ValidationError(
                f"{n_samples} samples {sample_spacing} proposals apart do not "
                f"fit in a run of {n_steps}"
            )
        if step_scale is not None and n_samples == 0:
            raise ValidationError("a gradient step needs at least one sample")
        if self.graph.n_nodes < 2:
            n_steps = 0  # no distinct pair to propose
        streams, ends, snapshots, calls = self._run_layout(
            n_steps, n_samples, sample_spacing if n_steps else 1
        )
        if n_steps == 0:
            snapshots[:] = self._hist
        stepped = self._execute(rngs, n_steps, streams, ends, snapshots, calls, step_scale)
        self.proposed += n_steps
        if step_scale is not None:
            return stepped
        if n_samples == 0:
            return None
        return snapshots.reshape(n_samples, self.n_chains, self.k + 1, self.k + 1).copy()

    def _execute(self, rngs, n_steps, streams, ends, snapshots, calls, step_scale):
        """The engine hook: draw the streams from ``rngs``, run them into
        ``snapshots`` and, with ``step_scale``, return the step's ``(values,
        rows)`` — here one kernel draw call, then one run call per chain
        range (a step with no proposals scores the snapshots as given)."""
        if n_steps and self._draw[0] != rngs:
            self._draw = (rngs, bind_proposal_draw(
                self._kernel, rngs, self.graph.n_nodes, ends, *streams
            ))
        if n_steps:
            self._draw[1]()
        if n_steps or step_scale is not None:
            self._run_native(calls[step_scale is not None], step_scale or 0.0)
        if step_scale is not None:
            return self._stepped[:, 0].copy(), self._stepped[:, 1:].copy()

    def _run_layout(self, n_steps: int, n_samples: int, sample_spacing: int):
        """``(streams, ends, snapshots, calls)`` for a run, rebuilt only
        when the layout differs from the last run's.

        ``streams`` are ``(S, n_steps)`` C-contiguous views of the draw
        buffers, which grow to the longest run; ``ends`` holds the segment
        ends and ``snapshots`` is the buffer the run fills.
        ``calls[step](step_scale, c_begin, c_end)`` runs the whole
        streams of chains ``[c_begin, c_end)`` with every address bound,
        in step mode if ``step``; a rebuild binds again, as growing a
        buffer frees the old one, and drops the bound draw.
        """
        key = (n_steps, n_samples, sample_spacing)
        if self._layout[0] != key:
            size = self.n_chains * n_steps
            if self._streams[0].size < size:
                self._streams = tuple(
                    np.empty(size, dtype=buffer.dtype) for buffer in self._streams
                )
            i_all, j_all, u_all = streams = tuple(
                buffer[:size].reshape(self.n_chains, n_steps) for buffer in self._streams
            )
            ends = np.arange(
                n_steps - n_samples * sample_spacing,
                n_steps + 1,
                sample_spacing,
                dtype=np.int64,
            )
            snapshots = np.empty((n_samples, self.n_chains, self._n_cells), dtype=np.int64)
            before, after = self._bound
            run_args = (
                *before, *buffer_addresses(np.int64, i_all, j_all),
                *buffer_addresses(np.float64, u_all), n_steps,
                *buffer_addresses(np.int64, ends), ends.size, n_samples,
                *buffer_addresses(np.int64, snapshots), None, *after,
            )
            calls = tuple(
                functools.partial(self._kernel, mode, *run_args) for mode in (_RUN, _STEP)
            )
            self._layout = (key, streams, ends, snapshots, calls)
            self._draw = (None, None)
        return self._layout[1:]

    def _run_native(self, call, step_scale: float) -> None:
        """Run the streams on the kernel: one GIL-free call per chain
        range (:func:`~repro.native.registry.shard_bounds`), the
        first range on the calling thread (a one-range run starts no
        thread), each other on a short-lived thread joined before this
        returns or raises.  No pool is kept: a forked worker (trial engine,
        serve) would inherit its threads dead."""
        first, *rest = shard_bounds(self.n_chains, self.threads)
        errors: list[BaseException] = []

        def run_range(begin: int, end: int) -> None:
            try:
                call(step_scale, begin, end)
            except BaseException as error:  # re-raised on the calling thread
                errors.append(error)

        started = []
        try:
            for bounds in rest:
                thread = threading.Thread(target=run_range, args=bounds)
                thread.start()
                started.append(thread)
            run_range(*first)
        finally:
            for thread in started:
                thread.join()
        if errors:
            raise errors[0]


class PermutationSampler:
    """Metropolis sampler over node correspondences σ for fixed Θ.

    A view of one chain of a :class:`MultiChainSampler`, which owns the
    chain's state and the kernel.  Constructing one directly builds a
    one-chain ensemble (``threads=1``); :meth:`MultiChainSampler.chain`
    returns views onto an existing ensemble.  Every observable (:attr:`sigma`,
    :attr:`accepted`, :meth:`histogram`, …) reads the ensemble's row, and
    :meth:`set_theta` / :meth:`set_sigma` write it, so a view can never
    desynchronize from what the kernels read.  :meth:`run` advances the
    ensemble, so it needs a one-chain ensemble; advance a larger one with
    :meth:`MultiChainSampler.run`.

    :attr:`sigma` is a live row: treat it as read-only between calls, and
    use :meth:`set_sigma` to reset the correspondence.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        theta: Initiator,
        sigma: np.ndarray | None = None,
    ):
        self._ensemble = MultiChainSampler(
            graph,
            k,
            [theta],
            sigmas=None if sigma is None else [sigma],
            threads=1,
        )
        self._index = 0

    @classmethod
    def _view(cls, ensemble: MultiChainSampler, index: int) -> "PermutationSampler":
        view = cls.__new__(cls)
        view._ensemble = ensemble
        view._index = index
        return view

    @property
    def sigma(self) -> np.ndarray:
        """The current correspondence (a live row of the ensemble)."""
        return self._ensemble._sigma[self._index]

    @property
    def theta(self) -> Initiator:
        return self._ensemble.thetas[self._index]

    @property
    def accepted(self) -> int:
        return int(self._ensemble._accepted[self._index])

    @property
    def proposed(self) -> int:
        return self._ensemble.proposed

    @property
    def score_touches(self) -> int:
        """Total score-table cells read while scanning proposal deltas.

        The kernel increments this once per *distinct nonzero* touched
        cell per proposal — over the set bits of its touched-cell bitmap,
        as its oracle does over ``np.unique`` of the touched cells — so at
        most 2·(deg i + deg j) per swap, never O(k²).  The
        delta-scan regression tests assert this stays proportional to the
        touched neighbourhoods rather than the full profile table.
        """
        return int(self._ensemble._stats[self._index])

    def set_theta(self, theta: Initiator) -> None:
        """Update Θ (rebuilds the log tables and the cached score table)."""
        self._ensemble.set_theta(self._index, theta)

    def set_sigma(self, sigma: np.ndarray) -> None:
        """Replace the correspondence (rebuilds the profile histogram)."""
        self._ensemble.set_sigma(self._index, sigma)

    def run(self, n_steps: int, rng: np.random.Generator) -> None:
        """Run ``n_steps`` proposals (see :meth:`MultiChainSampler.run`)."""
        self._solo()._advance(n_steps, [rng])

    def histogram(self) -> np.ndarray:
        """Profile histogram of the current σ.

        Maintained incrementally from the count changes of accepted swaps;
        bit-equal to recomputing :func:`edge_profiles` over all edges.
        """
        k = self._ensemble.k
        return self._ensemble._hist[self._index].reshape(k + 1, k + 1).copy()

    def _solo(self) -> MultiChainSampler:
        """The ensemble, which a view may only advance when it is alone."""
        if self._ensemble.n_chains != 1:
            raise ValidationError(
                "a chain view of a multi-chain ensemble cannot advance alone; "
                "use MultiChainSampler.run"
            )
        return self._ensemble


def degree_matched_initial_sigma(graph: Graph, k: int) -> np.ndarray:
    """Heuristic initial correspondence: high-degree nodes get the Kronecker
    ids with the highest expected degree.

    For a canonical initiator (a ≥ c) the expected degree of Kronecker id
    ``u`` decreases with ``popcount(u)``, so ids are ranked by (popcount,
    value) and matched against nodes ranked by observed degree.  This
    starts the MCMC near the mode instead of a uniformly random σ.
    """
    node_rank = np.argsort(-graph.degrees, kind="stable")
    sigma = np.empty(graph.n_nodes, dtype=np.int64)
    sigma[node_rank] = _ids_by_popcount(graph.n_nodes)
    return sigma


@functools.lru_cache(maxsize=8)
def _ids_by_popcount(n: int) -> np.ndarray:
    """The ids ``0 .. n-1`` ranked by (popcount, value), read-only."""
    ids = np.arange(n, dtype=np.int64)
    ranked = ids[np.lexsort((ids, _popcount(ids)))]
    ranked.flags.writeable = False
    return ranked
