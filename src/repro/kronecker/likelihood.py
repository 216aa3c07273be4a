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
the sparse graphs the model targets.  :func:`exact_log_likelihood` is the
O(N²) reference used by tests.

KronFit averages its gradients over Metropolis chains on σ.
:class:`MultiChainSampler` owns every chain's state and advances S of
them in lockstep; every KronFit fit runs on one (S=1 for a single-start
fit).  It executes pre-drawn proposal streams behind the
``REPRO_KERNEL_BACKEND`` knob: the numpy reference engine defined here,
or the compiled-C multichain kernel of :mod:`repro.native.chain`, which
also draws the streams.  Both engines are bit-identical (see the
contracts documented there).  One scheduled
:meth:`MultiChainSampler.run` covers a KronFit iteration: the warm-up,
every permutation sample and the gradient step, which on the numpy
engine is :func:`profile_log_likelihoods` plus :func:`ascent_step`, the
oracle of the kernel's step mode.
:class:`PermutationSampler` is a view of one chain; constructing it
directly builds a one-chain ensemble.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.native.chain import (
    _RUN,
    _STEP,
    CHAIN_BITMAP_WORDS,
    MULTICHAIN_KERNEL,
    bind_proposal_draw,
    draw_proposal_batch,
    resolve_multichain_backend,
)
from repro.native.registry import buffer_addresses, resolve_kernel_threads, shard_bounds

__all__ = [
    "edge_profiles",
    "profile_histogram",
    "ProfileLikelihood",
    "clamped_rows",
    "profile_log_likelihoods",
    "ascent_step",
    "exact_log_likelihood",
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


class ProfileLikelihood:
    """Approximate log-likelihood and gradient from a profile histogram.

    The histogram fixes σ; this class evaluates l(Θ, σ) and ∇_Θ l(Θ, σ)
    for any Θ in O(k²), as the P = S = 1 case of
    :func:`profile_log_likelihoods`.
    """

    def __init__(self, histogram: np.ndarray, k: int) -> None:
        histogram = np.asarray(histogram, dtype=np.float64)
        if histogram.shape != (k + 1, k + 1):
            raise ValidationError(
                f"histogram must be ({k + 1}, {k + 1}), got {histogram.shape}"
            )
        self.histogram = histogram
        self.k = k

    def log_likelihood(self, theta: Initiator) -> float:
        """l(Θ, σ) with the Taylor-approximated non-edge term."""
        return float(self._evaluate(theta)[0])

    def gradient(self, theta: Initiator) -> np.ndarray:
        """∇_{(a,b,c)} l(Θ, σ) (same approximation as the value)."""
        return self._evaluate(theta)[1]

    def _evaluate(self, theta: Initiator) -> tuple[np.float64, np.ndarray]:
        values, gradients = profile_log_likelihoods(
            _LogTables.stack([theta], self.k),
            clamped_rows([theta]),
            self.histogram.reshape(1, 1, -1),
        )
        return values[0, 0], gradients[0, 0]


def clamped_rows(thetas) -> np.ndarray:
    """The ``(S, 3)`` rows of each Θ's (a, b, c), clamped as the tables are."""
    return np.array([[_clamp(t.a), _clamp(t.b), _clamp(t.c)] for t in thetas])


def profile_log_likelihoods(
    tables: _LogTables, abc: np.ndarray, histograms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's l(Θ_s, σ) and ∇_{(a,b,c)} l(Θ_s, σ), stacked.

    ``tables`` are S initiators' stacked ``(S, k+1, k+1)`` tables,
    ``abc`` their :func:`clamped_rows` and ``histograms`` a float64
    ``(P, S, (k+1)²)`` stack of profile histograms, sample ``p`` of
    chain ``s`` at ``[p, s]``.  Returns the ``(P, S)`` values and
    ``(P, S, 3)`` gradients.  The edge terms are IEEE correctly-rounded
    elementwise operations plus one contiguous sum per row, and the
    σ-invariant empty-graph terms are scalar per Θ, so row ``(p, s)`` is
    bit-identical to the P = S = 1 call on that row whatever P and S.

    The empty-graph term is the Taylor-approximated Σ log(1−P) over all
    pairs, ``−(ΣP − Σ_diag P)/2 − (ΣP² − Σ_diag P²)/4``, with each sum a
    k-th power of the initiator's entry sums; the gradient of
    ``log P − log(1−P)`` in θ is ``(count_θ / θ) / (1 − P)``.
    """
    n_chains = abc.shape[0]
    k = tables.p.shape[-1] - 1
    zxo = _profile_grid(k)[0]
    score = (tables.log_p - tables.log_1mp).reshape(n_chains, -1)
    inv_1mp = (1.0 / np.maximum(1.0 - tables.p, 1.0 - _PARAM_CEIL)).reshape(n_chains, -1)
    empty_terms, empty_gradients = [], []
    for a, b, c in abc.tolist():
        bases = (a + 2 * b + c, a + c, a**2 + 2 * b**2 + c**2, a**2 + c**2)
        s1, d1, s2, d2 = (base**k for base in bases)
        empty_terms.append(-(s1 - d1) / 2.0 - (s2 - d2) / 4.0)
        s1, d1, s2, d2 = (base ** (k - 1) for base in bases)
        empty_gradients.append([
            -k * (s1 - d1) / 2.0 - k * (2 * a * s2 - 2 * a * d2) / 4.0,
            -k * (2 * s1) / 2.0 - k * (4 * b * s2) / 4.0,
            -k * (s1 - d1) / 2.0 - k * (2 * c * s2 - 2 * c * d2) / 4.0,
        ])
    values = (histograms * score).sum(axis=2) + np.array(empty_terms)
    weight = histograms * inv_1mp
    gradients = (weight[:, :, None, :] * zxo).sum(axis=3) / abc + np.array(empty_gradients)
    return values, gradients


def ascent_step(sample_values, sample_gradients, rows, step_scale: float):
    """KronFit's Θ step from :func:`profile_log_likelihoods`' ``(P, S)``
    values and ``(P, S, 3)`` gradients: each chain's are summed from zero
    in sample order and averaged, then its ``(S, 3)`` Θ row moves by
    ``step_scale`` along the gradient over its sup-norm, clipped to
    ``[_STEP_LOW, _STEP_HIGH]``, unless that norm is 0 or NaN.  Returns
    the mean values and the new rows: the chain kernel's step, bit for bit.
    """
    values, gradients = np.zeros(sample_values.shape[1]), np.zeros(sample_gradients.shape[1:])
    for sample_value, sample_gradient in zip(sample_values, sample_gradients):
        values += sample_value
        gradients += sample_gradient
    values /= len(sample_values)
    gradients /= len(sample_values)
    sup_norms = np.abs(gradients).max(axis=1)
    moving = sup_norms > 0
    rows = np.array(rows, dtype=np.float64)
    rows[moving] = np.clip(
        rows[moving] + step_scale * gradients[moving] / sup_norms[moving, None],
        _STEP_LOW,
        _STEP_HIGH,
    )
    return values, rows


def exact_log_likelihood(initiator, graph: Graph, sigma: np.ndarray, k: int) -> float:
    """O(N²) exact undirected log-likelihood — the test oracle.

    Materialises Θ^{⊗k} (so subject to the dense-size guard) and sums
    ``log P`` over edges and ``log(1−P)`` over non-edges under σ.
    """
    from repro.kronecker.kronpower import edge_probability_matrix

    theta = as_initiator(initiator)
    sigma = np.asarray(sigma, dtype=np.int64)
    probabilities = edge_probability_matrix(theta, k)
    probabilities = np.clip(probabilities, _PARAM_FLOOR**k, _PARAM_CEIL)
    n = graph.n_nodes
    dense = graph.to_dense().astype(bool)
    mapped = np.zeros_like(dense)
    mapped[np.ix_(sigma, sigma)] = dense
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    edge_mask = mapped & upper
    non_edge_mask = ~mapped & upper
    return float(
        np.log(probabilities[edge_mask]).sum()
        + np.log1p(-probabilities[non_edge_mask]).sum()
    )


class MultiChainSampler:
    """S independent Metropolis chains over node correspondences σ.

    Proposals swap the Kronecker ids of two random nodes; the acceptance
    ratio only involves edges incident to the swapped nodes because the
    non-edge term is permutation-invariant under the Taylor approximation.
    Each chain has its own Θ, σ, score table, and profile histogram
    (multi-start KronFit runs one chain per start); all share the graph's
    CSR structure.  This class owns every chain's state, stacked into
    C-contiguous ``(S, ·)`` blocks, and both engines (``backend`` /
    ``REPRO_KERNEL_BACKEND``): the numpy reference defined here, and the
    compiled-C multichain kernel of :mod:`repro.native.chain`, one
    GIL-free call per run for each of ``threads`` chain ranges.  Both
    consume the same pre-drawn streams under the same score contract
    (integer count deltas dotted with the score table in ascending cell
    order), so trajectories, histograms, and acceptance counts are
    **bit-identical** for any engine or thread count, and
    chain ``s`` matches a one-chain run with its Θ, σ, and generator.
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
        backend: str | None = None,
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
        self.graph = graph
        self.k = k
        self.n_chains = n_chains = len(thetas)
        # Resolve engine and threads eagerly: misconfiguration (cext
        # requested but not compilable) fails at construction, not mid-fit.
        self.backend = resolve_multichain_backend(backend)
        self.threads = resolve_kernel_threads(threads)
        self._indptr, self._indices = graph.csr
        self._n_cells = (k + 1) * (k + 1)
        self._sigma = np.empty((n_chains, graph.n_nodes), dtype=np.int64)
        self._hist = np.empty((n_chains, self._n_cells), dtype=np.int64)
        self._score = np.empty((n_chains, self._n_cells), dtype=np.float64)
        self._table_planes = np.empty((3, n_chains, k + 1, k + 1))
        # Row s: chain s's Θ (a, b, c); and what the kernel's step writes,
        # the mean log-likelihood, then the stepped Θ.
        self._theta = np.empty((n_chains, 3))
        self._stepped = np.empty((n_chains, 4))
        # _stats[s] accumulates chain s's score-table touches on every
        # engine — the observable the O(k²)-rescan regression test pins
        # (see the delta-scan contract in repro.native.chain) — and
        # _accepted[s] its accepted swaps.
        self._stats = np.zeros(n_chains, dtype=np.int64)
        self._accepted = np.zeros(n_chains, dtype=np.int64)
        self.proposed = 0  # chains advance in lockstep
        self.set_thetas(thetas)
        for s, sigma in enumerate(sigmas):
            self.set_sigma(
                s, degree_matched_initial_sigma(graph, k) if sigma is None else sigma
            )
        # Flat draw-stream buffers (see _run_layout).
        self._streams = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        self._layout = (None,)  # the last run's, keyed (see _run_layout)
        self._draw = (None, None)  # the last run's generators and bound draw
        self._kernel = self._bound = None
        if self.backend != "numpy":
            # The kernel takes raw addresses: every buffer it reads is
            # checked here, once, and must never be replaced afterwards.
            self._kernel = MULTICHAIN_KERNEL.kernel(self.backend)
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
        # cell, read by every engine's delta scan.
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
        exactly like a one-chain run would; on the cext engine that is
        one native call, and running them one more per chain range.

        With ``step_scale`` it returns KronFit's gradient step from the
        samples instead (:func:`ascent_step`, which the cext engine takes
        inside its run call): the ``(S,)`` mean log-likelihoods and the new
        ``(S, 3)`` Θ rows.  Θ itself is not changed.
        """
        return self._advance(n_steps, rngs, n_samples, sample_spacing, step_scale)

    # -- internals --------------------------------------------------------

    def _advance(self, n_steps: int, rngs, n_samples=0, sample_spacing=1, step_scale=None):
        """Draw every chain's streams, execute them, and step if asked."""
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
        n_nodes = self.graph.n_nodes
        stepped = False
        if n_steps == 0 or n_nodes < 2:
            snapshots = np.empty((n_samples, self.n_chains, self._n_cells), dtype=np.int64)
            snapshots[:] = self._hist
        else:
            streams, ends, snapshots, calls = self._run_layout(
                n_steps, n_samples, sample_spacing
            )
            if self._draw[0] != rngs and self._kernel is not None and all(
                isinstance(rng, np.random.Generator) for rng in rngs
            ):
                self._draw = (rngs, bind_proposal_draw(self._kernel, rngs, n_nodes, ends, *streams))
            if self._draw[0] == rngs:
                self._draw[1]()
            else:
                begin = 0
                for end in ends.tolist():
                    for s, rng in enumerate(rngs if end > begin else ()):
                        drawn = draw_proposal_batch(rng, n_nodes, end - begin)
                        for stream, values in zip(streams, drawn):
                            stream[s, begin:end] = values
                    begin = end
            if calls is None:
                self._run_reference(streams, ends, snapshots)
            else:
                stepped = step_scale is not None
                self._run_native(calls[stepped], step_scale or 0.0)
            self.proposed += n_steps
        if stepped:
            return self._stepped[:, 0].copy(), self._stepped[:, 1:].copy()
        if step_scale is not None:
            return ascent_step(
                *profile_log_likelihoods(
                    self._tables, clamped_rows(self.thetas), snapshots.astype(np.float64)
                ),
                self._theta,
                step_scale,
            )
        if n_samples == 0:
            return None
        return snapshots.reshape(n_samples, self.n_chains, self.k + 1, self.k + 1).copy()

    def _run_layout(self, n_steps: int, n_samples: int, sample_spacing: int):
        """``(streams, ends, snapshots, calls)`` for a run, rebuilt only
        when the layout differs from the last run's.

        ``streams`` are ``(S, n_steps)`` C-contiguous views of the draw
        buffers, which grow to the longest run; ``ends`` holds the segment
        ends and ``snapshots`` is the buffer the run fills.  On the cext
        engine ``calls[step](step_scale, c_begin, c_end)`` runs the whole
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
            calls = None
            if self._bound is not None:
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
        """Run the streams on the cext engine: one GIL-free call per chain
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

    def _run_reference(
        self, streams: tuple[np.ndarray, ...], ends: np.ndarray, snapshots: np.ndarray
    ) -> None:
        """Run every chain's segments on the numpy engine, snapshotting
        the histogram after each sample segment."""
        i_all, j_all, u_all = streams
        first_sample = ends.size - snapshots.shape[0]
        for s in range(self.n_chains):
            begin = 0
            for g, end in enumerate(ends.tolist()):
                self._accepted[s] += self._reference_block(
                    s, i_all[s], j_all[s], u_all[s], begin, end
                )
                if g >= first_sample:
                    snapshots[g - first_sample, s] = self._hist[s]
                begin = end

    def _reference_block(
        self,
        s: int,
        i_nodes: np.ndarray,
        j_nodes: np.ndarray,
        log_u: np.ndarray,
        start: int,
        stop: int,
    ) -> int:
        """The numpy reference engine on chain ``s``: one proposal at a
        time, vectorized per neighbourhood, with the score contract's
        ascending-cell scan.
        """
        sigma = self._sigma[s]
        hist = self._hist[s]
        score = self._score[s]
        accepted = 0
        touches = 0
        for t in range(start, stop):
            i = int(i_nodes[t])
            j = int(j_nodes[t])
            counts, touched = self._count_delta(sigma, i, j)
            delta, scanned = _scan_delta(score, counts, touched)
            touches += scanned
            if delta >= 0.0 or log_u[t] < delta:
                sigma[i], sigma[j] = sigma[j], sigma[i]
                hist[touched] += counts[touched]
                accepted += 1
        self._stats[s] += touches
        return accepted

    def _cells(self, center_id: int, other_ids: np.ndarray) -> np.ndarray:
        """Flat profile-cell indices of edges (center_id, other_ids)."""
        x = _popcount(np.int64(center_id) ^ other_ids)
        o = _popcount(np.int64(center_id) & other_ids)
        z = self.k - x - o
        return z * (self.k + 1) + o

    def _count_delta(
        self, sigma: np.ndarray, i: int, j: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Integer profile-histogram change of swapping σ(i) and σ(j).

        Exact (increment arithmetic), hence independent of neighbour
        order.  The i-j edge (if any) keeps its profile and is excluded
        symmetrically.  Returns ``(counts, touched)`` where ``touched``
        is the ascending deduplicated list of cells any event landed in
        (``np.unique`` of the old/new cell streams) — the delta-scan
        contract's touched set.
        """
        id_i, id_j = int(sigma[i]), int(sigma[j])
        indptr, indices = self._indptr, self._indices
        nbr_i = indices[indptr[i] : indptr[i + 1]]
        nbr_i = nbr_i[nbr_i != j]
        nbr_j = indices[indptr[j] : indptr[j + 1]]
        nbr_j = nbr_j[nbr_j != i]
        ids_i = sigma[nbr_i]
        ids_j = sigma[nbr_j]
        old_cells = np.concatenate(
            [self._cells(id_i, ids_i), self._cells(id_j, ids_j)]
        )
        new_cells = np.concatenate(
            [self._cells(id_j, ids_i), self._cells(id_i, ids_j)]
        )
        counts = np.bincount(new_cells, minlength=self._n_cells).astype(
            np.int64, copy=False
        ) - np.bincount(old_cells, minlength=self._n_cells).astype(
            np.int64, copy=False
        )
        touched = np.unique(np.concatenate([old_cells, new_cells]))
        return counts, touched


class PermutationSampler:
    """Metropolis sampler over node correspondences σ for fixed Θ.

    A view of one chain of a :class:`MultiChainSampler`, which owns the
    chain's state and both engines.  Constructing one directly builds a
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
        backend: str | None = None,
    ):
        self._ensemble = MultiChainSampler(
            graph,
            k,
            [theta],
            sigmas=None if sigma is None else [sigma],
            backend=backend,
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
    def backend(self) -> str:
        return self._ensemble.backend

    @property
    def score_touches(self) -> int:
        """Total score-table cells read while scanning proposal deltas.

        Every engine increments this once per *distinct nonzero* touched
        cell per proposal — the numpy engine over ``np.unique`` of the
        touched cells, the kernel over the set bits of its touched-cell
        bitmap — so at most 2·(deg i + deg j) per swap, never O(k²).  The
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

    def edge_term(self) -> float:
        """Current Σ_E [log P − log(1−P)] under σ (for diagnostics)."""
        ensemble = self._ensemble
        z, x, o = edge_profiles(ensemble.graph, self.sigma, ensemble.k)
        tables = ensemble.tables[self._index]
        return float((tables.log_p - tables.log_1mp)[z, o].sum())

    def histogram(self) -> np.ndarray:
        """Profile histogram of the current σ (input to ProfileLikelihood).

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

    def _swap_delta(self, i: int, j: int) -> float:
        """Change in the edge term if σ(i) and σ(j) were exchanged.

        Diagnostic view of the score contract (does not mutate state);
        exactly the delta every engine computes for proposal (i, j).
        """
        ensemble = self._ensemble
        counts, touched = ensemble._count_delta(self.sigma, i, j)
        delta, _ = _scan_delta(ensemble._score[self._index], counts, touched)
        return delta


def _scan_delta(
    score: np.ndarray, counts: np.ndarray, touched: np.ndarray
) -> tuple[float, int]:
    """Σ counts[cell] · score[cell] over the touched cells, ascending.

    The scan is a scalar Python loop on purpose: numpy's pairwise
    summation would round differently from the compiled kernel's
    sequential accumulation, breaking cross-engine bit-identity.
    ``touched`` (``np.unique`` output) is ascending and deduplicated —
    the same cell sequence as the kernel's ascending walk of its
    touched-cell bitmap, and every nonzero-count cell is in it.  Returns
    the delta and the number of score-table cells actually read.
    """
    delta = 0.0
    scanned = 0
    for cell in touched:
        if counts[cell] != 0:
            delta += counts[cell] * score[cell]
            scanned += 1
    return delta, scanned


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
