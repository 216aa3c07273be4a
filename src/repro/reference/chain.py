"""Oracles of the multichain kernel: its five contracts in numpy.

:class:`ReferenceMultiChainSampler` overrides the sampler's one engine
hook to draw with :func:`~repro.native.chain.draw_proposal_batch`, run
each proposal with the ascending-cell delta scan and step with
:func:`profile_log_likelihoods` plus :func:`ascent_step`;
:class:`ReferenceKronFitEstimator` runs KronFit on it.
:class:`ProfileLikelihood` is the P = S = 1 likelihood, and
:func:`exact_log_likelihood` the O(N²) one without the Taylor step.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import (
    _PARAM_CEIL, _PARAM_FLOOR, _STEP_HIGH, _STEP_LOW, MultiChainSampler, _LogTables,
    _popcount, _profile_grid, clamped_rows, edge_profiles,
)
from repro.native.chain import draw_proposal_batch

__all__ = [
    "ReferenceMultiChainSampler", "ReferenceKronFitEstimator", "ProfileLikelihood",
    "profile_log_likelihoods", "ascent_step", "exact_log_likelihood",
]


class ReferenceMultiChainSampler(MultiChainSampler):
    """:class:`MultiChainSampler` with its engine hook, :meth:`_execute`,
    in numpy: built alike, chain ``s`` of both must match bit for bit."""

    def _execute(self, rngs, n_steps, streams, ends, snapshots, calls, step_scale):
        if n_steps:
            begin = 0
            for end in ends.tolist():
                for s, rng in enumerate(rngs if end > begin else ()):
                    drawn = draw_proposal_batch(rng, self.graph.n_nodes, end - begin)
                    for stream, values in zip(streams, drawn):
                        stream[s, begin:end] = values
                begin = end
            self._run_reference(streams, ends, snapshots)
        if step_scale is None:
            return None
        return ascent_step(
            *profile_log_likelihoods(
                self._tables, clamped_rows(self.thetas), snapshots.astype(np.float64)
            ),
            self._theta,
            step_scale,
        )

    def swap_delta(self, index: int, i: int, j: int) -> float:
        """Change in chain ``index``'s edge term if σ(i) and σ(j) were
        exchanged: the delta the kernel computes for proposal (i, j)
        (does not mutate state)."""
        counts, touched = self._count_delta(self._sigma[index], i, j)
        return self._scan_delta(self._score[index], counts, touched)[0]

    def edge_term(self, index: int) -> float:
        """Chain ``index``'s Σ_E [log P − log(1−P)] under its σ."""
        z, x, o = edge_profiles(self.graph, self._sigma[index], self.k)
        tables = self.tables[index]
        return float((tables.log_p - tables.log_1mp)[z, o].sum())

    def _run_reference(
        self, streams: tuple[np.ndarray, ...], ends: np.ndarray, snapshots: np.ndarray
    ) -> None:
        """Run every chain's segments in numpy, snapshotting
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
        """Chain ``s``'s proposals ``[start, stop)``: one at a time,
        vectorized per neighbourhood, with the score contract's
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
            delta, scanned = self._scan_delta(score, counts, touched)
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

    @staticmethod
    def _scan_delta(
        score: np.ndarray, counts: np.ndarray, touched: np.ndarray
    ) -> tuple[float, int]:
        """Σ counts[cell] · score[cell] over the touched cells, ascending.

        The scan is a scalar Python loop on purpose: numpy's pairwise
        summation would round differently from the compiled kernel's
        sequential accumulation, breaking bit-identity with it.
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


class ReferenceKronFitEstimator(KronFitEstimator):
    """:class:`KronFitEstimator` with its chains on the oracle sampler."""

    _sampler = ReferenceMultiChainSampler


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
