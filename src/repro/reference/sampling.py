"""Oracles of the sampler kernel: its draws and selection in Python.

:func:`reference_sample_skg` makes the draw contract's draws in Python
(``_draw_classes``) and selects each class's pairs with
``_reference_select`` (Floyd selection and the unranking contract of
:mod:`repro.native.sampling`, over a Python ``set``), so its graph is
the kernel's bit for bit.  :func:`sample_skg_naive` materialises each
row of P: an exact, O(N²) oracle of the distribution.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.sampling import _graph_from_keys, pair_probability, profile_class_size
from repro.native.sampling import choose_table
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = ["reference_sample_skg", "reference_sample_skg_statistics_batch", "sample_skg_naive"]

_NAIVE_LIMIT_K = 12


def reference_sample_skg(initiator, k: int, seed: SeedLike = None) -> Graph:
    """:func:`~repro.kronecker.sampling.sample_skg` on the oracle."""
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    draw = _draw_classes(theta, k, as_generator(seed))
    if draw is None:
        return Graph(2**k)
    return _graph_from_keys(k, _reference_select(k, draw, choose_table(k)))


def reference_sample_skg_statistics_batch(
    initiator, k: int, seeds: Sequence[SeedLike]
) -> list[tuple[int, MatchingStatistics]]:
    """``(n_edges, matching_statistics)`` of :func:`reference_sample_skg` per
    seed, as :func:`~repro.kronecker.sampling.sample_skg_statistics_batch`."""
    rows = []
    for seed in seeds:
        graph = reference_sample_skg(initiator, k, seed=seed)
        rows.append((graph.n_edges, matching_statistics(graph)))
    return rows


class _ClassDraw(NamedTuple):
    """The numpy oracle's draws of one sample (the draw contract)."""

    z: np.ndarray
    x: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray
    uniforms: np.ndarray


def _draw_classes(
    theta: Initiator, k: int, rng: np.random.Generator
) -> _ClassDraw | None:
    """Consume the draw contract's streams; ``None`` when no edge is drawn."""
    # Part 1: per-class binomial counts in ascending (z, x) order,
    # skipping empty and zero-probability classes before any draw.
    z_list: list[int] = []
    x_list: list[int] = []
    count_list: list[int] = []
    size_list: list[int] = []
    for z in range(k + 1):
        for x in range(k - z + 1):
            o = k - z - x
            class_size = profile_class_size(k, z, x, o)
            if class_size == 0:
                continue
            probability = pair_probability(theta, z, x, o)
            if probability <= 0.0:
                continue
            count = int(rng.binomial(class_size, probability))
            if count == 0:
                continue
            z_list.append(z)
            x_list.append(x)
            count_list.append(count)
            size_list.append(class_size)
    if not count_list:
        return None
    counts = np.asarray(count_list, dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)[:-1]]
    )
    # Part 2: one flat uniform stream, count values per class in the same
    # ascending order.
    uniforms = rng.random(int(counts.sum()))
    return _ClassDraw(
        np.asarray(z_list, dtype=np.int64),
        np.asarray(x_list, dtype=np.int64),
        counts,
        offsets,
        np.asarray(size_list, dtype=np.int64),
        uniforms,
    )




def _reference_select(k: int, draw: _ClassDraw, choose: np.ndarray) -> np.ndarray:
    """The oracle's selection: Floyd selection + unranking per class.

    The same selection and unranking contracts as the fused kernels
    (:mod:`repro.native.sampling`), with a Python ``set`` as the
    membership structure — the emitted index sequence, and hence every
    key, is identical.
    """
    uniforms = draw.uniforms
    keys = np.zeros(uniforms.shape[0], dtype=np.int64)
    for c in range(draw.counts.shape[0]):
        count = int(draw.counts[c])
        z = int(draw.z[c])
        x = int(draw.x[c])
        size = int(draw.sizes[c])
        base = int(draw.offsets[c])
        seen: set[int] = set()
        emitted = 0
        for t in range(size - count, size):
            u = float(uniforms[base + emitted])
            r = int(u * (t + 1.0))
            if r > t:
                r = t
            if r in seen:
                idx = t
            else:
                idx = r
            seen.add(idx)
            keys[base + emitted] = _unrank_pair_key(k, z, x, idx, choose)
            emitted += 1
    return keys


def _unrank_pair_key(
    k: int, z: int, x: int, idx: int, choose: np.ndarray
) -> int:
    """Pair key ``(u << k) | v`` of class index ``idx`` in class (z, x).

    The unranking contract of :mod:`repro.native.sampling`: ``idx``
    decomposes into the both-0 level combination, the differing-level
    combination of the remaining levels, and the orientation word; the
    most significant differing level is fixed ``u=0 / v=1`` so ``u < v``.
    """
    kp1 = k + 1
    n_orient = 1 << (x - 1)
    c2 = int(choose[(k - z) * kp1 + x])
    a = idx // (c2 * n_orient)
    rem = idx % (c2 * n_orient)
    b = rem // n_orient
    w = rem % n_orient
    zero_mask = 0
    slots = z
    aa = a
    for level in range(k):
        if slots == 0:
            break
        cnt = int(choose[(k - 1 - level) * kp1 + (slots - 1)])
        if aa < cnt:
            zero_mask |= 1 << (k - 1 - level)
            slots -= 1
        else:
            aa -= cnt
    differ_mask = 0
    m = k - z
    pos = 0
    bb = b
    slots = x
    for level in range(k):
        if slots == 0:
            break
        bit = 1 << (k - 1 - level)
        if zero_mask & bit:
            continue
        cnt = int(choose[(m - 1 - pos) * kp1 + (slots - 1)])
        if bb < cnt:
            differ_mask |= bit
            slots -= 1
        else:
            bb -= cnt
        pos += 1
    one_mask = ((1 << k) - 1) & ~zero_mask & ~differ_mask
    u_val = one_mask
    v_val = one_mask
    first = True
    tw = 0
    for level in range(k):
        bit = 1 << (k - 1 - level)
        if not (differ_mask & bit):
            continue
        if first:
            v_val |= bit
            first = False
        else:
            if (w >> tw) & 1:
                u_val |= bit
            else:
                v_val |= bit
            tw += 1
    return (u_val << k) | v_val


def sample_skg_naive(initiator, k: int, seed: SeedLike = None) -> Graph:
    """Reference O(N²) sampler: Bernoulli per upper-triangle entry of Θ^{⊗k}.

    Builds each row of P as a Kronecker product of k two-vectors, so it
    never materialises the full matrix, but still touches all N²/2 pairs —
    keep ``k`` ≤ 12.  It is the exact oracle that
    ``benchmarks/bench_sampler.py`` and the sampler tests compare the
    grass-hopping :func:`~repro.kronecker.sampling.sample_skg` against.
    """
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    if k > _NAIVE_LIMIT_K:
        raise ValidationError(
            f"naive sampler is O(4^k); k={k} exceeds limit {_NAIVE_LIMIT_K} "
            "— use sample_skg instead"
        )
    rng = as_generator(seed)
    n = 2**k
    matrix = theta.matrix()
    u_list: list[np.ndarray] = []
    v_list: list[np.ndarray] = []
    for u in range(n - 1):
        row = _probability_row(matrix, u, k)
        tail = row[u + 1 :]
        hits = np.flatnonzero(rng.random(tail.size) < tail) + u + 1
        if hits.size:
            u_list.append(np.full(hits.size, u, dtype=np.int64))
            v_list.append(hits.astype(np.int64))
    if not u_list:
        return Graph(n)
    # The row loop emits u ascending with sorted hits v > u per row, so the
    # concatenated arrays are already canonical.
    return Graph._from_canonical(n, np.concatenate(u_list), np.concatenate(v_list))


def _probability_row(matrix: np.ndarray, u: int, k: int) -> np.ndarray:
    """Row ``u`` of Θ^{⊗k}: the Kronecker product of the k selected rows."""
    row = np.ones(1, dtype=np.float64)
    for level in range(k - 1, -1, -1):
        bit = (u >> level) & 1
        row = np.kron(row, matrix[bit])
    return row
