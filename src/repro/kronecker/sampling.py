"""Exact sampling of undirected stochastic Kronecker graphs.

:func:`sample_skg` draws from the *exact* product-Bernoulli distribution
of Definition 3.4 with the paper's undirected semantics (zero diagonal,
each unordered pair {u, v} an independent edge with probability
``P[u, v] = ∏ᵢ Θ[uᵢ, vᵢ]``) by **grass-hopping**: for a 2×2 symmetric
initiator the probability of pair (u, v) depends only on the
*bit-pattern profile* ``(z, x, o)`` = (#levels where both bits are 0,
#levels where they differ, #levels where both are 1), because
``P[u,v] = a^z b^x c^o``.  There are only ``C(k+2, 2)`` profiles; per
profile the edge count is Binomial(#pairs, probability) and the chosen
pairs are uniform without replacement within the profile class.
Expected time O(E + k²), exact for every k.  (Leskovec's widely used
"ball dropping" generator is only approximate; this sampler is not.)

The pairs are selected in the compiled-C kernel of
:mod:`repro.native.sampling`, bit-identical for every seed to the Python
oracle of :mod:`repro.reference.sampling` (the draw contract is
documented with the kernel), which also holds the O(N²) naive sampler.

:func:`sample_skg_statistics_batch` makes the same draws per seed and
returns only each sample's matching statistics {E, H, T, Δ}, which is
what ``/sample``, ``/release``, ensembles and the scenario statistics
measure need; :func:`sample_skg_statistics` is its batch of one.  Graphs
and statistics go through one function (``_compiled_draw``): numpy draws
each sample's class counts with one vectorised ``binomial`` over the
(Θ, k) class table, then one kernel call, holding each generator's
lock, draws the uniforms from the sample's own generator and selects
the pairs — in keys-only mode for :func:`sample_skg`, in counts mode, a
whole batch at once and without building a :class:`Graph`, for the
statistics.

The grass-hopping and naive samplers agree in distribution; tests check
profile-class counts and expected statistics across thousands of draws.
"""

from __future__ import annotations

import functools
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.native.sampling import MAX_K, SAMPLER_KERNEL, draw_batch
from repro.stats.counts import MatchingStatistics
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = [
    "sample_skg",
    "sample_skg_statistics",
    "sample_skg_statistics_batch",
    "profile_class_size",
    "pair_probability",
]

def pair_probability(initiator, z: int, x: int, o: int) -> float:
    """Edge probability ``a^z b^x c^o`` of any pair with profile (z, x, o)."""
    theta = as_initiator(initiator)
    return float(theta.a**z * theta.b**x * theta.c**o)


def profile_class_size(k: int, z: int, x: int, o: int) -> int:
    """Number of unordered node pairs {u, v}, u ≠ v, with profile (z, x, o).

    Choosing which levels carry each pattern gives the multinomial
    ``k!/(z! x! o!)``; each of the ``x`` differing levels has two
    orientations, and dividing ordered pairs by two yields ``2^{x-1}``
    orientation choices.  Profiles with ``x = 0`` describe u = v only.
    """
    if z + x + o != k:
        raise ValidationError(f"profile ({z}, {x}, {o}) does not sum to k={k}")
    if x == 0:
        return 0
    return comb(k, z) * comb(k - z, x) * 2 ** (x - 1)


def sample_skg(initiator, k: int, seed: SeedLike = None) -> Graph:
    """Draw one undirected SKG on ``2^k`` nodes by exact grass-hopping."""
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1, maximum=MAX_K)
    rng = as_generator(seed)
    return _graph_from_keys(k, _compiled_draw(theta, k, [rng], keys_only=True)[0])


def _graph_from_keys(k: int, keys: np.ndarray) -> Graph:
    """The graph on ``2^k`` nodes whose edges are the pair keys ``keys``.

    Keys are distinct, and ``(u << k) | v`` with u < v orders like the
    (u, v) pair, so one sort yields canonical edge arrays for the
    trusted constructor.
    """
    n = 2**k
    if keys.size == 0:
        return Graph(n)
    keys = np.sort(keys)
    u = (keys >> np.int64(k)).astype(np.int64)
    v = (keys & np.int64(n - 1)).astype(np.int64)
    return Graph._from_canonical(n, u, v)


def sample_skg_statistics(
    initiator, k: int, seed: SeedLike = None
) -> tuple[int, MatchingStatistics]:
    """``(n_edges, matching statistics)`` of one :func:`sample_skg` draw.

    The batch of one of :func:`sample_skg_statistics_batch`: the
    generator ends where :func:`sample_skg` leaves it, and the result
    equals ``matching_statistics(sample_skg(initiator, k, seed))``
    exactly.
    """
    return sample_skg_statistics_batch(initiator, k, [seed])[0]


def sample_skg_statistics_batch(
    initiator, k: int, seeds: Sequence[SeedLike]
) -> list[tuple[int, MatchingStatistics]]:
    """``[sample_skg_statistics(initiator, k, seed) for seed in seeds]``.

    Each seed's draws, rows and generator end state are those of its own
    :func:`sample_skg` call, but {E, H, T, Δ} are counted inside the
    sampler kernel without building any :class:`Graph`, and
    counts the whole batch in one call that releases the interpreter
    lock throughout: numpy draws each sample's class counts with one
    vectorised ``binomial`` over the class table, then the kernel draws
    its uniforms from the sample's generator.  A generator that occurs
    twice in ``seeds`` starts a new call, so its draws keep the per-seed
    order.  The oracle is the per-seed composition
    ``matching_statistics(sample_skg(...))``
    (:func:`repro.reference.sampling.reference_sample_skg_statistics_batch`).
    """
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1, maximum=MAX_K)
    rows = []
    run: list[np.random.Generator] = []
    for rng in map(as_generator, seeds):
        if any(rng is earlier for earlier in run):
            rows.extend(_count_batch(theta, k, run))
            run = []
        run.append(rng)
    rows.extend(_count_batch(theta, k, run))
    return rows


class _ClassTable(NamedTuple):
    """The classes of (Θ, k) the draw contract draws a count for."""

    z: np.ndarray
    x: np.ndarray
    sizes: np.ndarray
    probabilities: np.ndarray


@functools.lru_cache(maxsize=64)
def _class_table(a: float, b: float, c: float, k: int) -> _ClassTable:
    """Part 1's classes in ascending ``(z, x)`` order, without the empty
    and zero-probability ones (the draw contract skips those before any
    draw).  Built once per (Θ, k)."""
    theta = Initiator(a, b, c)
    classes = [
        (z, x, profile_class_size(k, z, x, k - z - x),
         pair_probability(theta, z, x, k - z - x))
        for z in range(k + 1)
        for x in range(1, k - z + 1)
    ]
    classes = [row for row in classes if row[3] > 0.0]
    columns = list(zip(*classes)) or [(), (), (), ()]
    table = _ClassTable(
        *(np.asarray(column, dtype=np.int64) for column in columns[:3]),
        np.asarray(columns[3], dtype=np.float64),
    )
    for column in table:
        column.flags.writeable = False
    return table


def _compiled_draw(
    theta: Initiator,
    k: int,
    generators: list[np.random.Generator],
    keys_only: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's draw of one sample per (distinct) generator.

    Part 1 of the draw contract is one vectorised binomial per sample
    over the class table (the same binomials, in the same order, as the
    oracle's scalar loop); part 2 runs inside the kernel,
    on each generator's bitgen, under its lock.  ``(keys, rows)`` as
    :func:`repro.native.sampling.draw_batch` returns them.
    """
    table = _class_table(theta.a, theta.b, theta.c, k)
    counts = [rng.binomial(table.sizes, table.probabilities) for rng in generators]
    return draw_batch(
        SAMPLER_KERNEL.kernel(), k, table.z, table.x, table.sizes,
        counts, generators, keys_only=keys_only,
    )


def _count_batch(
    theta: Initiator, k: int, generators: list[np.random.Generator]
) -> list[tuple[int, MatchingStatistics]]:
    """Count one sample per (distinct) generator in one kernel call."""
    if not generators:
        return []
    rows = _compiled_draw(theta, k, generators)[1]
    return [
        (edges, MatchingStatistics(float(edges), float(hairpins), float(tripins),
                                   float(triangles)))
        for edges, hairpins, tripins, triangles in rows.tolist()
    ]
