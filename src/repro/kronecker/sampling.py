"""Exact sampling of undirected stochastic Kronecker graphs.

Two samplers, both drawing from the *exact* product-Bernoulli distribution
of Definition 3.4 with the paper's undirected semantics (zero diagonal,
each unordered pair {u, v} an independent edge with probability
``P[u, v] = ∏ᵢ Θ[uᵢ, vᵢ]``):

* :func:`sample_skg_naive` — materialises each row of P (O(N²) time); the
  reference implementation, usable to k ≈ 12.
* :func:`sample_skg` — **grass-hopping**: for a 2×2 symmetric initiator the
  probability of pair (u, v) depends only on the *bit-pattern profile*
  ``(z, x, o)`` = (#levels where both bits are 0, #levels where they
  differ, #levels where both are 1), because ``P[u,v] = a^z b^x c^o``.
  There are only ``C(k+2, 2)`` profiles; per profile the edge count is
  Binomial(#pairs, probability) and the chosen pairs are uniform without
  replacement within the profile class.  Expected time O(E + k²), exact
  for every k.  (Leskovec's widely used "ball dropping" generator is only
  approximate; this sampler is not.)

``sample_skg`` executes behind the ``REPRO_KERNEL_BACKEND`` knob like the
counting pass and the Metropolis chain: the pure-Python reference engine
defined here, or the compiled-C kernel of :mod:`repro.native.sampling`.
Both engines make the same draws (the draw contract documented there)
and run the same Floyd selection + combination unranking, so the sampled
graph is **bit-identical** across engines for every seed.

:func:`sample_skg_statistics_batch` makes the same draws per seed and
returns only each sample's matching statistics {E, H, T, Δ}, which is
what ``/sample``, ``/release``, ensembles and the scenario statistics
measure need; :func:`sample_skg_statistics` is its batch of one.  The
compiled engine serves graphs and statistics through one function
(``_compiled_draw``): numpy draws each sample's class counts with one
vectorised ``binomial`` over the (Θ, k) class table, then one kernel
call, holding each generator's lock, draws the uniforms from the
sample's own generator and selects the pairs — in keys-only mode for
:func:`sample_skg`, in counts mode, a whole batch at once and without
building a :class:`Graph`, for the statistics.  The per-sample Python
draw loop (``_draw_classes``) and ``_reference_select`` stay as the
numpy oracle.

Both samplers agree in distribution; tests check profile-class counts and
expected statistics across thousands of draws.
"""

from __future__ import annotations

import functools
from math import comb
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.native.sampling import (
    SAMPLER_KERNEL,
    choose_table,
    draw_batch,
    resolve_sampler_backend,
)
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = [
    "sample_skg",
    "sample_skg_statistics",
    "sample_skg_statistics_batch",
    "sample_skg_naive",
    "profile_class_size",
    "pair_probability",
]

_NAIVE_LIMIT_K = 12


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


def sample_skg(
    initiator, k: int, seed: SeedLike = None, backend: str | None = None
) -> Graph:
    """Draw one undirected SKG on ``2^k`` nodes by exact grass-hopping.

    ``backend`` selects the pair-selection engine (``auto``/``numpy``/
    ``cext``; default: the ``REPRO_KERNEL_BACKEND`` environment knob) —
    the sampled graph is bit-identical across engines for any seed.
    """
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    rng = as_generator(seed)
    engine = resolve_sampler_backend(backend)
    n = 2**k
    if engine == "numpy":
        draw = _draw_classes(theta, k, rng)
        if draw is None:
            return Graph(n)
        keys = _reference_select(k, draw, choose_table(k))
    else:
        keys = _compiled_draw(engine, theta, k, [rng], keys_only=True)[0]
        if keys.size == 0:
            return Graph(n)
    # Keys within a class are distinct and classes are disjoint, so one
    # global sort yields canonical edge arrays directly: the key
    # (u << k) | v with u < v orders exactly like the lexicographic (u, v)
    # pair, which lets the trusted constructor skip re-canonicalization.
    keys = np.sort(keys)
    u = (keys >> np.int64(k)).astype(np.int64)
    v = (keys & np.int64(n - 1)).astype(np.int64)
    return Graph._from_canonical(n, u, v)


def sample_skg_statistics(
    initiator, k: int, seed: SeedLike = None, backend: str | None = None
) -> tuple[int, MatchingStatistics]:
    """``(n_edges, matching statistics)`` of one :func:`sample_skg` draw.

    The batch of one of :func:`sample_skg_statistics_batch`: the
    generator ends where :func:`sample_skg` leaves it, and the result
    equals ``matching_statistics(sample_skg(initiator, k, seed))``
    exactly.
    """
    return sample_skg_statistics_batch(initiator, k, [seed], backend=backend)[0]


def sample_skg_statistics_batch(
    initiator, k: int, seeds: Sequence[SeedLike], backend: str | None = None
) -> list[tuple[int, MatchingStatistics]]:
    """``[sample_skg_statistics(initiator, k, seed) for seed in seeds]``.

    Each seed's draws, rows and generator end state are those of its own
    :func:`sample_skg` call, but the compiled engine counts {E, H, T, Δ}
    inside the sampler kernel without building any :class:`Graph`, and
    counts the whole batch in one call that releases the interpreter
    lock throughout: numpy draws each sample's class counts with one
    vectorised ``binomial`` over the class table, then the kernel draws
    its uniforms from the sample's generator.  A generator that occurs
    twice in ``seeds`` starts a new call, so its draws keep the per-seed
    order.  The numpy engine is the per-seed composition
    ``matching_statistics(sample_skg(...))`` itself, the oracle the
    kernel is tested against.
    """
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    engine = resolve_sampler_backend(backend)
    if engine == "numpy":
        rows = []
        for seed in seeds:
            graph = sample_skg(theta, k, seed=seed, backend=engine)
            rows.append((graph.n_edges, matching_statistics(graph)))
        return rows
    rows = []
    run: list[np.random.Generator] = []
    for rng in map(as_generator, seeds):
        if any(rng is earlier for earlier in run):
            rows.extend(_count_batch(engine, theta, k, run))
            run = []
        run.append(rng)
    rows.extend(_count_batch(engine, theta, k, run))
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
    and zero-probability ones (:func:`_draw_classes` skips those before
    any draw).  Built once per (Θ, k)."""
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
    engine: str,
    theta: Initiator,
    k: int,
    generators: list[np.random.Generator],
    keys_only: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The compiled engine's draw of one sample per (distinct) generator.

    Part 1 of the draw contract is one vectorised binomial per sample
    over the class table (the same binomials, in the same order, as
    :func:`_draw_classes`' scalar loop); part 2 runs inside the kernel,
    on each generator's bitgen, under its lock.  ``(keys, rows)`` as
    :func:`repro.native.sampling.draw_batch` returns them.
    """
    table = _class_table(theta.a, theta.b, theta.c, k)
    counts = [rng.binomial(table.sizes, table.probabilities) for rng in generators]
    return draw_batch(
        SAMPLER_KERNEL.kernel(engine), k, table.z, table.x, table.sizes,
        counts, generators, keys_only=keys_only,
    )


def _count_batch(
    engine: str, theta: Initiator, k: int, generators: list[np.random.Generator]
) -> list[tuple[int, MatchingStatistics]]:
    """Count one sample per (distinct) generator in one kernel call."""
    if not generators:
        return []
    rows = _compiled_draw(engine, theta, k, generators)[1]
    return [
        (edges, MatchingStatistics(float(edges), float(hairpins), float(tripins),
                                   float(triangles)))
        for edges, hairpins, tripins, triangles in rows.tolist()
    ]


def _reference_select(k: int, draw: _ClassDraw, choose: np.ndarray) -> np.ndarray:
    """The numpy reference engine: Floyd selection + unranking per class.

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
    keep ``k`` ≤ 12.  It stays as the exact oracle that
    ``benchmarks/bench_sampler.py`` and the sampler tests compare the
    grass-hopping :func:`sample_skg` against.
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
