"""Random and deterministic graph generators.

These serve two roles in the reproduction:

* **Stand-in datasets.**  With no network access to SNAP, the experiment
  harness builds structurally similar graphs (DESIGN.md §4): Holme–Kim
  powerlaw-cluster graphs for the co-authorship networks and a
  Barabási–Albert graph for the AS router topology.
* **Test workloads.**  Property-based tests drive the statistics and
  privacy modules with Erdős–Rényi and configuration-model graphs whose
  expected statistics are known analytically.

All generators take an explicit ``seed`` (see :mod:`repro.utils.rng`) and
return :class:`repro.graphs.Graph` values.  Implementations are our own —
networkx appears only in tests, as an oracle.

The two growth models draw through :class:`repro.utils.rng.ScalarDraws`,
holding the generator's lock for the whole build; each states its draw
contract, which tests/graphs/test_standin_goldens.py pins.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph, sorted_unique
from repro.utils.rng import ScalarDraws, SeedLike, as_generator
from repro.utils.validation import check_in_unit_interval, check_integer

__all__ = [
    "erdos_renyi_graph",
    "gnm_random_graph",
    "barabasi_albert_graph",
    "powerlaw_cluster_graph",
    "configuration_model_graph",
    "star_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "empty_graph",
]

# Above this node count, G(n, p) switches from materialising the full upper
# triangle to sampling a binomial edge count + uniform distinct pairs.
_DENSE_GNP_LIMIT = 3000


def erdos_renyi_graph(n: int, p: float, seed: SeedLike = None) -> Graph:
    """Sample G(n, p): every unordered pair is an edge independently w.p. ``p``.

    Exact for all ``n``: small graphs enumerate all pairs; large graphs draw
    ``m ~ Binomial(C(n,2), p)`` and then ``m`` distinct uniform pairs, which
    yields the identical distribution.
    """
    n = check_integer(n, "n", minimum=0)
    p = check_in_unit_interval(p, "p")
    rng = as_generator(seed)
    if n < 2 or p == 0.0:
        return Graph(n)
    total_pairs = n * (n - 1) // 2
    if p == 1.0:
        return complete_graph(n)
    if n <= _DENSE_GNP_LIMIT:
        rows, cols = np.triu_indices(n, k=1)
        mask = rng.random(rows.size) < p
        return Graph.from_edge_arrays(n, rows[mask], cols[mask])
    m = int(rng.binomial(total_pairs, p))
    return gnm_random_graph(n, m, rng)


def gnm_random_graph(n: int, m: int, seed: SeedLike = None) -> Graph:
    """Sample G(n, m): ``m`` distinct edges uniformly among all pairs."""
    n = check_integer(n, "n", minimum=0)
    m = check_integer(m, "m", minimum=0)
    total_pairs = n * (n - 1) // 2
    if m > total_pairs:
        raise ValidationError(f"m={m} exceeds the {total_pairs} possible edges")
    rng = as_generator(seed)
    if m == 0:
        return Graph(n)
    if m > total_pairs // 2 or total_pairs <= 4 * m:
        # Dense regime: shuffle the full pair list.
        rows, cols = np.triu_indices(n, k=1)
        chosen = rng.choice(total_pairs, size=m, replace=False)
        return Graph.from_edge_arrays(n, rows[chosen], cols[chosen])
    # Sparse regime: rejection-sample distinct pair keys.  Collect at least m
    # distinct keys, then keep a uniform m-subset — by symmetry over pairs
    # this realises the uniform distribution over m-edge graphs.
    keys: np.ndarray = np.empty(0, dtype=np.int64)
    while keys.size < m:
        need = m - keys.size
        u = rng.integers(0, n, size=2 * need + 8, dtype=np.int64)
        v = rng.integers(0, n, size=2 * need + 8, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        fresh = lo[lo != hi] * np.int64(n) + hi[lo != hi]
        keys = sorted_unique(np.concatenate([keys, fresh]))
    if keys.size > m:
        keys = rng.choice(keys, size=m, replace=False)
    return Graph.from_edge_arrays(n, keys // n, keys % n)


def barabasi_albert_graph(n: int, m: int, seed: SeedLike = None) -> Graph:
    """Barabási–Albert preferential attachment with ``m`` edges per new node.

    Starts from a star on ``m + 1`` nodes; each arriving node attaches to
    ``m`` distinct existing nodes chosen proportionally to degree (the
    classic repeated-endpoints implementation).  Produces the hub-dominated,
    low-clustering topology used as the AS20 stand-in.

    Draw contract: per arriving node, ``below(len(repeated))`` picks
    endpoints until ``m`` distinct targets are in a set, whose iteration
    order appends the node's edges.  Nothing else is drawn.
    """
    n = check_integer(n, "n", minimum=1)
    m = check_integer(m, "m", minimum=1)
    if m >= n:
        raise ValidationError(f"m={m} must be < n={n}")
    # Endpoint multiset (in pairs, the edge list): each edge contributes both
    # endpoints, giving degree-proportional sampling by uniform choice.
    repeated: list[int] = [node for i in range(m) for node in (i, m)]
    with ScalarDraws(as_generator(seed)) as draws:
        below = draws.below
        for new_node in range(m + 1, n):
            targets: set[int] = set()
            while len(targets) < m:
                targets.add(repeated[below(len(repeated))])
            for target in targets:
                repeated += (new_node, target)
    return Graph(n, np.array(repeated, dtype=np.int64).reshape(-1, 2))


def powerlaw_cluster_graph(n: int, m: int, p: float, seed: SeedLike = None) -> Graph:
    """Holme–Kim powerlaw-cluster graph: BA growth plus triad formation.

    Each arriving node makes ``m`` links; after the first (preferential)
    link, each subsequent link is, with probability ``p``, a *triad
    formation* step (attach to a random neighbour of the previous target,
    closing a triangle) and otherwise another preferential link.  This
    yields heavy-tailed degrees *and* high clustering — the structure of
    co-authorship networks, hence the CA-GrQC/CA-HepTh stand-in.

    Draw contract, per arriving node: ``below(len(repeated))`` picks the
    first link; each further step draws ``random()``, and below ``p``
    ``below(count)`` picks among the previous target's unlinked neighbours in
    its set order (if it has any), else ``below(len(repeated))`` picks an
    endpoint, kept if unlinked.  The link set's order appends the edges.
    """
    n = check_integer(n, "n", minimum=1)
    m = check_integer(m, "m", minimum=1)
    p = check_in_unit_interval(p, "p")
    if m >= n:
        raise ValidationError(f"m={m} must be < n={n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []  # the endpoint multiset, as in the BA model

    for i in range(m):
        neighbor_sets[i].add(m)
        neighbor_sets[m].add(i)
        repeated += (i, m)
    with ScalarDraws(as_generator(seed)) as draws:
        below, random = draws.below, draws.random
        for new_node in range(m + 1, n):
            previous = repeated[below(len(repeated))]
            new_links = {previous}
            while len(new_links) < m:
                if random() < p:
                    # A uniform pick among the neighbours not yet linked: an
                    # index into the set's order, stepped past linked ones.
                    neighbours = neighbor_sets[previous]
                    members = list(neighbours)
                    linked = sorted(map(members.index, neighbours & new_links))
                    if len(members) > len(linked):
                        index = below(len(members) - len(linked))
                        for position in linked:  # ascending
                            index += position <= index
                        previous = members[index]
                        new_links.add(previous)
                        continue
                pick = repeated[below(len(repeated))]
                if pick not in new_links:
                    new_links.add(pick)
                    previous = pick
            for target in new_links:
                neighbor_sets[new_node].add(target)
                neighbor_sets[target].add(new_node)
                repeated += (new_node, target)
    return Graph(n, np.array(repeated, dtype=np.int64).reshape(-1, 2))


def configuration_model_graph(degrees: np.ndarray, seed: SeedLike = None) -> Graph:
    """Erased configuration model for a target degree sequence.

    Stubs are shuffled and paired; self-loops and parallel edges are then
    erased, so realised degrees can fall slightly below the targets for
    heavy-tailed sequences.  The degree sum must be even.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.ndim != 1:
        raise ValidationError("degrees must be a 1-D sequence")
    if degrees.size and degrees.min() < 0:
        raise ValidationError("degrees must be non-negative")
    total = int(degrees.sum())
    if total % 2 != 0:
        raise ValidationError(f"degree sum must be even, got {total}")
    rng = as_generator(seed)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    u = stubs[0::2]
    v = stubs[1::2]
    if u.size == 0:
        return Graph(int(degrees.size))
    return Graph.from_edge_arrays(int(degrees.size), u, v)


def star_graph(n: int) -> Graph:
    """Star on ``n`` nodes: node 0 joined to all others."""
    n = check_integer(n, "n", minimum=1)
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` nodes."""
    n = check_integer(n, "n", minimum=0)
    if n < 2:
        return Graph(n)
    rows, cols = np.triu_indices(n, k=1)
    return Graph.from_edge_arrays(n, rows, cols)


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` nodes (n >= 3)."""
    n = check_integer(n, "n", minimum=3)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    """Path on ``n`` nodes."""
    n = check_integer(n, "n", minimum=1)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def empty_graph(n: int) -> Graph:
    """Graph with ``n`` nodes and no edges."""
    n = check_integer(n, "n", minimum=0)
    return Graph(n)
