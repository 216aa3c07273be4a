"""Golden pins for the stand-in graphs and the generators that build them.

The digests are perfbench's ``graph_digest`` (sha256 of the node count and
the canonical edge arrays, first 16 hex digits).  A change to a generator's
draw order, to its set iteration, or to edge canonicalization moves them.
The end states pin that a build makes exactly the draws it made before.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import datasets
from repro.graphs.datasets import available_datasets, dataset_info, load_dataset
from repro.graphs.graph import Graph
from repro.graphs.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    gnm_random_graph,
    powerlaw_cluster_graph,
)


def graph_digest(graph) -> str:
    u, v = graph.edge_arrays
    hasher = hashlib.sha256(str(graph.n_nodes).encode())
    hasher.update(u.tobytes())
    hasher.update(v.tobytes())
    return hasher.hexdigest()[:16]


def pcg64_end_state(rng: np.random.Generator) -> tuple[int, int, int]:
    state = rng.bit_generator.state
    return state["state"]["state"], state["has_uint32"], state["uinteger"]


# name -> (digest at the default seed, PCG64 end state of the builder's rng)
STANDINS = {
    "ca-grqc": ("c01f90c943e87ca2", (62790242368457713612874066340127631577, 0, 2622982509)),
    "as20": ("3d5bbe2ae597a288", (104689509466146130404346472023465634852, 0, 2724076549)),
    "ca-hepth": ("a465b4181bb176fb", (131021854663875548149785063962178513325, 1, 977153734)),
}

# label -> (build from an rng, digest at seed 31, edges, PCG64 end state)
GENERATORS = {
    "barabasi-albert": (
        lambda rng: barabasi_albert_graph(2000, 4, rng),
        "c6b845a7a87a69b6",
        7984,
        (276587243797657013455504948028520309212, 0, 1201744823),
    ),
    "holme-kim": (
        lambda rng: powerlaw_cluster_graph(2000, 5, 0.6, rng),
        "98e9cc428fcdbc43",
        9975,
        (217709682145173826612880914189013389342, 1, 356073286),
    ),
    "gnm-sparse": (
        lambda rng: gnm_random_graph(5000, 3000, rng),
        "5cefcaee86976b89",
        3000,
        (175792932652361827066178032208197773574, 1, 2978386283),
    ),
    "gnp-sparse": (
        lambda rng: erdos_renyi_graph(4000, 0.0005, rng),
        "d4e7c3f97a2d31a6",
        4068,
        (95477238527768140054898182917295960888, 1, 2650304387),
    ),
}


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_default_standin_digest(name):
    assert graph_digest(load_dataset(name)) == STANDINS[name][0]
    assert dataset_info(name).digest == STANDINS[name][0]


@pytest.mark.parametrize("name", available_datasets())
def test_spec_digest_is_the_default_graphs(name):
    """Each spec pins its default graph's digest, which is the fingerprint
    a default load reports (the one ``repro serve`` binds charges to)."""
    graph = load_dataset(name)
    assert datasets.graph_digest(graph) == graph_digest(graph) == dataset_info(name).digest
    assert datasets.load_fingerprinted(name) == (graph, dataset_info(name).digest)
    assert datasets.dataset_fingerprint(name) == dataset_info(name).digest


@pytest.mark.parametrize("name", sorted(STANDINS))
def test_standin_builder_end_state(name):
    spec = dataset_info(name)
    rng = np.random.default_rng(spec.default_seed)
    graph = spec.builder(rng)
    assert graph_digest(graph) == STANDINS[name][0]
    assert pcg64_end_state(rng) == STANDINS[name][1]


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ca-grqc", "1c8ae224b89e7141"),
        ("as20", "4bd57f81bf056de9"),
        ("ca-hepth", "1fb51dc7be8cee95"),
    ],
)
def test_explicit_seed_standin_digest(name, digest):
    assert graph_digest(load_dataset(name, seed=7)) == digest


@pytest.mark.parametrize("label", sorted(GENERATORS))
def test_generator_golden(label):
    build, digest, n_edges, end_state = GENERATORS[label]
    rng = np.random.default_rng(31)
    graph = build(rng)
    assert graph.n_edges == n_edges
    assert graph_digest(graph) == digest
    assert pcg64_end_state(rng) == end_state


# -- the growth models against their numpy-scalar loops ------------------------------


def reference_barabasi_albert(n: int, m: int, rng: np.random.Generator) -> Graph:
    """The BA loop drawing through numpy's scalar ``integers``: the oracle."""
    edges = [(i, m) for i in range(m)]
    repeated = [node for edge in edges for node in edge]
    for new_node in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(0, len(repeated)))])
        for target in targets:
            edges.append((new_node, target))
            repeated += (new_node, target)
    return Graph(n, edges)


def reference_powerlaw_cluster(n: int, m: int, p: float, rng: np.random.Generator) -> Graph:
    """The Holme–Kim loop with its filtered candidate list and numpy's
    scalar draws: the oracle."""
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    repeated: list[int] = []

    def add_edge(a: int, b: int) -> None:
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
        repeated.extend((a, b))

    for i in range(m):
        add_edge(i, m)
    for new_node in range(m + 1, n):
        first = repeated[int(rng.integers(0, len(repeated)))]
        while first == new_node:
            first = repeated[int(rng.integers(0, len(repeated)))]
        new_links = {first}
        previous = first
        while len(new_links) < m:
            if rng.random() < p:
                candidates = [
                    w for w in neighbor_sets[previous] if w != new_node and w not in new_links
                ]
                if candidates:
                    choice = candidates[int(rng.integers(0, len(candidates)))]
                    new_links.add(choice)
                    previous = choice
                    continue
            pick = repeated[int(rng.integers(0, len(repeated)))]
            if pick != new_node and pick not in new_links:
                new_links.add(pick)
                previous = pick
        for target in new_links:
            add_edge(new_node, target)
    return Graph(n, [(a, b) for a in range(n) for b in neighbor_sets[a] if a < b])


@st.composite
def growth_params(draw):
    n = draw(st.integers(min_value=2, max_value=120))
    m = draw(st.integers(min_value=1, max_value=min(n - 1, 8)))
    p = draw(st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0))
    return n, m, p, draw(st.integers(min_value=0, max_value=2**32))


@given(growth_params())
@settings(max_examples=60, deadline=None)
def test_barabasi_albert_matches_the_scalar_loop(params):
    n, m, _p, seed = params
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert barabasi_albert_graph(n, m, rng) == reference_barabasi_albert(n, m, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@given(growth_params())
@settings(max_examples=60, deadline=None)
def test_powerlaw_cluster_matches_the_scalar_loop(params):
    n, m, p, seed = params
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    assert powerlaw_cluster_graph(n, m, p, rng) == reference_powerlaw_cluster(n, m, p, twin)
    assert rng.bit_generator.state == twin.bit_generator.state
