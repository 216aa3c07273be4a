"""Every kept graph statistic against networkx, over one zoo of graphs.

The per-module tests pin hand-counted values on a few tiny graphs and
compare with networkx on one Erdős–Rényi draw.  This matrix runs each
statistic over graphs with isolated nodes, several components, regular
and heavy-tailed degrees, and a padded and an SKG-sampled graph, with
networkx (or a brute force over its adjacency) as the oracle.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from repro.graphs import Graph
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    configuration_model_graph,
    cycle_graph,
    erdos_renyi_graph,
    gnm_random_graph,
    path_graph,
    powerlaw_cluster_graph,
    star_graph,
)
from repro.graphs.operations import pad_to_power_of_two
from repro.kronecker.sampling import sample_skg
from repro.stats import (
    average_clustering,
    clustering_by_degree,
    count_triangles,
    count_tripins,
    count_wedges,
    degree_assortativity,
    degree_distribution,
    hop_plot,
    local_clustering,
    max_common_neighbors,
    singular_values,
    triangles_per_node,
)

networkx = pytest.importorskip("networkx")

ZOO = {
    "path-7": lambda: path_graph(7),
    "cycle-9": lambda: cycle_graph(9),
    "star-8": lambda: star_graph(8),
    "complete-6": lambda: complete_graph(6),
    "triangles-and-isolates": lambda: Graph(
        9, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (6, 7)]
    ),
    "er-60": lambda: erdos_renyi_graph(60, 0.1, seed=1),
    "gnm-90": lambda: gnm_random_graph(90, 200, seed=2),
    "ba-80": lambda: barabasi_albert_graph(80, 3, seed=3),
    "holme-kim-80": lambda: powerlaw_cluster_graph(80, 3, 0.5, seed=4),
    "configuration-70": lambda: configuration_model_graph(
        np.random.default_rng(5).integers(1, 9, size=70) * 2, seed=5
    ),
    "padded-er-50": lambda: pad_to_power_of_two(erdos_renyi_graph(50, 0.08, seed=6))[0],
    "skg-k7": lambda: sample_skg([[0.99, 0.55], [0.55, 0.35]], 7, seed=7),
}


@pytest.fixture(params=list(ZOO), ids=list(ZOO))
def pair(request):
    """``(graph, its networkx twin)`` for one zoo entry."""
    graph = ZOO[request.param]()
    return graph, graph.to_networkx()


def _networkx_degrees(nx_graph) -> np.ndarray:
    return np.array([d for _, d in sorted(nx_graph.degree())], dtype=np.int64)


def test_edges_and_degrees(pair):
    graph, nx_graph = pair
    assert graph.n_edges == nx_graph.number_of_edges()
    assert graph.edge_set() == {(min(e), max(e)) for e in nx_graph.edges()}
    np.testing.assert_array_equal(graph.degrees, _networkx_degrees(nx_graph))
    for node in nx_graph:
        np.testing.assert_array_equal(
            graph.neighbors(node), sorted(nx_graph.neighbors(node))
        )


def test_dense_adjacency(pair):
    graph, nx_graph = pair
    expected = networkx.to_numpy_array(nx_graph, nodelist=range(graph.n_nodes))
    np.testing.assert_array_equal(graph.to_dense(), expected)
    np.testing.assert_array_equal(graph.adjacency.toarray(), expected)


def test_triangles(pair):
    graph, nx_graph = pair
    per_node = networkx.triangles(nx_graph)
    np.testing.assert_array_equal(
        triangles_per_node(graph), [per_node[v] for v in range(graph.n_nodes)]
    )
    assert count_triangles(graph) == sum(per_node.values()) // 3


def test_wedges_and_tripins_are_stars_of_the_oracle_degrees(pair):
    graph, nx_graph = pair
    degrees = _networkx_degrees(nx_graph)
    assert count_wedges(graph) == sum(int(d) * (int(d) - 1) // 2 for d in degrees)
    assert count_tripins(graph) == sum(
        int(d) * (int(d) - 1) * (int(d) - 2) // 6 for d in degrees
    )


def test_max_common_neighbors_by_brute_force(pair):
    graph, nx_graph = pair
    expected = max(
        (
            len(list(networkx.common_neighbors(nx_graph, a, b)))
            for a, b in itertools.combinations(range(graph.n_nodes), 2)
        ),
        default=0,
    )
    assert max_common_neighbors(graph) == expected


def test_local_and_average_clustering(pair):
    graph, nx_graph = pair
    expected = networkx.clustering(nx_graph)
    np.testing.assert_allclose(
        local_clustering(graph),
        [expected[v] for v in range(graph.n_nodes)],
        rtol=0,
        atol=1e-12,
    )
    assert average_clustering(graph) == pytest.approx(
        networkx.average_clustering(nx_graph), abs=1e-12
    )


def test_clustering_by_degree(pair):
    graph, nx_graph = pair
    coefficients = networkx.clustering(nx_graph)
    by_degree: dict[int, list[float]] = {}
    for node, degree in nx_graph.degree():
        if degree >= 2:
            by_degree.setdefault(degree, []).append(coefficients[node])
    degrees, means = clustering_by_degree(graph)
    np.testing.assert_array_equal(degrees, sorted(by_degree))
    np.testing.assert_allclose(
        means, [np.mean(by_degree[d]) for d in sorted(by_degree)], rtol=0, atol=1e-12
    )


def test_degree_distribution(pair):
    graph, nx_graph = pair
    histogram = networkx.degree_histogram(nx_graph)
    present = [d for d, count in enumerate(histogram) if count]
    values, counts = degree_distribution(graph, include_zero=True)
    np.testing.assert_array_equal(values, present)
    np.testing.assert_array_equal(counts, [histogram[d] for d in present])


def test_degree_assortativity(pair):
    graph, nx_graph = pair
    ours = degree_assortativity(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        theirs = networkx.degree_assortativity_coefficient(nx_graph)
    if np.isnan(theirs):
        assert np.isnan(ours)
    else:
        assert ours == pytest.approx(theirs, abs=1e-9)


def test_exact_hop_plot(pair):
    graph, nx_graph = pair
    lengths = [
        distance
        for _, row in networkx.all_pairs_shortest_path_length(nx_graph)
        for distance in row.values()
    ]
    expected = np.cumsum(np.bincount(lengths))
    hops, pairs = hop_plot(graph)
    np.testing.assert_array_equal(hops, np.arange(expected.size))
    np.testing.assert_array_equal(pairs, expected)


def test_leading_singular_values(pair):
    graph, nx_graph = pair
    adjacency = networkx.to_numpy_array(nx_graph, nodelist=range(graph.n_nodes))
    expected = np.sort(np.abs(np.linalg.eigvalsh(adjacency)))[::-1]
    k = 5
    np.testing.assert_allclose(
        singular_values(graph, k=k), expected[:k], rtol=1e-9, atol=1e-9
    )
