"""Graph substrate: immutable undirected simple graphs plus IO and generators.

This package is the foundation everything else builds on.  The central type
is :class:`repro.graphs.Graph`, a CSR-backed undirected simple graph.  The
submodules provide:

* :mod:`repro.graphs.io` — SNAP-style edge-list reading and writing,
* :mod:`repro.graphs.generators` — classic random-graph models used for the
  stand-in datasets and for tests,
* :mod:`repro.graphs.datasets` — the named dataset registry used by the
  experiments (see DESIGN.md for the SNAP substitutions),
* :mod:`repro.graphs.operations` — node padding to a power of two.
"""

from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list, parse_edge_list
from repro.graphs.generators import (
    erdos_renyi_graph,
    barabasi_albert_graph,
    powerlaw_cluster_graph,
    configuration_model_graph,
    star_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    empty_graph,
)
from repro.graphs.datasets import available_datasets, load_dataset, dataset_info
from repro.graphs.operations import pad_to_power_of_two

__all__ = [
    "Graph",
    "read_edge_list",
    "write_edge_list",
    "parse_edge_list",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "powerlaw_cluster_graph",
    "configuration_model_graph",
    "star_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "empty_graph",
    "available_datasets",
    "load_dataset",
    "dataset_info",
    "pad_to_power_of_two",
]
