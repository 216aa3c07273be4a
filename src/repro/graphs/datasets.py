"""Named dataset registry for the paper's experiments.

The paper evaluates on three SNAP graphs (CA-GrQC, CA-HepTh, AS20) and one
synthetic stochastic Kronecker graph.  This environment has no network
access, so the registry serves *stand-ins* built by our own generators with
the same node and edge counts and the same qualitative structure
(DESIGN.md §4 explains why each substitution preserves the behaviour the
experiments measure).  If the real SNAP edge lists are available locally,
point ``REPRO_DATA_DIR`` at a directory containing ``<name>.txt`` or
``<name>.txt.gz`` files and they will be used instead.

All stand-ins are deterministically seeded: ``load_dataset`` called twice
with default arguments returns equal graphs, whose :func:`graph_digest`
each :class:`DatasetSpec` pins.  A default graph's *fingerprint* is that
digest, or the sha256 of its ``REPRO_DATA_DIR`` file: ``repro serve``
binds charges to :func:`dataset_fingerprint` (no graph built) and checks
:func:`load_fingerprinted` (the graph and what it was built from).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import DatasetError
from repro.graphs.graph import Graph
from repro.graphs.generators import barabasi_albert_graph, powerlaw_cluster_graph
from repro.graphs.io import read_edge_list, read_hashed_edge_list
from repro.knobs import knob
from repro.utils.rng import SeedLike, as_generator

__all__ = ["DatasetSpec", "available_datasets", "dataset_fingerprint", "dataset_info",
           "graph_digest", "load_dataset", "load_fingerprinted"]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one experiment dataset.

    Attributes
    ----------
    name:
        Registry key (lower-case, as used by :func:`load_dataset`).
    paper_nodes, paper_edges:
        The size the paper reports for the original SNAP graph; stand-ins
        match both exactly.
    description:
        Human-readable provenance, including the substitution note.
    kind:
        ``"standin"`` or ``"synthetic"`` — the synthetic Kronecker graph is
        not a substitution, it is exactly the paper's construction.
    default_seed:
        Seed used when the caller does not supply one, so the default
        experiment graphs are stable across runs.
    digest:
        :func:`graph_digest` of the graph built at ``default_seed``.
    """

    name: str
    paper_nodes: int
    paper_edges: int
    description: str
    kind: str
    default_seed: int
    digest: str
    builder: Callable[[np.random.Generator], Graph] = field(repr=False)


def _build_ca_grqc(rng: np.random.Generator) -> Graph:
    # Triad-formation probability near 1 pushes the stand-in's average
    # clustering towards the real CA-GrQC's unusually high value.
    graph = powerlaw_cluster_graph(5242, 6, 1.0, rng)
    return _trim_to_edge_count(graph, 28980, rng)


def _build_ca_hepth(rng: np.random.Generator) -> Graph:
    graph = powerlaw_cluster_graph(9877, 6, 0.9, rng)
    return _trim_to_edge_count(graph, 51971, rng)


def _build_as20(rng: np.random.Generator) -> Graph:
    graph = barabasi_albert_graph(6474, 5, rng)
    return _trim_to_edge_count(graph, 26467, rng)


def _build_skg_at(k: int) -> Callable[[np.random.Generator], Graph]:
    # The paper's initiator at order k: its synthetic test at k = 14, and
    # the large-k scale axis (ROADMAP open item 1) far beyond it.  The
    # grass-hopping sampler is O(E + k²), so even k=20 (10⁶ nodes, ~2·10⁶
    # edges) builds in seconds with the fused kernels.
    def build(rng: np.random.Generator) -> Graph:
        # Imported here to keep repro.graphs free of a hard dependency on the
        # Kronecker package at import time (the layering is graphs <- kronecker).
        from repro.kronecker.initiator import Initiator
        from repro.kronecker.sampling import sample_skg

        return sample_skg(Initiator(0.99, 0.45, 0.25), k, seed=rng)

    return build


def _large_k_spec(k: int, default_seed: int, digest: str) -> DatasetSpec:
    return DatasetSpec(
        name=f"skg-k{k}",
        paper_nodes=2**k,
        paper_edges=-1,  # a random quantity, as with synthetic-kronecker
        description=(
            f"Large-scale stochastic Kronecker graph: the paper's initiator "
            f"[[0.99, 0.45], [0.45, 0.25]] at k = {k} ({2**k} nodes) — the "
            "beyond-paper scale axis for estimator cross-checks."
        ),
        kind="synthetic",
        default_seed=default_seed,
        digest=digest,
        builder=_build_skg_at(k),
    )


_REGISTRY: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="ca-grqc",
            paper_nodes=5242,
            paper_edges=28980,
            description=(
                "Stand-in for SNAP CA-GrQC (arXiv General Relativity "
                "co-authorship). Holme-Kim powerlaw-cluster graph: heavy-tailed "
                "degrees plus high clustering, trimmed to the paper's edge count."
            ),
            kind="standin",
            default_seed=1202,
            digest="c01f90c943e87ca2",
            builder=_build_ca_grqc,
        ),
        DatasetSpec(
            name="ca-hepth",
            paper_nodes=9877,
            paper_edges=51971,
            description=(
                "Stand-in for SNAP CA-HepTh (arXiv High Energy Physics Theory "
                "co-authorship). Holme-Kim powerlaw-cluster graph, trimmed to "
                "the paper's edge count."
            ),
            kind="standin",
            default_seed=1203,
            digest="a465b4181bb176fb",
            builder=_build_ca_hepth,
        ),
        DatasetSpec(
            name="as20",
            paper_nodes=6474,
            paper_edges=26467,
            description=(
                "Stand-in for SNAP as20000102 (autonomous-systems router "
                "topology). Barabasi-Albert preferential attachment: "
                "hub-dominated core-periphery, low clustering, trimmed to the "
                "paper's edge count."
            ),
            kind="standin",
            default_seed=1204,
            digest="3d5bbe2ae597a288",
            builder=_build_as20,
        ),
        DatasetSpec(
            name="synthetic-kronecker",
            paper_nodes=2**14,
            paper_edges=-1,  # a random quantity in the paper as well
            description=(
                "The paper's synthetic test: a stochastic Kronecker graph "
                "sampled from initiator [[0.99, 0.45], [0.45, 0.25]] with "
                "k = 14 (16384 nodes). No substitution needed."
            ),
            kind="synthetic",
            default_seed=1205,
            digest="b13439ac12d6c16b",
            builder=_build_skg_at(14),
        ),
        _large_k_spec(16, default_seed=1216, digest="9dc0f0a10f3b8428"),
        _large_k_spec(18, default_seed=1218, digest="96c5083215f951b0"),
        _large_k_spec(20, default_seed=1220, digest="6d087a9e705e19a5"),
    ]
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`, in experiment order."""
    return list(_REGISTRY)


def dataset_info(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` for ``name`` (raises DatasetError if unknown)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise DatasetError(f"unknown dataset {name!r}; known datasets: {known}") from None


def graph_digest(graph: Graph) -> str:
    """Content hash of a graph: sha256 of its node count and canonical
    edge arrays, first 16 hex digits."""
    u, v = graph.edge_arrays
    hasher = hashlib.sha256(str(graph.n_nodes).encode())
    hasher.update(u.tobytes())
    hasher.update(v.tobytes())
    return hasher.hexdigest()[:16]


def load_dataset(name: str, seed: SeedLike = None) -> Graph:
    """Load (or deterministically generate) a named experiment graph.

    If ``REPRO_DATA_DIR`` contains a real SNAP edge list for ``name`` it is
    read from disk; otherwise the registered stand-in builder runs with
    ``seed`` (default: the spec's fixed seed, for run-to-run stability).
    """
    spec = dataset_info(name)
    source = _data_source(spec.name)
    if seed is None:
        return _load_default(spec.name, source)[0]
    if source is not None:
        return read_edge_list(source[0])[0]
    return spec.builder(as_generator(seed))


def load_fingerprinted(name: str) -> tuple[Graph, str]:
    """The default graph of ``name`` and the fingerprint of what it was
    built from: the sha256 of the file bytes parsed, else its digest."""
    spec = dataset_info(name)
    graph, sha256 = _load_default(spec.name, _data_source(spec.name))
    return graph, sha256 or _standin_digest(spec.name)


def dataset_fingerprint(name: str) -> str:
    """:func:`load_fingerprinted`'s fingerprint, without building the graph."""
    spec = dataset_info(name)
    source = _data_source(spec.name)
    return spec.digest if source is None else _file_sha256(*source)


@lru_cache(maxsize=16)
def _load_default(name: str, source: tuple | None) -> tuple[Graph, str | None]:
    # The common default-seed path is memoized: Graph is immutable and
    # the trial engine (repro.runtime) loads datasets once per trial,
    # which would otherwise rebuild the same graph repeatedly.  A data
    # file's path, size and mtime are the key, so a changed file (or a
    # monkeypatched REPRO_DATA_DIR) is never served stale; the bound
    # drops the graphs of replaced files.
    if source is not None:
        graph, _labels, sha256 = read_hashed_edge_list(source[0])
        return graph, sha256
    spec = dataset_info(name)
    return spec.builder(as_generator(spec.default_seed)), None


@lru_cache(maxsize=None)
def _standin_digest(name: str) -> str:
    return graph_digest(_load_default(name, None)[0])


@lru_cache(maxsize=32)
def _file_sha256(path: str, _size: int, _mtime_ns: int) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _data_source(name: str) -> tuple[str, int, int] | None:
    """``(path, size, mtime_ns)`` of ``name``'s ``REPRO_DATA_DIR`` file, if any."""
    data_dir = knob("REPRO_DATA_DIR")
    if data_dir is None:
        return None
    for suffix in (".txt", ".txt.gz"):
        path = Path(data_dir) / f"{name}{suffix}"
        if path.exists():
            stat = path.stat()
            return str(path), stat.st_size, stat.st_mtime_ns
    return None


def _trim_to_edge_count(graph: Graph, target_edges: int, rng: np.random.Generator) -> Graph:
    """Delete uniform random edges until exactly ``target_edges`` remain.

    The generators' edge counts are set by their integer attachment
    parameter, so they land a few percent above the paper's counts; uniform
    deletion preserves the degree-distribution shape while matching the
    reported sizes exactly.
    """
    if graph.n_edges < target_edges:
        raise DatasetError(
            f"generator produced {graph.n_edges} edges, below target {target_edges}; "
            "the registry parameters must overshoot so trimming can hit the target"
        )
    if graph.n_edges == target_edges:
        return graph
    u, v = graph.edge_arrays
    keep = rng.choice(graph.n_edges, size=target_edges, replace=False)
    return Graph.from_edge_arrays(graph.n_nodes, u[keep], v[keep])
