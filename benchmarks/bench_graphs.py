"""EXP-G1 — the load-graph stage: stand-in builds and edge canonicalization.

The paper's pipeline starts with "load graph".  With no SNAP files on
disk, every fresh process builds the stand-ins (Holme–Kim for CA-GrQC and
CA-HepTh, Barabási–Albert for AS20; see :mod:`repro.graphs.datasets`),
and every fit workload copies its graph through
:meth:`Graph.from_edge_arrays`.  This bench records:

* **stand-in builds** — wall-clock of each stand-in's registered builder
  at its default seed (generator plus trim to the paper's edge count),
  with the edge digest checked against its pinned value, so a faster
  build that changed a graph fails here;
* **``Graph.from_edge_arrays``** — at ca-grqc and skg-k18 size, on the
  canonical arrays (the per-op copy a fit workload makes) and on a
  shuffled, half-mirrored copy (a generator's raw edge list);
* **canonicalization vs ``np.unique``** — ``_canonicalize_edges`` (sort
  plus a neighbour mask) against the ``np.unique`` formulation it
  replaced, on the shuffled input, outputs checked equal.  The floor
  (``CANONICALIZE_FLOOR``, asserted on full runs) is the smallest
  speedup over the measured sizes.

Each timing is a median over ``--repeats`` runs, with the minimum and the
sample count beside it; the two canonicalizations alternate run by run.
Results go to ``benchmarks/out/BENCH_graphs.json``;
``tests/test_bench_artifacts.py`` keeps it in sync with this script.

Run directly (no pytest needed)::

    python benchmarks/bench_graphs.py            # full matrix, asserts floor
    python benchmarks/bench_graphs.py --quick    # CI smoke subset
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.graphs.datasets import dataset_info, load_dataset
from repro.graphs.graph import Graph, _canonicalize_edges

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.
SCHEMA_VERSION = 1

OUT_PATH = Path(__file__).parent / "out" / "BENCH_graphs.json"
SEED = 20120330
CANONICALIZE_FLOOR = 3.0

# The stand-ins' edge digests at their default seeds (sha256 of the node
# count and the canonical edge arrays, first 16 hex digits).
STANDIN_DIGESTS = {
    "ca-grqc": "c01f90c943e87ca2",
    "as20": "3d5bbe2ae597a288",
    "ca-hepth": "a465b4181bb176fb",
}
EDGE_ARRAY_GRAPHS = ("ca-grqc", "skg-k18")
QUICK_EDGE_ARRAY_GRAPHS = ("ca-grqc",)


def graph_digest(graph: Graph) -> str:
    u, v = graph.edge_arrays
    hasher = hashlib.sha256(str(graph.n_nodes).encode())
    hasher.update(u.tobytes())
    hasher.update(v.tobytes())
    return hasher.hexdigest()[:16]


def summarize(seconds: list[float]) -> dict:
    return {
        "median_ms": statistics.median(seconds) * 1e3,
        "min_ms": min(seconds) * 1e3,
        "samples": len(seconds),
    }


def timed(fns, repeats: int) -> list[list[float]]:
    """Wall-clock seconds of each of ``fns`` per repeat, taken in turn."""
    seconds: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            seconds[index].append(time.perf_counter() - start)
    return seconds


def unique_oracle(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalization as it was written with ``np.unique``."""
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    key = np.unique(u[keep] * np.int64(n_nodes) + v[keep])
    return key // np.int64(n_nodes), key % np.int64(n_nodes)


def bench_standin(name: str, repeats: int) -> dict:
    spec = dataset_info(name)
    graphs: list[Graph] = []

    def build() -> None:
        graphs.append(spec.builder(np.random.default_rng(spec.default_seed)))

    (seconds,) = timed([build], repeats)
    digests = {graph_digest(graph) for graph in graphs}
    if digests != {STANDIN_DIGESTS[name]}:
        raise AssertionError(f"{name} stand-in digests {digests} != {STANDIN_DIGESTS[name]}")
    return {
        "dataset": name,
        "n_nodes": graphs[0].n_nodes,
        "n_edges": graphs[0].n_edges,
        "digest": STANDIN_DIGESTS[name],
        "build": summarize(seconds),
    }


def bench_edge_arrays(name: str, repeats: int) -> dict:
    graph = load_dataset(name)
    n, (u, v) = graph.n_nodes, graph.edge_arrays
    rng = np.random.default_rng(SEED)
    order = rng.permutation(u.size)
    mirrored = rng.random(u.size) < 0.5
    raw_u = np.where(mirrored, v, u)[order]
    raw_v = np.where(mirrored, u, v)[order]
    raw = np.column_stack([raw_u, raw_v])

    new_u, new_v = _canonicalize_edges(raw, n)
    old_u, old_v = unique_oracle(raw, n)
    identical = (
        np.array_equal(new_u, old_u)
        and np.array_equal(new_v, old_v)
        and Graph.from_edge_arrays(n, raw_u, raw_v) == graph
    )
    if not identical:
        raise AssertionError(f"{name}: canonicalization differs from the np.unique oracle")
    canonical, shuffled = timed(
        [lambda: Graph.from_edge_arrays(n, u, v), lambda: Graph.from_edge_arrays(n, raw_u, raw_v)],
        repeats,
    )
    by_sort, by_unique = timed(
        [lambda: _canonicalize_edges(raw, n), lambda: unique_oracle(raw, n)], repeats
    )
    return {
        "dataset": name,
        "n_nodes": n,
        "n_edges": graph.n_edges,
        "from_edge_arrays": {
            "canonical_input": summarize(canonical),
            "shuffled_input": summarize(shuffled),
        },
        "canonicalize": {
            "bit_identical": True,
            "sort": summarize(by_sort),
            "np_unique_oracle": summarize(by_unique),
            "speedup": statistics.median(by_unique) / statistics.median(by_sort),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset (ca-grqc edge arrays only); skips the floor assertion",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timed runs per row")
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "JSON output path (default: benchmarks/out/BENCH_graphs.json; "
            "quick runs default to BENCH_graphs_quick.json)"
        ),
    )
    arguments = parser.parse_args(argv)
    if arguments.out is None:
        arguments.out = str(
            OUT_PATH.with_name("BENCH_graphs_quick.json") if arguments.quick else OUT_PATH
        )
    repeats = arguments.repeats or (3 if arguments.quick else 11)

    standins = []
    for name in STANDIN_DIGESTS:
        row = bench_standin(name, repeats)
        standins.append(row)
        print(
            f"{name:10s} n={row['n_nodes']:6d} E={row['n_edges']:6d}  build "
            f"{row['build']['median_ms']:7.1f} ms (min {row['build']['min_ms']:.1f})"
        )
    rows = []
    names = QUICK_EDGE_ARRAY_GRAPHS if arguments.quick else EDGE_ARRAY_GRAPHS
    for name in names:
        row = bench_edge_arrays(name, repeats)
        rows.append(row)
        copies = row["from_edge_arrays"]
        canonicalize = row["canonicalize"]
        print(
            f"{name:10s} E={row['n_edges']:7d}  from_edge_arrays "
            f"{copies['canonical_input']['median_ms']:7.2f} ms canonical, "
            f"{copies['shuffled_input']['median_ms']:7.2f} ms shuffled;  canonicalize "
            f"{canonicalize['sort']['median_ms']:7.2f} ms vs np.unique "
            f"{canonicalize['np_unique_oracle']['median_ms']:7.2f} ms "
            f"({canonicalize['speedup']:.1f}x)"
        )
    measured = min(row["canonicalize"]["speedup"] for row in rows)
    report = {
        "bench": "bench_graphs",
        "schema_version": SCHEMA_VERSION,
        "quick": arguments.quick,
        "repeats": repeats,
        "standins": standins,
        "edge_arrays": rows,
        "canonicalize_floor": {"required": CANONICALIZE_FLOOR, "measured": measured},
    }
    out_path = Path(arguments.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[written to {out_path}]")
    if not arguments.quick:
        assert measured >= CANONICALIZE_FLOOR, (
            f"canonicalization speedup {measured:.1f}x is below the "
            f"{CANONICALIZE_FLOOR}x floor"
        )
        print(f"floor: canonicalization {measured:.1f}x >= {CANONICALIZE_FLOOR}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
