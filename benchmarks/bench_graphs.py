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
  speedup over the measured sizes;
* **the CSR build vs scipy** — :attr:`Graph.csr` on a cold copy of the
  graph (its degree count included) against the scipy COO→CSR build it
  replaced, outputs checked equal; floor ``CSR_FLOOR``, asserted on full
  runs, on the smallest speedup;
* **import footprint** — the peak RSS and ``len(sys.modules)`` of a fresh
  interpreter that imports the estimator, KronFit and the server, and of
  one that then imports the scipy modules the figure statistics load.

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
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.graphs.datasets import dataset_info, graph_digest, load_dataset
from repro.graphs.graph import Graph, _canonicalize_edges

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.
SCHEMA_VERSION = 2

OUT_PATH = Path(__file__).parent / "out" / "BENCH_graphs.json"
SEED = 20120330
CANONICALIZE_FLOOR = 3.0
CSR_FLOOR = 1.2
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PIPELINE_MODULES = ("repro.core.estimator", "repro.kronecker.kronfit", "repro.serve.server")
SCIPY_MODULES = ("scipy.sparse.csgraph", "scipy.sparse.linalg")

# Each build is checked against the digest its DatasetSpec pins.
STANDINS = ("ca-grqc", "as20", "ca-hepth")
EDGE_ARRAY_GRAPHS = ("ca-grqc", "skg-k18")
QUICK_EDGE_ARRAY_GRAPHS = ("ca-grqc",)


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


def unique_oracle(
    raw_u: np.ndarray, raw_v: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalization as it was written with ``np.unique``."""
    u = np.minimum(raw_u, raw_v)
    v = np.maximum(raw_u, raw_v)
    keep = u != v
    key = np.unique(u[keep] * np.int64(n_nodes) + v[keep])
    return key // np.int64(n_nodes), key % np.int64(n_nodes)


def scipy_csr_oracle(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency's CSR arrays as scipy's COO→CSR build made them."""
    import scipy.sparse as sp

    u, v = graph.edge_arrays
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    n = graph.n_nodes
    adjacency = sp.csr_array((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    return adjacency.indptr, adjacency.indices


def bench_csr(name: str, repeats: int) -> dict:
    graph = load_dataset(name)

    def cold_copy_csr() -> tuple[np.ndarray, np.ndarray]:
        return Graph._from_canonical(graph.n_nodes, *graph.edge_arrays).csr

    identical = all(
        np.array_equal(built, expected)
        for built, expected in zip(cold_copy_csr(), scipy_csr_oracle(graph))
    )
    if not identical:
        raise AssertionError(f"{name}: Graph.csr differs from the scipy COO→CSR oracle")
    numpy_build, scipy_build = timed([cold_copy_csr, lambda: scipy_csr_oracle(graph)], repeats)
    return {
        "dataset": name,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "bit_identical": True,
        "graph_csr": summarize(numpy_build),
        "scipy_coo_oracle": summarize(scipy_build),
        "speedup": statistics.median(scipy_build) / statistics.median(numpy_build),
    }


# The child reads its own high-water mark (VmHWM): ru_maxrss would carry
# over the RSS of the bench process that spawned it.
FOOTPRINT_PROBE = """
import json, sys
{imports}
with open("/proc/self/status") as status:
    hwm = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({{"peak_rss_mib": hwm / 1024, "modules": len(sys.modules),
                  "scipy": "scipy" in sys.modules}}))
"""


def import_footprint(modules: tuple[str, ...]) -> dict:
    """Peak RSS and module count of a fresh interpreter importing ``modules``."""
    code = FOOTPRINT_PROBE.format(imports="\n".join(f"import {name}" for name in modules))
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


def bench_import_footprint(repeats: int) -> dict:
    rows = {}
    for label, modules in (
        ("pipeline", PIPELINE_MODULES),
        ("pipeline_then_scipy", PIPELINE_MODULES + SCIPY_MODULES),
    ):
        runs = [import_footprint(modules) for _ in range(repeats)]
        rows[label] = {
            "modules": list(modules),
            "peak_rss_mib": statistics.median(run["peak_rss_mib"] for run in runs),
            "sys_modules": statistics.median(run["modules"] for run in runs),
            "scipy_loaded": runs[0]["scipy"],
            "samples": len(runs),
        }
    return rows


def bench_standin(name: str, repeats: int) -> dict:
    spec = dataset_info(name)
    graphs: list[Graph] = []

    def build() -> None:
        graphs.append(spec.builder(np.random.default_rng(spec.default_seed)))

    (seconds,) = timed([build], repeats)
    digests = {graph_digest(graph) for graph in graphs}
    if digests != {spec.digest}:
        raise AssertionError(f"{name} stand-in digests {digests} != {spec.digest}")
    return {
        "dataset": name,
        "n_nodes": graphs[0].n_nodes,
        "n_edges": graphs[0].n_edges,
        "digest": spec.digest,
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

    new_u, new_v = _canonicalize_edges(raw_u, raw_v, n)
    old_u, old_v = unique_oracle(raw_u, raw_v, n)
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
        [lambda: _canonicalize_edges(raw_u, raw_v, n), lambda: unique_oracle(raw_u, raw_v, n)],
        repeats,
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
    for name in STANDINS:
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
    csr_rows = []
    for name in names:
        row = bench_csr(name, repeats)
        csr_rows.append(row)
        print(
            f"{name:10s} E={row['n_edges']:7d}  Graph.csr "
            f"{row['graph_csr']['median_ms']:7.2f} ms vs scipy COO→CSR "
            f"{row['scipy_coo_oracle']['median_ms']:7.2f} ms ({row['speedup']:.2f}x)"
        )
    csr_measured = min(row["speedup"] for row in csr_rows)
    footprint = bench_import_footprint(3)
    for label, row in footprint.items():
        print(
            f"import {label:20s} peak RSS {row['peak_rss_mib']:6.1f} MiB, "
            f"{row['sys_modules']:4d} modules, scipy loaded: {row['scipy_loaded']}"
        )
    report = {
        "bench": "bench_graphs",
        "schema_version": SCHEMA_VERSION,
        "quick": arguments.quick,
        "repeats": repeats,
        "standins": standins,
        "edge_arrays": rows,
        "canonicalize_floor": {"required": CANONICALIZE_FLOOR, "measured": measured},
        "csr": csr_rows,
        "csr_floor": {"required": CSR_FLOOR, "measured": csr_measured},
        "import_footprint": footprint,
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
        assert csr_measured >= CSR_FLOOR, (
            f"CSR build speedup {csr_measured:.2f}x is below the {CSR_FLOOR}x floor"
        )
        print(f"floor: CSR build {csr_measured:.2f}x >= {CSR_FLOOR}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
