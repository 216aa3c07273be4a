"""EXP-K1 — the counting kernel vs the pre-PR full-product path.

Measures the combined per-trial statistics path (the triangle count Δ,
the local sensitivity LS_Δ, and the local clustering coefficients) on
stochastic Kronecker draws of increasing order and on the experiment
datasets, comparing

* **baseline** — the pre-kernel implementations (the oracles of
  :mod:`repro.reference.counting`), which materialize the full sparse
  product ``A @ A`` once per consumer: three products per trial;
* **kernels** — the single-pass engine behind the per-graph
  :class:`~repro.stats.kernels.StatsContext`: one fused kernel call per
  graph, shared by every consumer.

On top of the combined path, each workload records the pass itself two
ways — the ``scipy`` SpGEMM oracle
(:func:`repro.reference.counting.scipy_pass`) versus the fused
compiled-C ``cext`` kernel — each timed on the same graph and checked
bit-identical.

Counts must be bit-identical; the k=14 draw must show a >= 3x wall-clock
speedup on the combined path, and a >= 2x pass speedup of the fused
kernel over the scipy pass.

The sampler rows time the grass-hopping sampler's kernel against its
Python oracle (:mod:`repro.reference.sampling`).  The isotonic rows
time the degree release's PAVA pass — the kernel against the numpy
oracle of :mod:`repro.reference.isotonic` — on noisy sorted degree
sequences of as20's length (6,474) and k=18's (262,144).  Results must
be bit-identical, and the kernel must be >= 10x faster at both.

The KronMom rows time ``KronMomEstimator.fit_statistics`` on Algorithm
1's noisy release of as20 and ca-grqc, with the refinement on the
compiled Nelder–Mead kernel and on the oracle,
:class:`~repro.reference.kronmom.ReferenceKronMomEstimator`.  Fits must be
bit-identical (initiator, objective, restarts), and the compiled engine
must make the whole fit >= 5x faster at both.  Results (wall-clock,
tracemalloc peaks, and the process peak-RSS trajectory) are written to
``benchmarks/out/BENCH_stats.json`` so the gains are recorded artifacts.

Run directly (no pytest needed)::

    python benchmarks/bench_stats.py            # full matrix, asserts floors
    python benchmarks/bench_stats.py --quick    # CI smoke subset
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core.estimator import PrivateKroneckerEstimator
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronmom import KronMomEstimator
from repro.kronecker.sampling import sample_skg
from repro.privacy.isotonic import isotonic_regression
from repro.reference.counting import (
    reference_count_triangles,
    reference_max_common_neighbors,
    reference_triangles_per_node,
    scipy_pass,
)
from repro.reference.isotonic import reference_isotonic_regression
from repro.reference.kronmom import ReferenceKronMomEstimator
from repro.reference.sampling import reference_sample_skg
from repro.stats.clustering import local_clustering
from repro.stats.counts import MatchingStatistics, count_triangles, max_common_neighbors
from repro.stats.kernels import triangle_pass

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.  2 = added schema_version itself (the
# PR 3 layout was the unversioned v1); 3 = added the large-k scale rows
# (native grass-hopping sampler trajectory + KronMom at k ∈ {16, 18, 20});
# 4 = dropped the per-workload "parallel" trajectory and the top-level
# "block_size" provenance key (the pass is serial, its block size auto);
# 5 = added the isotonic (PAVA) rows and their floor; 6 = added the KronMom
# refinement rows and their floor; 7 = dropped "auto_n_blocks" and
# "kernel_block256_peak_bytes" (the pass is one kernel call over all rows).
SCHEMA_VERSION = 7

OUT_PATH = Path(__file__).parent / "out" / "BENCH_stats.json"
THETA = Initiator(0.99, 0.45, 0.25)  # the paper's synthetic initiator
SEED = 20120330
SPEEDUP_FLOOR = 3.0
SPEEDUP_WORKLOAD = "skg-k14"
# Fused kernels must beat the scipy pass by this factor on the
# floor workload (pass-vs-pass, not the combined consumer path).
FUSED_SPEEDUP_FLOOR = 2.0

# The large-k scale rows (PR 8): the native grass-hopping sampler and the
# KronMom moment fit at orders far beyond the paper's k=14.  The fused
# sampler must beat the numpy reference selection loop by >= 2x on the
# k=18 draw (~4.4 * 10^5 edges); measured values land near 25x.
LARGE_K_ORDERS = (16, 18, 20)
LARGE_K_QUICK_ORDERS = (16,)
SAMPLER_SPEEDUP_FLOOR = 2.0
SAMPLER_FLOOR_K = 18

# The isotonic rows: the degree release's PAVA input at the served
# dataset's length and at k=18's.  The compiled twin must beat the numpy
# oracle by >= 10x at every measured length.
ISOTONIC_WORKLOADS = ("as20", "skg-k18")
ISOTONIC_QUICK_WORKLOADS = ("as20",)
ISOTONIC_SPEEDUP_FLOOR = 10.0
# Lap(2/ε) at the paper's degree-release share ε/2 = 0.1.
ISOTONIC_NOISE_SCALE = 20.0

# The KronMom rows: fit_statistics on Algorithm 1's noisy release of each
# dataset.  With the compiled Nelder–Mead refinement the whole fit must be
# >= 5x faster than with the numpy oracle (the grid stage is numpy on both).
KRONMOM_WORKLOADS = ("as20", "ca-grqc")
KRONMOM_QUICK_WORKLOADS = ("as20",)
KRONMOM_SPEEDUP_FLOOR = 5.0


def baseline_combined(graph: Graph):
    """The pre-PR per-trial path: three independent full A @ A products."""
    triangles = reference_count_triangles(graph)
    sensitivity = reference_max_common_neighbors(graph)
    per_node = reference_triangles_per_node(graph)
    degrees = graph.degrees.astype(np.float64)
    possible = degrees * (degrees - 1.0) / 2.0
    clustering = np.zeros(graph.n_nodes, dtype=np.float64)
    eligible = possible > 0
    clustering[eligible] = per_node.astype(np.float64)[eligible] / possible[eligible]
    return triangles, sensitivity, clustering


def kernel_combined(graph: Graph):
    """The same path through the memoized kernel: one A² pass."""
    return (
        count_triangles(graph),
        max_common_neighbors(graph),
        local_clustering(graph),
    )


def fresh_copy(graph: Graph) -> Graph:
    """A new Graph instance over the same canonical arrays (cold caches)."""
    clone = Graph._from_canonical(graph.n_nodes, *graph.edge_arrays)
    clone.csr  # warm the shared structures both paths start from
    clone.degrees
    return clone


def time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak(fn) -> int:
    """Peak tracemalloc footprint (bytes) of one invocation of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def max_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def bench_backends(graph: Graph, repeats: int) -> dict:
    """Pass-vs-pass: the scipy SpGEMM oracle vs the fused kernel, timed
    on the same warm graph, the kernel checked bit-identical."""
    expected, result = scipy_pass(graph), triangle_pass(graph)
    if (result.triangles, result.max_common_neighbors) != (
        expected.triangles, expected.max_common_neighbors
    ) or not np.array_equal(result.per_node, expected.per_node):
        raise AssertionError("the fused kernel diverges from the scipy pass")
    records = {
        "scipy": {"available": True, "seconds": time_best(lambda: scipy_pass(graph), repeats)},
        "cext": {"available": True, "seconds": time_best(lambda: triangle_pass(graph), repeats)},
    }
    for record in records.values():
        record["speedup_vs_scipy"] = records["scipy"]["seconds"] / record["seconds"]
    return records


def bench_large_k(k: int, repeats: int) -> dict:
    """One large-k scale row: the sampler against its oracle + KronMom fit.

    The kernel draws the same seed as the oracle and is checked
    bit-identical against it (the contract the sampler equivalence
    matrix pins); the oracle's selection loop is O(E) Python, so it is
    timed with fewer repeats at the largest orders.
    """
    seed = SEED + k
    reference = reference_sample_skg(THETA, k, seed=seed)
    reference_repeats = 1 if k >= 20 else max(2, repeats // 2)
    graph = sample_skg(THETA, k, seed=seed)
    identical = graph.n_edges == reference.n_edges and all(
        np.array_equal(got, want)
        for got, want in zip(graph.edge_arrays, reference.edge_arrays)
    )
    if not identical:
        raise AssertionError(f"the sampler kernel diverges from its oracle at k={k}")
    engines: dict[str, dict] = {
        "numpy": {
            "available": True,
            "seconds": time_best(
                lambda: reference_sample_skg(THETA, k, seed=seed), reference_repeats
            ),
        },
        "cext": {
            "available": True,
            "bit_identical": True,
            "seconds": time_best(lambda: sample_skg(THETA, k, seed=seed), repeats),
        },
    }
    for record in engines.values():
        record["speedup_vs_numpy"] = engines["numpy"]["seconds"] / record["seconds"]

    estimator = KronMomEstimator()
    kronmom_seconds = time_best(
        lambda: estimator.fit(reference), max(2, repeats // 2)
    )
    fitted = estimator.fit(reference).initiator
    return {
        "k": k,
        "n_nodes": reference.n_nodes,
        "n_edges": reference.n_edges,
        "sampler": engines,
        "kronmom_seconds": kronmom_seconds,
        "kronmom_initiator": [fitted.a, fitted.b, fitted.c],
    }


def isotonic_input(name: str) -> np.ndarray:
    """A noisy sorted degree sequence: the degree release's PAVA input."""
    if name == "as20":
        graph = load_dataset("as20")
    else:
        graph = sample_skg(THETA, 18, seed=SEED + 18)
    degrees = np.sort(graph.degrees).astype(np.float64)
    noise = np.random.default_rng(SEED).laplace(0.0, ISOTONIC_NOISE_SCALE, degrees.size)
    return degrees + noise


def bench_engines(oracle, run, fingerprint, repeats: int, label: str) -> dict:
    """The numpy oracle ``oracle()`` (fewer repeats: it is interpreted
    Python) and the kernel ``run()``, whose ``fingerprint`` must equal
    the oracle's."""
    if fingerprint(run()) != fingerprint(oracle()):
        raise AssertionError(f"the {label} kernel diverges from its oracle")
    engines = {
        "numpy": {"available": True, "seconds": time_best(oracle, max(2, repeats // 2))},
        "cext": {"available": True, "bit_identical": True, "seconds": time_best(run, repeats)},
    }
    for record in engines.values():
        record["speedup_vs_numpy"] = engines["numpy"]["seconds"] / record["seconds"]
    return engines


def bench_isotonic(name: str, repeats: int) -> dict:
    """One isotonic row: the kernel and its oracle on the noisy degree
    sequence."""
    values = isotonic_input(name)
    engines = bench_engines(
        lambda: reference_isotonic_regression(values), lambda: isotonic_regression(values),
        lambda result: result.tobytes(), repeats, f"isotonic {name}",
    )
    return {"workload": name, "n": int(values.size), "engines": engines}


def kronmom_input(name: str) -> tuple[MatchingStatistics, int]:
    """Algorithm 1's noisy statistics of a dataset (ε = 0.2, δ = 0.01),
    as it hands them to KronMom, and the Kronecker order."""
    estimate = PrivateKroneckerEstimator(0.2, 0.01, seed=SEED).fit(load_dataset(name))
    return estimate.moment_result.observed, estimate.k


def bench_kronmom(name: str, repeats: int) -> dict:
    """One KronMom row: the Nelder–Mead refinement kernel and its oracle,
    timed on the whole ``fit_statistics`` (grid stage included)."""
    observed, k = kronmom_input(name)
    estimator, oracle = KronMomEstimator(), ReferenceKronMomEstimator()
    engines = bench_engines(
        lambda: oracle.fit_statistics(observed, k),
        lambda: estimator.fit_statistics(observed, k),
        lambda result: (result.initiator, result.objective, result.n_restarts),
        repeats, f"kronmom {name}",
    )
    return {"workload": name, "k": k, "observed": list(observed), "engines": engines}


def _engine_floor(rows: list[dict], required: float) -> dict:
    """The fastest compiled engine's *smallest* speedup over the rows."""
    entry = {
        "workloads": [row["workload"] for row in rows],
        "required": required,
        "backend": None,
        "measured": None,
    }
    fused = {
        backend: min(row["engines"][backend]["speedup_vs_numpy"] for row in rows)
        for backend in ("cext",)
        if rows and all(row["engines"][backend].get("available") for row in rows)
    }
    if fused:
        entry["backend"] = max(fused, key=fused.get)
        entry["measured"] = fused[entry["backend"]]
    return entry


def _sampler_floor(large_k_rows: list[dict]) -> dict:
    """The fastest fused sampler engine's speedup on the floor order."""
    entry = {
        "k": SAMPLER_FLOOR_K,
        "required": SAMPLER_SPEEDUP_FLOOR,
        "backend": None,
        "measured": None,
    }
    row = next((r for r in large_k_rows if r["k"] == SAMPLER_FLOOR_K), None)
    if row is None:
        return entry
    fused = {
        backend: record["speedup_vs_numpy"]
        for backend, record in row["sampler"].items()
        if backend != "numpy" and record.get("available")
    }
    if fused:
        entry["backend"] = max(fused, key=fused.get)
        entry["measured"] = fused[entry["backend"]]
    return entry


def bench_workload(name: str, graph: Graph, repeats: int) -> dict:
    graph.csr
    graph.degrees

    # Bit-identity first: the speedup is meaningless if the counts moved.
    base_tri, base_ls, base_clust = baseline_combined(graph)
    kernel_graph = fresh_copy(graph)
    kern_tri, kern_ls, kern_clust = kernel_combined(kernel_graph)
    identical = (
        base_tri == kern_tri
        and base_ls == kern_ls
        and np.array_equal(base_clust, kern_clust)
    )
    if not identical:
        raise AssertionError(f"{name}: the kernel diverges from the references")

    baseline_seconds = time_best(lambda: baseline_combined(graph), repeats)
    # One cold-cache copy per repeat, prepared outside the timer: both
    # paths start from a warm adjacency/degrees (the baseline reuses
    # ``graph``'s), so the timings isolate the statistics work itself.
    copies = iter([fresh_copy(graph) for _ in range(repeats)])
    kernel_seconds = time_best(lambda: kernel_combined(next(copies)), repeats)

    baseline_peak = traced_peak(lambda: baseline_combined(graph))
    kernel_peak = traced_peak(lambda: kernel_combined(fresh_copy(graph)))

    degrees = graph.degrees
    record = {
        "workload": name,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "wedges": int((degrees * (degrees - 1) // 2).sum()),
        "triangles": int(base_tri),
        "max_common_neighbors": int(base_ls),
        "baseline_seconds": baseline_seconds,
        "kernel_seconds": kernel_seconds,
        "speedup": baseline_seconds / kernel_seconds,
        "baseline_peak_bytes": baseline_peak,
        "kernel_peak_bytes": kernel_peak,
        "counts_identical": identical,
        "backends": bench_backends(graph, repeats),
    }
    return record


def build_workloads(quick: bool):
    orders = (10,) if quick else (10, 12, 14)
    datasets = ("as20",) if quick else ("ca-grqc", "as20")
    for k in orders:
        yield f"skg-k{k}", sample_skg(THETA, k, seed=SEED)
    for dataset in datasets:
        yield dataset, load_dataset(dataset)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset (skg-k10 + as20); skips the 3x floor assertion",
    )
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats")
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "JSON output path (default: benchmarks/out/BENCH_stats.json; "
            "quick runs default to BENCH_stats_quick.json so they never "
            "overwrite the committed full-matrix artifact)"
        ),
    )
    arguments = parser.parse_args(argv)
    if arguments.out is None:
        arguments.out = str(
            OUT_PATH.with_name("BENCH_stats_quick.json") if arguments.quick else OUT_PATH
        )

    results = []
    rss_trajectory = [{"phase": "start", "max_rss_kb": max_rss_kb()}]
    for name, graph in build_workloads(arguments.quick):
        record = bench_workload(name, graph, arguments.repeats)
        rss_trajectory.append({"phase": name, "max_rss_kb": max_rss_kb()})
        results.append(record)
        print(
            f"{name:12s} E={record['n_edges']:>7d} wedges={record['wedges']:>9d} "
            f"baseline {record['baseline_seconds'] * 1000:7.1f} ms  "
            f"kernels {record['kernel_seconds'] * 1000:7.1f} ms  "
            f"speedup {record['speedup']:.2f}x  bit-identical={record['counts_identical']}"
        )
        for backend, entry in record["backends"].items():
            if entry.get("available"):
                print(
                    f"{'':12s}   pass[{backend}] {entry['seconds'] * 1000:7.2f} ms "
                    f"({entry['speedup_vs_scipy']:.2f}x vs scipy)"
                )
            else:
                print(f"{'':12s}   pass[{backend}] unavailable: {entry['reason']}")

    large_k_rows = []
    for k in LARGE_K_QUICK_ORDERS if arguments.quick else LARGE_K_ORDERS:
        row = bench_large_k(k, arguments.repeats)
        rss_trajectory.append({"phase": f"large-k{k}", "max_rss_kb": max_rss_kb()})
        large_k_rows.append(row)
        print(
            f"skg-k{k:<8d} E={row['n_edges']:>8d} "
            f"kronmom {row['kronmom_seconds'] * 1000:7.1f} ms"
        )
        for backend, entry in row["sampler"].items():
            if entry.get("available"):
                print(
                    f"{'':12s}   sample[{backend}] {entry['seconds'] * 1000:8.1f} ms "
                    f"({entry['speedup_vs_numpy']:.2f}x vs numpy)"
                )
            else:
                print(f"{'':12s}   sample[{backend}] unavailable: {entry['reason']}")

    engine_rows = {}
    for label, bench, names in (
        ("isotonic", bench_isotonic,
         ISOTONIC_QUICK_WORKLOADS if arguments.quick else ISOTONIC_WORKLOADS),
        ("kronmom", bench_kronmom,
         KRONMOM_QUICK_WORKLOADS if arguments.quick else KRONMOM_WORKLOADS),
    ):
        engine_rows[label] = [bench(name, arguments.repeats) for name in names]
        for row in engine_rows[label]:
            for backend, entry in row["engines"].items():
                tag = f"{label}-{row['workload']}"
                if entry.get("available"):
                    print(
                        f"{tag:16s} [{backend}] {entry['seconds'] * 1000:8.2f} ms "
                        f"({entry['speedup_vs_numpy']:.2f}x vs numpy)"
                    )
                else:
                    print(f"{tag:16s} [{backend}] unavailable: {entry['reason']}")
    isotonic_rows, kronmom_rows = engine_rows["isotonic"], engine_rows["kronmom"]

    floor_record = next(
        (r for r in results if r["workload"] == SPEEDUP_WORKLOAD), None
    )
    fused_floor = _fused_floor(floor_record)
    sampler_floor = _sampler_floor(large_k_rows)
    isotonic_floor = _engine_floor(isotonic_rows, ISOTONIC_SPEEDUP_FLOOR)
    kronmom_floor = _engine_floor(kronmom_rows, KRONMOM_SPEEDUP_FLOOR)
    report = {
        "bench": "bench_stats",
        "schema_version": SCHEMA_VERSION,
        "quick": arguments.quick,
        "repeats": arguments.repeats,
        "combined_path": "triangles + local sensitivity + local clustering",
        # The engine the combined path ran on, and the two paths timed.
        "kernel_backend": "cext",
        "kernel_backends_available": ["scipy", "cext"],
        "speedup_floor": {
            "workload": SPEEDUP_WORKLOAD,
            "required": SPEEDUP_FLOOR,
            "measured": floor_record["speedup"] if floor_record else None,
        },
        "fused_speedup_floor": fused_floor,
        "sampler_speedup_floor": sampler_floor,
        "isotonic_speedup_floor": isotonic_floor,
        "kronmom_speedup_floor": kronmom_floor,
        "workloads": results,
        "large_k": large_k_rows,
        "isotonic": isotonic_rows,
        "kronmom": kronmom_rows,
        "rss_trajectory_kb": rss_trajectory,
    }
    out_path = Path(arguments.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[written to {out_path}]")

    for label, floor in (("isotonic pass", isotonic_floor),
                         ("KronMom refinement", kronmom_floor)):
        if floor["backend"] is None:
            print(f"no compiled {label} backend available on this host; floor not asserted")
            continue
        assert floor["measured"] >= floor["required"], (
            f"compiled {label} {floor['backend']} is only {floor['measured']:.2f}x "
            f"over the numpy oracle (floor: {floor['required']}x)"
        )
        print(f"{label} ({floor['backend']}) {floor['measured']:.2f}x >= "
              f"{floor['required']}x floor")

    if floor_record is not None:
        measured = floor_record["speedup"]
        assert measured >= SPEEDUP_FLOOR, (
            f"{SPEEDUP_WORKLOAD} combined-path speedup {measured:.2f}x "
            f"is below the {SPEEDUP_FLOOR}x floor"
        )
        print(f"{SPEEDUP_WORKLOAD} speedup {measured:.2f}x >= {SPEEDUP_FLOOR}x floor")
        if fused_floor["backend"] is not None:
            assert fused_floor["measured"] >= FUSED_SPEEDUP_FLOOR, (
                f"fused backend {fused_floor['backend']} is only "
                f"{fused_floor['measured']:.2f}x over the scipy pass "
                f"on {SPEEDUP_WORKLOAD} (floor: {FUSED_SPEEDUP_FLOOR}x)"
            )
            print(
                f"{SPEEDUP_WORKLOAD} fused pass ({fused_floor['backend']}) "
                f"{fused_floor['measured']:.2f}x >= {FUSED_SPEEDUP_FLOOR}x floor"
            )
        else:
            print(
                "no fused backend available on this host; "
                "fused floor not asserted"
            )
        if sampler_floor["backend"] is not None:
            assert sampler_floor["measured"] >= SAMPLER_SPEEDUP_FLOOR, (
                f"fused sampler {sampler_floor['backend']} is only "
                f"{sampler_floor['measured']:.2f}x over the numpy selection "
                f"loop at k={SAMPLER_FLOOR_K} (floor: {SAMPLER_SPEEDUP_FLOOR}x)"
            )
            print(
                f"k={SAMPLER_FLOOR_K} fused sampler ({sampler_floor['backend']}) "
                f"{sampler_floor['measured']:.2f}x >= {SAMPLER_SPEEDUP_FLOOR}x floor"
            )
        else:
            print(
                "no fused sampler backend available on this host; "
                "sampler floor not asserted"
            )
    return 0


def _fused_floor(floor_record: dict | None) -> dict:
    """The fastest available fused backend on the floor workload."""
    entry = {
        "workload": SPEEDUP_WORKLOAD,
        "required": FUSED_SPEEDUP_FLOOR,
        "backend": None,
        "measured": None,
    }
    if floor_record is None:
        return entry
    fused = {
        backend: record["speedup_vs_scipy"]
        for backend, record in floor_record["backends"].items()
        if backend != "scipy" and record.get("available")
    }
    if fused:
        entry["backend"] = max(fused, key=fused.get)
        entry["measured"] = fused[entry["backend"]]
    return entry


if __name__ == "__main__":
    sys.exit(main())
