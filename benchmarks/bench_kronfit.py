"""EXP-K2 — Metropolis chain backends vs the numpy reference for KronFit.

The KronFit baseline of the paper's Table 1 runs ~10⁵ Metropolis
proposals per fit; PR 4 moved the chain onto the fused native kernels
(:mod:`repro.native.chain`) behind ``REPRO_KERNEL_BACKEND``.  This bench
records two trajectories per workload:

* **chain throughput** — raw proposals/second of
  :meth:`PermutationSampler.run` (a one-chain
  :class:`~repro.kronecker.likelihood.MultiChainSampler`, which owns the
  chain state and both engines) per engine (numpy reference and
  compiled-C ``cext``), with every engine first checked **bit-identical**
  to the reference on a common pre-drawn stream (σ, histogram, and
  acceptance count must agree exactly — the same contract the chain
  equivalence matrix pins in ``tests/kronecker/test_chain_equivalence.py``);
* **end-to-end fit** — wall-clock of a full ``KronFitEstimator.fit`` at
  Table-1-scale chain parameters, per engine, with bit-identical fitted
  initiators enforced across engines;
* **batched multichain fit** — wall-clock of ``KronFitEstimator(n_starts=S)``
  (the S chains cut into ``kernel_threads`` ∈ {1, 2} contiguous ranges,
  one native call per range and run, each range on its own Python
  thread) against S sequential single-start fits seeded with the same
  ``SeedSequence`` children, at S ∈ {8, 64} on the floor workload, the
  timed repeats alternating between the three.  Sequential fit 0 is
  enforced bit-identical to batched chain 0 (the multichain kernel's
  per-chain bit-identity contract).
  What batching amortizes is each fit's work outside the chain calls
  (set-up, table builds, the Python loop), so the floor (S=8,
  ``kernel_threads=1``, ≥ 1.25×) is stated on that time: the S
  sequential fits' time outside :meth:`MultiChainSampler.run` over the
  batched fit's.  The whole-fit ratio is recorded beside it.  The floor
  needs no second core, so every host asserts it;
* **Table 1 fit** — the ``kronfit-paper`` benchmark op: one single-start
  fit at the default budget and 30 iterations on ca-grqc and as20, on
  the best engine, split into the time inside
  :meth:`MultiChainSampler.run` (the draw call, the ``log`` of the
  uniforms and the chain call, which also scores the samples and takes
  the gradient step; also per proposal) and the remainder (the fit's
  set-up, each iteration's table build and the Python loop).  The
  engine is first checked bit-identical to the numpy reference on a
  2-iteration fit.

Workloads: SKG draws at k ∈ {10, 12} and the ca-grqc dataset (the
padded fit runs at k=13).  The k=12 draw asserts the floor: the best
fused engine must complete the fit ≥ 2× faster than the numpy reference
(the PR target is ≥ 5×; the measured value is recorded in the artifact).
Every workload records its ``proposal_events`` — the cell events
(2·(deg i + deg j)) of the bit-identity stream's proposals.  The SKG
draws make a handful per proposal; ca-grqc's heavy-tailed degrees make
several times more, with a long tail, which is the load of the Table 1
KronFit baseline.  So ca-grqc is also in the ``--quick`` subset, and CI
checks its chain bit-identity on every run.  Unavailable engines are
recorded with the reason, so the artifact states exactly what was
measured where.

Results go to ``benchmarks/out/BENCH_kronfit.json``.  The artifact
carries ``schema_version``; ``tests/test_bench_artifacts.py`` guards that
the committed JSON stays in sync with this script's schema.

Run directly (no pytest needed)::

    python benchmarks/bench_kronfit.py            # full matrix, asserts floor
    python benchmarks/bench_kronfit.py --quick    # CI smoke subset
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.graphs.datasets import load_dataset
from repro.graphs.graph import Graph
from repro.graphs.operations import pad_to_power_of_two
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import MultiChainSampler, PermutationSampler
from repro.kronecker.sampling import sample_skg
from repro.native.chain import MULTICHAIN_KERNEL, draw_proposal_batch
from repro.native.registry import NATIVE_BACKENDS

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.  3 = added the large-k scale rows
# (per-engine delta-scan fits at k ∈ {16, 18, 20}); 4 = added the
# batched multichain column (``multichain`` workload rows at
# S ∈ {8, 64} × kernel_threads ∈ {1, 2} plus ``multichain_floor``);
# 5 = dropped the pool ``multistart`` column and its floor, and re-based
# the multichain column on S sequential single-start fits; 6 = added
# per-workload ``proposal_events`` and the heavy-tailed ca-grqc chain row
# to the quick subset; 7 = added the ``table1_fit`` rows (fit, chain-call
# and remainder ms of the 30-iteration ca-grqc and as20 fits); 8 = added
# their ``chain_ns_per_proposal`` (chain-call time per proposal); 9 =
# added each multichain row's ``outside_run_seconds`` and
# ``overhead_amortization``, and restated ``multichain_floor`` on the
# latter (its old whole-fit measure is its ``speedup_vs_sequential``).
SCHEMA_VERSION = 9

OUT_PATH = Path(__file__).parent / "out" / "BENCH_kronfit.json"
THETA = Initiator(0.99, 0.45, 0.25)  # the paper's synthetic initiator
FIT_THETA = Initiator(0.9, 0.6, 0.2)  # KronFit's generic starting point
SEED = 20120330
FUSED_FIT_FLOOR = 2.0
FLOOR_WORKLOAD = "skg-k12"

# Batched multichain column: all S chains advanced together (one native
# call per chain range, one range per kernel thread) vs S sequential
# single-start fits.
MULTICHAIN_STARTS = (8, 64)
MULTICHAIN_QUICK_STARTS = (8,)
MULTICHAIN_THREADS = (1, 2)
MULTICHAIN_FLOOR = 1.25

# Table-1-scale chain parameters: n_iterations × (warmup + samples ×
# spacing) = 28 000 proposals per fit.
FIT_PARAMS = dict(
    n_iterations=10,
    warmup_swaps=2000,
    n_permutation_samples=4,
    sample_spacing=200,
)
QUICK_FIT_PARAMS = dict(
    n_iterations=4,
    warmup_swaps=400,
    n_permutation_samples=2,
    sample_spacing=50,
)

# Throughput probe sizes: enough proposals to swamp per-run setup, kept
# small on the reference engine so the bench stays minutes-scale.
THROUGHPUT_PROPOSALS = {"numpy": 20_000, "cext": 400_000}
EQUIVALENCE_PROPOSALS = 4_000

# The large-k scale rows (PR 8): full Table-1-budget fits on the skg-k16
# / k18 / k20 datasets.  The touched-cell delta scan keeps even the
# numpy reference minutes-free at 10^6 nodes (the old full-scan path
# paid 2 * (k+1)^2 score reads per proposal; the delta scan pays
# O(deg i + deg j)), and the fused engine must still beat it >= 2x at
# k=18.
LARGE_K_ORDERS = (16, 18, 20)
LARGE_K_QUICK_ORDERS = (16,)
LARGE_K_FLOOR_K = 18
LARGE_K_FIT_FLOOR = 2.0

# The Table 1 fit rows: the kronfit-paper benchmark op (default budget,
# 30 iterations), and the short fit its bit-identity is checked on.
TABLE1_DATASETS = ("ca-grqc", "as20")
TABLE1_ITERATIONS = 30
TABLE1_CHECK_ITERATIONS = 2


def chain_engines() -> tuple[str, ...]:
    return (MULTICHAIN_KERNEL.reference,) + NATIVE_BACKENDS


def bench_chain(graph: Graph, k: int, repeats: int, quick: bool) -> dict:
    """Per-engine chain throughput, pinned by a bit-identity prefix.

    The engines' timed repeats alternate (one run of each per round), so
    a slow patch of the host lands on every engine alike.
    """
    reference = _chain_state(graph, k, "numpy", EQUIVALENCE_PROPOSALS)
    records: dict[str, dict] = {}
    for engine in chain_engines():
        if engine != "numpy" and not MULTICHAIN_KERNEL.available(engine):
            records[engine] = {
                "available": False,
                "reason": MULTICHAIN_KERNEL.error(engine),
            }
            continue
        state = _chain_state(graph, k, engine, EQUIVALENCE_PROPOSALS)
        identical = (
            np.array_equal(state[0], reference[0])
            and np.array_equal(state[1], reference[1])
            and state[2] == reference[2]
        )
        if not identical:
            raise AssertionError(
                f"chain engine {engine} diverges from the numpy reference"
            )
        n_proposals = THROUGHPUT_PROPOSALS[engine]
        if quick:
            n_proposals //= 10
        records[engine] = {
            "available": True,
            "bit_identical": True,
            "n_proposals": n_proposals,
        }
    timed = [engine for engine, record in records.items() if record["available"]]

    def fresh_chain(engine: str):
        # A new sampler and stream per repeat, built outside the timing.
        return lambda: (
            PermutationSampler(graph, k, THETA, backend=engine),
            np.random.default_rng(SEED),
        )

    def run_chain(n_proposals: int):
        return lambda chain: chain[0].run(n_proposals, chain[1])

    seconds = _timed_alternating(
        [run_chain(records[engine]["n_proposals"]) for engine in timed],
        repeats,
        prepare=[fresh_chain(engine) for engine in timed],
    )
    for engine, best in zip(timed, seconds):
        records[engine]["seconds"] = best
        records[engine]["proposals_per_second"] = records[engine]["n_proposals"] / best
    numpy_rate = records["numpy"]["proposals_per_second"]
    for record in records.values():
        if record.get("available"):
            record["speedup_vs_numpy"] = (
                record["proposals_per_second"] / numpy_rate
            )
    return records


def proposal_events(graph: Graph, n_proposals: int) -> dict:
    """Cell events per proposal on the bit-identity stream.

    A proposal (i, j) updates two profile cells per edge of i and j,
    the i–j edge excluded: 2·(deg i + deg j − 2·[i ~ j]).
    """
    i_nodes, j_nodes, _ = draw_proposal_batch(
        np.random.default_rng(SEED), graph.n_nodes, n_proposals
    )
    degrees = graph.degrees
    linked = np.asarray(graph.adjacency[i_nodes, j_nodes]).ravel() != 0
    events = 2 * (degrees[i_nodes] + degrees[j_nodes] - 2 * linked)
    return {
        "n_proposals": n_proposals,
        "mean": float(events.mean()),
        "p99": float(np.percentile(events, 99)),
        "max": int(events.max()),
        "max_degree": int(degrees.max()),
    }


def _chain_state(graph: Graph, k: int, engine: str, n_proposals: int):
    """(σ, histogram, accepted) after a fixed-seed run on ``engine``."""
    sampler = PermutationSampler(graph, k, THETA, backend=engine)
    sampler.run(n_proposals, np.random.default_rng(SEED))
    return sampler.sigma.copy(), sampler.histogram(), sampler.accepted


def bench_fit(graph: Graph, fit_params: dict) -> dict:
    """End-to-end ``KronFitEstimator.fit`` wall-clock per engine."""
    records: dict[str, dict] = {}
    reference_initiator = None
    for engine in chain_engines():
        if engine != "numpy" and not MULTICHAIN_KERNEL.available(engine):
            records[engine] = {
                "available": False,
                "reason": MULTICHAIN_KERNEL.error(engine),
            }
            continue
        estimator = KronFitEstimator(
            initial=FIT_THETA, seed=SEED, backend=engine, **fit_params
        )
        start = time.perf_counter()
        result = estimator.fit(graph)
        seconds = time.perf_counter() - start
        if reference_initiator is None:
            reference_initiator = result.initiator
        elif result.initiator != reference_initiator:
            raise AssertionError(
                f"fit with engine {engine} diverges from the numpy reference"
            )
        records[engine] = {
            "available": True,
            "seconds": seconds,
            "k": result.k,
            "acceptance_rate": result.acceptance_rate,
            "initiator": [
                result.initiator.a, result.initiator.b, result.initiator.c
            ],
        }
    numpy_seconds = records["numpy"]["seconds"]
    for record in records.values():
        if record.get("available"):
            record["speedup_vs_numpy"] = numpy_seconds / record["seconds"]
    return records


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def best_engine() -> str:
    """The fastest available chain engine (fused if any, else numpy)."""
    for engine in reversed(chain_engines()):
        if engine == "numpy" or MULTICHAIN_KERNEL.available(engine):
            return engine
    return "numpy"


def multichain_workload(quick: bool) -> str:
    """Which workload carries the multichain record (shared by the
    per-workload bench and the floor lookup, so they cannot drift)."""
    return "skg-k10" if quick else FLOOR_WORKLOAD


def _timed_alternating(fns, repeats: int, prepare=None, split: bool = False) -> list:
    """Best-of-``repeats`` wall-clock seconds of each of ``fns``, the
    repeats taken in turn (one of each per round), so host drift lands on
    every timing alike instead of on whichever block ran later.  With
    ``prepare``, ``fns[i]`` is called on ``prepare[i]()``, built untimed.
    With ``split``, each entry is ``(seconds, seconds inside
    MultiChainSampler.run)`` of the best repeat."""
    run = MultiChainSampler.__dict__["run"]
    inside = [0.0]

    def timed_run(*args, **kwargs):
        start = time.perf_counter()
        try:
            return run(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - start

    best = [(float("inf"), 0.0)] * len(fns)
    MultiChainSampler.run = timed_run
    try:
        for _ in range(repeats):
            for index, fn in enumerate(fns):
                args = () if prepare is None else (prepare[index](),)
                inside[0] = 0.0
                start = time.perf_counter()
                fn(*args)
                best[index] = min(best[index], (time.perf_counter() - start, inside[0]))
    finally:
        MultiChainSampler.run = run
    return best if split else [seconds for seconds, _ in best]


def bench_multichain(graph: Graph, repeats: int, fit_params: dict, quick: bool) -> dict:
    """Batched multichain fits vs S sequential single-start fits.

    For each S the baseline runs S ``KronFitEstimator(n_starts=1)`` fits
    one after another, seeded with the ``SeedSequence`` children the
    batched fit gives its starts; the batched fit advances the S chains
    in one native call per run and chain range, with one range per
    kernel thread.  Each is timed best-of-``repeats`` after an untimed
    warm-up, the repeats alternating between the sequential fits and
    every thread count.
    Sequential fit 0 (degree-matched σ, child 0) must be bit-identical
    to batched chain 0 — the per-chain contract pinned per proposal by
    ``tests/kronecker/test_multichain_equivalence.py``.
    """
    engine = best_engine()
    records: dict = {"backend": engine, "params": fit_params, "by_starts": {}}
    for n_starts in MULTICHAIN_QUICK_STARTS if quick else MULTICHAIN_STARTS:
        solos = [
            KronFitEstimator(
                initial=FIT_THETA, seed=child, backend=engine, **fit_params
            )
            for child in np.random.SeedSequence(SEED).spawn(n_starts)
        ]
        solo_zero = solos[0].fit(graph)  # warm-up (loads the kernel)
        batched = {
            threads: KronFitEstimator(
                initial=FIT_THETA,
                seed=SEED,
                backend=engine,
                n_starts=n_starts,
                kernel_threads=threads,
                **fit_params,
            )
            for threads in MULTICHAIN_THREADS
        }
        for threads, estimator in batched.items():
            result = estimator.fit(graph)  # warm-up
            if result.start_log_likelihoods[0] != solo_zero.log_likelihoods[-1] or (
                result.start == 0 and result.trajectory != solo_zero.trajectory
            ):
                raise AssertionError(
                    f"batched multichain chain 0 (S={n_starts}, kernel_threads="
                    f"{threads}) diverges from the sequential single-start fit"
                )
        (sequential, sequential_inside), *timings = _timed_alternating(
            [lambda: [solo.fit(graph) for solo in solos]]
            + [functools.partial(estimator.fit, graph) for estimator in batched.values()],
            repeats,
            split=True,
        )
        sequential_outside = sequential - sequential_inside
        row = {
            "sequential": {"seconds": sequential, "outside_run_seconds": sequential_outside},
            "batched": {},
        }
        for threads, (threads_seconds, inside) in zip(batched, timings):
            row["batched"][str(threads)] = {
                "seconds": threads_seconds,
                "outside_run_seconds": threads_seconds - inside,
                "bit_identical": True,
                "speedup_vs_sequential": sequential / threads_seconds,
                "overhead_amortization": sequential_outside / (threads_seconds - inside),
            }
        row["winning_start"] = result.start
        records["by_starts"][str(n_starts)] = row
    return records


def bench_table1_fit(name: str, repeats: int) -> dict:
    """One Table 1 fit row: best-of-``repeats`` fit ms on the best engine,
    with the ms spent inside :meth:`MultiChainSampler.run` during that fit
    (draws, chains and gradient steps) and the remainder (set-up, table
    builds and the Python loop).

    The engine's fit must first equal the numpy reference's on a
    ``TABLE1_CHECK_ITERATIONS`` fit: the numpy engine would take seconds
    per 30-iteration fit.
    """
    graph = load_dataset(name)
    engine = best_engine()
    check = {
        backend: KronFitEstimator(
            n_iterations=TABLE1_CHECK_ITERATIONS, seed=SEED, backend=backend
        ).fit(graph)
        for backend in ("numpy", engine)
    }
    if check[engine] != check["numpy"]:
        raise AssertionError(
            f"Table 1 fit on {name} with engine {engine} diverges from the "
            "numpy reference"
        )
    estimator = KronFitEstimator(
        n_iterations=TABLE1_ITERATIONS, seed=SEED, backend=engine
    )
    result = estimator.fit(graph)  # warm-up
    [(seconds, chain_seconds)] = _timed_alternating(
        [functools.partial(estimator.fit, graph)], max(repeats, 5), split=True
    )
    n_proposals = TABLE1_ITERATIONS * (
        estimator.warmup_swaps
        + estimator.n_permutation_samples * estimator.sample_spacing
    )
    return {
        "dataset": name,
        "backend": engine,
        "k": result.k,
        "n_iterations": TABLE1_ITERATIONS,
        "n_proposals": n_proposals,
        "bit_identical_iterations": TABLE1_CHECK_ITERATIONS,
        "fit_ms": seconds * 1000,
        "chain_call_ms": chain_seconds * 1000,
        "chain_ns_per_proposal": chain_seconds * 1e9 / n_proposals,
        "remainder_ms": (seconds - chain_seconds) * 1000,
    }


def bench_large_k(k: int, fit_params: dict) -> dict:
    """One large-k scale row: per-engine end-to-end fits on ``skg-k{k}``.

    The graphs come from the dataset registry (the same draws the
    ``large-k`` scenario preset fits), and every engine's fitted
    initiator is enforced bit-identical by :func:`bench_fit`.
    """
    graph = load_dataset(f"skg-k{k}")
    return {
        "k": k,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "fit": {"params": fit_params, **bench_fit(graph, fit_params)},
    }


def _large_k_floor(large_k_rows: list[dict]) -> dict:
    """The fastest fused engine's fit speedup on the k=18 scale row."""
    entry = {
        "k": LARGE_K_FLOOR_K,
        "required": LARGE_K_FIT_FLOOR,
        "backend": None,
        "measured": None,
    }
    row = next((r for r in large_k_rows if r["k"] == LARGE_K_FLOOR_K), None)
    if row is None:
        return entry
    fused = {
        engine: fit["speedup_vs_numpy"]
        for engine, fit in row["fit"].items()
        if engine in NATIVE_BACKENDS and isinstance(fit, dict) and fit.get("available")
    }
    if fused:
        entry["backend"] = max(fused, key=fused.get)
        entry["measured"] = fused[entry["backend"]]
    return entry


def bench_workload(
    name: str, graph: Graph, repeats: int, quick: bool, fit_params: dict
) -> dict:
    padded, k = pad_to_power_of_two(graph)
    padded.csr  # warm the shared structures every engine starts from
    record = {
        "workload": name,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "k": k,
        "proposal_events": proposal_events(padded, EQUIVALENCE_PROPOSALS),
        "chain": bench_chain(padded, k, repeats, quick),
        "fit": {"params": fit_params, **bench_fit(graph, fit_params)},
    }
    if name == multichain_workload(quick):
        record["multichain"] = bench_multichain(graph, repeats, fit_params, quick)
    return record


def build_workloads(quick: bool):
    orders = (10,) if quick else (10, 12)
    for k in orders:
        yield f"skg-k{k}", sample_skg(THETA, k, seed=SEED)
    yield "ca-grqc", load_dataset("ca-grqc")


def _multichain_floor(results: list[dict], quick: bool) -> dict:
    """The overhead batching amortizes at S=8, kernel_threads=1.

    ``measured`` is the S sequential fits' time outside
    :meth:`MultiChainSampler.run` over the batched fit's: the set-up,
    table builds and Python loop that one batched fit pays once instead
    of S times.  The chain calls do the same proposals either way, and
    with the gradient step inside them they are ~90% of a fit, so the
    whole-fit ratio (``speedup_vs_sequential``, the floor's measure
    before schema 9) no longer shows the amortization.  Needs no second
    core, so every full run asserts the floor.
    """
    entry = {
        "workload": multichain_workload(quick),
        "n_starts": MULTICHAIN_STARTS[0],
        "kernel_threads": 1,
        "baseline": "sequential single-start fits",
        "measures": "time outside MultiChainSampler.run, sequential over batched",
        "required": MULTICHAIN_FLOOR,
        "measured": None,
        "speedup_vs_sequential": None,
        "asserted": False,
        "skip_reason": None,
    }
    record = next(
        (r for r in results if r["workload"] == entry["workload"] and "multichain" in r),
        None,
    )
    if record is None:
        entry["skip_reason"] = "floor workload not benchmarked"
        return entry
    batched = record["multichain"]["by_starts"][str(MULTICHAIN_STARTS[0])]["batched"]["1"]
    entry["measured"] = batched["overhead_amortization"]
    entry["speedup_vs_sequential"] = batched["speedup_vs_sequential"]
    if quick:
        entry["skip_reason"] = "quick run"
    else:
        entry["asserted"] = True
    return entry


def _fused_floor(results: list[dict]) -> dict:
    """The fastest available fused engine's fit speedup on the floor
    workload."""
    entry = {
        "workload": FLOOR_WORKLOAD,
        "required": FUSED_FIT_FLOOR,
        "backend": None,
        "measured": None,
    }
    record = next((r for r in results if r["workload"] == FLOOR_WORKLOAD), None)
    if record is None:
        return entry
    fused = {
        engine: fit["speedup_vs_numpy"]
        for engine, fit in record["fit"].items()
        if engine in NATIVE_BACKENDS and isinstance(fit, dict) and fit.get("available")
    }
    if fused:
        entry["backend"] = max(fused, key=fused.get)
        entry["measured"] = fused[entry["backend"]]
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke subset (skg-k10 and ca-grqc, short chains); skips the "
            "floor assertion"
        ),
    )
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats")
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "JSON output path (default: benchmarks/out/BENCH_kronfit.json; "
            "quick runs default to BENCH_kronfit_quick.json so they never "
            "overwrite the committed full-matrix artifact)"
        ),
    )
    arguments = parser.parse_args(argv)
    if arguments.out is None:
        arguments.out = str(
            OUT_PATH.with_name("BENCH_kronfit_quick.json")
            if arguments.quick
            else OUT_PATH
        )
    fit_params = QUICK_FIT_PARAMS if arguments.quick else FIT_PARAMS

    results = []
    for name, graph in build_workloads(arguments.quick):
        record = bench_workload(
            name, graph, arguments.repeats, arguments.quick, fit_params
        )
        results.append(record)
        events = record["proposal_events"]
        print(
            f"{name:12s} n={record['n_nodes']:>6d} E={record['n_edges']:>7d} "
            f"k={record['k']}  cell events/proposal: mean {events['mean']:.1f}, "
            f"p99 {events['p99']:.0f}, max {events['max']}"
        )
        for engine, entry in record["chain"].items():
            if entry.get("available"):
                print(
                    f"{'':12s}   chain[{engine}] "
                    f"{entry['proposals_per_second']:>12,.0f} proposals/s "
                    f"({entry['speedup_vs_numpy']:.1f}x vs numpy)"
                )
            else:
                print(f"{'':12s}   chain[{engine}] unavailable: {entry['reason']}")
        for engine, entry in record["fit"].items():
            if engine == "params" or not isinstance(entry, dict):
                continue
            if entry.get("available"):
                print(
                    f"{'':12s}   fit[{engine}]   {entry['seconds'] * 1000:9.1f} ms "
                    f"({entry['speedup_vs_numpy']:.1f}x vs numpy)"
                )
            else:
                print(f"{'':12s}   fit[{engine}]   unavailable: {entry['reason']}")
        if "multichain" in record:
            multichain = record["multichain"]
            for n_starts, row in multichain["by_starts"].items():
                print(
                    f"{'':12s}   sequential[S={n_starts}] "
                    f"{row['sequential']['seconds'] * 1000:9.1f} ms"
                )
                for threads, entry in row["batched"].items():
                    print(
                        f"{'':12s}   batched[S={n_starts}, threads={threads}] "
                        f"{entry['seconds'] * 1000:9.1f} ms "
                        f"({entry['speedup_vs_sequential']:.2f}x vs sequential, "
                        f"{entry['overhead_amortization']:.2f}x less time outside "
                        f"run calls, start {row['winning_start']} wins)"
                    )

    table1_rows = []
    for name in TABLE1_DATASETS:
        row = bench_table1_fit(name, arguments.repeats)
        table1_rows.append(row)
        print(
            f"{name:12s} Table 1 fit[{row['backend']}] {row['fit_ms']:7.1f} ms "
            f"= chain calls with steps {row['chain_call_ms']:.1f} + remainder "
            f"{row['remainder_ms']:.1f} ms ({row['n_proposals']:,} proposals, "
            f"{row['chain_ns_per_proposal']:.0f} ns each in chain calls)"
        )

    large_k_rows = []
    for k in LARGE_K_QUICK_ORDERS if arguments.quick else LARGE_K_ORDERS:
        row = bench_large_k(k, fit_params)
        large_k_rows.append(row)
        print(f"skg-k{k:<7d} n={row['n_nodes']:>8d} E={row['n_edges']:>8d}")
        for engine, entry in row["fit"].items():
            if engine == "params" or not isinstance(entry, dict):
                continue
            if entry.get("available"):
                print(
                    f"{'':12s}   fit[{engine}]   {entry['seconds'] * 1000:9.1f} ms "
                    f"({entry['speedup_vs_numpy']:.1f}x vs numpy)"
                )
            else:
                print(f"{'':12s}   fit[{engine}]   unavailable: {entry['reason']}")

    fused_floor = _fused_floor(results)
    multichain_floor = _multichain_floor(results, arguments.quick)
    large_k_floor = _large_k_floor(large_k_rows)
    report = {
        "bench": "bench_kronfit",
        "schema_version": SCHEMA_VERSION,
        "quick": arguments.quick,
        "repeats": arguments.repeats,
        "seed": SEED,
        "usable_cores": usable_cores(),
        "chain_backends_available": list(MULTICHAIN_KERNEL.available_backends()),
        "fused_fit_floor": fused_floor,
        "multichain_floor": multichain_floor,
        "large_k_fit_floor": large_k_floor,
        "workloads": results,
        "table1_fit": table1_rows,
        "large_k": large_k_rows,
    }
    out_path = Path(arguments.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[written to {out_path}]")

    if not arguments.quick:
        if fused_floor["backend"] is not None:
            assert fused_floor["measured"] >= FUSED_FIT_FLOOR, (
                f"fused chain engine {fused_floor['backend']} is only "
                f"{fused_floor['measured']:.2f}x over the numpy reference "
                f"fit on {FLOOR_WORKLOAD} (floor: {FUSED_FIT_FLOOR}x)"
            )
            print(
                f"{FLOOR_WORKLOAD} fused fit ({fused_floor['backend']}) "
                f"{fused_floor['measured']:.2f}x >= {FUSED_FIT_FLOOR}x floor"
            )
        else:
            print("no fused chain engine available; fit floor not asserted")
        if large_k_floor["backend"] is not None:
            assert large_k_floor["measured"] >= LARGE_K_FIT_FLOOR, (
                f"fused chain engine {large_k_floor['backend']} is only "
                f"{large_k_floor['measured']:.2f}x over the numpy reference "
                f"fit at k={LARGE_K_FLOOR_K} (floor: {LARGE_K_FIT_FLOOR}x)"
            )
            print(
                f"k={LARGE_K_FLOOR_K} fused fit ({large_k_floor['backend']}) "
                f"{large_k_floor['measured']:.2f}x >= {LARGE_K_FIT_FLOOR}x floor"
            )
        else:
            print(
                "no fused chain engine available; large-k fit floor not asserted"
            )
    if multichain_floor["asserted"]:
        assert multichain_floor["measured"] >= MULTICHAIN_FLOOR, (
            f"batched multichain S={MULTICHAIN_STARTS[0]} (kernel_threads=1) "
            f"spends only {multichain_floor['measured']:.2f}x less time outside "
            f"run calls than {MULTICHAIN_STARTS[0]} sequential single-start fits "
            f"on {multichain_floor['workload']} (floor: {MULTICHAIN_FLOOR}x)"
        )
        print(
            f"{multichain_floor['workload']} batched multichain overhead "
            f"{multichain_floor['measured']:.2f}x >= {MULTICHAIN_FLOOR}x floor "
            f"(whole fit {multichain_floor['speedup_vs_sequential']:.2f}x)"
        )
    elif multichain_floor["measured"] is not None:
        print(
            f"multichain floor recorded but not asserted "
            f"({multichain_floor['skip_reason']}): "
            f"{multichain_floor['measured']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
