"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-release --seed 1 --seconds 25 --trace 0

``BENCHMARK.json`` gates on ``serve-release`` and ``kronfit-paper``.
``release-paper`` and ``release-large`` run the same way but are not
gated: between runs their timings spread past the 25% bound (see
``perfbench/README.md``).

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
is the separate traced run: it reports per-layer self times and counts,
the tracing overhead, and writes its spans to
``.perfbench-work/trace-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes stays under
``.perfbench-work/`` in the repository root, including the compiled
native kernels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-work"
WORKLOADS = ("release-paper", "release-large", "serve-release", "kronfit-paper")
SETUP_REPEATS = 5
_FAULT_KNOB = re.compile(r"^REPRO_\w*FAULT_INJECT$")

# Each workload's claim about where its time goes, checked in traced runs:
# (layer metrics whose sum is the share, minimum share of the op, claim).
PURPOSES = {
    "release-paper": (("kronecker.kronmom_ms",), 0.5,
                      "KronMom is most of a paper-scale private fit"),
    "release-large": (("privacy.isotonic_ms", "stats.a2_pass_ms"), 0.5,
                      "PAVA plus the A² pass are most of a k=18 private fit"),
    "serve-release": (("kronecker.sample_ms", "stats.sample_stats_ms"), 0.3,
                      "sampling plus sample statistics are a large share of /release"),
    "kronfit-paper": (("native.chain_ms",), 0.5,
                      "the Metropolis chain is most of a KronFit fit"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment() -> None:
    """Refuse to measure a faulted or incomplete tree; keep writes local."""
    knobs = sorted(k for k, v in os.environ.items() if _FAULT_KNOB.match(k) and v)
    if knobs:
        refuse(f"refusing to run with fault injection set: {', '.join(knobs)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        refuse(f"program source not found under {ROOT / 'src'}")
    # The native kernels compile into $XDG_CACHE_HOME; keep them in the tree.
    os.environ["XDG_CACHE_HOME"] = str(WORK_DIR / "cache")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def prepare_native() -> dict:
    """Compile (first run in a tree) or load every native kernel family."""
    from repro.native.chain import resolve_chain_backend, resolve_multichain_backend
    from repro.native.registry import resolve_kernel_threads
    from repro.native.sampling import resolve_sampler_backend
    from repro.stats.kernels import resolve_kernel_backend

    start = time.perf_counter()
    backends = {
        "counting": resolve_kernel_backend(),
        "chain": resolve_chain_backend(),
        "multichain": resolve_multichain_backend(),
        "sampler": resolve_sampler_backend(),
    }
    return {"backends": backends, "native_prepare_s": time.perf_counter() - start,
            "kernel_threads": resolve_kernel_threads()}


def environment(native: dict, workload: str) -> dict:
    import numpy
    import scipy

    from perfbench.serving import N_JOBS

    return {
        **native,
        "n_jobs": N_JOBS if workload == "serve-release" else 1,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def make_workload(name: str, seed: int, scratch: Path):
    from perfbench import workloads
    from perfbench.serving import ServeRelease

    if name == "serve-release":
        return ServeRelease(seed, scratch)
    return {
        "release-paper": workloads.ReleasePaper,
        "release-large": workloads.ReleaseLarge,
        "kronfit-paper": workloads.KronFitPaper,
    }[name](seed)


def end_to_end(workload, outcome: dict, setup_times: list[float], rss_mb: float) -> dict:
    from perfbench import measure

    ops = outcome["ops"]
    # Fit workloads: per-op means of round-robin rounds; serve: per request.
    # Ops that failed a check still took their time; ``correct`` reports them.
    primary = outcome.get("round_ms") or [
        op.ms for op in ops if op.kind == workload.primary]
    return {
        "setup_s": {"value": measure.median(setup_times), "unit": "s"},
        "op_ms_p50": {"value": measure.median(primary), "unit": "ms"},
        "ops_per_s": {"value": sum(op.ok for op in ops) / outcome["wall_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def per_layer(workload, outcome: dict, tracer) -> tuple[dict, dict]:
    """Per-layer metrics (per primary op) and the report's trace section."""
    from perfbench import measure
    from perfbench.trace import inclusive_totals, layer_totals

    counts_by_op = tracer.counts
    ops = {span.op for span in tracer.spans if span.op >= 0}
    serve = workload.name == "serve-release"
    if serve:
        primary_ops = {op for op in ops if counts_by_op[op].get("serve.path /release")}
        hit_ops = {op for op in ops if counts_by_op[op].get("serve.cache hit")}
        traced = [op.ms for op in outcome["ops"] if op.kind == "release" and op.ok
                  and op.window == "traced"]
        untraced = [op.ms for op in outcome["ops"] if op.kind == "release" and op.ok
                    and op.window == "untraced"]
    else:
        primary_ops, hit_ops = ops, set()
        traced = outcome["traced_ms"]
        untraced = [op.ms for op in outcome["ops"] if op.ok]
    n = max(len(primary_ops), 1)
    self_ms = layer_totals(tracer.spans, ops)
    incl_ms = inclusive_totals(tracer.spans, ops)
    counts: dict[str, float] = {}
    for op in ops:
        for name, value in counts_by_op[op].items():
            counts[name] = counts.get(name, 0.0) + value

    def rate(count_name, span_name):
        seconds = self_ms.get(span_name, 0.0) / 1e3
        return counts.get(count_name, 0.0) / seconds if seconds > 0 else 0.0

    hit_handle = [s.end - s.start for s in tracer.spans
                  if s.name == "serve.handle" and s.op in hit_ops]
    hit_http = [op.ms for op in outcome["ops"] if op.kind == "hit" and op.window == "traced"]
    serve_counts = outcome["report"] if serve else {}
    untraced_p50 = measure.median(untraced) if untraced else 0.0
    traced_p50 = measure.median(traced) if traced else 0.0
    # Fit workloads run every op both ways, so the overhead is the median
    # paired difference; serve compares the untraced and traced halves.
    pairs = outcome.get("paired_ms")
    overhead = (measure.median([t - u for u, t in pairs]) if pairs
                else traced_p50 - untraced_p50)
    values = {
        "graphs.build_ms": self_ms.get("graphs.build", 0.0) / n,
        "privacy.degree_release_ms": self_ms.get("privacy.degree_release", 0.0) / n,
        "privacy.isotonic_ms": self_ms.get("privacy.isotonic", 0.0) / n,
        "privacy.isotonic_n": counts.get("privacy.isotonic_n", 0.0) / n,
        "privacy.triangle_release_ms": self_ms.get("privacy.triangle_release", 0.0) / n,
        "privacy.accountant_charges": counts.get("privacy.accountant_charges", 0.0) / n,
        "stats.a2_pass_ms": self_ms.get("stats.a2_pass", 0.0) / n,
        "stats.a2_passes": counts.get("stats.a2_passes", 0.0) / n,
        "stats.sample_stats_ms": incl_ms.get("stats.sample_stats", 0.0) / n,
        "kronecker.kronmom_ms": self_ms.get("kronecker.kronmom", 0.0) / n,
        "kronecker.kronmom_objective_evals":
            counts.get("kronecker.kronmom_objective_evals", 0.0) / n,
        "core.private_fit_self_ms": self_ms.get("core.private_fit", 0.0) / n,
        "kronecker.sample_ms": self_ms.get("kronecker.sample", 0.0) / n,
        "kronecker.sample_edges_per_s": rate("kronecker.sampled_edges", "kronecker.sample"),
        "serve.handle_self_ms": self_ms.get("serve.handle", 0.0) / n,
        "serve.ledger_charge_ms": self_ms.get("serve.ledger_charge", 0.0) / n,
        "serve.hit_handle_ms": 1e3 * sum(hit_handle) / len(hit_handle) if hit_handle else 0.0,
        "serve.hit_http_ms": sum(hit_http) / len(hit_http) if hit_http else 0.0,
        "serve.cache_hits": serve_counts.get("cache_hits", 0),
        "serve.cache_misses": serve_counts.get("cache_misses", 0),
        "serve.rejected_429": serve_counts.get("rejected_429", 0),
        "runtime.pool_wait_ms": self_ms.get("runtime.pool", 0.0) / n,
        "runtime.pool_restarts": serve_counts.get("pool_restarts", 0),
        "native.chain_ms": self_ms.get("native.chain", 0.0) / n,
        "native.chain_proposals": counts.get("native.chain_proposals", 0.0) / n,
        "native.chain_proposals_per_s": rate("native.chain_proposals", "native.chain"),
        "kronecker.kronfit_self_ms": self_ms.get("kronecker.kronfit", 0.0) / n,
        "kronecker.acceptance_rate": counts.get("kronecker.acceptance_rate", 0.0) / n,
        "trace.ops": len(primary_ops),
        "trace.spans_per_op": sum(s.op in ops for s in tracer.spans) / n,
        "trace.overhead_ms": overhead,
        "trace.overhead_pct": 100.0 * overhead / untraced_p50 if untraced_p50 else 0.0,
    }
    units = {"_ms": "ms", "_per_s": "1/s", "_pct": "%", "_rate": "ratio"}
    metrics = {}
    for name, value in values.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": float(value), "unit": unit}

    names, minimum, claim = PURPOSES[workload.name]
    op_ms = sum(traced) / len(traced) if traced else 0.0
    share = sum(values[name] for name in names) / op_ms if op_ms else 0.0
    passes = [counts_by_op[op].get("stats.a2_passes", 0.0) for op in primary_ops]
    section = {
        "traced_op_ms_p50": traced_p50, "untraced_op_ms_p50": untraced_p50,
        "traced_n": len(traced), "untraced_n": len(untraced),
        "traced_op_ms_mean": op_ms,
        "layer_share_of_op": {name: values[name] / op_ms if op_ms else 0.0
                              for name in values if name.endswith("_ms")
                              and not name.startswith(("trace.", "serve.hit"))},
        "purpose": {"claim": claim, "layers": list(names), "share": share,
                    "minimum": minimum, "met": share >= minimum},
        "a2_passes_per_op": sorted(set(passes)),
    }
    return metrics, section


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()

    from perfbench import measure
    from perfbench.trace import Tracer, install

    scratch = WORK_DIR / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    native = prepare_native()
    workload = make_workload(args.workload, args.seed, scratch)
    tracer = Tracer() if args.trace else None
    # Installed before set-up, so the serve pool's workers fork with it.
    restore = install(tracer) if tracer is not None else None
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        input_digests = workload.input_digests()
        workload.warm_up()
        outcome = workload.run(args.seconds, tracer)
        rss = measure.peak_rss_mb()
    finally:
        workload.close()
        if restore is not None:
            restore()
        shutil.rmtree(scratch, ignore_errors=True)

    ops = outcome["ops"]
    failed = [op for op in ops if not op.ok]
    records = outcome.get("digest_records") or [op.record for op in ops[: workload.digest_ops]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(native, args.workload),
        "setup_s_each": setup_times,
        "input_digests": input_digests,
        "digest": measure.digest(records),
        "digest_ops": len(records),
        "failed_frac": len(failed) / len(ops),
        "errors": sorted({op.error for op in failed})[:5],
        "timings": {
            kind: measure.timing_summary([op.ms for op in ops if op.kind == kind and op.ok])
            for kind in sorted({op.kind for op in ops})
        },
        **outcome["report"],
    }
    correct = not failed and report.get("budget_ok", True)
    if tracer is not None:
        metrics, report["trace"] = per_layer(workload, outcome, tracer)
        if args.workload.startswith("release-") and report["trace"]["a2_passes_per_op"] != [1.0]:
            correct = False
            report["errors"].append("the A² pass did not run exactly once per op")
        WORK_DIR.mkdir(exist_ok=True)
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        report["trace"]["file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = end_to_end(workload, outcome, setup_times, rss)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
