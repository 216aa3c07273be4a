"""EXP-S1 — serve-layer latency, throughput, and cache effectiveness.

Boots a real ``repro serve`` runtime (ephemeral port, in-process worker
pool) and measures the request path end to end over HTTP:

* **cold** — the first ``/fit`` for a model: admission, budget charge,
  estimator fit, cache store;
* **warm** — the same request again, answered from the content-addressed
  response cache (bit-identity enforced on every warm body);
* **sustained** — concurrent clients hammering cached endpoints, the
  throughput the registry sustains once models are fitted;
* **mixed** — a concurrent mix of fit/sample/release against distinct
  models, the realistic many-tenant shape.

Floors (asserted on full runs, recorded always): the warm path must beat
the cold fit by ``CACHE_SPEEDUP_FLOOR``x, sustained cached throughput
must clear ``THROUGHPUT_FLOOR`` requests/second, and the uncached mix
must clear ``MIXED_THROUGHPUT_FLOOR`` requests/second.  Results are
written to ``benchmarks/out/BENCH_serve.json`` so serve-layer latency is
a tracked artifact, not anecdote.

Run directly (no pytest needed)::

    python benchmarks/bench_serve.py            # full matrix, asserts floors
    python benchmarks/bench_serve.py --quick    # CI smoke subset
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.config import ServeConfig
from repro.serve.server import ServeRuntime

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.
SCHEMA_VERSION = 2

OUT_PATH = Path(__file__).parent / "out" / "BENCH_serve.json"
DATASET = "as20"
CACHE_SPEEDUP_FLOOR = 5.0  # warm hit must beat the cold fit by this factor
THROUGHPUT_FLOOR = 20.0  # sustained cached requests/second, concurrent
# Uncached fit/sample/release requests/second.  Every request fits a new
# model, so the mix runs at 9–30 req/s depending on host load; the floor
# catches a serialized pool or a lost cache, not host drift.
MIXED_THROUGHPUT_FLOOR = 5.0
PERCENTILES = (50, 90, 95, 99)


def request(base: str, verb: str, path: str, payload=None, timeout=60.0):
    """One HTTP round trip; returns (status, headers, raw body bytes)."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(base + path, data=data, method=verb)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def percentile(sorted_values: list[float], p: int) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(sorted_values) - 1, round(p / 100 * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize_ms(samples_seconds: list[float]) -> dict:
    ordered = sorted(samples_seconds)
    return {
        "count": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) * 1000,
        **{f"p{p}_ms": percentile(ordered, p) * 1000 for p in PERCENTILES},
    }


def timed(base: str, verb: str, path: str, payload=None):
    start = time.perf_counter()
    status, headers, body = request(base, verb, path, payload)
    return time.perf_counter() - start, status, headers, body


def bench_cold_vs_warm(base: str, warm_rounds: int) -> dict:
    """One cold fit, then ``warm_rounds`` cache hits of the same request
    (bit-identity enforced across every warm body)."""
    payload = {"dataset": DATASET, "method": "kronmom"}
    cold_seconds, status, headers, cold_body = timed(base, "POST", "/fit", payload)
    assert status == 200, f"cold fit failed: {cold_body!r}"
    assert headers["X-Repro-Cache"] == "miss"

    warm_samples = []
    for _round in range(warm_rounds):
        seconds, status, headers, body = timed(base, "POST", "/fit", payload)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert body == cold_body, "cached response is not bit-identical"
        warm_samples.append(seconds)
    warm = summarize_ms(warm_samples)
    return {
        "cold_ms": cold_seconds * 1000,
        "warm": warm,
        "cache_speedup": cold_seconds * 1000 / warm["p50_ms"],
        "bit_identical": True,
    }


def bench_sustained(base: str, clients: int, requests_per_client: int) -> dict:
    """Concurrent clients hammering one cached request: throughput and
    the full latency distribution under contention."""
    payload = {"dataset": DATASET, "method": "kronmom"}
    request(base, "POST", "/fit", payload)  # ensure the model is cached
    samples = [[] for _ in range(clients)]
    errors = []

    def client(index: int) -> None:
        for _round in range(requests_per_client):
            seconds, status, _headers, body = timed(base, "POST", "/fit", payload)
            if status == 200:
                samples[index].append(seconds)
            elif status == 429:
                time.sleep(0.01)  # backpressure: retry the round
            else:
                errors.append((status, body))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, f"sustained load saw failures: {errors[:3]}"
    flat = [s for bucket in samples for s in bucket]
    return {
        "clients": clients,
        "requests": len(flat),
        "seconds": elapsed,
        "throughput_rps": len(flat) / elapsed,
        "latency": summarize_ms(flat),
    }


def bench_mixed(base: str, clients: int) -> dict:
    """Each client drives its own model through fit -> sample -> release:
    distinct cache keys, real pool work, budget charges."""
    statuses = []
    lock = threading.Lock()

    def record(status: int) -> None:
        with lock:
            statuses.append(status)

    def client(index: int) -> None:
        fit = {"dataset": DATASET, "method": "kronmom", "seed": index}
        for verb, path, payload in [
            ("POST", "/fit", fit),
            ("POST", "/sample", {**fit, "count": 2}),
            ("POST", "/release", {"dataset": DATASET, "epsilon": 0.01,
                                  "delta": 0.001, "seed": index}),
        ]:
            for _attempt in range(40):
                status, _headers, _body = request(base, verb, path, payload)
                if status != 429:
                    break
                time.sleep(0.02)
            record(status)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    counts = {str(status): statuses.count(status) for status in sorted(set(statuses))}
    assert set(counts) <= {"200"}, f"mixed load saw failures: {counts}"
    return {
        "clients": clients,
        "requests": len(statuses),
        "seconds": elapsed,
        "throughput_rps": len(statuses) / elapsed,
        "status_counts": counts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke subset (fewer rounds/clients); skips the floor assertions",
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "JSON output path (default: benchmarks/out/BENCH_serve.json; "
            "quick runs default to BENCH_serve_quick.json so they never "
            "overwrite the committed full-matrix artifact)"
        ),
    )
    arguments = parser.parse_args(argv)
    if arguments.out is None:
        arguments.out = str(
            OUT_PATH.with_name("BENCH_serve_quick.json") if arguments.quick else OUT_PATH
        )
    warm_rounds = 30 if arguments.quick else 200
    clients = 4 if arguments.quick else 8
    requests_per_client = 10 if arguments.quick else 40

    config = ServeConfig.resolve(
        host="127.0.0.1",
        port=0,
        queue=max(16, clients * 2),
        timeout=60.0,
        budget_epsilon=10.0,
        budget_delta=1.0,
        n_jobs=1,
    )
    runtime = ServeRuntime(config)
    runtime.start()
    try:
        base = runtime.base_url
        status, _headers, _body = request(base, "GET", "/healthz")
        assert status == 200

        cold_warm = bench_cold_vs_warm(base, warm_rounds)
        print(
            f"cold fit {cold_warm['cold_ms']:8.1f} ms   "
            f"warm p50 {cold_warm['warm']['p50_ms']:6.2f} ms  "
            f"p95 {cold_warm['warm']['p95_ms']:6.2f} ms   "
            f"cache speedup {cold_warm['cache_speedup']:.1f}x"
        )

        sustained = bench_sustained(base, clients, requests_per_client)
        print(
            f"sustained  {sustained['clients']} clients x "
            f"{requests_per_client} reqs: {sustained['throughput_rps']:7.1f} req/s  "
            f"p95 {sustained['latency']['p95_ms']:6.2f} ms"
        )

        mixed = bench_mixed(base, clients)
        print(
            f"mixed      {mixed['clients']} clients fit+sample+release: "
            f"{mixed['throughput_rps']:7.1f} req/s"
        )
        stats = json.loads(request(base, "GET", "/stats")[2])
    finally:
        runtime.stop()

    report = {
        "bench": "bench_serve",
        "schema_version": SCHEMA_VERSION,
        "quick": arguments.quick,
        "dataset": DATASET,
        "serve_config": {
            "queue_limit": config.queue_limit,
            "timeout": config.timeout,
            "n_jobs": config.n_jobs,
        },
        "cold_vs_warm": cold_warm,
        "sustained": sustained,
        "mixed": mixed,
        "server_stats": stats,
        "cache_speedup_floor": {
            "required": CACHE_SPEEDUP_FLOOR,
            "measured": cold_warm["cache_speedup"],
        },
        "throughput_floor": {
            "required": THROUGHPUT_FLOOR,
            "measured": sustained["throughput_rps"],
        },
        "mixed_throughput_floor": {
            "required": MIXED_THROUGHPUT_FLOOR,
            "measured": mixed["throughput_rps"],
        },
    }
    out_path = Path(arguments.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"[written to {out_path}]")

    if not arguments.quick:
        assert cold_warm["cache_speedup"] >= CACHE_SPEEDUP_FLOOR, (
            f"cache speedup {cold_warm['cache_speedup']:.1f}x is below the "
            f"{CACHE_SPEEDUP_FLOOR}x floor"
        )
        assert sustained["throughput_rps"] >= THROUGHPUT_FLOOR, (
            f"sustained throughput {sustained['throughput_rps']:.1f} req/s is "
            f"below the {THROUGHPUT_FLOOR} req/s floor"
        )
        assert mixed["throughput_rps"] >= MIXED_THROUGHPUT_FLOOR, (
            f"mixed uncached throughput {mixed['throughput_rps']:.1f} req/s is "
            f"below the {MIXED_THROUGHPUT_FLOOR} req/s floor"
        )
        print(
            f"floors: cache {cold_warm['cache_speedup']:.1f}x >= "
            f"{CACHE_SPEEDUP_FLOOR}x, throughput "
            f"{sustained['throughput_rps']:.1f} >= {THROUGHPUT_FLOOR} req/s, "
            f"mixed {mixed['throughput_rps']:.1f} >= {MIXED_THROUGHPUT_FLOOR} req/s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
