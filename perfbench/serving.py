"""The ``serve-release`` workload: an in-process ``repro serve`` under load.

One HTTP client in a closed loop alternates an uncached private
``/release`` on as20 (a fresh seed, so a fresh fit, a ledger charge and
``RELEASE_COUNT`` sampled graphs with their statistics) with a cached
``/fit`` of the KronMom model fitted at set-up.

One client, not two: the server samples in its handler thread, so two
concurrent releases contend for the interpreter lock in the server
process, and each one's latency would depend on how their phases
happen to line up.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from pathlib import Path
from types import SimpleNamespace

from perfbench import measure
from perfbench.trace import Tracer
from perfbench.workloads import DELTA, EPSILON, Op, initiator_ok, request_seeds

DATASET = "as20"
CLIENTS = 1
N_JOBS = 2
# Synthetic graphs per /release: enough that sampling plus per-sample
# statistics is about half of a release's compute at as20's k = 13.
RELEASE_COUNT = 12
RELEASE_PAYLOAD = {"dataset": DATASET, "epsilon": EPSILON, "delta": DELTA,
                   "count": RELEASE_COUNT}
FIT_PAYLOAD = {"dataset": DATASET, "method": "kronmom"}
# Seeds of the warm-up requests come from clients numbered past the real ones.
_WARM_UP_CLIENT = 1000


class ServeClient:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.connection = http.client.HTTPConnection(*address, timeout=120)

    def request(self, verb: str, path: str, payload=None):
        """Returns (status, X-Repro-Cache header, body bytes)."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.connection.request(verb, path, body=body, headers=headers)
            response = self.connection.getresponse()
            return response.status, response.getheader("X-Repro-Cache"), response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            self.connection = http.client.HTTPConnection(*self.address, timeout=120)
            raise

    def close(self) -> None:
        self.connection.close()


def check_release(status, cache, data: bytes, seed: int) -> tuple[bool, list, str]:
    """A cold /release: well-formed 200, exact charge, valid initiator."""
    if status != 200:
        return False, [], f"/release answered {status}"
    try:
        body = json.loads(data)
        theta = body["model"]["initiator"]
        samples = body["samples"]
    except (ValueError, KeyError, TypeError) as exc:
        return False, [], f"malformed /release body: {exc}"
    record = [seed, repr(theta["a"]), repr(theta["b"]), repr(theta["c"]),
              measure.digest(data.decode("utf-8"))]
    checks = [
        (cache == "miss", f"uncached /release answered X-Repro-Cache={cache}"),
        (body.get("seed") == seed, "body seed differs from the request"),
        (body.get("charged") == {"epsilon": EPSILON, "delta": DELTA},
         f"charged {body.get('charged')} instead of ({EPSILON}, {DELTA})"),
        (initiator_ok(SimpleNamespace(**theta)), f"initiator out of range: {theta}"),
        (len(samples) == RELEASE_COUNT, f"{len(samples)} samples, expected {RELEASE_COUNT}"),
    ]
    for passed, message in checks:
        if not passed:
            return False, record, message
    return True, record, ""


class ServeRelease:
    name = "serve-release"
    primary = "release"
    digest_ops = 3  # per client

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.runtime = None
        self.cold_fit: bytes = b""
        self.warm_ops: list[Op] = []
        self._setups = 0

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Boot the server and its pool, and fit the model /fit will serve."""
        from repro.serve.config import ServeConfig
        from repro.serve.server import ServeRuntime

        self._setups += 1
        ledger = self.work_dir / f"ledger-{self._setups}"
        config = ServeConfig(
            host="127.0.0.1", port=0, n_jobs=N_JOBS, timeout=300.0,
            budget_epsilon=1e9, budget_delta=1e9, ledger_dir=str(ledger),
        )
        self.runtime = ServeRuntime(config)
        self.runtime.start()
        self.warm_ops = []
        client = ServeClient(self.runtime.address)
        try:
            status, cache, data = client.request("POST", "/fit", FIT_PAYLOAD)
        finally:
            client.close()
        if status != 200 or cache != "miss":
            raise RuntimeError(f"set-up /fit answered {status} ({cache})")
        self.cold_fit = data

    def input_digests(self) -> list[str]:
        return [measure.digest(request_seeds(self.seed, c, self.digest_ops))
                for c in range(CLIENTS)]

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.stop()
            self.runtime = None
        for ledger in self.work_dir.glob("ledger-*"):
            shutil.rmtree(ledger, ignore_errors=True)

    def warm_up(self) -> None:
        """One release per pool worker at once, so every worker loads as20."""
        threads = [threading.Thread(target=self._client_loop,
                                    args=(_WARM_UP_CLIENT + c, 0.0, 1, self.warm_ops, None))
                   for c in range(N_JOBS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- the measured loop -----------------------------------------------------

    def _client_loop(self, client: int, deadline: float, minimum: int,
                     ops: list, tracer: Tracer | None) -> None:
        connection = ServeClient(self.runtime.address)
        seeds = request_seeds(self.seed, client, 4096)
        try:
            j = 0
            while j < minimum or time.perf_counter() < deadline:
                seed = seeds[j]
                j += 1
                ops.append(self._one(connection, "release", seed, tracer))
                ops.append(self._one(connection, "hit", None, tracer))
        finally:
            connection.close()

    def _one(self, connection: ServeClient, kind: str, seed, tracer) -> Op:
        traced_at_start = tracer is not None and tracer.enabled
        start = time.perf_counter()
        try:
            if kind == "release":
                status, cache, data = connection.request(
                    "POST", "/release", dict(RELEASE_PAYLOAD, seed=seed))
            else:
                status, cache, data = connection.request("POST", "/fit", FIT_PAYLOAD)
        except (OSError, http.client.HTTPException) as exc:
            return Op(kind, (time.perf_counter() - start) * 1e3, False,
                      error=f"{type(exc).__name__}: {exc}")
        ms = (time.perf_counter() - start) * 1e3
        if kind == "release":
            ok, record, error = check_release(status, cache, data, seed)
        else:
            ok = status == 200 and cache == "hit" and data == self.cold_fit
            record = []
            error = "" if ok else (
                f"/fit answered {status} (X-Repro-Cache={cache}); a cached body must "
                "be a 200 hit byte-identical to the cold one"
            )
        traced_at_end = tracer is not None and tracer.enabled
        window = "traced" if traced_at_start and traced_at_end else (
            "untraced" if not traced_at_end else "mixed")
        return Op(kind, ms, ok, record, error, window)

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        """The clients for ``seconds``; traced runs trace the second half."""
        per_client: list[list[Op]] = [[] for _ in range(CLIENTS)]
        start = time.perf_counter()
        deadline = start + seconds
        threads = [threading.Thread(target=self._client_loop,
                                    args=(c, deadline, self.digest_ops, per_client[c], tracer))
                   for c in range(CLIENTS)]
        for thread in threads:
            thread.start()
        if tracer is not None:
            time.sleep(seconds / 2)
            tracer.enabled = True
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        stats = self._stats()
        ops = [op for client_ops in per_client for op in client_ops]
        budget = stats["budget"].get(DATASET, {})
        releases = sum(op.kind == "release" for op in ops + self.warm_ops)
        report = {
            "cache_hits": stats["responses"]["hits"],
            "cache_misses": stats["responses"]["misses"],
            "rejected_429": stats["admission"]["rejected"],
            "pool_restarts": stats["breaker"]["pool_breakages"],
            "ledger_entries": budget.get("entries", 0),
            "releases_sent": releases,
        }
        # Every uncached release, warm-up included, charged exactly once.
        report["budget_ok"] = report["ledger_entries"] == releases
        digest_records = [op.record for client_ops in per_client
                          for op in [o for o in client_ops if o.kind == "release"][
                              : self.digest_ops]]
        return {"ops": ops, "wall_s": wall, "report": report,
                "digest_records": digest_records}

    def _stats(self) -> dict:
        connection = ServeClient(self.runtime.address)
        try:
            status, _cache, data = connection.request("GET", "/stats")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(data)
