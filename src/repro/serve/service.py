"""Transport-independent request handling for ``repro serve``.

:class:`SynthesisService` is the whole API surface as a plain object:
``handle(verb, path, payload)`` → :class:`ServeResponse`.  The HTTP
layer (:mod:`repro.serve.server`) only moves bytes; every behaviour the
acceptance tests care about — admission, deadlines, budget refusal,
caching, circuit breaking, drain — lives here, where it can be driven
by ordinary threads in tests without a socket in sight.

Status contract (the only statuses a work endpoint ever answers):

====  =========================================================
200   success (body bit-identical whether computed or cached)
400   malformed request (unknown dataset/method, bad JSON shape)
403   privacy budget exhausted — refused *before* noise is drawn
429   admission queue full — ``Retry-After`` header set
503   draining, circuit breaker open, or work failed
504   per-request deadline exceeded (``REPRO_SERVE_TIMEOUT``)
====  =========================================================

Every response body is a JSON object; errors carry
``{"error": {"code", "message", "status"}}`` — never a hung or
half-written socket.

Request flow on ``/fit`` / ``/sample`` / ``/release``::

    drain? -> 503 | breaker open? -> 503 | gate full? -> 429
      -> assign work sequence number (fault-injection target)
      -> under the deadline watchdog:
           canonicalize (with the dataset fingerprint)
           -> injected faults (the request's TrialFaults)
           -> response memo (memory -> keyed lock -> memory -> disk):
              hit -> body
              miss -> build the estimator (malformed params: 400,
                 nothing charged) -> model memo (atomic budget charge,
                 once per model token, BEFORE the fit) -> samples (one
                 run of seeds per sampler thread) -> encoded body to
                 disk, then to memory

Both memos are LRUs (:data:`_RESPONSE_MEMO_SIZE` and
:data:`_MODEL_MEMO_SIZE`), the response memo of encoded wire bytes.  An
evicted body recomputes byte-identically from its (model, count,
entropy); an evicted model refits without a second charge.

Determinism: a request that omits ``seed`` gets one derived from the
stable hash of its canonical parameters, so retrying the same request —
against a cold cache, a warm cache, or a restarted server — returns a
bit-identical body.  Cache attribution never leaks into the body; it
rides the ``X-Repro-Cache`` header and ``/stats``.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.protocols import build_estimator, estimator_method
from repro.errors import DatasetError, PrivacyBudgetError, ValidationError
from repro.graphs.datasets import available_datasets, dataset_fingerprint
from repro.runtime.cache import TrialCache
from repro.runtime.engine import TrialTimeoutError, call_with_timeout
from repro.runtime.faults import InjectedFault, TrialFaults
from repro.runtime.hashing import stable_hash
from repro.serve.accounting import AccountantRegistry
from repro.serve.admission import AdmissionGate, CircuitBreaker, SingleFlightMemo
from repro.serve.config import ServeConfig
from repro.serve.registry import (
    ModelRegistry,
    ModelSpec,
    _probe_work,
    _sample_work,
    execute_work,
)
from repro.utils.logging import get_logger

__all__ = ["ServeResponse", "SynthesisService"]

_logger = get_logger(__name__)

# Version tag in every response-cache key: bump when body layout changes.
_RESPONSE_KEY_VERSION = 2

# Memo bounds: encoded bodies (~1.7 KB for a 12-sample /release) and
# fitted models (~0.6 KB each), so the memos stay near 0.2 MB.
_RESPONSE_MEMO_SIZE = 64
_MODEL_MEMO_SIZE = 128

# Lowercase request tokens -> estimator registry names.  ``Fixed`` is
# deliberately not servable: it ignores the dataset, so it has no place
# behind a per-dataset budget.
_SERVE_METHODS = {
    "kronfit": "KronFit",
    "kronmom": "KronMom",
    "private": "Private",
    "dpdegree": "DPDegree",
}

_WORK_ENDPOINTS = ("/fit", "/sample", "/release")


def _encode(body: dict) -> bytes:
    """A JSON body as the bytes the HTTP layer writes."""
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class ServeResponse:
    """One fully-formed response: status, JSON wire bytes, extra headers."""

    status: int
    payload: bytes
    headers: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, status: int, body: dict, headers: Mapping[str, str] | None = None):
        """The response whose JSON body is ``body``."""
        return cls(status, _encode(body), headers or {})

    @property
    def body(self) -> dict:
        """The JSON body, decoded from :attr:`payload`."""
        return json.loads(self.payload)


def _error(status: int, code: str, message: str, headers: Mapping[str, str] | None = None):
    body = {"error": {"code": code, "message": message, "status": status}}
    return ServeResponse.of(status, body, headers)


class SynthesisService:
    """The serve layer's brain: routing, robustness, and the registry."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.gate = AdmissionGate(config.queue_limit)
        self.breaker = CircuitBreaker(config.breaker_threshold)
        self.accountants = AccountantRegistry(
            epsilon=config.budget_epsilon,
            delta=config.budget_delta,
            ledger_dir=config.ledger_dir,
        )
        cache = TrialCache(config.cache_dir) if config.cache_dir else None
        self.models = ModelRegistry(
            accountants=self.accountants,
            executor=self._run_work,
            cache=cache,
            maxsize=_MODEL_MEMO_SIZE,
        )
        self._responses = SingleFlightMemo(cache, _RESPONSE_MEMO_SIZE)
        # A request's samples are cut into n_jobs runs, one per thread:
        # the fit pool is idle while a request samples, and each run is
        # one sampler-kernel call that releases the interpreter lock.
        self._sampler = ThreadPoolExecutor(
            max_workers=max(1, config.n_jobs), thread_name_prefix="repro-serve-sample"
        )
        self._lock = threading.Lock()
        self._work_sequence = 0
        self._requests = 0
        self._by_status: dict[int, int] = {}
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Stop admitting work; ``/readyz`` starts answering 503."""
        with self._lock:
            self._draining = True

    def drain(self, deadline: float | None = None) -> bool:
        """Stop admitting work and wait for in-flight requests.

        Returns ``True`` when every in-flight request finished within the
        deadline.  The ledgers need no final write: each charge was
        appended and fsync'd before its fit drew noise, so an abandoned
        straggler's spend is already on disk.
        """
        self.begin_drain()
        if deadline is None:
            deadline = self.config.drain_deadline
        drained = self.gate.wait_idle(deadline)
        _logger.info(
            "drain %s: %d request(s) still in flight",
            "complete" if drained else "deadline expired",
            self.gate.in_flight,
        )
        return drained

    def close(self) -> None:
        """Release the sampling threads (after :meth:`drain`)."""
        self._sampler.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def handle_body(self, verb: str, path: str, body: bytes) -> ServeResponse:
        """:meth:`handle` for a raw request body (empty: no payload).

        A body that is not JSON answers the 400 ``bad-json``, counted in
        ``/stats`` like every other answer.
        """
        payload = None
        if body:
            try:
                payload = json.loads(body)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and a body that is
                # not UTF-8; RecursionError a body nested deeper than the
                # decoder's stack.
                return self._record(
                    _error(400, "bad-json", f"request body is not JSON: {exc}")
                )
        return self.handle(verb, path, payload)

    def handle(self, verb: str, path: str, payload: Any = None) -> ServeResponse:
        """Serve one request; never raises, always a structured response."""
        try:
            response = self._route(verb, path, payload)
        except Exception as exc:  # the never-a-hung-socket backstop
            _logger.exception("unhandled error serving %s %s", verb, path)
            response = _error(503, "internal", f"{type(exc).__name__}: {exc}")
        return self._record(response)

    def _record(self, response: ServeResponse) -> ServeResponse:
        """Count ``response`` in ``/stats``; every answer passes here."""
        with self._lock:
            self._requests += 1
            self._by_status[response.status] = self._by_status.get(response.status, 0) + 1
        return response

    def _route(self, verb: str, path: str, payload: Any) -> ServeResponse:
        if path == "/healthz":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return ServeResponse.of(200, {"status": "ok"})
        if path == "/readyz":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return self._readyz()
        if path == "/stats":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return ServeResponse.of(200, self.stats())
        if path in _WORK_ENDPOINTS:
            if verb != "POST":
                return _error(405, "method-not-allowed", f"{path} expects POST")
            return self._handle_work(path, payload)
        return _error(404, "not-found", f"unknown path {path!r}")

    def _readyz(self) -> ServeResponse:
        if self.draining:
            return _error(503, "draining", "server is draining")
        if self.breaker.is_open:
            self._probe_breaker()
            if self.breaker.is_open:
                return _error(
                    503, "breaker-open",
                    "circuit breaker is open after repeated pool breakage",
                )
        return ServeResponse.of(200, {"status": "ready"})

    def _probe_breaker(self) -> None:
        """Single-flight recovery probe: one trivial pool round-trip."""
        if not self.breaker.begin_probe():
            return
        success = False
        try:
            self._run_work(_probe_work, {})
            success = True
        except Exception as exc:
            _logger.warning("breaker recovery probe failed: %s", exc)
        finally:
            self.breaker.end_probe(success)

    # ------------------------------------------------------------------
    # Work endpoints
    # ------------------------------------------------------------------

    def _handle_work(self, endpoint: str, payload: Any) -> ServeResponse:
        if self.draining:
            return _error(503, "draining", "server is draining; not accepting work")
        if self.breaker.is_open:
            return _error(
                503, "breaker-open",
                "circuit breaker is open; poll /readyz for recovery",
            )
        if not self.gate.try_enter():
            retry_after = str(max(1, int(self.config.timeout)))
            return _error(
                429, "queue-full",
                f"admission queue is full ({self.config.queue_limit} in flight); "
                "retry later",
                headers={"Retry-After": retry_after},
            )
        try:
            with self._lock:
                self._work_sequence += 1
                nth = self._work_sequence
            faults = self.config.faults.for_request(nth)
            try:
                encoded, cached = call_with_timeout(
                    lambda: self._execute(endpoint, payload, faults),
                    self.config.timeout,
                    nth,
                )
            except TrialTimeoutError:
                return _error(
                    504, "deadline",
                    f"request exceeded the {self.config.timeout:g}s deadline",
                )
            except PrivacyBudgetError as exc:
                return _error(403, "budget-exhausted", str(exc))
            except (ValidationError, DatasetError) as exc:
                # DatasetError is a KeyError: str() would wrap the
                # message in repr quotes.
                message = exc.args[0] if exc.args else str(exc)
                return _error(400, "bad-request", str(message))
            except Exception as exc:
                _logger.warning("%s failed: %s: %s", endpoint, type(exc).__name__, exc)
                return _error(503, "work-failed", f"{type(exc).__name__}: {exc}")
            return ServeResponse(
                200, encoded, {"X-Repro-Cache": "hit" if cached else "miss"}
            )
        finally:
            self.gate.leave()

    def _execute(self, endpoint: str, payload: Any, faults: TrialFaults):
        """Canonicalize, apply injected faults, compute-or-cache.

        Returns ``(encoded body, cached)``.  The request is attempt 1 of a trial.
        """
        canonical = self._canonicalize(endpoint, payload)
        if faults.slow_attempts:
            # Injected latency sits inside the watchdog so a slow enough
            # clause drives the 504 path end to end.
            time.sleep(faults.slow_seconds)
        if faults.error_attempts:
            raise InjectedFault("injected handler error")
        key = stable_hash(("serve", _RESPONSE_KEY_VERSION, endpoint, canonical))
        encoded, source = self._responses.get(
            key, lambda: self._compute(endpoint, canonical, faults)
        )
        return encoded, source != "computed"

    def _compute(self, endpoint: str, canonical: tuple, faults: TrialFaults) -> bytes:
        request = dict(canonical)
        spec = ModelSpec(
            dataset=request["dataset"],
            fingerprint=request["fingerprint"],
            method=request["method"],
            epsilon=request["epsilon"],
            delta=request["delta"],
            seed=request["seed"],
            params=request["params"],
        )
        # Build the estimator once here, on public inputs only (no noise
        # is drawn), so malformed params answer 400 before the fit
        # charges the budget.
        try:
            build_estimator(
                spec.method,
                spec.params,
                epsilon=spec.epsilon,
                delta=spec.delta,
                seed=spec.seed,
            )
        except ValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"invalid params for method {spec.method}: {exc}"
            ) from exc
        model = self.models.get_or_fit(
            spec, crash_submissions=faults.crash_submissions
        )
        epsilon, delta = spec.charge
        body: dict[str, Any] = {
            "dataset": spec.dataset,
            "method": spec.method,
            "seed": spec.seed,
            "model": self.models.summarize_model(model),
            "charged": (
                {"epsilon": epsilon, "delta": delta} if spec.charges_budget else None
            ),
        }
        if endpoint in ("/sample", "/release"):
            count = request["count"]
            body["count"] = count
            body["samples"] = _sample_work(
                model=model,
                count=count,
                entropy=spec.entropy(count),
                mapper=self._sampler.map,
                shards=self.config.n_jobs,
            )
        return _encode(body)

    # ------------------------------------------------------------------
    # Canonicalization
    # ------------------------------------------------------------------

    def _canonicalize(self, endpoint: str, payload: Any) -> tuple:
        """A strict, sorted, hashable view of one work request.

        Raises :class:`ValidationError` / :class:`DatasetError` on any
        malformed field — crucially *before* any budget is charged, so a
        typo'd dataset name cannot leak spend.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise ValidationError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        allowed = {"dataset", "method", "epsilon", "delta", "seed", "params"}
        if endpoint in ("/sample", "/release"):
            allowed.add("count")
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValidationError(
                f"unknown request field(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(sorted(allowed))}"
            )

        dataset = payload.get("dataset")
        if not isinstance(dataset, str) or not dataset:
            raise ValidationError("request field 'dataset' must be a non-empty string")
        dataset = dataset.lower()
        if dataset not in available_datasets():
            raise DatasetError(
                f"unknown dataset {dataset!r}; available: "
                f"{', '.join(available_datasets())}"
            )

        default_method = "private" if endpoint == "/release" else "kronmom"
        method_token = payload.get("method", default_method)
        if not isinstance(method_token, str):
            raise ValidationError("request field 'method' must be a string")
        method = _SERVE_METHODS.get(method_token.lower())
        if method is None:
            raise ValidationError(
                f"unknown method {method_token!r}; servable methods: "
                f"{', '.join(sorted(_SERVE_METHODS))}"
            )
        descriptor = estimator_method(method)
        if endpoint == "/release" and not descriptor.accepts_epsilon:
            raise ValidationError(
                f"/release requires a private method; {method_token!r} consumes "
                "no privacy budget (use /fit or /sample for it)"
            )

        epsilon = self._field_number(payload, "epsilon", self.config.default_epsilon)
        delta = self._field_number(payload, "delta", self.config.default_delta)
        if not descriptor.accepts_epsilon:
            if "epsilon" in payload or "delta" in payload:
                raise ValidationError(
                    f"method {method_token!r} consumes no privacy budget; "
                    "do not send 'epsilon'/'delta'"
                )
            epsilon = None
            delta = None
        else:
            if not epsilon > 0:
                raise ValidationError(f"epsilon must be positive, got {epsilon}")
            if descriptor.accepts_delta:
                if not delta > 0:
                    raise ValidationError(f"delta must be positive, got {delta}")
            else:
                if "delta" in payload:
                    raise ValidationError(
                        f"method {method_token!r} does not use 'delta'"
                    )
                delta = None

        params_raw = payload.get("params", {})
        if not isinstance(params_raw, dict):
            raise ValidationError("request field 'params' must be a JSON object")
        # The budget and the seed are top-level fields: a copy inside
        # params would override what the ledger charges.
        shadowing = sorted({"epsilon", "delta", "seed"} & set(params_raw))
        if shadowing:
            raise ValidationError(
                f"estimator param(s) {', '.join(map(repr, shadowing))} must be "
                "sent as top-level request fields, not inside 'params'"
            )
        for name, value in params_raw.items():
            if not isinstance(value, (int, float, str, bool)):
                raise ValidationError(
                    f"estimator param {name!r} must be a scalar, "
                    f"got {type(value).__name__}"
                )
        params = tuple(sorted(params_raw.items()))

        seed = payload.get("seed")
        if seed is None:
            # Deterministic default: identical requests (any process, any
            # time) resolve to the same model, hence bit-identical bodies.
            seed = int(
                stable_hash(("serve-seed", dataset, method, epsilon, delta, params))[:8],
                16,
            )
        elif not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValidationError("request field 'seed' must be a non-negative integer")

        canonical: dict[str, Any] = {
            "dataset": dataset,
            "fingerprint": dataset_fingerprint(dataset),
            "method": method,
            "epsilon": epsilon,
            "delta": delta,
            "seed": seed,
            "params": params,
        }
        if endpoint in ("/sample", "/release"):
            count = payload.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValidationError(
                    "request field 'count' must be a positive integer"
                )
            if count > self.config.max_samples:
                raise ValidationError(
                    f"count {count} exceeds the per-request cap of "
                    f"{self.config.max_samples} (raise it with "
                    "REPRO_SERVE_MAX_SAMPLES)"
                )
            canonical["count"] = count
        return tuple(sorted(canonical.items()))

    @staticmethod
    def _field_number(payload: dict, name: str, fallback: float) -> float:
        value = payload.get(name, fallback)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"request field {name!r} must be a number")
        return float(value)

    # ------------------------------------------------------------------
    # Work execution & stats
    # ------------------------------------------------------------------

    def _run_work(
        self,
        fn: Callable[..., Any],
        kwargs: dict,
        *,
        crash_submissions: int = 0,
    ) -> Any:
        return execute_work(
            fn,
            kwargs,
            n_jobs=self.config.n_jobs,
            pool_restarts=self.config.pool_restarts,
            crash_submissions=crash_submissions,
            on_breakage=self.breaker.record_breakage,
            on_success=self.breaker.record_success,
        )

    def stats(self) -> dict:
        with self._lock:
            counters = {
                "total": self._requests,
                "by_status": {str(k): v for k, v in sorted(self._by_status.items())},
            }
        served = self._responses.counts()
        responses = {
            "hits": served["memory"] + served["disk"],
            "misses": served["computed"],
            "cached": len(self._responses),
        }
        return {
            "status": "draining" if self.draining else "ok",
            "requests": counters,
            "responses": responses,
            "admission": self.gate.snapshot(),
            "breaker": self.breaker.snapshot(),
            "models": self.models.snapshot(),
            "budget": self.accountants.snapshot(),
        }
