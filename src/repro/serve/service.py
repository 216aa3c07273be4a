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
           canonicalize -> injected faults -> response-cache probe
           -> single-flight lock -> re-probe -> build the estimator
              (malformed params: 400, nothing charged) -> model fit
              (atomic budget charge BEFORE the fit) -> samples
              (fanned over the service's n_jobs threads) -> store response

Determinism: a request that omits ``seed`` gets one derived from the
stable hash of its canonical parameters, so retrying the same request —
against a cold cache, a warm cache, or a restarted server — returns a
bit-identical body.  Cache attribution never leaks into the body; it
rides the ``X-Repro-Cache`` header and ``/stats``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.protocols import build_estimator, estimator_method
from repro.errors import DatasetError, PrivacyBudgetError, ValidationError
from repro.graphs.datasets import available_datasets
from repro.runtime.cache import TrialCache
from repro.runtime.engine import TrialTimeoutError, call_with_timeout
from repro.runtime.faults import InjectedFault, RequestFaults
from repro.runtime.hashing import stable_hash
from repro.serve.accounting import AccountantRegistry
from repro.serve.admission import AdmissionGate, CircuitBreaker, KeyedLocks
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
_RESPONSE_KEY_VERSION = 1

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


@dataclass(frozen=True)
class ServeResponse:
    """One fully-formed response: status, JSON body, extra headers."""

    status: int
    body: dict
    headers: Mapping[str, str] = field(default_factory=dict)


def _error(status: int, code: str, message: str, headers: Mapping[str, str] | None = None):
    body = {"error": {"code": code, "message": message, "status": status}}
    return ServeResponse(status, body, headers or {})


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
            accountants=self.accountants, executor=self._run_work, cache=cache
        )
        self._response_cache = cache
        self._response_memory: dict[str, dict] = {}
        self._response_locks = KeyedLocks()
        # Sample rows fan out over n_jobs threads: the fit pool is idle
        # while a request samples, and the compiled sampler releases the
        # interpreter lock.
        self._sampler = ThreadPoolExecutor(
            max_workers=max(1, config.n_jobs), thread_name_prefix="repro-serve-sample"
        )
        self._lock = threading.Lock()
        self._work_sequence = 0
        self._requests = 0
        self._by_status: dict[int, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
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
        """Wait for in-flight work, then flush ledgers to disk.

        Returns ``True`` when every in-flight request finished within the
        deadline.  The ledger flush happens either way — recorded spends
        must reach disk even when a straggler is abandoned.
        """
        self.begin_drain()
        if deadline is None:
            deadline = self.config.drain_deadline
        drained = self.gate.wait_idle(deadline)
        flushed = self.accountants.flush()
        _logger.info(
            "drain %s: %d ledger(s) flushed, %d request(s) still in flight",
            "complete" if drained else "deadline expired",
            flushed,
            self.gate.in_flight,
        )
        return drained

    def close(self) -> None:
        """Release the sampling threads (after :meth:`drain`)."""
        self._sampler.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def handle(self, verb: str, path: str, payload: Any = None) -> ServeResponse:
        """Serve one request; never raises, always a structured response."""
        try:
            response = self._route(verb, path, payload)
        except Exception as exc:  # the never-a-hung-socket backstop
            _logger.exception("unhandled error serving %s %s", verb, path)
            response = _error(503, "internal", f"{type(exc).__name__}: {exc}")
        with self._lock:
            self._requests += 1
            self._by_status[response.status] = self._by_status.get(response.status, 0) + 1
        return response

    def _route(self, verb: str, path: str, payload: Any) -> ServeResponse:
        if path == "/healthz":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return ServeResponse(200, {"status": "ok"})
        if path == "/readyz":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return self._readyz()
        if path == "/stats":
            if verb != "GET":
                return _error(405, "method-not-allowed", f"{path} expects GET")
            return ServeResponse(200, self.stats())
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
        return ServeResponse(200, {"status": "ready"})

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
                body, cached = call_with_timeout(
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
            with self._lock:
                if cached:
                    self._cache_hits += 1
                else:
                    self._cache_misses += 1
            return ServeResponse(
                200, body, {"X-Repro-Cache": "hit" if cached else "miss"}
            )
        finally:
            self.gate.leave()

    def _execute(self, endpoint: str, payload: Any, faults: RequestFaults):
        """Canonicalize, apply injected faults, compute-or-cache."""
        canonical = self._canonicalize(endpoint, payload)
        if faults.slow_seconds > 0:
            # Injected latency sits inside the watchdog so a slow enough
            # clause drives the 504 path end to end.
            time.sleep(faults.slow_seconds)
        if faults.error:
            raise InjectedFault("injected handler error")
        key = stable_hash(("serve", _RESPONSE_KEY_VERSION, endpoint, canonical))
        body = self._probe_response(key)
        if body is not None:
            return body, True
        with self._response_locks.lock(key):
            body = self._probe_response(key)
            if body is not None:
                return body, True
            body = self._compute(endpoint, canonical, faults)
            self._store_response(key, body)
            return body, False

    def _probe_response(self, key: str) -> dict | None:
        with self._lock:
            body = self._response_memory.get(key)
        if body is not None:
            return body
        if self._response_cache is not None:
            hit, value = self._response_cache.load(key)
            if hit:
                with self._lock:
                    self._response_memory[key] = value
                return value
        return None

    def _store_response(self, key: str, body: dict) -> None:
        with self._lock:
            self._response_memory[key] = body
        if self._response_cache is not None:
            self._response_cache.store(key, body)

    def _compute(self, endpoint: str, canonical: tuple, faults: RequestFaults) -> dict:
        request = dict(canonical)
        spec = ModelSpec(
            dataset=request["dataset"],
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
        model, _source = self.models.get_or_fit(
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
            entropy = int(
                stable_hash(("serve-entropy", spec.token(), count))[:16], 16
            )
            body["count"] = count
            body["samples"] = _sample_work(
                model=model, count=count, entropy=entropy, mapper=self._sampler.map
            )
        return body

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
            responses = {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "cached": len(self._response_memory),
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
