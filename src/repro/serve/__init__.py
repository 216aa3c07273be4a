"""Synthesis-as-a-service: the fault-tolerant ``repro serve`` layer.

A small stdlib-only JSON API over the estimator stack — fit once per
(dataset, estimator, budget), sample many, with the robustness knobs a
long-running process needs: bounded admission with backpressure,
per-request deadlines, a circuit breaker over pool breakage, graceful
drain on SIGTERM/SIGINT, and a concurrency-safe per-dataset privacy
accountant whose refusals happen *before* any noise is drawn.

Layering (each importable and testable without the ones above it)::

    config.py      knobs      -> ServeConfig (REPRO_SERVE_* resolution)
    admission.py   primitives -> AdmissionGate, CircuitBreaker, KeyedLocks,
                                 SingleFlightMemo
    accounting.py  privacy    -> AccountantRegistry (charge + fsync'd append)
    registry.py    models     -> ModelSpec, ModelRegistry, execute_work
    service.py     policy     -> SynthesisService.handle(verb, path, body)
    server.py      transport  -> ServeRuntime (HTTP + signals + drain)
"""

from repro.serve.accounting import AccountantRegistry
from repro.serve.admission import AdmissionGate, CircuitBreaker, KeyedLocks, SingleFlightMemo
from repro.serve.config import ServeConfig
from repro.serve.registry import ModelRegistry, ModelSpec, execute_work
from repro.serve.server import ServeRuntime
from repro.serve.service import ServeResponse, SynthesisService

__all__ = [
    "AccountantRegistry",
    "AdmissionGate",
    "CircuitBreaker",
    "KeyedLocks",
    "ModelRegistry",
    "ModelSpec",
    "ServeConfig",
    "ServeResponse",
    "ServeRuntime",
    "SingleFlightMemo",
    "SynthesisService",
    "execute_work",
]
