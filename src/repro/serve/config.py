"""Serve-layer configuration: one frozen, eagerly validated object.

Every robustness behaviour of ``repro serve`` is a knob declared in
:mod:`repro.knobs` with the same resolution order as the rest of the
runtime (explicit argument, then a ``REPRO_SERVE_*`` environment
variable, then the table default):

* ``REPRO_SERVE_QUEUE`` — admission capacity: how many work requests may
  be in flight at once before the server answers 429 + ``Retry-After``.
* ``REPRO_SERVE_TIMEOUT`` — per-request deadline in seconds; a request
  that exceeds it is answered 504 (the watchdog is the trial engine's).
* ``REPRO_SERVE_DRAIN`` — graceful-drain deadline in seconds: how long
  SIGTERM/SIGINT waits for in-flight requests before abandoning them.
* ``REPRO_SERVE_BREAKER`` — circuit-breaker threshold: consecutive
  pool-breakage events before the server trips (work answers 503 and
  ``/readyz`` probes until recovery).
* ``REPRO_SERVE_BUDGET_EPSILON`` / ``REPRO_SERVE_BUDGET_DELTA`` — the
  per-dataset (ε, δ) privacy budget every private request draws on.
* ``REPRO_SERVE_LEDGER_DIR`` — where per-dataset accountant ledgers are
  persisted (unset = in-memory only; spends do not survive restarts).
* ``REPRO_SERVE_MAX_SAMPLES`` — per-request cap on synthetic graphs a
  single sample request may ask for; a request above it is answered
  ``400`` with a structured message naming the limit.

The privacy defaults a request omits (``REPRO_EPSILON`` /
``REPRO_DELTA``) and the execution knobs (``REPRO_N_JOBS``,
``REPRO_CACHE_DIR``, ``REPRO_POOL_RESTARTS``,
``REPRO_SERVE_FAULT_INJECT``) are shared with the evaluation harness and
trial engine, so a serve process and a batch run read one configuration
surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.knobs import default, knob
from repro.runtime.engine import resolve_n_jobs
from repro.runtime.faults import ServeFaultPlan, resolve_serve_fault_plan
from repro.utils.validation import check_integer

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Resolved, validated configuration of one serve process."""

    host: str = "127.0.0.1"
    port: int = 8377
    queue_limit: int = default("REPRO_SERVE_QUEUE")
    timeout: float = default("REPRO_SERVE_TIMEOUT")
    drain_deadline: float = default("REPRO_SERVE_DRAIN")
    breaker_threshold: int = default("REPRO_SERVE_BREAKER")
    budget_epsilon: float = default("REPRO_SERVE_BUDGET_EPSILON")
    budget_delta: float = default("REPRO_SERVE_BUDGET_DELTA")
    default_epsilon: float = default("REPRO_EPSILON")
    default_delta: float = default("REPRO_DELTA")
    n_jobs: int = default("REPRO_N_JOBS")
    pool_restarts: int = default("REPRO_POOL_RESTARTS")
    cache_dir: str | None = None
    ledger_dir: str | None = None
    max_samples: int = default("REPRO_SERVE_MAX_SAMPLES")
    faults: ServeFaultPlan = field(default_factory=ServeFaultPlan)

    @classmethod
    def resolve(
        cls,
        *,
        host: str | None = None,
        port: int | None = None,
        queue: int | None = None,
        timeout: float | None = None,
        drain: float | None = None,
        breaker: int | None = None,
        budget_epsilon: float | None = None,
        budget_delta: float | None = None,
        n_jobs: int | None = None,
        pool_restarts: int | None = None,
        cache_dir: str | None = None,
        ledger_dir: str | None = None,
        max_samples: int | None = None,
        faults: "str | ServeFaultPlan | None" = None,
    ) -> "ServeConfig":
        """Build a config with the standard knob-resolution order.

        Every ``None`` falls through to its ``REPRO_SERVE_*`` (or shared
        ``REPRO_*``) environment variable, then the default.  Validation
        happens here, eagerly — a serve process must refuse to boot with
        a bad knob, not fail on its first request.
        """
        return cls(
            host=host if host is not None else "127.0.0.1",
            port=check_integer(port if port is not None else 8377, "port", minimum=0),
            queue_limit=knob("REPRO_SERVE_QUEUE", queue),
            timeout=knob("REPRO_SERVE_TIMEOUT", timeout),
            drain_deadline=knob("REPRO_SERVE_DRAIN", drain),
            breaker_threshold=knob("REPRO_SERVE_BREAKER", breaker),
            budget_epsilon=knob("REPRO_SERVE_BUDGET_EPSILON", budget_epsilon),
            budget_delta=knob("REPRO_SERVE_BUDGET_DELTA", budget_delta),
            default_epsilon=knob("REPRO_EPSILON"),
            default_delta=knob("REPRO_DELTA"),
            n_jobs=resolve_n_jobs(n_jobs),
            pool_restarts=knob("REPRO_POOL_RESTARTS", pool_restarts),
            cache_dir=knob("REPRO_CACHE_DIR", cache_dir),
            ledger_dir=knob("REPRO_SERVE_LEDGER_DIR", ledger_dir),
            max_samples=knob("REPRO_SERVE_MAX_SAMPLES", max_samples),
            faults=resolve_serve_fault_plan(faults),
        )
