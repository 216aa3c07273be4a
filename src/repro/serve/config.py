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

__all__ = [
    "ServeConfig",
    "SERVE_QUEUE_ENV",
    "SERVE_TIMEOUT_ENV",
    "SERVE_DRAIN_ENV",
    "SERVE_BREAKER_ENV",
    "SERVE_BUDGET_EPSILON_ENV",
    "SERVE_BUDGET_DELTA_ENV",
    "SERVE_LEDGER_DIR_ENV",
    "SERVE_MAX_SAMPLES_ENV",
    "resolve_serve_queue",
    "resolve_serve_timeout",
    "resolve_serve_drain",
    "resolve_serve_breaker",
    "resolve_serve_budget_epsilon",
    "resolve_serve_max_samples",
]

SERVE_QUEUE_ENV = "REPRO_SERVE_QUEUE"
SERVE_TIMEOUT_ENV = "REPRO_SERVE_TIMEOUT"
SERVE_DRAIN_ENV = "REPRO_SERVE_DRAIN"
SERVE_BREAKER_ENV = "REPRO_SERVE_BREAKER"
SERVE_BUDGET_EPSILON_ENV = "REPRO_SERVE_BUDGET_EPSILON"
SERVE_BUDGET_DELTA_ENV = "REPRO_SERVE_BUDGET_DELTA"
SERVE_LEDGER_DIR_ENV = "REPRO_SERVE_LEDGER_DIR"
SERVE_MAX_SAMPLES_ENV = "REPRO_SERVE_MAX_SAMPLES"

DEFAULT_QUEUE = default(SERVE_QUEUE_ENV)
DEFAULT_TIMEOUT = default(SERVE_TIMEOUT_ENV)
DEFAULT_DRAIN = default(SERVE_DRAIN_ENV)
DEFAULT_BREAKER = default(SERVE_BREAKER_ENV)
DEFAULT_BUDGET_EPSILON = default(SERVE_BUDGET_EPSILON_ENV)
DEFAULT_BUDGET_DELTA = default(SERVE_BUDGET_DELTA_ENV)

# Per-request cap on synthetic graphs: purely protective (a request
# asking for thousands would hold its admission slot for minutes).
# Kept under its historical name for callers that import the constant.
DEFAULT_MAX_SAMPLES = default(SERVE_MAX_SAMPLES_ENV)
MAX_SAMPLES_PER_REQUEST = DEFAULT_MAX_SAMPLES


def resolve_serve_queue(queue: int | None = None) -> int:
    """Admission capacity (``REPRO_SERVE_QUEUE``; at least 1)."""
    return knob(SERVE_QUEUE_ENV, queue)


def resolve_serve_timeout(timeout: float | None = None) -> float:
    """Per-request deadline in seconds (``REPRO_SERVE_TIMEOUT``)."""
    return knob(SERVE_TIMEOUT_ENV, timeout)


def resolve_serve_drain(drain: float | None = None) -> float:
    """Graceful-drain deadline in seconds (``REPRO_SERVE_DRAIN``)."""
    return knob(SERVE_DRAIN_ENV, drain)


def resolve_serve_breaker(threshold: int | None = None) -> int:
    """Consecutive pool breakages that trip the breaker (``REPRO_SERVE_BREAKER``)."""
    return knob(SERVE_BREAKER_ENV, threshold)


def resolve_serve_budget_epsilon(epsilon: float | None = None) -> float:
    """Per-dataset ε budget (``REPRO_SERVE_BUDGET_EPSILON``)."""
    return knob(SERVE_BUDGET_EPSILON_ENV, epsilon)


def resolve_serve_max_samples(max_samples: int | None = None) -> int:
    """Per-request synthetic-graph cap (``REPRO_SERVE_MAX_SAMPLES``; at least 1)."""
    return knob(SERVE_MAX_SAMPLES_ENV, max_samples)


@dataclass(frozen=True)
class ServeConfig:
    """Resolved, validated configuration of one serve process."""

    host: str = "127.0.0.1"
    port: int = 8377
    queue_limit: int = DEFAULT_QUEUE
    timeout: float = DEFAULT_TIMEOUT
    drain_deadline: float = DEFAULT_DRAIN
    breaker_threshold: int = DEFAULT_BREAKER
    budget_epsilon: float = DEFAULT_BUDGET_EPSILON
    budget_delta: float = DEFAULT_BUDGET_DELTA
    default_epsilon: float = default("REPRO_EPSILON")
    default_delta: float = default("REPRO_DELTA")
    n_jobs: int = default("REPRO_N_JOBS")
    pool_restarts: int = default("REPRO_POOL_RESTARTS")
    cache_dir: str | None = None
    ledger_dir: str | None = None
    max_samples: int = DEFAULT_MAX_SAMPLES
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
            queue_limit=knob(SERVE_QUEUE_ENV, queue),
            timeout=knob(SERVE_TIMEOUT_ENV, timeout),
            drain_deadline=knob(SERVE_DRAIN_ENV, drain),
            breaker_threshold=knob(SERVE_BREAKER_ENV, breaker),
            budget_epsilon=knob(SERVE_BUDGET_EPSILON_ENV, budget_epsilon),
            budget_delta=knob(SERVE_BUDGET_DELTA_ENV, budget_delta),
            default_epsilon=knob("REPRO_EPSILON"),
            default_delta=knob("REPRO_DELTA"),
            n_jobs=resolve_n_jobs(n_jobs),
            pool_restarts=knob("REPRO_POOL_RESTARTS", pool_restarts),
            cache_dir=knob("REPRO_CACHE_DIR", cache_dir),
            ledger_dir=knob(SERVE_LEDGER_DIR_ENV, ledger_dir),
            max_samples=knob(SERVE_MAX_SAMPLES_ENV, max_samples),
            faults=resolve_serve_fault_plan(faults),
        )
