"""Every ``REPRO_*`` environment knob, declared once and read one way.

:data:`KNOBS` holds one :class:`Knob` per variable — its kind, default,
validator, and a one-line description — and :func:`knob` is the only
function in the package that reads a ``REPRO_*`` variable.  Resolution
follows one policy for every knob:

* the explicit argument if given, else the environment variable, else the
  table default;
* the environment is read at call time (never cached), so tests can
  monkeypatch it and the CLI can publish flags through it;
* an empty or whitespace-only value means unset; numbers and choices are
  stripped before parsing, paths and fault specs are passed through
  verbatim;
* every parse or range failure raises
  :class:`~repro.errors.ValidationError` naming the variable (or the
  argument) it came from.

Post-processing that is not validation — "≤ 0 means all cores", backend
availability probing, fault-spec parsing — stays with the consumer;
:func:`usable_cores` is the one definition of "all cores".
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ValidationError
from repro.utils.validation import check_integer, check_nonnegative

__all__ = ["Knob", "KNOBS", "KERNEL_BACKEND_CHOICES", "knob", "default", "usable_cores"]

# Everything REPRO_KERNEL_BACKEND accepts.  "scipy" and "numpy" both name
# the pure-Python reference engine of whichever kernel family resolves
# the value, so one setting is valid for every family.
KERNEL_BACKEND_CHOICES = ("auto", "scipy", "numpy", "cext")

# Kinds whose environment values are used exactly as written.
_VERBATIM = ("path", "spec")


@dataclass(frozen=True)
class Knob:
    """One environment knob.

    ``kind`` is ``int``, ``float``, ``choice``, ``path`` or ``spec``.
    ``check`` is the accepted-value tuple of a choice, or a
    ``(value, where) -> value`` validator of a number.  Error messages
    name the value by :attr:`title`: the variable name without its
    prefix, in lower case.
    """

    name: str
    kind: str
    default: Any
    check: Any
    doc: str

    @property
    def title(self) -> str:
        return self.name[len("REPRO_"):].lower().replace("_", " ")


def _integer(minimum: int | None = None) -> Callable[[Any, str], int]:
    return lambda value, where: check_integer(value, where, minimum=minimum)


def _positive(value: float, where: str) -> float:
    if not value > 0:
        raise ValidationError(f"{where} must be positive, got {value}")
    return value


_TABLE = (
    # Experiment harness (mirrored field by field in ExperimentConfig).
    Knob("REPRO_EPSILON", "float", 0.2, _positive,
         "Privacy budget ε of Algorithm 1"),
    Knob("REPRO_DELTA", "float", 0.01, _positive,
         "Privacy parameter δ of Algorithm 1"),
    Knob("REPRO_REALIZATIONS", "int", 20, _integer(1),
         "Ensemble size of the Expected series"),
    Knob("REPRO_HOP_SOURCES", "int", 512, _integer(0),
         "BFS sources of sampled hop plots (0 = exact)"),
    Knob("REPRO_SVD_RANK", "int", 50, _integer(1),
         "Singular triplets for scree plots and network values"),
    Knob("REPRO_KRONFIT_ITERATIONS", "int", 30, _integer(1),
         "Gradient iterations of the KronFit baseline"),
    Knob("REPRO_N_STARTS", "int", 1, _integer(1),
         "Metropolis chains per KronFit fit"),
    Knob("REPRO_SEED", "int", 20120330, _integer(0),
         "Root seed every trial stream derives from"),
    Knob("REPRO_N_JOBS", "int", 1, _integer(),
         "Trial-engine worker processes (<= 0 = all cores)"),
    Knob("REPRO_CACHE_DIR", "path", None, None,
         "On-disk trial cache directory"),
    Knob("REPRO_KERNEL_BACKEND", "choice", "auto", KERNEL_BACKEND_CHOICES,
         "Engine of the A² counting pass, the KronFit chain, the SKG sampler, "
         "the isotonic (PAVA) pass and KronMom's Nelder–Mead refinement"),
    Knob("REPRO_KERNEL_THREADS", "int", 1, _integer(),
         "Threads sharding the multichain kernel's chains (<= 0 = all cores)"),
    # Trial engine.
    Knob("REPRO_TRIAL_RETRIES", "int", 0, _integer(0),
         "Extra attempts per trial after the first"),
    Knob("REPRO_TRIAL_TIMEOUT", "float", None, _positive,
         "Per-attempt wall-clock budget in seconds"),
    Knob("REPRO_TRIAL_BACKOFF", "float", 0.05, check_nonnegative,
         "Base seconds of the deterministic retry backoff"),
    Knob("REPRO_POOL_RESTARTS", "int", 2, _integer(0),
         "Broken-pool rebuilds per run before the breakage surfaces"),
    Knob("REPRO_FAULT_INJECT", "spec", "", None,
         "Trial fault-injection spec"),
    # Tracking and data.
    Knob("REPRO_RUNS_DIR", "path", "runs", None,
         "Root directory of tracked runs"),
    Knob("REPRO_DATA_DIR", "path", None, None,
         "Directory of real SNAP edge lists"),
    # repro serve.
    Knob("REPRO_SERVE_QUEUE", "int", 8, _integer(1),
         "Admission capacity (in-flight work requests)"),
    Knob("REPRO_SERVE_TIMEOUT", "float", 30.0, _positive,
         "Per-request deadline in seconds"),
    Knob("REPRO_SERVE_DRAIN", "float", 10.0, _positive,
         "Graceful-drain deadline in seconds"),
    Knob("REPRO_SERVE_BREAKER", "int", 3, _integer(1),
         "Consecutive pool breakages before the breaker trips"),
    Knob("REPRO_SERVE_BUDGET_EPSILON", "float", 1.0, check_nonnegative,
         "Per-dataset ε budget"),
    Knob("REPRO_SERVE_BUDGET_DELTA", "float", 0.1, check_nonnegative,
         "Per-dataset δ budget"),
    Knob("REPRO_SERVE_LEDGER_DIR", "path", None, None,
         "Directory of persisted privacy ledgers"),
    Knob("REPRO_SERVE_MAX_SAMPLES", "int", 64, _integer(1),
         "Synthetic graphs one request may ask for"),
    Knob("REPRO_SERVE_FAULT_INJECT", "spec", "", None,
         "Serve fault-injection spec"),
)

KNOBS: dict[str, Knob] = {entry.name: entry for entry in _TABLE}


def default(name: str) -> Any:
    """The table default of ``name`` (what :func:`knob` returns when unset)."""
    return KNOBS[name].default


def usable_cores() -> int:
    """The cores this process may run on: what "<= 0 = all cores" means.

    The scheduler affinity mask first (it honours taskset and cgroup
    pinning), then ``os.cpu_count()`` on hosts without one.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def knob(name: str, value: Any = None) -> Any:
    """Resolve knob ``name``: ``value`` if given, else the environment,
    else the default — validated, with errors naming the source."""
    spec = KNOBS[name]
    from_env = value is None
    if from_env:
        raw = os.environ.get(name)
        if raw is None or not raw.strip():
            return spec.default
        value = raw if spec.kind in _VERBATIM else raw.strip()
    if spec.kind in _VERBATIM:
        return value
    source = f"environment variable {name}" if from_env else "argument"
    where = f"{spec.title} (from {source})"
    if spec.kind == "choice":
        if value not in spec.check:
            raise ValidationError(
                f"{where} must be one of {', '.join(spec.check)}, got {value!r}"
            )
        return value
    if spec.kind == "float":
        value = _parse(float, value, where, "a number")
    elif from_env:
        value = _parse(int, value, where, "an integer")
    return spec.check(value, where)


def _parse(kind: type, value: Any, where: str, expected: str) -> Any:
    if isinstance(value, bool):
        raise ValidationError(f"{where} must be {expected}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where} must be {expected}, got {value!r}") from exc
