"""Deterministic fault injection for the trial engine.

Fault tolerance is only trustworthy if its recovery paths run — not just
under unit mocks, but through the real engine: real worker processes
dying, real trials raising, real attempts timing out.  This module turns
the ``REPRO_FAULT_INJECT`` environment knob (or an explicit argument to
:func:`repro.runtime.run_trials`) into a **deterministic fault plan** the
engine applies while executing an ensemble, so every recovery path can be
exercised reproducibly from tests and the CLI.

The spec is a ``;``-separated list of clauses, each
``kind:key=value[:key=value...]``::

    trial_error:index=3:attempts=1      # trial 3 raises InjectedFault on
                                        # its first attempt (then succeeds)
    worker_crash:nth=2                  # the 2nd pending trial kills its
                                        # worker process (os._exit) on its
                                        # first submission
    worker_crash:index=4:attempts=2     # trial 4 crashes its worker on
                                        # its first two submissions
    slow_trial:index=5:seconds=30       # trial 5 sleeps 30s before
                                        # executing, on its first attempt

``index`` names the trial's **position in the run's spec list** (the same
positions :attr:`~repro.runtime.spec.TrialRunReport.cached_indices`
uses); ``nth`` is 1-based over the *pending* (not cached) trials in
submission order.  ``attempts`` bounds how many attempts (or, for
``worker_crash``, submissions) the fault fires on — the default 1 models
a transient fault that a single retry (or one pool restart) heals, which
is what keeps fault-injected runs **bit-identical** to clean ones: a
retried attempt re-derives the same ``(root seed, index)`` stream, so the
surviving results carry no trace of the fault.

Faults are threaded to workers inside the task payload (never via the
environment), so they apply identically on the serial and pool paths and
never depend on what a worker process inherited at fork time.
``worker_crash`` is a no-op on the serial path — there is no worker to
kill without killing the ensemble itself.

The serve layer (:mod:`repro.serve`) has its own kinds of the same
clause grammar under the separate ``REPRO_SERVE_FAULT_INJECT`` knob,
targeting *requests* instead of trials (``nth`` is 1-based over the work
requests admitted past the backpressure gate, in admission order)::

    slow_request:nth=3:seconds=30       # 3rd admitted work request stalls
                                        # 30s inside its deadline watchdog
                                        # (drives a 504)
    handler_error:nth=4                 # 4th admitted work request raises
                                        # InjectedFault in its handler
    pool_breakage:nth=5                 # 5th admitted work request kills
                                        # its pool worker on its first
                                        # submission (drives self-healing
                                        # and the circuit breaker)
    pool_breakage:nth=6:attempts=9      # ...on its first 9 submissions
                                        # (exhausts the restart budget)

A request is a one-attempt trial: both families parse into one
:class:`FaultPlan`, and each clause maps onto the same per-target
:class:`TrialFaults` record by its effect — ``handler_error`` sets
``error_attempts=1``, ``slow_request`` sets ``slow_attempts=1`` plus
``slow_seconds``, and ``pool_breakage`` sets ``crash_submissions`` to
its ``attempts``.  Requests are not retried by the server, so
``slow_request`` and ``handler_error`` fire at most once; ``attempts``
only applies to ``pool_breakage``, bounding how many resubmissions crash
their worker.  ``pool_breakage`` is inert when the server runs its work
in-process (``--n-jobs 1``), mirroring ``worker_crash`` on the serial
trial path.  Each knob accepts only its own family's kinds
(:func:`parse_fault_plan` takes the knob's name).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import ValidationError
from repro.knobs import knob

__all__ = [
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "InjectedFault",
    "TrialFaults",
    "NO_FAULTS",
    "FaultClause",
    "FaultPlan",
    "parse_fault_plan",
    "resolve_fault_plan",
]

FAULT_KINDS = ("trial_error", "worker_crash", "slow_trial")

SERVE_FAULT_KINDS = ("slow_request", "handler_error", "pool_breakage")

# Exit code an injected worker crash dies with: distinguishable from a
# clean exit in worker logs, meaningless otherwise.
CRASH_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """The transient error ``trial_error`` and ``handler_error`` clauses
    raise (a trial retries it; a request answers 503)."""


@dataclass(frozen=True)
class TrialFaults:
    """The faults one trial, or one serve request, is subject to
    (picklable; ships in the task).  A request runs as attempt 1 only.

    Attributes
    ----------
    error_attempts:
        Attempts 1..N raise :class:`InjectedFault` instead of running.
    slow_attempts / slow_seconds:
        Attempts 1..N sleep ``slow_seconds`` before executing (inside the
        timed section, so a per-trial timeout observes the delay).
    crash_submissions:
        Submissions 1..N kill the worker process (pool paths only; the
        parent decides per submission and never re-arms a crash beyond
        this budget, so pool self-healing terminates).
    """

    error_attempts: int = 0
    slow_attempts: int = 0
    slow_seconds: float = 0.0
    crash_submissions: int = 0

    def merged(self, other: "TrialFaults") -> "TrialFaults":
        """Combine two clauses with the same target (maxima win)."""
        return TrialFaults(
            error_attempts=max(self.error_attempts, other.error_attempts),
            slow_attempts=max(self.slow_attempts, other.slow_attempts),
            slow_seconds=max(self.slow_seconds, other.slow_seconds),
            crash_submissions=max(self.crash_submissions, other.crash_submissions),
        )


NO_FAULTS = TrialFaults()


@dataclass(frozen=True)
class FaultClause:
    """One parsed spec clause (see the module docstring for the grammar)."""

    kind: str
    index: int | None = None
    nth: int | None = None
    attempts: int = 1
    seconds: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec (either knob's): zero or more clauses."""

    clauses: tuple[FaultClause, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def for_pending(self, pending: Sequence[int]) -> dict[int, TrialFaults]:
        """Resolve the plan against a run's pending positions.

        ``nth`` clauses bind to ``pending[nth - 1]`` (clauses pointing
        past the pending list are inert); ``index`` clauses bind to that
        position directly (inert if the position is cached or absent —
        a cache hit never executes, so it cannot fault).  The result maps
        position → merged :class:`TrialFaults` for every targeted trial.
        """
        pending_set = set(pending)
        targeted: dict[int, TrialFaults] = {}
        for clause in self.clauses:
            if clause.nth is not None:
                if clause.nth > len(pending):
                    continue
                position = pending[clause.nth - 1]
            else:
                position = clause.index
                if position not in pending_set:
                    continue
            faults = _clause_faults(clause)
            previous = targeted.get(position)
            targeted[position] = faults if previous is None else previous.merged(faults)
        return targeted

    def for_request(self, nth: int) -> TrialFaults:
        """The merged faults the ``nth`` admitted work request suffers.

        Serve clauses target by ``nth`` — the 1-based position of a work
        request (``/fit``, ``/sample``, ``/release``) in admission order
        — which is the only stable coordinate under concurrent clients.
        The request runs once, as attempt 1 of a trial.
        """
        faults = NO_FAULTS
        for clause in self.clauses:
            if clause.nth == nth:
                faults = faults.merged(_clause_faults(clause))
        return faults


def _clause_faults(clause: FaultClause) -> TrialFaults:
    """A clause's effect; the serve kinds carry no ``attempts`` key, so
    ``handler_error`` and ``slow_request`` fire on attempt 1 only."""
    if clause.kind in ("trial_error", "handler_error"):
        return replace(NO_FAULTS, error_attempts=clause.attempts)
    if clause.kind in ("slow_trial", "slow_request"):
        return replace(
            NO_FAULTS, slow_attempts=clause.attempts, slow_seconds=clause.seconds
        )
    return replace(NO_FAULTS, crash_submissions=clause.attempts)


# Each fault knob's kind family and the examples its errors quote.
_FAMILIES = {
    "REPRO_FAULT_INJECT": (
        FAULT_KINDS,
        "trial_error:index=3:attempts=1, worker_crash:nth=2, "
        "slow_trial:index=5:seconds=30",
    ),
    "REPRO_SERVE_FAULT_INJECT": (
        SERVE_FAULT_KINDS,
        "slow_request:nth=3:seconds=30, handler_error:nth=4, "
        "pool_breakage:nth=5:attempts=2",
    ),
}

# The clause grammar of both families, one row per kind: the target keys
# (a clause names exactly one), the keys it must carry, and the keys it
# may carry.  Keys are FaultClause fields.
_GRAMMAR = {
    "trial_error": (("index",), (), ("attempts",)),
    "worker_crash": (("index", "nth"), (), ("attempts",)),
    "slow_trial": (("index",), ("seconds",), ("attempts",)),
    "slow_request": (("nth",), ("seconds",), ()),
    "handler_error": (("nth",), (), ()),
    "pool_breakage": (("nth",), (), ("attempts",)),
}

# The smallest value of each integer key: ``index`` is a 0-based
# position, ``nth`` and ``attempts`` count from 1.
_MINIMUM = {"index": 0, "nth": 1, "attempts": 1}


def _parse_clause(raw: str, kinds: Sequence[str], examples: str) -> FaultClause:
    """Parse one clause against :data:`_GRAMMAR`.

    Malformed clauses raise :class:`~repro.errors.ValidationError` naming
    the clause — an injection harness that silently ignores a typo'd
    fault would "pass" every chaos test vacuously.
    """

    def error(reason: str) -> ValidationError:
        return ValidationError(
            f"bad fault clause {raw!r}: {reason}; expected "
            f"kind:key=value[:key=value...] with kind one of "
            f"{', '.join(kinds)} (e.g. {examples})"
        )

    kind, *fields = [token.strip() for token in raw.split(":")]
    if kind not in kinds:
        raise error(f"unknown kind {kind!r}")
    targets, required, optional = _GRAMMAR[kind]
    values: dict[str, str] = {}
    for token in fields:
        key, separator, value = token.partition("=")
        if not separator or not key or not value:
            raise error(f"malformed field {token!r}")
        if key in values:
            raise error(f"duplicate key {key!r}")
        values[key] = value
    unknown = set(values) - {*targets, *required, *optional}
    if unknown:
        raise error(f"unknown key(s) {', '.join(sorted(unknown))} for {kind}")
    if sum(key in values for key in targets) != 1:
        choice = " or ".join(f"{key}=" for key in targets)
        raise error(
            f"needs exactly one of {choice}" if len(targets) > 1 else f"needs {choice}"
        )
    for key in required:
        if key not in values:
            raise error(f"needs {key}=")
    parsed: dict[str, int | float] = {}
    for key, value in values.items():
        try:
            parsed[key] = float(value) if key == "seconds" else int(value)
        except ValueError as exc:
            expected = "a number" if key == "seconds" else "an integer"
            raise error(f"{key} must be {expected}, got {value!r}") from exc
        if key == "seconds" and not parsed[key] > 0:
            raise error(f"{key} must be positive, got {parsed[key]}")
        if key in _MINIMUM and parsed[key] < _MINIMUM[key]:
            raise error(f"{key} must be >= {_MINIMUM[key]}, got {parsed[key]}")
    return FaultClause(kind=kind, **parsed)


def parse_fault_plan(spec: str, knob_name: str = "REPRO_FAULT_INJECT") -> FaultPlan:
    """Parse a fault spec string of the ``knob_name`` knob's kinds."""
    kinds, examples = _FAMILIES[knob_name]
    return FaultPlan(
        tuple(
            _parse_clause(raw.strip(), kinds, examples)
            for raw in spec.split(";")
            if raw.strip()
        )
    )


def resolve_fault_plan(
    faults: "str | FaultPlan | None" = None,
    knob_name: str = "REPRO_FAULT_INJECT",
) -> FaultPlan:
    """Resolve a fault plan: argument, then the ``knob_name`` variable,
    then the empty (fault-free) plan."""
    if isinstance(faults, FaultPlan):
        return faults
    if faults is None:
        faults = knob(knob_name)
    return parse_fault_plan(faults, knob_name)
