"""Privacy-budget accounting under sequential composition.

The paper composes two sub-mechanisms (degree release at ε/2, triangle
release at (ε/2, δ)) and invokes the composition theorem (Theorem 4.9:
ℓ mechanisms at (ε, δ) compose to (ℓε, ℓδ)).  :class:`PrivacyAccountant`
makes that bookkeeping explicit and auditable: mechanisms *charge* the
accountant, the accountant refuses spends beyond the budget, and the final
ledger is attached to every released artifact.

The accountant is **concurrency-safe**: :meth:`~PrivacyAccountant.charge`
is one atomic check-and-spend under an internal lock, so concurrent
callers drawing on one budget (the ``repro serve`` request handlers) can
never jointly overspend — an over-budget request is refused *before* any
noise is drawn, under arbitrary interleaving.  The ledger round-trips
through JSON (:meth:`~PrivacyAccountant.to_json` /
:meth:`~PrivacyAccountant.from_json`), one ``{label, epsilon, delta}``
object per entry (:meth:`PrivacySpend.from_json` validates one), so a
long-running service can append each spend to disk as it happens and
replay the lines across restarts; the whole object stays picklable (the
lock is recreated, never shipped).
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Mapping

from repro.errors import PrivacyBudgetError, ValidationError
from repro.utils.validation import check_nonnegative

__all__ = ["PrivacySpend", "PrivacyAccountant"]


@dataclass(frozen=True)
class PrivacySpend:
    """One ledger entry: a mechanism that consumed (epsilon, delta)."""

    label: str
    epsilon: float
    delta: float

    @classmethod
    def from_json(cls, entry: Any) -> "PrivacySpend":
        """One validated entry from its ``{label, epsilon, delta}`` dict."""
        try:
            return cls(
                label=str(entry["label"]),
                epsilon=check_nonnegative(entry["epsilon"], "ledger epsilon"),
                delta=check_nonnegative(entry["delta"], "ledger delta"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed accountant ledger entry: {entry!r}") from exc


class PrivacyAccountant:
    """Tracks (ε, δ) consumption under sequential composition.

    Parameters
    ----------
    epsilon, delta:
        Total budget.  Attempted spends that would exceed either component
        raise :class:`~repro.errors.PrivacyBudgetError` *before* any noise
        is drawn, so a failed request cannot leak.

    Examples
    --------
    >>> accountant = PrivacyAccountant(epsilon=0.2, delta=0.01)
    >>> accountant.charge("degrees", epsilon=0.1, delta=0.0)
    >>> accountant.spent
    (0.1, 0.0)
    >>> accountant.remaining
    (0.1, 0.01)
    """

    # Tolerance for floating-point accumulation when checking the budget.
    _SLACK = 1e-12

    def __init__(self, epsilon: float, delta: float = 0.0) -> None:
        self.epsilon = check_nonnegative(epsilon, "epsilon")
        self.delta = check_nonnegative(delta, "delta")
        self._ledger: list[PrivacySpend] = []
        self._spent = (0.0, 0.0)  # the ledger's running sums: a charge is O(1)
        self._lock = threading.RLock()

    def _record(self, entries: Iterable[PrivacySpend]) -> None:
        """Append ``entries`` to the ledger verbatim, with no budget check."""
        with self._lock:
            spent_epsilon, spent_delta = self._spent
            for entry in entries:
                self._ledger.append(entry)
                spent_epsilon += entry.epsilon
                spent_delta += entry.delta
            self._spent = (spent_epsilon, spent_delta)

    @property
    def ledger(self) -> tuple[PrivacySpend, ...]:
        """All spends so far, in order."""
        with self._lock:
            return tuple(self._ledger)

    @property
    def spent(self) -> tuple[float, float]:
        """Total (epsilon, delta) consumed (sequential composition)."""
        with self._lock:
            return self._spent

    @property
    def remaining(self) -> tuple[float, float]:
        """Budget left, floored at zero."""
        spent_epsilon, spent_delta = self.spent
        return max(self.epsilon - spent_epsilon, 0.0), max(self.delta - spent_delta, 0.0)

    def charge(self, label: str, epsilon: float, delta: float = 0.0) -> None:
        """Record a spend, or raise if it would exceed the budget.

        Check-and-spend is **atomic**: the budget check and the ledger
        append happen under one lock acquisition, so concurrent charges
        serialize and the total recorded spend can never exceed the
        budget — the losing request is refused before any noise is drawn.
        """
        epsilon = check_nonnegative(epsilon, "epsilon")
        delta = check_nonnegative(delta, "delta")
        with self._lock:
            spent_epsilon, spent_delta = self._spent
            if spent_epsilon + epsilon > self.epsilon + self._SLACK:
                raise PrivacyBudgetError(
                    f"charge {label!r} of epsilon={epsilon} exceeds remaining "
                    f"epsilon budget {self.epsilon - spent_epsilon:.6g}"
                )
            if spent_delta + delta > self.delta + self._SLACK:
                raise PrivacyBudgetError(
                    f"charge {label!r} of delta={delta} exceeds remaining "
                    f"delta budget {self.delta - spent_delta:.6g}"
                )
            self._record([PrivacySpend(label=label, epsilon=epsilon, delta=delta)])

    def to_json(self) -> dict[str, Any]:
        """The budget and ledger as a JSON-serializable dict.

        A consistent snapshot: taken under the lock, so a concurrent
        charge is either fully included or fully absent.
        """
        with self._lock:
            ledger = [asdict(entry) for entry in self._ledger]
        return {"epsilon": self.epsilon, "delta": self.delta, "ledger": ledger}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "PrivacyAccountant":
        """Restore an accountant from :meth:`to_json` output.

        The ledger is restored **verbatim, without re-checking** against
        the budget: the record of what was already spent is historical
        fact.  If the configured budget shrank below the restored spend,
        ``remaining`` floors at zero and every further charge is refused —
        the safe behaviour for a service rereading its ledger after a
        config change.
        """
        try:
            epsilon = payload["epsilon"]
            delta = payload["delta"]
            entries = payload["ledger"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"accountant JSON needs epsilon, delta and ledger keys; got "
                f"{sorted(payload) if isinstance(payload, Mapping) else type(payload).__name__}"
            ) from exc
        accountant = cls(epsilon, delta)
        accountant._record([PrivacySpend.from_json(entry) for entry in entries])
        return accountant

    def __getstate__(self) -> dict[str, Any]:
        # The lock is process-local and unpicklable; ship a consistent
        # snapshot of everything else (fitted models carrying their
        # accountant cross process boundaries via the worker pool).
        with self._lock:
            return {
                "epsilon": self.epsilon,
                "delta": self.delta,
                "_ledger": list(self._ledger),
            }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.epsilon = state["epsilon"]
        self.delta = state["delta"]
        self._ledger = []
        self._spent = (0.0, 0.0)
        self._lock = threading.RLock()
        self._record(state["_ledger"])

    def describe(self) -> str:
        """Human-readable ledger summary."""
        entries = self.ledger
        spent_epsilon, spent_delta = self.spent
        lines = [
            f"privacy budget: epsilon={self.epsilon:g}, delta={self.delta:g}",
            f"spent:          epsilon={spent_epsilon:g}, delta={spent_delta:g}",
        ]
        for entry in entries:
            lines.append(
                f"  - {entry.label}: epsilon={entry.epsilon:g}, delta={entry.delta:g}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        spent_epsilon, spent_delta = self.spent
        return (
            f"PrivacyAccountant(epsilon={self.epsilon:g}, delta={self.delta:g}, "
            f"spent=({spent_epsilon:g}, {spent_delta:g}), entries={len(self.ledger)})"
        )
