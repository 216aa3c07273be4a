"""Per-dataset privacy accounting for the serve layer.

Every dataset a serve process touches gets its own
:class:`~repro.privacy.accountant.PrivacyAccountant` with the configured
(ε, δ) budget.  Concurrent request handlers all charge through the
accountant's atomic check-and-spend, so the budget can never be jointly
overspent — the losing request is refused with
:class:`~repro.errors.PrivacyBudgetError` (the HTTP layer answers 403)
*before* any noise is drawn.

With a ledger directory configured, each successful charge is persisted
immediately (atomic write-then-rename of ``<dataset>.json``, the
:meth:`~repro.privacy.accountant.PrivacyAccountant.to_json` payload,
snapshot and write under one per-dataset lock so the newest charge is
the last written) and reloaded on boot, so a restarted server remembers
what was already spent — the conservative behaviour for DP: a crash can
forget a *failed* request, never a recorded spend.  The graceful-drain path calls
:meth:`AccountantRegistry.flush` as its final act.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.privacy.accountant import PrivacyAccountant
from repro.runtime.cache import atomic_write
from repro.utils.logging import get_logger

__all__ = ["AccountantRegistry"]

_logger = get_logger(__name__)


class AccountantRegistry:
    """Lazily-created per-dataset accountants sharing one budget shape."""

    def __init__(
        self,
        *,
        epsilon: float,
        delta: float,
        ledger_dir: str | os.PathLike | None = None,
    ) -> None:
        self.epsilon = epsilon
        self.delta = delta
        self.ledger_dir = Path(ledger_dir) if ledger_dir is not None else None
        if self.ledger_dir is not None:
            self.ledger_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._accountants: dict[str, PrivacyAccountant] = {}
        # Per dataset, one lock spans each ledger write from snapshot to
        # rename, so writes land in snapshot order and the file always
        # ends with the newest charge.
        self._write_locks: dict[str, threading.Lock] = {}

    def ledger_path(self, dataset: str) -> Path | None:
        """Where ``dataset``'s ledger persists (``None`` = in-memory)."""
        if self.ledger_dir is None:
            return None
        return self.ledger_dir / f"{dataset}.json"

    def for_dataset(self, dataset: str) -> PrivacyAccountant:
        """The dataset's accountant, restoring a persisted ledger once."""
        with self._lock:
            accountant = self._accountants.get(dataset)
            if accountant is None:
                accountant = self._load(dataset)
                self._accountants[dataset] = accountant
                self._write_locks[dataset] = threading.Lock()
            return accountant

    def charge(self, dataset: str, label: str, epsilon: float, delta: float) -> None:
        """Atomically charge the dataset's budget, then persist.

        Raises :class:`~repro.errors.PrivacyBudgetError` (and persists
        nothing) when the spend would exceed the budget.  A persistence
        failure after a successful charge is logged, not raised: the
        spend is recorded in memory and the drain-time flush retries.
        """
        accountant = self.for_dataset(dataset)
        accountant.charge(label, epsilon, delta)
        self._persist(dataset, accountant)

    def flush(self) -> int:
        """Persist every accountant; returns how many were written."""
        if self.ledger_dir is None:
            return 0
        with self._lock:
            accountants = dict(self._accountants)
        written = 0
        for dataset, accountant in accountants.items():
            if self._persist(dataset, accountant):
                written += 1
        return written

    def snapshot(self) -> dict:
        """Per-dataset budget state for ``/stats``."""
        with self._lock:
            accountants = dict(self._accountants)
        report = {}
        for dataset in sorted(accountants):
            accountant = accountants[dataset]
            spent_epsilon, spent_delta = accountant.spent
            remaining_epsilon, remaining_delta = accountant.remaining
            report[dataset] = {
                "budget": {"epsilon": accountant.epsilon, "delta": accountant.delta},
                "spent": {"epsilon": spent_epsilon, "delta": spent_delta},
                "remaining": {"epsilon": remaining_epsilon, "delta": remaining_delta},
                "entries": len(accountant.ledger),
            }
        return report

    def _load(self, dataset: str) -> PrivacyAccountant:
        path = self.ledger_path(dataset)
        if path is not None and path.exists():
            payload = json.loads(path.read_text(encoding="utf-8"))
            restored = PrivacyAccountant.from_json(payload)
            # The configured budget wins over the persisted one (a config
            # change must take effect), but the recorded spends are
            # historical fact and come along verbatim.
            accountant = PrivacyAccountant(self.epsilon, self.delta)
            accountant._ledger.extend(restored.ledger)
            spent_epsilon, spent_delta = accountant.spent
            _logger.info(
                "restored privacy ledger for %s: %d spend(s), "
                "epsilon=%.6g delta=%.6g already consumed",
                dataset, len(accountant.ledger), spent_epsilon, spent_delta,
            )
            return accountant
        return PrivacyAccountant(self.epsilon, self.delta)

    def _persist(self, dataset: str, accountant: PrivacyAccountant) -> bool:
        path = self.ledger_path(dataset)
        if path is None:
            return False
        try:
            with self._write_locks[dataset]:
                payload = json.dumps(accountant.to_json(), indent=2, sort_keys=True)
                atomic_write(path, (payload + "\n").encode("utf-8"))
        except OSError as exc:
            _logger.warning(
                "could not persist privacy ledger for %s to %s: %s",
                dataset, path, exc,
            )
            return False
        return True
