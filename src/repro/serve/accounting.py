"""Per-dataset privacy accounting for the serve layer.

Every dataset a serve process touches gets its own
:class:`~repro.privacy.accountant.PrivacyAccountant` with the configured
(ε, δ) budget.  Concurrent request handlers all charge through the
accountant's atomic check-and-spend, so the budget can never be jointly
overspent — the losing request is refused with
:class:`~repro.errors.PrivacyBudgetError` (the HTTP layer answers 403)
*before* any noise is drawn.

A charge may name a ``token`` (a model spec's
:meth:`~repro.serve.registry.ModelSpec.token`); a token already charged,
in this process or in the replayed ledger, is not charged again.

With a ledger directory configured, :meth:`AccountantRegistry.charge`
appends one JSON line per spend to ``<dataset>.jsonl``,
``{"label", "epsilon", "delta", "token"}`` (``token`` absent when the
charge names none, and in the older format: such a line counts against
the budget but marks no spec charged), and fsyncs it before returning,
so a fit draws noise only under a spend already on disk and a drain has
nothing left to write.  A failed append is cut back off the file and
raises, and memory keeps the spend but not its token.  First use
replays the file: a torn last line (a crash mid-append, before its fit
drew noise) is dropped and truncated away, any other malformed line
raises :class:`~repro.errors.PrivacyError` naming the file and line,
and a ``<dataset>.json`` of the older whole-file format is migrated
once.  :meth:`AccountantRegistry.read_ledger` reads a ledger without
writing, to inspect a live server's directory.
"""

from __future__ import annotations

import errno
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path

from repro.errors import PrivacyError
from repro.privacy.accountant import PrivacyAccountant, PrivacySpend
from repro.runtime.cache import atomic_write
from repro.utils.logging import get_logger

__all__ = ["AccountantRegistry"]

_logger = get_logger(__name__)


def _line(spend: PrivacySpend, token: str | None = None) -> bytes:
    """``spend`` (charged under ``token``) as one ledger line."""
    entry = asdict(spend) if token is None else {**asdict(spend), "token": token}
    return json.dumps(entry).encode("utf-8") + b"\n"


def _append(path: Path, data: bytes) -> None:
    """One ``O_APPEND`` write of ``data`` to ``path``, fsync'd.

    Never glues a line onto a fragment: a torn last line refuses the
    append until a restart's replay drops it, and a failed write or
    fsync is truncated back off before the error propagates.
    """
    descriptor = os.open(path, os.O_RDWR | os.O_APPEND)
    try:
        length = os.fstat(descriptor).st_size
        if length and os.pread(descriptor, 1, length - 1) != b"\n":
            raise PrivacyError(f"privacy ledger {path} ends in a torn line until a restart")
        try:
            if os.write(descriptor, data) != len(data):
                raise OSError(errno.EIO, f"short write to {path}")
            os.fsync(descriptor)
        except OSError:
            os.ftruncate(descriptor, length)
            raise
    finally:
        os.close(descriptor)


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
        self._charged: dict[str, set[bytes]] = {}

    def ledger_path(self, dataset: str) -> Path | None:
        """Where ``dataset``'s ledger persists (``None`` = in-memory)."""
        if self.ledger_dir is None:
            return None
        return self.ledger_dir / f"{dataset}.jsonl"

    def for_dataset(self, dataset: str) -> PrivacyAccountant:
        """The dataset's accountant: the configured budget, the ledger's spends."""
        with self._lock:
            accountant = self._accountants.get(dataset)
            if accountant is None:
                accountant = PrivacyAccountant(self.epsilon, self.delta)
                entries = self._replay(dataset) if self.ledger_dir is not None else []
                accountant._record(spend for spend, _token in entries)
                # Tokens are hex digests, held as bytes: half the memory.
                self._charged[dataset] = {bytes.fromhex(t) for _spend, t in entries if t}
                self._accountants[dataset] = accountant
            return accountant

    def charge(self, dataset: str, label: str, epsilon: float, delta: float,
               token: str | None = None) -> bool:
        """Atomically charge the dataset's budget, then append it to disk.

        Returns ``False``, charging nothing, when ``token`` is already
        charged.  Raises :class:`~repro.errors.PrivacyBudgetError`
        (writing nothing) when the spend would exceed the budget.  An
        :class:`OSError` from the append (a
        :class:`~repro.errors.PrivacyError` after a torn line) propagates
        with the spend kept in memory and the token not marked, so the
        caller draws no noise under an unrecorded spend.
        """
        accountant = self.for_dataset(dataset)
        charged = self._charged[dataset]
        key = None if token is None else bytes.fromhex(token)
        path = self.ledger_path(dataset)
        # The accountant's lock (reentrant) orders the dataset's appends,
        # so a failed one is cut off before the next line can follow it,
        # and makes the token check and the charge one step.
        with accountant._lock:
            if key in charged:
                return False
            accountant.charge(label, epsilon, delta)
            if path is not None:
                _append(path, _line(accountant._ledger[-1], token))
            if key is not None:
                charged.add(key)
            return True

    def read_ledger(self, dataset: str) -> tuple[PrivacySpend, ...]:
        """The spends on disk for ``dataset``, read without writing anything.

        Safe beside a live server: a torn last line (perhaps an append in
        progress) is skipped rather than truncated, and a snapshot not yet
        migrated is read where it lies.
        """
        return tuple(spend for spend, _token in self._read(dataset)[0])

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
                "entries": len(accountant._ledger),
            }
        return report

    def _read(self, dataset: str) -> tuple[list[tuple[PrivacySpend, str | None]], int | None]:
        """The entries on disk and, if the ``.jsonl`` has a torn last line,
        the length of its complete lines."""
        path = self.ledger_path(dataset)
        legacy = path.with_suffix(".json")
        snapshot = None
        if legacy.exists():
            try:
                snapshot = list(PrivacyAccountant.from_json(json.loads(legacy.read_bytes())).ledger)
            except (ValueError, TypeError) as exc:
                raise PrivacyError(f"privacy ledger {legacy} is malformed: {exc}") from exc
        if not path.exists():
            return [(spend, None) for spend in snapshot or []], None
        data = path.read_bytes()
        keep = data.rfind(b"\n") + 1
        entries = []
        for number, line in enumerate(data[:keep].splitlines(), start=1):
            try:
                entry = json.loads(line)
                spend = PrivacySpend.from_json(entry)
                token = entry.get("token")
                if token is not None:
                    bytes.fromhex(token)  # a hex digest, or malformed
            except (ValueError, TypeError) as exc:
                raise PrivacyError(
                    f"privacy ledger {path} line {number} is malformed: {exc}"
                ) from exc
            entries.append((spend, token))
        # A .jsonl beside a snapshot is an interrupted migration's only if
        # it starts with the snapshot's spends; otherwise neither file
        # alone holds the record.
        if snapshot is not None and [spend for spend, _ in entries[: len(snapshot)]] != snapshot:
            raise PrivacyError(f"privacy ledgers {legacy} and {path} disagree")
        return entries, keep if keep < len(data) else None

    def _replay(self, dataset: str) -> list[tuple[PrivacySpend, str | None]]:
        """The entries on disk for ``dataset``; leaves its file ready to append."""
        entries, torn = self._read(dataset)
        path = self.ledger_path(dataset)
        if torn is not None:
            _logger.warning("dropped the torn last line of %s: its fit drew no noise", path)
            os.truncate(path, torn)
        legacy = path.with_suffix(".json")
        if legacy.exists() or not path.exists():
            # Create the ledger, from the snapshot if there is one, then
            # retire the snapshot without overwriting an older one.
            migrated = legacy.with_name(legacy.name + ".migrated")
            if legacy.exists() and migrated.exists():
                raise PrivacyError(f"privacy ledger {legacy} cannot be migrated: {migrated} exists")
            if not path.exists():
                atomic_write(path, b"".join(_line(*entry) for entry in entries), durable=True)
            if legacy.exists():
                os.replace(legacy, migrated)  # if lost to a power cut, it reruns
        _logger.info("restored %d privacy spend(s) for %s", len(entries), dataset)
        return entries
