"""Tests for the per-dataset accountant registry and ledger persistence."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import PrivacyBudgetError
from repro.serve import accounting
from repro.serve.accounting import AccountantRegistry


class TestCharging:
    def test_datasets_have_independent_budgets(self):
        registry = AccountantRegistry(epsilon=0.5, delta=0.1)
        registry.charge("as20", "fit", 0.5, 0.0)
        # as20 is now exhausted; ca-grqc is untouched.
        with pytest.raises(PrivacyBudgetError):
            registry.charge("as20", "fit2", 0.1, 0.0)
        registry.charge("ca-grqc", "fit", 0.5, 0.0)
        snapshot = registry.snapshot()
        assert snapshot["as20"]["remaining"]["epsilon"] == 0.0
        assert snapshot["ca-grqc"]["spent"]["epsilon"] == 0.5

    def test_refusal_happens_before_recording(self):
        registry = AccountantRegistry(epsilon=0.3, delta=0.0)
        with pytest.raises(PrivacyBudgetError):
            registry.charge("as20", "too-big", 0.4, 0.0)
        assert registry.snapshot()["as20"]["entries"] == 0

    def test_concurrent_charges_never_overspend(self):
        registry = AccountantRegistry(epsilon=1.0, delta=1.0)
        granted = []
        barrier = threading.Barrier(16)

        def spender(worker):
            barrier.wait()
            for attempt in range(10):
                try:
                    registry.charge("as20", f"w{worker}-{attempt}", 0.01, 0.0)
                    granted.append(1)
                except PrivacyBudgetError:
                    pass

        threads = [
            threading.Thread(target=spender, args=(w,)) for w in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = registry.snapshot()["as20"]
        assert len(granted) == 100  # exactly 1.0 / 0.01 grants
        assert report["entries"] == 100
        assert report["spent"]["epsilon"] == pytest.approx(1.0)
        assert report["spent"]["epsilon"] <= 1.0 + 1e-9


class TestPersistence:
    def test_charge_persists_and_restores(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "private fit", 0.4, 0.01)
        path = registry.ledger_path("as20")
        payload = json.loads(path.read_text())
        assert payload["ledger"][0]["label"] == "private fit"

        # A fresh process (new registry, same directory) remembers.
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        report = reborn.snapshot()  # nothing loaded yet: lazy
        assert report == {}
        accountant = reborn.for_dataset("as20")
        assert accountant.spent == (0.4, 0.01)
        with pytest.raises(PrivacyBudgetError):
            reborn.charge("as20", "too much", 0.7, 0.0)

    def test_concurrent_charges_persist_the_newest_snapshot(self, tmp_path, monkeypatch):
        """The first charge's write is held back until the second charge
        has written (or a second passes): the file must still end with
        both spends, not with the first charge's older snapshot."""
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        real_write = accounting.atomic_write
        first_writing = threading.Event()
        second_written = threading.Event()
        writes = []

        def delayed_write(path, data):
            writes.append(data)
            if len(writes) == 1:
                first_writing.set()
                second_written.wait(timeout=1.0)
                real_write(path, data)
            else:
                real_write(path, data)
                second_written.set()

        monkeypatch.setattr(accounting, "atomic_write", delayed_write)
        first = threading.Thread(target=registry.charge, args=("as20", "first", 0.1, 0.0))
        first.start()
        assert first_writing.wait(timeout=10)
        second = threading.Thread(target=registry.charge, args=("as20", "second", 0.2, 0.0))
        second.start()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        ledger = json.loads(registry.ledger_path("as20").read_text())["ledger"]
        assert [entry["label"] for entry in ledger] == ["first", "second"]

    def test_configured_budget_wins_over_persisted(self, tmp_path):
        first = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        first.charge("as20", "spend", 0.6, 0.0)
        # The budget shrank below what is already spent: remaining floors
        # at zero and every further charge is refused — the spend itself
        # is never erased.
        shrunk = AccountantRegistry(epsilon=0.5, delta=0.1, ledger_dir=tmp_path)
        accountant = shrunk.for_dataset("as20")
        assert accountant.epsilon == 0.5
        assert accountant.spent == (0.6, 0.0)
        assert accountant.remaining == (0.0, 0.1)
        with pytest.raises(PrivacyBudgetError):
            shrunk.charge("as20", "more", 0.01, 0.0)

    def test_refused_charge_does_not_touch_the_ledger_file(self, tmp_path):
        registry = AccountantRegistry(epsilon=0.5, delta=0.0, ledger_dir=tmp_path)
        registry.charge("as20", "ok", 0.5, 0.0)
        before = registry.ledger_path("as20").read_text()
        with pytest.raises(PrivacyBudgetError):
            registry.charge("as20", "refused", 0.1, 0.0)
        assert registry.ledger_path("as20").read_text() == before

    def test_flush_writes_every_dataset(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "a", 0.1, 0.0)
        registry.charge("ca-grqc", "b", 0.2, 0.0)
        assert registry.flush() == 2
        assert registry.ledger_path("as20").exists()
        assert registry.ledger_path("ca-grqc").exists()

    def test_memory_only_mode_flushes_nothing(self):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1)
        registry.charge("as20", "a", 0.1, 0.0)
        assert registry.ledger_path("as20") is None
        assert registry.flush() == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        for index in range(5):
            registry.charge("as20", f"c{index}", 0.1, 0.0)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []
