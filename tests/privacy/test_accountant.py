"""Tests for privacy-budget accounting."""

from __future__ import annotations

import pytest

from repro.errors import PrivacyBudgetError, ValidationError
from repro.privacy.accountant import PrivacyAccountant


class TestCharging:
    def test_single_charge(self):
        accountant = PrivacyAccountant(1.0, 0.1)
        accountant.charge("degrees", 0.4, 0.0)
        assert accountant.spent == (0.4, 0.0)
        assert accountant.remaining == (pytest.approx(0.6), pytest.approx(0.1))

    def test_sequential_composition_adds(self):
        accountant = PrivacyAccountant(1.0, 0.1)
        accountant.charge("a", 0.3, 0.02)
        accountant.charge("b", 0.3, 0.02)
        epsilon, delta = accountant.spent
        assert epsilon == pytest.approx(0.6)
        assert delta == pytest.approx(0.04)

    def test_exact_budget_allowed(self):
        accountant = PrivacyAccountant(0.2, 0.01)
        accountant.charge("x", 0.1, 0.0)
        accountant.charge("y", 0.1, 0.01)  # exactly exhausts both

    def test_epsilon_overspend_rejected(self):
        accountant = PrivacyAccountant(0.5)
        accountant.charge("x", 0.4)
        with pytest.raises(PrivacyBudgetError, match="epsilon"):
            accountant.charge("y", 0.2)

    def test_delta_overspend_rejected(self):
        accountant = PrivacyAccountant(1.0, 0.01)
        with pytest.raises(PrivacyBudgetError, match="delta"):
            accountant.charge("x", 0.1, 0.02)

    def test_failed_charge_not_recorded(self):
        accountant = PrivacyAccountant(0.5)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge("too big", 1.0)
        assert accountant.spent == (0.0, 0.0)
        assert len(accountant.ledger) == 0

    def test_negative_charge_rejected(self):
        accountant = PrivacyAccountant(1.0)
        with pytest.raises(ValidationError):
            accountant.charge("x", -0.1)

    def test_many_small_charges_accumulate(self):
        accountant = PrivacyAccountant(1.0)
        for index in range(10):
            accountant.charge(f"q{index}", 0.1)
        with pytest.raises(PrivacyBudgetError):
            accountant.charge("one too many", 0.1)


class TestIntrospection:
    def test_ledger_order(self):
        accountant = PrivacyAccountant(1.0, 0.1)
        accountant.charge("first", 0.1)
        accountant.charge("second", 0.2, 0.05)
        labels = [entry.label for entry in accountant.ledger]
        assert labels == ["first", "second"]

    def test_describe_mentions_entries(self):
        accountant = PrivacyAccountant(0.2, 0.01)
        accountant.charge("degrees", 0.1)
        text = accountant.describe()
        assert "degrees" in text
        assert "epsilon=0.2" in text

    def test_repr(self):
        accountant = PrivacyAccountant(0.2, 0.01)
        assert "entries=0" in repr(accountant)

    def test_remaining_floors_at_zero(self):
        accountant = PrivacyAccountant(0.1)
        accountant.charge("all", 0.1)
        assert accountant.remaining == (0.0, 0.0)


class TestConcurrency:
    """The serve-layer contract: check-and-spend is atomic.

    Many threads racing to charge must never jointly exceed the budget —
    the ledger total after the dust settles is exactly the number of
    granted charges times the unit spend, and that total fits the budget.
    """

    def test_no_overspend_under_contention(self):
        import threading

        budget, unit, threads = 1.0, 0.01, 32
        # 100 grants fit exactly; 32 threads x 5 tries = 160 attempts.
        accountant = PrivacyAccountant(budget, 1.0)
        granted = []
        refused = []
        barrier = threading.Barrier(threads)

        def spender(worker: int) -> None:
            barrier.wait()
            for attempt in range(5):
                try:
                    accountant.charge(f"w{worker}-{attempt}", unit, unit)
                    granted.append(1)
                except PrivacyBudgetError:
                    refused.append(1)

        pool = [
            threading.Thread(target=spender, args=(index,))
            for index in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()

        spent_epsilon, spent_delta = accountant.spent
        assert spent_epsilon <= budget + 1e-9
        assert len(accountant.ledger) == len(granted)
        # The ledger sums exactly to what was granted: no lost or
        # double-counted entries.
        assert spent_epsilon == pytest.approx(len(granted) * unit)
        assert len(granted) == 100
        assert len(refused) == 160 - 100

    def test_concurrent_reads_are_consistent_snapshots(self):
        import threading

        accountant = PrivacyAccountant(100.0, 1.0)
        stop = threading.Event()
        problems = []

        def reader() -> None:
            # Iterating a snapshot while the writer appends must never
            # raise (no shared mutable list) and each snapshot must be
            # internally coherent: its sum equals the entry count times
            # the fixed unit charge.
            while not stop.is_set():
                try:
                    ledger = accountant.ledger
                    total = sum(entry.epsilon for entry in ledger)
                    if abs(total - 0.1 * len(ledger)) > 1e-9:
                        problems.append(f"torn snapshot: {total} vs {len(ledger)}")
                except Exception as exc:  # pragma: no cover - the failure mode
                    problems.append(repr(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        for index in range(200):
            accountant.charge(f"c{index}", 0.1, 0.001)
        stop.set()
        thread.join()
        assert not problems


class TestSerialization:
    def test_json_roundtrip(self):
        accountant = PrivacyAccountant(1.0, 0.1)
        accountant.charge("degrees", 0.4, 0.02)
        accountant.charge("triangles", 0.1, 0.0)
        payload = accountant.to_json()
        restored = PrivacyAccountant.from_json(payload)
        assert restored.epsilon == accountant.epsilon
        assert restored.delta == accountant.delta
        assert restored.ledger == accountant.ledger
        assert restored.spent == accountant.spent

    def test_json_is_plain_data(self):
        import json

        accountant = PrivacyAccountant(0.5)
        accountant.charge("x", 0.2)
        text = json.dumps(accountant.to_json())
        assert PrivacyAccountant.from_json(json.loads(text)).spent == (0.2, 0.0)

    def test_restored_ledger_is_verbatim_even_over_budget(self):
        """A budget shrink must not erase recorded spends."""
        accountant = PrivacyAccountant(1.0)
        accountant.charge("big", 0.9)
        payload = accountant.to_json()
        payload["epsilon"] = 0.5  # config shrank after the spend
        restored = PrivacyAccountant.from_json(payload)
        assert restored.spent == (0.9, 0.0)
        assert restored.remaining == (0.0, 0.0)
        with pytest.raises(PrivacyBudgetError):
            restored.charge("more", 0.01)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyAccountant.from_json({"epsilon": 1.0})
        with pytest.raises(ValidationError):
            PrivacyAccountant.from_json(
                {"epsilon": 1.0, "delta": 0.0, "ledger": [{"label": "x"}]}
            )
        with pytest.raises(ValidationError):
            PrivacyAccountant.from_json([1, 2, 3])

    def test_pickle_roundtrip_recreates_the_lock(self):
        """Fitted models carry accountants through pool workers."""
        import pickle

        accountant = PrivacyAccountant(1.0, 0.1)
        accountant.charge("noise", 0.3, 0.01)
        clone = pickle.loads(pickle.dumps(accountant))
        assert clone.spent == accountant.spent
        assert clone.ledger == accountant.ledger
        # The clone's lock works: it can keep charging.
        clone.charge("more", 0.1, 0.0)
        assert clone.spent[0] == pytest.approx(0.4)

    def test_spent_is_the_ledger_summed_in_order_after_every_restore(self):
        """The running totals equal the left-to-right sum of the ledger,
        bit for bit, whether entries came from charges, a JSON restore
        or a pickle."""
        import pickle

        spends = [0.1, 0.2, 0.3, 1e-17, 0.7, 1 / 3]
        accountant = PrivacyAccountant(10.0, 10.0)
        for index, value in enumerate(spends[:3]):
            accountant.charge(f"c{index}", value, value / 7)
        restored = PrivacyAccountant.from_json(accountant.to_json())
        for index, value in enumerate(spends[3:]):
            restored.charge(f"r{index}", value, value / 7)
        for clone in (restored, pickle.loads(pickle.dumps(restored))):
            expected_epsilon = expected_delta = 0.0
            for entry in clone.ledger:
                expected_epsilon += entry.epsilon
                expected_delta += entry.delta
            assert clone.spent == (expected_epsilon, expected_delta)
        assert restored.spent[0] == sum(spends)
