"""Tests for the per-dataset accountant registry and its append-only ledger."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.errors import PrivacyBudgetError, PrivacyError
from repro.serve import accounting, registry as model_registry
from repro.serve.accounting import AccountantRegistry
from repro.serve.service import SynthesisService

from serve_helpers import make_config


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
        lines = registry.ledger_path("as20").read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            {"label": "private fit", "epsilon": 0.4, "delta": 0.01}
        ]

        # A fresh process (new registry, same directory) remembers.
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        report = reborn.snapshot()  # nothing loaded yet: lazy
        assert report == {}
        accountant = reborn.for_dataset("as20")
        assert accountant.spent == (0.4, 0.01)
        with pytest.raises(PrivacyBudgetError):
            reborn.charge("as20", "too much", 0.7, 0.0)

    def test_two_concurrent_charges_both_reach_disk(self, tmp_path, monkeypatch):
        """While the first charge's append is held, the second charge
        waits for it (a failed append is cut off before another line can
        follow it); both spends reach disk, in charge order."""
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        real_append = accounting._append
        first_writing = threading.Event()
        release = threading.Event()
        appended = []

        def held_append(path, data):
            if not appended and not first_writing.is_set():
                first_writing.set()
                assert release.wait(timeout=10)
            appended.append(json.loads(data)["label"])
            real_append(path, data)

        monkeypatch.setattr(accounting, "_append", held_append)
        first = threading.Thread(target=registry.charge, args=("as20", "first", 0.1, 0.0))
        first.start()
        assert first_writing.wait(timeout=10)
        second = threading.Thread(target=registry.charge, args=("as20", "second", 0.2, 0.0))
        second.start()
        second.join(timeout=0.2)
        assert second.is_alive() and appended == []
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert not first.is_alive() and not second.is_alive()
        assert appended == ["first", "second"]
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        ledger = reborn.for_dataset("as20").ledger
        assert [entry.label for entry in ledger] == ["first", "second"]
        assert reborn.for_dataset("as20").spent == pytest.approx((0.3, 0.0))

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

    def test_every_charged_dataset_has_its_own_ledger(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "a", 0.1, 0.0)
        registry.charge("ca-grqc", "b", 0.2, 0.0)
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert [e.label for e in reborn.for_dataset("as20").ledger] == ["a"]
        assert [e.label for e in reborn.for_dataset("ca-grqc").ledger] == ["b"]

    def test_memory_only_mode_writes_nothing(self, monkeypatch):
        def no_append(path, data):
            raise AssertionError("memory-only registry touched the disk")

        monkeypatch.setattr(accounting, "_append", no_append)
        registry = AccountantRegistry(epsilon=1.0, delta=0.1)
        registry.charge("as20", "a", 0.1, 0.0)
        assert registry.ledger_path("as20") is None
        assert registry.snapshot()["as20"]["entries"] == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        for index in range(5):
            registry.charge("as20", f"c{index}", 0.1, 0.0)
        assert [p.name for p in tmp_path.iterdir()] == ["as20.jsonl"]
        assert len(registry.ledger_path("as20").read_text().splitlines()) == 5


class TestFailedAppend:
    """A failed append leaves no fragment for the next line to glue onto."""

    @staticmethod
    def _short_write_once(monkeypatch):
        real_write = os.write
        calls = []

        def short_write(descriptor, data):
            calls.append(descriptor)
            if len(calls) == 1:
                return real_write(descriptor, data[:10])  # e.g. ENOSPC mid-line
            return real_write(descriptor, data)

        monkeypatch.setattr(os, "write", short_write)

    def test_short_write_is_cut_off_and_the_next_charge_lands_cleanly(
        self, tmp_path, monkeypatch
    ):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "kept", 0.1, 0.0)
        before = registry.ledger_path("as20").read_bytes()
        self._short_write_once(monkeypatch)
        with pytest.raises(OSError, match="short write"):
            registry.charge("as20", "short", 0.2, 0.0)
        assert registry.ledger_path("as20").read_bytes() == before
        assert registry.snapshot()["as20"]["entries"] == 2  # memory keeps it
        registry.charge("as20", "next", 0.3, 0.0)
        monkeypatch.undo()
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert [e.label for e in reborn.for_dataset("as20").ledger] == ["kept", "next"]

    def test_failed_cut_refuses_appends_until_a_restart(self, tmp_path, monkeypatch):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "kept", 0.1, 0.0)
        self._short_write_once(monkeypatch)

        def failing_truncate(descriptor, length):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(os, "ftruncate", failing_truncate)
        with pytest.raises(OSError, match="Input/output error"):
            registry.charge("as20", "short", 0.2, 0.0)
        torn = registry.ledger_path("as20").read_bytes()
        assert not torn.endswith(b"\n")
        with pytest.raises(PrivacyError, match="torn line until a restart"):
            registry.charge("as20", "refused", 0.1, 0.0)
        assert registry.ledger_path("as20").read_bytes() == torn
        registry.charge("ca-grqc", "other dataset", 0.1, 0.0)  # unaffected
        monkeypatch.undo()
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert [e.label for e in reborn.for_dataset("as20").ledger] == ["kept"]
        reborn.charge("as20", "after restart", 0.1, 0.0)
        third = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        labels = [e.label for e in third.for_dataset("as20").ledger]
        assert labels == ["kept", "after restart"]


def _write_legacy(directory: Path, dataset: str, labels: list[str]) -> Path:
    """A ledger in the older whole-file snapshot format."""
    legacy = directory / f"{dataset}.json"
    payload = {
        "epsilon": 1.0,
        "delta": 0.1,
        "ledger": [{"label": label, "epsilon": 0.1, "delta": 0.0} for label in labels],
    }
    legacy.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return legacy


class TestReplay:
    def test_torn_tail_is_dropped_and_truncated_before_the_next_append(
        self, tmp_path, caplog
    ):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "kept", 0.1, 0.0)
        path = registry.ledger_path("as20")
        with open(path, "ab") as handle:  # a crash mid-append
            handle.write(b'{"label": "torn", "epsi')

        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with caplog.at_level("WARNING", logger="repro"):
            assert [e.label for e in reborn.for_dataset("as20").ledger] == ["kept"]
        assert "torn last line" in caplog.text
        reborn.charge("as20", "next", 0.2, 0.0)
        # The next spend starts a line of its own, not glued to the fragment.
        lines = path.read_text().splitlines()
        assert [json.loads(line)["label"] for line in lines] == ["kept", "next"]
        third = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert third.for_dataset("as20").spent == pytest.approx((0.3, 0.0))

    @pytest.mark.parametrize(
        "bad_line",
        [b"not json\n", b'{"label": "x", "epsilon": -1.0, "delta": 0.0}\n', b'{"label": "x"}\n'],
        ids=["not-json", "negative-epsilon", "missing-keys"],
    )
    def test_malformed_middle_line_is_refused_with_its_line_number(
        self, tmp_path, bad_line
    ):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "first", 0.1, 0.0)
        path = registry.ledger_path("as20")
        with open(path, "ab") as handle:
            handle.write(bad_line)
        registry.charge("as20", "third", 0.1, 0.0)
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with pytest.raises(PrivacyError, match=r"as20\.jsonl line 2 is malformed"):
            reborn.for_dataset("as20")

    def test_legacy_snapshot_migrates_once(self, tmp_path):
        legacy = _write_legacy(tmp_path, "as20", ["old-1", "old-2"])
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert [e.label for e in registry.for_dataset("as20").ledger] == ["old-1", "old-2"]
        assert not legacy.exists()
        assert (tmp_path / "as20.json.migrated").exists()
        registry.charge("as20", "new", 0.1, 0.0)
        # A second boot replays the .jsonl alone: nothing twice, nothing lost.
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        labels = [e.label for e in reborn.for_dataset("as20").ledger]
        assert labels == ["old-1", "old-2", "new"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "as20.json.migrated", "as20.jsonl"
        ]

    def test_crash_between_migration_write_and_rename(self, tmp_path):
        """Both files exist: the .jsonl (which already holds the legacy
        entries and every later spend) wins, and the rename finishes."""
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        legacy = _write_legacy(tmp_path, "as20", ["old-1", "old-2"])
        registry.ledger_path("as20").write_text(
            "".join(
                json.dumps({"label": label, "epsilon": 0.1, "delta": 0.0}) + "\n"
                for label in ["old-1", "old-2", "after-migration"]
            )
        )
        labels = [e.label for e in registry.for_dataset("as20").ledger]
        assert labels == ["old-1", "old-2", "after-migration"]
        assert not legacy.exists()
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert len(reborn.for_dataset("as20").ledger) == 3

    def test_malformed_legacy_snapshot_is_refused_and_kept(self, tmp_path):
        legacy = tmp_path / "as20.json"
        legacy.write_text('{"epsilon": 1.0, "delta": 0.1, "ledger": [')
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with pytest.raises(PrivacyError, match=r"as20\.json is malformed"):
            registry.for_dataset("as20")
        assert legacy.exists()
        assert not registry.ledger_path("as20").exists()


    def test_disagreeing_snapshot_and_lines_are_refused(self, tmp_path):
        """A snapshot written after the .jsonl (say, by an older build
        run in between) is not an interrupted migration: neither wins."""
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "old-1", 0.1, 0.0)
        legacy = _write_legacy(tmp_path, "as20", ["old-1", "older-build"])
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with pytest.raises(PrivacyError, match="disagree"):
            reborn.for_dataset("as20")
        assert legacy.exists()

    def test_existing_migrated_snapshot_is_never_overwritten(self, tmp_path):
        earlier = tmp_path / "as20.json.migrated"
        earlier.write_text("the first migration's snapshot")
        legacy = _write_legacy(tmp_path, "as20", ["old-1"])
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with pytest.raises(PrivacyError, match="cannot be migrated"):
            registry.for_dataset("as20")
        assert earlier.read_text() == "the first migration's snapshot"
        assert legacy.exists()
        assert not registry.ledger_path("as20").exists()

    def test_read_ledger_writes_nothing(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        registry.charge("as20", "kept", 0.1, 0.0)
        with open(registry.ledger_path("as20"), "ab") as handle:  # an append in progress
            handle.write(b'{"label": "in flight", "epsi')
        _write_legacy(tmp_path, "ca-grqc", ["old-1"])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        reader = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert [e.label for e in reader.read_ledger("as20")] == ["kept"]
        assert [e.label for e in reader.read_ledger("ca-grqc")] == ["old-1"]
        assert reader.read_ledger("unused") == ()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert reader.snapshot() == {}


class TestServiceLedgerFaults:
    """A ledger fault is the server's, never the client's: 503, no fit."""

    RELEASE = {"dataset": "as20", "epsilon": 0.3}

    @pytest.mark.parametrize(
        "suffix, content",
        [
            (".jsonl", '{"label": "ok", "epsilon": 0.1, "delta": 0.0}\n'
                       '{"label": "bad", "epsilon": "x", "delta": 0.0}\n'),
            (".json", '{"epsilon": 1.0, "delta": 0.1, "ledger": [{"label'),
            (".json", '{"epsilon": 1.0, "delta": 0.1, "ledger": [{"label": "x"}]}'),
        ],
        ids=["malformed-entry", "truncated-legacy", "malformed-legacy-entry"],
    )
    def test_corrupt_ledger_answers_503_with_the_privacy_error(
        self, tmp_path, monkeypatch, suffix, content
    ):
        fits = []
        monkeypatch.setattr(model_registry, "_fit_work", lambda **kw: fits.append(kw))
        service = SynthesisService(make_config(ledger_dir=str(tmp_path)))
        corrupt = service.accountants.ledger_path("as20").with_suffix(suffix)
        corrupt.write_text(content)
        response = service.handle("POST", "/release", self.RELEASE)
        assert response.status == 503
        assert response.body["error"]["code"] == "work-failed"
        assert response.body["error"]["message"].startswith("PrivacyError: privacy ledger")
        assert str(corrupt) in response.body["error"]["message"]
        assert fits == []

    def test_write_failure_answers_503_before_the_fit(self, tmp_path, monkeypatch):
        def failing_append(path, data):
            raise OSError(28, "No space left on device")

        fits = []
        monkeypatch.setattr(accounting, "_append", failing_append)
        monkeypatch.setattr(model_registry, "_fit_work", lambda **kw: fits.append(kw))
        service = SynthesisService(make_config(ledger_dir=str(tmp_path)))
        response = service.handle("POST", "/release", self.RELEASE)
        assert response.status == 503
        assert response.body["error"]["code"] == "work-failed"
        assert "No space left on device" in response.body["error"]["message"]
        assert fits == []
        # Memory keeps the spend: the conservative side.
        budget = service.handle("GET", "/stats").body["budget"]["as20"]
        assert budget["entries"] == 1
        assert budget["spent"]["epsilon"] == pytest.approx(0.3)


_CHARGE_LOOP = """
import sys
from repro.serve.accounting import AccountantRegistry

registry = AccountantRegistry(epsilon=1e9, delta=1e9, ledger_dir=sys.argv[1])
index = 0
while True:
    registry.charge("as20", f"c{index}", 0.001, 0.0)
    print(f"c{index}", flush=True)
    index += 1
"""


class TestCrashDurability:
    def test_kill_9_keeps_every_acknowledged_charge(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        child = subprocess.Popen(
            [sys.executable, "-c", _CHARGE_LOOP, str(tmp_path)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        acked = []
        try:
            while len(acked) < 40:
                line = child.stdout.readline()
                assert line, f"charge loop exited with {child.poll()}"
                acked.append(line.strip())
            child.send_signal(signal.SIGKILL)
        finally:
            child.kill()
            child.wait(timeout=10)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        reborn = AccountantRegistry(epsilon=1e9, delta=1e9, ledger_dir=tmp_path)
        labels = [entry.label for entry in reborn.for_dataset("as20").ledger]
        assert set(acked) <= set(labels)
        # At most the in-flight charge is on disk beyond the acks, never twice.
        assert len(labels) == len(set(labels))
        assert labels[: len(acked)] == acked


class TestTokens:
    TOKEN = "ab" * 32

    def test_a_charged_token_is_not_charged_again_across_a_restart(self, tmp_path):
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert registry.charge("as20", "fit", 0.3, 0.0, token=self.TOKEN)
        assert not registry.charge("as20", "fit", 0.3, 0.0, token=self.TOKEN)
        assert registry.charge("as20", "untokened", 0.1, 0.0)
        reborn = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        assert not reborn.charge("as20", "fit", 0.3, 0.0, token=self.TOKEN)
        assert reborn.snapshot()["as20"]["entries"] == 2
        lines = [json.loads(line) for line in (tmp_path / "as20.jsonl").read_text().splitlines()]
        assert [line.get("token") for line in lines] == [self.TOKEN, None]

    @pytest.mark.parametrize("token", ["not hex", 5])
    def test_a_malformed_token_is_refused_with_its_line_number(self, tmp_path, token):
        (tmp_path / "as20.jsonl").write_text(
            json.dumps({"label": "a", "epsilon": 0.1, "delta": 0.0}) + "\n"
            + json.dumps({"label": "b", "epsilon": 0.1, "delta": 0.0, "token": token}) + "\n"
        )
        registry = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        with pytest.raises(PrivacyError, match="line 2 is malformed"):
            registry.for_dataset("as20")
