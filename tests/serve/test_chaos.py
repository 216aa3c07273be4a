"""The chaos acceptance test for the serve layer.

ISSUE 9's bar, verbatim: under injected worker crashes, slow requests,
and handler errors, the server returns only well-formed structured
responses (200/403/429/503/504 — never a hung or half-written socket);
the per-dataset ledger sums exactly to the spent budget with zero
over-spend under >= 16 concurrent clients; and identical requests served
cold versus from cache are bit-identical.

Everything runs over real HTTP against a real worker pool (n_jobs=2):
the ``pool_breakage`` clause kills a live worker process and the server
self-heals through it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.serve.accounting import AccountantRegistry
from repro.serve.server import ServeRuntime
from repro.serve.service import SynthesisService

from serve_helpers import make_config

CLIENTS = 16
ALLOWED_STATUSES = {200, 403, 429, 503, 504}
RELEASE_EPSILON = 0.1
BUDGET_EPSILON = 0.25  # grants exactly two 0.1-releases, refuses the third
RELEASE_SEEDS = (0, 1, 2, 3, 4)  # five distinct model specs compete


def raw_request(base, verb, path, payload=None, timeout=30.0):
    """Returns (status, headers, raw bytes) — bytes for bit-identity."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=verb)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def assert_well_formed(status: int, body: bytes) -> dict:
    parsed = json.loads(body)  # a half-written response would blow up here
    assert isinstance(parsed, dict)
    if status != 200:
        assert set(parsed["error"]) == {"code", "message", "status"}
        assert parsed["error"]["status"] == status
    return parsed


@pytest.fixture
def storm_runtime(tmp_path):
    config = make_config(
        queue=6,
        timeout=15.0,
        breaker=4,
        budget_epsilon=BUDGET_EPSILON,
        budget_delta=0.1,
        n_jobs=2,
        ledger_dir=str(tmp_path / "ledgers"),
        # Work-request admission order: #1 is the deterministic pre-storm
        # fit below (its first pool submission kills the worker); #3 and
        # #6 land somewhere inside the storm.
        faults=(
            "pool_breakage:nth=1:attempts=1;"
            "slow_request:nth=3:seconds=0.3;"
            "handler_error:nth=6"
        ),
    )
    runtime = ServeRuntime(config)
    runtime.start()
    yield runtime
    runtime.stop()


class TestChaosAcceptance:
    def test_storm(self, storm_runtime):
        base = storm_runtime.base_url
        service = storm_runtime.service

        # --- Pre-storm, deterministic: request #1 crashes its worker;
        # the pool self-heals and the request still succeeds.
        status, _h, body = raw_request(
            base, "POST", "/fit",
            {"dataset": "as20", "method": "private", "seed": 100,
             "epsilon": 0.01, "delta": 0.001},
        )
        assert status == 200
        assert_well_formed(status, body)
        assert service.breaker.snapshot()["pool_breakages"] >= 1
        assert not service.breaker.is_open

        # --- Cold reference for bit-identity (work request #2).
        identity_payload = {"dataset": "as20", "method": "kronmom"}
        status, headers, cold_bytes = raw_request(
            base, "POST", "/fit", identity_payload
        )
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"

        # --- The storm: >= 16 concurrent clients, mixed endpoints, with
        # slow_request and handler_error clauses landing mid-flight.
        observed = []  # (status, bytes) of every response, raw
        terminal = {}  # seed -> (status, bytes) of each release's outcome
        failures = []
        lock = threading.Lock()

        def record(status, body):
            with lock:
                observed.append((status, body))

        def with_retries(verb, path, payload):
            """Back off on 429/503/504 like a real client; return the
            terminal (status, bytes)."""
            for _attempt in range(80):
                status, _h, body = raw_request(base, verb, path, payload)
                record(status, body)
                if status not in (429, 503, 504):
                    return status, body
                if status == 503:
                    # Poke readiness: this drives the breaker's recovery
                    # probe if it tripped.
                    s, _hh, b = raw_request(base, "GET", "/readyz")
                    record(s, b)
                time.sleep(0.05)
            return status, body

        def client(worker: int) -> None:
            try:
                status, _h, body = raw_request(base, "GET", "/healthz")
                record(status, body)
                assert status == 200

                status, body = with_retries("POST", "/fit", identity_payload)
                assert status == 200

                status, body = with_retries(
                    "POST", "/sample",
                    {"dataset": "as20", "method": "kronmom", "count": 2},
                )
                assert status == 200

                seed = RELEASE_SEEDS[worker % len(RELEASE_SEEDS)]
                status, body = with_retries(
                    "POST", "/release",
                    {"dataset": "as20", "epsilon": RELEASE_EPSILON,
                     "delta": 0.01, "seed": seed},
                )
                assert status in (200, 403)
                with lock:
                    previous = terminal.get(seed)
                    # A spec's outcome is stable: granted stays granted
                    # (cached), refused stays refused (budget only grows).
                    if previous is not None:
                        assert previous == (status, body)
                    terminal[seed] = (status, body)
            except Exception as exc:  # pragma: no cover - the failure mode
                failures.append(f"client {worker}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(worker,))
            for worker in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads), "hung client"
        assert failures == []

        # --- 1. Only well-formed responses from the allowed status set.
        assert observed
        for status, body in observed:
            assert status in ALLOWED_STATUSES | {200}
            assert_well_formed(status, body)
        statuses = {status for status, _body in observed}
        assert statuses <= ALLOWED_STATUSES
        assert 403 in statuses  # refusals really happened under load

        # --- 2. Exact accounting: exactly two releases fit the budget,
        # the ledger sums exactly to the spend, zero over-spend.
        granted = [seed for seed, (status, _b) in terminal.items() if status == 200]
        refused = [seed for seed, (status, _b) in terminal.items() if status == 403]
        assert len(granted) == 2
        assert len(refused) == len(terminal) - 2
        accountant = service.accountants.for_dataset("as20")
        ledger = accountant.ledger
        spent_epsilon, spent_delta = accountant.spent
        assert spent_epsilon == pytest.approx(
            sum(entry.epsilon for entry in ledger), abs=0
        )
        # 0.01 from the pre-storm private fit + two granted releases.
        assert len([e for e in ledger if "epsilon=0.1" in e.label]) == 2
        assert spent_epsilon == pytest.approx(0.01 + 2 * RELEASE_EPSILON)
        assert spent_epsilon <= BUDGET_EPSILON + 1e-12
        # No duplicate charge for any model spec.
        labels = [entry.label for entry in ledger]
        assert len(labels) == len(set(labels))

        # --- 3. Bit-identity: the same request, cold vs cached, across
        # the whole storm.
        status, headers, warm_bytes = raw_request(
            base, "POST", "/fit", identity_payload
        )
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert warm_bytes == cold_bytes
        for seed in granted:
            status, _h, body = raw_request(
                base, "POST", "/release",
                {"dataset": "as20", "epsilon": RELEASE_EPSILON,
                 "delta": 0.01, "seed": seed},
            )
            assert status == 200
            assert body == terminal[seed][1]

        # --- 4. The drain leaves the exact ledger on disk.
        assert storm_runtime.stop()
        on_disk = AccountantRegistry(
            epsilon=BUDGET_EPSILON, delta=1.0,
            ledger_dir=service.accountants.ledger_dir,
        ).for_dataset("as20")
        assert len(on_disk.ledger) == len(ledger)
        assert on_disk.spent[0] == pytest.approx(spent_epsilon)


# A serve process that answers one /release, arms a SIGKILL at one point
# of the next release's charge path, and sends that release.  Each
# response it answers is printed before the next request (an ack).
_KILL_AT = """
import json, os, signal, sys
from repro.serve import accounting, service as service_module
from repro.serve.config import ServeConfig
from repro.serve.service import SynthesisService

ledger_dir, point = sys.argv[1], sys.argv[2]

def die(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

def torn_append(path, data):
    with open(path, "ab") as handle:
        handle.write(data[: len(data) // 2])
    die()

service = SynthesisService(ServeConfig.resolve(
    port=0, n_jobs=1, budget_epsilon=1.0, budget_delta=0.1, ledger_dir=ledger_dir))

def release(seed):
    response = service.handle("POST", "/release", {
        "dataset": "as20", "epsilon": 0.1, "delta": 0.01, "count": 2, "seed": seed})
    print(json.dumps({"seed": seed, "status": response.status,
                      "payload": response.payload.decode()}), flush=True)

release(0)
if point == "mid-append":
    accounting._append = torn_append
elif point == "before-fsync":
    accounting.os.fsync = die
elif point == "before-fit":
    service.models._executor = die
elif point == "before-reply":
    service_module._sample_work = die
release(1)
die()  # after the reply
"""

KILL_POINTS = ("mid-append", "before-fsync", "before-fit", "before-reply", "after-reply")


class TestKillDuringCharge:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_a_kill_never_loses_a_spend_a_response_depended_on(self, tmp_path, point):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        env = {k: v for k, v in env.items() if not k.startswith("REPRO_SERVE_")}
        child = subprocess.run(
            [sys.executable, "-c", _KILL_AT, str(tmp_path), point],
            capture_output=True, env=env, text=True, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        acked = [json.loads(line) for line in child.stdout.splitlines()]
        assert [ack["seed"] for ack in acked] == ([0, 1] if point == "after-reply" else [0])
        assert all(ack["status"] == 200 for ack in acked)

        # Every acknowledged release's spend is on disk, read before any
        # replay can change the file.
        on_disk = AccountantRegistry(epsilon=1.0, delta=0.1, ledger_dir=tmp_path)
        labels = [spend.label for spend in on_disk.read_ledger("as20")]
        for ack in acked:
            assert sum(f"seed={ack['seed']})" in label for label in labels) == 1

        # A restart (no trial cache) answers each acknowledged release
        # byte-identically without a second charge, and the interrupted
        # one is charged at most once across the crash.
        reborn = SynthesisService(make_config(
            budget_epsilon=1.0, budget_delta=0.1, ledger_dir=str(tmp_path)))
        for ack in acked:
            again = reborn.handle("POST", "/release", {
                "dataset": "as20", "epsilon": 0.1, "delta": 0.01, "count": 2,
                "seed": ack["seed"]})
            assert again.payload.decode() == ack["payload"]
        assert reborn.handle("POST", "/release", {
            "dataset": "as20", "epsilon": 0.1, "delta": 0.01, "count": 2,
            "seed": 1}).status == 200
        lines = [json.loads(line) for line in
                 (tmp_path / "as20.jsonl").read_text().splitlines()]
        assert len(lines) == 2
        assert len({line["token"] for line in lines}) == 2
