"""Tests for the HTTP shell: real sockets, real signals, real drain."""

from __future__ import annotations

import json
import os
import signal
import statistics
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.serve.accounting import AccountantRegistry
from repro.serve.server import ServeRuntime

from serve_helpers import make_config


def http(base: str, verb: str, path: str, payload=None, timeout=30.0):
    """One request; returns (status, headers, parsed body)."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(base + path, data=data, method=verb)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


@pytest.fixture
def runtime():
    instance = ServeRuntime(make_config())
    instance.start()
    yield instance
    instance.stop()


class TestTransport:
    def test_ephemeral_port_is_reported(self, runtime):
        host, port = runtime.address
        assert host == "127.0.0.1"
        assert port > 0

    def test_health_over_the_wire(self, runtime):
        status, _headers, body = http(runtime.base_url, "GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_fit_and_cache_header_over_the_wire(self, runtime):
        payload = {"dataset": "as20", "method": "kronmom"}
        status, headers, body = http(runtime.base_url, "POST", "/fit", payload)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        status, headers, again = http(runtime.base_url, "POST", "/fit", payload)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"
        assert again == body

    def test_keep_alive_hits_do_not_wait_for_delayed_acks(self, runtime):
        # Headers and body go out as two writes; with Nagle's algorithm on,
        # the body waits for the client's delayed ACK (~40 ms on Linux).
        payload = json.dumps({"dataset": "as20", "method": "kronmom"})
        host, port = runtime.address
        connection = HTTPConnection(host, port, timeout=30)
        try:
            round_trips = []
            for attempt in range(11):
                start = time.perf_counter()
                connection.request("POST", "/fit", body=payload)
                response = connection.getresponse()
                response.read()
                if attempt:  # the first request fits the model
                    assert response.getheader("X-Repro-Cache") == "hit"
                    round_trips.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020

    def test_malformed_json_is_a_structured_400(self, runtime):
        bodies = [
            b"{not json",
            b'{"dataset": "as\xe920"}',  # not UTF-8: a decode error
            b"[" * 5000,  # deeper than the decoder's recursion limit
        ]
        for data in bodies:
            request = urllib.request.Request(
                runtime.base_url + "/fit", data=data, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 400, data[:20]
            assert json.loads(excinfo.value.read())["error"]["code"] == "bad-json"

    def test_bad_json_answers_are_counted_in_stats(self, runtime):
        for data in (b"{not json", b"[" * 5000):
            request = urllib.request.Request(
                runtime.base_url + "/fit", data=data, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(request, timeout=10)
        status, _headers, stats = http(runtime.base_url, "GET", "/stats")
        assert status == 200
        # The /stats request itself is counted after its body is built.
        assert stats["requests"] == {"total": 2, "by_status": {"400": 2}}

    def test_budget_refusal_over_the_wire(self, runtime):
        status, _headers, body = http(
            runtime.base_url, "POST", "/release",
            {"dataset": "as20", "epsilon": 99.0, "delta": 0.01},
        )
        assert status == 403
        assert body["error"]["code"] == "budget-exhausted"


class TestLifecycle:
    def test_stop_is_idempotent_and_drains(self, tmp_path):
        runtime = ServeRuntime(
            make_config(ledger_dir=str(tmp_path / "ledgers"))
        )
        runtime.start()
        status, _h, _b = http(
            runtime.base_url, "POST", "/release", {"dataset": "as20"}
        )
        assert status == 200
        assert runtime.stop()
        assert runtime.stop()  # second call: waits, no error
        reborn = AccountantRegistry(
            epsilon=1.0, delta=0.1, ledger_dir=tmp_path / "ledgers"
        )
        assert len(reborn.for_dataset("as20").ledger) == 1
        # The socket is really closed.
        with pytest.raises(OSError):
            http(runtime.base_url, "GET", "/healthz", timeout=2.0)

    def test_stop_releases_the_sampling_threads(self):
        runtime = ServeRuntime(make_config(n_jobs=2))
        runtime.start()
        status, _h, body = http(
            runtime.base_url, "POST", "/sample",
            {"dataset": "as20", "count": 4, "seed": 1},
        )
        assert status == 200 and len(body["samples"]) == 4
        sampler_threads = list(runtime.service._sampler._threads)
        assert sampler_threads
        assert runtime.stop()
        assert not any(thread.is_alive() for thread in sampler_threads)

    def test_sigterm_triggers_graceful_drain(self, tmp_path):
        """A real SIGTERM to this process drains the runtime cleanly."""
        runtime = ServeRuntime(
            make_config(ledger_dir=str(tmp_path / "ledgers"))
        )
        previous_term = signal.getsignal(signal.SIGTERM)
        previous_int = signal.getsignal(signal.SIGINT)
        try:
            runtime.install_signal_handlers()
            runtime.start()
            status, _h, _b = http(
                runtime.base_url, "POST", "/release", {"dataset": "as20"}
            )
            assert status == 200
            os.kill(os.getpid(), signal.SIGTERM)
            assert runtime.stopped.wait(timeout=15.0)
            reborn = AccountantRegistry(
                epsilon=1.0, delta=0.1, ledger_dir=tmp_path / "ledgers"
            )
            assert len(reborn.for_dataset("as20").ledger) == 1
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)

    def test_draining_runtime_rejects_work_but_answers(self):
        runtime = ServeRuntime(make_config())
        runtime.start()
        try:
            runtime.service.begin_drain()
            status, _h, body = http(
                runtime.base_url, "POST", "/fit", {"dataset": "as20"}
            )
            assert status == 503
            assert body["error"]["code"] == "draining"
            status, _h, _b = http(runtime.base_url, "GET", "/readyz")
            assert status == 503
            status, _h, _b = http(runtime.base_url, "GET", "/healthz")
            assert status == 200
        finally:
            runtime.stop()


class TestConcurrentClients:
    def test_parallel_identical_requests_fit_once(self, runtime):
        payload = {"dataset": "as20", "method": "private", "seed": 11}
        results = []

        def client():
            results.append(http(runtime.base_url, "POST", "/fit", payload))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = [status for status, _h, _b in results]
        bodies = [json.dumps(body, sort_keys=True) for _s, _h, body in results]
        # Backpressure may reject some, but granted responses are all
        # bit-identical and the single-flight fit charged exactly once.
        assert set(statuses) <= {200, 429}
        assert len(set(body for status, body in zip(statuses, bodies) if status == 200)) == 1
        assert runtime.service.accountants.for_dataset("as20").spent[0] == (
            pytest.approx(0.2)
        )
        stats = runtime.service.stats()
        assert stats["models"]["fitted"] == 1
