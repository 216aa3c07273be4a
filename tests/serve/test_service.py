"""Behavioural tests for :class:`SynthesisService` (no sockets).

Every robustness promise is exercised through ``handle()`` directly:
status mapping, caching bit-identity, budget refusal ordering, fault
injection, backpressure, and drain — the HTTP layer adds nothing but
bytes on top of this surface.
"""

from __future__ import annotations

import json
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.protocols import FixedInitiatorModel, build_estimator
from repro.errors import ReproError
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import barabasi_albert_graph
from repro.graphs.io import write_edge_list
from repro.kronecker.initiator import Initiator
from repro.serve import registry as model_registry
from repro.serve import service as service_module
from repro.serve.accounting import AccountantRegistry
from repro.serve.registry import ModelRegistry, _served
from repro.serve.service import SynthesisService, _sample_work
from repro.stats.counts import matching_statistics

from serve_helpers import make_config


def render(response) -> str:
    """Exactly what the HTTP layer writes: canonical JSON."""
    return json.dumps(response.body, sort_keys=True)


def fit_request(**overrides) -> dict:
    payload = {"dataset": "as20", "method": "kronmom"}
    payload.update(overrides)
    return payload


class TestRouting:
    def test_health_and_readiness(self):
        service = SynthesisService(make_config())
        assert service.handle("GET", "/healthz").status == 200
        assert service.handle("GET", "/readyz").status == 200
        assert service.handle("GET", "/stats").status == 200

    def test_unknown_path_is_404(self):
        service = SynthesisService(make_config())
        response = service.handle("GET", "/nope")
        assert response.status == 404
        assert response.body["error"]["code"] == "not-found"

    def test_wrong_verb_is_405(self):
        service = SynthesisService(make_config())
        assert service.handle("POST", "/healthz").status == 405
        assert service.handle("GET", "/fit").status == 405

    def test_every_error_body_is_structured(self):
        service = SynthesisService(make_config())
        for verb, path, payload in [
            ("GET", "/nope", None),
            ("POST", "/fit", {"dataset": "nope"}),
            ("POST", "/fit", {"dataset": "as20", "method": "alchemy"}),
            ("POST", "/fit", [1, 2]),
        ]:
            body = service.handle(verb, path, payload).body
            assert set(body) == {"error"}
            assert set(body["error"]) == {"code", "message", "status"}


class TestFitAndCaching:
    def test_fit_returns_the_initiator(self):
        service = SynthesisService(make_config())
        response = service.handle("POST", "/fit", fit_request())
        assert response.status == 200
        model = response.body["model"]
        assert set(model["initiator"]) == {"a", "b", "c"}
        assert model["epsilon"] is None  # non-private
        assert response.body["charged"] is None
        assert response.headers["X-Repro-Cache"] == "miss"

    def test_identical_requests_are_cache_hits_and_bit_identical(self):
        service = SynthesisService(make_config())
        cold = service.handle("POST", "/fit", fit_request())
        warm = service.handle("POST", "/fit", fit_request())
        assert cold.headers["X-Repro-Cache"] == "miss"
        assert warm.headers["X-Repro-Cache"] == "hit"
        assert render(cold) == render(warm)
        stats = service.handle("GET", "/stats").body
        assert stats["responses"]["hits"] == 1
        assert stats["responses"]["misses"] == 1
        assert stats["models"]["fitted"] == 1

    def test_cache_attribution_never_leaks_into_the_body(self):
        service = SynthesisService(make_config())
        cold = service.handle("POST", "/fit", fit_request())
        warm = service.handle("POST", "/fit", fit_request())
        for response in (cold, warm):
            text = render(response)
            assert "cache" not in text.lower()
            assert "hit" not in json.loads(text)

    def test_default_seed_is_deterministic(self):
        """Omitting the seed twice resolves to the same model."""
        service = SynthesisService(make_config())
        first = service.handle("POST", "/fit", fit_request(method="private"))
        second = service.handle("POST", "/fit", fit_request(method="private"))
        assert first.body["seed"] == second.body["seed"]
        assert render(first) == render(second)
        # ... and only one budget charge was made for the shared model.
        assert service.handle("GET", "/stats").body["budget"]["as20"]["entries"] == 1

    def test_distinct_seeds_are_distinct_models(self):
        service = SynthesisService(make_config())
        one = service.handle("POST", "/fit", fit_request(seed=1))
        two = service.handle("POST", "/fit", fit_request(seed=2))
        assert one.status == two.status == 200
        assert service.handle("GET", "/stats").body["models"]["fitted"] == 2

    def test_restarted_server_reuses_fits_without_recharging(self, tmp_path):
        """Same cache + ledger dirs = a restart, not a fresh budget."""
        config = make_config(
            cache_dir=str(tmp_path / "cache"), ledger_dir=str(tmp_path / "ledgers")
        )
        first = SynthesisService(config)
        cold = first.handle("POST", "/release", {"dataset": "as20", "count": 2})
        assert cold.status == 200

        reborn = SynthesisService(config)
        warm = reborn.handle("POST", "/release", {"dataset": "as20", "count": 2})
        assert warm.status == 200
        assert warm.headers["X-Repro-Cache"] == "hit"
        assert render(cold) == render(warm)
        # The restored ledger still holds exactly one charge — serving
        # the cached response did not add another (accountants load
        # lazily, so probe the dataset explicitly).
        assert len(reborn.accountants.for_dataset("as20").ledger) == 1


class TestSampling:
    def test_sample_returns_summary_statistics(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/sample", fit_request(count=2)
        )
        assert response.status == 200
        samples = response.body["samples"]
        assert len(samples) == 2
        for row in samples:
            assert set(row) == {
                "n_nodes", "n_edges", "edges", "hairpins", "tripins", "triangles"
            }
        # Distinct samples: seeds are spawned per index.
        assert samples[0] != samples[1]

    def test_count_cap_enforced(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/sample", fit_request(count=10_000)
        )
        assert response.status == 400
        message = response.body["error"]["message"]
        assert "cap" in message
        # The structured 400 names the knob that raises the limit.
        assert "REPRO_SERVE_MAX_SAMPLES" in message

    def test_count_cap_is_a_knob(self, monkeypatch):
        service = SynthesisService(make_config(max_samples=2))
        assert service.handle("POST", "/sample", fit_request(count=3)).status == 400
        assert service.handle("POST", "/sample", fit_request(count=2)).status == 200

        monkeypatch.setenv("REPRO_SERVE_MAX_SAMPLES", "1")
        service = SynthesisService(make_config())
        response = service.handle("POST", "/sample", fit_request(count=2))
        assert response.status == 400
        assert "cap of 1" in response.body["error"]["message"]

    def test_release_requires_a_private_method(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/release", {"dataset": "as20", "method": "kronmom"}
        )
        assert response.status == 400

    def test_release_reports_the_charge(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/release",
            {"dataset": "as20", "epsilon": 0.3, "delta": 0.02, "count": 1},
        )
        assert response.status == 200
        assert response.body["charged"] == {"epsilon": 0.3, "delta": 0.02}
        budget = service.handle("GET", "/stats").body["budget"]["as20"]
        assert budget["spent"] == {"epsilon": 0.3, "delta": 0.02}


class TestValidation:
    def test_unknown_dataset_is_400_and_charges_nothing(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/release", {"dataset": "nope", "epsilon": 0.5}
        )
        assert response.status == 400
        assert service.handle("GET", "/stats").body["budget"] == {}

    def test_unknown_fields_rejected(self):
        service = SynthesisService(make_config())
        response = service.handle("POST", "/fit", fit_request(sneaky=1))
        assert response.status == 400
        assert "sneaky" in response.body["error"]["message"]

    def test_epsilon_on_nonprivate_method_rejected(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/fit", fit_request(method="kronmom", epsilon=0.5)
        )
        assert response.status == 400

    def test_delta_on_dpdegree_rejected(self):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/fit",
            {"dataset": "as20", "method": "dpdegree", "epsilon": 0.3, "delta": 0.1},
        )
        assert response.status == 400

    def test_bad_scalars_rejected(self):
        service = SynthesisService(make_config())
        for payload in [
            fit_request(seed=-1),
            fit_request(seed=True),
            fit_request(method="private", epsilon="lots"),
            {"dataset": 7},
            fit_request(params={"nested": {"x": 1}}),
        ]:
            assert service.handle("POST", "/fit", payload).status == 400


class TestParamsCannotSpend:
    """Estimator params are checked before the fit charges the ledger."""

    @pytest.mark.parametrize("field", ["epsilon", "delta", "seed"])
    def test_budget_fields_inside_params_are_400(self, field):
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/release",
            {"dataset": "as20", "epsilon": 0.2, "delta": 0.01, "seed": 3,
             "params": {field: 50.0 if field != "seed" else 4}},
        )
        assert response.status == 400
        assert field in response.body["error"]["message"]
        assert service.handle("GET", "/stats").body["budget"] == {}

    @pytest.mark.parametrize("params", [
        {"triangle_floor": "bogus"},
        {"degree_share": 1.0},
        {"no_such": 1},
        {"grid_points": 1},
        {"features": "edges"},
    ])
    def test_malformed_params_are_400_and_charge_nothing(self, params):
        service = SynthesisService(make_config())
        ok = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.2, "seed": 1}
        )
        assert ok.status == 200
        response = service.handle(
            "POST", "/release",
            {"dataset": "as20", "epsilon": 0.2, "delta": 0.01, "seed": 3,
             "params": params},
        )
        assert response.status == 400
        assert response.body["error"]["code"] == "bad-request"
        budget = service.handle("GET", "/stats").body["budget"]["as20"]
        assert budget["entries"] == 1


class TestBudgetRefusal:
    def test_exhaustion_is_403_with_the_refusing_charge(self):
        service = SynthesisService(make_config(budget_epsilon=0.5))
        ok = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.4, "seed": 1}
        )
        assert ok.status == 200
        refused = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.4, "seed": 2}
        )
        assert refused.status == 403
        assert refused.body["error"]["code"] == "budget-exhausted"
        # The refusal changed nothing: the ledger still has one entry and
        # the granted model still serves.
        assert service.handle("GET", "/stats").body["budget"]["as20"]["entries"] == 1
        again = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.4, "seed": 1}
        )
        assert again.status == 200
        assert again.headers["X-Repro-Cache"] == "hit"


class TestInjectedFaults:
    def test_slow_request_times_out_with_504(self):
        service = SynthesisService(
            make_config(timeout=0.2, faults="slow_request:nth=1:seconds=5")
        )
        response = service.handle("POST", "/fit", fit_request())
        assert response.status == 504
        assert response.body["error"]["code"] == "deadline"
        # The next (unfaulted) request succeeds.
        assert service.handle("POST", "/fit", fit_request()).status == 200

    def test_handler_error_is_a_structured_503(self):
        service = SynthesisService(make_config(faults="handler_error:nth=1"))
        response = service.handle("POST", "/fit", fit_request())
        assert response.status == 503
        assert response.body["error"]["code"] == "work-failed"
        assert service.handle("POST", "/fit", fit_request()).status == 200

    def test_missing_compiler_is_a_503_not_the_clients_fault(self, monkeypatch):
        """A sampler kernel that cannot be built fails the work, not the
        request: 503 ``work-failed`` naming the reason, never a 400."""
        from repro.native.sampling import SAMPLER_KERNEL

        def no_compiler():
            raise RuntimeError("no C compiler found (install cc/gcc or set CC)")

        monkeypatch.setattr(SAMPLER_KERNEL, "state", None)
        monkeypatch.setattr(SAMPLER_KERNEL, "_probe", no_compiler)
        service = SynthesisService(make_config())
        response = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.3, "delta": 0.02, "count": 1}
        )
        assert response.status == 503
        assert response.body["error"]["code"] == "work-failed"
        assert "the sampler kernel is unavailable: no C compiler found" in (
            response.body["error"]["message"]
        )


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self):
        service = SynthesisService(make_config(queue=2))
        # Occupy both admission slots as if two requests were in flight.
        assert service.gate.try_enter()
        assert service.gate.try_enter()
        try:
            response = service.handle("POST", "/fit", fit_request())
            assert response.status == 429
            assert response.body["error"]["code"] == "queue-full"
            assert int(response.headers["Retry-After"]) >= 1
        finally:
            service.gate.leave()
            service.gate.leave()
        assert service.handle("POST", "/fit", fit_request()).status == 200

    def test_probes_do_not_consume_admission_slots(self):
        service = SynthesisService(make_config(queue=1))
        assert service.gate.try_enter()
        try:
            assert service.handle("GET", "/healthz").status == 200
            assert service.handle("GET", "/stats").status == 200
        finally:
            service.gate.leave()


class TestDrain:
    def test_draining_refuses_work_and_readiness(self, tmp_path):
        service = SynthesisService(
            make_config(ledger_dir=str(tmp_path / "ledgers"))
        )
        granted = service.handle(
            "POST", "/release", {"dataset": "as20", "epsilon": 0.3}
        )
        assert granted.status == 200
        service.begin_drain()
        assert service.handle("GET", "/readyz").status == 503
        work = service.handle("POST", "/fit", fit_request())
        assert work.status == 503
        assert work.body["error"]["code"] == "draining"
        # Liveness stays green while draining.
        assert service.handle("GET", "/healthz").status == 200
        assert service.drain(deadline=2.0)
        # The granted release's charge reached disk before its fit ran.
        reborn = AccountantRegistry(
            epsilon=1.0, delta=0.1, ledger_dir=tmp_path / "ledgers"
        )
        assert len(reborn.for_dataset("as20").ledger) == 1


class TestBreaker:
    def test_open_breaker_fails_fast_and_readyz_probes_closed(self):
        service = SynthesisService(make_config(breaker=2))
        service.breaker.record_breakage()
        service.breaker.record_breakage()
        assert service.breaker.is_open
        response = service.handle("POST", "/fit", fit_request())
        assert response.status == 503
        assert response.body["error"]["code"] == "breaker-open"
        # /readyz drives the recovery probe; n_jobs=1 probes in-process
        # and succeeds immediately.
        assert service.handle("GET", "/readyz").status == 200
        assert not service.breaker.is_open
        assert service.handle("POST", "/fit", fit_request()).status == 200


class TestSampleWork:
    """``_sample_work``, the body of every ``/sample`` and ``/release``
    sample list, called directly."""

    MODEL = FixedInitiatorModel(Initiator(1.0, 0.537, 0.218), 10)

    def test_rows_equal_counting_the_sampled_graphs(self):
        rows = _sample_work(model=self.MODEL, count=3, entropy=99)
        children = np.random.SeedSequence(99).spawn(3)
        for row, child in zip(rows, children):
            graph = self.MODEL.sample_graph(seed=child)
            stats = matching_statistics(graph)
            expected = {
                "n_nodes": int(graph.n_nodes),
                "n_edges": int(graph.n_edges),
                "edges": float(stats.edges),
                "hairpins": float(stats.hairpins),
                "tripins": float(stats.tripins),
                "triangles": float(stats.triangles),
            }
            assert json.dumps(row) == json.dumps(expected)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_threaded_rows_equal_the_serial_rows(self, n_jobs):
        serial = _sample_work(model=self.MODEL, count=7, entropy=11)
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            threaded = _sample_work(
                model=self.MODEL, count=7, entropy=11, mapper=pool.map
            )
        assert json.dumps(threaded) == json.dumps(serial)

    def test_service_samples_on_its_threads_and_close_releases_them(self):
        service = SynthesisService(make_config(n_jobs=2))
        seen: set[str] = set()
        original = service._sampler.map

        def recording_map(fn, *iterables):
            def row(*args):
                seen.add(threading.current_thread().name)
                return fn(*args)

            return original(row, *iterables)

        service._sampler.map = recording_map
        response = service.handle(
            "POST", "/sample", {"dataset": "as20", "count": 4, "seed": 2}
        )
        assert response.status == 200
        serial = SynthesisService(make_config(n_jobs=1)).handle(
            "POST", "/sample", {"dataset": "as20", "count": 4, "seed": 2}
        )
        assert render(response) == render(serial)
        assert seen and all(name.startswith("repro-serve-sample") for name in seen)
        service.close()
        assert not any(
            thread.name.startswith("repro-serve-sample") and thread.is_alive()
            for thread in service._sampler._threads
        )

    def test_fixed_entropy_batches_are_prefixes(self):
        short = _sample_work(model=self.MODEL, count=2, entropy=5)
        long = _sample_work(model=self.MODEL, count=4, entropy=5)
        assert json.dumps(short) == json.dumps(long[:2])

    def test_registry_stores_only_the_served_fields(self):
        """A private fit's degree release is dropped from the registry's
        copy; the response body built from it is unchanged."""
        full = build_estimator("Private", {}, epsilon=0.5, delta=0.01, seed=0).fit(
            load_dataset("as20")
        )
        served = _served(full)
        registry = ModelRegistry(accountants=None, executor=None, cache=None, maxsize=1)
        assert registry.summarize_model(served) == registry.summarize_model(full)
        assert json.dumps(_sample_work(model=served, count=2, entropy=1)) == (
            json.dumps(_sample_work(model=full, count=2, entropy=1))
        )
        assert len(pickle.dumps(served)) < len(pickle.dumps(full)) // 50


def _ledger_lines(service, dataset="as20") -> list[dict]:
    path = service.accountants.ledger_path(dataset)
    return [json.loads(line) for line in path.read_text().splitlines()]


RELEASE = {"dataset": "as20", "epsilon": 0.1, "delta": 0.01, "count": 2}


class TestChargeOnce:
    """A private model's charge is tied to its spec token, once per token."""

    def test_restart_without_a_cache_does_not_charge_a_repeated_spec(self, tmp_path):
        config = make_config(ledger_dir=str(tmp_path))
        cold = SynthesisService(config).handle("POST", "/release", RELEASE)
        assert cold.status == 200
        reborn = SynthesisService(config)
        again = reborn.handle("POST", "/release", RELEASE)
        assert again.status == 200
        assert again.headers["X-Repro-Cache"] == "miss"  # refit, not a cache hit
        assert again.payload == cold.payload
        lines = _ledger_lines(reborn)
        assert len(lines) == 1 and len(lines[0]["token"]) == 64
        assert reborn.stats()["budget"]["as20"]["entries"] == 1

    def test_a_changed_data_file_gets_a_new_token_and_is_charged(
        self, tmp_path, monkeypatch
    ):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        edge_file = data_dir / "as20.txt"
        monkeypatch.setenv("REPRO_DATA_DIR", str(data_dir))
        write_edge_list(barabasi_albert_graph(300, 3, np.random.default_rng(1)), edge_file)
        service = SynthesisService(make_config(ledger_dir=str(tmp_path / "ledgers")))
        first = service.handle("POST", "/release", RELEASE)
        assert first.status == 200
        assert service.handle("POST", "/release", RELEASE).headers["X-Repro-Cache"] == "hit"
        write_edge_list(barabasi_albert_graph(300, 4, np.random.default_rng(2)), edge_file)
        changed = service.handle("POST", "/release", RELEASE)
        assert changed.status == 200
        assert changed.headers["X-Repro-Cache"] == "miss"
        assert changed.body["model"] != first.body["model"]
        tokens = [line["token"] for line in _ledger_lines(service)]
        assert len(tokens) == len(set(tokens)) == 2

    def test_a_worker_refuses_a_fingerprint_mismatch(self):
        with pytest.raises(ReproError, match="changed while the request was in flight"):
            model_registry._fit_work(
                dataset="as20", fingerprint="0" * 16, method="KronMom",
                epsilon=None, delta=None, seed=0, params=(),
            )

    def test_a_mismatch_answers_503_and_stores_no_model(self, monkeypatch):
        monkeypatch.setattr(service_module, "dataset_fingerprint", lambda name: "f" * 16)
        service = SynthesisService(make_config())
        response = service.handle("POST", "/fit", fit_request())
        assert response.status == 503
        assert "changed while the request was in flight" in response.body["error"]["message"]
        assert service.stats()["models"]["loaded"] == 0

    def test_an_evicted_models_refit_is_uncharged_and_byte_identical(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(service_module, "_MODEL_MEMO_SIZE", 1)
        monkeypatch.setattr(service_module, "_RESPONSE_MEMO_SIZE", 1)
        service = SynthesisService(make_config(ledger_dir=str(tmp_path)))
        first = service.handle("POST", "/release", dict(RELEASE, seed=1))
        service.handle("POST", "/release", dict(RELEASE, seed=2))  # evicts seed 1
        again = service.handle("POST", "/release", dict(RELEASE, seed=1))
        assert again.status == 200
        assert again.headers["X-Repro-Cache"] == "miss"
        assert again.payload == first.payload
        assert service.stats()["models"]["fitted"] == 3
        assert len(_ledger_lines(service)) == 2
        assert service.accountants.for_dataset("as20").spent[0] == pytest.approx(0.2)

    def test_a_parent_format_ledger_replays_and_its_spec_is_charged_again(self, tmp_path):
        """An untokened line counts against the budget but marks no spec."""
        config = make_config(ledger_dir=str(tmp_path))
        label = "serve Private fit of as20 (epsilon=0.1, delta=0.01, seed=7)"
        (tmp_path / "as20.jsonl").write_text(
            json.dumps({"label": label, "epsilon": 0.1, "delta": 0.01}) + "\n"
        )
        service = SynthesisService(config)
        assert service.accountants.for_dataset("as20").spent == pytest.approx((0.1, 0.01))
        assert service.handle("POST", "/release", dict(RELEASE, seed=7)).status == 200
        lines = _ledger_lines(service)
        assert [line["label"] for line in lines] == [label, label]
        assert "token" not in lines[0] and "token" in lines[1]
        reborn = SynthesisService(config)
        assert reborn.handle("POST", "/release", dict(RELEASE, seed=7)).status == 200
        assert len(_ledger_lines(reborn)) == 2
        assert reborn.accountants.for_dataset("as20").spent == pytest.approx((0.2, 0.02))


class TestBoundedState:
    def test_three_times_the_bound_leaves_each_memo_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(service_module, "_MODEL_MEMO_SIZE", 3)
        monkeypatch.setattr(service_module, "_RESPONSE_MEMO_SIZE", 3)
        service = SynthesisService(make_config(budget_epsilon=10.0))
        for seed in range(9):
            response = service.handle("POST", "/release", dict(RELEASE, seed=seed))
            assert response.status == 200
        stats = service.stats()
        assert stats["responses"]["cached"] == len(service._responses) == 3
        assert stats["models"]["loaded"] == 3
        assert stats["models"]["fitted"] == stats["responses"]["misses"] == 9
        assert stats["budget"]["as20"]["entries"] == 9
