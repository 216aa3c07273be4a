"""Tests of the benchmark's own arithmetic and input generation.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import pytest

from perfbench import measure, workloads
from perfbench.trace import Span, Tracer, self_times


# -- percentiles and the sample-count rule --------------------------------------


def test_nearest_rank_percentile():
    values = list(range(10, 0, -1))  # order must not matter
    assert measure.percentile(values, 50) == 5
    assert measure.percentile(values, 90) == 9
    assert measure.percentile(values, 100) == 10
    assert measure.percentile(values, 1) == 1
    assert measure.percentile([7.5], 50) == 7.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0)


def test_tail_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(100, 90) == 10
    assert measure.tail_supported(100, 90)
    assert measure.samples_beyond(99, 90) == 9
    assert not measure.tail_supported(99, 90)
    assert measure.tail_supported(20, 50)
    assert not measure.tail_supported(19, 50)


def test_timing_summary_reports_p90_only_when_supported():
    assert measure.timing_summary(list(range(99))) == {"n": 99, "p50": 49}
    summary = measure.timing_summary(list(range(100)))
    assert summary == {"n": 100, "p50": 49, "p90": 89}
    assert measure.timing_summary([]) == {"n": 0}


# -- span self time ------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: covered time is [1, 5]
        Span("c", 9.0, 12.0, 0, 0),  # runs past the parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 3.0])


def test_self_time_counts_grandchildren_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("child", 2.0, 8.0, 0, 0),
        Span("grandchild", 3.0, 7.0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_nests_spans_and_adopts_worker_spans():
    tracer = Tracer()
    with tracer.op() as op:
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                tracer.count("work", 2)
            worker = [Span("remote", 1.0, 2.0, -1, 99), Span("remote.child", 1.2, 1.5, 0, 99)]
            tracer.adopt(worker, {"work": 3}, outer)
    assert [s.name for s in tracer.spans] == ["outer", "inner", "remote", "remote.child"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 2]
    assert {s.op for s in tracer.spans} == {op}
    assert tracer.counts[op]["work"] == 5
    assert all(s.end >= s.start for s in tracer.spans)


# -- seed determinism ----------------------------------------------------------------


def test_op_plan_is_a_function_of_the_seed():
    assert workloads.op_plan(7, 3, 12) == workloads.op_plan(7, 3, 12)
    assert workloads.op_plan(7, 3, 12) != workloads.op_plan(8, 3, 12)
    # A longer plan extends a shorter one, so runs of any length agree.
    assert workloads.op_plan(7, 3, 24)[:12] == workloads.op_plan(7, 3, 12)
    indices = [index for index, _ in workloads.op_plan(7, 3, 12)]
    assert sorted(indices) == [0] * 4 + [1] * 4 + [2] * 4  # round-robin


def test_request_seeds_are_a_function_of_the_seed_and_client():
    assert workloads.request_seeds(7, 0, 5) == workloads.request_seeds(7, 0, 5)
    assert workloads.request_seeds(7, 0, 5) != workloads.request_seeds(8, 0, 5)
    assert workloads.request_seeds(7, 0, 5) != workloads.request_seeds(7, 1, 5)
    assert len(set(workloads.request_seeds(7, 0, 100))) == 100


def test_skg_inputs_are_a_function_of_the_seed():
    def digests(seed):
        return [workloads.graph_digest(g) for g in workloads.skg_graphs(seed, k=8, count=2)]

    assert digests(7) == digests(7)
    assert digests(7) != digests(8)
    assert len(set(digests(7))) == 2


# -- the traced decomposition is the real path -------------------------------------------


def test_staged_fit_is_bit_identical_to_the_estimator():
    from perfbench.trace import install

    workload = workloads.ReleaseLarge(3)
    workload.graphs = workloads.skg_graphs(3, k=9, count=1)
    record, error, _ = workload.fit(workload.fresh_graph(0), op_seed=11)
    tracer = Tracer()
    restore = install(tracer)
    try:
        traced_record, _ms = workload._traced_op(0, 11, tracer)
    finally:
        restore()
    assert error == ""
    assert traced_record == record
    names = {span.name for span in tracer.spans}
    assert {"core.private_fit", "privacy.isotonic", "kronecker.kronmom"} <= names


# -- the output matches BENCHMARK.json -------------------------------------------------


def test_declared_workloads_exist():
    from perfbench import run

    assert set(_declared("workloads")) <= set(run.WORKLOADS)


def _declared(kind):
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("unit") for m in spec[kind]}


def test_metric_names_and_units_match_the_declaration():
    from perfbench import run
    from perfbench.workloads import Op, ReleasePaper

    workload = ReleasePaper(0)
    outcome = {"ops": [Op("fit", 5.0, True)], "wall_s": 1.0, "traced_ms": [5.5],
               "paired_ms": [(5.0, 5.5)], "round_ms": [5.0], "report": {}}
    e2e = run.end_to_end(workload, outcome, [0.1, 0.2, 0.3], 100.0)
    layers, section = run.per_layer(workload, outcome, Tracer())
    assert {k: v["unit"] for k, v in e2e.items()} == _declared("end_to_end")
    assert {k: v["unit"] for k, v in layers.items()} == _declared("per_layer")
    assert e2e["setup_s"]["value"] == 0.2
    assert section["purpose"]["met"] is False  # no spans, so no KronMom share
