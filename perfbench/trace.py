"""In-memory span tracing around calls into the repro layers.

Tracing is done from outside the program: :func:`install` replaces the
public functions at each layer boundary with wrappers that open a span
(name, start, end, parent, op id) while the tracer is enabled and call
straight through while it is not.  Spans stay in memory and are written
out once, at the end of the run.

Fits served by ``repro serve`` run in pool workers.  The workers are
forked after :func:`install`, so they carry the same wrappers; the
traced serve path submits :func:`traced_fit_work` in place of the
registry's fit, which records the worker's spans and ships them back
with the model.  ``time.perf_counter`` is the system-wide monotonic
clock on Linux, so worker and server timestamps share one axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# The tracer the installed wrappers report to.  Module-level because the
# wrappers, and the fit wrapper pickled by name into pool workers, must
# find it without being handed it.
_ACTIVE: "Tracer | None" = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


class Tracer:
    """Collects spans and per-op counters; records only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> int:
        return getattr(self._local, "op", -1)

    @contextmanager
    def op(self):
        """Scope one operation: spans opened inside carry its id."""
        op_id = next(self._op_ids)
        previous = self.current_op()
        self._local.op = op_id
        try:
            yield op_id
        finally:
            self._local.op = previous

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                      self.current_op())
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def bind(self, call):
        """``call`` made to run, on another thread, inside this thread's op and span."""
        op, stack = self.current_op(), list(self._stack()[-1:])

        def bound(*args, **kwargs):
            self._local.op, self._local.stack = op, list(stack)
            return call(*args, **kwargs)

        return bound

    def count(self, name: str, value: float = 1.0) -> None:
        # No lock: an op's counters are only touched by the thread running it.
        self.counts[getattr(self._local, "op", -1)][name] += value

    def adopt(self, spans: list[Span], counts: dict[str, float], parent: int) -> None:
        """Graft spans recorded in a worker under span ``parent`` of this tracer."""
        op_id = self.current_op()
        with self._lock:
            offset = len(self.spans)
            for span in spans:
                self.spans.append(Span(span.name, span.start, span.end,
                                       parent if span.parent < 0 else span.parent + offset,
                                       op_id))
            for name, value in counts.items():
                self.counts[op_id][name] += value

    def dump(self, path) -> None:
        payload = {
            "spans": [asdict(span) for span in self.spans],
            "counts": {str(op): dict(values) for op, values in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            start, end = max(child.start, cursor), min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


def layer_totals(spans: list[Span], ops: set[int]) -> dict[str, float]:
    """Total self time in ms per span name over the spans of ``ops``."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span.op in ops:
            totals[span.name] += own * 1e3
    return totals


def inclusive_totals(spans: list[Span], ops: set[int]) -> dict[str, float]:
    """Total duration in ms per span name over the spans of ``ops``."""
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.op in ops:
            totals[span.name] += (span.end - span.start) * 1e3
    return totals


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _spanned(name: str, fn, counter=None):
    # ``counter(args, result)`` yields (counter name, value) pairs to add.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            for key, value in counter(args, result):
                tracer.count(key, value)
        return result

    return wrapper


def _counted(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is not None and tracer.enabled:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _a2_pass(fn):
    # A pass on a sampled graph belongs to the per-sample statistics, not
    # to the input graph's pass that Algorithm 1 pays once per op.
    from repro.stats.kernels import kernel_pass_count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or not tracer.enabled:
            return fn(*args, **kwargs)
        stack = tracer._stack()
        prefix = "stats.sample_a2_pass" if (
            stack and tracer.spans[stack[-1]].name == "stats.sample_stats"
        ) else "stats.a2_pass"
        before = kernel_pass_count()
        with tracer.span(prefix):
            result = fn(*args, **kwargs)
        tracer.count(prefix + "es", kernel_pass_count() - before)
        return result

    return wrapper


def _handle(fn):
    # Each served request is one op; its path and cache outcome are
    # counted on it so the report can split releases from hits.
    @functools.wraps(fn)
    def wrapper(self, verb, path, payload=None):
        tracer = _ACTIVE
        if tracer is None or not tracer.enabled:
            return fn(self, verb, path, payload)
        with tracer.op():
            with tracer.span("serve.handle"):
                response = fn(self, verb, path, payload)
            tracer.count("serve.path " + path)
            tracer.count("serve.cache " + response.headers.get("X-Repro-Cache", "none"))
        return response

    return wrapper


def _watchdog(fn):
    # The serve layer runs each request's work on a watchdog thread; carry
    # the request's op and span over to it.
    @functools.wraps(fn)
    def wrapper(call, timeout, index):
        tracer = _ACTIVE
        if tracer is not None and tracer.enabled:
            call = tracer.bind(call)
        return fn(call, timeout, index)

    return wrapper


def _execute_work(fn):
    # Parent side of a served fit: time the pool round trip and graft the
    # worker's spans under it.
    from repro.serve import registry

    fit_work = registry._fit_work

    @functools.wraps(fn)
    def wrapper(work, kwargs, **options):
        tracer = _ACTIVE
        if tracer is None or not tracer.enabled or work is not fit_work:
            return fn(work, kwargs, **options)
        with tracer.span("runtime.pool") as index:
            model, spans, counts = fn(traced_fit_work, {"fit_kwargs": kwargs}, **options)
            tracer.adopt(spans, counts, index)
        return model

    return wrapper


def traced_fit_work(*, fit_kwargs: dict):
    """Pool-worker side of a traced fit: the registry's fit, plus its spans."""
    from repro.serve import registry

    tracer = Tracer()
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    tracer.enabled = True
    try:
        with tracer.span("serve.fit_work"):
            model = registry._fit_work(**fit_kwargs)
    finally:
        _ACTIVE = previous
    counts: dict[str, float] = defaultdict(float)
    for values in tracer.counts.values():
        for name, value in values.items():
            counts[name] += value
    return model, tracer.spans, dict(counts)


def _patch_points():
    """(owner, attribute, wrapper factory) for every traced boundary."""
    from repro.core.estimator import PrivateKroneckerEstimator
    from repro.kronecker import kronmom, likelihood, sampling
    from repro.kronecker.kronfit import KronFitEstimator
    from repro.privacy import degree_release, stats_release
    from repro.privacy.accountant import PrivacyAccountant
    from repro.serve import accounting, service
    from repro.stats import counts, kernels

    def spanned(name, counter=None):
        return lambda fn: _spanned(name, fn, counter)

    return [
        (PrivateKroneckerEstimator, "fit", spanned("core.private_fit")),
        (stats_release, "release_sorted_degrees", spanned("privacy.degree_release")),
        (degree_release, "isotonic_regression",
         spanned("privacy.isotonic", lambda a, r: [("privacy.isotonic_n", r.size)])),
        (stats_release, "release_triangle_count", spanned("privacy.triangle_release")),
        (PrivacyAccountant, "charge", lambda fn: _counted("privacy.accountant_charges", fn)),
        (kernels, "triangle_pass", _a2_pass),
        (kronmom.KronMomEstimator, "fit_statistics", spanned("kronecker.kronmom")),
        (kronmom, "expected_feature_vector",
         lambda fn: _counted("kronecker.kronmom_objective_evals", fn)),
        (KronFitEstimator, "fit", spanned("kronecker.kronfit")),
        (likelihood.PermutationSampler, "run",
         spanned("native.chain", lambda a, r: [("native.chain_proposals", a[1])])),
        (likelihood.MultiChainSampler, "run",
         spanned("native.chain",
                 lambda a, r: [("native.chain_proposals", a[1] * a[0].n_chains)])),
        (sampling, "sample_skg",
         spanned("kronecker.sample", lambda a, r: [("kronecker.sampled_edges", r.n_edges)])),
        (counts, "matching_statistics", spanned("stats.sample_stats")),
        (service.SynthesisService, "handle", _handle),
        (service, "_sample_work", spanned("serve.sample_work")),
        (service, "execute_work", _execute_work),
        (service, "call_with_timeout", _watchdog),
        (accounting.AccountantRegistry, "charge", spanned("serve.ledger_charge")),
    ]


def install(tracer: Tracer):
    """Wrap every traced boundary (disabled until ``tracer.enabled``).

    Returns a callable that restores the original functions.
    """
    global _ACTIVE
    _ACTIVE = tracer
    originals = []
    for owner, attribute, factory in _patch_points():
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, factory(original))

    def restore() -> None:
        global _ACTIVE
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        _ACTIVE = None

    return restore
