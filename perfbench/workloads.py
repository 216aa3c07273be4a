"""The four benchmark workloads: inputs from the seed, set-up, ops, checks.

Every input is a function of the workload seed: which graph each op
uses, its noise seed, the SKG graphs of ``release-large``, and the
request seeds of ``serve-release``.  Fit workloads are a closed loop of
one caller; each op builds a fresh :class:`~repro.graphs.graph.Graph`
from the canonical edge arrays, so per-graph work (degrees, the A² pass)
is paid per op, as it is for a user arriving with a new graph.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import measure
from perfbench.trace import Tracer

EPSILON = 0.2
DELTA = 0.01
PAPER_INITIATOR = (0.99, 0.45, 0.25)
PAPER_DATASETS = ("ca-grqc", "as20", "ca-hepth")
KRONFIT_DATASETS = ("ca-grqc", "as20")
LARGE_K = 18
LARGE_GRAPHS = 3
# Table 1's KronFit baseline: one chain at the experiment default budget.
KRONFIT_ITERATIONS = 30

# Stream keys: independent SeedSequence children per kind of input.
_PLAN_KEY = 1
_GRAPH_KEY = 2
_REQUEST_KEY = 3


@dataclass
class Op:
    """One measured operation and what its checks found."""

    kind: str
    ms: float
    ok: bool
    record: list = field(default_factory=list)
    error: str = ""
    window: str = "untraced"  # serve: whether tracing was on for the whole request


# ---------------------------------------------------------------------------
# Inputs from the seed
# ---------------------------------------------------------------------------


def op_plan(seed: int, n_graphs: int, count: int) -> list[tuple[int, int]]:
    """The first ``count`` ops: (graph index, noise seed), round-robin."""
    rng = np.random.default_rng([seed, _PLAN_KEY])
    offset = int(rng.integers(n_graphs))
    seeds = rng.integers(0, 2**62, size=count)
    return [((offset + i) % n_graphs, int(s)) for i, s in enumerate(seeds)]


def request_seeds(seed: int, client: int, count: int) -> list[int]:
    """Distinct noise seeds of one serve client's ``/release`` requests."""
    rng = np.random.default_rng([seed, _REQUEST_KEY, client])
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


def skg_graphs(seed: int, k: int = LARGE_K, count: int = LARGE_GRAPHS):
    """``count`` SKG graphs of order ``k`` from the paper initiator."""
    from repro.kronecker.initiator import Initiator
    from repro.kronecker.sampling import sample_skg

    children = np.random.SeedSequence([seed, _GRAPH_KEY]).spawn(count)
    return [sample_skg(Initiator(*PAPER_INITIATOR), k, seed=c) for c in children]


def graph_digest(graph) -> str:
    """Content hash of a graph's canonical edge arrays."""
    u, v = graph.edge_arrays
    hasher = hashlib.sha256(str(graph.n_nodes).encode())
    hasher.update(u.tobytes())
    hasher.update(v.tobytes())
    return hasher.hexdigest()[:16]


def initiator_ok(initiator) -> bool:
    """The initiator lies in [0, 1]³ with the a ≥ c convention."""
    a, b, c = float(initiator.a), float(initiator.b), float(initiator.c)
    return all(0.0 <= x <= 1.0 for x in (a, b, c)) and a >= c


def theta_error(initiator) -> float:
    """Max-abs distance from the generating (paper) initiator."""
    estimate = (initiator.a, initiator.b, initiator.c)
    return max(abs(float(x) - y) for x, y in zip(estimate, PAPER_INITIATOR))


# ---------------------------------------------------------------------------
# Fit workloads
# ---------------------------------------------------------------------------


def staged_private_fit(graph, epsilon: float, delta: float, seed: int, tracer: Tracer):
    """Algorithm 1 stage by stage, as ``PrivateKroneckerEstimator.fit`` runs it.

    Calls each stage through the module that calls it in the estimator
    (so a traced run sees its span), with the estimator's seed stream and
    paper defaults.  The runner asserts the result is bit-identical to
    the estimator's: otherwise the stage numbers would describe a
    different program.  Returns ``(initiator, accountant)``.
    """
    from repro.graphs.operations import next_power_of_two_exponent
    from repro.kronecker.kronmom import KronMomEstimator
    from repro.privacy import stats_release
    from repro.privacy.accountant import PrivacyAccountant
    from repro.stats.counts import MatchingStatistics
    from repro.utils.rng import as_generator

    with tracer.span("core.private_fit"):
        k = next_power_of_two_exponent(graph.n_nodes)
        rng = as_generator(seed)
        accountant = PrivacyAccountant(epsilon=epsilon, delta=delta)
        epsilon_degrees = 0.5 * epsilon
        epsilon_triangles = epsilon - epsilon_degrees
        degrees = stats_release.release_sorted_degrees(
            graph, epsilon_degrees, constrained_inference=True, seed=rng
        )
        accountant.charge("sorted-degree sequence (Hay et al.)", epsilon_degrees, 0.0)
        triangles = stats_release.release_triangle_count(
            graph, epsilon_triangles, delta, seed=rng
        )
        accountant.charge("triangle count (NRS smooth sensitivity)", epsilon_triangles, delta)
        edges, hairpins, tripins = stats_release.degree_moment_statistics(degrees.degrees)
        statistics = MatchingStatistics(edges, hairpins, tripins, triangles.value)
        floor = max(1.0, triangles.noise_scale)
        if statistics.triangles < floor:
            statistics = statistics._replace(triangles=floor)
        result = KronMomEstimator().fit_statistics(statistics, k)
    return result.initiator, accountant


class FitWorkload:
    """A closed loop of one caller fitting fresh copies of a few graphs."""

    name = ""
    primary = "fit"
    digest_ops = 6  # every run completes at least these ops (the digest prefix)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs: list = []

    # -- set-up ------------------------------------------------------------

    def build_inputs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.graphs = self.build_inputs()

    def input_digests(self) -> list[str]:
        return [graph_digest(graph) for graph in self.graphs]

    def close(self) -> None:
        self.graphs = []

    # -- one op --------------------------------------------------------------

    def fresh_graph(self, index: int):
        from repro.graphs.graph import Graph

        base = self.graphs[index]
        u, v = base.edge_arrays
        return Graph.from_edge_arrays(base.n_nodes, u, v)

    def fit(self, graph, op_seed: int):
        """The untraced op; returns (record, error, observation).

        ``record`` is the op's exact output, for digests and the traced
        comparison; ``error`` says which output check failed ("" when
        none did); ``observation`` is the one number :meth:`extras`
        summarises.
        """
        raise NotImplementedError

    def traced_fit(self, graph, op_seed: int, tracer: Tracer):
        """The traced op on the same inputs; returns a comparable record."""
        raise NotImplementedError

    def extras(self, observations: list[float]) -> dict:
        return {}

    # -- the measured loop -----------------------------------------------------

    def warm_up(self) -> None:
        self.fit(self.fresh_graph(0), op_seed=0)

    def run(self, seconds: float, tracer: Tracer | None) -> dict:
        """Closed loop for ``seconds`` (and at least ``digest_ops`` ops).

        Untraced: one fit per op.  Traced: each op runs untraced, then
        traced on a second fresh copy, so the overhead is a paired
        difference and the traced result is checked against the untraced
        one bit for bit.
        """
        ops: list[Op] = []
        traced_ms: list[float] = []
        paired_ms: list[tuple[float, float]] = []  # (untraced, traced) per op
        observations: list[float] = []
        build_ms = 0.0
        plan_size = self.digest_ops
        plan = op_plan(self.seed, len(self.graphs), plan_size)
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while i < self.digest_ops or time.perf_counter() < deadline:
            if i == len(plan):
                plan_size *= 2
                plan = op_plan(self.seed, len(self.graphs), plan_size)
            index, op_seed = plan[i]
            i += 1
            # A Graph and its StatsContext reference each other, so the
            # previous op's graph is freed by the cycle collector; collect
            # here, untimed, so peak memory does not depend on when the
            # collector happens to run.
            gc.collect()
            t0 = time.perf_counter()
            graph = self.fresh_graph(index)
            t1 = time.perf_counter()
            build_ms += (t1 - t0) * 1e3
            try:
                record, error, observation = self.fit(graph, op_seed)
            except Exception as exc:  # a failed op is counted, not fatal
                ops.append(Op(self.primary, (time.perf_counter() - t1) * 1e3, False,
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            ms = (time.perf_counter() - t1) * 1e3
            op = Op(self.primary, ms, not error, [index, op_seed] + record, error)
            observations.append(observation)
            if tracer is not None:
                try:
                    traced_record, traced = self._traced_op(index, op_seed, tracer)
                except Exception as exc:
                    op.ok, op.error = False, f"traced op: {type(exc).__name__}: {exc}"
                else:
                    traced_ms.append(traced)
                    paired_ms.append((ms, traced))
                    if traced_record != record:
                        op.ok = False
                        op.error = "traced stage decomposition differs from the untraced fit"
            ops.append(op)
        wall = time.perf_counter() - start
        report = {"graph_build_ms_per_op": build_ms / max(len(ops), 1)}
        # Round-robin rounds (one op per input graph): their mean op time
        # is a unimodal sample even when the graphs' costs differ.
        n = len(self.graphs)
        round_ms = [sum(op.ms for op in ops[r:r + n]) / n
                    for r in range(0, len(ops) - n + 1, n)]
        report.update(self.extras(observations))
        return {"ops": ops, "wall_s": wall, "traced_ms": traced_ms, "paired_ms": paired_ms,
                "round_ms": round_ms, "report": report}

    def _traced_op(self, index: int, op_seed: int, tracer: Tracer) -> tuple[list, float]:
        """One traced op on a fresh copy: (record, fit time in ms)."""
        gc.collect()  # as before the untraced op, so the pair differs only by tracing
        with tracer.op():
            tracer.enabled = True
            try:
                with tracer.span("graphs.build"):
                    graph = self.fresh_graph(index)
                start = time.perf_counter()
                record = self.traced_fit(graph, op_seed, tracer)
                return record, (time.perf_counter() - start) * 1e3
            finally:
                tracer.enabled = False


class ReleaseWorkload(FitWorkload):
    """Algorithm 1 (ε=0.2, δ=0.01, paper defaults) on fresh graph copies."""

    def fit(self, graph, op_seed):
        from repro.core.estimator import PrivateKroneckerEstimator

        estimate = PrivateKroneckerEstimator(EPSILON, DELTA, seed=op_seed).fit(graph)
        spent = estimate.release.accountant.spent
        record = measure.initiator_record(estimate.initiator) + [list(map(repr, spent))]
        error = ""
        if spent != (EPSILON, DELTA):
            error = f"privacy spend {spent} is not exactly ({EPSILON}, {DELTA})"
        elif not initiator_ok(estimate.initiator):
            error = f"initiator out of range: {estimate.initiator}"
        return record, error, theta_error(estimate.initiator)

    def traced_fit(self, graph, op_seed, tracer):
        initiator, accountant = staged_private_fit(graph, EPSILON, DELTA, op_seed, tracer)
        return measure.initiator_record(initiator) + [list(map(repr, accountant.spent))]


class ReleasePaper(ReleaseWorkload):
    name = "release-paper"

    def build_inputs(self):
        from repro.graphs.datasets import dataset_info, load_dataset

        return [load_dataset(name, seed=dataset_info(name).default_seed)
                for name in PAPER_DATASETS]


class ReleaseLarge(ReleaseWorkload):
    name = "release-large"

    def build_inputs(self):
        return skg_graphs(self.seed)

    def extras(self, errors):
        return {
            "theta_err": measure.median(errors[: self.digest_ops]),
            "theta_err_all": measure.median(errors),
            "theta_err_n": len(errors),
        }


class KronFitPaper(FitWorkload):
    name = "kronfit-paper"
    digest_ops = 4

    def build_inputs(self):
        from repro.graphs.datasets import dataset_info, load_dataset

        return [load_dataset(name, seed=dataset_info(name).default_seed)
                for name in KRONFIT_DATASETS]

    def fit(self, graph, op_seed):
        from repro.kronecker.kronfit import KronFitEstimator

        result = KronFitEstimator(n_iterations=KRONFIT_ITERATIONS, seed=op_seed).fit(graph)
        error = "" if initiator_ok(result.initiator) else (
            f"initiator out of range: {result.initiator}")
        return self._record(result), error, result.acceptance_rate

    def traced_fit(self, graph, op_seed, tracer):
        record, _error, acceptance_rate = self.fit(graph, op_seed)
        tracer.count("kronecker.acceptance_rate", acceptance_rate)
        return record

    @staticmethod
    def _record(result) -> list:
        return measure.initiator_record(result.initiator) + [
            repr(result.acceptance_rate), measure.digest(list(map(repr, result.log_likelihoods)))
        ]

    def extras(self, rates):
        return {"acceptance_rate": measure.median(rates)}
