"""KronFit: the Leskovec–Faloutsos approximate MLE baseline.

This is the "KronFit" column of the paper's Table 1: gradient ascent on
the SKG log-likelihood, with the intractable sum over node correspondences
σ replaced by Metropolis sampling (see :mod:`repro.kronecker.likelihood`).

The public interface mirrors the other estimators: construct with
hyper-parameters, call :meth:`fit` with a graph, receive a
:class:`KronFitResult` carrying the fitted :class:`Initiator` and
convergence diagnostics.

**Multi-start fitting.**  The Metropolis chain mixes from its initial
correspondence, so a single run can settle on a local mode.  With
``n_starts=S > 1`` the estimator runs S independent chains — start 0 from
the degree-matched σ every single-start fit uses, starts 1..S−1 from
deterministic perturbations of it — and keeps the fit with the best final
log-likelihood (ties broken by the lowest start index, so the winner is
deterministic).

Every fit, single- or multi-start, runs one code path: all S chains
advance in lockstep inside one
:class:`~repro.kronecker.likelihood.MultiChainSampler` — per gradient
iteration one stacked table build, one native call that draws every
proposal, and one per chain range that runs the warm-up and all
permutation samples and then scores them and takes the Θ step, a range
per ``kernel_threads`` / ``REPRO_KERNEL_THREADS`` thread — in the
calling process.  A single-start
fit is the S=1 case and draws straight from ``as_generator(seed)``;
multi-start fits give each start its own ``SeedSequence`` child of the
estimator seed.  Results are bit-identical for any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import EstimationError
from repro.graphs.graph import Graph
from repro.graphs.operations import pad_to_power_of_two
from repro.knobs import knob
from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.likelihood import (
    _STEP_HIGH,
    _STEP_LOW,
    MultiChainSampler,
    degree_matched_initial_sigma,
)
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "KronFitEstimator",
    "KronFitResult",
    "perturbed_initial_sigma",
    "select_best_start",
]

_logger = get_logger(__name__)

# Entropy word of the deterministic per-start σ perturbation streams.
# Fixed forever: changing it changes every multi-start trajectory.
_START_SIGMA_KEY = 0x5163_F17  # "SIG FIT"


@dataclass(frozen=True)
class KronFitResult:
    """Outcome of a KronFit run.

    Attributes
    ----------
    initiator:
        The fitted initiator, canonicalized to a >= c.
    k:
        Kronecker order used (graph padded to 2^k nodes).
    log_likelihoods:
        Approximate log-likelihood after each gradient iteration.
    acceptance_rate:
        Fraction of accepted Metropolis proposals over the whole run.
    trajectory:
        Parameter triple after each gradient iteration.
    n_starts:
        How many independent chains competed for this result.
    start:
        Index of the winning start (0 = the degree-matched σ).
    start_log_likelihoods:
        Final log-likelihood of every start, in start order (empty for
        single-start fits).
    """

    initiator: Initiator
    k: int
    log_likelihoods: tuple[float, ...]
    acceptance_rate: float
    trajectory: tuple[tuple[float, float, float], ...] = field(repr=False)
    n_starts: int = 1
    start: int = 0
    start_log_likelihoods: tuple[float, ...] = ()


class KronFitEstimator:
    """Approximate-MLE estimation of a 2×2 symmetric SKG initiator.

    Parameters
    ----------
    n_iterations:
        Gradient-ascent iterations.
    warmup_swaps:
        Metropolis proposals before the first permutation sample of each
        iteration (re-mixing after each Θ update).
    n_permutation_samples:
        Permutations averaged per gradient estimate.
    sample_spacing:
        Proposals between consecutive permutation samples.
    learning_rate:
        Initial step size for the sup-norm-normalised gradient step; decays
        harmonically.  Normalising by the gradient's sup-norm makes the
        step size meaningful across graph scales (raw SKG gradients grow
        with |E|·k).
    initial:
        Starting initiator (defaults to the paper's generic seed point).
    n_starts:
        Independent Metropolis chains per fit; the best final
        log-likelihood wins (deterministic tie-break by start index).
        ``1`` (the default) is bit-identical to the historical
        single-chain fit.
    kernel_threads:
        Python threads the chains are sharded across (default: the
        ``REPRO_KERNEL_THREADS`` knob, else 1; 0 or less means all usable
        cores; never more than ``n_starts``).  Purely a throughput knob —
        results are bit-identical for any value.

    Examples
    --------
    >>> from repro.kronecker import Initiator
    >>> graph = Initiator(0.9, 0.5, 0.2).sample(8, seed=1)
    >>> fit = KronFitEstimator(n_iterations=10, seed=0).fit(graph)
    >>> 0 <= fit.initiator.c <= fit.initiator.a <= 1
    True
    """

    # The chains' sampler; the oracle's subclass runs them in numpy.
    _sampler = MultiChainSampler

    def __init__(
        self,
        *,
        n_iterations: int = 40,
        warmup_swaps: int = 2000,
        n_permutation_samples: int = 4,
        sample_spacing: int = 200,
        learning_rate: float = 0.08,
        initial: Initiator | tuple[float, float, float] = (0.9, 0.6, 0.2),
        seed: SeedLike = None,
        n_starts: int = 1,
        kernel_threads: int | None = None,
    ) -> None:
        self.n_iterations = check_integer(n_iterations, "n_iterations", minimum=1)
        self.warmup_swaps = check_integer(warmup_swaps, "warmup_swaps", minimum=0)
        self.n_permutation_samples = check_integer(
            n_permutation_samples, "n_permutation_samples", minimum=1
        )
        self.sample_spacing = check_integer(sample_spacing, "sample_spacing", minimum=1)
        self.learning_rate = check_positive(learning_rate, "learning_rate")
        self.initial = as_initiator(initial)
        self.seed = seed
        self.n_starts = check_integer(n_starts, "n_starts", minimum=1)
        self.kernel_threads = (
            None if kernel_threads is None else knob("REPRO_KERNEL_THREADS", kernel_threads)
        )

    def fit(self, graph: Graph) -> KronFitResult:
        """Fit the initiator to ``graph`` (padded to 2^k nodes internally).

        A single-start fit runs its chain on ``as_generator(seed)``
        directly (a Generator seed is advanced in place).  Multi-start
        fits spawn one ``SeedSequence`` child per start from the seed —
        a Generator contributes exactly one ``integers`` draw — the
        derivation the trial engine applies to per-trial seeds.
        """
        if graph.n_edges == 0:
            raise EstimationError("cannot fit KronFit to a graph with no edges")
        padded, k = pad_to_power_of_two(graph)
        if self.n_starts == 1:
            return self._fit_chains_batched(padded, k, [as_generator(self.seed)])[0]
        seed = self.seed
        if isinstance(seed, np.random.Generator):
            seed = int(seed.integers(0, 2**63 - 1))
        root = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        results = self._fit_chains_batched(padded, k, root.spawn(self.n_starts))
        winner = select_best_start(results)
        result = results[winner]
        _logger.debug(
            "kronfit multi-start: start %d of %d wins with loglik=%.2f",
            winner,
            self.n_starts,
            result.log_likelihoods[-1],
        )
        return replace(
            result,
            n_starts=self.n_starts,
            start=winner,
            start_log_likelihoods=tuple(
                r.log_likelihoods[-1] for r in results
            ),
        )

    def _fit_chains_batched(
        self, graph: Graph, k: int, seeds
    ) -> list[KronFitResult]:
        """Gradient ascent over S Metropolis chains advancing in lockstep.

        ``graph`` is padded to ``2^k`` nodes; chain ``s`` starts from
        :func:`perturbed_initial_sigma` of start ``s`` (every start perturbs
        one degree-matched σ, built once) and draws from
        ``default_rng(seeds[s])`` (a Generator passes through unchanged).
        Each iteration is one stacked table build and one
        :meth:`MultiChainSampler.run` with the iteration's step size: the
        warm-up, every permutation sample and the gradient step, which
        returns each chain's mean log-likelihood and new Θ.  The
        Metropolis kernel is exact by the multichain contracts, each
        chain's step reads only its own rows, and the samples are
        accumulated in sample order, so chain ``s`` is bit-identical to a
        solo fit of start ``s``.
        """
        n_chains = len(seeds)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        theta0 = _clip(self.initial)
        matched = degree_matched_initial_sigma(graph, k)
        sigmas = [
            perturbed_initial_sigma(graph, k, start, matched) for start in range(n_chains)
        ]
        sampler = self._sampler(
            graph,
            k,
            [theta0] * n_chains,
            sigmas=sigmas,
            threads=self.kernel_threads,
        )
        thetas = [theta0] * n_chains
        log_likelihoods: list[list[float]] = [[] for _ in range(n_chains)]
        trajectories: list[list[tuple[float, float, float]]] = [
            [] for _ in range(n_chains)
        ]
        n_samples = self.n_permutation_samples
        n_steps = self.warmup_swaps + n_samples * self.sample_spacing
        for iteration in range(self.n_iterations):
            # Θ is fixed within an iteration: one stacked table build feeds
            # the score rows, every sample's likelihood and the step.
            sampler.set_thetas(thetas)
            values, rows = sampler.run(
                n_steps,
                rngs,
                n_samples=n_samples,
                sample_spacing=self.sample_spacing,
                step_scale=self.learning_rate / (1.0 + iteration / 10.0),
            )
            thetas = [Initiator(*row) for row in rows.tolist()]
            for s, value in enumerate(values.tolist()):
                log_likelihoods[s].append(value)
                trajectories[s].append((thetas[s].a, thetas[s].b, thetas[s].c))
                _logger.debug(
                    "kronfit iter %d (chain %d): loglik=%.2f theta=(%.4f, %.4f, %.4f)",
                    iteration,
                    s,
                    value,
                    thetas[s].a,
                    thetas[s].b,
                    thetas[s].c,
                )
        results = []
        for s in range(n_chains):
            acceptance = sampler.accepted[s] / max(sampler.proposed, 1)
            results.append(
                KronFitResult(
                    initiator=thetas[s].canonical(),
                    k=k,
                    log_likelihoods=tuple(log_likelihoods[s]),
                    acceptance_rate=float(acceptance),
                    trajectory=tuple(trajectories[s]),
                )
            )
        return results


def perturbed_initial_sigma(
    graph: Graph, k: int, start: int, matched: np.ndarray | None = None
) -> np.ndarray:
    """Initial correspondence of multi-start chain ``start``.

    Start 0 is the degree-matched σ every single-start fit uses; start
    ``s > 0`` reshuffles the assignments of a quarter of the nodes with a
    dedicated deterministic stream keyed by ``s`` alone — independent of
    worker count, pool mode, and the chain's own RNG — so every thread
    count and schedule sees the same S starting points.  ``matched`` is
    that degree-matched σ when the caller has built it (it is copied,
    not changed), so a fit of S starts ranks the degrees once.
    """
    sigma = degree_matched_initial_sigma(graph, k) if matched is None else matched.copy()
    start = check_integer(start, "start", minimum=0)
    if start == 0 or graph.n_nodes < 2:
        return sigma
    rng = np.random.default_rng(np.random.SeedSequence([_START_SIGMA_KEY, start]))
    n = graph.n_nodes
    shuffled = rng.choice(n, size=max(2, n // 4), replace=False)
    sigma[shuffled] = sigma[shuffled[rng.permutation(shuffled.size)]]
    return sigma


def select_best_start(results: list[KronFitResult]) -> int:
    """Index of the winning start: best final log-likelihood.

    Strict improvement is required to displace an earlier start, so ties
    (including NaN-free exact equality from converged duplicate chains)
    deterministically resolve to the lowest start index.
    """
    if not results:
        raise EstimationError("multi-start selection needs at least one result")
    best = 0
    best_value = results[0].log_likelihoods[-1]
    for index, result in enumerate(results[1:], start=1):
        value = result.log_likelihoods[-1]
        if value > best_value:
            best = index
            best_value = value
    return best


def _clip(theta: Initiator) -> Initiator:
    return Initiator(
        float(np.clip(theta.a, _STEP_LOW, _STEP_HIGH)),
        float(np.clip(theta.b, _STEP_LOW, _STEP_HIGH)),
        float(np.clip(theta.c, _STEP_LOW, _STEP_HIGH)),
    )
