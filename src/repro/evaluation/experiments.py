"""Shared experiment configuration.

:class:`ExperimentConfig` holds the knobs every bench uses, and
:func:`default_config` fills each field from the ``REPRO_*`` environment
variable of the same name in upper case (``seed`` from ``REPRO_SEED``), so a fast default run and a paper-faithful run use
the same code paths.  Every variable — its default, accepted values, and
meaning — is declared once in :mod:`repro.knobs`.  The fields that are
consumed elsewhere (``n_jobs``/``cache_dir`` by :mod:`repro.runtime`,
``kernel_threads`` by the multichain kernel, which reads the environment
itself) are mirrored here so
bench artifacts and Table 1's trials can record and thread them.

CI sets ``REPRO_REALIZATIONS=2`` with ``REPRO_N_JOBS=2`` so one figure
bench exercises the full parallel harness end-to-end in minutes; paper
runs use ``REPRO_REALIZATIONS=100`` with as many jobs as the machine has
cores and a persistent ``REPRO_CACHE_DIR`` so interrupted ensembles
resume instead of restarting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.knobs import default, knob

__all__ = ["ExperimentConfig", "default_config", "FIGURE_DATASETS"]

# Dataset per paper figure, in figure order.
FIGURE_DATASETS = {
    1: "ca-grqc",
    2: "as20",
    3: "ca-hepth",
    4: "synthetic-kronecker",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the benches, one field per ``REPRO_*`` variable.

    Defaults come from the knob table (:mod:`repro.knobs`), so the paper's
    privacy setting ε = 0.2, δ = 0.01 is written down exactly once.
    """

    epsilon: float = default("REPRO_EPSILON")
    delta: float = default("REPRO_DELTA")
    realizations: int = default("REPRO_REALIZATIONS")
    hop_sources: int = default("REPRO_HOP_SOURCES")
    svd_rank: int = default("REPRO_SVD_RANK")
    kronfit_iterations: int = default("REPRO_KRONFIT_ITERATIONS")
    n_starts: int = default("REPRO_N_STARTS")  # best log-likelihood wins
    seed: int = default("REPRO_SEED")  # the PAIS'12 workshop date
    n_jobs: int = default("REPRO_N_JOBS")  # 0 or negative = all cores
    cache_dir: str = ""  # trial-cache directory; empty = caching disabled
    kernel_threads: int = default("REPRO_KERNEL_THREADS")  # 0 = all cores

    @property
    def trial_cache(self) -> str | None:
        """The cache argument for :func:`repro.runtime.run_trials`."""
        return self.cache_dir or None


def default_config() -> ExperimentConfig:
    """The configuration benches run with, after environment overrides."""
    resolved = {
        entry.name: knob(f"REPRO_{entry.name.upper()}")
        for entry in fields(ExperimentConfig)
    }
    # An unset REPRO_CACHE_DIR resolves to None; the field spells it "".
    return ExperimentConfig(
        **{name: value for name, value in resolved.items() if value is not None}
    )
