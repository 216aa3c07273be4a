"""repro.native — the compiled-C kernels every pipeline stage runs on.

Each hot loop has exactly one runtime engine, a C function compiled on
first use with the system compiler and registered as a
:class:`~repro.native.registry.NativeKernel`: ``COUNTING_KERNEL`` (the
fused A² pass behind :func:`repro.stats.kernels.triangle_pass`),
``MULTICHAIN_KERNEL`` (KronFit's Metropolis chains and gradient step,
driven by :class:`repro.kronecker.likelihood.MultiChainSampler`),
``SAMPLER_KERNEL`` (exact O(E) grass-hopping SKG generation),
``ISOTONIC_KERNEL`` (the PAVA pass of the degree release) and
``KRONMOM_KERNEL`` (KronMom's Nelder–Mead refinement).  The registry
caches each compiled library, smoke-tests it at first use and raises
:class:`~repro.errors.KernelUnavailableError` when either fails.  Each
kernel is bit-identical to its pure-Python oracle in
:mod:`repro.reference`, which only the equivalence suites and the
benches import.
"""

from repro.native.chain import (
    MULTICHAIN_KERNEL,
    draw_proposal_batch,
    resolve_chain_backend,
    resolve_multichain_backend,
)
from repro.native.counting import COUNTING_KERNEL
from repro.native.isotonic import ISOTONIC_KERNEL
from repro.native.kronmom import KRONMOM_KERNEL
from repro.native.registry import (
    NativeKernel,
    compile_shared_library,
    resolve_kernel_threads,
)

__all__ = [
    "NativeKernel",
    "compile_shared_library",
    "resolve_kernel_threads",
    "COUNTING_KERNEL",
    "ISOTONIC_KERNEL",
    "KRONMOM_KERNEL",
    "draw_proposal_batch",
    "resolve_chain_backend",
    "MULTICHAIN_KERNEL",
    "resolve_multichain_backend",
]
