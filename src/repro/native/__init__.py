"""repro.native — shared native-kernel layer (numba + compiled-C backends).

Hot loops in the reproduction run behind interchangeable execution
engines selected by one knob, ``REPRO_KERNEL_BACKEND``:

* the **counting kernel** (:mod:`repro.native.counting`) — the fused
  masked A² pass behind :func:`repro.stats.kernels.triangle_pass`;
* the **chain kernel** (:mod:`repro.native.chain`) — batched Metropolis
  proposals for S independent chains per native call, sharded across
  threads via the ``REPRO_KERNEL_THREADS`` knob.  Every KronFit fit runs
  it (:class:`repro.kronecker.likelihood.MultiChainSampler`); a solo
  :class:`repro.kronecker.likelihood.PermutationSampler` runs it at S=1;
* the **sampler kernel** (:mod:`repro.native.sampling`) — exact O(E)
  grass-hopping SKG generation.

Each kernel is written twice — a numba-jittable Python loop nest and an
identical C function compiled on first use via the system compiler — and
registered with the shared machinery in :mod:`repro.native.registry`:
lazy availability probes with memoized failure reasons, compile-once
shared-library caching, smoke tests at probe time, and the common
``auto``/loud-failure resolution contract.  Every engine of a kernel is
bit-identical to its pure-Python reference; the knob only selects speed.
"""

from repro.native.chain import (
    MULTICHAIN_KERNEL,
    available_multichain_backends,
    draw_proposal_batch,
    multichain_backend_available,
    multichain_backend_error,
    multichain_block,
    multichain_kernel,
    resolve_chain_backend,
    resolve_multichain_backend,
)
from repro.native.counting import (
    COUNTING_KERNEL,
    FUSED_BACKENDS,
    backend_available,
    backend_error,
    backend_kernel,
    fused_block,
)
from repro.native.registry import (
    KERNEL_BACKEND_ENV,
    KERNEL_THREADS_ENV,
    NATIVE_BACKENDS,
    OPENMP_ENV,
    NativeKernel,
    available_backends,
    auto_backend,
    compile_shared_library,
    resolve_backend,
    resolve_kernel_threads,
)

__all__ = [
    "NATIVE_BACKENDS",
    "KERNEL_BACKEND_ENV",
    "KERNEL_THREADS_ENV",
    "OPENMP_ENV",
    "NativeKernel",
    "compile_shared_library",
    "resolve_backend",
    "auto_backend",
    "available_backends",
    "resolve_kernel_threads",
    "COUNTING_KERNEL",
    "FUSED_BACKENDS",
    "backend_available",
    "backend_error",
    "backend_kernel",
    "fused_block",
    "draw_proposal_batch",
    "resolve_chain_backend",
    "MULTICHAIN_KERNEL",
    "multichain_block",
    "multichain_backend_available",
    "multichain_backend_error",
    "multichain_kernel",
    "resolve_multichain_backend",
    "available_multichain_backends",
]
