"""repro.native — shared native-kernel layer (compiled-C backends).

Hot loops in the reproduction run behind interchangeable execution
engines selected by one knob, ``REPRO_KERNEL_BACKEND``:

* the **counting kernel** (:mod:`repro.native.counting`) — the fused
  masked A² pass behind :func:`repro.stats.kernels.triangle_pass`;
* the **chain kernel** (:mod:`repro.native.chain`) — a run's whole
  Metropolis proposal streams for a range of S independent chains per
  native call, then KronFit's gradient step for each, with the chains
  cut into ``REPRO_KERNEL_THREADS`` ranges, one Python thread each.  Its one caller,
  :class:`repro.kronecker.likelihood.MultiChainSampler`, owns all chain
  state and the numpy reference; every KronFit fit runs through it, and
  a :class:`repro.kronecker.likelihood.PermutationSampler` is a view of
  one of its chains;
* the **sampler kernel** (:mod:`repro.native.sampling`) — exact O(E)
  grass-hopping SKG generation;
* the **isotonic kernel** (:mod:`repro.native.isotonic`) — the
  pool-adjacent-violators pass behind
  :func:`repro.privacy.isotonic.isotonic_regression`;
* the **KronMom kernel** (:mod:`repro.native.kronmom`) — every
  Nelder–Mead restart of KronMom's refinement stage, stepped in lockstep
  with numpy supplying the cubes.

Each kernel is a C function compiled on first use via the system
compiler, next to a pure-Python reference engine that lives with its
caller.  Each is registered as a :class:`~repro.native.registry.NativeKernel`
(``COUNTING_KERNEL``, ``MULTICHAIN_KERNEL``, ``SAMPLER_KERNEL``,
``ISOTONIC_KERNEL``, ``KRONMOM_KERNEL``), which
owns the shared machinery: lazy availability probes with memoized failure
reasons, compile-once shared-library caching, smoke tests at probe time,
and the common ``auto``/loud-failure resolution contract.  Both engines
of a kernel are bit-identical; the knob only selects speed.
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
    NATIVE_BACKENDS,
    NativeKernel,
    compile_shared_library,
    resolve_kernel_threads,
)

__all__ = [
    "NATIVE_BACKENDS",
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
