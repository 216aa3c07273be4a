"""The native-kernel registry: compile-cache, smoke test, loud failure.

Each of the five kernel families (the A² counting pass, the KronFit
chain, the grass-hopping sampler, the PAVA pass, KronMom's refinement)
runs as a C loop nest compiled on first use and called through
:mod:`ctypes`; its pure-Python twin is an oracle in
:mod:`repro.reference`, which no runtime module imports.

* :class:`NativeKernel` — one family: its C source, and
  :meth:`NativeKernel.kernel`, which compiles or loads it and runs its
  smoke test once per process.  A failure raises
  :class:`~repro.errors.KernelUnavailableError` naming the reason, then
  and on every later call: nothing falls back to a slower engine.
* :func:`compile_shared_library` — compile a C source into a per-user
  cached ``.so`` (keyed by a hash of source + flags; concurrent probes
  build to private scratch files and install with atomic renames).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import weakref
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.errors import KernelUnavailableError
from repro.knobs import knob, usable_cores

__all__ = [
    "NativeKernel",
    "buffer_addresses",
    "compile_shared_library",
    "resolve_kernel_threads",
    "shard_bounds",
]

# Compile flags for every kernel.  -ffp-contract=off forbids the
# compiler from fusing a*b+c into an FMA: the chain kernel accumulates
# float64 scores and must round exactly like its numpy oracle on every
# host (the counting kernel is pure integer, where the flag is inert).
# The flags participate in the cache key, so changing them recompiles.
_C_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")

@functools.lru_cache(maxsize=None)
def _host_cpu() -> tuple[str, int, frozenset[str]]:
    """``(vendor, family, flags)`` of this host's first CPU, read once.

    Empty on non-x86 hosts and where ``/proc/cpuinfo`` is unreadable, so
    every ISA flag gated on it is dropped there.
    """
    if platform.machine() not in ("x86_64", "AMD64", "amd64"):
        return "", 0, frozenset()
    fields: dict[str, str] = {}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    break  # the first processor's block is enough
                name, _, value = line.partition(":")
                fields[name.strip()] = value.strip()
    except OSError:
        return "", 0, frozenset()
    try:
        family = int(fields.get("cpu family", "0"))
    except ValueError:
        family = 0
    return fields.get("vendor_id", ""), family, frozenset(fields.get("flags", "").split())


def _host_runs(flag: str) -> bool:
    """Whether the optional ISA flag ``-mpopcnt`` / ``-mbmi2`` pays off here.

    Either is only ever *offered*: on a CPU without the instruction the
    compile would succeed but the kernel would die with SIGILL at run
    time, so the gate is the build host's own CPU flags — the compile
    cache is keyed by the chosen flags, so heterogeneous hosts sharing a
    cache directory build separate libraries.  BMI2 is also refused on
    AMD before Zen 3 (family 19h), where ``pdep`` is microcoded and
    slower than the portable loop it replaces.
    """
    vendor, family, flags = _host_cpu()
    if flag == "-mpopcnt":
        return "popcnt" in flags
    if flag == "-mbmi2":
        return "bmi2" in flags and not (vendor == "AuthenticAMD" and family < 0x19)
    return True


def _enabled_optional_flags(flags: Sequence[str]) -> tuple[str, ...]:
    """The optional compile flags this host runs well (:func:`_host_runs`);
    the compile fallback in :meth:`NativeKernel._probe` guards the rest."""
    return tuple(flag for flag in flags if _host_runs(flag))


def resolve_kernel_threads(threads: int | None = None) -> int:
    """How many threads (chain ranges) a multichain run is cut into.

    Resolution order: explicit argument, then ``REPRO_KERNEL_THREADS``,
    then 1 (serial — the bit-identity contracts make threading purely a
    throughput knob, so the conservative default never oversubscribes a
    pool worker).  A value of 0 (or any negative value) means "all usable
    cores" (:func:`repro.knobs.usable_cores`).  Threads never change
    results: chains are data-independent, so the count only shards them.
    """
    threads = knob("REPRO_KERNEL_THREADS", threads)
    return usable_cores() if threads <= 0 else threads


def shard_bounds(count: int, shards: int) -> list[tuple[int, int]]:
    """``range(count)`` cut into ``min(shards, count)`` contiguous ``[b, e)``
    runs, in order: run ``r`` starts at ``count·r // shards``, so sizes
    differ by at most one (one empty run when ``count`` is 0)."""
    shards = max(1, min(shards, count))
    return [(count * r // shards, count * (r + 1) // shards) for r in range(shards)]


def buffer_addresses(dtype, *arrays: np.ndarray) -> list[int]:
    """The data addresses of ``arrays``, for ``c_void_p`` kernel arguments.

    Checks once what an ``ndpointer`` argtype checks on every call (~5 µs
    an array): that each is a C-contiguous ``dtype`` array.  A caller that
    binds the addresses must keep the arrays alive and never replace one.
    """
    for array in arrays:
        if not (isinstance(array, np.ndarray) and array.dtype == dtype
                and array.flags.c_contiguous):
            raise TypeError(f"kernel buffers must be C-contiguous {np.dtype(dtype)} arrays")
    return [array.ctypes.data for array in arrays]


# Every kernel, so a forked child can replace probe locks that another
# parent thread held at the fork (the child would otherwise wait forever).
_KERNELS: "weakref.WeakSet[NativeKernel]" = weakref.WeakSet()


def _fresh_probe_locks() -> None:
    for kernel in _KERNELS:
        kernel._probe_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_probe_locks)


class NativeKernel:
    """One kernel family: a C loop nest, compiled and checked on first use.

    Parameters
    ----------
    name:
        Kernel identifier ("counting", "multichain", "sampler",
        "isotonic", "kronmom"); names the cached ``.so``.
    c_source / c_symbol:
        The loop nest as a C translation unit and the one function it
        exports; a family whose callers need several modes selects them
        by call arguments, not by further symbols.
    c_restype / c_argtypes:
        The ctypes signature of ``c_symbol``.
    smoke_test:
        Callable run against the loaded kernel on a hand-checked
        instance; raising makes the kernel unavailable instead of
        corrupting results later.
    c_optional_flags:
        Extra compile flags that speed the kernel up but are not required
        for correctness (``-mpopcnt``, ``-mbmi2``).  Each is
        dropped up-front when the host can't honour it, and the whole set
        falls back to the base flags if the compile still fails; the flags
        that did take effect are recorded in :attr:`cext_extra_flags`.
    """

    def __init__(
        self,
        name: str,
        c_source: str,
        c_symbol: str,
        c_restype,
        c_argtypes: Sequence,
        smoke_test: Callable[[Callable], None],
        c_optional_flags: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.c_source = c_source
        self.c_symbol = c_symbol
        self.c_restype = c_restype
        self.c_argtypes = list(c_argtypes)
        self.smoke_test = smoke_test
        self.c_optional_flags = tuple(c_optional_flags)
        # The optional flags the probe compiled with (None until it ran).
        self.cext_extra_flags: tuple[str, ...] | None = None
        # The memoized probe: (kernel, None) or (None, reason).
        self.state: tuple[Callable | None, str | None] | None = None
        # Serializes first probes: threads racing to a cold kernel must
        # compile, smoke-test and record it once.
        self._probe_lock = threading.Lock()
        _KERNELS.add(self)

    def kernel(self) -> Callable:
        """The compiled, smoke-tested kernel, probed once per process; else
        :class:`~repro.errors.KernelUnavailableError` naming the reason."""
        if self.state is None:
            with self._probe_lock:
                if self.state is None:
                    try:
                        self.state = (self._probe(), None)
                    except Exception as error:  # remember why, raise below
                        self.state = (None, str(error))
        kernel, error = self.state
        if kernel is None:
            raise KernelUnavailableError(f"the {self.name} kernel is unavailable: {error}")
        return kernel

    # -- internals --------------------------------------------------------

    def _probe(self) -> Callable:
        """Compile the kernel into a cached shared library, load and check it.

        Optional flags are tried first and dropped wholesale if the
        compile fails — a compiler that rejects one still builds the
        kernel from the base flags, with bit-identical results.
        """
        extra_flags = _enabled_optional_flags(self.c_optional_flags)
        try:
            library = compile_shared_library(
                self.c_source, self.name, extra_flags=extra_flags
            )
        except RuntimeError:
            if not extra_flags:
                raise
            extra_flags = ()
            library = compile_shared_library(self.c_source, self.name)
        self.cext_extra_flags = extra_flags
        handle = ctypes.CDLL(str(library))
        raw = getattr(handle, self.c_symbol)
        raw.restype = self.c_restype
        raw.argtypes = self.c_argtypes

        def kernel(*args):
            return raw(*args)

        self.smoke_test(kernel)
        return kernel


def compile_shared_library(
    c_source: str, tag: str, extra_flags: Sequence[str] = ()
) -> Path:
    """Compile (once per source revision) and return the library path.

    The library is keyed by a hash of the C source and the compile flags
    (base and extra) in a per-user cache directory; concurrent processes
    may race to build it, so each builds to a private temporary file and
    installs it with an atomic rename.
    """
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise RuntimeError("no C compiler found (install cc/gcc or set CC)")
    flags = (*_C_FLAGS, *extra_flags)
    fingerprint = c_source + "\x00" + " ".join(flags)
    digest = hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    cache_dir = Path(cache_root) / "repro-kernels"
    library = cache_dir / f"{tag}-{digest}.so"
    if library.exists():
        return library
    cache_dir.mkdir(parents=True, exist_ok=True)
    # Both the source and the library are built under private temporary
    # names and installed with atomic renames: concurrent first-time
    # probes (e.g. pool workers on a fresh host) must never compile from
    # — or dlopen — another process's half-written file.
    source = cache_dir / f"{tag}-{digest}.c"
    source_fd, source_scratch = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    with os.fdopen(source_fd, "w", encoding="utf-8") as handle:
        handle.write(c_source)
    library_fd, library_scratch = tempfile.mkstemp(suffix=".so", dir=cache_dir)
    os.close(library_fd)
    try:
        completed = subprocess.run(
            [compiler, *flags, "-o", library_scratch, source_scratch],
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"C kernel compilation failed ({compiler}): "
                f"{completed.stderr.strip() or completed.stdout.strip()}"
            )
        os.replace(source_scratch, source)  # keep the source for debugging
        os.replace(library_scratch, library)
    finally:
        for scratch in (source_scratch, library_scratch):
            if os.path.exists(scratch):
                os.unlink(scratch)
    return library
