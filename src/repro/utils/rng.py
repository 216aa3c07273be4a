"""Random-number-generator policy.

All randomness in the library flows through :class:`numpy.random.Generator`
objects.  Public functions accept a ``seed`` argument that may be ``None``
(fresh OS entropy), an integer, a :class:`numpy.random.SeedSequence`, or an
existing ``Generator``; :func:`as_generator` normalises all of these.

Privacy note: the Laplace noise used by the DP mechanisms is drawn from the
same ``Generator`` machinery.  numpy's PCG64 is *not* a cryptographically
secure source; a production deployment of a DP release would substitute a
CSPRNG.  This matches the experimental setting of the paper, which is about
the estimator's calibration, not about hardened randomness.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.errors import ValidationError

__all__ = ["as_generator", "spawn_generators", "ScalarDraws", "SeedLike"]

SeedLike = Union[None, int, np.random.SeedSequence, np.random.Generator]

_UINT32_MAX = 0xFFFFFFFF


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Passing an existing ``Generator`` returns it unchanged (no copy), so
    stateful sequential use by the caller behaves as expected.

    >>> g = as_generator(42)
    >>> as_generator(g) is g
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from one seed.

    Used by ensemble routines (e.g. sampling 100 synthetic graphs) so that
    each replicate has an independent stream while the whole ensemble stays
    reproducible from a single seed.
    """
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing fresh entropy from the parent stream.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


class ScalarDraws:
    """``rng.integers(0, high)`` and ``rng.random()`` through ``rng.bit_generator.ctypes``.

    Numpy's values and end state at a fraction of its per-call cost: ``below``
    is numpy's 32-bit Lemire draw on ``next_uint32`` (``bounded_draw`` in
    :mod:`repro.native.chain`) and draws nothing when ``high == 1``.  As a
    context manager it holds the bit generator's lock.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        interface = rng.bit_generator.ctypes
        self._rng = rng  # owns the memory behind the state address
        self._state = interface.state_address
        self._next_uint32 = interface.next_uint32
        self._next_double = interface.next_double

    def __enter__(self) -> "ScalarDraws":
        self._rng.bit_generator.lock.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._rng.bit_generator.lock.release()

    def below(self, high: int) -> int:
        """A uniform integer in ``[0, high)``, for ``1 <= high <= 2**32 - 1``."""
        if not 1 <= high <= _UINT32_MAX:
            raise ValidationError(f"high must be in [1, {_UINT32_MAX}], got {high}")
        if high == 1:
            return 0
        m = self._next_uint32(self._state) * high
        if m & _UINT32_MAX < high:
            threshold = (_UINT32_MAX + 1 - high) % high
            while m & _UINT32_MAX < threshold:
                m = self._next_uint32(self._state) * high
        return m >> 32

    def random(self) -> float:
        """A uniform double in ``[0, 1)``."""
        return self._next_double(self._state)
