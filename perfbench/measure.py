"""Summary statistics and output digests shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import resource

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer, the "tail" is a handful of points.
TAIL_MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def tail_supported(n: int, q: float) -> bool:
    """Whether percentile ``q`` of ``n`` samples has enough samples beyond it."""
    return samples_beyond(n, q) >= TAIL_MIN_BEYOND


def timing_summary(values_ms) -> dict:
    """Median and p90 (where the sample supports it), with the sample count."""
    summary = {"n": len(values_ms)}
    if values_ms:
        summary["p50"] = percentile(values_ms, 50)
        if tail_supported(len(values_ms), 90):
            summary["p90"] = percentile(values_ms, 90)
    return summary


def median(values) -> float:
    """The nearest-rank median (a sample value, so digits are as measured)."""
    return percentile(values, 50)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(records) -> str:
    """A short content hash of JSON-serialisable records (floats by repr)."""
    payload = json.dumps(records, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def initiator_record(initiator) -> list[str]:
    """An initiator as exact float reprs, for bit-identity digests."""
    return [repr(float(initiator.a)), repr(float(initiator.b)), repr(float(initiator.c))]
