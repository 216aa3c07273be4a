"""On-disk memoization of completed trials.

The cache is a directory of pickle files, fanned out over 256 two-hex
subdirectories, keyed by :func:`repro.runtime.hashing.trial_key`.  Writes
go through a temporary file and :func:`os.replace`, so a crashed or
interrupted run never leaves a truncated entry behind — an interrupted
ensemble simply resumes from the trials that completed.  A corrupt or
unreadable entry is treated as a miss: it is quarantined in place (renamed
to ``<key>.pkl.corrupt``, with a warning naming the file) so the bad bytes
stay available for a post-mortem while the trial transparently
re-executes and overwrites the slot.

Results are arbitrary picklable Python objects.  As with any pickle-based
store, only load caches you produced yourself (the same trust boundary as
the repository's datasets).
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Tuple

from repro.utils.logging import get_logger

__all__ = ["TrialCache", "atomic_write"]

_logger = get_logger(__name__)

# A quarantined (corrupt) entry is the original file renamed with this
# suffix; __len__ counts only healthy *.pkl entries, so quarantine is
# invisible to the hit/miss accounting.
CORRUPT_SUFFIX = ".corrupt"


def atomic_write(path: Path, data: bytes, *, durable: bool = False) -> None:
    """Replace ``path`` with ``data`` atomically.

    The bytes go to a temporary file beside ``path`` (same suffix), then
    :func:`os.replace` renames it over the target, so a reader sees the
    old file or the new one, never a truncated one (``durable``: not even
    after a power loss).  On any failure the temporary file is removed
    and the error propagates.
    """
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(descriptor)
        os.replace(temp_name, path)
        if durable:  # the new name survives a power loss too
            directory = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(directory)
            finally:
                os.close(directory)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise


class TrialCache:
    """Pickle-file cache mapping trial keys to trial results.

    >>> import tempfile
    >>> cache = TrialCache(tempfile.mkdtemp())
    >>> cache.store("ab" * 32, {"edges": 12.0})
    >>> cache.load("ab" * 32)
    (True, {'edges': 12.0})
    >>> cache.load("cd" * 32)
    (False, None)
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.directory / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Tuple[bool, Any]:
        """``(True, result)`` on a hit, ``(False, None)`` on a miss.

        A present-but-unreadable entry (truncated file, incompatible
        pickle) counts as a miss: the bad file is quarantined as
        ``<name>.pkl.corrupt`` (kept for post-mortems, overwritten if the
        same entry corrupts again) and a warning is logged, then the
        caller re-executes the trial and re-stores the slot.
        """
        path = self.path_for(key)
        try:
            with path.open("rb") as handle:
                return True, pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError) as exc:
            self._quarantine(path, exc)
            return False, None

    def _quarantine(self, path: Path, exc: Exception) -> None:
        quarantined = path.with_name(path.name + CORRUPT_SUFFIX)
        try:
            os.replace(path, quarantined)
        except OSError:
            # Already gone (raced with another process) or unmovable;
            # either way the entry stays a miss.
            _logger.warning(
                "corrupt cache entry %s (%s: %s); treating as a miss",
                path, type(exc).__name__, exc,
            )
            return
        _logger.warning(
            "corrupt cache entry %s (%s: %s); quarantined as %s and "
            "treating as a miss (the trial will re-execute)",
            path, type(exc).__name__, exc, quarantined.name,
        )

    def store(self, key: str, result: Any) -> None:
        """Persist ``result`` under ``key`` atomically (write + rename)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))

    def __len__(self) -> int:
        """Number of cached entries currently on disk."""
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    def __repr__(self) -> str:
        return f"TrialCache({str(self.directory)!r})"
