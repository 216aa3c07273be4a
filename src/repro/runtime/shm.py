"""Shared-memory CSR handoff: ship graphs to pool workers without pickling.

Every pool task whose params carry a :class:`~repro.graphs.graph.Graph`
used to pickle the graph's canonical edge arrays into the task payload —
per *task*; at 10⁶ edges that is 16 MB of serialization per task for
bytes a worker could map instead.  The graph-carrying tasks today are
the per-graph counting trials of
:func:`repro.core.synthesis.ensemble_matching_statistics` and any
caller-built :class:`~repro.runtime.TrialSpec` whose params hold a graph
(a graph referenced by many specs shares one segment).  This module
publishes the canonical arrays once into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and lets the graph's pickle
reduce to a ~100-byte token for the duration of a trial session.

How the pieces fit:

* :func:`share_graph` — a context manager the trial engine wraps around
  its pool dispatch.  On entry it copies the graph's edge arrays into a
  fresh segment and stamps the *instance* with a ``(name, n_nodes,
  n_edges)`` token; :meth:`Graph.__reduce__` sees the token and pickles
  to ``(_attach_graph, token)`` instead of the arrays.  On exit the
  token is cleared and the segment is closed and unlinked — by the
  *creating process only*, so worker crashes and pool rebuilds mid-run
  can never leak a named segment: replacement workers re-attach by name
  while the session holds the segment open, and the parent's ``finally``
  is the single point of release.
* :func:`_attach_graph` — the worker-side unpickling hook: attaches the
  named segment (memoized per process) and builds the graph around
  read-only views of the shared buffer — zero copy.  Attached instances
  do **not** carry the token, so a graph a worker sends back to the
  parent pickles by value; nothing that outlives the session (trial
  cache entries, results) can capture a segment name.
* ``REPRO_SHM`` — ``auto`` (default: share graphs whose edge payload is
  at least 1 MiB) or ``off`` (always pickle by value).  ``off`` is the
  operator's escape hatch when ``/dev/shm`` is too small: there is no
  automatic fallback.

Attachment registers nothing with :mod:`multiprocessing.resource_tracker`
(``track=False`` where available, explicit unregister otherwise): the
tracker would otherwise unlink segments still in use when the *first*
worker exits — precisely the self-healing scenario PR 7 exists for.

:func:`live_segments` / :func:`attached_segments` expose the bookkeeping
for the lifecycle tests (``tests/runtime/test_shm.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from multiprocessing import shared_memory

import numpy as np

from repro.graphs.graph import Graph
from repro.knobs import knob

__all__ = [
    "SHM_ENV",
    "AUTO_THRESHOLD_BYTES",
    "resolve_shm_mode",
    "should_share",
    "share_graph",
    "live_segments",
    "attached_segments",
]

SHM_ENV = "REPRO_SHM"

# `auto` shares a graph once its pickled edge payload reaches 1 MiB
# (two int64 arrays: 65536 edges).  Below that, pickling is cheaper than
# a segment round trip.
AUTO_THRESHOLD_BYTES = 1 << 20

# Segments created by *this* process that are currently published:
# name -> SharedMemory.  share_graph is the only writer.
_LIVE: dict[str, shared_memory.SharedMemory] = {}

# Segments this process has attached to (worker side): name ->
# SharedMemory.  Entries keep the mapping alive across tasks so repeated
# trials over one graph attach once; the parent's unlink removes the
# *name*, the memory itself lives until the last mapping drops.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def resolve_shm_mode(mode: str | None = None) -> str:
    """The sharing mode: argument, else ``REPRO_SHM``, else ``auto``."""
    return knob(SHM_ENV, mode)


def should_share(graph: Graph) -> bool:
    """Whether the pool path should publish ``graph`` to shared memory."""
    if resolve_shm_mode() == "off" or graph.n_edges == 0:
        return False
    return 2 * 8 * graph.n_edges >= AUTO_THRESHOLD_BYTES


@contextmanager
def share_graph(graph: Graph):
    """Publish ``graph`` to a shared segment for the duration of the block.

    Inside the block the instance pickles to an attach token (see the
    module docstring); on exit — and only in the creating process — the
    segment is closed and unlinked.  Graphs below the sharing threshold
    (or with sharing off, or already shared) pass through untouched, so
    callers can wrap unconditionally.
    """
    if graph._shm is not None or not should_share(graph):
        yield graph
        return
    edge_u, edge_v = graph.edge_arrays
    n_edges = graph.n_edges
    segment = shared_memory.SharedMemory(create=True, size=2 * 8 * n_edges)
    try:
        buffer = np.ndarray((2, n_edges), dtype=np.int64, buffer=segment.buf)
        buffer[0] = edge_u
        buffer[1] = edge_v
        graph._shm = (segment.name, graph.n_nodes, n_edges)
        _LIVE[segment.name] = segment
        yield graph
    finally:
        graph._shm = None
        _LIVE.pop(segment.name, None)
        # Release order matters: the local ndarray view must be the only
        # remaining buffer export when close() runs, so drop it first.
        del buffer
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - platform quirk
            pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a named segment without resource-tracker registration.

    The tracker keys segments by *name* across all processes feeding it,
    so letting an attach register (and then unregistering) would cancel
    the creating process's registration — and the tracker would unlink
    live segments when the first worker exits.  Python 3.13 has
    ``track=False``; earlier versions need registration suppressed for
    the duration of the attach (single-threaded in workers, and the
    suppression window is one constructor call).
    """
    segment = _ATTACHED.get(name)
    if segment is not None:
        return segment
    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    _ATTACHED[name] = segment
    return segment


def _attach_graph(token: tuple[str, int, int]) -> Graph:
    """Worker-side unpickling hook: rebuild a graph over the shared buffer.

    The returned instance wraps *read-only views* of the segment (zero
    copy) and carries no token, so re-pickling it ships the arrays by
    value — session-scoped segment names never escape into caches or
    results.
    """
    name, n_nodes, n_edges = token
    segment = _attach_segment(name)
    buffer = np.ndarray((2, n_edges), dtype=np.int64, buffer=segment.buf)
    return Graph._from_canonical(n_nodes, buffer[0], buffer[1])


def live_segments() -> tuple[str, ...]:
    """Names of segments this process has published and not yet released."""
    return tuple(sorted(_LIVE))


def attached_segments() -> tuple[str, ...]:
    """Names of segments this process has attached to (worker side)."""
    return tuple(sorted(_ATTACHED))
