"""Edge-list IO in the SNAP text format.

The SNAP datasets the paper uses ship as whitespace-separated edge lists
with ``#`` comment lines.  :func:`read_edge_list` accepts exactly that
format (plain or gzipped), relabels arbitrary integer node ids to the dense
range ``0 .. n-1``, and returns a :class:`repro.graphs.Graph` together with
the label mapping.  :func:`write_edge_list` is its inverse, so released
synthetic graphs can be saved in the same format researchers already
consume.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.graph import Graph, sorted_unique

__all__ = ["parse_edge_list", "read_edge_list", "write_edge_list"]


def parse_edge_list(text: str) -> tuple[Graph, dict[int, int]]:
    """Parse SNAP-format edge-list text into a graph.

    Returns ``(graph, labels)`` where ``labels`` maps the graph's dense node
    index back to the original id found in the file.  Lines starting with
    ``#`` (after optional whitespace) and blank lines are ignored; each data
    line must contain exactly two integer tokens.

    >>> g, labels = parse_edge_list("# a comment\\n10 20\\n20 30\\n")
    >>> g.n_nodes, g.n_edges
    (3, 2)
    >>> labels[0]
    10
    """
    sources: list[int] = []
    targets: list[int] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                f"line {line_number}: expected 2 tokens, got {len(tokens)}: {line!r}"
            )
        try:
            sources.append(int(tokens[0]))
            targets.append(int(tokens[1]))
        except ValueError as exc:
            raise GraphFormatError(
                f"line {line_number}: non-integer endpoint in {line!r}"
            ) from exc
    if not sources:
        return Graph(0), {}
    all_ids = sorted_unique(np.concatenate([sources, targets]))
    edges = np.column_stack([np.searchsorted(all_ids, sources), np.searchsorted(all_ids, targets)])
    labels = {dense: int(original) for dense, original in enumerate(all_ids)}
    return Graph(len(all_ids), edges), labels


def read_edge_list(path: str | Path) -> tuple[Graph, dict[int, int]]:
    """Read a SNAP-format edge list from ``path`` (``.gz`` handled)."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = path.read_text(encoding="utf-8")
    return parse_edge_list(text)


def write_edge_list(
    graph: Graph,
    path_or_handle: str | Path | TextIO,
    *,
    header: str | None = None,
) -> None:
    """Write ``graph`` as a SNAP-format edge list.

    ``header`` (if given) is emitted as ``#``-prefixed comment lines.  Nodes
    are written with their dense 0-based ids; isolated nodes do not appear
    (matching the SNAP convention), so a reader must be told ``n_nodes``
    out of band if isolated nodes matter — the default header records it.
    """
    if isinstance(path_or_handle, (str, Path)):
        with open(path_or_handle, "w", encoding="utf-8") as handle:
            write_edge_list(graph, handle, header=header)
        return
    handle = path_or_handle
    if header is None:
        header = f"Nodes: {graph.n_nodes} Edges: {graph.n_edges}"
    for line in header.splitlines():
        handle.write(f"# {line}\n")
    for u, v in graph.edges():
        handle.write(f"{u} {v}\n")
