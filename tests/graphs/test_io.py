"""Tests for SNAP edge-list IO."""

from __future__ import annotations

import gzip
import io

import pytest

from repro.errors import GraphFormatError
from repro.graphs import Graph, parse_edge_list, read_edge_list, write_edge_list


class TestParse:
    def test_basic(self):
        graph, labels = parse_edge_list("0 1\n1 2\n")
        assert graph.n_nodes == 3
        assert graph.n_edges == 2
        assert labels == {0: 0, 1: 1, 2: 2}

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n  # indented comment\n5 7\n"
        graph, labels = parse_edge_list(text)
        assert graph.n_edges == 1
        assert labels == {0: 5, 1: 7}

    def test_sparse_ids_relabelled_densely(self):
        graph, labels = parse_edge_list("100 200\n200 300\n")
        assert graph.n_nodes == 3
        assert sorted(labels.values()) == [100, 200, 300]

    def test_duplicate_and_reversed_edges_collapse(self):
        graph, _ = parse_edge_list("1 2\n2 1\n1 2\n")
        assert graph.n_edges == 1

    def test_self_loops_dropped(self):
        graph, _ = parse_edge_list("1 1\n1 2\n")
        assert graph.n_edges == 1

    def test_empty_text(self):
        graph, labels = parse_edge_list("# nothing\n")
        assert graph.n_nodes == 0
        assert labels == {}

    def test_wrong_token_count_rejected(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("1 2 3\n")

    def test_non_integer_rejected(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("1 2\na b\n")


class TestRoundtrip:
    def test_write_then_read(self, tmp_path, square_with_diagonal):
        path = tmp_path / "graph.txt"
        write_edge_list(square_with_diagonal, path)
        graph, _ = read_edge_list(path)
        assert graph.edge_set() == square_with_diagonal.edge_set()

    def test_gzip_roundtrip(self, tmp_path, triangle):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            write_edge_list(triangle, handle)
        graph, _ = read_edge_list(path)
        assert graph.edge_set() == triangle.edge_set()

    def test_default_header_records_counts(self, triangle):
        buffer = io.StringIO()
        write_edge_list(triangle, buffer)
        text = buffer.getvalue()
        assert text.startswith("# Nodes: 3 Edges: 3")

    def test_custom_header(self, triangle):
        buffer = io.StringIO()
        write_edge_list(triangle, buffer, header="line one\nline two")
        text = buffer.getvalue()
        assert "# line one" in text
        assert "# line two" in text

    def test_isolated_nodes_not_written(self, tmp_path):
        graph = Graph(10, [(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        reread, _ = read_edge_list(path)
        assert reread.n_nodes == 2  # SNAP convention: only touched nodes
