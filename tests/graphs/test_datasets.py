"""Tests for the dataset registry and its stand-ins."""

from __future__ import annotations

import gzip
import hashlib

import pytest

from repro.errors import DatasetError
from repro.graphs.datasets import (
    available_datasets,
    dataset_fingerprint,
    dataset_info,
    load_dataset,
    load_fingerprinted,
)
from repro.stats.clustering import average_clustering


class TestRegistry:
    def test_registered_datasets(self):
        names = available_datasets()
        assert names == [
            "ca-grqc",
            "ca-hepth",
            "as20",
            "synthetic-kronecker",
            "skg-k16",
            "skg-k18",
            "skg-k20",
        ]

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            load_dataset("does-not-exist")

    def test_info_is_case_insensitive(self):
        assert dataset_info("CA-GrQC").name == "ca-grqc"

    def test_specs_carry_provenance(self):
        spec = dataset_info("ca-grqc")
        assert "Stand-in" in spec.description
        assert spec.kind == "standin"

    def test_synthetic_is_not_a_standin(self):
        assert dataset_info("synthetic-kronecker").kind == "synthetic"


class TestStandinFidelity:
    @pytest.mark.parametrize("name", ["ca-grqc", "ca-hepth", "as20"])
    def test_sizes_match_paper_exactly(self, name):
        spec = dataset_info(name)
        graph = load_dataset(name)
        assert graph.n_nodes == spec.paper_nodes
        assert graph.n_edges == spec.paper_edges

    def test_default_load_is_deterministic(self):
        assert load_dataset("as20") == load_dataset("as20")

    def test_custom_seed_changes_graph(self):
        assert load_dataset("as20", seed=1) != load_dataset("as20", seed=2)

    def test_synthetic_kronecker_node_count(self):
        graph = load_dataset("synthetic-kronecker")
        assert graph.n_nodes == 2**14

    def test_coauthorship_standins_have_high_clustering(self):
        # The substitution argument (DESIGN.md): co-authorship stand-ins
        # must be high-clustering, the AS stand-in low-clustering.
        grqc = load_dataset("ca-grqc")
        as20 = load_dataset("as20")
        assert average_clustering(grqc) > 0.2
        assert average_clustering(as20) < 0.1


class TestDiskOverride:
    def test_data_dir_used_when_file_present(self, tmp_path, monkeypatch):
        (tmp_path / "ca-grqc.txt").write_text("0 1\n1 2\n")
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        graph = load_dataset("ca-grqc")
        assert graph.n_edges == 2

    def test_data_dir_ignored_when_file_missing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        graph = load_dataset("as20")
        assert graph.n_edges == dataset_info("as20").paper_edges

    def test_fingerprint_is_the_files_sha256_and_follows_a_change(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "ca-grqc.txt"
        path.write_bytes(b"0 1\n1 2\n")
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        first = dataset_fingerprint("ca-grqc")
        assert first == hashlib.sha256(b"0 1\n1 2\n").hexdigest()
        assert load_fingerprinted("ca-grqc")[1] == first
        path.write_bytes(b"0 1\n1 2\n2 3\n")
        changed = dataset_fingerprint("ca-grqc")
        assert changed == hashlib.sha256(b"0 1\n1 2\n2 3\n").hexdigest()
        graph, fingerprint = load_fingerprinted("ca-grqc")
        assert (graph.n_edges, fingerprint) == (3, changed)
        assert load_dataset("ca-grqc") is graph

    def test_gzip_file_parses_and_fingerprints_its_compressed_bytes(
        self, tmp_path, monkeypatch
    ):
        data = gzip.compress(b"# header\r\n5 6\r\n6 7\r\n")
        (tmp_path / "as20.txt.gz").write_bytes(data)
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        graph, fingerprint = load_fingerprinted("as20")
        assert (graph.n_nodes, graph.n_edges) == (3, 2)
        assert fingerprint == dataset_fingerprint("as20") == hashlib.sha256(data).hexdigest()
