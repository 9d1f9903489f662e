"""Tests for graph I/O, may/must analysis and the synthetic generators."""

import pytest

from repro.errors import GraphFormatError
from repro.graph import from_edges, complete_graph, coreness, may_must_report
from repro.graph.io import (
    read_edge_list, write_edge_list, read_dimacs, write_dimacs,
    read_metis, write_metis,
)
from repro.graph import generators as gen
from tests.conftest import brute_force_max_clique


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_gzip_roundtrip(self, tmp_path):
        g = from_edges(4, [(0, 1), (2, 3)])
        path = tmp_path / "g.txt.gz"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_one_indexed_autodetect(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 3\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n% other\n0 1\n")
        assert read_edge_list(path).m == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_edge_list(path).n == 0


class TestDimacsIO:
    def test_roundtrip(self, tmp_path):
        g = from_edges(4, [(0, 1), (1, 2), (0, 3)])
        path = tmp_path / "g.col"
        write_dimacs(g, path)
        assert read_dimacs(path) == g

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.col"
        path.write_text("e 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)


class TestMetisIO:
    def test_roundtrip(self, tmp_path):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = tmp_path / "g.metis"
        write_metis(g, path)
        assert read_metis(path) == g

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("3 1\n2\n1\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)


class TestMayMust:
    def test_clique_plus_pendant(self):
        # K4 + pendant, omega = 4, degeneracy 3 -> gap 0, empty must set.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        g = from_edges(5, edges)
        rep = may_must_report(g, omega=4)
        assert rep.gap == 0
        assert rep.must_vertices == 0
        assert rep.may_vertices == 4  # the K4, coreness 3 >= omega-1

    def test_gap_positive_graph(self):
        # C5 has coreness 2 everywhere, omega = 2 -> gap 1, must = everything.
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        rep = may_must_report(g, omega=2)
        assert rep.gap == 1
        assert rep.must_vertices == 5
        assert rep.may_vertices == 5
        assert rep.must_edge_fraction == 1.0

    def test_attached_edges(self):
        # Triangle 0-1-2 with pendant 3 on vertex 0; omega=3.
        g = from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        rep = may_must_report(g, omega=3)
        assert rep.may_vertices == 3
        assert rep.may_edges == 3
        # "attached" counts every edge incident to the may set (Fig. 1
        # caption: may edges are a *subset* of attached edges): 3 internal
        # triangle edges plus the pendant edge (0,3).
        assert rep.attached_edges == 4

    def test_gap_helper(self):
        assert may_must_report(complete_graph(5), 5).gap == 0


class TestGenerators:
    def test_gnp_extremes(self):
        assert gen.gnp_random(10, 0.0, seed=1).m == 0
        assert gen.gnp_random(6, 1.0, seed=1).m == 15

    def test_gnp_edge_count_reasonable(self):
        g = gen.gnp_random(200, 0.1, seed=42)
        expected = 0.1 * 200 * 199 / 2
        assert 0.7 * expected < g.m < 1.3 * expected

    def test_gnp_deterministic(self):
        assert gen.gnp_random(50, 0.2, seed=5) == gen.gnp_random(50, 0.2, seed=5)

    def test_planted_clique_is_clique(self):
        g, members = gen.planted_clique(60, 0.05, 8, seed=3)
        assert g.is_clique(members.tolist())
        assert len(members) == 8

    def test_planted_clique_is_maximum_when_sparse(self):
        g, members = gen.planted_clique(40, 0.05, 10, seed=7)
        assert len(brute_force_max_clique(g)) == 10

    def test_barabasi_albert_basics(self):
        g = gen.barabasi_albert(100, 3, seed=1)
        assert g.n == 100
        # Each of the 97 added vertices contributes m edges (minus dups).
        assert g.m >= 97 * 3 - 20
        assert g.max_degree() > 6  # hubs exist

    def test_powerlaw_cluster_runs(self):
        g = gen.powerlaw_cluster(80, 3, 0.6, seed=2)
        assert g.n == 80
        assert g.m >= 3 * 70

    def test_grid_road_properties(self):
        g = gen.grid_road(10, 10, k4_fraction=0.3, seed=4)
        assert g.n == 100
        core = coreness(g)
        assert core.max() <= 3  # road profile: tiny degeneracy
        assert len(brute_force_max_clique(g)) == 4  # braced cells give K4

    def test_relaxed_caveman(self):
        g = gen.relaxed_caveman(5, 6, 0.1, seed=5)
        assert g.n == 30
        assert g.m > 5 * 10

    def test_overlapping_cliques_dense(self):
        g = gen.overlapping_cliques(60, 30, (8, 16), noise_p=0.02, seed=6)
        assert g.density > 0.15

    def test_bipartite_omega_two(self):
        g = gen.bipartite_random(15, 15, 0.5, seed=8)
        assert len(brute_force_max_clique(g)) == 2

    def test_hierarchical_web_gap_zero(self):
        g = gen.hierarchical_web(3, 2, core_clique=12, seed=10)
        core = coreness(g)
        assert core.max() == 11  # clique core dominates degeneracy
        assert g.is_clique(list(range(12)))

    def test_citation_layers(self):
        g = gen.citation_layers(100, 5, seed=11)
        assert g.n == 100
        assert g.m > 100

    def test_star_forest_plus(self):
        g = gen.star_forest_plus(6, 10, 0.01, seed=12)
        assert g.n == 66
        assert g.max_degree() >= 10
