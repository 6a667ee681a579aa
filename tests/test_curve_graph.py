import json

import pytest

from crosscap3.curve_graph import (
    CurveSubgraph,
    OneSided,
    TwoSided,
    count_checks,
    curve_graph_to_dot,
    curve_graph_to_json,
    determined_vertex,
    structural_report,
    subdivide,
    tet_star,
    two_sided,
    vertex_key,
)
from crosscap3.tet_tree import generate_ball


class TestVertices:
    def test_two_sided_normalization(self):
        assert two_sided(3, 1) == TwoSided(1, 3)
        with pytest.raises(ValueError):
            TwoSided(3, 1)
        with pytest.raises(ValueError):
            two_sided(2, 2)

    def test_canonical_order(self):
        vs = [TwoSided(0, 1), OneSided(2), OneSided(0), TwoSided(0, 2)]
        assert sorted(vs, key=vertex_key) == [
            OneSided(0),
            OneSided(2),
            TwoSided(0, 1),
            TwoSided(0, 2),
        ]


class TestSubdivide:
    def test_counts(self, cgraph):
        assert len(cgraph(0).vertices) == 10
        assert cgraph(0).n_edges() == 12
        assert len(cgraph(1).vertices) == 26
        assert cgraph(1).n_edges() == 36

    def test_two_sided_adjacency_is_endpoint_pair(self, cgraph):
        cg = cgraph(2)
        for t in cg.two_sided():
            assert cg.adjacency[t] == {OneSided(t.u), OneSided(t.w)}

    def test_bipartite(self, cgraph):
        cg = cgraph(2)
        for cv, nbrs in cg.adjacency.items():
            for nb in nbrs:
                assert type(nb) is not type(cv)

    def test_one_sided_degree_monotone_in_radius(self, cgraph):
        small, big = cgraph(1), cgraph(2)
        for cv in small.one_sided():
            assert len(small.adjacency[cv]) <= len(big.adjacency[cv])


class TestDeterminedVertex:
    def test_root_edge(self, cgraph):
        assert determined_vertex(0, 1, cgraph(0)) == TwoSided(0, 1)

    def test_unique_common_neighbour(self, cgraph):
        cg = cgraph(1)
        for v, w in cg.source.edges():
            common = cg.adjacency[OneSided(v)] & cg.adjacency[OneSided(w)]
            assert common == {TwoSided(v, w)}

    def test_non_edge_rejected(self, cgraph, dtable):
        # 4 is the fresh vertex of the opposite tetrahedron: distance 2 from 0.
        assert dtable(1).d(0, 4) == 2
        with pytest.raises(ValueError):
            determined_vertex(0, 4, cgraph(1))


class TestTetStar:
    def test_root_star(self, cgraph):
        star = tet_star(cgraph(1), "")
        assert isinstance(star, CurveSubgraph)
        assert len(star.vertices) == 10
        assert len(star.edges) == 12

    def test_degrees_within_star(self, cgraph):
        star = tet_star(cgraph(1), "0")
        degree = {v: 0 for v in star.vertices}
        for e in star.edges:
            for v in e:
                degree[v] += 1
        for v, d in degree.items():
            assert d == (3 if isinstance(v, OneSided) else 2)

    def test_unknown_tet(self, cgraph):
        with pytest.raises(ValueError):
            tet_star(cgraph(1), "00")
        with pytest.raises(ValueError):
            tet_star(cgraph(1), "21")


class TestReport:
    def test_clean_at_radius_three(self, cgraph):
        report = structural_report(cgraph(3))
        assert all(c["ok"] for c in report), [c for c in report if not c["ok"]]

    @pytest.mark.parametrize("radius", range(4))
    def test_starts_with_the_count_checks(self, cgraph, radius):
        counts = count_checks(cgraph(radius))
        assert [c["name"] for c in counts] == ["two_sided_count", "curve_edge_count"]
        assert all(c["ok"] for c in counts)
        assert structural_report(cgraph(radius))[:2] == counts


    def test_failure_witnesses_serialize(self):
        # A two-sided vertex with a third neighbour fails the degree and the
        # determined-vertex checks; both witnesses name it as the pair [0, 1].
        cg = subdivide(generate_ball(3))
        cg.adjacency[TwoSided(0, 1)].add(OneSided(5))
        cg.adjacency[OneSided(5)].add(TwoSided(0, 1))
        checks = {c["name"]: c for c in json.loads(json.dumps(structural_report(cg)))}
        degree, determined = checks["two_sided_degree_2"], checks["determined_vertex_unique"]
        assert not degree["ok"] and not determined["ok"]
        assert degree["bad"] == [[0, 1]]
        assert [0, 5, [[0, 1], [0, 5]]] in determined["bad"]


class TestSerialization:
    def test_json_schema(self, cgraph):
        data = curve_graph_to_json(cgraph(0))
        assert data["one_sided"] == [0, 1, 2, 3]
        assert [0, 1] in data["two_sided"]
        assert [0, [0, 1]] in data["edges"]
        assert len(data["edges"]) == 12

    def test_json_deterministic(self, cgraph):
        a = json.dumps(curve_graph_to_json(cgraph(1)))
        b = json.dumps(curve_graph_to_json(subdivide(generate_ball(1))))
        assert a == b

    def test_dot_shapes(self, cgraph):
        dot = curve_graph_to_dot(cgraph(0))
        assert "c0 [shape=circle];" in dot
        assert "b0_1 [shape=box];" in dot
        assert "c0 -- b0_1;" in dot
