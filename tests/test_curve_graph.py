import json
from itertools import combinations

import numpy as np
import pytest

from crosscap3.curve_graph import (
    CurveGraphBall,
    count_checks,
    curve_graph_to_dot,
    curve_graph_to_json,
    structural_report,
    subdivide,
    vertex_name,
)
from crosscap3.tet_tree import generate_ball
from oracles import pair_ids_by_keys


def with_edges(cg, *pairs, remove=()):
    """A copy of cg with the undirected edges ``pairs`` added and ``remove`` removed."""
    rows = [set(cg.neighbors(i).tolist()) for i in cg.vertices]
    for a, b in pairs:
        rows[int(a)].add(int(b))
        rows[int(b)].add(int(a))
    for a, b in remove:
        rows[int(a)].discard(int(b))
        rows[int(b)].discard(int(a))
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([w for r in rows for w in sorted(r)])
    return CurveGraphBall(cg.source, cg.ends, indptr, indices)


def star_ids(cg, verts):
    """The ids of the star of a tetrahedron: its vertices and the pairs they determine."""
    pairs = list(combinations(verts, 2))
    return list(verts) + cg.pair_ids(*zip(*pairs)).tolist()


class TestVertices:
    def test_two_sided_normalization(self, cgraph):
        cg = cgraph(1)
        assert cg.pair_ids(3, 1) == cg.pair_ids(1, 3) >= cg.n_one
        assert (cg.ends[:, 0] < cg.ends[:, 1]).all()
        assert cg.pair_ids(2, 2) == -1

    def test_canonical_order(self, cgraph):
        # One-sided ids first, then two-sided ids in lexicographic pair order.
        cg = cgraph(1)
        n = cg.source.n_vertices
        assert cg.one_sided() == range(n)
        assert cg.two_sided() == range(n, len(cg.vertices))
        assert cg.ends.tolist() == sorted(map(list, cg.source.edges()))
        assert cg.pair_ids(*cg.ends.T).tolist() == list(cg.two_sided())
        assert [vertex_name(cg, i) for i in (0, n)] == ["OneSided(v=0)", "TwoSided(u=0, w=1)"]


class TestSubdivide:
    def test_counts(self, cgraph):
        assert len(cgraph(0).vertices) == 10
        assert cgraph(0).n_edges() == 12
        assert len(cgraph(1).vertices) == 26
        assert cgraph(1).n_edges() == 36

    @pytest.mark.parametrize("radius", range(6))
    def test_matches_dict_oracle(self, cgraph, curve_oracle, radius):
        cg, oracle = cgraph(radius), curve_oracle(radius)
        assert list(cg.vertices) == sorted(oracle)
        for i in cg.vertices:
            assert cg.neighbors(i).tolist() == sorted(oracle[i])

    def test_unknown_vertex(self, cgraph):
        # Ids outside the curve graph are refused by name; a negative one would wrap.
        cg = cgraph(1)
        for i in (-1, len(cg.vertices), 99):
            with pytest.raises(ValueError, match=f"vertex id {i} is not in 0..25"):
                cg.neighbors(i)

    def test_two_sided_adjacency_is_endpoint_pair(self, cgraph):
        cg = cgraph(2)
        for t in cg.two_sided():
            assert cg.neighbors(t).tolist() == cg.ends[t - cg.n_one].tolist()

    def test_bipartite(self, cgraph):
        cg = cgraph(2)
        rows, cols = cg.entries()
        assert ((rows < cg.n_one) != (cols < cg.n_one)).all()

    def test_one_sided_degree_monotone_in_radius(self, cgraph):
        small, big = cgraph(1), cgraph(2)
        n = small.n_one
        assert (small.degrees()[:n] <= big.degrees()[:n]).all()


class TestDeterminedVertex:
    def test_root_edge(self, cgraph):
        cg = cgraph(0)
        assert cg.pair_ids(0, 1) == 4
        assert np.intersect1d(cg.neighbors(0), cg.neighbors(1)).tolist() == [4]

    def test_unique_common_neighbour(self, cgraph):
        cg = cgraph(1)
        for k, (v, w) in enumerate(cg.source.edges()):
            common = set(cg.neighbors(v).tolist()) & set(cg.neighbors(w).tolist())
            assert common == {int(cg.pair_ids(v, w))} == {cg.n_one + k}

    def test_non_edge_rejected(self, cgraph, dtable):
        # 4 is the fresh vertex of the opposite tetrahedron: distance 2 from 0.
        assert dtable(1).d(0, 4) == 2
        assert cgraph(1).pair_ids(0, 4) == -1
        assert cgraph(1).pair_ids([0, 0], [1, 4]).tolist() == [cgraph(1).n_one, -1]
        # Ids that are not ball vertices determine nothing; -n + (n + 1) is the key of (0, 1).
        assert cgraph(1).pair_ids([-1, 0, -1], [1, cgraph(1).n_one, cgraph(1).n_one + 1]).tolist() == [-1] * 3

    @pytest.mark.parametrize("radius", range(9))
    def test_pair_ids_match_the_ends(self, cgraph, radius):
        # Every pair in both orders, random pairs and ids outside 0..n-1, against a dict of the
        # ordered ends and against the search of the ends as keys.
        cg = cgraph(radius)
        n, rng = cg.n_one, np.random.default_rng(radius)
        ids = {(u, w): cg.n_one + k for k, (u, w) in enumerate(cg.ends.tolist())}
        a, b = np.concatenate(
            [cg.ends, cg.ends[:, ::-1], rng.integers(-2, n + 2, size=(3000, 2)), [[0, n], [n, 0], [-1, 1], [-n, 1]]]
        ).T
        want = [ids.get((min(x, y), max(x, y)), -1) for x, y in zip(a.tolist(), b.tolist())]
        assert cg.pair_ids(a, b).tolist() == want == pair_ids_by_keys(cg, a, b).tolist()
        assert cg.pair_ids(a.reshape(2, -1), b.reshape(2, -1)).tolist() == np.reshape(want, (2, -1)).tolist()

    def test_pair_ids_read_the_source_alone(self, cgraph):
        # An extra edge at one-sided row 5 shifts every later position of the curve CSR;
        # the ids of the source's edges do not move.
        cg = with_edges(cgraph(2), (cgraph(2).pair_ids(0, 1), 5))
        a, b = cg.ends.T
        assert len(cg.ends) == 54 and cg.degrees()[5] == cgraph(2).degrees()[5] + 1
        assert cg.pair_ids(a, b).tolist() == pair_ids_by_keys(cg, a, b).tolist() == list(cg.two_sided())


class TestTetStar:
    def test_root_star(self, cgraph):
        cg = cgraph(1)
        star = set(star_ids(cg, cg.source.tets[""]))
        rows, cols = cg.entries()
        inside = np.isin(rows, list(star)) & np.isin(cols, list(star))
        assert len(star) == 10 and min(star) >= 0
        assert inside.sum() // 2 == 12

    def test_degrees_within_star(self, cgraph):
        cg = cgraph(1)
        star = star_ids(cg, cg.source.tets["0"])
        for v in star:
            degree = len(set(cg.neighbors(v).tolist()) & set(star))
            assert degree == (3 if v < cg.n_one else 2)

    def test_unknown_tet(self, cgraph):
        # {0, 1, 2, 4} is no tetrahedron: 4 replaced 0 in tetrahedron "0".
        cg = cgraph(1)
        assert cg.source.tets["0"] == (4, 1, 2, 3)
        assert -1 in star_ids(cg, (0, 1, 2, 4))


def determined_loop(cg):
    """Reference for the ``determined_vertex_unique`` record: neighbour sets per ball edge."""
    n = cg.n_one
    nbrs = [set(cg.neighbors(v).tolist()) for v in range(n)]
    bad = []
    for k, (v, w) in enumerate(cg.source.edges()):
        common = nbrs[v] & nbrs[w]
        if common != {n + k}:
            bad.append([v, w, [int(i) if i < n else cg.ends[i - n].tolist() for i in sorted(common)]])
    return {"name": "determined_vertex_unique", "ok": not bad, "bad": bad[:5]}


class TestReport:
    @pytest.mark.parametrize("radius", range(5))
    def test_determined_vertices_match_the_loop(self, cgraph, radius):
        (record,) = [c for c in structural_report(cgraph(radius)) if c["name"] == "determined_vertex_unique"]
        assert record == determined_loop(cgraph(radius)) == {"name": "determined_vertex_unique", "ok": True, "bad": []}

    @pytest.mark.parametrize("corrupt", ["extra", "common", "missing", "rewired"])
    def test_corrupted_determined_vertices_match_the_loop(self, corrupt):
        # The two-sided vertex t of (0, 1) gains, loses or swaps a neighbour,
        # or the one-sided 2 becomes a second common neighbour of 0 and 1.
        cg = subdivide(generate_ball(2))
        t = cg.pair_ids(0, 1)
        cg = {
            "extra": lambda: with_edges(cg, (t, 5)),
            "common": lambda: with_edges(cg, (0, 2), (1, 2)),
            "missing": lambda: with_edges(cg, remove=[(t, 0)]),
            "rewired": lambda: with_edges(cg, (t, 5), remove=[(t, 1)]),
        }[corrupt]()
        (record,) = [c for c in structural_report(cg) if c["name"] == "determined_vertex_unique"]
        assert record == determined_loop(cg)
        assert not record["ok"]

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
        cg = with_edges(cg, (cg.pair_ids(0, 1), 5))
        checks = {c["name"]: c for c in json.loads(json.dumps(structural_report(cg)))}
        degree, determined = checks["two_sided_degree_2"], checks["determined_vertex_unique"]
        assert not degree["ok"] and not determined["ok"]
        assert degree["bad"] == [[0, 1]]
        assert [0, 5, [[0, 1], [0, 5]]] in determined["bad"]

    def test_every_failing_check_names_a_vertex(self):
        # One-sided 5 added to both sides of the two-sided vertex of (0, 1).
        cg = subdivide(generate_ball(3))
        cg = with_edges(cg, (cg.pair_ids(0, 1), 5))
        checks = {c["name"]: c for c in structural_report(cg)}
        assert checks["two_sided_endpoints"] == {"name": "two_sided_endpoints", "ok": False, "bad": [[0, 1]]}
        assert checks["one_sided_degree_matches"] == {"name": "one_sided_degree_matches", "ok": False, "bad": [5]}
        assert checks["bipartite"] == {"name": "bipartite", "ok": True}

    def test_rewired_endpoint_is_named(self):
        # The two-sided vertex of (0, 1) keeps degree 2 but is joined to 5, not 1.
        cg = subdivide(generate_ball(3))
        t = cg.pair_ids(0, 1)
        cg = with_edges(cg, (t, 5), remove=[(t, 1)])
        checks = {c["name"]: c for c in structural_report(cg)}
        assert checks["two_sided_degree_2"]["ok"]
        assert checks["two_sided_endpoints"] == {"name": "two_sided_endpoints", "ok": False, "bad": [[0, 1]]}
        assert checks["one_sided_degree_matches"] == {"name": "one_sided_degree_matches", "ok": False, "bad": [1, 5]}

    def test_bipartite_witness(self):
        cg = with_edges(subdivide(generate_ball(3)), (0, 5))
        checks = {c["name"]: c for c in structural_report(cg)}
        assert checks["bipartite"] == {"name": "bipartite", "ok": False, "bad": [0, 5]}


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
