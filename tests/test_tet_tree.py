import json
import random
from collections import deque
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adjacency_sets, coresidence_sets, subdivide_oracle, support_sets, with_edges
from crosscap3 import cli, tet_tree
from crosscap3.curve_graph import subdivide
from crosscap3.errors import BudgetError, RadiusCapError
from crosscap3.tet_tree import (
    ALPHABET,
    TetBall,
    ball_to_json,
    count_checks,
    four_cliques,
    generate_ball,
    is_address,
    link_labeling_report,
    radius_cap,
    structural_report,
)
from oracles import (
    Slope,
    _link_labels,
    _slope_pair,
    _unfold,
    common_neighbors,
    farey_adjacent,
    four_cliques_by_runs,
    four_cliques_with_a_common_neighbor,
    has_edge,
    link_slope_labeling,
    mat_inverse,
    mobius_apply,
    neighbor,
    support_connected,
    tree_distance,
    tree_path,
    triangle_cofaces,
    triangle_matrix,
    triangles_by_common_neighbors,
)


def reduced_words(max_len):
    # Independent address oracle: breadth-first strings with no letter repeated.
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [
            w + ch for w in frontier for ch in ALPHABET if not w or w[-1] != ch
        ]
        words.extend(frontier)
    return set(words)


addresses = st.text(alphabet=ALPHABET, max_size=6).filter(is_address)


# ---------------------------------------------------------------------------
# Addresses and the tree

class TestNeighbor:
    def test_is_address_matches_the_definition(self):
        # Every word of length <= 5 over the letters, a stranger and a newline, which ``$`` would let end a match.
        for n in range(6):
            for word in map("".join, product(ALPHABET + "x\n", repeat=n)):
                want = set(word) <= set(ALPHABET) and all(a != b for a, b in zip(word, word[1:]))
                assert is_address(word) == want, word

    def test_examples(self):
        assert neighbor("", 2) == "2"
        assert neighbor("2", 2) == ""
        assert neighbor("20", 2) == "202"

    @given(addresses, st.integers(0, 3))
    def test_involution(self, addr, face):
        once = neighbor(addr, face)
        assert is_address(once)
        assert neighbor(once, face) == addr

    def test_rejects_bad_face(self):
        with pytest.raises(ValueError):
            neighbor("", 4)

    @given(addresses, addresses)
    def test_tree_distance_is_path_length(self, a, b):
        path = tree_path(a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == tree_distance(a, b) + 1
        for u, v in zip(path, path[1:]):
            assert abs(len(u) - len(v)) == 1 and (u.startswith(v) or v.startswith(u))


# ---------------------------------------------------------------------------
# Ball generation

class TestGenerateBall:
    def test_counts_small(self, ball):
        for n, (tets, verts, edges) in {
            0: (1, 4, 6),
            1: (5, 8, 18),
            2: (17, 20, 54),
        }.items():
            b = ball(n)
            assert len(b.tets) == tets
            assert b.n_vertices == verts
            assert b.n_edges() == edges

    def test_addresses_are_reduced_words(self, ball):
        for n in range(5):
            assert set(ball(n).tets) == reduced_words(n)

    def test_vertex_and_edge_recount(self, ball):
        # Recount from the raw tetrahedron tuples, independent of the class.
        b = ball(3)
        verts = {v for t in b.tets.values() for v in t}
        edges = {
            frozenset((t[i], t[j]))
            for t in b.tets.values()
            for i in range(4)
            for j in range(i + 1, 4)
        }
        assert len(verts) == b.n_vertices == 2 * 3**3 + 2
        assert len(edges) == b.n_edges() == 6 * 3**3
        assert verts == set(range(len(verts)))

    def test_deterministic_and_prefix_stable(self, ball):
        again = generate_ball(2)
        assert again.tets == ball(2).tets
        for n in range(4):
            small, big = ball(n), ball(n + 1)
            for addr, verts in small.tets.items():
                assert big.tets[addr] == verts

    @pytest.mark.parametrize("radius", range(9))
    def test_matches_the_unfold_oracle(self, radius):
        b, oracle = generate_ball(radius), TetBall(radius, _unfold(radius))
        for name in ("verts", "parent", "face", "depth", "born"):
            assert np.array_equal(getattr(b, name), getattr(oracle, name)), name
        assert b.addrs == oracle.addrs
        assert np.array_equal(b.indptr, oracle.indptr) and np.array_equal(b.indices, oracle.indices)
        assert b.tets == oracle.tets

    def test_rows_create_ids_in_order(self):
        # Every row after the root creates exactly one fresh id, the next one;
        # rows run in (length, address) order.
        b = generate_ball(8)
        assert b.born.tolist() == [max(v - 3, 0) for v in b.vertices()]
        assert b.addrs == sorted(b.addrs, key=lambda a: (len(a), a))

    def test_tets_is_a_cached_dict(self):
        # The group operations read it hundreds of thousands of times.
        b = generate_ball(2)
        assert type(b.tets) is dict and b.tets is b.tets

    def test_verify_builds_no_strings_or_sets(self, monkeypatch):
        made = []

        def generate(radius):
            made.append(generate_ball(radius))
            return made[-1]

        monkeypatch.setattr(tet_tree, "generate_ball", generate)
        assert cli.run_verify(6)["ok"]
        (b,) = made
        held = vars(b)
        assert not {"tets", "addrs", "rows", "by_verts"} & held.keys()
        values = [x for value in held.values() for x in (value if isinstance(value, tuple) else (value,))]
        assert all(isinstance(x, (int, np.ndarray)) for x in values), held.keys()

    def test_fresh_vertex_at_crossed_slot(self, ball):
        b = ball(1)
        assert b.tets[""] == (0, 1, 2, 3)
        assert b.tets["0"] == (4, 1, 2, 3)
        assert b.tets["1"] == (0, 5, 2, 3)
        assert b.tets["3"] == (0, 1, 2, 7)

    def test_radius_cap(self):
        with pytest.raises(RadiusCapError):
            generate_ball(radius_cap() + 1)
        with pytest.raises(ValueError):
            generate_ball(-1)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("CROSSCAP3_RADIUS_CAP", "2")
        assert radius_cap() == 2
        with pytest.raises(RadiusCapError):
            generate_ball(3)

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_cap_env_rejects_invalid(self, monkeypatch, value):
        monkeypatch.setenv("CROSSCAP3_RADIUS_CAP", value)
        with pytest.raises(RadiusCapError, match="CROSSCAP3_RADIUS_CAP"):
            radius_cap()


# ---------------------------------------------------------------------------
# Links

def link_edges(b, v):
    """The edges of the link of v: the triangles of the ball through v, without v."""
    tri = b.triangles[(b.triangles == v).any(axis=1)]
    return {frozenset(row) - {v} for row in tri.tolist()}


class TestLink:
    def test_root_ball_link_is_triangle(self, ball):
        assert ball(0).neighbors(0).tolist() == [1, 2, 3]
        assert link_edges(ball(0), 0) == {frozenset(e) for e in ((1, 2), (1, 3), (2, 3))}

    def test_radius_one_link(self, ball):
        assert len(ball(1).neighbors(0)) == 6
        assert len(link_edges(ball(1), 0)) == 9

    def test_fresh_vertex_link_is_creating_face(self, ball):
        b = ball(2)
        # Vertex 8 is created by tetrahedron "01" = (4, 8, 2, 3).
        assert b.tets["01"] == (4, 8, 2, 3)
        assert b.neighbors(8).tolist() == [2, 3, 4]
        assert link_edges(b, 8) == {frozenset(e) for e in ((2, 3), (2, 4), (3, 4))}

    def test_unknown_vertex(self, ball):
        # Ids outside 0..n_vertices-1 are refused by name; a negative one would wrap.
        b = ball(1)
        for v in (99, -1, b.n_vertices):
            for query in (b.neighbors, b.support, b.vertex_depth):
                with pytest.raises(ValueError, match=f"vertex id {v} is not in 0..7"):
                    query(v)


class TestLinkLabeling:
    def test_base_assignment(self, ball):
        labels = link_slope_labeling(ball(0), 0, (1, 2, 3))
        assert labels == {1: Slope(0, 1), 2: Slope(1, 0), 3: Slope(1, 1)}

    def test_unfold_gets_mediant(self, ball):
        labels = link_slope_labeling(ball(1), 0, (1, 2, 3))
        # The unfold vertex across link edge {1, 3} is 6 (tet "2" = (0,1,6,3)).
        assert labels[6] == Slope(1, 2)
        assert labels[5] == Slope(2, 1)
        assert labels[7] == Slope(-1, 1)

    def test_every_labeled_edge_is_farey_adjacent(self, ball):
        b = ball(3)
        support = support_sets(b)
        for v in b.vertices():
            base_addr = min(support[v])
            base = tuple(x for x in b.tets[base_addr] if x != v)
            labels = link_slope_labeling(b, v, base)
            assert set(labels) == set(b.neighbors(v).tolist())
            assert len(set(labels.values())) == len(labels)
            for u, w in link_edges(b, v):
                assert farey_adjacent(labels[u], labels[w])

    def test_rejects_non_link_triangle(self, ball):
        with pytest.raises(ValueError):
            link_slope_labeling(ball(1), 0, (1, 2, 4))  # 4 is not adjacent to 0
        with pytest.raises(ValueError):
            link_slope_labeling(ball(1), 0, (5, 6, 7))  # not pairwise co-resident

    def test_report_clean_at_radius_three(self, ball):
        (report,) = link_labeling_report(ball(3))
        assert report["ok"], report["failures"]
        assert report["vertices_checked"] == ball(3).n_vertices

    def test_base_error_names_the_cofaces(self, ball):
        with pytest.raises(ValueError, match=r"base triple \(5, 6, 7\) of vertex 0 has cofaces \[\]"):
            link_slope_labeling(ball(1), 0, (5, 6, 7))


def slope_loop_failures(ball):
    """Every failure of the link labelling report as (vertex, error), and the number of
    labelled links, by one loop over Slope pairs: the reference."""
    failures = []
    vertices_checked = 0
    adjacency, support = adjacency_sets(ball), support_sets(ball)
    for v in ball.vertices():
        base = tuple(x for x in ball.tets[min(support[v])] if x != v)
        try:
            labels = link_slope_labeling(ball, v, base)
        except (RuntimeError, ValueError) as exc:
            failures.append((v, str(exc)))
            continue
        vertices_checked += 1
        nbrs = adjacency[v]
        if set(labels) != nbrs:
            failures.append((v, "labeling does not cover the link"))
            continue
        members = sorted(nbrs)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if (y in adjacency[x]) != farey_adjacent(labels[x], labels[y]):
                    failures.append((v, f"edge mismatch at ({x}, {y})"))
        other_base = tuple(x for x in ball.tets[max(support[v])] if x != v)
        relabels = link_slope_labeling(ball, v, other_base)
        m = mat_inverse(triangle_matrix(tuple(labels[x] for x in other_base)))
        for u, slope in labels.items():
            if relabels[u] != mobius_apply(m, slope):
                failures.append((v, f"Mobius cross-check failed at {u}"))
                break
    return failures, vertices_checked


def slope_loop_report(ball):
    """The link labelling report as one loop over Slope pairs: the reference."""
    failures, vertices_checked = slope_loop_failures(ball)
    return [
        {
            "name": "link_labelings",
            "ok": not failures,
            "vertices_checked": vertices_checked,
            "failures": [{"vertex": v, "error": error} for v, error in failures[:5]],
        }
    ]


def pass_failures(ball):
    """Every failure of ``link_labeling_report`` as (vertex, error), untruncated."""
    return [(f[0], f[4]) for f in tet_tree._link_failures(ball)[0]]


def ball_with_extra_link_edges(radius, v, count=1):
    """A fresh ball with edges from the first link member of v to ``count`` others it misses."""
    b = generate_ball(radius)
    members = b.neighbors(v).tolist()
    x = members[0]
    return with_edges(b, add=[(x, y) for y in [u for u in members[1:] if not has_edge(b, x, u)][:count]])


def base_of(ball, v, addr):
    """The other three vertices of the tetrahedron at ``addr``, in slot order: a base triple of v."""
    return tuple(x for x in ball.tets[addr] if x != v)


# A seed for the links at slot 0 that is not a Farey triangle: (0/1, 1/0, 2/1).
BAD_SEED = tet_tree._SEED.copy()
BAD_SEED[0, 3] = (2, 1)


class TestLinkLabelingReport:
    def test_crossing_rule_matches_common_neighbors(self):
        # Every adjacent pair in a box of slopes: x + y and x - y, with the
        # sign fixed, are the two common neighbours and are already reduced.
        box = {Slope.of(p, q) for p in range(-12, 13) for q in range(0, 13) if (p, q) != (0, 0)}
        pairs = 0
        for x in box:
            for y in box:
                if not farey_adjacent(x, y):
                    continue
                (p, q), (r, s) = (x.num, x.den), (y.num, y.den)
                rule = {Slope(*_slope_pair(p + r, q + s)), Slope(*_slope_pair(p - r, q - s))}
                assert rule == common_neighbors(x, y)
                pairs += 1
        assert pairs == 730

    @pytest.mark.parametrize("radius", range(6))
    def test_matches_slope_loop(self, ball, radius):
        assert link_labeling_report(ball(radius)) == slope_loop_report(ball(radius))

    @pytest.mark.parametrize("v, count", [(0, 1), (8, 1), (0, 3)])
    def test_extra_edges_match_slope_loop(self, v, count):
        b = ball_with_extra_link_edges(3, v, count)
        (report,) = link_labeling_report(b)
        assert not report["ok"]
        assert [report] == slope_loop_report(b)
        mismatches = [f for f in report["failures"] if f["vertex"] == v]
        assert len(mismatches) == count
        assert all(f["error"].startswith("edge mismatch") for f in mismatches)

    @pytest.mark.parametrize("block", [1, 40])
    def test_block_size_does_not_change_records(self, monkeypatch, block):
        # Block 1 scores every vertex alone, one row at a time.
        b = ball_with_extra_link_edges(3, 0, 3)
        want = link_labeling_report(b)
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        assert link_labeling_report(b) == want

    def test_swapped_vertices_name_the_tetrahedra(self):
        # After the swap '010' differs from '01' in two slots: no link is labelled.
        fault = "tetrahedron '010' does not change exactly one slot of its parent"
        error = f"ball is not shaped like a generated one: {fault}"
        assert link_labeling_report(ball_with_swapped_vertices()) == [
            {
                "name": "link_labelings",
                "ok": False,
                "vertices_checked": 0,
                "failures": [{"vertex": v, "error": error} for v in range(5)],
            }
        ]

    def test_crossing_failure_names_the_row(self, monkeypatch):
        # Every crossing out of a slot-0 seed fails; a vertex at slot 0 in more than one
        # row gets one record, naming the first row entered by a failing crossing.
        monkeypatch.setattr(tet_tree, "_SEED", BAD_SEED)
        b = generate_ball(2)
        failures, checked = tet_tree._link_failures(b)
        assert [f for f in failures if f[1] == 0] == [
            (0, 0, 0, 0, "link of vertex 0 does not unfold like the Farey complex into ''"),
            (4, 0, 0, 0, "link of vertex 4 does not unfold like the Farey complex into '0'"),
        ]
        assert checked == b.n_vertices - 2

    def test_relabelling_failure_is_a_record(self, monkeypatch):
        # The bad seed in the second labelling of slot 0 only: the walk up from the last
        # row of each slot-0 vertex fails, and the first labelling stays clean.
        b = generate_ball(2)
        slot_labels, calls = tet_tree._slot_labels, []

        def corrupted(ball, born, cross, j, start):
            calls.append(j)
            with monkeypatch.context() as m:
                if calls == [0, 0]:
                    m.setattr(tet_tree, "_SEED", BAD_SEED)
                return slot_labels(ball, born, cross, j, start)

        monkeypatch.setattr(tet_tree, "_slot_labels", corrupted)
        failures, checked = tet_tree._link_failures(b)
        crossings = {f[0]: f[4] for f in failures if f[1] == 0}
        assert sorted(crossings) == [v for v in b.vertices() if b.colour[v] == 0 and len(b.support(v)) > 1]
        assert crossings[4] == "link of vertex 4 does not unfold like the Farey complex into '0'"
        assert checked == b.n_vertices - len(crossings)

    def test_injectivity_failure_is_a_record(self, ball, monkeypatch):
        # Member 2 of the link of vertex 0 takes member 1's first label 0/1 in every row:
        # only the injectivity check and the Mobius check can notice, and injectivity wins.
        slot_labels, calls = tet_tree._slot_labels, []

        def corrupted(ball, born, cross, j, start):
            labels, big, bad = slot_labels(ball, born, cross, j, start)
            calls.append(j)
            if calls == [0]:
                labels[(ball.verts[:, 0] == 0) & (ball.verts[:, 2] == 2), 2] = (0, 1)
            return labels, big, bad

        monkeypatch.setattr(tet_tree, "_slot_labels", corrupted)
        b = ball(3)
        assert tet_tree._link_failures(b) == (
            [(0, 0, 0, 0, "link labeling of vertex 0 is not injective")],
            b.n_vertices - 1,
        )

    def test_mobius_failure_follows_the_edge_mismatches(self, monkeypatch):
        # The second labels of the two greatest members x < y of the link of vertex 0 are
        # swapped in every row: only the Mobius check notices, and its record follows the
        # edge mismatches of the extra edges, which are the slope loop's.
        b = ball_with_extra_link_edges(3, 0, 2)
        x, y = b.neighbors(0).tolist()[-2:]
        slot_labels, calls = tet_tree._slot_labels, []

        def swapped(ball, born, cross, j, start):
            labels, big, bad = slot_labels(ball, born, cross, j, start)
            calls.append(j)
            if calls == [0, 0]:
                mine, colour = ball.verts[:, 0] == 0, ball.colour
                at = {u: mine & (ball.verts[:, colour[u]] == u) for u in (x, y)}
                first = {u: labels[at[u], colour[u]][0].copy() for u in (x, y)}
                labels[at[x], colour[x]], labels[at[y], colour[y]] = first[y], first[x]
            return labels, big, bad

        monkeypatch.setattr(tet_tree, "_slot_labels", swapped)
        want, _ = slope_loop_failures(b)
        at = max(i for i, (v, _) in enumerate(want) if v == 0) + 1
        want.insert(at, (0, f"Mobius cross-check failed at {x}"))
        assert pass_failures(b) == want
        assert [e.split(" at ")[0] for v, e in want if v == 0] == ["edge mismatch"] * 2 + ["Mobius cross-check failed"]

    def test_label_limit_raises(self, ball, monkeypatch):
        # The radius-1 link of vertex 0 reaches the label 2/1.
        monkeypatch.setattr(tet_tree, "LABEL_LIMIT", 3)
        assert link_labeling_report(ball(1))[0]["ok"]
        monkeypatch.setattr(tet_tree, "LABEL_LIMIT", 2)
        with pytest.raises(BudgetError, match="limit of the pair check"):
            link_labeling_report(ball(1))

    @pytest.mark.parametrize("flags", [(), (0,), (1,), (2, 3), "all"])
    def test_label_limit_names_the_least_vertex(self, monkeypatch, flags):
        # The error comes before any record: it names the least vertex holding a label
        # over the limit in either labelling, also when the listed vertices (or all of
        # them) fail the coverage check because one of their edges is cut.
        b = generate_ball(2)
        support = support_sets(b)
        over = sorted(
            {
                v
                for v in b.vertices()
                for addr in (min(support[v]), max(support[v]))
                if max(abs(x) for label in _link_labels(b, v, base_of(b, v, addr)).values() for x in label) >= 3
            }
        )
        assert over == [0, 1, 2, 3]
        cut = b.edges().tolist() if flags == "all" else [(v, int(b.neighbors(v)[-1])) for v in flags]
        with_edges(b, remove=cut)
        uncovered = {f[0] for f in tet_tree._link_failures(b)[0] if f[1] == 1}
        assert set(b.vertices() if flags == "all" else flags) <= uncovered
        monkeypatch.setattr(tet_tree, "LABEL_LIMIT", 3)
        with pytest.raises(BudgetError, match=f"of vertex {over[0]} reaches"):
            link_labeling_report(b)


def ball_reusing(radius, addr, u):
    """The ball whose crossing into ``addr`` puts the existing vertex u at the crossed slot
    instead of a fresh vertex; the later ids close the gap."""
    tets = generate_ball(radius).tets
    fresh = tets[addr][int(addr[-1])]
    return TetBall(radius, {a: tuple(u if x == fresh else x - (x > fresh) for x in vs) for a, vs in tets.items()})


def ball_without(radius, addr):
    """The ball with the tetrahedron at ``addr`` deleted and its children kept."""
    tets = dict(generate_ball(radius).tets)
    del tets[addr]
    return TetBall(radius, tets)


def ball_with_swapped_vertices():
    """The radius-3 ball of ``test_swapped_vertices_name_the_tetrahedra``."""
    tets = dict(generate_ball(3).tets)
    a, c = list(tets["01"]), list(tets["32"])
    a[1], c[2] = c[2], a[1]
    tets["01"], tets["32"] = tuple(a), tuple(c)
    return TetBall(3, tets)


def ball_with_moved_vertex(radius, addr, k):
    """The ball whose fresh vertex at ``addr`` sits at slot k instead of the crossed slot."""
    tets = dict(generate_ball(radius).tets)
    row = list(tets[addr[:-1]])
    row[k] = tets[addr][int(addr[-1])]
    tets[addr] = tuple(row)
    return TetBall(radius, tets)


def ball_without_edge(radius, x, y):
    return with_edges(generate_ball(radius), remove=[(x, y)])


MALFORMED = {
    "extra_edge_0": lambda: ball_with_extra_link_edges(3, 0, 1),
    "extra_edge_8": lambda: ball_with_extra_link_edges(3, 8, 1),
    "extra_edges_0": lambda: ball_with_extra_link_edges(3, 0, 3),
    "missing_edge": lambda: ball_without_edge(3, 4, 8),
    "swapped": ball_with_swapped_vertices,
    "missing_parent": lambda: ball_without(3, "01"),
    "missing_root_child": lambda: ball_without(3, "2"),
    "reused_dropped": lambda: ball_reusing(3, "01", 1),
    "reused_other": lambda: ball_reusing(3, "01", 5),
    "moved_leaf": lambda: ball_with_moved_vertex(3, "012", 0),
    "moved_inner": lambda: ball_with_moved_vertex(3, "01", 3),
}


# The malformed balls ``_link_shape`` rejects, with the first row that breaks the shape.
NOT_SHAPED = {
    "missing_parent": "tetrahedron '010' has no parent in the ball",
    "missing_root_child": "tetrahedron '20' has no parent in the ball",
    "moved_inner": "tetrahedron '010' does not change exactly one slot of its parent",
    "reused_dropped": "tetrahedron '01' does not change exactly one slot of its parent",
    "reused_other": "tetrahedron '01' reuses vertex 5",
    "swapped": "tetrahedron '010' does not change exactly one slot of its parent",
}


class TestLinkPass:
    @pytest.mark.parametrize("radius", range(7))
    def test_labels_match_both_searches(self, ball, radius):
        b = ball(radius)
        failures, labels, relabels = tet_tree._link_pass(b)
        assert not failures
        support = support_sets(b)
        for v in b.vertices():
            lo, hi = b.indptr[v], b.indptr[v + 1]
            members = b.indices[lo:hi].tolist()
            for table, addr in ((labels, min(support[v])), (relabels, max(support[v]))):
                found = _link_labels(b, v, base_of(b, v, addr))
                assert [found[u] for u in members] == [tuple(x) for x in table[lo:hi].tolist()]

    @pytest.mark.parametrize("radius", range(7))
    def test_clean_ball_takes_no_search(self, ball, monkeypatch, radius):
        # The pass reads the table and the CSR arrays whole: no query per vertex.
        def no_search(*args):
            raise AssertionError("per-vertex query on a clean ball")

        b = ball(radius)
        for name in ("neighbors", "support", "vertex_depth"):
            monkeypatch.setattr(TetBall, name, no_search)
        (report,) = link_labeling_report(b)
        assert report["ok"] and report["vertices_checked"] == b.n_vertices

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_ball_matches_slope_loop(self, name):
        # On a shaped ball the pass fails on exactly the slope loop's vertices, with its edge
        # mismatches; on any other ball no link is labelled and every vertex has the record
        # naming the fault, so again every vertex the slope loop fails on has a record.
        b = MALFORMED[name]()
        (report,) = link_labeling_report(b)
        failures, (want, _) = pass_failures(b), slope_loop_failures(b)
        assert not report["ok"]
        if name in NOT_SHAPED:
            error = f"ball is not shaped like a generated one: {NOT_SHAPED[name]}"
            assert report["vertices_checked"] == 0
            assert report["failures"][0] == {"vertex": 0, "error": error}
            assert failures == [(v, error) for v in b.vertices()]
            assert {v for v, _ in want} <= {v for v, _ in failures}
        else:
            assert {v for v, _ in failures} == {v for v, _ in want}

            def edge(records):
                return [(v, e) for v, e in records if e.startswith("edge mismatch")]

            assert edge(failures) == edge(want)

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_cleared_vertices_pass_the_per_vertex_check(self, name):
        # The pass clears a vertex only if the per-vertex searches from both bases
        # give its labels; on a ball it rejects it labels no link.
        b = MALFORMED[name]()
        failures, labels, relabels = tet_tree._link_pass(b)
        flagged = {f[0] for f in failures}
        if name in NOT_SHAPED:
            assert labels is None and relabels is None and flagged == set(b.vertices())
            return
        cleared = sorted(set(b.vertices()) - flagged)
        assert 0 < len(cleared) < b.n_vertices
        support = support_sets(b)
        for v in cleared:
            lo, hi = b.indptr[v], b.indptr[v + 1]
            members = b.indices[lo:hi].tolist()
            for table, addr in ((labels, min(support[v])), (relabels, max(support[v]))):
                found = link_slope_labeling(b, v, base_of(b, v, addr))
                assert [found[u] for u in members] == [Slope(*x) for x in table[lo:hi].tolist()]

    @pytest.mark.parametrize(
        "tets, fault",
        [
            ({"": (-1, 1, 2, 3)}, "tetrahedron '' holds a negative vertex id"),
            ({"": (0, 1, 2, 3), "0": (4, 1, 2, 3), "00": (5, 1, 2, 3)}, "tetrahedron '00' is not a reduced word"),
            ({"": (0, 1, 2, 3), "4": (0, 1, 2, 4)}, "tetrahedron '4' is not a reduced word"),
            ({a: vs for a, vs in _unfold(1).items() if a != "2"}, "vertex 6 is in no tetrahedron"),
        ],
    )
    def test_other_shape_faults(self, tets, fault):
        b = TetBall(2, tets)
        error = f"ball is not shaped like a generated one: {fault}"
        assert tet_tree._link_failures(b) == ([(v, 0, 0, 0, error) for v in b.vertices()], 0)

    def test_second_labelling_is_checked_at_every_slot(self, ball, monkeypatch):
        # Relabel one neighbour of each root vertex consistently in every
        # tetrahedron: only the Mobius check can notice.
        slot_labels = tet_tree._slot_labels
        calls = []

        def corrupted(ball, born, cross, j, start):
            labels, big, bad = slot_labels(ball, born, cross, j, start)
            calls.append(j)
            if calls.count(j) == 2:
                k = (j + 1) % 4
                labels[(ball.verts[:, j] == j) & (ball.verts[:, k] == k), k] = (7, 3)
            return labels, big, bad

        monkeypatch.setattr(tet_tree, "_slot_labels", corrupted)
        failures, labels, relabels = tet_tree._link_pass(ball(3))
        assert failures == [(j, 3, 0, 0, f"Mobius cross-check failed at {(j + 1) % 4}") for j in range(4)]
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3]


# ---------------------------------------------------------------------------
# Cofaces and cliques

class TestTriangleCofaces:
    def test_root_face_examples(self, ball):
        assert triangle_cofaces(ball(1), (1, 2, 3)) == ("", "0")
        assert triangle_cofaces(ball(0), (1, 2, 3)) == ("",)

    def test_interior_triangles_have_two_tree_adjacent_cofaces(self, ball):
        b = ball(3)
        for addr, verts in b.tets.items():
            if len(addr) > b.radius - 1:
                continue
            for i in range(4):
                tri = tuple(verts[j] for j in range(4) if j != i)
                cof = triangle_cofaces(b, tri)
                assert len(cof) == 2
                assert tree_distance(cof[0], cof[1]) == 1

    def test_no_triangle_has_three_cofaces(self, ball):
        b = ball(3)
        seen = set()
        for verts in b.tets.values():
            for i in range(4):
                tri = frozenset(verts[j] for j in range(4) if j != i)
                if tri not in seen:
                    seen.add(tri)
                    assert len(triangle_cofaces(b, tuple(tri))) <= 2

    @pytest.mark.parametrize("name", ["radius_0", "radius_3", "radius_4", "swapped", "missing_parent", "reused_dropped", "moved_inner"])
    def test_face_cofaces_match(self, ball, name):
        b = ball(int(name[-1])) if name.startswith("radius") else MALFORMED[name]()
        rows, slots = np.divmod(np.arange(4 * len(b.verts)), 4)
        expected = [triangle_cofaces(b, np.delete(b.verts[t], i).tolist()) for t, i in zip(rows, slots)]
        assert tet_tree.face_cofaces(b, rows, slots) == expected

    def test_rejects_non_triangle(self, ball):
        with pytest.raises(ValueError):
            triangle_cofaces(ball(1), (0, 1, 4))  # 0 and 4 are not adjacent
        with pytest.raises(ValueError):
            triangle_cofaces(ball(1), (0, 1, 1))


def four_cliques_loop(b):
    """Reference for ``four_cliques``: pairs of common neighbours of each edge, as sets."""
    cliques = set()
    adj = adjacency_sets(b)
    for v, w in b.edges().tolist():
        common = sorted(adj[v] & adj[w])
        for i, x in enumerate(common):
            cliques.update(frozenset((v, w, x, y)) for y in common[i + 1 :] if y in adj[x])
    return cliques


def triangles_loop(b):
    """Reference for ``TetBall.triangles``: the 3-cliques v < w < x of the adjacency sets."""
    adj = adjacency_sets(b)
    return [[v, w, x] for v in b.vertices() for w in sorted(adj[v]) if w > v for x in sorted(adj[v] & adj[w]) if x > w]


def link_edges_loop(b):
    """Reference for ``_link_edges``: the common neighbours of each directed edge (v, x),
    one ``common_neighbors`` query per block of edges, as (v, i * k + j) arrays."""
    indptr, indices = b.indptr, b.indices
    n = len(indptr) - 1
    degree = np.diff(indptr)
    tail = np.repeat(np.arange(n), degree)
    csr = tail * n + indices
    found = []
    step = tet_tree._block_rows(8)
    for e0 in range(0, max(len(indices), 1), step):
        e = np.arange(e0, min(e0 + step, len(indices)))
        row, y = tet_tree.common_neighbors(b, np.column_stack([tail[e], indices[e]]))
        e = e[row]
        v = tail[e]
        i, j = e - indptr[v], np.searchsorted(csr, v * n + y) - indptr[v]
        keep = i < j
        found.append((v[keep], (i * degree[v] + j)[keep]))
    vs, keys = zip(*found)
    return np.concatenate(vs), np.concatenate(keys)


# The balls the clique and link-edge fast paths are checked on: generated
# balls, every malformed ball, and the radius-1 ball closed into a 5-clique.
ORACLE_BALLS = [f"radius_{n}" for n in range(7)] + sorted(MALFORMED) + ["five_clique"]


def named_ball(ball, name):
    if name.startswith("radius"):
        return ball(int(name[-1]))
    if name == "five_clique":
        return with_edges(generate_ball(1), add=[(0, 4)])
    if name == "older_8":
        # The last vertex, 55, joined to 0..6: an older prefix of 8, which closes four
        # 5-cliques with the root tetrahedron and three of its neighbours.
        b = generate_ball(3)
        return with_edges(b, add=[(b.n_vertices - 1, u) for u in range(7)])
    return MALFORMED[name]()


# The clique lister against the common-neighbour construction: every oracle ball, two larger
# generated balls and a ball with an older prefix over 3, at three block sizes (radius 8 at
# the default only, where blocks of 1 would take seconds).
LISTER_CASES = [
    (name, block)
    for name in ORACLE_BALLS + ["older_8", "radius_7"]
    for block in (1, 7, tet_tree.BLOCK_ELEMS)
] + [("radius_8", tet_tree.BLOCK_ELEMS)]
_clique_oracle = {}


def clique_oracle(b, name):
    """The common-neighbour construction's 3-cliques, 4-cliques and 4-cliques with a common neighbour."""
    if name not in _clique_oracle:
        _clique_oracle[name] = [f(b).tolist() for f in (triangles_by_common_neighbors, four_cliques_by_runs, four_cliques_with_a_common_neighbor)]
    return _clique_oracle[name]


def tree_neighbors_in(addr, members):
    """The tree neighbours of ``addr`` among the addresses ``members``: parent, then children."""
    near = [addr[:-1]] if addr else []
    near += [addr + letter for letter in ALPHABET if not addr or addr[-1] != letter]
    return [a for a in near if a in members]


def support_bfs(members):
    """Reference for ``support_connected``: breadth-first search inside ``members``."""
    start = min(members)
    seen = {start}
    queue = deque([start])
    while queue:
        addr = queue.popleft()
        for nb in tree_neighbors_in(addr, members):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(members)


class TestCliques:
    def test_four_cliques_are_exactly_tets(self, ball):
        for n in (0, 1, 2, 3):
            b = ball(n)
            assert four_cliques(b).tolist() == sorted(sorted(t) for t in b.tets.values())

    @pytest.mark.parametrize("name", ORACLE_BALLS)
    def test_four_cliques_match_loop(self, ball, name):
        b = named_ball(ball, name)
        cliques = four_cliques(b).tolist()
        assert cliques == sorted(cliques) and all(q == sorted(set(q)) for q in cliques)
        assert {frozenset(q) for q in cliques} == four_cliques_loop(b)

    def test_no_five_cliques(self, ball):
        b = ball(3)
        adj = adjacency_sets(b)
        for q in four_cliques(b).tolist():
            assert not set.intersection(*(adj[v] for v in q))

    @pytest.mark.parametrize("name", ORACLE_BALLS)
    def test_triangles_match_loop(self, ball, name):
        b = named_ball(ball, name)
        assert b.triangles.tolist() == triangles_loop(b)

    @pytest.mark.parametrize("name", ORACLE_BALLS)
    def test_link_edges_match_loop(self, ball, name):
        b = named_ball(ball, name)
        owner, keys = tet_tree._link_edges(b)
        want = link_edges_loop(b)
        assert sorted(zip(owner.tolist(), keys.tolist())) == sorted(zip(want[0].tolist(), want[1].tolist()))
        assert len(owner) == 3 * len(b.triangles)

    @pytest.mark.parametrize("name, block", LISTER_CASES, ids=[f"{n}-{b}" for n, b in LISTER_CASES])
    def test_lister_matches_the_common_neighbour_construction(self, monkeypatch, ball, name, block):
        b = named_ball(ball, name)
        triangles, fours, with_common = clique_oracle(b, name)
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        for k, want in ((3, triangles), (4, fours), (5, None)):
            cliques, down = tet_tree._cliques(b, k)
            assert len(tet_tree._lex_rows(cliques)) == len(cliques)  # each clique once
            assert (np.diff(cliques, axis=1) > 0).all()
            if want is not None:
                assert tet_tree._lex_rows(cliques).tolist() == want
            pairs = list(combinations(range(k), 2))
            assert down.shape == (len(cliques), len(pairs))
            for p, (i, j) in enumerate(pairs):
                assert down[:, p].tolist() == tet_tree._edge_pos(b, cliques[:, j], cliques[:, i]).tolist()
        subsets = {tuple(np.delete(q, s)) for q in cliques.tolist() for s in range(5)}
        assert subsets == set(map(tuple, with_common))
        if name in {"five_clique", "older_8"}:
            assert len(cliques) and check(b, "four_cliques_are_tets")["five_cliques"] == with_common[:5]

    def test_subset_table_over_budget_is_refused(self, monkeypatch):
        # The 70 4-subsets of the older prefix of 8 take 2,240 bytes as one int64 table.
        b = named_ball(None, "older_8")
        monkeypatch.setattr(tet_tree, "MAX_TABLE_BYTES", 2239)
        with pytest.raises(BudgetError, match="the 4-subsets of an older prefix of 8 needs"):
            tet_tree._cliques(b, 5)
        monkeypatch.setattr(tet_tree, "MAX_TABLE_BYTES", 2240)
        assert len(tet_tree._cliques(b, 5)[0]) == 4

    def test_edit_after_cliques_is_seen(self):
        # Cliques listed before the edit belong to the old CSR; the edited
        # ball must report what a ball edited first reports.
        b = generate_ball(1)
        four_cliques(b)
        with_edges(b, add=[(0, 4)])
        fresh = with_edges(generate_ball(1), add=[(0, 4)])
        assert check(b, "four_cliques_are_tets") == check(fresh, "four_cliques_are_tets")
        assert check(b, "four_cliques_are_tets")["five_cliques"][0] == [0, 1, 2, 3]
        (report,) = link_labeling_report(b)
        assert [report] == link_labeling_report(fresh)
        assert any(f["error"] == "edge mismatch at (0, 4)" for f in report["failures"])


class TestCommonNeighbors:
    @pytest.mark.parametrize("radius", range(5))
    def test_csr_is_the_sorted_adjacency(self, ball, radius):
        b = ball(radius)
        adjacency = coresidence_sets(b)
        rows = [b.indices[b.indptr[v] : b.indptr[v + 1]].tolist() for v in b.vertices()]
        assert rows == [sorted(adjacency[v]) for v in b.vertices()]

    @pytest.mark.parametrize("block", [tet_tree.BLOCK_ELEMS, 7, 1, 64])
    @pytest.mark.parametrize("graph", ["tet", "curve"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_set_intersection(self, monkeypatch, ball, cgraph, graph, k, block):
        # Rows of neighbours of a random centre, so that many rows have a
        # common neighbour, with a random vertex in place of one at times;
        # some rows repeat a vertex.  Blocks 1, 7 and 64 split rows across blocks.
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        g = ball(4) if graph == "tet" else cgraph(3)
        size = len(g.indptr) - 1
        adj = [set(g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()) for v in range(size)]
        rng = random.Random(k)
        verts = []
        for _ in range(300):
            near = sorted(adj[rng.randrange(size)])
            verts.append([rng.choice(near) if rng.random() < 0.8 else rng.randrange(size) for _ in range(k)])
        row, v = tet_tree.common_neighbors(g, np.array(verts))
        expected = [(r, u) for r, q in enumerate(verts) for u in sorted(set.intersection(*(adj[x] for x in q)))]
        assert list(zip(row.tolist(), v.tolist())) == expected
        assert len(expected) > 100 and (k == 1 or len(set(row.tolist())) < len(verts))

    def test_no_rows(self, ball):
        row, v = tet_tree.common_neighbors(ball(2), np.zeros((0, 3), dtype=np.int64))
        assert len(row) == len(v) == 0

    def test_distinct_of_nothing(self):
        # A one-entry mask on an empty array used to raise IndexError.
        assert tet_tree._distinct(np.empty(0, dtype=np.int64)).tolist() == []
        assert tet_tree._lex_rows(np.empty((0, 4), dtype=np.int64)).shape == (0, 4)
        assert tet_tree._distinct(np.array([[3, 1], [3, 2]])).tolist() == [1, 2, 3]

    def test_block_size_does_not_change_cliques(self, monkeypatch, ball):
        cliques = four_cliques(ball(4))
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", 5)
        assert np.array_equal(four_cliques(generate_ball(4)), cliques)


def edge_positions(adjacency):
    """Reference for ``tet_tree._edge_pos``: (a, b) -> its position in the CSR of the sorted rows of
    ``adjacency`` (a list of sets), counted from the sets alone."""
    pos, start = {}, 0
    for a, row in enumerate(adjacency):
        pos.update(((a, b), start + k) for k, b in enumerate(sorted(row)))
        start += len(row)
    return pos


def check_edge_pos(graph, adjacency, seed):
    """``_edge_pos`` on every directed edge of ``adjacency``, random pairs and ids outside 0..n-1."""
    n, want = len(adjacency), edge_positions(adjacency)
    rng = np.random.default_rng(seed)
    pairs = np.concatenate(
        [
            np.array(list(want), dtype=np.int64).reshape(-1, 2),
            rng.integers(-2, n + 2, size=(2000, 2)),
            [[0, n], [n, 0], [-1, 1], [1, -1], [n - 1, n], [0, -n], [1 << 42, 0], [0, 1 << 42]],
        ]
    )
    pos = tet_tree._edge_pos(graph, pairs[:, 0], pairs[:, 1])
    assert pos.tolist() == [want.get((a, b), -1) for a, b in pairs.tolist()]
    # (a - 1, n + b) has the key of the edge (a, b): (0, n) that of (1, 0) on a ball.
    a, b = next(e for e in want if e[0] >= 1)
    assert tet_tree._edge_pos(graph, a - 1, n + b) == -1
    grid = pairs[:12].reshape(3, 4, 2)
    assert tet_tree._edge_pos(graph, grid[..., 0], grid[..., 1]).tolist() == pos[:12].reshape(3, 4).tolist()


class TestEdgePos:
    @pytest.mark.parametrize("radius", range(9))
    def test_matches_the_adjacency_sets(self, ball, cgraph, radius):
        # The curve adjacency comes from ball.edges(), not from the curve CSR.
        check_edge_pos(ball(radius), coresidence_sets(ball(radius)), radius)
        curve = subdivide_oracle(ball(radius))
        check_edge_pos(cgraph(radius), [curve[i] for i in range(len(curve))], radius)

    @pytest.mark.parametrize("name", sorted(MALFORMED) + ["five_clique"])
    def test_reads_the_csr_as_edited(self, ball, name):
        # Malformed and edited balls: the positions are those of the CSR as it stands.
        b = named_ball(ball, name)
        check_edge_pos(b, adjacency_sets(b), 1)
        with_edges(b, add=[(0, b.n_vertices - 1)], remove=[(0, 1)])
        check_edge_pos(b, adjacency_sets(b), 2)

    def test_graph_without_edges(self):
        # An empty index has no last key: every query is a miss, also through pair_ids.
        b = generate_ball(0)
        with_edges(b, remove=b.edges().tolist())
        assert b.n_edges() == 0
        assert tet_tree._edge_pos(b, [0], [1]).tolist() == [-1]
        assert tet_tree._edge_pos(b, [[0, 1], [2, 4]], [[1, 0], [3, -1]]).tolist() == [[-1, -1], [-1, -1]]
        assert subdivide(b).pair_ids(0, 1) == -1

    def test_verify_builds_one_index_per_graph(self, monkeypatch):
        # Every edge query of a verify run searches an index its graph built once: one for
        # the ball and one for its curve graph, however many queries the checks make.
        edge_pos, searched = tet_tree._edge_pos, []

        def spy(graph, a, b):
            pos = edge_pos(graph, a, b)
            searched.append((graph, graph._keys))
            return pos

        monkeypatch.setattr(tet_tree, "_edge_pos", spy)
        assert cli.run_verify(8)["ok"]
        graphs = {id(g): type(g).__name__ for g, _ in searched}
        assert len(searched) >= 13
        assert sorted(graphs.values()) == ["CurveGraphBall", "TetBall"]
        assert len({id(keys) for _, keys in searched}) == 2


class TestSupport:
    def test_supports_tree_connected(self, ball):
        for n in (1, 2, 3):
            b = ball(n)
            assert all(support_connected(b, v) for v in b.vertices())

    def test_supports_tree_connected_radius_six(self, ball):
        # Equivalent to: generation never re-identifies a fresh vertex.
        b = ball(6)
        assert all(support_connected(b, v) for v in b.vertices())

    @pytest.mark.parametrize("radius", range(5))
    def test_support_rows_hold_the_vertex(self, ball, radius):
        b = ball(radius)
        support, rows = support_sets(b), b.rows
        for v in b.vertices():
            assert [b.addrs[t] for t in b.support(v)] == sorted(support[v], key=rows.get)

    @pytest.mark.parametrize("radius", range(6))
    def test_creation_row_is_top_of_support(self, ball, radius):
        b = ball(radius)
        support = support_sets(b)
        assert [b.addrs[t] for t in b.born] == [min(support[v]) for v in b.vertices()]
        assert b.depth[b.born].tolist() == [b.vertex_depth(v) for v in b.vertices()]

    @pytest.mark.parametrize("radius", range(5))
    def test_ancestors_are_prefixes(self, ball, radius):
        b = ball(radius)
        for t, addr in enumerate(b.addrs):
            want = [b.rows[addr[:k]] for k in range(len(addr) + 1)]
            assert b.ancestors[t].tolist() == want + [-1] * (radius - len(addr))

    @pytest.mark.parametrize("radius", range(6))
    def test_colour_is_the_slot_of_every_vertex(self, ball, radius):
        b = ball(radius)
        assert b.colour == [0, 1, 2, 3] + b.face[1:].tolist()
        assert all(b.colour[v] == s for row in b.verts.tolist() for s, v in enumerate(row))

    def test_dict_edits_after_building_change_nothing(self):
        d = dict(generate_ball(1).tets)
        b = TetBall(1, d)
        d["0"] = (9, 9, 9, 9)
        assert b.tets["0"] == (4, 1, 2, 3) == tuple(b.verts[1].tolist())
        assert b.tets == generate_ball(1).tets

    @pytest.mark.parametrize(
        "rows, parent, depth",
        [(2, [-1, -1], [0, 0]), (2, [-1, 0], [0, 0]), (2, [1, 0], [0, 1]), (0, [], [])],
        ids=["two_roots", "second_root_has_a_parent", "root_has_a_parent", "empty"],
    )
    def test_colour_needs_exactly_one_root(self, rows, parent, depth):
        # Each of these balls passes every other check of colour.
        verts = np.array([[0, 1, 2, 3], [4, 1, 2, 3]])[:rows]
        b = TetBall.from_rows(0, verts, np.array(parent, dtype=np.int64), np.array([-1, 0])[:rows], np.array(depth))
        with pytest.raises(ValueError, match="other than one depth-0 tetrahedron with parent -1"):
            b.colour

    def test_from_rows_takes_lists_as_arrays(self):
        rows = ([[0, 1, 2, 3]], [-1], [-1], [0])
        b, want = TetBall.from_rows(0, *rows), TetBall.from_rows(0, *map(np.array, rows))
        assert all(getattr(b, k).dtype == np.int64 for k in ("verts", "parent", "face", "depth"))
        assert (b.colour, b.n_vertices, b.tets) == (want.colour, want.n_vertices, want.tets)
        assert structural_report(b) == structural_report(want)

    @pytest.mark.parametrize("field, value", [("parent", 17), ("parent", -2), ("face", 4), ("face", -2), ("depth", -1)])
    def test_from_rows_refuses_an_index_out_of_range(self, field, value):
        # A parent of 17 on this 2-row ball used to end in an IndexError inside structural_report.
        rows = {"verts": [[0, 1, 2, 3], [4, 1, 2, 3]], "parent": [-1, 0], "face": [-1, 0], "depth": [0, 1]}
        rows[field][1] = value
        with pytest.raises(ValueError, match=f"{field} of row 1 out of range"):
            TetBall.from_rows(1, *rows.values())

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: {**r, "verts": [v[:3] for v in r["verts"]]},
            lambda r: {**r, "verts": sum(r["verts"], [])},
            lambda r: {**r, "parent": r["parent"][:1]},
            lambda r: {**r, "depth": r["depth"] + [2]},
            lambda r: {**r, "face": [r["face"]]},
        ],
        ids=["three_wide", "flat_verts", "short_parent", "long_depth", "nested_face"],
    )
    def test_from_rows_refuses_a_wrong_shape(self, edit):
        rows = edit({"verts": [[0, 1, 2, 3], [4, 1, 2, 3]], "parent": [-1, 0], "face": [-1, 0], "depth": [0, 1]})
        with pytest.raises(ValueError, match="rows are not T x 4, T, T, T"):
            TetBall.from_rows(1, *rows.values())

    @pytest.mark.parametrize(
        "field, value",
        [("verts", 3.9), ("depth", 0.5), ("verts", None), ("parent", None), ("verts", 2**70), ("face", -(2**70))],
        ids=["fraction_id", "fraction_depth", "none_id", "none_parent", "huge_id", "huge_face"],
    )
    def test_from_rows_refuses_what_int64_would_change(self, field, value):
        # A fraction used to be truncated, None to raise a bare TypeError and 2**70 an OverflowError.
        rows = {"verts": [[0, 1, 2, 3], [4, 1, 2, 3]], "parent": [-1, 0], "face": [-1, 0], "depth": [0, 1]}
        if field == "verts":
            rows["verts"][1][3] = value
        else:
            rows[field][1] = value
        with pytest.raises(ValueError, match=f"^{field} holds an entry that is not an integer in int64$"):
            TetBall.from_rows(1, *rows.values())

    @pytest.mark.parametrize(
        "parent, face, addrs",
        [([-1, 0], [-1, -1], ["", "<row 1>"]), ([-1, -1], [-1, 0], ["", "<row 1>"]), ([1, 0], [-1, 0], ["<row 0>", "<row 0>0"])],
        ids=["no_face_under_a_parent", "second_root", "parent_after_child"],
    )
    def test_rows_without_an_address_are_named_by_row(self, parent, face, addrs):
        # These rows used to be named '3', '' (the root's) and '3' with its child '30'.
        b = TetBall.from_rows(1, [[0, 1, 2, 3], [4, 1, 2, 3]], parent, face, [0, 1])
        assert b.addrs == addrs and len(b.tets) == 2
        assert {c["name"]: c for c in structural_report(b)}["addresses_reduced"]["bad"] == [a for a in addrs if a]
        assert [t["addr"] for t in ball_to_json(b)["tets"]] == addrs

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(["verts", "parent", "face", "depth"]),
        row=st.integers(0, 16),
        slot=st.integers(0, 3),
        value=st.one_of(
            st.integers(-3, 20), st.floats(-3, 20), st.none(), st.sampled_from([2**63, -(2**63) - 1, 2**70])
        ),
    )
    @example(field="face", row=5, slot=0, value=-1)  # face -1 under a parent
    @example(field="parent", row=0, slot=0, value=0)  # a parent at depth 0: the link pass raised
    @example(field="verts", row=3, slot=1, value=-1)  # a negative id: ball_to_json raised a numpy broadcast error
    def test_one_field_edits_are_refused_or_reported(self, field, row, slot, value):
        # One field of one row of the radius-2 ball, edited: from_rows refuses the edit, or both
        # reports return their records and ball_to_json returns or refuses a negative id by name.
        rows = {k: getattr(generate_ball(2), k).tolist() for k in ("verts", "parent", "face", "depth")}
        if field == "verts":
            rows["verts"][row][slot] = value
        else:
            rows[field][row] = value
        try:
            b = TetBall.from_rows(2, *rows.values())
        except ValueError:
            return
        structural_report(b)
        link_labeling_report(b)
        try:
            ball_to_json(b)
        except ValueError as exc:
            assert "holds a negative vertex id" in str(exc)

    def test_ancestors_need_every_parent(self):
        tets = dict(generate_ball(2).tets)
        del tets["0"]
        with pytest.raises(ValueError):
            TetBall(2, tets).ancestors

    def test_count_matches_bfs(self, ball):
        # Random subtrees (grown one tree neighbour at a time) and random sets.
        b = ball(5)
        addrs = sorted(b.addrs)
        rng = random.Random(3)
        seen = set()
        for trial in range(400):
            if trial % 2:
                members = set(rng.sample(addrs, rng.randint(1, 12)))
            else:
                members = {rng.choice(addrs)}
                for _ in range(rng.randint(0, 15)):
                    grow = [nb for a in members for nb in tree_neighbors_in(a, set(addrs))]
                    members.add(rng.choice(sorted(set(grow) - members or grow)))
            connected = support_bfs(members)
            rows = np.array(sorted(b.rows[a] for a in members))
            assert support_connected(SimpleNamespace(support=lambda v: rows, parent=b.parent), 0) == connected
            seen.add(connected)
        assert seen == {True, False}

    def test_edge_cofaces_match_link_triangles(self, ball):
        # Tetrahedra on an edge (u, w) correspond to triangles of the link of
        # u containing w, hence to labelled Farey triangles at the label of w.
        b = ball(2)
        support = support_sets(b)
        for u, w in b.edges().tolist():
            cofaces = {b.addrs[t] for t in np.intersect1d(b.support(u), b.support(w))}
            link_tris = [
                addr for addr in support[u] if w in b.tets[addr]
            ]
            assert cofaces == set(link_tris)


# ---------------------------------------------------------------------------
# Reports and serialization

def interior_cofaces_loop(b):
    """Reference for ``interior_triangle_cofaces``: ``triangle_cofaces`` of each interior face."""
    bad = []
    for addr, verts in b.tets.items():
        if len(addr) > b.radius - 1:
            continue
        for i in range(4):
            cof = triangle_cofaces(b, tuple(verts[j] for j in range(4) if j != i))
            if len(cof) != 2 or tree_distance(cof[0], cof[1]) != 1:
                bad.append((addr, i, cof))
    return {"name": "interior_triangle_cofaces", "ok": not bad, "bad": bad[:5]}


def check(b, name):
    (found,) = [c for c in structural_report(b) if c["name"] == name]
    return found


class TestStructuralReport:
    @pytest.mark.parametrize("name", sorted(set(MALFORMED) - {"missing_edge"}) + [f"radius_{n}" for n in range(6)])
    def test_interior_cofaces_match_loop(self, ball, name):
        b = ball(int(name[-1])) if name.startswith("radius") else MALFORMED[name]()
        assert check(b, "interior_triangle_cofaces") == interior_cofaces_loop(b)
        assert check(b, "interior_triangle_cofaces")["ok"] == (name.startswith(("radius", "extra_edge")))

    def test_missing_edge_is_a_clique_fault(self):
        # Cofaces are read from the tetrahedra, so an edge missing from the
        # adjacency no longer raises from triangle_cofaces; the clique check
        # reports the ball.
        b = MALFORMED["missing_edge"]()
        with pytest.raises(ValueError, match="not adjacent"):
            interior_cofaces_loop(b)
        assert check(b, "interior_triangle_cofaces")["ok"]
        assert not check(b, "four_cliques_are_tets")["ok"]

    @pytest.mark.parametrize("name, ok", [("missing_parent", False), ("swapped", False), ("moved_leaf", True), ("extra_edge_0", True)])
    def test_prefix_stable(self, name, ok):
        assert check(MALFORMED[name](), "prefix_stable") == {"name": "prefix_stable", "ok": ok}

    def test_prefix_stable_in_any_row_order(self):
        tets = generate_ball(3).tets
        assert check(TetBall(3, dict(reversed(tets.items()))), "prefix_stable")["ok"]
        del tets["21"]
        assert not check(TetBall(3, dict(reversed(tets.items()))), "prefix_stable")["ok"]

    @pytest.mark.parametrize(
        "field, row, value, addr",
        [("face", 6, 1, "01"), ("depth", 5, 3, "01"), ("depth", 16, 5, "32")],
        ids=["face_off_the_changed_slot", "depth_below_the_parent_chain", "depth_past_the_radius"],
    )
    def test_a_row_that_disagrees_with_its_parent_is_named(self, field, row, value, addr):
        # Row 6 ('02') with face 1 takes row 5's address '01' and so drops out of ball.tets; the
        # depth edits keep every address.  Each of these balls passed every check before.
        rows = {k: getattr(generate_ball(2), k).copy() for k in ("verts", "parent", "face", "depth")}
        rows[field][row] = value
        b = TetBall.from_rows(2, *rows.values())
        assert b.addrs[row] == addr and len(b.tets) == 17 - (field == "face")
        report = structural_report(b)
        assert [c for c in report if not c["ok"]] == [{"name": "addresses_reduced", "ok": False, "bad": [addr]}]
        assert not tet_tree._row_faults(generate_ball(2)).any()

    def test_addresses_reduced_matches_the_words(self):
        # Non-reduced words, a letter outside the alphabet, words too long,
        # and children of all of them; the arrays clear only reduced words.
        tets = dict(generate_ball(2).tets)
        for addr in ("00", "001", "0x", "0x1", "012", "0123", "1x0"):
            tets[addr] = (0, 1, 2, 3)
        b = TetBall(2, tets)
        want = [a for a in tets if not is_address(a) or len(a) > 2]
        assert check(b, "addresses_reduced") == {"name": "addresses_reduced", "ok": False, "bad": want[:5]}
        assert len(want) > 5

    @pytest.mark.parametrize("name", sorted(MALFORMED) + ["radius_4"])
    def test_supports_match_the_per_vertex_check(self, ball, name):
        b = ball(4) if name == "radius_4" else MALFORMED[name]()
        bad = [v for v in b.vertices() if not support_connected(b, v)]
        assert check(b, "supports_tree_connected") == {"name": "supports_tree_connected", "ok": not bad, "bad": bad[:5]}
        assert bool(bad) == (name in {"missing_parent", "missing_root_child", "moved_inner", "reused_other", "swapped"})

    def test_clean_at_radius_three(self, ball):
        report = structural_report(ball(3))
        assert all(c["ok"] for c in report), [c for c in report if not c["ok"]]

    def test_detects_names(self, ball):
        names = {c["name"] for c in structural_report(ball(1))}
        assert {"tet_count", "four_cliques_are_tets", "supports_tree_connected"} <= names

    def test_five_clique_witness_lists_every_four_subset(self):
        # Edge 0-4 closes the 5-clique {0, 1, 2, 3, 4}; the 4-subset whose only
        # common neighbour is vertex 0 is listed too.
        b = with_edges(generate_ball(1), add=[(0, 4)])
        (check,) = [c for c in structural_report(b) if c["name"] == "four_cliques_are_tets"]
        assert not check["ok"]
        assert check["five_cliques"] == [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]]

    @pytest.mark.parametrize(
        "tets, row",
        [
            ({"": (-1, 1, 2, 3)}, ""),
            ({"": (-4, -3, -2, -1)}, ""),
            ({**generate_ball(1).tets, "2": (-2, 1, 2, 3), "1": (0, 6, 2, -7)}, "1"),
        ],
    )
    def test_negative_id_is_a_record(self, tets, row):
        # The checks that index by vertex id fail naming the first such row
        # in address order; the others run as on any dict-built ball.
        radius = 1 if len(tets) > 1 else 0
        checks = {c["name"]: c for c in structural_report(TetBall(radius, tets))}
        assert list(checks) == [c["name"] for c in structural_report(generate_ball(radius))]
        error = f"tetrahedron {row!r} holds a negative vertex id"
        for name in ("vertex_count", "edge_count", "four_cliques_are_tets", "supports_tree_connected"):
            assert checks[name] == {"name": name, "ok": False, "error": error}
        assert checks["tet_count"] == {"name": "tet_count", "ok": True, "found": len(tets), "expected": len(tets)}

    @pytest.mark.parametrize("radius", range(4))
    def test_starts_with_the_count_checks(self, ball, radius):
        counts = count_checks(ball(radius))
        assert [c["name"] for c in counts] == ["tet_count", "vertex_count", "edge_count"]
        assert all(c["ok"] for c in counts)
        assert structural_report(ball(radius))[:3] == counts


class TestSerialization:
    def test_json_schema(self, ball):
        data = ball_to_json(ball(1))
        assert data["radius"] == 1
        assert data["tets"][0] == {"addr": "", "verts": [0, 1, 2, 3]}
        assert data["tets"][1] == {"addr": "0", "verts": [4, 1, 2, 3]}
        assert [0, 1] in data["edges"]
        assert len(data["edges"]) == 18

    def test_json_bytes_deterministic(self, ball):
        a = json.dumps(ball_to_json(ball(2)))
        b = json.dumps(ball_to_json(generate_ball(2)))
        assert a == b
