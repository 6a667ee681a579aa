import random
import tracemalloc
from collections import deque

import numpy as np
import pytest

from conftest import coresidence_sets, support_sets
from crosscap3 import metric, tet_tree
from crosscap3.cli import main
from crosscap3.errors import BudgetError
from crosscap3.metric import (
    HYPERBOLICITY_FIELDS,
    SAMPLE_BLOCK,
    DistanceTable,
    TreeComparisonReport,
    all_pairs_distances,
    check_bottleneck_property,
    check_distance_stability,
    check_subdivision_isometry,
    hyperbolicity_reports,
    thinness_report,
    tree_comparison,
)
from crosscap3.metric import (
    _chunk_thinness,
    _point_to_interval,
    _sampled_triples,
    _thinness_exhaustive,
)
from crosscap3.tet_tree import BLOCK_ELEMS, TetBall
from oracles import MarginError, bottleneck_triangle, has_edge, in_margin, interval, separates, tree_distance


def floyd_warshall(vertices, adjacency):
    # Independent distance oracle.
    inf = float("inf")
    d = {u: {v: (0 if u == v else inf) for v in vertices} for u in vertices}
    for u in vertices:
        for v in adjacency[u]:
            d[u][v] = 1
    for k in vertices:
        for i in vertices:
            dik = d[i][k]
            for j in vertices:
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return d


def deque_bfs_rows(vertices, adjacency):
    # Independent distance oracle: one queue-based BFS per source, row by row.
    index = {v: i for i, v in enumerate(vertices)}
    adj = [[index[w] for w in adjacency[v]] for v in vertices]
    for s in range(len(adj)):
        row = [-1] * len(adj)
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = row[u] + 1
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = du
                    queue.append(w)
        yield row


def chain_ball(top):
    """The dict-built ball of the tetrahedra along the word 0123 0123 ..., up to vertex ``top``."""
    verts, addr = [0, 1, 2, 3], ""
    tets = {addr: tuple(verts)}
    for v in range(4, top + 1):
        face = (v - 4) % 4
        verts[face] = v
        addr += "0123"[face]
        tets[addr] = tuple(verts)
    return TetBall(len(addr), tets)


class TestDistances:
    def test_examples(self, dtable):
        t = dtable(2)
        assert t.d(0, 1) == 1
        assert t.d(0, 4) == 2  # fresh vertex of tetrahedron "0"

    def test_unknown_vertex(self, dtable, ctable):
        # -1 would wrap to the last vertex, whose distance from 0 on the radius-1 ball is 1.
        for table in (dtable(1), ctable(1)):
            n = len(table)
            for u, v, bad in ((-1, 0, -1), (0, -1, -1), (n, 0, n), (0, n, n)):
                with pytest.raises(ValueError, match=f"vertex id {bad} is not in 0..{n - 1}"):
                    table.d(u, v)

    def test_agrees_with_floyd_warshall(self, ball, cgraph, curve_oracle):
        b = ball(1)
        oracle = floyd_warshall(list(b.vertices()), coresidence_sets(b))
        t = all_pairs_distances(b)
        for u in b.vertices():
            for v in b.vertices():
                assert t.d(u, v) == oracle[u][v]
        cg, adjacency = cgraph(1), curve_oracle(1)
        oracle = floyd_warshall(sorted(adjacency), adjacency)
        tc = all_pairs_distances(cg)
        for u in cg.vertices:
            for v in cg.vertices:
                assert tc.d(u, v) == oracle[u][v]

    @pytest.mark.parametrize("radius", range(7))
    def test_agrees_with_deque_bfs(self, ball, cgraph, curve_oracle, radius):
        # The curve adjacency of the oracle comes from ball.edges(), not the CSR.
        tet_adjacency = dict(enumerate(coresidence_sets(ball(radius))))
        for graph, adjacency in ((ball(radius), tet_adjacency), (cgraph(radius), curve_oracle(radius))):
            t = all_pairs_distances(graph)
            assert t.dist.dtype == np.int8
            for s, row in enumerate(deque_bfs_rows(sorted(adjacency), adjacency)):
                assert t.dist[s].tolist() == row

    @pytest.mark.parametrize("top", [189, 190])
    def test_distances_reach_64_only_as_budget_error(self, top):
        # Along 0123 0123 ..., vertex v >= 4 is created next to v - 1, v - 2 and v - 3, so
        # d(0, top) = ceil(top / 3): 63 at 189, the most an int8 table holds, and 64 at 190.
        b = chain_ball(top)
        if top == 189:
            adjacency = dict(enumerate(coresidence_sets(b)))
            t = all_pairs_distances(b)
            assert t.dist.max() == 63
            assert t.dist.tolist() == list(deque_bfs_rows(sorted(adjacency), adjacency))
        else:
            with pytest.raises(BudgetError, match="^distance 64 reached"):
                all_pairs_distances(b)

    def test_cli_refuses_a_curve_table_past_63(self, capsys, monkeypatch):
        # The curve graph doubles distances: 2 * 34 + 1 > 63 on the chain up to vertex 100.
        # The small sample cap keeps the run short should the curve table get built.
        monkeypatch.setattr(metric, "generate_ball", lambda radius: chain_ball(100))
        assert main(["hyperbolicity", "--radius", "2", "--sample-cap", "100"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: distance 64 reached")

    def test_stability_between_radii(self, dtable, ctable):
        for n in range(3):
            assert check_distance_stability(dtable(n), dtable(n + 1))["ok"]
            assert check_distance_stability(ctable(n), ctable(n + 1))["ok"]

    def test_stability_matches_two_sided_ids_by_pair(self, cgraph, ctable):
        # Two-sided ids start after the one-sided ones, so they shift with the radius.
        small, big = ctable(1), ctable(2)
        a = int(cgraph(2).pair_ids(0, 1))
        assert a != int(cgraph(1).pair_ids(0, 1))
        bent = DistanceTable(big.dist.copy(), big.source)
        bent.dist[a, 0] = bent.dist[0, a] = 3
        assert not check_distance_stability(small, bent)["ok"]

    def test_stability_refuses_swapped_windows(self, dtable, ctable):
        for table in (dtable, ctable):
            with pytest.raises(ValueError, match="not a smaller window"):
                check_distance_stability(table(3), table(2))

    def test_stability_refuses_a_ball_table_against_a_curve_table(self, dtable, ctable):
        for small, big in ((dtable(2), ctable(3)), (ctable(1), dtable(3))):
            with pytest.raises(ValueError, match="not a smaller window"):
                check_distance_stability(small, big)

    def test_rejects_unknown_graph(self):
        with pytest.raises(TypeError):
            all_pairs_distances({0: {1}, 1: {0}})


class TestInterval:
    def test_degenerate(self, dtable):
        assert interval(dtable(1), 0, 0) == {0}

    def test_adjacent_pair(self, dtable):
        assert interval(dtable(1), 0, 1) == {0, 1}

    def test_distance_two_contains_common_neighbours(self, ball, dtable):
        b, t = ball(2), dtable(2)
        adj = coresidence_sets(b)
        for x in b.vertices():
            for y in b.vertices():
                if t.d(x, y) == 2:
                    common = adj[x] & adj[y]
                    assert interval(t, x, y) == common | {x, y}

    def test_matches_direct_scan(self, ball, dtable):
        b, t = ball(2), dtable(2)
        rng = random.Random(1)
        for _ in range(50):
            x, y = rng.sample(range(b.n_vertices), 2)
            direct = {
                v for v in b.vertices() if t.d(x, v) + t.d(v, y) == t.d(x, y)
            }
            assert interval(t, x, y) == direct


class TestSubdivisionIsometry:
    def test_examples(self, cgraph, dtable, ctable):
        td, tc = dtable(2), ctable(2)
        assert td.d(0, 1) == 1
        assert tc.d(0, 1) == 2
        assert tc.d(0, 4) == 4
        assert tc.d(int(cgraph(2).pair_ids(0, 1)), 0) == 1

    def test_full_check(self, dtable, ctable):
        for n in range(4):
            report = check_subdivision_isometry(dtable(n), ctable(n))
            assert report.ok, report.violations
            assert (report.violating, report.violations) == (0, [])

    def test_counts_every_violating_pair(self, dtable, ctable):
        # Every off-diagonal one-sided entry raised by 2: all 190 pairs u < v of the 20 vertices fail.
        td, tc = dtable(2), ctable(2)
        n = len(td)
        dist = tc.dist.copy()
        dist[:n, :n] += 2 * (1 - np.eye(n, dtype=dist.dtype))
        report = check_subdivision_isometry(td, DistanceTable(dist, tc.source))
        assert (n, report.violating, report.ok) == (20, 190, False)
        assert report.violations == [("one_sided", 0, v) for v in range(1, 6)]

    def test_counts_two_sided_pairs(self, dtable, ctable):
        # Two whole two-sided rows, one more entry of a third, one pair wrong only in its
        # (one-sided, two-sided) entry, and one one-sided pair wrong only below the diagonal.
        td, tc = dtable(2), ctable(2)
        n, ends = len(td), tc.source.ends.tolist()
        dist = tc.dist.copy()
        dist[n + 3, :n] += 1
        dist[n + 7, :n] -= 1
        dist[n + 9, 4] += 1
        dist[6, n + 1] += 1
        dist[9, 2] += 1
        report = check_subdivision_isometry(td, DistanceTable(dist, tc.source))
        assert report.violating == 2 * n + 3
        two = [("two_sided", tuple(ends[1]), 6)] + [("two_sided", tuple(ends[3]), v) for v in range(4)]
        assert report.violations == [("one_sided", 2, 9)] + two

    def test_rejects_mismatched_sources(self, dtable, ctable):
        with pytest.raises(ValueError):
            check_subdivision_isometry(dtable(1), ctable(2))


class TestBottleneckTriangle:
    def test_branch_example(self, dtable):
        # Fresh vertex 8 sits at tree depth 2 on the branch through face 0;
        # both middle vertices give the shared triangle of the branch.
        t = dtable(3)
        assert t.d(0, 8) == 2
        for p in (2, 3):
            assert bottleneck_triangle(t, 0, 8, p) == {1, 2, 3}

    def test_contains_p_and_separates_everywhere(self, ball, dtable):
        b, t = ball(3), dtable(3)
        margin = [v for v in b.vertices() if in_margin(b, v)]
        checked = 0
        for i, x in enumerate(margin):
            for y in margin[i + 1 :]:
                if t.d(x, y) < 2:
                    continue
                for p in sorted(interval(t, x, y) - {x, y}):
                    delta = bottleneck_triangle(t, x, y, p)
                    checked += 1
                    assert len(delta) == 3 and p in delta
                    assert separates(b, delta, x, y)
        assert checked > 0

    def test_precondition_errors(self, dtable):
        t = dtable(3)
        with pytest.raises(ValueError):
            bottleneck_triangle(t, 0, 8, 0)  # p equals an endpoint
        with pytest.raises(ValueError):
            bottleneck_triangle(t, 0, 8, 1)  # 1 is not between 0 and 8

    def test_margin_violation(self, ball):
        b = ball(2)
        t = all_pairs_distances(b)
        with pytest.raises(MarginError):
            bottleneck_triangle(t, 0, 8, 2)  # 8 only lives at the boundary

    def test_separates_validates_endpoints(self, ball):
        with pytest.raises(ValueError):
            separates(ball(1), {0, 1}, 0, 4)


def test_table_only_checks_need_a_tetrahedron_table(ctable):
    # The ball is always the table's source, so a curve-graph table is refused.
    t = ctable(2)
    with pytest.raises(ValueError):
        bottleneck_triangle(t, 0, 8, 2)
    with pytest.raises(ValueError):
        check_bottleneck_property(t)
    with pytest.raises(ValueError):
        tree_comparison(t)


class TestBottleneckProperty:
    def test_radius_three(self, dtable):
        report = check_bottleneck_property(dtable(3))
        assert report.ok, report.failures
        assert report.pairs_checked > 0
        assert report.worst_margin <= 1.5

    def test_close_pairs_skipped(self, dtable):
        # Radius 1: every in-margin pair is at distance <= 2, all vacuous.
        report = check_bottleneck_property(dtable(1))
        assert report.pairs_checked == 0
        assert report.ok

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda faces, y, p: np.where(faces == p[:, None], -1, faces),  # without p
            lambda faces, y, p: np.where(faces < 0, y[:, None], faces),  # a fourth vertex
        ],
    )
    def test_bad_triangle_is_a_witness(self, monkeypatch, capsys, dtable, spoil):
        # Without p, or with a fourth vertex: the report, not an assert, names the pair.
        build = metric._bottleneck_faces
        monkeypatch.setattr(metric, "_bottleneck_faces", lambda t, x, y, p: spoil(build(t, x, y, p), y, p))
        report = check_bottleneck_property(dtable(3))
        assert not report.ok
        assert report.failures and all("is not a triangle through p=" in f["error"] for f in report.failures)
        assert all(type(v) is int for f in report.failures for v in f["pair"])
        (row,) = [r for r in hyperbolicity_reports(3) if r["name"] == "bottleneck_property"]
        assert not row["ok"]
        assert "is not a triangle through p=" in row["witness"]
        assert "np." not in row["witness"]
        assert main(["hyperbolicity", "--radius", "3"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "radius, spoiled, error, worst, nbhd",
        [
            # A triangle that does not separate stops the pair before its margin counts.
            (3, False, "triangle does not separate", 0.0, 0),
            (5, True, "neighbourhood does not separate", 1.5, 792),
        ],
    )
    def test_separation_failure_is_a_witness(self, monkeypatch, capsys, dtable, radius, spoiled, error, worst, nbhd):
        # Every triangle, or every neighbourhood, is made to fail its deletion check.
        real = metric._separated
        monkeypatch.setattr(
            metric,
            "_separated",
            lambda b, tris, inv, x, y, closed: real(b, tris, inv, x, y, closed) & (closed != spoiled),
        )
        report = check_bottleneck_property(dtable(radius))
        assert not report.ok
        assert (report.worst_margin, report.neighborhood_checked) == (worst, nbhd)
        assert len(report.failures) == (nbhd or report.pairs_checked)
        assert {f["error"] for f in report.failures} == {error}
        pairs = [f["pair"] for f in report.failures]
        assert pairs == sorted(pairs) and all(type(v) is int for pair in pairs for v in pair)
        argv = ["hyperbolicity", "--radius", str(radius), "--sample-cap", "100"]
        (row,) = [r for r in hyperbolicity_reports(radius, sample_cap=100) if r["name"] == "bottleneck_property"]
        assert not row["ok"] and error in row["witness"] and "np." not in row["witness"]
        assert main(argv) == 1
        capsys.readouterr()

    def test_first_failure_per_pair(self, monkeypatch, dtable):
        # x % 3 == 0: a bad triangle; 1: a triangle that does not separate;
        # 2: a neighbourhood that does not separate.  Each pair reports only
        # its first failure, in pair order.
        build, real = metric._bottleneck_faces, metric._separated

        def faces(t, x, y, p):
            out = build(t, x, y, p)
            return np.where((x[:, None] % 3 == 0) & (out == p[:, None]), -1, out)

        def separated(b, tris, inv, x, y, closed):
            return real(b, tris, inv, x, y, closed) & (not closed) & (x % 3 != 1)

        monkeypatch.setattr(metric, "_bottleneck_faces", faces)
        monkeypatch.setattr(metric, "_separated", separated)
        report = check_bottleneck_property(dtable(5))
        pairs = [f["pair"] for f in report.failures]
        assert pairs == sorted(set(pairs))
        kinds = ("is not a triangle through p=", "triangle does not separate", "neighbourhood does not separate")
        assert all(kinds[f["pair"][0] % 3] in f["error"] for f in report.failures)
        xs = np.concatenate([block[0] for block in metric._bottleneck_blocks(dtable(5))])
        assert sum(x % 3 != 2 for x, _ in pairs) == int((xs % 3 != 2).sum())
        assert 0 < sum(x % 3 == 2 for x, _ in pairs) == report.neighborhood_checked
        assert 0 < report.worst_margin <= 1.5


class TestBatchedBottleneckScan:
    @pytest.mark.parametrize("radius, pairs, nbhd", [(3, 12, 0), (4, 504, 0), (5, 8052, 792)])
    def test_matches_per_pair_oracles(self, monkeypatch, ball, dtable, radius, pairs, nbhd):
        # Every pair's p, p2 and triangle against bottleneck_triangle, and
        # every separation verdict the scan used against the deletion BFS.
        b, t = ball(radius), dtable(radius)
        real, calls = metric._separated, []

        def spy(ball_, tris, inv, x, y, closed):
            out = real(ball_, tris, inv, x, y, closed)
            calls.append((closed, tris[inv].tolist(), x.tolist(), y.tolist(), out.tolist()))
            return out

        monkeypatch.setattr(metric, "_separated", spy)
        report = check_bottleneck_property(t)
        assert report.ok
        assert (report.pairs_checked, report.neighborhood_checked, report.worst_margin) == (pairs, nbhd, 1.5)
        x, y, p, p2, faces = (np.concatenate(a).tolist() for a in zip(*metric._bottleneck_blocks(t)))
        margin = [v for v in b.vertices() if in_margin(b, v)]
        assert list(zip(x, y)) == [(u, v) for i, u in enumerate(margin) for v in margin[i + 1 :] if t.d(u, v) >= 3]
        for xi, yi, pi, p2i, face in zip(x, y, p, p2, faces):
            half = t.d(xi, yi) // 2
            between = interval(t, xi, yi)
            assert pi == min(v for v in between if t.d(xi, v) == half)
            assert p2i == min(v for v in between if t.d(xi, v) == half + 1 and has_edge(b, pi, v))
            assert set(face) - {-1} == bottleneck_triangle(t, xi, yi, pi)
        (tri_closed, *tri_checks), (nbhd_closed, *nbhd_checks) = calls
        adj = coresidence_sets(b)
        assert (tri_closed, nbhd_closed) == (False, True)
        assert len(tri_checks[1]) == pairs and len(nbhd_checks[1]) == nbhd
        for tri, xi, yi, cut in zip(*tri_checks):
            assert cut == separates(b, tri, xi, yi)
        for tri, xi, yi, cut in zip(*nbhd_checks):
            assert cut == separates(b, set(tri).union(*(adj[w] for w in tri)), xi, yi)

    @pytest.mark.parametrize("closed", [False, True])
    def test_separated_matches_deletion_bfs(self, ball, closed):
        # Every face of the radius-3 ball, each with random surviving pairs:
        # the verdicts include both outcomes, unlike those of a passing scan.
        b = ball(3)
        adj = coresidence_sets(b)
        faces = b.verts[:, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]].reshape(-1, 3)
        tris = np.unique(np.sort(faces, axis=1), axis=0)
        rng = random.Random(7)
        queries, want = [], []
        for k, tri in enumerate(tris.tolist()):
            blocked = set(tri).union(*(adj[w] for w in tri)) if closed else set(tri)
            free = [v for v in b.vertices() if v not in blocked]
            for _ in range(4):
                x, y = rng.sample(free, 2)
                queries.append((k, x, y))
                want.append(separates(b, blocked, x, y))
        k, x, y = np.array(queries).T
        assert metric._separated(b, tris, k, x, y, closed).tolist() == want
        assert set(want) == {True, False}


def brute_thinness(table):
    # Independent oracle: direct triple loop over the distance dict.
    n = len(table)
    d = table.dist
    best = -1
    for x in range(n):
        for y in range(x + 1, n):
            between = [p for p in range(n) if d[x, p] + d[p, y] == d[x, y]]
            for z in range(n):
                side = [
                    q
                    for q in range(n)
                    if d[x, q] + d[q, z] == d[x, z] or d[y, q] + d[q, z] == d[y, z]
                ]
                for p in between:
                    best = max(best, min(int(d[p, q]) for q in side))
    return best


def loop_point_to_interval(d):
    # Independent oracle: each pair's interval read off d, one pair at a time.
    n = d.shape[0]
    point_to_interval = np.empty((n, n, n), dtype=np.int16)
    for x in range(n):
        point_to_interval[:, x, x] = d[:, x]
        for z in range(x + 1, n):
            idx = np.nonzero(d[x] + d[z] == d[x, z])[0]
            col = d[:, idx].min(axis=1)
            point_to_interval[:, x, z] = col
            point_to_interval[:, z, x] = col
    return point_to_interval


def loop_thinness_exhaustive(d):
    # The pair scan over the oracle table: the reference for the maximum,
    # the witness order and the number of triples scored.
    n = d.shape[0]
    point_to_interval = loop_point_to_interval(d)
    best = -1
    witness = (0, 0, 0, 0)
    scored = 0
    for x in range(n):
        for y in range(x + 1, n):
            if d[x, y] // 2 <= best:
                continue
            scored += n - 2
            between = np.nonzero(d[x] + d[y] == d[x, y])[0]
            vals = np.minimum(point_to_interval[between, x, :], point_to_interval[between, y, :])
            m = int(vals.max())
            if m > best:
                best = m
                pi, z = np.unravel_index(int(vals.argmax()), vals.shape)
                witness = (x, y, int(z), int(between[pi]))
    return best, witness, scored


# Small graphs with many geodesics between far-apart vertices.
MANY_GEODESICS = {
    "cycle_9": [[(v - 1) % 9, (v + 1) % 9] for v in range(9)],
    "grid_4x4": [[w for w in range(16) if abs(v // 4 - w // 4) + abs(v % 4 - w % 4) == 1] for v in range(16)],
    "k_3_3": [[w for w in range(6) if (w < 3) != (v < 3)] for v in range(6)],
}
WINDOWS = [f"tet-{r}" for r in range(5)] + [f"curve-{r}" for r in range(4)]


@pytest.fixture
def metric_named(dtable, ctable):
    def get(name):
        if name in MANY_GEODESICS:
            adjacency = MANY_GEODESICS[name]
            return np.array(list(deque_bfs_rows(range(len(adjacency)), adjacency)), dtype=np.int16)
        graph, radius = name.split("-")
        return (dtable if graph == "tet" else ctable)(int(radius)).dist

    return get


class TestExhaustiveThinness:
    @pytest.mark.parametrize("name", WINDOWS + list(MANY_GEODESICS))
    def test_table_matches_loop(self, metric_named, name):
        d = metric_named(name)
        assert np.array_equal(_point_to_interval(d), loop_point_to_interval(d))

    @pytest.mark.parametrize("name", WINDOWS + list(MANY_GEODESICS))
    def test_result_matches_loop(self, metric_named, name):
        # The maximum, the witness (first in scan order) and the triples scored.
        d = metric_named(name)
        assert _thinness_exhaustive(d) == loop_thinness_exhaustive(d)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_the_table(self, monkeypatch, metric_named, block):
        tables = [metric_named(name) for name in ("tet-3", "curve-1", *MANY_GEODESICS)]
        want = [(_point_to_interval(d), _thinness_exhaustive(d)) for d in tables]
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        for d, (table, result) in zip(tables, want):
            assert np.array_equal(_point_to_interval(d), table)
            assert _thinness_exhaustive(d) == result

    def test_table_is_the_only_large_allocation(self, dtable):
        d = dtable(4).dist
        n = len(d)
        tracemalloc.start()
        try:
            _thinness_exhaustive(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n**3 + (1 << 20)


class TestThinness:
    def test_exhaustive_matches_brute_force(self, dtable, ctable):
        # The scan skips pairs whose bound d(x, y) // 2 cannot raise the maximum.
        for t in (dtable(1), dtable(2), dtable(3), ctable(0), ctable(1)):
            report = thinness_report(t)
            assert report.exhaustive
            assert report.max_value == brute_thinness(t)

    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    @pytest.mark.parametrize("graph", ["tet", "curve"])
    def test_half_distance_bound(self, dtable, ctable, radius, graph):
        # b in I(x, y) is within d(b, x) of I(x, z) and d(b, y) of I(y, z).
        t = (dtable if graph == "tet" else ctable)(radius)
        d, n = t.dist, len(t)
        rng = random.Random(radius)
        xyz = np.array([rng.sample(range(n), 3) for _ in range(5000)])
        vals = np.array([_chunk_thinness(d, xyz[i : i + 1], -1)[0] for i in range(len(xyz))])
        assert (vals <= d[xyz[:, 0], xyz[:, 1]] // 2).all()

    def test_tet_graph_bound(self, dtable):
        report = thinness_report(dtable(2))
        assert report.exhaustive and report.ok
        assert report.max_value <= 1

    def test_curve_graph_bound(self, ctable):
        report = thinness_report(ctable(2))
        assert report.exhaustive and report.ok

    def test_bound_follows_the_graph(self, dtable, ctable):
        assert thinness_report(dtable(1)).bound == 1.5
        assert thinness_report(ctable(1)).bound == 3.0

    @pytest.mark.parametrize("cap", [0, -5])
    def test_sample_cap_must_be_positive(self, monkeypatch, dtable, cap):
        # Sampling no triples would pass the bound vacuously.
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        with pytest.raises(ValueError, match="sample cap"):
            thinness_report(dtable(1), sample_cap=cap)

    def test_witness_is_attaining(self, ctable, metric_named):
        t = ctable(1)
        report = thinness_report(t)
        x, y, z, p = report.witness
        side = interval(t, x, z) | interval(t, y, z)
        assert p in interval(t, x, y)
        assert min(t.d(p, q) for q in side) == report.max_value
        # On K_{3,3} the maximum is found while the running maximum is -1,
        # so every p of I(x, y) is gathered, x (which does not attain) first.
        for name in MANY_GEODESICS:
            d = metric_named(name)
            value, (x, y, z, p), _ = _thinness_exhaustive(d)
            side = (d[x] + d[z] == d[x, z]) | (d[y] + d[z] == d[y, z])
            assert d[x, p] + d[p, y] == d[x, y]
            assert d[p, side].min() == value

    def test_endpoint_triples_contribute_zero(self, dtable):
        # With z equal to an endpoint the side intervals absorb every p.
        t = dtable(2)
        rng = random.Random(2)
        for _ in range(30):
            x, y = rng.sample(range(len(t)), 2)
            for z in (x, y):
                side = interval(t, x, z) | interval(t, y, z)
                assert all(p in side for p in interval(t, x, y))

    def test_sampling_deterministic_and_bounded(self, monkeypatch, dtable):
        t = dtable(2)
        full = thinness_report(t)
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        a = thinness_report(t, sample_cap=500, seed=3)
        b = thinness_report(t, sample_cap=500, seed=3)
        assert not a.exhaustive
        assert a.max_value == b.max_value and a.witness == b.witness
        assert a.max_value <= full.max_value
        assert a.triples_examined == 500


def triple_thinness(d, x, y, z):
    # Independent oracle: the thinness of one triple and the first p of I(x, y) attaining it.
    between = np.nonzero(d[x] + d[y] == d[x, y])[0]
    union = np.nonzero((d[x] + d[z] == d[x, z]) | (d[y] + d[z] == d[y, z]))[0]
    vals = d[np.ix_(between, union)].min(axis=1)
    return int(vals.max()), int(between[int(vals.argmax())])


def plain_sampled_thinness(table, samples, seed):
    # Independent oracle: score the sampled triples one at a time.
    n = len(table)
    rng = random.Random(seed)
    best = -1
    witness = None
    for _ in range(samples):
        x, y, z = rng.sample(range(n), 3)
        value, p = triple_thinness(table.dist, x, y, z)
        if value > best:
            best, witness = value, (x, y, z, p)
    return best, tuple(table.vertices[i] for i in witness)


class TestSampledThinness:
    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    @pytest.mark.parametrize("graph", ["tet", "curve"])
    def test_matches_plain_loop(self, monkeypatch, dtable, ctable, radius, graph):
        # Caps 7 and 5000 are not multiples of any chunk size used here.
        t = (dtable if graph == "tet" else ctable)(radius)
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        for seed in (0, 3, 17):
            for cap in (1, 7, 5000):
                rep = thinness_report(t, sample_cap=cap, seed=seed)
                assert (rep.max_value, rep.witness) == plain_sampled_thinness(t, cap, seed)

    def test_pruned_sample_matches_plain_loop(self, monkeypatch, ctable):
        # Once the maximum reaches 3, only triples with d(x, y) >= 8 are scored.
        t = ctable(5)
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        for seed in (5, 2, 11):
            rep = thinness_report(t, sample_cap=20_000, seed=seed)
            assert (rep.max_value, rep.witness) == plain_sampled_thinness(t, 20_000, seed)
            assert rep.triples_scored < rep.triples_examined // 2

    @pytest.mark.parametrize("graph", ["tet", "curve"])
    def test_each_triple_is_scored_once(self, monkeypatch, dtable, ctable, graph):
        # The scorer sees each triple past the bound once: its rows add up to triples_scored.
        calls = []
        scorer = metric._chunk_thinness

        def spy(d, xyz, best):
            calls.append((len(xyz), best))
            return scorer(d, xyz, best)

        t = (dtable if graph == "tet" else ctable)(4)
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        monkeypatch.setattr(metric, "_chunk_thinness", spy)
        rep = thinness_report(t, sample_cap=5000, seed=3)
        assert sum(rows for rows, _ in calls) == rep.triples_scored and max(best for _, best in calls) >= 0
        assert (rep.max_value, rep.witness) == plain_sampled_thinness(t, 5000, seed=3)

    @pytest.mark.parametrize("block", [1, 7, pytest.param(BLOCK_ELEMS, id="default")])
    @pytest.mark.parametrize("radius", [2, 3, 4, 5])
    @pytest.mark.parametrize("graph", ["tet", "curve"])
    def test_stage_one_flags_exactly_the_triples_above_best(self, monkeypatch, dtable, ctable, graph, radius, block):
        # On the sampler's chunks at this block size, the scorer returns a
        # part's first maximum, its row and its first b, exactly when it
        # exceeds best, whether or not the part's bounds could.
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        d = (dtable if graph == "tet" else ctable)(radius).dist
        n = len(d)
        rng = random.Random(radius)
        xyz = np.array([rng.sample(range(n), 3) for _ in range(300 if block == BLOCK_ELEMS else 60)])
        chunk = tet_tree._block_rows(n)
        parts = [xyz[a : a + chunk] for a in range(0, len(xyz), chunk)]
        for part in parts:
            scored = [triple_thinness(d, *map(int, row)) for row in part]
            row = max(range(len(part)), key=lambda i: (scored[i][0], -i))
            for best in range(-1, 5):
                value = _chunk_thinness(d, part, best)
                if scored[row][0] > best:
                    assert value == (scored[row][0], row, scored[row][1])
                else:
                    assert value[0] <= best

    def test_prune_fires(self, monkeypatch, ctable):
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        rep = thinness_report(ctable(5), sample_cap=50_000, seed=1)
        assert rep.triples_examined == 50_000
        assert rep.triples_scored < 50_000 // 4

    def test_exhaustive_table_over_budget(self, monkeypatch, ctable):
        # 650 vertices: the n^3 int8 table would take about 262 MiB, over the 256 MiB budget.
        monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 10**12)
        with pytest.raises(BudgetError):
            thinness_report(ctable(4))


@pytest.mark.parametrize("n", [3, 20, 21, 22, 23, 56, 488, 1946])
def test_sampled_triples_replay_random_sample(n):
    # n <= 21 takes CPython's pool branch, n > 21 its set branch (n = 22
    # repeats a value in about one triple in eight); the caps cross blocks.
    for seed in (0, 1, -5, 2**40 + 3):
        rng = random.Random(seed)
        want = [rng.sample(range(n), 3) for _ in range(20_000)]
        for cap in (1, 4095, 4097, 20_000):
            blocks = list(_sampled_triples(n, cap, seed))
            assert all(len(b) <= SAMPLE_BLOCK for b in blocks)
            assert np.concatenate(blocks).tolist() == want[:cap]


class TestTreeComparison:
    def test_root_vertices_map_to_root(self, ball, dtable):
        support = support_sets(ball(2))
        for v in range(4):
            assert min(support[v]) == ""

    def test_distance_bounded_by_tree_distance_plus_one(self, dtable):
        report = tree_comparison(dtable(2))
        assert report.diff_max <= 1
        assert report.ratio_max <= 2.0

    def test_chain_bound(self, ball, dtable):
        # Vertices in tetrahedra at tree distance k are at most k + 1 apart.
        b, t = ball(3), dtable(3)
        support = support_sets(b)
        for u in b.vertices():
            for v in b.vertices():
                k = min(
                    tree_distance(a, c) for a in support[u] for c in support[v]
                )
                assert t.d(u, v) <= k + 1

    @pytest.mark.parametrize("radius", range(6))
    def test_matches_pair_loop(self, ball, dtable, radius):
        b, t = ball(radius), dtable(radius)
        support = support_sets(b)
        assign = [min(support[v]) for v in b.vertices()]
        diffs, ratios = [], []
        for u in range(b.n_vertices):
            for v in range(u + 1, b.n_vertices):
                dt = tree_distance(assign[u], assign[v])
                diffs.append(t.d(u, v) - dt)
                if dt > 0:
                    ratios.append(t.d(u, v) / dt)
        want = TreeComparisonReport(
            pairs=len(diffs),
            diff_min=min(diffs),
            diff_max=max(diffs),
            ratio_min=min(ratios, default=None),
            ratio_max=max(ratios, default=None),
        )
        assert tree_comparison(t) == want

    def test_deterministic(self, dtable):
        a = tree_comparison(dtable(2))
        b = tree_comparison(dtable(2))
        assert a == b


class TestHyperbolicityReports:
    def test_isometry_row_counts_every_violating_pair(self, monkeypatch):
        # The curve table as the isometry check sees it, every off-diagonal one-sided entry raised by 2.
        check = metric.check_subdivision_isometry

        def raised(dd, dc):
            n = len(dd)
            dc.dist[:n, :n] += 2 * (1 - np.eye(n, dtype=dc.dist.dtype))
            return check(dd, dc)

        monkeypatch.setattr(metric, "check_subdivision_isometry", raised)
        (row,) = [r for r in hyperbolicity_reports(2) if r["name"] == "subdivision_isometry"]
        assert (row["examined"], row["worst"], row["ok"]) == (1270, 190, False)
        assert row["witness"] == "[('one_sided', 0, 1)]"

    @pytest.mark.parametrize("sampled", [False, True], ids=["exhaustive", "sampled"])
    def test_block_size_does_not_change_any_row(self, monkeypatch, sampled):
        # Every blocked pass of the suite reads tet_tree.BLOCK_ELEMS at call time: the distance
        # BFS, the interval table or the sampler's chunks, the isometry rows, the bottleneck
        # scan and its blocked sets, and the tree comparison.
        if sampled:
            monkeypatch.setattr(metric, "TRIPLE_THRESHOLD", 0)
        want = [hyperbolicity_reports(r, sample_cap=2000) for r in (2, 3)]
        assert all(row["name"].endswith("_sampled") == sampled for row in (want[0][0], want[1][1]))
        for block in (1, 7):
            monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
            assert [hyperbolicity_reports(r, sample_cap=2000) for r in (2, 3)] == want, block

    @pytest.mark.parametrize("radius", [1, 2])
    def test_rows(self, radius):
        rows = hyperbolicity_reports(radius)
        assert all(tuple(r) == HYPERBOLICITY_FIELDS and r["radius"] == radius and r["ok"] for r in rows)
        # No in-margin pair is 3 apart below radius 2, so there is no bottleneck row.
        middle = ["bottleneck_property"] if radius >= 2 else []
        assert [r["name"] for r in rows] == [
            "thinness_tet_graph",
            "thinness_curve_graph",
            "subdivision_isometry",
            *middle,
            "tree_comparison",
        ]
