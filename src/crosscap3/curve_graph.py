"""The finite curve graph window as a subdivision of a tetrahedron ball.

The curve graph of the three-holed projective plane is bipartite: one-sided
vertices on one side, two-sided on the other, and every two-sided vertex has
exactly two neighbours, the pair of one-sided curves determining it.  It is
therefore the subdivision of the 1-skeleton of the tetrahedron complex: one
two-sided vertex per edge.

The two-holed case is a constant, not code: that curve complex consists of
two one-sided vertices intersecting once and no edges at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tet_tree import TetBall


@dataclass(frozen=True, slots=True)
class OneSided:
    v: int


@dataclass(frozen=True, slots=True)
class TwoSided:
    u: int
    w: int

    def __post_init__(self) -> None:
        if not self.u < self.w:
            raise ValueError(f"two-sided vertex endpoints must be ordered: {self.u}, {self.w}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.w)


def two_sided(a: int, b: int) -> TwoSided:
    """The two-sided vertex determined by an unordered pair."""
    if a == b:
        raise ValueError("a two-sided vertex needs two distinct endpoints")
    return TwoSided(min(a, b), max(a, b))


def vertex_key(cv) -> tuple:
    """Canonical sort key: one-sided by id first, then two-sided by pair."""
    if isinstance(cv, OneSided):
        return (0, cv.v, -1)
    return (1, cv.u, cv.w)


class CurveGraphBall:
    """The subdivision of a TetBall's 1-skeleton; immutable after build."""

    def __init__(self, source: TetBall, adjacency: dict):
        self.source = source
        self.adjacency = adjacency
        self.vertices = sorted(adjacency, key=vertex_key)

    def __repr__(self) -> str:
        return f"CurveGraphBall(radius={self.source.radius}, vertices={len(self.vertices)})"

    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def one_sided(self) -> list[OneSided]:
        return [cv for cv in self.vertices if isinstance(cv, OneSided)]

    def two_sided(self) -> list[TwoSided]:
        return [cv for cv in self.vertices if isinstance(cv, TwoSided)]


def subdivide(ball: TetBall) -> CurveGraphBall:
    """Subdivide every edge of the ball by a two-sided vertex."""
    adjacency = {OneSided(v): set() for v in ball.vertices()}
    for v, w in ball.edges():
        mid = TwoSided(v, w)
        a, b = OneSided(v), OneSided(w)
        adjacency[mid] = {a, b}
        adjacency[a].add(mid)
        adjacency[b].add(mid)
    return CurveGraphBall(ball, adjacency)


def determined_vertex(a: int, b: int, cg: CurveGraphBall) -> TwoSided:
    """The unique two-sided vertex adjacent to both OneSided(a) and OneSided(b)."""
    if not cg.source.has_edge(a, b):
        raise ValueError(f"({a}, {b}) is not an edge of the source ball")
    return two_sided(a, b)


@dataclass(frozen=True)
class CurveSubgraph:
    vertices: frozenset
    edges: frozenset


def tet_star(cg: CurveGraphBall, addr: str) -> CurveSubgraph:
    """The 10-vertex subgraph spanned by a tetrahedron.

    Four one-sided vertices, the six two-sided vertices its edges determine,
    and the twelve incidences between them.
    """
    if addr not in cg.source.tets:
        raise ValueError(f"unknown tetrahedron {addr!r}")
    verts = cg.source.tets[addr]
    ones = [OneSided(v) for v in verts]
    twos = [two_sided(verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)]
    edges = frozenset(
        frozenset((OneSided(v), t)) for t in twos for v in t.pair
    )
    return CurveSubgraph(frozenset(ones) | frozenset(twos), edges)


# ---------------------------------------------------------------------------
# Serialization

def _vertex_json(cv):
    return cv.v if isinstance(cv, OneSided) else [cv.u, cv.w]


def curve_graph_to_json(cg: CurveGraphBall) -> dict:
    edges = sorted(
        (
            (cv, nb)
            for cv, nbrs in cg.adjacency.items()
            if isinstance(cv, OneSided)
            for nb in nbrs
        ),
        key=lambda e: (vertex_key(e[0]), vertex_key(e[1])),
    )
    return {
        "radius": cg.source.radius,
        "one_sided": [cv.v for cv in cg.one_sided()],
        "two_sided": [[cv.u, cv.w] for cv in cg.two_sided()],
        "edges": [[_vertex_json(a), _vertex_json(b)] for a, b in edges],
    }


def _dot_name(cv) -> str:
    return f"c{cv.v}" if isinstance(cv, OneSided) else f"b{cv.u}_{cv.w}"


def curve_graph_to_dot(cg: CurveGraphBall) -> str:
    lines = [f"graph curvegraph_{cg.source.radius} {{"]
    for cv in cg.vertices:
        shape = "circle" if isinstance(cv, OneSided) else "box"
        lines.append(f"  {_dot_name(cv)} [shape={shape}];")
    seen = set()
    for cv in cg.vertices:
        for nb in sorted(cg.adjacency[cv], key=vertex_key):
            e = frozenset((cv, nb))
            if e not in seen:
                seen.add(e)
                lines.append(f"  {_dot_name(cv)} -- {_dot_name(nb)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural verification

def count_checks(cg: CurveGraphBall) -> list[dict]:
    """Two-sided vertex and edge counts against their closed forms in the radius."""
    n = cg.source.radius
    return [
        {"name": name, "ok": found == want, "found": found, "expected": want}
        for name, found, want in (
            ("two_sided_count", len(cg.two_sided()), 6 * 3**n),
            ("curve_edge_count", cg.n_edges(), 12 * 3**n),
        )
    ]


def structural_report(cg: CurveGraphBall) -> list[dict]:
    """Counts, bipartiteness, degree, and determined-vertex checks for one window."""
    ball = cg.source
    checks = count_checks(cg)

    nonbipartite = [
        cv
        for cv, nbrs in cg.adjacency.items()
        if any(isinstance(nb, type(cv)) for nb in nbrs)
    ]
    checks.append({"name": "bipartite", "ok": not nonbipartite})

    bad_degree = [
        cv for cv in cg.two_sided() if len(cg.adjacency[cv]) != 2
    ]
    checks.append(
        {"name": "two_sided_degree_2", "ok": not bad_degree, "bad": [_vertex_json(cv) for cv in bad_degree[:5]]}
    )

    wrong_ends = [
        cv
        for cv in cg.two_sided()
        if cg.adjacency[cv] != {OneSided(cv.u), OneSided(cv.w)}
    ]
    checks.append({"name": "two_sided_endpoints", "ok": not wrong_ends})

    bad_determined = []
    for v, w in ball.edges():
        common = cg.adjacency[OneSided(v)] & cg.adjacency[OneSided(w)]
        if common != {TwoSided(v, w)}:
            bad_determined.append([v, w, [_vertex_json(cv) for cv in sorted(common, key=vertex_key)]])
    checks.append({"name": "determined_vertex_unique", "ok": not bad_determined, "bad": bad_determined[:5]})

    wrong_os_degree = [
        v for v in ball.vertices() if len(cg.adjacency[OneSided(v)]) != len(ball.adjacency[v])
    ]
    checks.append({"name": "one_sided_degree_matches", "ok": not wrong_os_degree})

    return checks
