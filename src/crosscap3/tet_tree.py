"""Finite balls of the tetrahedron complex on one-sided curves.

The complex has one vertex per one-sided curve class; tetrahedra are
4-element families pairwise intersecting once, each triangle lies in exactly
two tetrahedra, and the dual graph of tetrahedra (adjacency = shared
triangle) is a 4-regular tree.  A ball is generated by unfolding from a root
tetrahedron: crossing face i of a tetrahedron keeps the other three vertices
in their local slots and puts a fresh vertex at slot i.

Tetrahedra are addressed by reduced words over {0,1,2,3} (no letter repeats
its predecessor); the empty word is the root.  Because generation is a
lexicographic breadth-first walk, vertex ids and serializations are
canonical: regenerating a ball always yields the same bytes.
"""

from __future__ import annotations

import os
from collections import deque

from .errors import RadiusCapError
from .farey import (
    Slope,
    common_neighbors,
    farey_adjacent,
    mat_inverse,
    mobius_apply,
    triangle_matrix,
)

ALPHABET = "0123"
DEFAULT_RADIUS_CAP = 8
RADIUS_CAP_ENV = "CROSSCAP3_RADIUS_CAP"


def radius_cap() -> int:
    """The configured ball-radius cap (overridable via the environment)."""
    value = os.environ.get(RADIUS_CAP_ENV)
    if not value:
        return DEFAULT_RADIUS_CAP
    if not value.isdecimal():
        raise RadiusCapError(f"{RADIUS_CAP_ENV} must be a nonnegative integer, got {value!r}")
    return int(value)


def is_address(word: str) -> bool:
    """True iff word is a reduced address: letters in 0..3, no immediate repeats."""
    if any(ch not in ALPHABET for ch in word):
        return False
    return all(word[i] != word[i + 1] for i in range(len(word) - 1))


def neighbor(addr: str, face: int) -> str:
    """Address of the tetrahedron across ``face``.

    Appends the face letter, except that crossing the face named by the last
    letter backtracks to the parent.
    """
    if face not in (0, 1, 2, 3):
        raise ValueError(f"face must be in 0..3, got {face}")
    letter = ALPHABET[face]
    if addr and addr[-1] == letter:
        return addr[:-1]
    return addr + letter


def tree_distance(a: str, b: str) -> int:
    """Path distance between two addresses in the 4-regular tree."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    return (len(a) - k) + (len(b) - k)


def tree_path(a: str, b: str) -> list[str]:
    """The geodesic from a to b in the tree, as a list of addresses."""
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    up = [a[:i] for i in range(len(a), k - 1, -1)]
    down = [b[:i] for i in range(k + 1, len(b) + 1)]
    return up + down


class TetBall:
    """All tetrahedra within tree distance ``radius`` of the root, immutable.

    ``tets`` maps each address to its 4 vertex ids in slot order;
    ``adjacency`` records co-residence in some tetrahedron of the ball (which
    equals edge restriction to the ball); ``support`` maps each vertex to the
    addresses of the tetrahedra containing it.
    """

    def __init__(self, radius: int, tets: dict):
        self.radius = radius
        self.tets = tets
        adjacency: dict = {}
        support: dict = {}
        for addr, verts in tets.items():
            for i, v in enumerate(verts):
                support.setdefault(v, set()).add(addr)
                adj_v = adjacency.setdefault(v, set())
                for w in verts[i + 1 :]:
                    adj_v.add(w)
                    adjacency.setdefault(w, set()).add(v)
        self.adjacency = adjacency
        self.support = support
        self.n_vertices = len(adjacency)

    def __repr__(self) -> str:
        return f"TetBall(radius={self.radius}, tets={len(self.tets)})"

    def vertices(self) -> range:
        return range(self.n_vertices)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (v, w) for v, nbrs in self.adjacency.items() for w in nbrs if v < w
        )

    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def has_edge(self, v: int, w: int) -> bool:
        return w in self.adjacency.get(v, ())

    def vertex_depth(self, v: int) -> int:
        """Length of the shortest address among the tetrahedra containing v."""
        return min(len(a) for a in self.support[v])

    def in_margin(self, v: int) -> bool:
        """True iff v lies in a tetrahedron strictly inside the ball."""
        return self.vertex_depth(v) <= self.radius - 1


def generate_ball(radius: int, *, cap: int | None = None) -> TetBall:
    """Generate the ball of the given tree radius.

    Deterministic: addresses are visited breadth-first in lexicographic
    order and fresh vertex ids count up from 4, so the result is identical
    across runs.  Counts: 2*3**n - 1 tetrahedra, 2*3**n + 2 vertices,
    6*3**n edges.
    """
    if cap is None:
        cap = radius_cap()
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > cap:
        raise RadiusCapError(f"radius {radius} exceeds cap {cap}")
    tets = {"": (0, 1, 2, 3)}
    frontier = [""]
    next_id = 4
    for _ in range(radius):
        nxt = []
        for addr in frontier:
            verts = tets[addr]
            skip = addr[-1] if addr else None
            for face in range(4):
                letter = ALPHABET[face]
                if letter == skip:
                    continue
                child = list(verts)
                child[face] = next_id
                next_id += 1
                tets[addr + letter] = tuple(child)
                nxt.append(addr + letter)
        frontier = nxt
    return TetBall(radius, tets)


def link(ball: TetBall, v: int) -> dict:
    """The link of v: adjacency among the neighbours of v.

    Two neighbours are joined exactly when they are adjacent to each other
    (equivalently, co-resident with v in a tetrahedron of the ball).
    """
    if v not in ball.adjacency:
        raise ValueError(f"unknown vertex {v}")
    nbrs = ball.adjacency[v]
    return {u: ball.adjacency[u] & nbrs for u in nbrs}


def _tree_neighbors_in(addr: str, members: set) -> list[str]:
    out = []
    if addr and addr[:-1] in members:
        out.append(addr[:-1])
    for letter in ALPHABET:
        if not addr or addr[-1] != letter:
            child = addr + letter
            if child in members:
                out.append(child)
    return out


def support_connected(ball: TetBall, v: int) -> bool:
    """Whether the tetrahedra containing v form a subtree of the address tree."""
    members = ball.support[v]
    start = min(members)
    seen = {start}
    queue = deque([start])
    while queue:
        addr = queue.popleft()
        for nb in _tree_neighbors_in(addr, members):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(members)


def link_slope_labeling(ball: TetBall, v: int, base_tri: tuple[int, int, int]) -> dict:
    """Label the link of v by Farey slopes, realizing the link isomorphism.

    ``base_tri`` is an ordered triple of neighbours of v spanning a triangle
    of the link; it receives (0/1, 1/0, 1/1).  The labeling is extended over
    the whole in-ball link by matching link unfolds with Farey unfolds: the
    tetrahedra containing v form a subtree of the address tree, two of them
    are tree-adjacent exactly when their link triangles share an edge, and
    crossing that edge replaces one link vertex, whose label is forced to be
    the other common neighbour of the shared pair.

    Returns a dict vertex -> Slope covering every in-ball neighbour of v.
    Raises ValueError if base_tri is not a link triangle and RuntimeError if
    the ball's link fails to match the Farey complex (a model violation).
    """
    if v not in ball.adjacency:
        raise ValueError(f"unknown vertex {v}")
    a, b, c = base_tri
    if len({a, b, c}) != 3 or not {a, b, c} <= ball.adjacency[v]:
        raise ValueError("base triangle must be 3 distinct neighbours of v")
    base_cofaces = ball.support[v] & ball.support[a] & ball.support[b] & ball.support[c]
    if not base_cofaces:
        raise ValueError("base triple does not span a triangle of the link")
    (base_addr,) = base_cofaces
    labels = {a: Slope(0, 1), b: Slope(1, 0), c: Slope(1, 1)}
    members = ball.support[v]
    seen = {base_addr}
    queue = deque([base_addr])
    while queue:
        addr = queue.popleft()
        tet_here = set(ball.tets[addr])
        for nb in _tree_neighbors_in(addr, members):
            if nb in seen:
                continue
            tet_there = set(ball.tets[nb])
            shared = tet_here & tet_there
            (dropped,) = tet_here - shared
            (added,) = tet_there - shared
            x, y = shared - {v}
            options = common_neighbors(labels[x], labels[y])
            if labels[dropped] not in options:
                raise RuntimeError("link does not unfold like the Farey complex")
            (new_label,) = options - {labels[dropped]}
            if added in labels:
                if labels[added] != new_label:
                    raise RuntimeError("link labeling is inconsistent")
            else:
                labels[added] = new_label
            seen.add(nb)
            queue.append(nb)
    if len(seen) != len(members):
        raise RuntimeError(f"support of vertex {v} is not tree-connected")
    if len(set(labels.values())) != len(labels):
        raise RuntimeError(f"link labeling of vertex {v} is not injective")
    return labels


def triangle_cofaces(ball: TetBall, tri) -> tuple[str, ...]:
    """Addresses of the tetrahedra of the ball containing the triangle ``tri``.

    Interior triangles have exactly two cofaces and those are tree-adjacent;
    at the boundary one coface may be cut off.
    """
    tri = tuple(tri)
    if len(set(tri)) != 3:
        raise ValueError("a triangle has 3 distinct vertices")
    a, b, c = tri
    for x, y in ((a, b), (a, c), (b, c)):
        if not ball.has_edge(x, y):
            raise ValueError(f"{tri} is not a triangle: {x} and {y} are not adjacent")
    cofaces = ball.support[a] & ball.support[b] & ball.support[c]
    if not cofaces:
        raise ValueError(f"{tri} is not a triangle of the ball")
    return tuple(sorted(cofaces))


def four_cliques(ball: TetBall) -> set:
    """All 4-element cliques of the ball's adjacency graph."""
    cliques = set()
    adj = ball.adjacency
    for v, w in ball.edges():
        common = sorted(adj[v] & adj[w])
        for i, x in enumerate(common):
            adj_x = adj[x]
            for y in common[i + 1 :]:
                if y in adj_x:
                    cliques.add(frozenset((v, w, x, y)))
    return cliques


# ---------------------------------------------------------------------------
# Serialization

def ball_to_json(ball: TetBall) -> dict:
    return {
        "radius": ball.radius,
        "tets": [
            {"addr": addr, "verts": list(verts)} for addr, verts in ball.tets.items()
        ],
        "edges": [list(e) for e in ball.edges()],
    }


def ball_to_dot(ball: TetBall) -> str:
    lines = [f"graph tetball_{ball.radius} {{", "  node [shape=circle];"]
    for v in ball.vertices():
        lines.append(f"  {v};")
    for v, w in ball.edges():
        lines.append(f"  {v} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural verification

def count_checks(ball: TetBall) -> list[dict]:
    """Tetrahedron, vertex and edge counts against their closed forms in the radius."""
    n = ball.radius
    return [
        {"name": name, "ok": found == want, "found": found, "expected": want}
        for name, found, want in (
            ("tet_count", len(ball.tets), 2 * 3**n - 1),
            ("vertex_count", ball.n_vertices, 2 * 3**n + 2),
            ("edge_count", ball.n_edges(), 6 * 3**n),
        )
    ]


def structural_report(ball: TetBall) -> list[dict]:
    """Run the structural invariant checks for one ball; one dict per check."""
    n = ball.radius
    checks = count_checks(ball)

    bad_addr = [a for a in ball.tets if not is_address(a) or len(a) > n]
    checks.append({"name": "addresses_reduced", "ok": not bad_addr, "bad": bad_addr[:5]})

    cliques = four_cliques(ball)
    listed = {frozenset(verts) for verts in ball.tets.values()}
    five = [
        sorted(q)
        for q in cliques
        if any(set.intersection(*(ball.adjacency[x] for x in q)))
    ]
    checks.append(
        {
            "name": "four_cliques_are_tets",
            "ok": cliques == listed and not five,
            "cliques": len(cliques),
            "tets": len(listed),
            "five_cliques": five[:5],
        }
    )

    disconnected = [v for v in ball.vertices() if not support_connected(ball, v)]
    checks.append({"name": "supports_tree_connected", "ok": not disconnected, "bad": disconnected[:5]})

    prefix_ok = True
    if n > 0:
        smaller = generate_ball(n - 1, cap=max(n, radius_cap()))
        prefix_ok = all(ball.tets[a] == verts for a, verts in smaller.tets.items())
    checks.append({"name": "prefix_stable", "ok": prefix_ok})

    bad_cofaces = []
    for addr, verts in ball.tets.items():
        if len(addr) > n - 1:
            continue
        for i in range(4):
            tri = tuple(verts[j] for j in range(4) if j != i)
            cof = triangle_cofaces(ball, tri)
            if len(cof) != 2 or tree_distance(cof[0], cof[1]) != 1:
                bad_cofaces.append((addr, i, cof))
    checks.append({"name": "interior_triangle_cofaces", "ok": not bad_cofaces, "bad": bad_cofaces[:5]})

    return checks


def link_labeling_report(ball: TetBall) -> list[dict]:
    """Check that every in-ball link labels injectively onto a Farey subcomplex.

    For each vertex, labels the full in-ball link from a canonical base
    triangle and verifies that link edges correspond exactly to Farey-adjacent
    label pairs (both directions), and that a relabeling from a second base
    differs by the Mobius action of the matrix determined by the base images.
    """
    failures = []
    vertices_checked = 0
    for v in ball.vertices():
        base_addr = min(ball.support[v])
        base = tuple(x for x in ball.tets[base_addr] if x != v)
        try:
            labels = link_slope_labeling(ball, v, base)
        except (RuntimeError, ValueError) as exc:
            failures.append({"vertex": v, "error": str(exc)})
            continue
        vertices_checked += 1
        nbrs = ball.adjacency[v]
        if set(labels) != nbrs:
            failures.append({"vertex": v, "error": "labeling does not cover the link"})
            continue
        members = sorted(nbrs)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                linked = y in ball.adjacency[x]
                if linked != farey_adjacent(labels[x], labels[y]):
                    failures.append(
                        {"vertex": v, "error": f"edge mismatch at ({x}, {y})"}
                    )
        other_addr = max(ball.support[v])
        other_base = tuple(x for x in ball.tets[other_addr] if x != v)
        relabels = link_slope_labeling(ball, v, other_base)
        m = mat_inverse(triangle_matrix(tuple(labels[x] for x in other_base)))
        for u, s in labels.items():
            if relabels[u] != mobius_apply(m, s):
                failures.append({"vertex": v, "error": f"Mobius cross-check failed at {u}"})
                break
    return [
        {
            "name": "link_labelings",
            "ok": not failures,
            "vertices_checked": vertices_checked,
            "failures": failures[:5],
        }
    ]
