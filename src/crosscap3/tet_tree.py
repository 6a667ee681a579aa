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
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import BudgetError, RadiusCapError
from .farey import Slope, mat_inverse, triangle_matrix

ALPHABET = "0123"
DEFAULT_RADIUS_CAP = 8
RADIUS_CAP_ENV = "CROSSCAP3_RADIUS_CAP"
# Elements per scratch block of numpy work: a block of link pairs here, and
# in ``metric`` one BFS level's unpacked bits, a chunk of sampled triples or
# a block of tree-comparison rows.  It keeps the scratch memory of each far
# below that of the n^2 distance table.
BLOCK_ELEMS = 1 << 16
# Link labels are checked for Farey adjacency in int64; below this bound the
# products |p s - q r| of two label entries cannot overflow.
LABEL_LIMIT = 1 << 31


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
    addresses of the tetrahedra containing it.  ``indptr``/``indices``, the
    CSR form of ``adjacency`` with sorted rows, are built from it on first
    use, never from ``tets``, so checks comparing the two stay independent.
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

    @cached_property
    def indptr(self) -> np.ndarray:
        return np.cumsum([0] + [len(self.adjacency[v]) for v in self.vertices()])

    @cached_property
    def indices(self) -> np.ndarray:
        return np.array([w for v in self.vertices() for w in sorted(self.adjacency[v])], dtype=np.int64)

    def vertex_depth(self, v: int) -> int:
        """Length of the shortest address among the tetrahedra containing v."""
        return min(len(a) for a in self.support[v])

    def in_margin(self, v: int) -> bool:
        """True iff v lies in a tetrahedron strictly inside the ball."""
        return self.vertex_depth(v) <= self.radius - 1

    @cached_property
    def table(self) -> "TetTable":
        """The tetrahedra as integer arrays, built on first use."""
        return TetTable(self)


class TetTable:
    """A ball's tetrahedra as rows of integer arrays, in generation order.

    Row t is the tetrahedron at ``addrs[t]``; ``rows`` inverts that.
    ``verts`` (T x 4) holds its vertex ids in slot order and ``nbr`` (T x 4)
    the row across each face, -1 outside the ball.  ``parent`` and ``face``
    give the row a non-root tetrahedron was unfolded from and the face it
    crossed (-1 for the root), so walking the rows in order visits every
    parent first.  ``by_verts`` maps each sorted vertex 4-tuple to its row.
    """

    def __init__(self, ball: TetBall):
        self.addrs = list(ball.tets)
        self.rows = {a: t for t, a in enumerate(self.addrs)}
        self.verts = np.array(list(ball.tets.values()), dtype=np.int64).reshape(-1, 4)
        self.parent = np.array([-1] + [self.rows[a[:-1]] for a in self.addrs[1:]], dtype=np.int64)
        self.face = np.array([-1] + [int(a[-1]) for a in self.addrs[1:]], dtype=np.int64)
        self.nbr = np.full((len(self.addrs), 4), -1, dtype=np.int64)
        child = np.arange(1, len(self.addrs))
        self.nbr[child, self.face[1:]] = self.parent[1:]
        self.nbr[self.parent[1:], self.face[1:]] = child
        self.by_verts = {tuple(sorted(v)): t for t, v in enumerate(ball.tets.values())}


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
    """Whether the tetrahedra containing v form a subtree of the address tree:
    exactly one of them (the root counts) has its parent outside the set."""
    members = ball.support[v]
    return sum(1 for a in members if not a or a[:-1] not in members) == 1


def _slope_pair(p: int, q: int) -> tuple[int, int]:
    """The canonical integer pair of a primitive vector: q > 0, or (1, 0)."""
    if q < 0 or (q == 0 and p < 0):
        return -p, -q
    return p, q


def _link_labels(ball: TetBall, v: int, base: tuple[int, int, int]) -> dict:
    """Label the link of v by Farey slopes, as canonical integer pairs (p, q).

    ``base`` is an ordered triple of neighbours of v spanning a triangle of
    the link; it receives (0/1, 1/0, 1/1).  The labelling is extended over
    the tetrahedra containing v, a subtree of the address tree, breadth
    first.  Crossing from one tetrahedron to the next keeps a pair x, y of
    the link and replaces one vertex, whose label is forced to be the other
    common neighbour of the pair.  For adjacent primitive labels x and y
    those are x + y and x - y, again primitive, so no gcd is needed.

    Raises ValueError if ``base`` is not a link triangle and RuntimeError if
    the link fails to match the Farey complex; each message names the
    tetrahedra, vertices or labels at fault.
    """
    if v not in ball.adjacency:
        raise ValueError(f"unknown vertex {v}")
    a, b, c = base
    if len({a, b, c}) != 3 or not {a, b, c} <= ball.adjacency[v]:
        raise ValueError(f"base triple {base} must be 3 distinct neighbours of vertex {v}")
    members = ball.support[v]
    cofaces = members & ball.support[a] & ball.support[b] & ball.support[c]
    if len(cofaces) != 1:
        raise ValueError(
            f"base triple {base} of vertex {v} has cofaces {sorted(cofaces)}, not exactly one"
        )
    labels = {a: (0, 1), b: (1, 0), c: (1, 1)}
    tets = ball.tets
    seen = set(cofaces)
    queue = deque(cofaces)
    while queue:
        addr = queue.popleft()
        here = set(tets[addr])
        for nb in _tree_neighbors_in(addr, members):
            if nb in seen:
                continue
            there = set(tets[nb])
            dropped, added, shared = here - there, there - here, here & there
            if len(dropped) != 1 or len(added) != 1 or len(shared) != 3:
                raise RuntimeError(f"tetrahedra {addr!r} and {nb!r} of vertex {v} share no link triangle")
            (d,), (e,) = dropped, added
            x, y = shared - {v}
            (p, q), (r, s) = labels[x], labels[y]
            if abs(p * s - q * r) != 1:
                raise RuntimeError(f"labels {p}/{q} of {x} and {r}/{s} of {y} are not Farey neighbours")
            # Labels have q >= 0, so only x - y may need its sign fixed.
            plus, minus = (p + r, q + s), _slope_pair(p - r, q - s)
            if labels[d] == plus:
                new = minus
            elif labels[d] == minus:
                new = plus
            else:
                raise RuntimeError(
                    f"link does not unfold like the Farey complex: {d} is not "
                    f"a common neighbour of {x} and {y} in {addr!r}"
                )
            if labels.setdefault(e, new) != new:
                raise RuntimeError(f"link labeling is inconsistent at {e} from {nb!r}")
            seen.add(nb)
            queue.append(nb)
    if len(seen) != len(members):
        raise RuntimeError(f"support of vertex {v} is not tree-connected")
    if len(set(labels.values())) != len(labels):
        raise RuntimeError(f"link labeling of vertex {v} is not injective")
    return labels


def link_slope_labeling(ball: TetBall, v: int, base_tri: tuple[int, int, int]) -> dict:
    """Label the link of v by Farey slopes, realizing the link isomorphism.

    ``base_tri`` is an ordered triple of neighbours of v spanning a triangle
    of the link; it receives (0/1, 1/0, 1/1).  The labeling is extended over
    the whole in-ball link by matching link unfolds with Farey unfolds (see
    ``_link_labels``).

    Returns a dict vertex -> Slope covering every in-ball neighbour of v.
    Raises ValueError if base_tri is not a link triangle and RuntimeError if
    the ball's link fails to match the Farey complex (a model violation).
    """
    return {u: Slope(p, q) for u, (p, q) in _link_labels(ball, v, base_tri).items()}


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


def common_neighbors(graph, verts) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex adjacent to all of a row of ``verts`` (R x k ids), as (row, v) arrays in order.

    Works on a TetBall or a CurveGraphBall.  A row expands the neighbours of its vertex of
    least degree (root vertices reach degree 768 at radius 8), ``BLOCK_ELEMS`` at a time."""
    indptr, n = graph.indptr, len(graph.indptr) - 1
    degree = np.diff(indptr)
    keys = np.repeat(np.arange(n), degree) * n + graph.indices  # ascending: CSR rows are sorted
    base = verts[np.arange(len(verts)), degree[verts].argmin(axis=1)]
    count = degree[base]
    end, total = np.cumsum(count), int(count.sum())  # candidate p belongs to the first row ending above p
    found = []
    for p0 in range(0, max(total, 1), BLOCK_ELEMS):  # at least one block, maybe empty
        p = np.arange(p0, min(p0 + BLOCK_ELEMS, total))
        row = np.searchsorted(end, p, side="right")
        v = graph.indices[indptr[base[row]] + p - end[row] + count[row]]
        for col in verts.T:
            want = col[row] * n + v
            hit = keys[np.minimum(np.searchsorted(keys, want), len(keys) - 1)] == want
            row, v = row[hit], v[hit]
        found.append((row, v))
    rows, vs = zip(*found)
    return np.concatenate(rows), np.concatenate(vs)


def four_cliques(ball: TetBall) -> np.ndarray:
    """All 4-cliques of the ball's adjacency graph as ascending rows, in lexicographic
    order: each vertex extended three times by the common neighbours above it."""
    cliques = np.arange(ball.n_vertices)[:, None]
    for _ in range(3):
        row, v = common_neighbors(ball, cliques)
        above = v > cliques[row, -1]
        cliques = np.column_stack([cliques[row[above]], v[above]])
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
    listed = np.unique(np.sort(np.array(list(ball.tets.values())), axis=1), axis=0)
    # A 4-clique with a common neighbour (possibly vertex 0) spans a 5-clique.
    five = cliques[np.unique(common_neighbors(ball, cliques)[0])]
    checks.append(
        {
            "name": "four_cliques_are_tets",
            "ok": np.array_equal(cliques, listed) and not len(five),
            "cliques": len(cliques),
            "tets": len(listed),
            "five_cliques": five[:5].tolist(),
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


def _base_triple(ball: TetBall, v: int, addr: str) -> tuple:
    return tuple(x for x in ball.tets[addr] if x != v)


def _mobius_mismatch(labels: dict, relabels: dict, base: tuple):
    """The first vertex whose relabel is not the Mobius image of its label, or None.

    The matrix sends the labels of ``base`` to (0/1, 1/0, 1/1), so it must
    carry the whole first labelling onto the labelling from ``base``.
    """
    (a, b), (c, d) = mat_inverse(triangle_matrix(tuple(Slope(*labels[x]) for x in base)))
    for u, (p, q) in labels.items():
        # The image is primitive, so it equals the canonical relabel up to sign.
        image = (a * p + b * q, c * p + d * q)
        relabel = relabels.get(u)
        if relabel != image and relabel != (-image[0], -image[1]):
            return u
    return None


def _edge_mismatches(group: list) -> list[tuple]:
    """Link pairs of a block of equal-degree vertices where edge and Farey adjacency differ.

    ``group`` holds (v, members, labels, edge keys): the sorted link members,
    their labels in that order and ``i * k + j`` for each link edge with
    i < j.  Farey adjacency |ps - qr| = 1 is scored on (m, rows, k) int64
    blocks of at most about ``BLOCK_ELEMS``; the result is one failure tuple
    per mismatched pair, in (vertex, i, j) order.
    """
    m, k = len(group), len(group[0][1])
    labels = np.array([row for _, _, row, _ in group], dtype=np.int64)
    p, q = labels[:, :, 0], labels[:, :, 1]
    rows = max(1, BLOCK_ELEMS // (m * k))
    farey = []
    for r0 in range(0, k, rows):
        det = p[:, r0 : r0 + rows, None] * q[:, None, :] - q[:, r0 : r0 + rows, None] * p[:, None, :]
        g, i, j = np.nonzero(np.abs(det) == 1)
        i += r0
        farey.append(((g * k + i) * k + j)[i < j])
    edges = np.array([g * k * k + key for g, (*_, keys) in enumerate(group) for key in keys], dtype=np.int64)
    out = []
    for key in np.setxor1d(np.concatenate(farey), edges).tolist():
        g, ij = divmod(key, k * k)
        i, j = divmod(ij, k)
        v, members = group[g][0], group[g][1]
        out.append((v, 1, i, j, f"edge mismatch at ({members[i]}, {members[j]})"))
    return out


def link_labeling_report(ball: TetBall) -> list[dict]:
    """Check that every in-ball link labels injectively onto a Farey subcomplex.

    For each vertex, labels the full in-ball link from a canonical base
    triangle and verifies that link edges correspond exactly to Farey-adjacent
    label pairs (both directions), and that a relabeling from a second base
    differs by the Mobius action of the matrix determined by the base images.
    The pair check runs on blocks of vertices of equal degree, which are
    dropped once scored.  Failures are listed by vertex, and within a vertex
    labelling or coverage failures first, then edge mismatches in pair
    order, then the Mobius cross-check.
    """
    failures = []  # (vertex, kind, i, j, message)
    vertices_checked = 0
    groups: dict = {}  # degree -> vertices awaiting the pair check
    for v in ball.vertices():
        try:
            labels = _link_labels(ball, v, _base_triple(ball, v, min(ball.support[v])))
        except (RuntimeError, ValueError) as exc:
            failures.append((v, 0, 0, 0, str(exc)))
            continue
        vertices_checked += 1
        nbrs = ball.adjacency[v]
        if labels.keys() != nbrs:
            failures.append((v, 0, 0, 0, "labeling does not cover the link"))
            continue
        other_base = _base_triple(ball, v, max(ball.support[v]))
        try:
            relabels = _link_labels(ball, v, other_base)
        except (RuntimeError, ValueError) as exc:
            failures.append((v, 0, 0, 0, f"relabelling from base {other_base}: {exc}"))
        else:
            u = _mobius_mismatch(labels, relabels, other_base)
            if u is not None:
                failures.append((v, 2, 0, 0, f"Mobius cross-check failed at {u}"))
        members = sorted(nbrs)
        row = [labels[u] for u in members]
        if max(map(abs, chain.from_iterable(row))) >= LABEL_LIMIT:
            raise BudgetError(f"a link label of vertex {v} reaches {LABEL_LIMIT}, the limit of the pair check")
        k = len(members)
        index = {u: i for i, u in enumerate(members)}
        keys = [i * k + index[y] for i, x in enumerate(members) for y in ball.adjacency[x] & nbrs if i < index[y]]
        group = groups.setdefault(k, [])
        group.append((v, members, row, keys))
        if len(group) * k * k >= BLOCK_ELEMS:
            failures += _edge_mismatches(group)
            group.clear()
    for group in groups.values():
        if group:
            failures += _edge_mismatches(group)
    failures.sort(key=lambda f: f[:4])
    return [
        {
            "name": "link_labelings",
            "ok": not failures,
            "vertices_checked": vertices_checked,
            "failures": [{"vertex": f[0], "error": f[4]} for f in failures[:5]],
        }
    ]
