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
# in ``metric`` one BFS level's unpacked bits, a chunk of sampled triples, a
# block of bottleneck pairs or of blocked sets, or a block of
# tree-comparison rows.  It keeps the scratch memory of each far
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
    use; like ``adjacency`` they derive from ``tets``.
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
    crossed, so in a generated ball walking the rows in order visits every
    parent first.  Both are -1 for the root; ``parent`` is also -1 where the
    parent address is missing, and ``face`` where the last letter is not a
    face, so a malformed ball still builds a table.  ``by_verts`` maps each
    sorted vertex 4-tuple to its row, ``depth`` gives each address
    length, ``born`` each vertex's creation row and ``ancestors`` each
    row's chain of ancestors.  All but ``addrs``, ``verts``, ``parent`` and
    ``face`` are built on first use, so a table kept for the structural
    checks stays small.
    """

    def __init__(self, ball: TetBall):
        self.addrs = list(ball.tets)
        self.verts = np.array(list(ball.tets.values()), dtype=np.int64).reshape(-1, 4)
        rows = {a: t for t, a in enumerate(self.addrs)}
        self.parent = np.array([rows.get(a[:-1], -1) if a else -1 for a in self.addrs], dtype=np.int64)
        self.face = np.array([ALPHABET.find(a[-1]) if a else -1 for a in self.addrs], dtype=np.int64)

    @cached_property
    def rows(self) -> dict:
        return {a: t for t, a in enumerate(self.addrs)}

    @cached_property
    def nbr(self) -> np.ndarray:
        nbr = np.full((len(self.addrs), 4), -1, dtype=np.int64)
        child = np.flatnonzero((self.parent >= 0) & (self.face >= 0))
        nbr[child, self.face[child]] = self.parent[child]
        nbr[self.parent[child], self.face[child]] = child
        return nbr

    @cached_property
    def by_verts(self) -> dict:
        return {tuple(v): t for t, v in enumerate(np.sort(self.verts, axis=1).tolist())}

    @cached_property
    def depth(self) -> np.ndarray:
        return np.fromiter(map(len, self.addrs), dtype=np.int64, count=len(self.addrs))

    @cached_property
    def born(self) -> np.ndarray:
        """The creation row of each vertex: the first row holding it.

        In a generated ball that row is the top of the vertex's support
        subtree, so its address is ``min(ball.support[v])``.
        """
        born = np.full(self.verts.max(initial=-1) + 1, len(self.verts), dtype=np.int64)
        np.minimum.at(born, self.verts, np.arange(len(self.verts))[:, None])
        return born

    @cached_property
    def ancestors(self) -> np.ndarray:
        """``ancestors[t, k]`` is the row of the depth-k ancestor of row t, -1 below its depth."""
        t = np.arange(len(self.addrs))
        if ((self.parent < 0) != (self.depth == 0)).any():
            raise ValueError("ball holds a tetrahedron without its parent")
        anc = np.full((len(t), int(self.depth.max(initial=0)) + 1), -1, dtype=np.int64)
        anc[t, self.depth] = t
        for k in range(anc.shape[1] - 1, 0, -1):
            below = anc[:, k] >= 0
            anc[below, k - 1] = self.parent[anc[below, k]]
        return anc


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
    return TetBall(radius, _unfold(radius))


def _unfold(radius: int) -> dict:
    """The address -> vertex-tuple dict of the generated ball of this radius."""
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
    return tets


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


def _interior_coface_faults(ball: TetBall) -> tuple[int, list]:
    """Faces of tetrahedra inside the ball whose triangle does not lie in exactly two
    tetrahedra, one the parent of the other: their count and the first five as
    (addr, i, cofaces), cofaces being the sorted addresses holding the triangle.

    The four faces of every row are grouped by sorted vertex triple; a row
    with a repeated vertex counts once in a group."""
    table = ball.table
    tri = np.sort(table.verts[:, _OTHER_SLOTS], axis=2).reshape(-1, 3)
    row = np.repeat(np.arange(len(table.addrs)), 4)
    order = np.lexsort((row, tri[:, 2], tri[:, 1], tri[:, 0]))
    tri, row = tri[order], row[order]
    start = np.r_[True, (tri[1:] != tri[:-1]).any(axis=1)]
    group = np.cumsum(start) - 1
    keep = start | np.r_[True, row[1:] != row[:-1]]
    krow, kgroup = row[keep], group[keep]
    first = np.flatnonzero(start[keep])
    r1, r2 = krow[first], krow[np.minimum(first + 1, len(krow) - 1)]
    pair_ok = (np.bincount(kgroup) == 2) & ((table.parent[r1] == r2) | (table.parent[r2] == r1))
    face_group = np.empty_like(group)
    face_group[order] = group
    face_group = face_group.reshape(-1, 4)
    faults = np.argwhere(~pair_ok[face_group] & (table.depth < ball.radius)[:, None])
    witnesses = [
        (table.addrs[t], i, tuple(sorted(table.addrs[r] for r in krow[kgroup == face_group[t, i]])))
        for t, i in faults[:5].tolist()
    ]
    return len(faults), witnesses


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

    prefix_ok = n == 0 or all(ball.tets.get(a) == verts for a, verts in _unfold(n - 1).items())
    checks.append({"name": "prefix_stable", "ok": prefix_ok})

    faults, bad_cofaces = _interior_coface_faults(ball)
    checks.append({"name": "interior_triangle_cofaces", "ok": not faults, "bad": bad_cofaces})

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


# The slots of a row other than s, in order: the base triple of a vertex at
# slot s, or the face opposite slot s.
_OTHER_SLOTS = np.array([[k for k in range(4) if k != s] for s in range(4)])
# The labels (0/1, 1/0, 1/1) on the other slots of a vertex at slot s.
_SEED = np.array([[((0, 1), (1, 0), (1, 1))[k - (k > s)] if k != s else (0, 0) for k in range(4)] for s in range(4)])
# For j != c, the two slots other than j and c: the link edge kept when the
# link of the vertex at slot j crosses slot c.
_KEPT = np.array([[[k for k in range(4) if k not in (j, c)][:2] for c in range(4)] for j in range(4)])


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """``_slope_pair`` on every row of an (N x 2) int64 array, in place."""
    pairs[(pairs[:, 1] < 0) | ((pairs[:, 1] == 0) & (pairs[:, 0] < 0))] *= -1
    return pairs


def _cross(src: np.ndarray, j: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_link_labels``'s crossing rule for N links at once: cross slot c in the link at slot j.

    ``src`` (N x 4 x 2) holds the labels of the other slots before the
    crossing and is updated in place: the kept pair x, y keeps its labels
    and slot c gets whichever of x + y and x - y its old label is not.
    Returns that new label, in int64, and whether |ps - qr| = 1 and the old
    label was x + y or x - y.
    """
    n = np.arange(len(src))
    x, y, d = (src[n, k].astype(np.int64) for k in (_KEPT[j, c, 0], _KEPT[j, c, 1], c))
    plus, minus = x + y, _canonical(x - y)
    is_plus, is_minus = (d == plus).all(axis=1), (d == minus).all(axis=1)
    ok = (np.abs(x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]) == 1) & (is_plus | is_minus)
    new = np.where(is_plus[:, None], minus, plus)
    src[n, c] = new
    return new, ok


def _link_shape(table: TetTable, n: int) -> tuple | None:
    """Where each vertex's links start, or None for a ball not shaped like a generated one.

    A generated ball has every non-root address a reduced word whose parent
    is in the ball and differs from it in exactly one slot, and every vertex
    id in 0..n-1 has exactly one birth row: the root, or a row that does not
    inherit it at the same slot from its parent.  Then the tetrahedra
    containing v are a subtree below its birth row, all with v at one slot.
    Returns (born, cross, last, slot): ``born`` (T x 4) marks birth slots,
    ``cross`` (T,) is the slot each row changes, ``last`` (n,) the last row
    of each vertex's support in address order and ``slot`` (n,) its slot.
    """
    verts, parent, face = table.verts, table.parent, table.face
    if table.addrs[:1] != [""] or (parent[1:] < 0).any() or (face[1:] < 0).any() or (face[1:] == face[parent[1:]]).any():
        return None
    if verts.min() < 0 or verts.max() >= n:
        return None
    born = np.ones(verts.shape, dtype=bool)
    born[1:] = verts[1:] != verts[parent[1:]]
    if (born[1:].sum(axis=1) != 1).any() or (np.bincount(verts[born], minlength=n) != 1).any():
        return None
    order = np.argsort(np.array(table.addrs))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, verts.ravel(), np.repeat(rank, 4))
    slot = np.empty(n, dtype=np.int64)
    slot[verts[born]] = np.nonzero(born)[1]
    return born, born.argmax(axis=1), order[last], slot


def _slot_labels(
    table: TetTable, born: np.ndarray, cross: np.ndarray, j: int, start: np.ndarray, flagged: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Label the link of the vertex at slot j of every row, as ``_link_labels`` does.

    ``start`` gives, for each birth row of slot j in order, the row whose
    other three slots get (0/1, 1/0, 1/1).  The labelling walks up from
    there to the birth row, then crosses into every other row from its
    parent, depth by depth.  Returns ``labels`` (T x 4 x 2), ``labels[t, k]``
    being the label of slot k, and the rows that got a label of at least
    ``LABEL_LIMIT``; marks in ``flagged`` the vertices a crossing check
    failed on.
    """
    verts, parent = table.verts, table.parent
    owner = verts[:, j]
    labels = np.zeros((len(verts), 4, 2), dtype=np.int32)
    labels[start] = _SEED[j]
    done = np.zeros(len(verts), dtype=bool)
    done[start] = True
    big = np.zeros(len(verts), dtype=bool)
    birth = np.flatnonzero(born[:, j])
    depth = table.depth
    at = start.copy()
    live = np.flatnonzero(at != birth)
    for _ in range(int(depth.max())):  # each walk reaches its birth row within the depth
        child = at[live]
        src = labels[child]
        _, ok = _cross(src, j, cross[child])
        at[live] = parent[child]
        labels[at[live]] = src
        done[at[live]] = True
        flagged[owner[child][~ok]] = True
        live = live[at[live] != birth[live]]
    for d in range(1, int(depth.max()) + 1):
        t = np.flatnonzero((depth == d) & ~done)
        src = labels[parent[t]]
        new, ok = _cross(src, j, cross[t])
        labels[t] = src
        flagged[owner[t][~ok]] = True
        big[t] = np.abs(new).max(axis=1) >= LABEL_LIMIT
    return labels, big


def _mobius_flags(labels: np.ndarray, relabels: np.ndarray, base: np.ndarray, j: int) -> np.ndarray:
    """The rows whose slot-j link relabels are not the Mobius image of their labels, up to sign.

    The matrix sends the first labels a, b, c of the second base, row
    ``base[t]``, to (0/1, 1/0, 1/1): ``triangle_matrix``, then
    ``mat_inverse``, on every row at once.  A row is also returned when
    a, b, c are not an ordered Farey triangle.
    """
    a, b, c = (labels[base, k].astype(np.int64) for k in _OTHER_SLOTS[j])
    is_plus, is_minus = (c == _canonical(a + b)).all(axis=1), (c == _canonical(a - b)).all(axis=1)
    sign = np.where(is_plus, 1, -1)
    det = sign * (b[:, 0] * a[:, 1] - a[:, 0] * b[:, 1])
    p, q, r, s = labels[:, :, 0], labels[:, :, 1], relabels[:, :, 0], relabels[:, :, 1]
    # The inverse is det * ((sign a_q, -sign a_p), (-b_q, b_p)).
    image_p = (det * sign)[:, None] * (a[:, 1:] * p - a[:, :1] * q)
    image_q = det[:, None] * (b[:, :1] * q - b[:, 1:] * p)
    same = ((r == image_p) & (s == image_q)) | ((r == -image_p) & (s == -image_q))
    return ~(is_plus | is_minus) | (np.abs(det) != 1) | ~same.all(axis=1)


def _link_pass(ball: TetBall) -> tuple | None:
    """Label every vertex link from both bases at once and flag the vertices a check fails on.

    None if ``_link_shape`` finds the ball not shaped like a generated one;
    otherwise (flagged, over, labels, relabels): ``flagged`` (n,) marks the
    vertices a check fails on, ``over`` those with a first label of at
    least ``LABEL_LIMIT``, and ``labels`` and ``relabels`` (2E x 2) are the
    first and second label of each link member, in the order of
    ``ball.indices``.  The checks are the crossings, the Mobius check, and
    that each vertex's labels are one per neighbour in each labelling,
    injective, and cover exactly its adjacency.  A vertex keeps one slot
    in every row, so all of it runs a slot at a time.
    """
    n, table = ball.n_vertices, ball.table
    shape = _link_shape(table, n)
    if shape is None:
        return None
    born, cross, last, slot = shape
    flagged = np.zeros(n, dtype=bool)
    over = np.full(n, LABEL_LIMIT <= 1)
    tail = np.repeat(np.arange(n), np.diff(ball.indptr))
    csr = tail * n + ball.indices
    first, second = np.zeros((len(csr), 2), dtype=np.int32), np.zeros((len(csr), 2), dtype=np.int32)
    for j, others in enumerate(_OTHER_SLOTS):
        owner = table.verts[:, j]
        birth = np.flatnonzero(born[:, j])
        labels, big = _slot_labels(table, born, cross, j, birth, flagged)
        over[owner[big]] = True
        relabels, _ = _slot_labels(table, born, cross, j, last[owner[birth]], flagged)
        flagged[owner[_mobius_flags(labels, relabels, last[owner], j)]] = True
        key = (owner[:, None] * n + table.verts[:, others]).ravel()
        order = np.argsort(key)
        key = key[order]
        one, two = labels[:, others].reshape(-1, 2)[order], relabels[:, others].reshape(-1, 2)[order]
        repeat = key[1:] == key[:-1]
        clash = repeat & ((one[1:] != one[:-1]).any(axis=1) | (two[1:] != two[:-1]).any(axis=1))
        flagged[key[1:][clash] // n] = True
        distinct = np.r_[True, ~repeat]
        key, one, two = key[distinct], one[distinct], two[distinct]
        v = key // n
        order = np.lexsort((one[:, 1], one[:, 0], v))
        same = (v[order][1:] == v[order][:-1]) & (one[order][1:] == one[order][:-1]).all(axis=1)
        flagged[v[order][1:][same]] = True
        mine = np.flatnonzero(slot[tail] == j)
        if len(key) != len(mine) or (key != csr[mine]).any():
            flagged[np.setxor1d(key, csr[mine], assume_unique=True) // n] = True
        at = np.minimum(np.searchsorted(key, csr[mine]), len(key) - 1)
        first[mine], second[mine] = one[at], two[at]
    return flagged, over, first, second


def _link_edges(ball: TetBall) -> tuple[np.ndarray, np.ndarray]:
    """Every link edge as (v, i * k + j) for members i < j of the sorted link of v, k its size.

    The common neighbours of each directed edge (v, x), in blocks of
    ``BLOCK_ELEMS // 8`` edges: at radius 8 an edge has six candidate
    neighbours on average, so a block is about one ``common_neighbors``
    block.  v is nondecreasing."""
    indptr, indices = ball.indptr, ball.indices
    n = len(indptr) - 1
    degree = np.diff(indptr)
    tail = np.repeat(np.arange(n), degree)
    csr = tail * n + indices
    found = []
    step = max(1, BLOCK_ELEMS // 8)
    for e0 in range(0, max(len(indices), 1), step):
        e = np.arange(e0, min(e0 + step, len(indices)))
        row, y = common_neighbors(ball, np.column_stack([tail[e], indices[e]]))
        e = e[row]
        v = tail[e]
        i, j = e - indptr[v], np.searchsorted(csr, v * n + y) - indptr[v]
        keep = i < j
        found.append((v[keep], (i * degree[v] + j)[keep]))
    vs, keys = zip(*found)
    return np.concatenate(vs), np.concatenate(keys)


def _check_vertex(ball: TetBall, v: int, failures: list) -> tuple[bool, tuple | None]:
    """The per-vertex link check of v by ``_link_labels`` breadth-first searches.

    Appends v's labelling, coverage, relabelling and Mobius failures and
    raises BudgetError for a label over ``LABEL_LIMIT``.  Returns whether the
    first labelling succeeded and v's (v, members, labels, edge keys) entry
    for ``_edge_mismatches``, or None when v has no pair check.
    """
    try:
        labels = _link_labels(ball, v, _base_triple(ball, v, min(ball.support[v])))
    except (RuntimeError, ValueError) as exc:
        failures.append((v, 0, 0, 0, str(exc)))
        return False, None
    nbrs = ball.adjacency[v]
    if labels.keys() != nbrs:
        failures.append((v, 0, 0, 0, "labeling does not cover the link"))
        return True, None
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
    return True, (v, members, row, keys)


def link_labeling_report(ball: TetBall) -> list[dict]:
    """Check that every in-ball link labels injectively onto a Farey subcomplex.

    Each vertex's link is labelled by Farey slopes twice: from the base
    triangle of its first tetrahedron in address order (its birth row) and
    from that of its last.  Link edges must be exactly the Farey-adjacent
    label pairs (both directions), and the second labelling must be the
    Mobius image of the first under the matrix its base images determine.

    ``_link_pass`` labels every link at once on ``ball.table``: row t, slot
    j holds the labels of the other three slots in the link of
    ``verts[t, j]``.  In a ball shaped like a generated one the tetrahedra
    containing v are the subtree below its birth row that keeps v at its
    slot, and ``_link_labels``'s breadth-first search from a base row of that
    subtree reaches every other row from its tree neighbour nearer the base,
    by a crossing that keeps two labels and forces the third.  From the
    birth row that neighbour is the parent; from the last row it is the
    child on the path up to the birth row, then the parent off that path.
    The pass makes exactly those crossings, so its labels are the search's.

    The pass flags every vertex on which a crossing, the Mobius check,
    uniqueness or injectivity of its labels, or coverage of its adjacency
    fails; those vertices, and every vertex of a ball not shaped like a
    generated one, take the per-vertex searches of ``_check_vertex``, which
    write their records.  The pair check runs on blocks of vertices of
    equal degree, which are dropped once scored.  Failures are listed by
    vertex, and within a vertex labelling or coverage failures first, then
    edge mismatches in pair order, then the Mobius cross-check.
    """
    failures = []  # (vertex, kind, i, j, message)
    vertices_checked = 0
    groups: dict = {}  # degree -> vertices awaiting the pair check
    found = _link_pass(ball)
    if found is not None:
        flagged, over, labels, _ = found
        owner, edge_keys = _link_edges(ball)
        bounds = np.searchsorted(owner, np.arange(ball.n_vertices + 1)).tolist()
        indptr = ball.indptr.tolist()
    for v in ball.vertices():
        if found is None or flagged[v]:
            labelled, entry = _check_vertex(ball, v, failures)
            vertices_checked += labelled
            if entry is None:
                continue
        else:
            vertices_checked += 1
            if over[v]:
                raise BudgetError(f"a link label of vertex {v} reaches {LABEL_LIMIT}, the limit of the pair check")
            lo, hi = indptr[v], indptr[v + 1]
            entry = (v, ball.indices[lo:hi], labels[lo:hi], edge_keys[bounds[v] : bounds[v + 1]])
        k = len(entry[1])
        group = groups.setdefault(k, [])
        group.append(entry)
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
