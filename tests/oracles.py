"""Reference implementations that the tests check the fast paths against.

Each function here is the plain, one-item-at-a-time form of something
``crosscap3`` computes in bulk: the address dict of a generated ball, tree
walks on addresses, per-triangle cofaces, per-vertex link labels, per-pair
bottleneck triangles and separation, the Mobius action on slopes with the
matrices of ordered Farey triangles, the ordered tetrahedra in order, and
the row and two-sided id lookups by search.  None of it is called by the
package itself.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from typing import Iterable

import numpy as np

from crosscap3.curve_graph import CurveGraphBall
from crosscap3.farey import Slope, triangle
from crosscap3.metric import DistanceTable, _tet_ball
from crosscap3.rigidity import ROOT_TET, MappingClassElement, OrderedTet
from crosscap3.tet_tree import ALPHABET, TetBall


class MarginError(ValueError):
    """Operation requires vertices farther from the boundary of the window."""


# ---------------------------------------------------------------------------
# The address tree

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


# ---------------------------------------------------------------------------
# Balls, one vertex or triangle at a time

def has_edge(ball: TetBall, v: int, w: int) -> bool:
    return 0 <= v < ball.n_vertices and w in ball.neighbors(v)


def in_margin(ball: TetBall, v: int) -> bool:
    """True iff v lies in a tetrahedron strictly inside the ball."""
    return ball.vertex_depth(v) <= ball.radius - 1


def support_connected(ball: TetBall, v: int) -> bool:
    """Whether the tetrahedra containing v form a subtree of the address tree:
    exactly one of them (the root counts) has its parent outside the set."""
    rows = ball.support(v)
    return np.count_nonzero(~np.isin(ball.parent[rows], rows)) == 1


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
    a, b, c = base
    if len({a, b, c}) != 3 or not {a, b, c} <= set(ball.neighbors(v).tolist()):
        raise ValueError(f"base triple {base} must be 3 distinct neighbours of vertex {v}")
    rows = ball.support(v)
    members = set(rows.tolist())
    cofaces = members.intersection(*(ball.support(x).tolist() for x in base))
    if len(cofaces) != 1:
        raise ValueError(
            f"base triple {base} of vertex {v} has cofaces {sorted(ball.addrs[t] for t in cofaces)}, not exactly one"
        )
    # The tree neighbours of each member: its parent, then its children in face order.
    verts, near = {}, {}
    for t, vs, p, f, across in zip(
        rows.tolist(), ball.verts[rows].tolist(), ball.parent[rows].tolist(),
        ball.face[rows].tolist(), ball.nbr[rows].tolist(),
    ):
        verts[t], near[t] = set(vs), [p] + [across[k] for k in range(4) if k != f]
    labels = {a: (0, 1), b: (1, 0), c: (1, 1)}
    seen = set(cofaces)
    queue = deque(cofaces)
    while queue:
        t = queue.popleft()
        here = verts[t]
        for nb in near[t]:
            if nb not in members or nb in seen:
                continue
            there = verts[nb]
            dropped, added, shared = here - there, there - here, here & there
            if len(dropped) != 1 or len(added) != 1 or len(shared) != 3:
                raise RuntimeError(
                    f"tetrahedra {ball.addrs[t]!r} and {ball.addrs[nb]!r} of vertex {v} share no link triangle"
                )
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
                    f"a common neighbour of {x} and {y} in {ball.addrs[t]!r}"
                )
            if labels.setdefault(e, new) != new:
                raise RuntimeError(f"link labeling is inconsistent at {e} from {ball.addrs[nb]!r}")
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
        if not has_edge(ball, x, y):
            raise ValueError(f"{tri} is not a triangle: {x} and {y} are not adjacent")
    rows = np.intersect1d(np.intersect1d(ball.support(a), ball.support(b)), ball.support(c))
    if not len(rows):
        raise ValueError(f"{tri} is not a triangle of the ball")
    return tuple(sorted(ball.addrs[t] for t in rows.tolist()))


# ---------------------------------------------------------------------------
# Intervals and bottlenecks, one pair at a time

def interval(table: DistanceTable, x: int, y: int) -> frozenset:
    """The betweenness set: all vertices on some geodesic from x to y."""
    d = table.dist
    return frozenset(np.flatnonzero(d[x] + d[y] == d[x, y]).tolist())


def _margin_vertex(ball: TetBall, v: int) -> None:
    if not in_margin(ball, v):
        raise MarginError(f"vertex {v} is only supported at the ball boundary")


def bottleneck_triangle(table: DistanceTable, x: int, y: int, p: int) -> frozenset:
    """A triangle through p separating x from y.

    Constructive: let q precede p on a geodesic from x to y, walk the tree
    geodesic from a tetrahedron containing q to one containing y, and cut at
    the first tetrahedron that has lost q; the shared face of that step is a
    separating triangle, and it must contain p because every vertex of it is
    adjacent to q.  The face is returned unchecked; the bottleneck report checks it.
    """
    ball = _tet_ball(table)
    _margin_vertex(ball, x)
    _margin_vertex(ball, y)
    dxp, dpy, dxy = table.d(x, p), table.d(p, y), table.d(x, y)
    if dxp < 1 or dpy < 1:
        raise ValueError("p must be distinct from both endpoints")
    if dxp + dpy != dxy:
        raise ValueError(f"{p} does not lie on a geodesic from {x} to {y}")
    nbrs = ball.neighbors(p)
    q = int(nbrs[(table.dist[x, nbrs] == dxp - 1) & (table.dist[y, nbrs] == dpy + 1)].min())
    start, goal = (min(ball.addrs[t] for t in ball.support(v).tolist()) for v in (q, y))
    path = tree_path(start, goal)
    cut = next(i for i, addr in enumerate(path) if q not in ball.tets[addr])
    return frozenset(ball.tets[path[cut]]) & frozenset(ball.tets[path[cut - 1]])


def separates(ball: TetBall, blocked, x: int, y: int) -> bool:
    """True iff deleting ``blocked`` disconnects x from y in the 1-skeleton."""
    blocked = set(blocked)
    if x in blocked or y in blocked:
        raise ValueError("endpoints may not be deleted")
    seen = {x}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in ball.neighbors(u).tolist():
            if w == y:
                return False
            if w not in seen and w not in blocked:
                seen.add(w)
                queue.append(w)
    return True


# ---------------------------------------------------------------------------
# Elements, one at a time

def ordered_tets(ball: TetBall, max_length: int | None = None):
    """All ordered tetrahedra of the ball, addresses then slot orders, in order."""
    for addr in sorted(ball.tets, key=lambda a: (len(a), a)):
        if max_length is not None and len(addr) > max_length:
            continue
        for perm in permutations(ball.tets[addr]):
            yield OrderedTet(addr, perm)


def by_verts(ball) -> dict:
    """Reference for ``TetBall.rows_of`` on a generated ball: sorted vertex 4-tuple -> row, the last
    row where several share one."""
    return {tuple(v): t for t, v in enumerate(np.sort(ball.verts, axis=1).tolist())}


def pair_ids_by_keys(cg: CurveGraphBall, a, b) -> np.ndarray:
    """Reference for ``CurveGraphBall.pair_ids``: a binary search of the ordered endpoint pairs
    ``ends`` as keys lo * n + hi, independent of the CSR."""
    keys = cg.ends[:, 0] * cg.n_one + cg.ends[:, 1]
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    want = lo * cg.n_one + hi
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    # With hi < n, no pair outside 0 <= lo < hi < n shares a key with an edge.
    return np.where((keys[pos] == want) & (hi < cg.n_one), cg.n_one + pos, -1)


def element_of_map(mapping: np.ndarray, cg: CurveGraphBall) -> MappingClassElement:
    """Read off the element whose propagation restricts to ``mapping``.

    The element is fixed by the images of the root slots, so this serves any
    map whose domain contains the root tetrahedron.
    """
    imgs = tuple(int(mapping[s]) for s in ROOT_TET.verts)
    ball = cg.source
    row = by_verts(ball).get(tuple(sorted(imgs)))
    if row is None:
        raise ValueError(f"images {imgs} do not span a unique tetrahedron")
    return MappingClassElement(OrderedTet(ball.addrs[row], imgs))


# ---------------------------------------------------------------------------
# The Mobius action on slopes, and the matrices of ordered Farey triangles

Matrix = tuple  # ((a, b), (c, d)) with integer entries and determinant +-1

#: An ordered Farey triangle is a tuple of three distinct pairwise adjacent slopes.
OrderedTriangle = tuple


def mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def mobius_apply(m: Matrix, s: Slope) -> Slope:
    """Apply p/q -> (a p + b q)/(c p + d q) for an integer matrix with det +-1."""
    if abs(mat_det(m)) != 1:
        raise ValueError(f"matrix determinant must be +-1, got {mat_det(m)}")
    (a, b), (c, d) = m
    return Slope.of(a * s.num + b * s.den, c * s.num + d * s.den)


def mat_det(m: Matrix) -> int:
    (a, b), (c, d) = m
    return a * d - b * c


def mat_inverse(m: Matrix) -> Matrix:
    det = mat_det(m)
    if abs(det) != 1:
        raise ValueError(f"matrix determinant must be +-1, got {det}")
    (a, b), (c, d) = m
    if det == 1:
        return ((d, -b), (-c, a))
    return ((-d, b), (c, -a))


def triangle_matrix(t: OrderedTriangle) -> Matrix:
    """The integer matrix sending (0/1, 1/0, 1/1) to ``t`` slot-wise.

    Unique up to global sign; its Mobius action (``mobius_apply``) realizes
    the ordered triangle correspondence, which is the reference for the
    Mobius cross-check of ``tet_tree.link_labeling_report``.
    """
    a, b, c = validate_ordered_triangle(t)
    if c == Slope.of(a.num + b.num, a.den + b.den):
        return ((b.num, a.num), (b.den, a.den))
    if c == Slope.of(a.num - b.num, a.den - b.den):
        return ((b.num, -a.num), (b.den, -a.den))
    raise ValueError(f"({a}, {b}, {c}) is not an ordered Farey triangle")


def validate_ordered_triangle(t: Iterable[Slope]) -> OrderedTriangle:
    """Check that t is a sequence of 3 distinct pairwise adjacent slopes."""
    t = tuple(t)
    if len(t) != 3:
        raise ValueError("ordered triangle needs exactly 3 slopes")
    triangle(*t)
    return t
