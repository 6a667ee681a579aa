"""The finite curve graph window as a subdivision of a tetrahedron ball.

The curve graph of the three-holed projective plane is bipartite: one-sided
vertices on one side, two-sided on the other, and every two-sided vertex has
exactly two neighbours, the pair of one-sided curves determining it.  It is
therefore the subdivision of the 1-skeleton of the tetrahedron complex: one
two-sided vertex per edge.

Curve vertices are integer ids.  Id ``v < n`` is the one-sided curve of
ball vertex ``v``; id ``n + k`` is the two-sided curve of the k-th edge of
``source.edges()``.  Names such as ``OneSided(v=8)`` or ``b0_1`` appear only
in serialized output.

The two-holed case is a constant, not code: that curve complex consists of
two one-sided vertices intersecting once and no edges at all.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .tet_tree import TetBall, _check_id, _edge_keys, _edge_pos, common_neighbors


class CurveGraphBall:
    """The subdivision of a TetBall's 1-skeleton over integer ids; immutable after build.

    ``ends`` (m x 2, each row ordered) holds the endpoints of the two-sided
    vertices, in the order of ``source.edges()``, and ``indptr``/``indices``
    the adjacency as CSR with sorted rows.  ``vertices`` is the range of all
    ids.  The edge index ``_edge_pos`` searches is built from the CSR on the
    first edge query.
    """

    def __init__(self, source: TetBall, ends: np.ndarray, indptr: np.ndarray, indices: np.ndarray):
        self.source = source
        self.ends = ends
        self.indptr = indptr
        self.indices = indices
        self.n_one = source.n_vertices
        self.vertices = range(self.n_one + len(ends))

    def __repr__(self) -> str:
        return f"CurveGraphBall(radius={self.source.radius}, vertices={len(self.vertices)})"

    def n_edges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Every directed adjacency (row id, column id), in CSR order."""
        return np.repeat(np.arange(len(self.vertices)), self.degrees()), self.indices

    def neighbors(self, i: int) -> np.ndarray:
        _check_id(i, len(self.vertices))
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def one_sided(self) -> range:
        return range(self.n_one)

    def two_sided(self) -> range:
        return self.vertices[self.n_one :]

    _keys = cached_property(_edge_keys)

    def pair_ids(self, a, b) -> np.ndarray:
        """Ids of the two-sided vertices of the pairs (a, b), in either order; -1 where a and b are not
        two joined vertices of the source ball.  Read off the source alone: the id of edge (lo, hi),
        lo < hi, is ``n_one`` + its rank among the source's CSR entries (v, w), v < w (``ends`` order)."""
        lo = np.minimum(a, b)
        pos = _edge_pos(self.source, lo, np.maximum(a, b))
        return np.where(pos >= 0, self.n_one + pos - self._lower.take(lo, mode="clip"), -1)

    @cached_property
    def _lower(self) -> np.ndarray:
        """``_lower[v]``: the source CSR entries (u, w), w < u <= v, which precede those (v, w), w > v."""
        indptr, indices = self.source.indptr, self.source.indices
        tail = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        return np.cumsum(np.bincount(tail[indices < tail], minlength=len(indptr) - 1))


def subdivide(ball: TetBall) -> CurveGraphBall:
    """Subdivide every edge of the ball by a two-sided vertex."""
    n = ball.n_vertices
    ends = ball.edges()
    m = len(ends)
    mids = np.arange(n, n + m)
    # One-sided rows: the two-sided ids of the edges at v, ascending.
    owner = ends.T.ravel()
    order = np.lexsort((np.tile(mids, 2), owner))
    degree = np.bincount(owner, minlength=n)
    indptr = np.zeros(n + m + 1, dtype=np.int64)
    np.cumsum(np.concatenate([degree, np.full(m, 2)]), out=indptr[1:])
    indices = np.concatenate([np.tile(mids, 2)[order], ends.ravel()])
    return CurveGraphBall(ball, ends, indptr, indices)


# ---------------------------------------------------------------------------
# Serialization

def _vertex_json(cg: CurveGraphBall, i: int):
    return int(i) if i < cg.n_one else cg.ends[i - cg.n_one].tolist()


def vertex_name(cg: CurveGraphBall, i: int) -> str:
    """The witness text of a curve vertex: ``OneSided(v=8)`` or ``TwoSided(u=0, w=2)``."""
    if i < cg.n_one:
        return f"OneSided(v={i})"
    u, w = cg.ends[i - cg.n_one].tolist()
    return f"TwoSided(u={u}, w={w})"


def _dot_name(cg: CurveGraphBall, i: int) -> str:
    if i < cg.n_one:
        return f"c{i}"
    u, w = cg.ends[i - cg.n_one].tolist()
    return f"b{u}_{w}"


def curve_graph_to_json(cg: CurveGraphBall) -> dict:
    rows, cols = cg.entries()
    from_one = rows < cg.n_one
    return {
        "radius": cg.source.radius,
        "one_sided": list(cg.one_sided()),
        "two_sided": cg.ends.tolist(),
        "edges": [
            [_vertex_json(cg, a), _vertex_json(cg, b)]
            for a, b in zip(rows[from_one].tolist(), cols[from_one].tolist())
        ],
    }


def curve_graph_to_dot(cg: CurveGraphBall) -> str:
    lines = [f"graph curvegraph_{cg.source.radius} {{"]
    for i in cg.vertices:
        shape = "circle" if i < cg.n_one else "box"
        lines.append(f"  {_dot_name(cg, i)} [shape={shape}];")
    rows, cols = cg.entries()
    first = rows < cols  # each edge once, from the row of its smaller id
    for a, b in zip(rows[first].tolist(), cols[first].tolist()):
        lines.append(f"  {_dot_name(cg, a)} -- {_dot_name(cg, b)};")
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
    """Counts, bipartiteness, degree, and determined-vertex checks for one window.

    A failing check names up to 5 bad vertices, as ids ``v`` and pairs ``[u, w]``.
    """
    ball = cg.source
    n = cg.n_one
    degree = cg.degrees()
    checks = count_checks(cg)

    def witness(ids) -> list:
        return [_vertex_json(cg, i) for i in ids[:5]]

    def check(name: str, bad) -> None:
        # These records carry ``bad`` only on failure; the degree-2 and
        # determined-vertex records always carry it.
        checks.append({"name": name, "ok": False, "bad": witness(bad)} if len(bad) else {"name": name, "ok": True})

    rows, cols = cg.entries()
    check("bipartite", np.unique(rows[(rows < n) == (cols < n)]))

    bad_degree = np.flatnonzero(degree[n:] != 2) + n
    checks.append({"name": "two_sided_degree_2", "ok": not len(bad_degree), "bad": witness(bad_degree)})

    # A degree-2 row is sorted, so it equals its ordered endpoint pair exactly when right.
    pairs = np.full_like(cg.ends, -1)
    two = np.flatnonzero(degree[n:] == 2)
    pairs[two] = cg.indices[cg.indptr[n + two, None] + np.arange(2)]
    check("two_sided_endpoints", np.flatnonzero((pairs != cg.ends).any(axis=1)) + n)

    # Ball edge k (v < w, in order) must have the single common neighbour n + k.
    edges = ball.edges()
    row, common = common_neighbors(cg, edges)
    bad = np.bincount(row, minlength=len(edges)) != 1
    bad[row[common != n + row]] = True
    bad_determined = [
        [*edges[k].tolist(), [_vertex_json(cg, i) for i in common[row == k].tolist()]]
        for k in np.flatnonzero(bad)[:5].tolist()
    ]
    checks.append({"name": "determined_vertex_unique", "ok": not bad_determined, "bad": bad_determined})

    check("one_sided_degree_matches", np.flatnonzero(degree[:n] != np.diff(ball.indptr)))
    return checks
