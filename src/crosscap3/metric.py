"""Distances, geodesic intervals, bottleneck triangles, and thinness.

All distances are exact breadth-first distances on a generated window.
In-window distances agree with the infinite complex: any excursion outside
the window crosses a separating triangle on the boundary and can be
shortcut through an edge of that triangle without getting longer.  The
distance-stability check between consecutive radii tests this empirically.

Thinness is measured on intervals (the union of all geodesics between two
vertices): for a triple (x, y, z) and a vertex p between x and y, how far p
is from the union of the other two intervals.  This is a consequence of
geodesic thinness and is computable in polynomial time; the exhaustive scan
switches to fixed-seed sampling above ``TRIPLE_THRESHOLD`` triples.  The
paper's bounds are constants here, and ``hyperbolicity_reports`` runs every
check on one window against them.

Every b in I(x, y) is within d(b, x) of I(x, z) and within d(b, y) of
I(y, z), and d(b, x) + d(b, y) = d(x, y), so the thinness of (x, y, z) is
at most floor(d(x, y) / 2).  The bound is exact, not sampled.  Both scans
skip a triple (or an (x, y) pair) whose bound is at most the running
maximum: it cannot be the first to exceed it, so the maximum and the
witness are those of the full scan.  Skipped triples still count as
examined.  In the same way, x, y and z lie in the union of the other two
intervals, so only a b of I(x, y) farther than the running maximum from
all three can raise it.  The exhaustive scan gathers only the b far from
x and y.  The sampler scores the triples left after the bound a chunk at
a time, once each, pairing only the b far from all three with the union,
and takes the chunk's first maximum if it exceeds the running one.

The bottleneck property (Manning's criterion for a quasi-tree) asks that
every far-apart pair be separated by a triangle near a geodesic midpoint.
``bottleneck_triangle`` and ``separates`` in ``tests/oracles.py`` build and
test it for one pair; the scan does the same for blocks of pairs on integer
arrays, and deletes each distinct blocked set (a triangle or its closed
neighbourhood) once, labelling the components of what is left, so a pair is
separated exactly when its endpoints get different labels.

The hot loops are vectorized: the distance table comes from one BFS that
advances every source at once as packed bitsets, the exhaustive scan's
point-to-interval table is filled one distance level at a time along every
source's BFS DAG (each interval is its endpoint plus the intervals of the
endpoint's predecessors), the sampled triples are replayed from
``random.Random.getrandbits`` in blocks (the stream of ``random.sample``,
pinned by an oracle test), and the triples left after the bound are
scored a chunk at a time.  Block sizes come from
``tet_tree._blocks`` and ``_block_rows``, and ``tet_tree._check_budget``
refuses a table over ``MAX_TABLE_BYTES`` with ``BudgetError`` before allocation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from math import comb

import numpy as np

from .curve_graph import CurveGraphBall, subdivide, vertex_name
from .errors import BudgetError
from .tet_tree import TetBall, _block_rows, _blocks, _check_budget, _check_id, generate_ball

# The paper's bounds: interval thinness of the tetrahedron graph and of the
# curve graph, and the distance of a bottleneck triangle from the midpoint.
TET_THINNESS_BOUND = 1.5
CURVE_THINNESS_BOUND = 3.0
BOTTLENECK_BOUND = 1.5

TRIPLE_THRESHOLD = 10_000_000
DEFAULT_SAMPLE_CAP = 1_000_000
SAMPLE_BLOCK = 4096  # sampled triples drawn and bounded at a time


class DistanceTable:
    """All-pairs distances over the integer vertex ids of a graph.

    ``dist`` is a symmetric int8 matrix indexed by vertex id, every entry
    at most 63, so that 2 d + 1 and d(x, y) + d(y, z) are exact in int8.
    Construction is a single breadth-first search that advances all sources
    at once (see ``all_pairs_distances``).
    """

    def __init__(self, dist: np.ndarray, source):
        self.vertices = range(len(dist))
        self.dist = dist
        self.source = source

    def d(self, u: int, v: int) -> int:
        _check_id(u, len(self))
        _check_id(v, len(self))
        return int(self.dist[u, v])

    def __len__(self) -> int:
        return len(self.vertices)


def _check_table_budget(graph) -> None:
    """BudgetError when the int8 distance table of ``graph`` exceeds ``MAX_TABLE_BYTES``."""
    n = len(graph.indptr) - 1
    _check_budget(f"distance table for {n} vertices", (n, n), np.int8)


def all_pairs_distances(graph) -> DistanceTable:
    """Exact BFS distances on a TetBall 1-skeleton or a CurveGraphBall.

    Every vertex holds two bitsets over the sources, packed into uint64
    words: the sources first reached at the current level (the frontier)
    and every source reached so far (``seen``).  One level ORs the
    neighbours' frontiers over CSR adjacency, drops the seen sources word
    by word, and writes the rest into the table, a block of rows at a time.
    The table is int8, and a distance of 64 or more raises BudgetError:
    from 64 on, 2 d no longer fits, and consumers compute up to 2 d + 1.
    """
    if not isinstance(graph, (TetBall, CurveGraphBall)):
        raise TypeError(f"cannot take distances on {type(graph).__name__}")
    _check_table_budget(graph)
    indptr, cols = graph.indptr, graph.indices
    n = len(indptr) - 1
    starts, ends = indptr[:-1], indptr[1:]
    if n > 1 and not (ends > starts).all():  # reduceat cannot OR over an empty neighbourhood
        raise ValueError("graph is not connected")
    dist = np.full((n, n), -1, dtype=np.int8)
    np.fill_diagonal(dist, 0)
    # Bit s of a vertex's bitset is bit s % 8 of byte s // 8, so the uint8
    # view unpacks with bitorder="little" whatever the word byte order.
    frontier = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    diag = np.arange(n)
    frontier.view(np.uint8)[diag, diag >> 3] = (1 << (diag & 7)).astype(np.uint8)
    seen = frontier.copy()
    for level in range(1, n):
        new = np.empty_like(frontier)
        for block in _blocks(n, n):
            lo, hi = starts[block.start], ends[block][-1]
            np.bitwise_or.reduceat(frontier[cols[lo:hi]], starts[block] - lo, axis=0, out=new[block])
            new[block] &= ~seen[block]
            seen[block] |= new[block]
            bits = np.unpackbits(new[block].view(np.uint8), axis=1, count=n, bitorder="little")
            np.copyto(dist[block], level, where=bits.view(bool))
        if not new.any():
            break
        if level >= 64:
            raise BudgetError(f"distance {level} reached, over the int8 distance table's limit of 63")
        frontier = new
    if dist.min() < 0:
        raise ValueError("graph is not connected")
    return DistanceTable(dist, graph)


def _tet_ball(table: DistanceTable) -> TetBall:
    if not isinstance(table.source, TetBall):
        raise ValueError("table was not computed over a tetrahedron ball")
    return table.source


# ---------------------------------------------------------------------------
# Subdivision isometry

@dataclass
class SubdivisionReport:
    pairs_checked: int
    violating: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violating


def check_subdivision_isometry(dd: DistanceTable, dc: DistanceTable) -> SubdivisionReport:
    """Verify the curve-graph metric is the doubled tetrahedron-ball metric.

    For one-sided vertices u, v: d_curve(u, v) = 2 d(u, v); a two-sided
    vertex sits at distance 1 past the nearer of its two endpoints.  A
    checked pair, one-sided u < v or (two-sided, one-sided), fails when
    either of its two entries is off; ``violating`` counts them, and any
    nonzero one-sided diagonal entry.  ``violations`` holds the first five
    of each kind, ``("one_sided", u, v)`` then ``("two_sided", (u, w), v)``.
    Curve rows are compared in blocks, a one-sided v as the pair (v, v) at 0.
    """
    cg = dc.source
    if not isinstance(cg, CurveGraphBall) or cg.source is not dd.source:
        raise ValueError("tables must come from a ball and its own subdivision")
    n = len(dd)
    ends = np.concatenate([np.repeat(np.arange(n), 2).reshape(n, 2), cg.ends])
    violating, one, two = 0, [], []
    for block in _blocks(len(ends), n):
        r = np.arange(block.start, block.stop)[:, None]
        want = 2 * np.minimum(*dd.dist[ends[block].T]) + (r >= n)
        off = (dc.dist[block, :n] != want) | (dc.dist[:n, block].T != want)  # either entry of the pair
        t, v = np.nonzero(off & ((r >= n) | (r <= np.arange(n))))
        t += block.start
        violating += len(t)
        for k in np.flatnonzero(t < n)[: 5 - len(one)].tolist():
            one.append(("one_sided", int(t[k]), int(v[k])))
        for k in np.flatnonzero(t >= n)[: 5 - len(two)].tolist():
            two.append(("two_sided", tuple(ends[t[k]].tolist()), int(v[k])))
    return SubdivisionReport(n * (n - 1) // 2 + n * len(cg.ends), violating, one + two)


def check_distance_stability(small: DistanceTable, big: DistanceTable) -> dict:
    """Distances over the smaller window must be unchanged in the larger one.

    Ball vertex ids, and so one-sided ids, are the same in both windows; a
    two-sided id is matched through its endpoint pair.  Raises ValueError
    unless both tables are over the same kind of graph and ``big`` has at
    least as many vertices.
    """
    if type(small.source) is not type(big.source) or len(small) > len(big):
        raise ValueError(f"{small.source!r} is not a smaller window of {big.source!r}")
    idx = np.arange(len(small))
    if isinstance(small.source, CurveGraphBall):
        n = small.source.n_one
        idx[n:] = big.source.pair_ids(*small.source.ends.T)
    same = (idx >= 0).all() and np.array_equal(big.dist[np.ix_(idx, idx)], small.dist)
    return {
        "name": "distance_stability",
        "ok": bool(same),
        "vertices": len(small),
    }


# ---------------------------------------------------------------------------
# Bottleneck triangles

@dataclass
class BottleneckReport:
    pairs_checked: int
    worst_margin: float
    neighborhood_checked: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.worst_margin <= BOTTLENECK_BOUND


def _csr_rows(indptr: np.ndarray, indices: np.ndarray, v: np.ndarray):
    """The CSR rows of ``v`` laid out flat: each row's start, and the row i and entry w of each slot."""
    deg = indptr[v + 1] - indptr[v]
    seg = np.cumsum(deg) - deg
    i = np.repeat(np.arange(len(v)), deg)
    return seg, i, indices[np.arange(deg.sum()) + np.repeat(indptr[v] - seg, deg)]


def _least_neighbor(ball: TetBall, v: np.ndarray, want) -> np.ndarray:
    """The least neighbour w of each ``v[i]`` with ``want(i, w)``, or n where there is none.

    A masked minimum over the sorted CSR rows of ``v``, laid out flat.
    """
    seg, i, w = _csr_rows(ball.indptr, ball.indices, v)
    return np.minimum.reduceat(np.where(want(i, w), w, len(ball.indptr) - 1), seg)


def _bottleneck_faces(table: DistanceTable, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``bottleneck_triangle`` (in ``tests/oracles.py``) for arrays of pairs and their vertices p.

    q is the least neighbour of p one step nearer x on a geodesic.  The rows
    holding q form a subtree topped by q's creation row s, so the tree path
    from s to the creation row g of y (which lacks q) leaves them once:
    climbing to the parent of s, or, when g lies below s, at the first row
    without q on the way down (read off ``TetBall.ancestors``).  Returns
    the vertices of that cut row (B x 4), -1 where the row before the cut
    lacks them, so a triangle is the other three; like
    ``bottleneck_triangle``, unchecked.
    """
    ball, d = table.source, table.dist
    dxp, dpy = d[x, p], d[p, y]
    q = _least_neighbor(ball, p, lambda i, w: (d[x[i], w] == dxp[i] - 1) & (d[y[i], w] == dpy[i] + 1))
    s, g = ball.born[q], ball.born[y]
    b, ds = np.arange(len(q)), ball.depth[s]
    down = ball.ancestors[g]  # the rows from the root to g
    below = down[b, ds] == s
    lacks = (ball.verts[down] != q[:, None, None]).all(axis=2)
    k = (lacks & (down >= 0) & (np.arange(down.shape[1]) > ds[:, None])).argmax(axis=1)
    face = ball.verts[np.where(below, down[b, k], ball.parent[s])]
    before = ball.verts[np.where(below, down[b, k - 1], s)]
    return np.where((face[:, :, None] == before[:, None, :]).any(axis=2), face, -1)


def _bottleneck_blocks(table: DistanceTable):
    """The scan's pairs and what it builds on them, a block at a time.

    Yields arrays x, y, p, p2 and faces over the ``_blocks`` of the
    in-margin pairs at distance >= 3, n elements a pair (at least one
    block, maybe empty), in x-then-y order: p is the least vertex of
    I(x, y) at distance floor(d/2) from x, p2 the least neighbour of p one
    step further on (used for odd d), and faces those of
    ``_bottleneck_faces``.  A vertex is in the margin when its creation row
    lies strictly inside the ball.
    """
    ball, dist = _tet_ball(table), table.dist
    margin = np.flatnonzero(ball.depth[ball.born] <= ball.radius - 1)
    a, b = np.nonzero((dist[np.ix_(margin, margin)] >= 3) & (margin[:, None] < margin))
    x, y = margin[a], margin[b]
    for block in _blocks(len(x), len(dist)):
        xs, ys = x[block], y[block]
        dx, dy = dist[xs], dist[ys]
        dxy = dist[xs, ys][:, None]
        half = dxy // 2
        p = ((dx == half) & (dx + dy == dxy)).argmax(axis=1)
        p2 = _least_neighbor(
            ball, p, lambda i, w: (dx[i, w] == half[i, 0] + 1) & (dx[i, w] + dy[i, w] == dxy[i, 0])
        )
        yield xs, ys, p, p2, _bottleneck_faces(table, xs, ys, p)


def _separated(
    ball: TetBall, tris: np.ndarray, inv: np.ndarray, x: np.ndarray, y: np.ndarray, closed: bool
) -> np.ndarray:
    """Whether deleting ``tris[inv[i]]`` disconnects ``x[i]`` from ``y[i]``, for every i.

    With ``closed`` the closed neighbourhood of the triangle is deleted
    instead.  The components of the 1-skeleton minus each blocked set are
    labelled once by min-label propagation over the CSR, for as many sets at
    a time as keep the gathered labels within ``BLOCK_ELEMS``; a pair is
    separated exactly when its endpoints get different labels.
    ``separates`` in ``tests/oracles.py`` is the per-pair oracle.
    """
    indptr, cols = ball.indptr, ball.indices
    starts = indptr[:-1]
    n = len(starts)
    need = np.zeros(len(tris), dtype=bool)  # label only the sets some pair uses
    need[inv] = True
    used = np.flatnonzero(need)
    rank = np.empty(len(tris), dtype=np.int64)
    rank[used] = np.arange(len(used))
    tris, inv = tris[used], rank[inv]
    out = np.empty(len(inv), dtype=bool)
    for part in _blocks(len(tris), len(cols)):
        k0, block = part.start, tris[part]
        blocked = np.zeros((len(block), n), dtype=bool)
        blocked[np.arange(len(block))[:, None], block] = True
        if closed:
            blocked |= np.logical_or.reduceat(blocked[:, cols], starts, axis=1)
        label = np.empty(blocked.shape, dtype=np.int32)
        label[:] = np.arange(n, dtype=np.int32)
        label[blocked] = n
        while True:
            nxt = np.minimum(label, np.minimum.reduceat(label[:, cols], starts, axis=1))
            nxt[blocked] = n
            if np.array_equal(nxt, label):
                break
            label = nxt
        i = np.flatnonzero((inv >= k0) & (inv < k0 + len(block)))
        out[i] = label[inv[i] - k0, x[i]] != label[inv[i] - k0, y[i]]
    return out


def check_bottleneck_property(table: DistanceTable) -> BottleneckReport:
    """Every in-margin pair at distance >= 3 admits a near-midpoint bottleneck.

    For each pair, picks the least vertex p within 1/2 of the midpoint of a
    geodesic, builds the separating triangle through p, verifies separation
    by deletion-connectivity, and records how far the triangle's vertices
    are from the midpoint (the bound is 3/2).  Also confirms that deleting
    the closed 1-neighbourhood of the triangle (p is one of its vertices)
    still separates, whenever the endpoints survive that deletion.

    The pairs are scanned in blocks on integer arrays (``_bottleneck_blocks``).
    Separation is decided per distinct blocked set, not per pair: each
    triangle, and each neighbourhood, is deleted once and the rest of the
    1-skeleton labelled by component (``_separated``).  A pair's first
    failure is reported, in pair order: a bad triangle, then the triangle's
    separation, then the neighbourhood's; ``worst_margin`` and
    ``neighborhood_checked`` count only pairs past the earlier checks.
    """
    ball = _tet_ball(table)
    dist, n = table.dist, len(table)
    pairs, errors, kept = 0, {}, []
    for x, y, p, p2, faces in _bottleneck_blocks(table):
        # A triangle through p: one slot of the face is -1, and p is in another.
        good = (np.minimum(faces, 0).sum(axis=1) == -1) & (faces == p[:, None]).any(axis=1)
        for i in np.flatnonzero(~good).tolist():
            face = sorted(faces[i][faces[i] >= 0].tolist())
            errors[pairs + i] = (x[i], y[i], f"{face} is not a triangle through p={p[i]}")
        g = np.flatnonzero(good)
        x, y, p, p2, face = x[g], y[g], p[g, None], p2[g, None], faces[g]
        # The triangle, least vertex first, dropping the -1 of its face.
        hi = face.max(axis=1)
        lo = np.where(face < 0, hi[:, None], face).min(axis=1)
        tri = np.column_stack((lo, face.sum(axis=1) + 1 - lo - hi, hi))
        if ((tri == x[:, None]) | (tri == y[:, None])).any():
            raise ValueError("endpoints may not be deleted")
        # Twice the distance of the triangle from the midpoint, in exact integers.
        odd = dist[x, y] % 2
        twice = 2 * np.where(odd[:, None], np.minimum(dist[p, tri], dist[p2, tri]), dist[p, tri]).max(axis=1) + odd
        # The endpoints survive the deletion when both are 2 or more from the triangle.
        live = (dist[x[:, None], tri].min(axis=1) > 1) & (dist[y[:, None], tri].min(axis=1) > 1)
        # Each triangle as one key; the keys reach n^3, so they need the int64 of the faces.
        kept.append((pairs + g, x, y, (lo * n + tri[:, 1]) * n + hi, twice, live))
        pairs += len(faces)
    i, x, y, keys, twice, live = map(np.concatenate, zip(*kept))
    keys, inv = np.unique(keys, return_inverse=True)  # the distinct triangles, and each pair's
    tris = np.column_stack(np.unravel_index(keys, (n, n, n)))
    cut = _separated(ball, tris, inv, x, y, closed=False)
    for k in np.flatnonzero(~cut).tolist():
        errors[int(i[k])] = (x[k], y[k], "triangle does not separate")
    nbhd = np.flatnonzero(cut & live)
    for k in nbhd[~_separated(ball, tris, inv[nbhd], x[nbhd], y[nbhd], closed=True)].tolist():
        errors[int(i[k])] = (x[k], y[k], "neighbourhood does not separate")
    return BottleneckReport(
        pairs_checked=pairs,
        worst_margin=int(twice[cut].max(initial=0)) / 2,
        neighborhood_checked=len(nbhd),
        failures=[{"pair": (int(a), int(b)), "error": e} for a, b, e in (errors[k] for k in sorted(errors))],
    )


# ---------------------------------------------------------------------------
# Thinness

@dataclass
class ThinnessReport:
    bound: float
    max_value: int
    witness: tuple
    triples_examined: int
    exhaustive: bool
    triples_scored: int

    @property
    def ok(self) -> bool:
        return self.max_value <= self.bound


def _check_sample_cap(sample_cap: int) -> None:
    if sample_cap <= 0:
        raise ValueError(f"sample cap must be positive, got {sample_cap}")


def thinness_report(table: DistanceTable, *, sample_cap: int = DEFAULT_SAMPLE_CAP, seed: int = 0) -> ThinnessReport:
    """Worst distance from a between-vertex to the union of the other two intervals.

    Exhaustive over unordered triples when their number is at most
    ``TRIPLE_THRESHOLD`` (read at call time); otherwise samples
    ``sample_cap`` triples, those of ``random.Random(seed).sample(range(n),
    3)`` called ``sample_cap`` times, so the result is deterministic per
    seed.  The bound is the
    paper's for the table's graph: 3/2 on a TetBall, 3 on a CurveGraphBall.

    ``triples_examined`` counts every triple the scan covers, whether scored
    or ruled out by the exact bound floor(d(x, y) / 2).  ``triples_scored``
    counts those past the bound: on the sampled path the triples scored,
    each once, against the running maximum, or on the exhaustive path the
    (x, y, z) with x < y and z not an endpoint, n - 2 per scored pair, out
    of 3 * ``triples_examined``.  It is not part of any artifact.
    """
    _check_sample_cap(sample_cap)
    d, total = table.dist, comb(len(table), 3)
    exhaustive = total <= TRIPLE_THRESHOLD
    value, witness, scored = _thinness_exhaustive(d) if exhaustive else _thinness_sampled(d, sample_cap, seed)
    return ThinnessReport(
        bound=TET_THINNESS_BOUND if isinstance(table.source, TetBall) else CURVE_THINNESS_BOUND,
        max_value=value,
        witness=tuple(int(i) for i in witness),
        triples_examined=total if exhaustive else sample_cap,
        exhaustive=exhaustive,
        triples_scored=scored,
    )


def _point_to_interval(d: np.ndarray) -> np.ndarray:
    """The int8 table ``t[p, x, z] = d(p, I(x, z))`` of a graph metric ``d``.

    Every geodesic from x to z enters z from a neighbour z' one step nearer
    x, so I(x, z) is z together with the intervals I(x, z') of those
    predecessors, and

        d(p, I(x, z)) = min(d(p, z), min over z' of d(p, I(x, z'))).

    The table is filled one distance level at a time, for all sources x at
    once, from the adjacency ``d == 1``.  A level's pairs x < z are taken in
    ``_blocks`` of n elements a pair; their predecessors are folded in with
    one ``np.minimum`` per predecessor rank (a pair with fewer predecessors
    folds its last one in again, which leaves the minimum as it is), and
    each row is written for (x, z) and (z, x).  The rows are stored as
    ``a[x, z, :]`` so that they are contiguous, and ``t`` is a view of them.
    Besides the table, which is refused with ``BudgetError`` before
    allocation when it exceeds ``MAX_TABLE_BYTES``, the build holds the
    level's pair list (at most n^2 / 2 pairs) and block temporaries of at
    most about ``BLOCK_ELEMS`` elements.
    """
    n = d.shape[0]
    _check_budget(f"exhaustive thinness over {n} vertices", (n, n, n), np.int8)
    a = np.empty((n, n, n), dtype=np.int8)
    diag = np.arange(n)
    a[diag, diag] = d
    rows, nbrs = np.nonzero(d == 1)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    for level in range(1, int(d.max()) + 1):
        xs, zs = np.nonzero(np.triu(d == level))
        for block in _blocks(len(xs), n):
            x, z = xs[block], zs[block]
            acc = d[z]
            # The predecessors w[first[k] : last[k] + 1] of pair k: the
            # neighbours of z[k] one step nearer x[k], at least one each.
            _, i, w = _csr_rows(indptr, nbrs, z)
            keep = d[x[i], w] == level - 1
            i, w = i[keep], w[keep]
            first = np.searchsorted(i, np.arange(len(z)))
            last = np.append(first[1:], len(i)) - 1
            # Rank r folds in each pair's r-th predecessor, or its last again.
            for r in range(int((last - first).max()) + 1):
                np.minimum(acc, a[x, w[np.minimum(first + r, last)]], out=acc)
            a[x, z] = acc
            a[z, x] = acc
    return a.transpose(2, 0, 1)


def _thinness_exhaustive(d: np.ndarray) -> tuple[int, tuple, int]:
    """The largest thinness over all triples, its witness and the triples scored.

    ``d`` must be a graph metric: symmetric, with the adjacency ``d == 1``
    and every other distance reached through it.  The distances from each
    point to each interval come from ``_point_to_interval``; its n^3 int8
    table is the only large allocation.  Then every pair x < y whose bound
    floor(d(x, y) / 2) exceeds the running maximum is scored against every
    z, and the witness (x, y, z, p) is the first maximum in pair order, then
    p in I(x, y) and z in row-major order.  Only the p farther than the
    running maximum from x and from y are gathered: x lies in I(x, z) and y
    in I(y, z), so no other p can exceed it.  The bound leaves at least one
    such p, at distance maximum + 1 from x on a geodesic.
    """
    n = d.shape[0]
    point_to_interval = _point_to_interval(d)
    best, witness, scored = -1, (0, 0, 0, 0), 0
    for x in range(n):
        for y in range(x + 1, n):
            if d[x, y] // 2 <= best:  # the bound: this pair cannot raise the maximum
                continue
            scored += n - 2
            dx, dy = d[x], d[y]
            between = np.nonzero((dx + dy == d[x, y]) & (dx > best) & (dy > best))[0]
            vals = np.minimum(
                point_to_interval[between, x, :], point_to_interval[between, y, :]
            )
            m = int(vals.max())
            if m > best:
                best = m
                pi, z = np.unravel_index(int(vals.argmax()), vals.shape)
                witness = (x, y, int(z), int(between[pi]))
    return best, witness, scored


def _chunk_thinness(d: np.ndarray, xyz: np.ndarray, best: int) -> tuple[int, int, int]:
    """The first maximum thinness over the triples (rows) of ``xyz`` as (value, row, b), if above ``best``.

    row is the first triple attaining the maximum and b the first vertex of
    its I(x, y) attaining it; when no triple exceeds ``best`` the value is
    at most ``best``.  x, y and z all lie in U = I(x, z) | I(y, z), so a b
    within ``best`` of any of them is within ``best`` of U: only the b of
    I(x, y) farther than ``best`` from all three are scored, which with
    ``best`` -1 is all of I(x, y).  The (b, u) pairs, u in U, are laid out
    flat, grouped by triple, then by b (U holds z, so no group is empty); a
    min per b reduces them to d(b, U), and the first argmax over the b in
    that order is the first maximum.
    """
    n = d.shape[0]
    x, y, z = xyz.T
    dx, dy, dz = d[xyz.T]
    mid = (dx + dy == d[x, y][:, None]) & (dx > best) & (dy > best) & (dz > best)
    tb, b = np.divmod(np.flatnonzero(mid), n)
    if not len(tb):
        return -1, -1, -1
    side = (dx + dz == d[x, z][:, None]) | (dy + dz == d[y, z][:, None])
    tu, u = np.divmod(np.flatnonzero(side), n)
    n_u = np.bincount(tu, minlength=len(xyz))
    width = n_u[tb]  # products of each b: the size of its triple's union
    seg = np.cumsum(width) - width
    first_u = (np.cumsum(n_u) - n_u)[tb]
    cols = u[np.arange(width.sum()) - np.repeat(seg - first_u, width)]
    per_b = np.minimum.reduceat(d[np.repeat(b, width), cols], seg)
    k = int(per_b.argmax())
    return int(per_b[k]), int(tb[k]), int(b[k])


def _group_draws(draws: np.ndarray, want: int) -> tuple[np.ndarray, int]:
    """Up to ``want`` triples from accepted draws, as ``random.sample``'s set branch groups them.

    Each value joins the current triple unless the triple already holds it.
    Consecutive threes are taken whole up to the next one with a repeat,
    which is resolved one value at a time; that shifts the threes after it.
    Returns the triples and the number of draws they used.
    """
    a, b, c = draws[:-2], draws[1:-1], draws[2:]
    starts = np.flatnonzero((a == b) | (a == c) | (b == c))
    by_phase = [starts[starts % 3 == r] for r in range(3)]
    parts = []
    pos = 0
    while want:
        k = min(want, (len(draws) - pos) // 3)
        phase = by_phase[pos % 3]
        j = np.searchsorted(phase, pos)
        good = min(k, (int(phase[j]) - pos) // 3) if j < len(phase) else k
        parts.append(draws[pos : pos + 3 * good].reshape(good, 3))
        pos += 3 * good
        want -= good
        if good == k:
            break
        triple = []
        end = pos
        while len(triple) < 3 and end < len(draws):
            if draws[end] not in triple:
                triple.append(draws[end])
            end += 1
        if len(triple) < 3:
            break
        parts.append(np.array([triple], dtype=draws.dtype))
        pos = end
        want -= 1
    return np.concatenate(parts), pos


def _sampled_triples(n: int, samples: int, seed: int):
    """The triples of ``random.Random(seed).sample(range(n), 3)``, ``samples`` calls, in blocks.

    For n > 21, CPython's ``sample`` takes its set branch: every draw is
    ``randbelow(n)``, i.e. the next 32-bit Mersenne Twister output shifted
    right by ``32 - n.bit_length()`` and rejected when it is n or more, and a
    value the triple already holds is drawn again.  The outputs come from
    ``getrandbits`` (first output in the least significant word), so the
    stream is replayed with array operations.  For n <= 21 ``sample`` takes
    its pool branch, which is called directly.  The test
    ``test_sampled_triples_replay_random_sample`` pins both branches against
    ``rng.sample``.  Yields (t, 3) int arrays with t <= ``SAMPLE_BLOCK``.
    """
    rng = random.Random(seed)
    if n <= 21:
        for start in range(0, samples, SAMPLE_BLOCK):
            yield np.array([rng.sample(range(n), 3) for _ in range(min(SAMPLE_BLOCK, samples - start))])
        return
    shift = 32 - n.bit_length()
    draws = np.empty(0, dtype=np.int64)
    for start in range(0, samples, SAMPLE_BLOCK):
        want = min(SAMPLE_BLOCK, samples - start)
        parts = []
        while want:
            # At least half of all outputs are below n; a short draw is topped up.
            m = 2 * max(3 * want - len(draws), 0) + 8
            words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4") >> shift
            draws = np.concatenate((draws, words[words < n].astype(np.int64)))
            xyz, used = _group_draws(draws, want)
            draws = draws[used:]
            parts.append(xyz)
            want -= len(xyz)
        yield np.concatenate(parts)


def _thinness_sampled(d: np.ndarray, samples: int, seed: int) -> tuple[int, tuple, int]:
    """The first sampled triple, in draw order, attaining the largest thinness.

    The stream is the triples of ``samples`` calls of
    ``random.Random(seed).sample(range(n), 3)``, replayed in blocks by
    ``_sampled_triples``.  A triple whose bound floor(d(x, y) / 2) is at
    most the running maximum cannot be the first to exceed it, so it is
    skipped; the rest are taken in chunks of ``_block_rows(n)``, and
    ``_chunk_thinness`` scores each chunk once against the running maximum.
    Returns the maximum, the witness and the number of triples past the
    bound.
    """
    n = d.shape[0]
    chunk = _block_rows(n)
    best, witness, scored = -1, (0, 0, 0, 0), 0
    for xyz in _sampled_triples(n, samples, seed):
        live = xyz[d[xyz[:, 0], xyz[:, 1]] // 2 > best]
        while len(live):
            part, live = live[:chunk], live[chunk:]
            scored += len(part)
            value, row, p = _chunk_thinness(d, part, best)
            if value > best:
                best, witness = value, (*part[row].tolist(), p)
                live = live[d[live[:, 0], live[:, 1]] // 2 > best]
    return best, witness, scored


# ---------------------------------------------------------------------------
# Tree comparison

@dataclass
class TreeComparisonReport:
    pairs: int
    diff_min: int
    diff_max: int
    ratio_min: float | None  # None when no pair has positive tree distance
    ratio_max: float | None


def tree_comparison(table: DistanceTable) -> TreeComparisonReport:
    """Empirical comparison of ball distances with tree distances.

    Each vertex is assigned the address of its creation row
    (``TetBall.born``), the least address in its support; the report gives
    min/max of d_ball - d_tree over all pairs and of the ratio over pairs
    with positive tree distance.  These are window statistics only; no
    constant for the infinite complex is claimed.
    """
    ball = _tet_ball(table)
    anc, depth = ball.ancestors[ball.born], ball.depth[ball.born]
    letters = np.where(anc >= 0, ball.face[anc], -1)[:, 1:]  # the faces crossed from the root, -1 past the depth
    n, width = letters.shape
    # found[d, t]: some pair u < v has ball distance d and tree distance t.
    found = np.zeros((int(table.dist.max()) + 1, 2 * width + 1), dtype=bool)
    v = np.arange(n)
    for block in _blocks(n, n * max(width, 1)):
        u = v[block]
        agree = np.logical_and.accumulate(letters[u, None, :] == letters[None, :, :], axis=2)
        # Padding agrees with padding, so cut the common prefix at the shorter address.
        common = np.minimum(agree.sum(axis=2), np.minimum.outer(depth[u], depth))
        tree = depth[u, None] + depth - 2 * common
        upper = u[:, None] < v
        found[table.dist[u][upper], tree[upper]] = True
    kinds = [(int(d), int(t)) for d, t in np.argwhere(found)]
    ratios = [d / t for d, t in kinds if t > 0]
    return TreeComparisonReport(
        pairs=n * (n - 1) // 2,
        diff_min=min(d - t for d, t in kinds),
        diff_max=max(d - t for d, t in kinds),
        ratio_min=min(ratios, default=None),
        ratio_max=max(ratios, default=None),
    )


# ---------------------------------------------------------------------------
# The hyperbolicity suite

HYPERBOLICITY_FIELDS = ("name", "radius", "examined", "worst", "witness", "bound", "ok")


def hyperbolicity_reports(radius: int, *, sample_cap: int = DEFAULT_SAMPLE_CAP, seed: int = 0) -> list[dict]:
    """Every hyperbolicity check on the radius-``radius`` window, one row each.

    Rows have the keys ``HYPERBOLICITY_FIELDS``: thinness of the tetrahedron
    graph and of the curve graph, the subdivision isometry, the bottleneck
    property (radius 2 and up; below that no in-margin pair is 3 apart) and
    the tree comparison, whose window bound is d_ball - d_tree <= 1.
    A ``sample_cap`` below 1, and a distance table of either graph over
    the budget, are refused before any table is built.
    """
    _check_sample_cap(sample_cap)
    ball = generate_ball(radius)
    cg = subdivide(ball)
    for graph in (ball, cg):  # refuse either table before building the other
        _check_table_budget(graph)
    dd = all_pairs_distances(ball)
    dc = all_pairs_distances(cg)
    rows = []
    for graph, table, name_of in (("tet_graph", dd, str), ("curve_graph", dc, partial(vertex_name, cg))):
        rep = thinness_report(table, sample_cap=sample_cap, seed=seed)
        name = f"thinness_{graph}" + ("" if rep.exhaustive else "_sampled")
        witness = " ".join(map(name_of, rep.witness))
        rows.append((name, rep.triples_examined, rep.max_value, witness, rep.bound, rep.ok))
    sub = check_subdivision_isometry(dd, dc)
    witness = str(sub.violations[:1])
    rows.append(("subdivision_isometry", sub.pairs_checked, sub.violating, witness, 0, sub.ok))
    if radius >= 2:
        bot = check_bottleneck_property(dd)
        witness = str(bot.failures[:1])
        rows.append(
            ("bottleneck_property", bot.pairs_checked, bot.worst_margin, witness, BOTTLENECK_BOUND, bot.ok)
        )
    tree = tree_comparison(dd)
    # No pair has positive tree distance at radius 0, so the ratio range is empty.
    ratio = "none none" if tree.ratio_min is None else f"{tree.ratio_min:.3f} {tree.ratio_max:.3f}"
    witness = f"diff [{tree.diff_min} {tree.diff_max}] ratio [{ratio}]"
    rows.append(("tree_comparison", tree.pairs, tree.diff_max, witness, 1, tree.diff_max <= 1))
    return [dict(zip(HYPERBOLICITY_FIELDS, (name, radius, *rest))) for name, *rest in rows]
