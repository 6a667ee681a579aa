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

A ball (``TetBall``) is its integer rows: each row's vertices, parent,
crossed face and depth.  The adjacency and the vertex supports are CSR
arrays read off those rows, and the address strings and the address ->
vertices dict are built only when something asks for them (witnesses,
serialization, the group operations), never by ``verify`` on a
well-formed ball.

``link_labeling_report`` labels every vertex link by Farey slopes, as
integer pairs with the arithmetic of ``farey``, in one pass over the rows
(``_link_pass``), from two bases per vertex, and writes one record per
vertex a check fails on: a crossing that does not unfold like the Farey
complex (naming the row), labels that are not injective, labels that do
not cover the adjacency, or a second labelling that is not the Mobius image
of the first; then it scores link edges against Farey adjacency.  A ball
not shaped like a generated one has no link labelled: every vertex gets a
record naming the first row that breaks the shape.  The per-vertex
breadth-first labelling is the reference in ``tests/oracles.py``.
"""

from __future__ import annotations

import os
import re
from functools import cached_property
from itertools import chain, combinations
from math import comb, prod

import numpy as np

from .errors import BudgetError, RadiusCapError
from .farey import _cross, _mobius_flags

ALPHABET = "0123"
DEFAULT_RADIUS_CAP = 8
RADIUS_CAP_ENV = "CROSSCAP3_RADIUS_CAP"
# The memory policy of every module, read at call time by the helpers below.
# Elements per scratch block of every blocked pass here, in ``metric`` and in
# ``rigidity``: far below the tables the passes work on.
BLOCK_ELEMS = 1 << 16
# Largest table allocated whole: n^2 distances, n^3 point-to-interval distances
# or rigidity's maps of the root star.  Of the int8 distance tables, the radius-7
# curve table (306 MB) is refused; the radius-8 ball table (172 MB) is not.
MAX_TABLE_BYTES = 256 << 20
# Link labels are checked for Farey adjacency in int64; below this bound the
# products |p s - q r| of two label entries cannot overflow.
LABEL_LIMIT = 1 << 31


def _check_budget(what: str, shape: tuple, dtype) -> None:
    """BudgetError naming ``what`` when a ``shape`` table of ``dtype`` exceeds ``MAX_TABLE_BYTES``."""
    need = prod(shape) * np.dtype(dtype).itemsize
    if need > MAX_TABLE_BYTES:
        raise BudgetError(f"{what} needs {need >> 20} MiB, over the {MAX_TABLE_BYTES >> 20} MiB table budget")


def _block_rows(width: int) -> int:
    """Rows per scratch block at ``width`` elements a row: ``BLOCK_ELEMS // width``, at least 1."""
    return max(1, BLOCK_ELEMS // max(width, 1))


def _blocks(rows: int, width: int) -> list[slice]:
    """Slices of ``_block_rows(width)`` rows covering ``range(rows)`` in order; at least one, maybe empty."""
    step = _block_rows(width)
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, max(rows, 1), step)]


def ascii_int(text: str) -> int:
    """The integer ``text`` spells as ``-?[0-9]+``; ValueError for anything else, such as
    the non-ASCII digits, ``_``, ``+`` and surrounding spaces that ``int`` also reads."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer in ASCII digits: {text!r}")
    return int(text)


def radius_cap() -> int:
    """The configured ball-radius cap (overridable via the environment)."""
    value = os.environ.get(RADIUS_CAP_ENV)
    if not value:
        return DEFAULT_RADIUS_CAP
    try:
        cap = ascii_int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise RadiusCapError(f"{RADIUS_CAP_ENV} must be a nonnegative integer, got {value!r}")
    return cap


def is_address(word: str) -> bool:
    """True iff word is a reduced address: letters in 0..3, no immediate repeats."""
    return re.fullmatch(r"(?:([0-3])(?!\1))*", word) is not None


def _edge_keys(graph) -> np.ndarray:
    """The directed edges of a CSR graph as keys ``v * n + w``, ascending since its rows are sorted."""
    indptr = graph.indptr
    n = len(indptr) - 1
    return np.repeat(np.arange(n), np.diff(indptr)) * n + graph.indices


class TetBall:
    """All tetrahedra within tree distance ``radius`` of the root, as rows of integer arrays, immutable.

    The rows come in generation order, four arrays: ``verts`` (T x 4), each
    row's vertex ids in slot order; ``parent`` and ``face``, the row a
    non-root tetrahedron was unfolded from and the face it crossed (-1 for
    the root), so in a generated ball walking the rows in order visits every
    parent first; and ``depth``, the address lengths.  Built on first use:
    ``addrs[t]``, the address of row t, read off ``parent``/``face`` in row
    order (``<row t>`` for a row that has none), ``rows``, its inverse, and
    ``tets``, the address -> vertex-tuple dict; ``nbr`` (T x 4), the row
    across each face, -1 outside the ball; ``born``, each vertex's creation
    row, which ``rows_of`` reads; ``ancestors``; ``colour``, each vertex's
    slot, which the group operations read; ``indptr``/``indices``, the
    adjacency (co-residence in a tetrahedron of the ball, which equals edge
    restriction to the ball) as CSR with sorted rows; ``triangles``, the
    3-cliques of that CSR, listed by ``_cliques`` from it alone, not from
    the rows; and ``support(v)``, the rows holding v.

    ``from_rows`` builds a ball from its four arrays, refusing an entry that
    is not an integer in int64, a wrong shape or an index out of range.
    ``TetBall(radius, tets)`` builds one from an address -> vertices dict,
    which need not be a generated ball: it keeps the dict's addresses and
    reads ``tets`` back off the rows, so editing the dict later changes
    nothing; ``parent`` is also -1 for a missing parent address and ``face``
    for a last letter that is not a face, so a malformed ball still builds.
    """

    def __init__(self, radius: int, tets: dict):
        addrs = list(tets)
        rows = {a: t for t, a in enumerate(addrs)}
        self.radius, self.addrs, self.rows = radius, addrs, rows
        self.verts = np.array(list(tets.values()), dtype=np.int64).reshape(-1, 4)
        self.parent = np.array([rows.get(a[:-1], -1) if a else -1 for a in addrs], dtype=np.int64)
        self.face = np.array([ALPHABET.find(a[-1]) if a else -1 for a in addrs], dtype=np.int64)
        self.depth = np.fromiter(map(len, addrs), dtype=np.int64, count=len(addrs))

    @classmethod
    def from_rows(cls, radius: int, verts, parent, face, depth) -> "TetBall":
        """The ball of four row arrays, taken as int64.  Raises ValueError naming the argument unless
        every entry is an integer that int64 holds (not None, not 3.9, not 2**70), and unless ``verts``
        is T x 4, the others have T entries, each ``parent`` is -1 or a row, each ``face`` -1..3 and each
        ``depth`` >= 0."""
        verts, parent, face, depth = map(_int64_rows, ("verts", "parent", "face", "depth"), (verts, parent, face, depth))
        if verts.ndim != 2 or verts.shape[1] != 4 or any(a.shape != verts.shape[:1] for a in (parent, face, depth)):
            raise ValueError(f"rows are not T x 4, T, T, T: {verts.shape}, {parent.shape}, {face.shape}, {depth.shape}")
        out = {"parent": (parent < -1) | (parent >= len(verts)), "face": (face < -1) | (face > 3), "depth": depth < 0}
        for name, bad in out.items():
            if bad.any():
                raise ValueError(f"{name} of row {int(bad.argmax())} out of range (parent -1 or a row, face -1..3, depth >= 0)")
        ball = cls.__new__(cls)
        ball.radius, ball.verts, ball.parent, ball.face, ball.depth = radius, verts, parent, face, depth
        return ball

    def __repr__(self) -> str:
        return f"TetBall(radius={self.radius}, tets={len(self.verts)})"

    @cached_property
    def tets(self) -> dict:
        return dict(zip(self.addrs, map(tuple, self.verts.tolist())))

    @cached_property
    def addrs(self) -> list[str]:
        """Each row's address: its parent's and the crossed face's letter, or ``""`` for the first row
        without a parent.  Any other row without a parent, with face -1 or with a parent that is not an
        earlier row has no address; it is named ``<row t>``, which ``is_address`` rejects and no other
        row shares, and its descendants are named after it."""
        addrs, root = [], int((np.r_[self.parent, -1] < 0).argmax())  # the first row without a parent
        for t, (p, f) in enumerate(zip(self.parent.tolist(), self.face.tolist())):
            if 0 <= p < t and f >= 0:
                addrs.append(addrs[p] + ALPHABET[f])
            else:
                addrs.append("" if t == root else f"<row {t}>")
        return addrs

    @cached_property
    def rows(self) -> dict:
        return {a: t for t, a in enumerate(self.addrs)}

    @cached_property
    def nbr(self) -> np.ndarray:
        nbr = np.full((len(self.verts), 4), -1, dtype=np.int64)
        child = np.flatnonzero((self.parent >= 0) & (self.face >= 0))
        nbr[child, self.face[child]] = self.parent[child]
        nbr[self.parent[child], self.face[child]] = child
        return nbr

    def rows_of(self, quads) -> np.ndarray:
        """A row holding exactly the 4 vertices of each row of ``quads`` (R x 4, in any order), -1 where
        none is found: the creation row (``born``) of the quad's youngest vertex, if its vertices are the
        quad's.  In a generated ball each row's youngest vertex is the one it created (3 for the root),
        so this is exact; on any other ball it can miss a row, but never returns a wrong one."""
        quads = np.sort(np.asarray(quads, dtype=np.int64).reshape(-1, 4), axis=1)
        top = quads[:, 3]
        born = np.r_[self.born, len(self.verts)]  # the last entry stands for an id in no row
        row = born[np.where((top >= 0) & (top < len(born) - 1), top, -1)]
        held = row < len(self.verts)
        held[held] = (np.sort(self.verts[row[held]], axis=1) == quads[held]).all(axis=1)
        return np.where(held, row, -1)

    @cached_property
    def born(self) -> np.ndarray:
        """The creation row of each vertex: the first row holding it.

        In a generated ball that row is the top of the vertex's support
        subtree, its address the least of the support's, and row t >= 1
        creates vertex t + 3.
        """
        born = np.full(self.verts.max(initial=-1) + 1, len(self.verts), dtype=np.int64)
        np.minimum.at(born, self.verts, np.arange(len(self.verts))[:, None])
        return born

    @cached_property
    def ancestors(self) -> np.ndarray:
        """``ancestors[t, k]`` is the row of the depth-k ancestor of row t, -1 below its depth."""
        t = np.arange(len(self.verts))
        if ((self.parent < 0) != (self.depth == 0)).any():
            raise ValueError("ball holds a tetrahedron without its parent")
        anc = np.full((len(t), int(self.depth.max(initial=0)) + 1), -1, dtype=np.int64)
        anc[t, self.depth] = t
        for k in range(anc.shape[1] - 1, 0, -1):
            below = anc[:, k] >= 0
            anc[below, k - 1] = self.parent[anc[below, k]]
        return anc

    @cached_property
    def colour(self) -> list:
        """``colour[v]``, the slot of vertex v in every row holding it (-1 if none does): in a
        generated ball ``arange(4)`` followed by ``face[1:]``.  Raises ValueError unless exactly
        one row has depth 0, with parent -1, every other row has its parent, a face other than
        the parent's and the parent's vertices off its face's slot, and every vertex id is
        nonnegative and at one slot."""
        verts, face, child = self.verts, self.face, self.depth > 0
        root = np.flatnonzero(~child)
        if len(root) != 1 or self.parent[root[0]] != -1:
            raise ValueError("ball holds other than one depth-0 tetrahedron with parent -1")
        p, f = self.parent[child], face[child]
        if verts.min(initial=0) < 0 or (p < 0).any() or (f < 0).any() or (f == face[p]).any():
            raise ValueError("ball holds a negative id, a tetrahedron without its parent or an unreduced address")
        colour = np.full(verts.max(initial=-1) + 1, -1)
        colour[verts] = np.arange(4)
        if (colour[verts] != np.arange(4)).any() or ((verts[child] != verts[p]) & (np.arange(4) != f[:, None])).any():
            raise ValueError("ball holds a vertex at two slots or a tetrahedron that changes a slot off its face")
        return colour.tolist()

    @cached_property
    def n_vertices(self) -> int:
        return int(self.verts.max()) + 1

    def vertices(self) -> range:
        return range(self.n_vertices)

    def edges(self) -> np.ndarray:
        """Every edge (v, w) with v < w, as an E x 2 array in lexicographic order."""
        tail = np.repeat(np.arange(self.n_vertices), np.diff(self.indptr))
        keep = tail < self.indices
        return np.column_stack([tail[keep], self.indices[keep]])

    def n_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, v: int) -> np.ndarray:
        _check_id(v, self.n_vertices)
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def indptr(self) -> np.ndarray:
        return self._csr[0]

    @cached_property
    def indices(self) -> np.ndarray:
        return self._csr[1]

    @cached_property
    def triangles(self) -> np.ndarray:
        """Every 3-clique of the CSR adjacency as an ascending row, in lexicographic order (``_cliques``)."""
        return _lex_rows(_cliques(self, 3)[0])

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        n, verts = self.n_vertices, self.verts
        self._keys = keys = _distinct(verts[:, _PAIRS[0]] * n + verts[:, _PAIRS[1]])
        return np.searchsorted(keys, np.arange(n + 1) * n), keys % n

    # The edge index: the keys ``_csr`` reads the CSR from, or, once dropped, read off ``indptr``/``indices``.
    _keys = cached_property(_edge_keys)

    def support(self, v: int) -> np.ndarray:
        """The rows holding v, ascending."""
        _check_id(v, self.n_vertices)
        indptr, rows = self._support
        return rows[indptr[v] : indptr[v + 1]]

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        t = len(self.verts)
        keys = _distinct(self.verts * t + np.arange(t)[:, None])
        return np.searchsorted(keys, np.arange(self.n_vertices + 1) * t), keys % t

    def vertex_depth(self, v: int) -> int:
        """Length of the shortest address among the tetrahedra containing v."""
        return int(self.depth[self.support(v)].min())


def _int64_rows(name: str, rows) -> np.ndarray:
    """``rows`` as an int64 array; ValueError naming ``name`` where the cast would change an entry
    (a fraction, an integer outside int64) or cannot take one (None, a string)."""
    try:
        raw = np.asarray(rows)
        if raw.dtype == np.int64:
            return raw
        if raw.dtype.kind in "biufO":
            with np.errstate(invalid="ignore"):
                cast = raw.astype(np.int64)
            if (cast == raw).all():
                return cast
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} holds an entry that is not an integer in int64")


def _check_id(v: int, n: int) -> None:
    """Raise ValueError naming v unless it is a vertex id in 0..n-1; a negative id would wrap."""
    if not 0 <= v < n:
        raise ValueError(f"vertex id {v} is not in 0..{n - 1}")


# The 12 ordered pairs of distinct slots, as two index rows.
_PAIRS = np.array([(i, j) for i in range(4) for j in range(4) if i != j]).T


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending: ``np.unique`` by one sort, which
    is several times faster than its hashing on the edge keys of a radius-8 ball
    and, unlike numpy 2's ``np.unique``, does not import ``numpy.ma``."""
    keys = np.sort(keys, axis=None)
    return keys[np.r_[True, keys[1:] != keys[:-1]][: len(keys)]]  # no first key when empty


def _lex_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of ``rows``, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)][: len(rows)]]


def generate_ball(radius: int) -> TetBall:
    """Generate the ball of the given tree radius.

    Deterministic: addresses are visited breadth-first in lexicographic
    order and fresh vertex ids count up from 4, so the result is identical
    across runs.  Counts: 2*3**n - 1 tetrahedra, 2*3**n + 2 vertices,
    6*3**n edges.  Raises RadiusCapError above ``radius_cap()``.
    """
    cap = radius_cap()
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > cap:
        raise RadiusCapError(f"radius {radius} exceeds cap {cap}")
    return _grow(radius)


def _grow(radius: int) -> TetBall:
    """The generated ball of this radius, one level at a time.

    Each row of a level spawns a child across every face but the one it was
    entered by; row t >= 1 puts the fresh vertex t + 3 at its crossed slot.
    ``_unfold`` in ``tests/oracles.py`` is the address-dict oracle."""
    total = 2 * 3**radius - 1
    verts = np.empty((total, 4), dtype=np.int64)
    verts[0] = np.arange(4)
    parent, face, depth = (np.full(total, -1, dtype=np.int64) for _ in range(3))
    depth[0] = 0
    lo, hi = 0, 1  # the rows of the last level
    for d in range(1, radius + 1):
        p = np.repeat(np.arange(lo, hi), 4)
        f = np.tile(np.arange(4), hi - lo)
        keep = f != face[p]
        p, f = p[keep], f[keep]
        t = np.arange(hi, hi + len(p))
        verts[t] = verts[p]
        verts[t, f] = t + 3
        parent[t], face[t], depth[t] = p, f, d
        lo, hi = hi, hi + len(p)
    return TetBall.from_rows(radius, verts, parent, face, depth)


def face_cofaces(ball: TetBall, rows, slots) -> list[tuple[str, ...]]:
    """The sorted addresses of the rows holding the face of each listed row opposite its listed
    slot, in order, read off one grouped pass over the ball's faces (``_face_groups``); the
    per-triangle oracle is ``triangle_cofaces`` in ``tests/oracles.py``."""
    group, members, bounds = _face_groups(ball)
    return [_coface_addrs(ball, members, bounds, g) for g in group[rows, slots].tolist()]


def _edge_pos(graph, a, b) -> np.ndarray:
    """The CSR position of each directed edge (a, b) of a TetBall or a CurveGraphBall; -1 where there
    is no such edge or an id lies outside 0..n-1, where (0, n) would otherwise match the key of (1, 0).
    The one search of directed edges, in the graph's index ``_keys``; a ball's CSR, read first, makes it."""
    n, keys = len(graph.indptr) - 1, graph._keys
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    want = a * n + b
    if not len(keys):  # a graph with no edges has no last key to clamp to
        return np.full(want.shape, -1)
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    hit = (keys[pos] == want) & (a >= 0) & (a < n) & (b >= 0) & (b < n)
    return np.where(hit, pos, -1)


def common_neighbors(graph, verts) -> tuple[np.ndarray, np.ndarray]:
    """Every vertex adjacent to all of a row of ``verts`` (R x k ids), as (row, v) arrays in order.

    Works on a TetBall or a CurveGraphBall.  A row expands the neighbours of its vertex of
    least degree (root vertices reach degree 768 at radius 8), ``BLOCK_ELEMS`` at a time."""
    indptr, degree = graph.indptr, np.diff(graph.indptr)
    base = verts[np.arange(len(verts)), degree[verts].argmin(axis=1)]
    count = degree[base]
    end = np.cumsum(count)
    start, total = end - count, int(count.sum())  # row r's candidates are start[r]:end[r]
    found = []
    for block in _blocks(total, 1):
        p0, p1 = block.start, block.stop
        r0, r1 = np.searchsorted(end, p0, side="right"), np.searchsorted(start, p1)  # the rows the block covers
        row = np.repeat(np.arange(r0, r1), np.minimum(end[r0:r1], p1) - np.maximum(start[r0:r1], p0))
        v = graph.indices[indptr[base[row]] + np.arange(p0, p1) - start[row]]
        for col in verts.T:
            hit = _edge_pos(graph, col[row], v) >= 0
            row, v = row[hit], v[hit]
        found.append((row, v))
    rows, vs = zip(*found)
    return np.concatenate(rows), np.concatenate(vs)


def four_cliques(ball: TetBall) -> np.ndarray:
    """All 4-cliques of the ball's adjacency graph as ascending rows, in lexicographic order (``_cliques``)."""
    return _lex_rows(_cliques(ball, 4)[0])


def _cliques(ball: TetBall, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-clique of the CSR adjacency once, as an ascending row, and its downward
    positions: for each slot pair i < j in ``combinations(range(k), 2)`` order, the CSR
    position of its slot-i vertex in the row of its slot-j vertex.

    Each clique is listed once, at its largest vertex v, from the (k - 1)-subsets of v's older
    prefix: the first ``lower[v]`` entries of v's sorted row, its neighbours below v.  A subset is
    kept when its members are pairwise adjacent, each pair tested by ``_older_pos``, so no edge
    index is searched (the orientation of Chiba and Nishizeki, "Arboricity and subgraph listing
    algorithms", 1985).  The sum over v of C(lower[v], k - 1) candidates is scanned in blocks of
    about ``BLOCK_ELEMS`` elements; in a generated ball no ``lower[v]`` exceeds 3.  The subsets of
    each prefix length are one table, and BudgetError refuses one over ``MAX_TABLE_BYTES``."""
    indptr, indices = ball.indptr, ball.indices
    n = len(indptr) - 1
    tail = np.repeat(np.arange(n), np.diff(indptr))
    start, lower = indptr[:-1], np.bincount(tail[indices < tail], minlength=n)
    pairs = list(combinations(range(k), 2))
    found, down = [np.empty((0, k), dtype=np.int64)], [np.empty((0, len(pairs)), dtype=np.int64)]
    for size in _distinct(lower[lower >= k - 1]).tolist():
        vs = np.flatnonzero(lower == size)
        _check_budget(f"the {k - 1}-subsets of an older prefix of {size}", (comb(size, k - 1), k - 1), np.int64)
        subsets = np.fromiter(chain.from_iterable(combinations(range(size), k - 1)), dtype=np.int64).reshape(-1, k - 1)
        for block in _blocks(len(vs) * len(subsets), k):
            v, s = np.divmod(np.arange(block.start, block.stop), len(subsets))
            v = vs[v]
            slot = start[v, None] + subsets[s]
            clique = np.column_stack([indices[slot], v])
            at = [slot[:, i] if j == k - 1 else _older_pos(indices, start, lower, clique[:, i], clique[:, j]) for i, j in pairs]
            at = np.column_stack(at)
            keep = (at >= 0).all(axis=1)
            found.append(clique[keep])
            down.append(at[keep])
    return np.concatenate(found), np.concatenate(down)


def _older_pos(indices: np.ndarray, start: np.ndarray, lower: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The CSR position of each a in the older prefix of b (a < b), found by scanning that prefix; -1
    where a and b are not adjacent."""
    pos, size = np.full(len(a), -1), lower[b]
    for j in range(int(size.max(initial=0))):
        at = start[b] + j
        hit = (j < size) & (indices.take(at, mode="clip") == a)
        pos[hit] = at[hit]
    return pos


# ---------------------------------------------------------------------------
# Serialization

def ball_to_json(ball: TetBall) -> dict:
    """The ball's radius, rows (address, vertices) and edges; ValueError naming the first row in
    address order that holds a negative vertex id, which no edge list can hold."""
    error = _negative_id(ball)
    if error:
        raise ValueError(error)
    return {
        "radius": ball.radius,
        "tets": [{"addr": addr, "verts": verts} for addr, verts in zip(ball.addrs, ball.verts.tolist())],
        "edges": ball.edges().tolist(),
    }


# ---------------------------------------------------------------------------
# Structural verification

def count_checks(ball: TetBall) -> list[dict]:
    """Tetrahedron, vertex and edge counts against their closed forms in the radius.

    The vertex and edge counts read ids 0..max off the CSR; on a ball holding
    a negative id they fail with ``_negative_id``'s error instead.
    """
    n, error = ball.radius, _negative_id(ball)
    found = {"tet_count": len(ball.verts)}
    if error is None:
        found.update(vertex_count=ball.n_vertices, edge_count=ball.n_edges())
    return [
        {"name": name, "ok": found[name] == want, "found": found[name], "expected": want}
        if name in found
        else {"name": name, "ok": False, "error": error}
        for name, want in (("tet_count", 2 * 3**n - 1), ("vertex_count", 2 * 3**n + 2), ("edge_count", 6 * 3**n))
    ]


def _face_groups(ball: TetBall) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The faces of all rows grouped by sorted vertex triple: (group, members, bounds), ``group[t, i]``
    the group of row t's face opposite slot i and ``members[bounds[g]:bounds[g + 1]]`` the rows
    holding group g's triangle, ascending; a row with a repeated vertex counts once in a group."""
    tri = np.sort(ball.verts[:, _OTHER_SLOTS], axis=2).reshape(-1, 3)
    row = np.repeat(np.arange(len(ball.verts)), 4)
    order = np.lexsort((row, tri[:, 2], tri[:, 1], tri[:, 0]))
    tri, row = tri[order], row[order]
    start = np.r_[True, (tri[1:] != tri[:-1]).any(axis=1)]
    group = np.empty_like(order)
    group[order] = np.cumsum(start) - 1
    keep = start | np.r_[True, row[1:] != row[:-1]]
    return group.reshape(-1, 4), row[keep], np.r_[np.flatnonzero(start[keep]), np.count_nonzero(keep)]


def _coface_addrs(ball: TetBall, members: np.ndarray, bounds: np.ndarray, g: int) -> tuple[str, ...]:
    """The sorted addresses of the rows holding the triangle of face group g."""
    return tuple(sorted(ball.addrs[r] for r in members[bounds[g] : bounds[g + 1]].tolist()))


def _interior_coface_faults(ball: TetBall) -> tuple[int, list]:
    """Faces of tetrahedra inside the ball whose triangle does not lie in exactly two
    tetrahedra, one the parent of the other: their count and the first five as
    (addr, i, cofaces), cofaces being the sorted addresses holding the triangle."""
    group, members, bounds = _face_groups(ball)
    r1, r2 = members[bounds[:-1]], members[np.minimum(bounds[:-1] + 1, len(members) - 1)]
    pair_ok = (np.diff(bounds) == 2) & ((ball.parent[r1] == r2) | (ball.parent[r2] == r1))
    faults = np.argwhere(~pair_ok[group] & (ball.depth < ball.radius)[:, None])
    witnesses = [(ball.addrs[t], i, _coface_addrs(ball, members, bounds, group[t, i])) for t, i in faults[:5].tolist()]
    return len(faults), witnesses


def _reduced(ball: TetBall) -> bool:
    """Whether the arrays show every address to be a reduced word: the root's is
    empty, and every other row has an earlier row for parent and adds a face
    letter other than its."""
    parent, face = ball.parent[1:], ball.face[1:]
    earlier = (parent >= 0) & (parent < np.arange(1, len(ball.parent)))
    return ball.depth[0] == 0 and ball.parent[0] < 0 and earlier.all() and (face >= 0).all() and (face != ball.face[parent]).all()


def _row_faults(ball: TetBall) -> np.ndarray:
    """Whether each row has a parent and disagrees with it: its depth is not one more than the
    parent's, or its vertices differ from the parent's at a slot other than its face, so that its
    address, read off ``face``, is not the word of its vertices."""
    t = np.flatnonzero(ball.parent >= 0)
    p = ball.parent[t]
    wrong = ball.depth[t] != ball.depth[p] + 1
    wrong |= ((ball.verts[t] != ball.verts[p]) & (np.arange(4) != ball.face[t, None])).any(axis=1)
    faults = np.zeros(len(ball.verts), dtype=bool)
    faults[t[wrong]] = True
    return faults


def _support_tops(ball: TetBall) -> np.ndarray:
    """For each vertex, how many rows holding it have no parent holding it: 1 exactly
    when its support is a subtree (``support_connected`` in ``tests/oracles.py`` for
    every vertex at once)."""
    verts, parent = ball.verts, ball.parent
    indptr, t = ball._support
    v = np.repeat(np.arange(ball.n_vertices), np.diff(indptr))
    top = (parent[t] < 0) | (verts[parent[t]] != v[:, None]).all(axis=1)
    return np.bincount(v[top], minlength=ball.n_vertices)


def _prefix_stable(ball: TetBall) -> bool:
    """Whether the ball holds the generated ball of radius n - 1, at the same addresses.

    A ball whose first rows repeat that ball's rows one for one holds it;
    otherwise each of those rows is looked up by address in ``ball.tets``."""
    n = ball.radius
    if n == 0:
        return True
    small = _grow(n - 1)
    m = len(small.verts)
    if all(np.array_equal(getattr(small, k), getattr(ball, k)[:m]) for k in ("verts", "parent", "face", "depth")):
        return True
    return all(ball.tets.get(a) == verts for a, verts in small.tets.items())


def structural_report(ball: TetBall) -> list[dict]:
    """Run the structural invariant checks for one ball; one dict per check.

    ``addresses_reduced`` names, in row order, each row whose address is not
    a reduced word of length at most the radius, or that disagrees with its
    parent (``_row_faults``).
    The vertex and edge counts, the clique check and the support check
    index arrays by vertex id; on a ball holding a negative id each of them
    fails with an error naming the first such row in address order instead.
    """
    n = ball.radius
    checks = count_checks(ball)

    faults = _row_faults(ball)
    rows = np.flatnonzero((ball.depth > n) | faults).tolist() if _reduced(ball) else range(len(ball.verts))
    named = ((t, ball.addrs[t]) for t in rows)  # no address is built when no row is to be checked
    bad_addr = [a for t, a in named if faults[t] or not is_address(a) or len(a) > n]
    checks.append({"name": "addresses_reduced", "ok": not bad_addr, "bad": bad_addr[:5]})

    error = _negative_id(ball)
    if error:
        by_id = ("four_cliques_are_tets", "supports_tree_connected")
        checks += [{"name": k, "ok": False, "error": error} for k in by_id]
    else:
        checks += _clique_and_support_checks(ball)

    checks.append({"name": "prefix_stable", "ok": _prefix_stable(ball)})

    faults, bad_cofaces = _interior_coface_faults(ball)
    checks.append({"name": "interior_triangle_cofaces", "ok": not faults, "bad": bad_cofaces})

    return checks


def _negative_id(ball: TetBall) -> str | None:
    """The error naming the first row in address order that holds a negative vertex id, if one does."""
    rows = np.flatnonzero((ball.verts < 0).any(axis=1)).tolist()
    return f"tetrahedron {min(ball.addrs[t] for t in rows)!r} holds a negative vertex id" if rows else None


def _clique_and_support_checks(ball: TetBall) -> list[dict]:
    """The ``four_cliques_are_tets`` and ``supports_tree_connected`` records of ``structural_report``.

    The 4-cliques and 5-cliques both come from ``_cliques``; ``five_cliques`` lists the 4-subsets of
    the 5-cliques, that is the 4-cliques with a common neighbour, each once, in lexicographic order."""
    cliques = four_cliques(ball)
    listed = _lex_rows(np.sort(ball.verts, axis=1))
    fives = _cliques(ball, 5)[0]
    five = _lex_rows(np.concatenate([np.delete(fives, s, axis=1) for s in range(5)]))
    disconnected = np.flatnonzero(_support_tops(ball) != 1)
    return [
        {
            "name": "four_cliques_are_tets",
            "ok": np.array_equal(cliques, listed) and not len(five),
            "cliques": len(cliques),
            "tets": len(listed),
            "five_cliques": five[:5].tolist(),
        },
        {"name": "supports_tree_connected", "ok": not len(disconnected), "bad": disconnected[:5].tolist()},
    ]


def _edge_mismatches(vs, members: np.ndarray, labels: np.ndarray, edges: np.ndarray) -> list[tuple]:
    """Link pairs of a block of m vertices of equal degree k where edge and Farey adjacency differ.

    ``members`` (m x k) holds the sorted link members of each vertex of
    ``vs``, ``labels`` (m x k x 2) their labels, and ``edges`` the key
    ``(g * k + i) * k + j`` of each link edge (i, j), i < j, of ``vs[g]``,
    each at most once.  Farey adjacency |ps - qr| = 1 is scored on
    (m, rows, k) int64 blocks of at most about ``BLOCK_ELEMS``; the result
    is one failure tuple per mismatched pair, in (g, i, j) order.
    """
    m, k = members.shape
    p, q = labels[..., 0].astype(np.int64), labels[..., 1].astype(np.int64)
    farey = []
    for block in _blocks(k, m * k):
        det = p[:, block, None] * q[:, None, :] - q[:, block, None] * p[:, None, :]
        g, ij = np.divmod(np.flatnonzero(np.abs(det) == 1), det.shape[1] * k)
        i, j = np.divmod(ij, k)
        i += block.start
        farey.append(((g * k + i) * k + j)[i < j])
    out = []
    for key in np.setxor1d(np.concatenate(farey), edges, assume_unique=True).tolist():
        g, ij = divmod(key, k * k)
        i, j = divmod(ij, k)
        out.append((int(vs[g]), 2, i, j, f"edge mismatch at ({members[g, i]}, {members[g, j]})"))
    return out


# The slots of a row other than s, in order: the base triple of a vertex at
# slot s, or the face opposite slot s.
_OTHER_SLOTS = np.array([[k for k in range(4) if k != s] for s in range(4)])
# The labels (0/1, 1/0, 1/1) on the other slots of a vertex at slot s.
_SEED = np.array([[((0, 1), (1, 0), (1, 1))[k - (k > s)] if k != s else (0, 0) for k in range(4)] for s in range(4)])


def _link_shape(ball: TetBall, n: int) -> tuple | str:
    """Where each vertex's links start or, for a ball not shaped like a generated one, why not.

    A generated ball has every non-root address a reduced word whose parent
    is in the ball and differs from it in exactly one slot, and every vertex
    id in 0..n-1 has exactly one birth row: the root, or a row that does not
    inherit it at the same slot from its parent.  Then the tetrahedra
    containing v are a subtree below its birth row, all with v at one slot.
    Returns (born, cross, last): ``born`` (T x 4) marks birth slots,
    ``cross`` (T,) is the slot each row changes and ``last`` (n,) the last
    row of each vertex's support in address order; for any other ball,
    ``_shape_fault``'s message.
    """
    verts, parent, face, depth = ball.verts, ball.parent, ball.face, ball.depth
    child = np.flatnonzero(depth > 0)
    p = parent[child]
    born = np.ones(verts.shape, dtype=bool)
    born[child] = (verts[child] != verts[p]) & (p >= 0)[:, None]
    # Why each row breaks the shape, an index into _SHAPE_FAULTS (0 if it does not); the last assignment wins.
    why = np.zeros(len(verts), dtype=np.int64)
    why[child[born[child].sum(axis=1) != 1]] = 4
    why[child[(face[child] < 0) | (face[child] == face[p])]] = 3
    why[child[p < 0]] = 2
    why[(depth == 0) & (parent >= 0)] = 5
    why[(verts < 0).any(axis=1)] = 1
    if why.any() or (np.bincount(verts[born], minlength=n) != 1).any():
        return _shape_fault(ball, born, why, n)
    anc = ball.ancestors  # address order: by the faces crossed from the root, shorter first
    order = np.lexsort(np.where(anc >= 0, face[anc], -1).T[::-1])
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    last = np.full(n, -1, dtype=np.int64)
    np.maximum.at(last, verts.ravel(), np.repeat(rank, 4))
    return born, born.argmax(axis=1), order[last]


_SHAPE_FAULTS = (
    "",
    "holds a negative vertex id",
    "has no parent in the ball",
    "is not a reduced word",
    "does not change exactly one slot of its parent",
    "has a parent at depth 0",
)


def _shape_fault(ball: TetBall, born: np.ndarray, why: np.ndarray, n: int) -> str:
    """The first row in address order that breaks the generated shape, and how: by a fault of
    ``_SHAPE_FAULTS`` (``why``), or by a birth of a vertex already born in an earlier row.
    With no such row, the least vertex id in no row."""
    addrs, seen = ball.addrs, set()
    faults = {t: _SHAPE_FAULTS[k] for t, k in enumerate(why.tolist()) if k}
    for t, v in zip(np.nonzero(born)[0].tolist(), ball.verts[born].tolist()):
        if v in seen:
            faults.setdefault(t, f"reuses vertex {v}")
        seen.add(v)
    if faults:
        t = min(faults, key=addrs.__getitem__)
        return f"tetrahedron {addrs[t]!r} {faults[t]}"
    return f"vertex {min(set(range(n)) - seen)} is in no tetrahedron"


def _slot_labels(
    ball: TetBall, born: np.ndarray, cross: np.ndarray, j: int, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label the link of the vertex at slot j of every row, as ``_link_labels`` in ``tests/oracles.py`` does.

    ``start`` gives, for each birth row of slot j in order, the row whose
    other three slots get (0/1, 1/0, 1/1).  The labelling walks up from
    there to the birth row, then crosses into every other row from its
    parent, depth by depth.  Returns ``labels`` (T x 4 x 2), ``labels[t, k]``
    being the label of slot k, and two masks of the rows entered by a
    crossing: those that got a label of at least ``LABEL_LIMIT``, and those
    the crossing check failed on.
    """
    verts, parent, depth = ball.verts, ball.parent, ball.depth
    labels = np.zeros((len(verts), 4, 2), dtype=np.int32)
    labels[start] = _SEED[j]
    done = np.zeros(len(verts), dtype=bool)
    done[start] = True
    big, bad = np.zeros(len(verts), dtype=bool), np.zeros(len(verts), dtype=bool)
    birth = np.flatnonzero(born[:, j])
    at = start.copy()
    live = np.flatnonzero(at != birth)
    for _ in range(int(depth.max())):  # each walk reaches its birth row within the depth
        child = at[live]
        src = labels[child]
        new, ok = _cross(src, j, cross[child])
        t = at[live] = parent[child]
        labels[t], done[t] = src, True
        big[t], bad[t] = np.abs(new).max(axis=1) >= LABEL_LIMIT, ~ok
        live = live[t != birth[live]]
    for d in range(1, int(depth.max()) + 1):
        t = np.flatnonzero((depth == d) & ~done)
        src = labels[parent[t]]
        new, ok = _cross(src, j, cross[t])
        labels[t] = src
        big[t], bad[t] = np.abs(new).max(axis=1) >= LABEL_LIMIT, ~ok
    return labels, big, bad


def _link_pass(ball: TetBall) -> tuple[list, np.ndarray | None, np.ndarray | None]:
    """Label every vertex link from both bases at once and write a record for each check that fails.

    Returns (failures, labels, relabels).  ``labels`` and ``relabels``
    (2E x 2) are the first and second label of each link member, in the
    order of ``ball.indices``; ``failures`` holds at most one record
    (vertex, kind, 0, 0, message) per vertex, the first that applies of:
    kind 0, its link is not labelled, because a crossing check fails
    (naming the first row it fails on entering, in row order) or its
    first labels are not injective; kind 1, its labels do not cover exactly
    its adjacency; kind 3, a relabel is not the Mobius image of its label
    (naming the least such member).  A vertex keeps one slot in every row,
    so all of it runs a slot at a time.  Each neighbour of a vertex gets
    one label in each labelling: their common rows are a subtree, which the
    labelling enters once and crosses only at the other two slots.  Every
    (vertex, member) pair of a row writes its labels at the CSR slot
    ``_edge_pos`` gives it; the vertex is uncovered when a pair has no edge
    or a slot of its CSR row is never written.  Injectivity is decided after
    the slots, by one sort of the written first labels.

    A ball ``_link_shape`` rejects has no link labelled: every vertex gets
    a kind-0 record naming the fault, and both label arrays are None.  A
    label of at least ``LABEL_LIMIT`` in either labelling raises
    BudgetError for the least vertex holding one, before any record.
    """
    n = ball.n_vertices
    shape = _link_shape(ball, n)
    if isinstance(shape, str):
        return [(v, 0, 0, 0, f"ball is not shaped like a generated one: {shape}") for v in range(n)], None, None
    born, cross, last = shape
    rows = len(ball.verts)
    crossing = np.full(n, rows)  # the first row a crossing check fails on entering
    mobius = np.full(n, n)  # the least member failing the Mobius check
    over = np.full(n, LABEL_LIMIT <= 1)
    repeated, uncovered = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    tail = np.repeat(np.arange(n), np.diff(ball.indptr))  # the vertex of each CSR slot
    first, second = np.zeros((len(tail), 2), dtype=np.int32), np.zeros((len(tail), 2), dtype=np.int32)
    written = np.zeros(len(tail), dtype=bool)
    for j, others in enumerate(_OTHER_SLOTS):
        owner = ball.verts[:, j]
        birth = np.flatnonzero(born[:, j])
        labels, big, bad = _slot_labels(ball, born, cross, j, birth)
        relabels, big2, bad2 = _slot_labels(ball, born, cross, j, last[owner[birth]])
        over[owner[big | big2]] = True
        bad = np.flatnonzero(bad | bad2)
        np.minimum.at(crossing, owner[bad], bad)
        t, k = np.nonzero(_mobius_flags(labels, relabels, last[owner], others))
        np.minimum.at(mobius, owner[t], ball.verts[t, others[k]])
        pos = _edge_pos(ball, owner[:, None], ball.verts[:, others])
        hit = pos >= 0
        uncovered[owner[~hit.all(axis=1)]] = True
        first[pos[hit]], second[pos[hit]] = labels[:, others][hit], relabels[:, others][hit]
        written[pos[hit]] = True
    uncovered[tail[~written]] = True
    # Injectivity: sorted by vertex, then label, a repeated label sits next to its twin.
    at = np.flatnonzero(written)
    at = at[np.lexsort((first[at, 1], first[at, 0], tail[at]))]
    same = (tail[at[1:]] == tail[at[:-1]]) & (first[at[1:]] == first[at[:-1]]).all(axis=1)
    repeated[tail[at[1:][same]]] = True
    if over.any():
        raise BudgetError(f"a link label of vertex {over.argmax()} reaches {LABEL_LIMIT}, the limit of the pair check")
    failures = []
    for v in np.flatnonzero((crossing < rows) | repeated | uncovered | (mobius < n)).tolist():
        if crossing[v] < rows:
            row = ball.addrs[crossing[v]]
            failures.append((v, 0, 0, 0, f"link of vertex {v} does not unfold like the Farey complex into {row!r}"))
        elif repeated[v]:
            failures.append((v, 0, 0, 0, f"link labeling of vertex {v} is not injective"))
        elif uncovered[v]:
            failures.append((v, 1, 0, 0, "labeling does not cover the link"))
        else:
            failures.append((v, 3, 0, 0, f"Mobius cross-check failed at {mobius[v]}"))
    return failures, first, second


def _link_edges(ball: TetBall) -> tuple[np.ndarray, np.ndarray]:
    """Every link edge as (v, i * k + j) for members i < j of the sorted link of v, k its size.

    Read off the triangles of ``_cliques``: the triangle (a, b, c) is the link edge (b, c) of a,
    (a, c) of b and (a, b) of c.  The lister gives the downward CSR positions (c -> a, c -> b,
    b -> a) and one ``_edge_pos`` search the upward ones.  Each vertex holds each of its link edges
    once; the order is the lister's within each role."""
    indptr, (tri, down) = ball.indptr, _cliques(ball, 3)
    (a, b, c), (ba, ca, cb) = tri.T, down.T
    ab, ac, bc = np.split(_edge_pos(ball, np.r_[a, a, b], np.r_[b, c, c]), 3)
    v, i, j = np.r_[a, b, c], np.r_[ab, ba, ca], np.r_[ac, bc, cb]
    return v, (i - indptr[v]) * (indptr[v + 1] - indptr[v]) + j - indptr[v]


def link_labeling_report(ball: TetBall) -> list[dict]:
    """Check that every in-ball link labels injectively onto a Farey subcomplex.

    Each vertex's link is labelled by Farey slopes twice: from the base
    triangle of its first tetrahedron in address order (its birth row) and
    from that of its last.  Link edges must be exactly the Farey-adjacent
    label pairs (both directions), and the second labelling must be the
    Mobius image of the first under the matrix its base images determine.

    ``_link_pass`` labels every link at once on the ball's rows: row t, slot
    j holds the labels of the other three slots in the link of
    ``verts[t, j]``.  In a ball shaped like a generated one the tetrahedra
    containing v are the subtree below its birth row that keeps v at its
    slot, and the breadth-first search ``_link_labels`` of
    ``tests/oracles.py`` from a base row of that subtree reaches every other
    row from its tree neighbour nearer the base, by a crossing that keeps
    two labels and forces the third.  From the birth row that neighbour is
    the parent; from the last row it is the child on the path up to the
    birth row, then the parent off that path.  The pass makes exactly those
    crossings, so its labels are the search's.

    The pass writes one record per vertex a check fails on: a crossing
    check, naming the row it fails on entering; injectivity of its labels;
    coverage of its adjacency; or the Mobius check, naming a member.  A
    ball not shaped like a generated one has no link labelled: every vertex
    gets a record naming the first row in address order that breaks the
    shape (a missing parent, an unreduced address, a reused vertex, or
    other than one slot changed), and ``vertices_checked`` is 0.  Every
    vertex whose labels are injective and cover its adjacency is scored for
    edge mismatches one degree class at a time, in blocks of about
    ``BLOCK_ELEMS`` pairs, on members, labels and link edges
    (``_link_edges``) sliced from CSR order.  A label over ``LABEL_LIMIT``
    raises BudgetError for the least vertex holding one.  Failures are
    listed by vertex, and within a vertex labelling or coverage failures
    first, then edge mismatches in pair order, then the Mobius cross-check;
    ``vertices_checked`` counts the labelled links.
    """
    failures, vertices_checked = _link_failures(ball)
    return [
        {
            "name": "link_labelings",
            "ok": not failures,
            "vertices_checked": vertices_checked,
            "failures": [{"vertex": f[0], "error": f[4]} for f in failures[:5]],
        }
    ]


def _link_failures(ball: TetBall) -> tuple[list, int]:
    """Every failure of ``link_labeling_report`` as (vertex, kind, i, j, message), in order, and the
    number of labelled links."""
    n = ball.n_vertices
    failures, labels, _ = _link_pass(ball)
    unscored = np.zeros(n, dtype=bool)
    unscored[[f[0] for f in failures if f[1] < 2]] = True
    cleared = np.flatnonzero(~unscored)
    if len(cleared):
        indptr, degree = ball.indptr, np.diff(ball.indptr)
        vs = cleared[np.argsort(degree[cleared], kind="stable")]  # by degree, then vertex
        degree = degree[vs]
        pos = np.full(n, -1)
        pos[vs] = np.arange(len(vs))
        owner, keys = _link_edges(ball)
        at = pos[owner]  # each link edge's owner by its place in vs, -1 if unscored
        order = np.argsort(at)
        at, keys = at[order], keys[order]
        lo = 0
        while lo < len(vs):
            k = int(degree[lo])
            hi = min(int(np.searchsorted(degree, k, side="right")), lo + _block_rows(k * k))
            block = vs[lo:hi]
            col = indptr[block][:, None] + np.arange(k)
            e0, e1 = np.searchsorted(at, [lo, hi])
            failures += _edge_mismatches(block, ball.indices[col], labels[col], (at[e0:e1] - lo) * k * k + keys[e0:e1])
            lo = hi
    failures.sort(key=lambda f: f[:4])
    return failures, n - len({f[0] for f in failures if f[1] == 0})
