"""Mapping classes as the simply transitive action on ordered tetrahedra.

A mapping class is pinned down by where it sends the root tetrahedron with
its slot order, and that image determines the whole map: once a tetrahedron
is mapped, the neighbour across each face has exactly one possible image
(each triangle lies in exactly two tetrahedra), with the fresh vertex going
to the fresh vertex.  Elements are therefore represented extensionally as
ordered destination tetrahedra and realized by propagation over a window.

Propagation runs in batches over the integer rows of the balls
(``TetBall``): M elements walk the domain rows together, parents first (by
depth, from the root row), and each face crossing is a few array
operations over all of them.  A single element is a batch of one.  The
group operations on single elements (``image_of_ordered_tet``,
``compose``, ``inverse``) need no walk: a vertex keeps one slot in every
tetrahedron (``TetBall.colour``), so an element is a reduced word and a
slot permutation, and each operation a closed form.

``OrderedTet`` is the tuple (address, verts) and ``MappingClassElement``
the tuple (dst,), so equality and hashing run in C; an element therefore
also equals the plain tuple of its fields.  The public constructor checks
that the address is a reduced word (``is_address``), stores the vertices
as a tuple of ints and checks for 4 distinct ones, and every group
operation checks each input against its ball (``_slot_order``).  Their
results are built unvalidated: a result's vertices are a row of the ball
in permuted order, and ``TetBall.colour`` has proven every row distinct.

This module also enumerates the locally injective simplicial maps of the
root star and verifies mechanically that each is the restriction of a unique
propagated element.  The level-n set of the rigid exhaustion, the union of
the stars of the tetrahedra within tree distance n - 1, is the subdivision
of the radius n - 1 ball; maps of it are int arrays with one column per
domain curve id.  Candidate images of both levels come from one batched
query on the source ball's CSR adjacency, ``tet_tree.common_neighbors``.

Every per-map pass (scoring, extension by two-sided images, completion,
propagation and comparison, and the stabilizer candidates) runs in the
row blocks of ``tet_tree._blocks``, about ``BLOCK_ELEMS`` elements each,
in row order, so its scratch memory does not grow with the number of maps.
Only the map arrays themselves stay whole, one row per map;
``rigidity_reports`` refuses with BudgetError (``tet_tree._check_budget``)
a level whose maps of the root star would exceed ``MAX_TABLE_BYTES``.
"""

from __future__ import annotations

import operator
from itertools import combinations, permutations
from operator import itemgetter

import numpy as np

from .curve_graph import CurveGraphBall, subdivide
from .errors import CodomainTooSmallError, RadiusCapError
from .tet_tree import ALPHABET, TetBall, common_neighbors, face_cofaces, generate_ball, is_address, radius_cap
from .tet_tree import _blocks, _check_budget, _edge_pos


class OrderedTet(tuple):
    """A tetrahedron address with its 4 vertex ids listed in slot order, as the tuple (address, verts)."""

    __slots__ = ()
    address = property(itemgetter(0))
    verts = property(itemgetter(1))

    def __new__(cls, address: str, verts) -> "OrderedTet":
        if not isinstance(address, str) or not is_address(address):
            raise ValueError(f"an ordered tetrahedron's address is a reduced word over 0..3, got {address!r}")
        verts = tuple(map(operator.index, verts))  # ints only, so a list or numpy row hashes and compares as a tuple
        if len(verts) != 4 or len(set(verts)) != 4:
            raise ValueError("an ordered tetrahedron lists 4 distinct vertices")
        return tuple.__new__(cls, (address, verts))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"OrderedTet(address={self[0]!r}, verts={self[1]!r})"


ROOT_TET = OrderedTet("", (0, 1, 2, 3))
# Builds a group operation's result without the check in ``OrderedTet.__new__``: its vertices are a
# row of the ball permuted by pi o sigma (or pi^-1), and ``TetBall.colour`` has proven every row distinct.
_new = tuple.__new__
PERMUTATIONS = np.array(list(permutations(range(4))), dtype=np.int64)
# The str.translate table relabelling face letters by each slot permutation pi, and pi^-1.
_RELABEL = {pi: str.maketrans(ALPHABET, "".join(ALPHABET[f] for f in pi)) for pi in permutations(range(4))}
_INVERSE = {pi: tuple(sorted(range(4), key=pi.__getitem__)) for pi in _RELABEL}


class MappingClassElement(tuple):
    """The element sending the identity-ordered root tetrahedron to ``dst``, as the tuple (dst,)."""

    __slots__ = ()
    dst = property(itemgetter(0))

    def __new__(cls, dst: OrderedTet) -> "MappingClassElement":
        return tuple.__new__(cls, (dst,))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"MappingClassElement(dst={self[0]!r})"

    @classmethod
    def identity(cls) -> "MappingClassElement":
        return _new(cls, (ROOT_TET,))

    def is_identity(self) -> bool:
        return self[0] == ROOT_TET


def _slot_order(tets: dict, colour: list, otet: OrderedTet, role: str) -> tuple:
    """The slot pi[k] of the k-th vertex of ``otet`` in its tetrahedron of ``tets``, once they are known
    to match; ``colour`` is the ball's ``TetBall.colour``, fetched by the caller once per operation."""
    address, verts = otet
    slots = tets.get(address)
    if slots is None:
        raise CodomainTooSmallError(f"{role} tetrahedron {address!r} is not in the ball")
    a, b, c, d = verts
    try:
        pi = (colour[a], colour[b], colour[c], colour[d])
    except (IndexError, TypeError):
        pi = None
    if pi is None or slots[pi[0]] != a or slots[pi[1]] != b or slots[pi[2]] != c or slots[pi[3]] != d:
        raise ValueError(f"{role} vertices {verts} do not match tetrahedron {address!r}")
    return pi


class VertexMap:
    """A propagated simplicial injection between two windows."""

    def __init__(self, element, domain, codomain, vertices, tets):
        self.element = element
        self.domain = domain
        self.codomain = codomain
        self.vertices = vertices  # domain vertex id -> codomain vertex id
        self.tets = tets  # domain address -> codomain address

    def apply(self, v: int) -> int:
        return self.vertices[v]

    def apply_curve(self, domain: CurveGraphBall, codomain: CurveGraphBall) -> np.ndarray:
        """Images in ``codomain`` of all ids of ``domain``, the subdivision of this map's domain."""
        return _with_pairs(np.array([[self.vertices[v] for v in domain.one_sided()]]), domain, codomain)[0]


def _propagate(domain: TetBall, codomain: TetBall, dst: np.ndarray, slots: np.ndarray) -> tuple:
    """Propagate M elements through ``domain`` at once.

    ``dst`` (M,) holds the codomain rows of the destinations and ``slots``
    (M x 4) their vertices in slot order.  Returns the codomain row of every
    domain row (M x T) and the image of every domain vertex id (M x V).
    Domain rows are walked parents first, in a stable sort by depth from
    the root row; crossing face f crosses the image face that drops the
    image of slot f, and the fresh vertex goes to the fresh vertex.  Raises
    CodomainTooSmallError when an image leaves the codomain: its radius
    must be at least the domain radius plus the tree distance of dst from
    the root.  Raises ValueError naming the first negative domain id, or
    else the least id below ``domain.n_vertices`` that no domain row holds:
    neither would get an image.  ``TetBall.colour`` then raises ValueError
    for a domain with an unreduced address or a missing parent.
    """
    ids = domain.verts.ravel()
    held = np.zeros(domain.n_vertices, dtype=bool)
    held[ids[ids >= 0]] = True
    bad = np.concatenate([ids[ids < 0], np.flatnonzero(~held)])
    if len(bad):
        raise ValueError(f"domain vertex id {bad[0]} is {'negative' if bad[0] < 0 else 'in no domain tetrahedron'}")
    domain.colour  # refuses an unreduced address or a missing parent
    root, *order = np.argsort(domain.depth, kind="stable").tolist()
    tets = np.empty((len(dst), len(domain.verts)), dtype=np.int64)
    images = np.empty((len(dst), domain.n_vertices), dtype=np.int64)
    tets[:, root] = dst
    images[:, domain.verts[root]] = slots
    for t in order:
        face, parent = domain.face[t], tets[:, domain.parent[t]]
        crossed = images[:, domain.verts[domain.parent[t], face]]
        pos = (codomain.verts[parent] == crossed[:, None]).argmax(axis=1)
        nxt = codomain.nbr[parent, pos]
        if (nxt < 0).any():
            i = int(np.argmax(nxt < 0))
            raise CodomainTooSmallError(
                f"image left the codomain ball at {codomain.addrs[parent[i]]!r} across face {pos[i]}"
            )
        tets[:, t] = nxt
        images[:, domain.verts[t, face]] = codomain.verts[nxt, pos]
    return tets, images


def propagate_map(element: MappingClassElement, domain: TetBall, codomain: TetBall) -> VertexMap:
    """The unique simplicial injection of ``domain`` extending root -> dst.

    A batch of one element (see ``_propagate``); raises
    CodomainTooSmallError when the image of some domain tetrahedron is not
    generated.
    """
    dst = element.dst
    _slot_order(codomain.tets, codomain.colour, dst, "destination")
    tets, images = _propagate(domain, codomain, np.array([codomain.rows[dst.address]]), np.array([dst.verts]))
    return VertexMap(
        element,
        domain,
        codomain,
        dict(enumerate(images[0].tolist())),
        {a: codomain.addrs[c] for a, c in zip(domain.addrs, tets[0].tolist())},
    )


def image_of_ordered_tet(element: MappingClassElement, otet: OrderedTet, work: TetBall) -> OrderedTet:
    """Image of one ordered tetrahedron: with ``element.dst`` = (c, verts), pi(f) the slot of
    ``verts[f]``, and ``otet`` = (w, vertices at slots sigma), the tetrahedron at reduce(c pi(w))
    with its slots at pi o sigma; pi(w) relabels w letterwise, reduce cancels equal letters at the
    junction.  Raises CodomainTooSmallError for a tetrahedron outside ``work``, ValueError for
    vertices off their tetrahedron or a malformed ``work`` (see ``TetBall.colour``)."""
    return _image(element[0], otet, work)


def _image(dst: OrderedTet, otet: OrderedTet, work: TetBall) -> OrderedTet:
    """``image_of_ordered_tet`` under the element with destination ``dst``; ``compose`` calls it
    directly, so that a composition is one call of a public function."""
    tets, colour = work.tets, work.colour
    pi, sigma = _slot_order(tets, colour, dst, "destination"), _slot_order(tets, colour, otet, "source")
    c, w = dst[0], otet[0]
    u = w.translate(_RELABEL[pi])
    k, stop = 0, min(len(c), len(u))
    while k < stop and c[-1 - k] == u[k]:
        k += 1
    addr = c[: len(c) - k] + u[k:]
    image = tets.get(addr)
    if image is None:  # so is a tetrahedron on the path to it: the ball holds every prefix of its words
        raise CodomainTooSmallError(f"image left the codomain ball on the way to {addr!r}")
    verts = (image[pi[sigma[0]]], image[pi[sigma[1]]], image[pi[sigma[2]]], image[pi[sigma[3]]])
    return _new(OrderedTet, (addr, verts))


def compose(a: MappingClassElement, b: MappingClassElement, work: TetBall) -> MappingClassElement:
    """The element acting as ``a`` followed by ``b``: b's image of a's destination."""
    return _new(MappingClassElement, (_image(b[0], a[0], work),))


def inverse(element: MappingClassElement, work: TetBall) -> MappingClassElement:
    """The element undoing ``element``; needs work radius >= |dst address|.  The inverse of
    (c, pi) is (pi^-1(reverse(c)), pi^-1): that tetrahedron, its slots listed in pi^-1 order."""
    dst = element[0]
    inv = _INVERSE[_slot_order(work.tets, work.colour, dst, "destination")]
    addr = dst[0][::-1].translate(_RELABEL[inv])
    slots = work.tets.get(addr)
    if slots is None:
        raise CodomainTooSmallError("work ball too small to invert")
    verts = (slots[inv[0]], slots[inv[1]], slots[inv[2]], slots[inv[3]])
    return _new(MappingClassElement, (_new(OrderedTet, (addr, verts)),))


# ---------------------------------------------------------------------------
# Locally injective simplicial maps

def _with_pairs(one: np.ndarray, domain: CurveGraphBall, cg: CurveGraphBall) -> np.ndarray:
    """Maps given on the one-sided ids of ``domain`` (one row each), extended to
    every id: a two-sided vertex goes to the one its endpoints' images determine."""
    u, w = domain.ends.T
    k = one.shape[1]
    out = np.zeros((len(one), k + len(u)), dtype=np.int64)
    out[:, :k] = one
    for block in _blocks(len(one), len(u)):
        out[block, k:] = cg.pair_ids(one[block, u], one[block, w])
    return out


def check_map(domain: CurveGraphBall, maps: np.ndarray, cg: CurveGraphBall) -> tuple[np.ndarray, np.ndarray]:
    """(simplicial, locally injective) for each row of ``maps``, a map of domain ids to cg ids.

    Simplicial: every directed domain edge lands on an edge of cg.  Locally
    injective: the images of a vertex's neighbours are distinct and differ
    from its own image.  A row with an image outside cg is neither.
    """
    size = len(cg.vertices)
    src, dst = domain.entries()
    distinct = []  # id pairs whose images must differ
    for i in domain.vertices:
        nbrs = domain.neighbors(i).tolist()
        distinct += [(i, j) for j in nbrs] + list(combinations(nbrs, 2))
    a, b = np.array(distinct).T
    simplicial = np.zeros(len(maps), dtype=bool)
    locally_injective = np.zeros(len(maps), dtype=bool)
    for block in _blocks(len(maps), max(len(src), len(a))):
        m = maps[block]
        valid = ((m >= 0) & (m < size)).all(axis=1)
        simplicial[block] = (_edge_pos(cg, m[:, src], m[:, dst]) >= 0).all(axis=1)
        locally_injective[block] = valid & (m[:, a] != m[:, b]).all(axis=1)
    return simplicial, locally_injective


def enumerate_locally_injective(domain: CurveGraphBall, cg: CurveGraphBall) -> np.ndarray:
    """All locally injective simplicial maps of the level-1 star into cg, one row each.

    ``domain`` is the level-1 star, the subdivided radius-0 ball.  Candidate
    one-sided images are the ordered 4-cliques of the source ball's
    1-skeleton (every vertex extended three times by common neighbours; no
    degree filter), and the two-sided images the determined vertices.
    Every candidate map is validated explicitly.  Maps are returned ordered
    lexicographically by the image ids of slots 0-3.
    """
    if domain.source.radius != 0:
        raise ValueError("enumeration is defined for the level-1 star")
    candidates = np.arange(cg.n_one)[:, None]
    for _ in range(3):
        row, v = common_neighbors(cg.source, candidates)
        candidates = np.column_stack([candidates[row], v])
    maps = _with_pairs(candidates, domain, cg)
    simplicial, locally_injective = check_map(domain, maps, cg)
    return maps[simplicial & locally_injective]


# ---------------------------------------------------------------------------
# Stabilizers and level checks

def pointwise_stabilizer_check(ids, work: TetBall) -> bool:
    """True iff only the identity fixes every listed one-sided vertex.

    Tests all elements whose destination lies within the work radius minus
    the radius of the listed vertices' domain; that is sufficient because an
    element fixing the root star pointwise already has the identity
    destination.
    """
    return _first_fixer(ids, work) is None


def _first_fixer(ids, work: TetBall) -> OrderedTet | None:
    """The destination of the first non-identity element, in the order of
    ``ordered_tets`` in ``tests/oracles.py``, that fixes every listed vertex;
    None if there is none.

    The candidates are propagated in blocks of destinations, in that order,
    and the search stops at the first block holding a fixer.
    """
    ids = sorted(ids)
    domain_radius = max(work.vertex_depth(v) for v in ids)
    dst_radius = work.radius - domain_radius
    if dst_radius < 1:
        raise ValueError("work ball too small to test any non-identity element")
    domain, addrs = generate_ball(domain_radius), work.addrs
    rows = np.array(sorted(np.flatnonzero(work.depth <= dst_radius).tolist(), key=lambda t: (len(addrs[t]), addrs[t])))
    for block in _blocks(len(rows), len(PERMUTATIONS) * domain.n_vertices):
        dst = np.repeat(rows[block], len(PERMUTATIONS))
        slots = work.verts[rows[block]][:, PERMUTATIONS].reshape(-1, 4)
        _, images = _propagate(domain, work, dst, slots)
        identity = (work.depth[dst] == 0) & (slots == ROOT_TET.verts).all(axis=1)
        fixes = (images[:, ids] == ids).all(axis=1) & ~identity
        if fixes.any():
            i = int(np.argmax(fixes))
            return OrderedTet(addrs[dst[i]], tuple(slots[i].tolist()))
    return None


def rigidity_reports(level: int) -> list[dict]:
    """Every rigidity check up to ``level``, in report order; exhaustive for levels <= 2.

    The work ball has radius max(level + 1, 3) and the curve graph is built
    over radius max(level, 2).  Level 1: every locally injective simplicial
    map of the root star into the curve graph equals the restriction of
    exactly one propagated element.  Level 2: each level-1 map forces the
    images of the four adjacent tetrahedra (the second coface of each image
    face is unique), and each completed map of the level-2 star union is
    again a propagated element.  Levels >= 3 check the forcing step itself
    on the shell of the work ball: the shared face of each shell tetrahedron
    with its parent has exactly those two cofaces.  The root star's maps are
    enumerated once and extended for level 2.  Reports come in this order:
    levels 1 and 2, forcing levels 2..level, then the pointwise stabilizers
    of the level-1 and level-2 star unions.  A work ball over the radius cap
    raises RadiusCapError naming the level, and a level whose maps of the
    root star, 24 per tetrahedron of the curve graph's ball, would exceed
    ``MAX_TABLE_BYTES`` raises BudgetError naming it, before any ball is built.
    """
    if level < 1:
        raise ValueError(f"rigidity level must be at least 1, got {level}")
    radius, cap = max(level + 1, 3), radius_cap()
    if radius > cap:
        raise RadiusCapError(f"rigidity level {level} needs a work ball of radius {radius}, over the radius cap {cap}")
    star = subdivide(generate_ball(0))
    n_maps = 24 * (2 * 3**max(level, 2) - 1)  # a ball of radius r holds 2 * 3^r - 1 tetrahedra
    _check_budget(f"rigidity level {level} with {n_maps} maps of the root star", (n_maps, len(star.vertices)), np.int64)
    work = generate_ball(radius)
    cg = subdivide(generate_ball(max(level, 2)))
    ball = cg.source
    maps = enumerate_locally_injective(star, cg)
    witnesses = _match_propagated(maps, star, cg)
    reports = [_level_report(1, ball.radius, len(maps), 24 * len(ball.verts), witnesses)]
    if level >= 2:
        reports.append(_check_level_two(maps, cg))
    reports += [induction_step_report(k, work) for k in range(2, level + 1)]
    reports += [_stabilizer_report(k, generate_ball(k - 1).vertices(), work) for k in range(1, min(level, 2) + 1)]
    return reports


def _stabilizer_report(level: int, ids, work: TetBall) -> dict:
    """The pointwise stabilizer of ``ids``; a failure names the first non-identity fixer."""
    fixers = []
    if not pointwise_stabilizer_check(ids, work):
        fixers.append({"element": str(_first_fixer(ids, work)), "error": "nontrivial fixer"})
    check = f"pointwise_stabilizer_level_{level}"
    return _level_report(level, work.radius, len(fixers), 0, fixers, check=check)


def induction_step_report(level: int, work: TetBall) -> dict:
    """Check the forcing step on the shell of tetrahedra at tree distance ``level``.

    Each shell tetrahedron shares a face with its unique parent; a map fixing
    everything nearer the root must send it to a coface of that shared face
    other than the parent, so forcing is valid exactly when the face has those
    two cofaces and the two apexes (hence their determined two-sided
    vertices) are distinct.  The face is the one the shell row crossed; all
    their cofaces come from one pass over the faces (``face_cofaces``).
    """
    if not 1 <= level <= work.radius:
        raise ValueError(f"level must be within the work radius {work.radius}")
    shell = sorted(np.flatnonzero(work.depth == level).tolist(), key=work.addrs.__getitem__)
    face = work.face[shell]
    # With the parent a coface, its apex is the one vertex off the shared face.
    coincide = (work.verts[work.parent[shell]] == work.verts[shell, face][:, None]).any(axis=1).tolist()
    witnesses = []
    for addr, cof, same in zip((work.addrs[t] for t in shell), face_cofaces(work, shell, face), coincide):
        if set(cof) != {addr, addr[:-1]}:
            witnesses.append({"tet": addr, "cofaces": list(cof)})
        elif same:
            witnesses.append({"tet": addr, "error": "apexes coincide"})
    found, expected = len(shell) - len(witnesses), 4 * 3 ** (level - 1)
    return _level_report(level, work.radius, found, expected, witnesses, check=f"induction_forcing_level_{level}")


def _level_report(level, radius, found, expected, witnesses, check=None) -> dict:
    return {
        "check": check or f"rigidity_level_{level}",
        "level": level,
        "radius": radius,
        "count_found": found,
        "count_expected": expected,
        "witnesses_of_failure": witnesses,
    }


def _match_propagated(maps: np.ndarray, domain: CurveGraphBall, cg: CurveGraphBall) -> list:
    """Witnesses, in row order, of the maps that are not the restriction of one new element.

    A row's element is read off its root images (as in ``element_of_map`` in
    ``tests/oracles.py``), their tetrahedron found by ``TetBall.rows_of``:
    the creation row of the youngest image, if it holds exactly those images,
    which on the generated ball of ``cg`` finds every such tetrahedron.
    A row whose root images span no tetrahedron, or whose element an earlier
    row already had, is a witness; the other rows are propagated in blocks
    and compared with the map.
    """
    ball = cg.source
    roots = maps[:, list(ROOT_TET.verts)]
    dst = ball.rows_of(roots)
    duplicate = np.ones(len(maps), dtype=bool)
    duplicate[np.unique(roots, axis=0, return_index=True)[1]] = False
    fresh = np.flatnonzero((dst >= 0) & ~duplicate)
    mismatch = np.zeros(len(maps), dtype=bool)
    for block in _blocks(len(fresh), maps.shape[1]):
        rows = fresh[block]
        _, images = _propagate(domain.source, ball, dst[rows], roots[rows])
        mismatch[rows] = (_with_pairs(images, domain, cg) != maps[rows]).any(axis=1)
    witnesses = []
    for i in np.flatnonzero((dst < 0) | duplicate | mismatch).tolist():
        imgs = roots[i].tolist()
        if dst[i] < 0:
            witnesses.append({"images": imgs, "error": "no unique tetrahedron"})
        else:
            error = "duplicate element" if duplicate[i] else "propagation mismatch"
            witnesses.append({"element": str(OrderedTet(ball.addrs[dst[i]], tuple(imgs))), "error": error})
    return witnesses


def _check_level_two(base_maps: np.ndarray, cg: CurveGraphBall) -> dict:
    """The level-2 record.  Face f of each base image (one query per face) must have one common
    neighbour besides slot f's image; the first face with none drops a map, one with several makes a witness.
    The bases are completed and checked in row blocks, in order; the good completed maps are then matched."""
    ball = cg.source
    domain = subdivide(generate_ball(1))
    found, witnesses, good_maps = 0, [], []
    for block in _blocks(len(base_maps), len(domain.vertices)):
        base = base_maps[block, :4]
        one = np.pad(base, ((0, 0), (0, 4)), constant_values=-1)  # domain id 4 + f lies across face f
        counts = np.empty((len(base), 4), dtype=np.int64)
        for face in range(4):
            row, v = common_neighbors(ball, np.delete(base, face, axis=1))
            fresh = v != base[row, face]
            counts[:, face] = np.bincount(row[fresh], minlength=len(base))
            one[row[fresh], 4 + face] = v[fresh]
        forced = (counts == 1).all(axis=1)
        stop = (counts != 1).argmax(axis=1)  # first face not forced
        several = counts[np.arange(len(base)), stop] > 1
        maps = _with_pairs(one[forced], domain, cg)
        simplicial, locally_injective = check_map(domain, maps, cg)
        good = np.zeros(len(base), dtype=bool)
        good[forced] = simplicial & locally_injective
        bad = np.flatnonzero(forced & ~good | several).tolist()
        errors = ["completed map invalid" if forced[b] else f"face {stop[b]} not forced" for b in bad]
        witnesses += [{"base": tuple(base[b].tolist()), "error": e} for b, e in zip(bad, errors)]
        found += int(good.sum())
        good_maps.append(maps[good[forced]])
    expected = 24 * int((ball.depth < ball.radius).sum())
    witnesses += _match_propagated(np.concatenate(good_maps), domain, cg)
    return _level_report(2, ball.radius, found, expected, witnesses)
