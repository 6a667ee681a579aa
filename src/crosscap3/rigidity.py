"""Mapping classes as the simply transitive action on ordered tetrahedra.

A mapping class is pinned down by where it sends the root tetrahedron with
its slot order, and that image determines the whole map: once a tetrahedron
is mapped, the neighbour across each face has exactly one possible image
(each triangle lies in exactly two tetrahedra), with the fresh vertex going
to the fresh vertex.  Elements are therefore represented extensionally as
ordered destination tetrahedra and realized by propagation over a window.

This module also enumerates the locally injective simplicial maps of the
root star and verifies mechanically that each is the restriction of a unique
propagated element.  The level-n set of the rigid exhaustion, the union of
the stars of the tetrahedra within tree distance n - 1, is the subdivision
of the radius n - 1 ball; maps of it are int arrays with one column per
domain curve id.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .curve_graph import CurveGraphBall, subdivide
from .errors import CodomainTooSmallError
from .tet_tree import TetBall, generate_ball, neighbor, triangle_cofaces


@dataclass(frozen=True, slots=True)
class OrderedTet:
    """A tetrahedron address with its 4 vertex ids listed in slot order."""

    address: str
    verts: tuple

    def __post_init__(self) -> None:
        if len(self.verts) != 4 or len(set(self.verts)) != 4:
            raise ValueError("an ordered tetrahedron lists 4 distinct vertices")


ROOT_TET = OrderedTet("", (0, 1, 2, 3))


@dataclass(frozen=True, slots=True)
class MappingClassElement:
    """The element sending the identity-ordered root tetrahedron to ``dst``."""

    dst: OrderedTet

    @classmethod
    def identity(cls) -> "MappingClassElement":
        return cls(ROOT_TET)

    def is_identity(self) -> bool:
        return self.dst == ROOT_TET


def _check_tet(ball: TetBall, otet: OrderedTet, role: str) -> None:
    if otet.address not in ball.tets:
        raise CodomainTooSmallError(f"{role} tetrahedron {otet.address!r} is not in the ball")
    if set(otet.verts) != set(ball.tets[otet.address]):
        raise ValueError(f"{role} vertices {otet.verts} do not match tetrahedron {otet.address!r}")


def _cross(codomain: TetBall, c_addr: str, images: tuple, domain_face: int):
    """Cross one face: the image of face i is the face dropping images[i]."""
    image_face = codomain.tets[c_addr].index(images[domain_face])
    c_next = neighbor(c_addr, image_face)
    if c_next not in codomain.tets:
        raise CodomainTooSmallError(
            f"image left the codomain ball at {c_addr!r} across face {image_face}"
        )
    out = list(images)
    out[domain_face] = codomain.tets[c_next][image_face]
    return c_next, tuple(out)


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
        return _with_pairs(np.array([self.vertices[v] for v in domain.one_sided()]), domain, codomain)

    def fixes(self, ids) -> bool:
        return all(self.vertices[v] == v for v in ids)


def propagate_map(element: MappingClassElement, domain: TetBall, codomain: TetBall) -> VertexMap:
    """The unique simplicial injection of ``domain`` extending root -> dst.

    Walks the domain tree breadth-first; every crossing is forced, so the
    result is canonical.  Raises CodomainTooSmallError when the image of
    some domain tetrahedron is not generated; the codomain radius must be at
    least the domain radius plus the tree distance of dst from the root.
    """
    dst = element.dst
    _check_tet(codomain, dst, "destination")
    state = {"": (dst.address, dst.verts)}
    vertex_images = dict(zip((0, 1, 2, 3), dst.verts))
    queue = deque([""])
    while queue:
        addr = queue.popleft()
        c_addr, images = state[addr]
        for face in range(4):
            nxt = neighbor(addr, face)
            if nxt not in domain.tets or nxt in state:
                continue
            c_nxt, imgs = _cross(codomain, c_addr, images, face)
            state[nxt] = (c_nxt, imgs)
            vertex_images[domain.tets[nxt][face]] = imgs[face]
            queue.append(nxt)
    return VertexMap(
        element,
        domain,
        codomain,
        vertex_images,
        {a: c for a, (c, _) in state.items()},
    )


def image_of_ordered_tet(element: MappingClassElement, otet: OrderedTet, work: TetBall) -> OrderedTet:
    """Image of one ordered tetrahedron, propagating along a single tree path."""
    _check_tet(work, element.dst, "destination")
    _check_tet(work, otet, "source")
    c_addr, images = element.dst.address, element.dst.verts
    for letter in otet.address:
        c_addr, images = _cross(work, c_addr, images, int(letter))
    slots = work.tets[otet.address]
    return OrderedTet(c_addr, tuple(images[slots.index(v)] for v in otet.verts))


def compose(a: MappingClassElement, b: MappingClassElement, work: TetBall) -> MappingClassElement:
    """The element acting as ``a`` followed by ``b``."""
    return MappingClassElement(image_of_ordered_tet(b, a.dst, work))


def inverse(element: MappingClassElement, work: TetBall) -> MappingClassElement:
    """The element undoing ``element``; needs work radius >= |dst address|."""
    _check_tet(work, element.dst, "destination")
    c_addr, images = element.dst.address, element.dst.verts
    d_addr = ""
    while c_addr:
        back_face = int(c_addr[-1])
        domain_face = images.index(work.tets[c_addr][back_face])
        d_next = neighbor(d_addr, domain_face)
        if d_next not in work.tets:
            raise CodomainTooSmallError("work ball too small to invert")
        c_next = c_addr[:-1]
        out = list(images)
        out[domain_face] = work.tets[c_next][back_face]
        c_addr, images, d_addr = c_next, tuple(out), d_next
    slots = work.tets[d_addr]
    return MappingClassElement(
        OrderedTet(d_addr, tuple(slots[images.index(r)] for r in (0, 1, 2, 3)))
    )


def ordered_tets(ball: TetBall, max_length: int | None = None):
    """All ordered tetrahedra of the ball, addresses then slot orders, in order."""
    for addr in sorted(ball.tets, key=lambda a: (len(a), a)):
        if max_length is not None and len(addr) > max_length:
            continue
        for perm in permutations(ball.tets[addr]):
            yield OrderedTet(addr, perm)


# ---------------------------------------------------------------------------
# Locally injective simplicial maps

def _with_pairs(one: np.ndarray, domain: CurveGraphBall, cg: CurveGraphBall) -> np.ndarray:
    """Maps given on the one-sided ids of ``domain`` (last axis), extended to
    every id: a two-sided vertex goes to the one its endpoints' images determine."""
    u, w = domain.ends.T
    return np.concatenate([one, cg.pair_ids(one[..., u], one[..., w])], axis=-1)


def check_map(domain: CurveGraphBall, maps: np.ndarray, cg: CurveGraphBall) -> tuple[np.ndarray, np.ndarray]:
    """(simplicial, locally injective) for each row of ``maps``, a map of domain ids to cg ids.

    Simplicial: every directed domain edge lands on an edge of cg.  Locally
    injective: the images of a vertex's neighbours are distinct and differ
    from its own image.  A row with an image outside cg is neither.
    """
    size = len(cg.vertices)
    valid = ((maps >= 0) & (maps < size)).all(axis=1)
    maps = np.where(valid[:, None], maps, 0)
    rows, cols = cg.entries()
    edge_keys = rows * size + cols  # ascending: rows are sorted
    src, dst = domain.entries()
    keys = maps[:, src] * size + maps[:, dst]
    pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
    simplicial = valid & (edge_keys[pos] == keys).all(axis=1)
    distinct = []  # id pairs whose images must differ
    for i in domain.vertices:
        nbrs = domain.neighbors(i).tolist()
        distinct += [(i, j) for j in nbrs] + list(combinations(nbrs, 2))
    a, b = np.array(distinct).T
    locally_injective = valid & (maps[:, a] != maps[:, b]).all(axis=1)
    return simplicial, locally_injective


def enumerate_locally_injective(domain: CurveGraphBall, cg: CurveGraphBall) -> np.ndarray:
    """All locally injective simplicial maps of the level-1 star into cg, one row each.

    ``domain`` is the level-1 star, the subdivided radius-0 ball.  Candidate
    images of the four one-sided vertices must have degree at least 3
    (two-sided vertices have degree exactly 2) and be pairwise at distance
    2; the six two-sided images are then forced to the determined common
    neighbours.  Every candidate map is validated explicitly.  Maps are
    returned ordered lexicographically by the image ids of slots 0-3.
    """
    if domain.source.radius != 0:
        raise ValueError("enumeration is defined for the level-1 star")
    n = cg.n_one
    heavy = np.flatnonzero(cg.degrees()[:n] >= 3).tolist()
    # near[v]: the ids whose one-sided vertex shares a two-sided neighbour with v.
    near = {}
    for v in heavy:
        nbrs = cg.neighbors(v)
        near[v] = sorted(set(cg.ends[nbrs[nbrs >= n] - n].ravel().tolist()) - {v})
    candidates = []
    for v0 in heavy:
        near0 = [v for v in near[v0] if v in near]
        for v1 in near0:
            near1 = set(near[v1])
            for v2 in (v for v in near0 if v in near1):
                near2 = set(near[v2])
                candidates += [(v0, v1, v2, v3) for v3 in near0 if v3 in near1 and v3 in near2]
    maps = _with_pairs(np.array(candidates, dtype=np.int64).reshape(-1, 4), domain, cg)
    simplicial, locally_injective = check_map(domain, maps, cg)
    return maps[simplicial & locally_injective]


def element_of_map(mapping: np.ndarray, cg: CurveGraphBall) -> MappingClassElement:
    """Read off the element whose propagation restricts to ``mapping``.

    The element is fixed by the images of the root slots, so this serves any
    map whose domain contains the root tetrahedron.
    """
    imgs = tuple(int(mapping[s]) for s in ROOT_TET.verts)
    cofaces = set.intersection(*(cg.source.support[v] for v in imgs))
    if len(cofaces) != 1:
        raise ValueError(f"images {imgs} do not span a unique tetrahedron")
    (addr,) = cofaces
    return MappingClassElement(OrderedTet(addr, imgs))


# ---------------------------------------------------------------------------
# Stabilizers and level checks

def pointwise_stabilizer_check(
    ids, work: TetBall, *, dst_radius: int | None = None
) -> bool:
    """True iff only the identity fixes every listed one-sided vertex.

    Tests all elements whose destination lies within ``dst_radius`` of the
    root; that is sufficient because an element fixing the root star
    pointwise already has the identity destination.
    """
    ids = sorted(ids)
    domain_radius = max(work.vertex_depth(v) for v in ids)
    if dst_radius is None:
        dst_radius = work.radius - domain_radius
    if dst_radius < 1:
        raise ValueError("work ball too small to test any non-identity element")
    domain = generate_ball(domain_radius, cap=max(domain_radius, work.radius))
    for otet in ordered_tets(work, max_length=dst_radius):
        element = MappingClassElement(otet)
        if element.is_identity():
            continue
        if propagate_map(element, domain, work).fixes(ids):
            return False
    return True


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
    of the level-1 and level-2 star unions.
    """
    if level < 1:
        raise ValueError(f"rigidity level must be at least 1, got {level}")
    work = generate_ball(max(level + 1, 3))
    cg = subdivide(generate_ball(max(level, 2)))
    ball = cg.source
    star = subdivide(generate_ball(0))
    maps = enumerate_locally_injective(star, cg)
    witnesses = _match_propagated(maps, star, cg)
    reports = [_level_report(1, ball.radius, len(maps), 24 * len(ball.tets), witnesses)]
    if level >= 2:
        reports.append(_check_level_two(maps, cg))
    reports += [induction_step_report(k, work) for k in range(2, level + 1)]
    for k in range(1, min(level, 2) + 1):
        fixers = [] if pointwise_stabilizer_check(generate_ball(k - 1).vertices(), work) else ["nontrivial fixer"]
        check = f"pointwise_stabilizer_level_{k}"
        reports.append(_level_report(k, work.radius, len(fixers), 0, fixers, check=check))
    return reports


def induction_step_report(level: int, work: TetBall) -> dict:
    """Check the forcing step on the shell of tetrahedra at tree distance ``level``.

    Each shell tetrahedron shares a face with its unique parent; a map fixing
    everything nearer the root must send it to a coface of that shared face
    other than the parent, so forcing is valid exactly when the face has those
    two cofaces and the two apexes (hence their determined two-sided
    vertices) are distinct.
    """
    if not 1 <= level <= work.radius:
        raise ValueError(f"level must be within the work radius {work.radius}")
    shell = sorted(a for a in work.tets if len(a) == level)
    witnesses = []
    for addr in shell:
        parent = addr[:-1]
        face = frozenset(work.tets[addr]) & frozenset(work.tets[parent])
        cof = triangle_cofaces(work, tuple(face))
        if set(cof) != {addr, parent}:
            witnesses.append({"tet": addr, "cofaces": list(cof)})
            continue
        (child_apex,) = set(work.tets[addr]) - face
        (parent_apex,) = set(work.tets[parent]) - face
        if child_apex == parent_apex:
            witnesses.append({"tet": addr, "error": "apexes coincide"})
    return _level_report(
        level,
        work.radius,
        len(shell) - len(witnesses),
        4 * 3 ** (level - 1),
        witnesses,
        check=f"induction_forcing_level_{level}",
    )


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
    witnesses = []
    seen = set()
    for mapping in maps:
        element = element_of_map(mapping, cg)
        if element in seen:
            witnesses.append({"element": str(element.dst), "error": "duplicate element"})
            continue
        seen.add(element)
        pm = propagate_map(element, domain.source, cg.source)
        if not np.array_equal(pm.apply_curve(domain, cg), mapping):
            witnesses.append({"element": str(element.dst), "error": "propagation mismatch"})
    return witnesses


def _check_level_two(base_maps: np.ndarray, cg: CurveGraphBall) -> dict:
    ball = cg.source
    domain = subdivide(generate_ball(1))
    tets = domain.source.tets
    adj = ball.adjacency
    completed = []  # (base row, one-sided images of the level-2 domain)
    witnesses = []  # (base row, witness); at most one per base
    for b, imgs in enumerate(base_maps[:, :4].tolist()):
        one = imgs + [-1] * (domain.n_one - len(imgs))
        for face in range(4):
            face_imgs = [imgs[j] for j in range(4) if j != face]
            candidates = set.intersection(*(adj[v] for v in face_imgs)) - {imgs[face]}
            if not candidates:
                break  # image tetrahedron has no second coface in the window
            if len(candidates) > 1:
                witnesses.append((b, {"base": tuple(imgs), "error": f"face {face} not forced"}))
                break
            (one[tets[str(face)][face]],) = candidates
        else:
            completed.append((b, one))
    one_sided = np.array([one for _, one in completed], dtype=np.int64).reshape(-1, domain.n_one)
    maps = _with_pairs(one_sided, domain, cg)
    simplicial, locally_injective = check_map(domain, maps, cg)
    good = simplicial & locally_injective
    witnesses += [
        (b, {"base": tuple(one[:4]), "error": "completed map invalid"})
        for (b, one), ok in zip(completed, good)
        if not ok
    ]
    witnesses = [w for _, w in sorted(witnesses, key=lambda bw: bw[0])]
    expected = 24 * sum(1 for a in ball.tets if len(a) < ball.radius)
    witnesses += _match_propagated(maps[good], domain, cg)
    return _level_report(2, ball.radius, int(good.sum()), expected, witnesses)
