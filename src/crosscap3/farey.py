"""Exact-arithmetic model of the Farey complex.

Vertices are reduced extended rationals p/q (with 1/0 the single point at
infinity).  Two slopes p/q and r/s span an edge exactly when |ps - qr| = 1,
and every edge lies in exactly two triangles, so finite windows can be
generated by unfolding triangles across their edges.  The triangle
adjacency graph of such a window is a ball in the 3-regular dual tree.

All arithmetic is on Python integers, so denominators may grow without
overflow however deep a window is unfolded.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import total_ordering

from .errors import RadiusCapError

#: Dual-tree radius above which farey_ball refuses to run (3 * 2**n - 2 triangles).
FAREY_RADIUS_CAP = 16


@total_ordering
@dataclass(frozen=True, slots=True)
class Slope:
    """A reduced extended rational p/q, with q = 0 only for infinity (1/0).

    Instances must already be canonical: q >= 0, gcd(|p|, q) = 1 when q > 0,
    and (p, q) = (1, 0) for infinity.  Use :meth:`of` to canonicalize raw
    integer pairs.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 0:
            raise ValueError(f"denominator must be nonnegative: {self.num}/{self.den}")
        if self.den == 0:
            if self.num != 1:
                raise ValueError(f"infinity must be written 1/0, got {self.num}/0")
        elif math.gcd(abs(self.num), self.den) != 1:
            raise ValueError(f"slope not reduced: {self.num}/{self.den}")

    @classmethod
    def of(cls, num: int, den: int) -> "Slope":
        """Canonicalize an integer pair to a Slope."""
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a slope")
        if den == 0:
            return cls(1, 0)
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        return cls(num // g, den // g)

    @classmethod
    def from_string(cls, text: str) -> "Slope":
        """Parse the serialization "p/q": optionally signed ASCII digits on each side."""
        if not re.fullmatch(r"-?[0-9]+/-?[0-9]+", text):
            raise ValueError(f"slope string must look like p/q: {text!r}")
        p, _, q = text.partition("/")
        return cls.of(int(p), int(q))

    @property
    def is_infinity(self) -> bool:
        return self.den == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __lt__(self, other: "Slope") -> bool:
        # Numeric order with infinity greatest; used only for canonical sorting.
        if self.is_infinity:
            return False
        if other.is_infinity:
            return True
        return self.num * other.den < other.num * self.den


#: A Farey triangle is a frozenset of three pairwise adjacent slopes.
FareyTriangle = frozenset

BASE_TRIANGLE: FareyTriangle = frozenset(
    (Slope(0, 1), Slope(1, 0), Slope(1, 1))
)


def farey_adjacent(a: Slope, b: Slope) -> bool:
    """True iff |ps - qr| = 1 for a = p/q, b = r/s."""
    return abs(a.num * b.den - a.den * b.num) == 1


def _require_adjacent(a: Slope, b: Slope) -> None:
    if not farey_adjacent(a, b):
        raise ValueError(f"slopes are not Farey neighbours: {a}, {b}")


def mediant(a: Slope, b: Slope) -> Slope:
    """The mediant (p+r)/(q+s) of two Farey neighbours."""
    _require_adjacent(a, b)
    return Slope.of(a.num + b.num, a.den + b.den)


def common_neighbors(a: Slope, b: Slope) -> frozenset:
    """The two slopes adjacent to both members of an adjacent pair.

    These are the mediant (p+r)/(q+s) and the difference (p-r)/(q-s),
    both canonicalized; they are the third vertices of the two triangles
    containing the edge {a, b}.
    """
    _require_adjacent(a, b)
    return frozenset(
        (
            Slope.of(a.num + b.num, a.den + b.den),
            Slope.of(a.num - b.num, a.den - b.den),
        )
    )


def triangle(a: Slope, b: Slope, c: Slope) -> FareyTriangle:
    """Build a Farey triangle, validating pairwise adjacency."""
    for x, y in ((a, b), (a, c), (b, c)):
        _require_adjacent(x, y)
    t = frozenset((a, b, c))
    if len(t) != 3:
        raise ValueError("triangle vertices must be distinct")
    return t


def _edges(tri: FareyTriangle):
    a, b, c = sorted(tri)
    yield frozenset((a, b))
    yield frozenset((a, c))
    yield frozenset((b, c))


def triangle_unfold(tri: FareyTriangle, edge: frozenset) -> FareyTriangle:
    """The unique other triangle containing ``edge``.

    The third vertex of the result is the common neighbour of the edge's
    endpoints that does not lie in ``tri``; unfolding twice across the same
    edge is the identity.
    """
    edge = frozenset(edge)
    if not (edge < tri) or len(edge) != 2:
        raise ValueError(f"edge {set(edge)} is not contained in the triangle")
    (third,) = tri - edge
    x, y = edge
    others = common_neighbors(x, y) - {third}
    if len(others) != 1:
        raise ValueError(f"{set(tri)} is not a Farey triangle")
    (new_third,) = others
    return frozenset((x, y, new_third))


class FareyPatch:
    """A dual-tree ball of Farey triangles around the base triangle."""

    def __init__(self, radius: int, triangles: frozenset):
        self.radius = radius
        self.triangles = triangles

    def __len__(self) -> int:
        return len(self.triangles)

    def vertices(self) -> frozenset:
        return frozenset(s for tri in self.triangles for s in tri)

    def edges(self) -> set:
        return {e for tri in self.triangles for e in _edges(tri)}

    def to_json(self) -> dict:
        key = lambda s: (s.num, s.den)
        tris = sorted(
            (sorted(tri, key=key) for tri in self.triangles),
            key=lambda t: [key(s) for s in t],
        )
        return {
            "radius": self.radius,
            "triangles": [[str(s) for s in tri] for tri in tris],
        }


def farey_ball(radius: int) -> FareyPatch:
    """All triangles within dual-tree distance ``radius`` of ``BASE_TRIANGLE``.

    The result has 3 * 2**radius - 2 triangles.  Raises RadiusCapError above
    ``FAREY_RADIUS_CAP``; denominators grow exponentially with the radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if radius > FAREY_RADIUS_CAP:
        raise RadiusCapError(f"radius {radius} exceeds cap {FAREY_RADIUS_CAP}")
    triangles = {BASE_TRIANGLE}
    frontier = [(BASE_TRIANGLE, None)]
    for _ in range(radius):
        nxt = []
        for tri, entry in frontier:
            for edge in _edges(tri):
                if edge == entry:
                    continue
                other = triangle_unfold(tri, edge)
                # The dual graph is a tree: unfolding never revisits a triangle.
                assert other not in triangles, "dual graph is not a tree"
                triangles.add(other)
                nxt.append((other, edge))
        frontier = nxt
    return FareyPatch(radius, frozenset(triangles))
