import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    Slope,
    common_neighbors,
    farey_adjacent,
    mat_det,
    mat_inverse,
    mat_mul,
    mobius_apply,
    triangle,
    triangle_matrix,
    triangle_unfold,
)


def s(text):
    p, q = text.split("/")
    return Slope.of(int(p), int(q))


def all_slopes(bound):
    # Every reduced slope with |num| <= bound and 0 < den <= bound, plus infinity.
    out = {Slope(1, 0)}
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            try:
                out.add(Slope.of(p, q))
            except ValueError:
                pass
    return out


def brute_common_neighbors(a, b, bound):
    # Independent oracle: scan every slope in the box for adjacency to both.
    return frozenset(
        c for c in all_slopes(bound) if farey_adjacent(c, a) and farey_adjacent(c, b)
    )


# ---------------------------------------------------------------------------
# Slope arithmetic

class TestSlope:
    def test_canonical_forms(self):
        assert Slope.of(2, 4) == Slope(1, 2)
        assert Slope.of(-2, -4) == Slope(1, 2)
        assert Slope.of(2, -4) == Slope(-1, 2)
        assert Slope.of(-3, 0) == Slope(1, 0)
        assert Slope.of(0, 5) == Slope(0, 1)

    def test_invalid_forms_rejected(self):
        with pytest.raises(ValueError):
            Slope(2, 4)
        with pytest.raises(ValueError):
            Slope(1, -2)
        with pytest.raises(ValueError):
            Slope(3, 0)
        with pytest.raises(ValueError):
            Slope.of(0, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_of_is_canonical(self, p, q):
        if p == 0 and q == 0:
            return
        v = Slope.of(p, q)
        Slope(v.num, v.den)  # revalidates canonical invariants
        if q != 0:
            assert v.num * q == p * v.den  # same rational

    def test_ordering(self):
        assert s("-1/1") < s("0/1") < s("1/2") < s("1/1") < s("2/1") < s("1/0")


# ---------------------------------------------------------------------------
# Adjacency, common neighbours

class TestAdjacency:
    def test_examples(self):
        assert farey_adjacent(s("0/1"), s("1/0"))
        assert farey_adjacent(s("1/2"), s("2/3"))
        assert not farey_adjacent(s("1/3"), s("2/3"))

    def test_symmetric_and_irreflexive(self):
        slopes = all_slopes(3)
        for a in slopes:
            assert not farey_adjacent(a, a)
            for b in slopes:
                assert farey_adjacent(a, b) == farey_adjacent(b, a)


class TestCommonNeighbors:
    def test_examples_match_brute_force(self):
        cases = [
            (s("0/1"), s("1/0"), {s("1/1"), s("-1/1")}),
            (s("0/1"), s("1/1"), {s("1/2"), s("1/0")}),
            (s("1/1"), s("1/2"), {s("2/3"), s("0/1")}),
        ]
        for a, b, expected in cases:
            assert common_neighbors(a, b) == frozenset(expected)
            assert brute_common_neighbors(a, b, 3) == frozenset(expected)

    def test_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            common_neighbors(s("1/3"), s("2/3"))

    def test_brute_force_agreement_on_patch(self):
        # Every adjacent pair of slopes with entries at most 5 (77 pairs, among them
        # the 45 of the radius-3 window around the base triangle): the formula
        # matches a scan over a box big enough to contain both candidates.
        slopes = sorted(all_slopes(5))
        box = all_slopes(11)
        for i, a in enumerate(slopes):
            for b in slopes[i + 1 :]:
                if not farey_adjacent(a, b):
                    continue
                found = frozenset(
                    c for c in box if farey_adjacent(c, a) and farey_adjacent(c, b)
                )
                assert common_neighbors(a, b) == found


# ---------------------------------------------------------------------------
# Unfolding

class TestUnfold:
    def test_examples(self):
        base = triangle(s("0/1"), s("1/0"), s("1/1"))
        assert triangle_unfold(base, {s("0/1"), s("1/1")}) == {s("0/1"), s("1/1"), s("1/2")}
        assert triangle_unfold(base, {s("1/0"), s("1/1")}) == {s("1/0"), s("1/1"), s("2/1")}

    def test_involution(self):
        from itertools import combinations

        # Every Farey triangle with entries at most 5: 38, among them the 22 of
        # the radius-3 window around the base triangle.
        slopes = all_slopes(5)
        triangles = {
            triangle(a, b, c)
            for a in slopes
            for b in slopes
            if a < b and farey_adjacent(a, b)
            for c in common_neighbors(a, b)
            if c in slopes
        }
        for tri in triangles:
            for pair in combinations(sorted(tri), 2):
                edge = frozenset(pair)
                other = triangle_unfold(tri, edge)
                assert triangle_unfold(other, edge) == tri

    def test_rejects_edge_not_in_triangle(self):
        base = triangle(s("0/1"), s("1/0"), s("1/1"))
        with pytest.raises(ValueError):
            triangle_unfold(base, {s("0/1"), s("1/2")})


# ---------------------------------------------------------------------------
# The Mobius oracle

BASE_ORDER = (Slope(0, 1), Slope(1, 0), Slope(1, 1))


class TestMobius:
    def test_examples(self):
        assert mobius_apply(((1, 0), (0, 1)), s("5/7")) == s("5/7")
        assert mobius_apply(((0, 1), (1, 0)), s("0/1")) == s("1/0")
        assert mobius_apply(((1, 1), (0, 1)), s("1/1")) == s("2/1")

    def test_rejects_bad_determinant(self):
        with pytest.raises(ValueError):
            mobius_apply(((2, 0), (0, 1)), s("1/1"))

    def test_triangle_matrix_sends_base(self):
        for dst in [(s("1/0"), s("0/1"), s("1/1")), (s("1/2"), s("0/1"), s("1/3")), (s("2/1"), s("1/1"), s("3/2"))]:
            m = triangle_matrix(dst)
            assert abs(mat_det(m)) == 1
            for base_v, img in zip(BASE_ORDER, dst):
                assert mobius_apply(m, base_v) == img

    @given(
        st.sampled_from(sorted(all_slopes(5))),
        st.sampled_from([((1, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1)), ((2, 1), (1, 1))]),
        st.sampled_from([((1, -1), (0, 1)), ((0, -1), (1, 0)), ((1, 2), (0, -1))]),
    )
    def test_composition(self, v, m1, m2):
        assert mobius_apply(m1, mobius_apply(m2, v)) == mobius_apply(mat_mul(m1, m2), v)

    def test_inverse_matrix(self):
        for m in (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((3, 2), (1, 1))):
            assert mat_mul(m, mat_inverse(m)) in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))
