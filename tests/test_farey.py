import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosscap3.errors import RadiusCapError
from crosscap3.farey import (
    BASE_TRIANGLE,
    Slope,
    common_neighbors,
    farey_adjacent,
    farey_ball,
    mediant,
    triangle,
    triangle_unfold,
)
from oracles import mat_det, mat_inverse, mat_mul, mobius_apply, triangle_matrix


def s(text):
    return Slope.from_string(text)


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

    def test_string_round_trip(self):
        for text in ("0/1", "1/0", "-1/1", "3/5", "-7/2"):
            assert str(s(text)) == text

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
# Adjacency, mediant, common neighbours

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


class TestMediant:
    def test_examples(self):
        assert mediant(s("0/1"), s("1/0")) == s("1/1")
        assert mediant(s("0/1"), s("1/1")) == s("1/2")

    def test_mediant_of_half_and_one(self):
        # Brute force over denominators <= 4 finds 2/3 adjacent to both.
        m = mediant(s("1/2"), s("1/1"))
        assert m == s("2/3")
        box = [c for c in all_slopes(4) if farey_adjacent(c, s("1/2")) and farey_adjacent(c, s("1/1"))]
        assert m in box

    def test_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            mediant(s("1/3"), s("2/3"))

    def test_mediant_adjacent_to_both(self):
        for a in all_slopes(3):
            for b in all_slopes(3):
                if farey_adjacent(a, b):
                    m = mediant(a, b)
                    assert farey_adjacent(m, a) and farey_adjacent(m, b)


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
        # Every adjacent pair of a radius-3 window: the formula matches a scan
        # over a box big enough to contain both candidates.
        patch = farey_ball(3)
        slopes = sorted(patch.vertices())
        bound = 2 * max(max(abs(v.num), v.den) for v in slopes) + 1
        box = all_slopes(bound)
        for i, a in enumerate(slopes):
            for b in slopes[i + 1 :]:
                if not farey_adjacent(a, b):
                    continue
                found = frozenset(
                    c for c in box if farey_adjacent(c, a) and farey_adjacent(c, b)
                )
                assert common_neighbors(a, b) == found


# ---------------------------------------------------------------------------
# Unfolding and patches

class TestUnfold:
    def test_examples(self):
        base = triangle(s("0/1"), s("1/0"), s("1/1"))
        assert triangle_unfold(base, {s("0/1"), s("1/1")}) == {s("0/1"), s("1/1"), s("1/2")}
        assert triangle_unfold(base, {s("1/0"), s("1/1")}) == {s("1/0"), s("1/1"), s("2/1")}

    def test_involution(self):
        from itertools import combinations

        patch = farey_ball(3)
        for tri in patch.triangles:
            for pair in combinations(sorted(tri), 2):
                edge = frozenset(pair)
                other = triangle_unfold(tri, edge)
                assert triangle_unfold(other, edge) == tri

    def test_rejects_edge_not_in_triangle(self):
        base = triangle(s("0/1"), s("1/0"), s("1/1"))
        with pytest.raises(ValueError):
            triangle_unfold(base, {s("0/1"), s("1/2")})


class TestFareyBall:
    def test_counts(self):
        assert len(farey_ball(0)) == 1
        assert len(farey_ball(1)) == 4
        assert len(farey_ball(3)) == 22
        for n in range(6):
            assert len(farey_ball(n)) == 3 * 2**n - 2

    def test_radius_one_matches_hand_unfolding(self):
        base = BASE_TRIANGLE
        expected = {base}
        for edge in ({s("0/1"), s("1/0")}, {s("0/1"), s("1/1")}, {s("1/0"), s("1/1")}):
            x, y = edge
            for c in brute_common_neighbors(x, y, 3):
                if c not in base:
                    expected.add(frozenset(edge | {c}))
        assert farey_ball(1).triangles == frozenset(expected)

    def test_cap(self):
        with pytest.raises(RadiusCapError):
            farey_ball(17)

    def test_edge_cofaces(self):
        # Non-base edges of the patch lie in 1 or 2 patch triangles, and the
        # full-complex cofaces are exactly the common-neighbour completions.
        patch = farey_ball(2)
        for edge in patch.edges():
            x, y = edge
            full = {frozenset(edge | {c}) for c in common_neighbors(x, y)}
            inside = {tri for tri in patch.triangles if edge < tri}
            assert 1 <= len(inside) <= 2
            assert inside <= full

    def test_interior_edges_have_both_cofaces(self):
        big = farey_ball(3)
        small = farey_ball(2)
        for edge in small.edges():
            # In a strictly larger window every radius-2 edge shows both cofaces.
            x, y = edge
            full = {frozenset(edge | {c}) for c in common_neighbors(x, y)}
            if all(tri in big.triangles for tri in full):
                assert len({tri for tri in big.triangles if edge < tri}) == 2


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


class TestPatchJson:
    def test_schema_and_determinism(self):
        patch = farey_ball(1)
        data = patch.to_json()
        assert data["radius"] == 1
        assert ["0/1", "1/0", "1/1"] in data["triangles"]
        assert data == farey_ball(1).to_json()
        assert len(data["triangles"]) == 4
