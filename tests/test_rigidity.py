import pytest

from crosscap3.curve_graph import OneSided, TwoSided, two_sided
from crosscap3.errors import CodomainTooSmallError
from crosscap3.rigidity import (
    ROOT_TET,
    MappingClassElement,
    OrderedTet,
    check_map,
    compose,
    element_of_map,
    enumerate_locally_injective,
    image_of_ordered_tet,
    induction_step_report,
    inverse,
    ordered_tets,
    pointwise_stabilizer_check,
    propagate_map,
    rigid_set_graph,
    rigidity_reports,
    star_union,
)


def elem(address, verts):
    return MappingClassElement(OrderedTet(address, tuple(verts)))


class TestOrderedTet:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrderedTet("", (0, 1, 2, 2))
        with pytest.raises(ValueError):
            OrderedTet("", (0, 1, 2))

    def test_identity(self):
        e = MappingClassElement.identity()
        assert e.is_identity()
        assert e.dst == ROOT_TET


class TestPropagate:
    def test_identity_gives_identity_map(self, ball):
        pm = propagate_map(MappingClassElement.identity(), ball(1), ball(2))
        assert pm.vertices == {v: v for v in ball(1).vertices()}
        assert pm.tets == {a: a for a in ball(1).tets}

    def test_slot_swap_sends_face_zero_to_face_one(self, ball):
        pm = propagate_map(elem("", (1, 0, 2, 3)), ball(1), ball(2))
        assert pm.tets["0"] == "1"
        assert pm.tets["1"] == "0"
        assert pm.tets["2"] == "2"

    def test_destination_must_match_tet(self, ball):
        with pytest.raises(ValueError):
            propagate_map(elem("", (0, 1, 2, 4)), ball(0), ball(1))
        with pytest.raises(CodomainTooSmallError):
            propagate_map(elem("000", (0, 1, 2, 3)), ball(0), ball(1))

    def test_codomain_too_small(self, ball):
        # Destination at distance 2 with a radius-2 domain needs radius 4.
        dst = OrderedTet("01", ball(3).tets["01"])
        with pytest.raises(CodomainTooSmallError):
            propagate_map(MappingClassElement(dst), ball(2), ball(3))
        propagate_map(MappingClassElement(dst), ball(2), ball(4))

    def test_is_simplicial_bijection_onto_image(self, ball):
        domain, codomain = ball(1), ball(3)
        for e in (elem("", (2, 1, 0, 3)), elem("0", (1, 4, 2, 3)), elem("12", ball(3).tets["12"])):
            pm = propagate_map(e, domain, codomain)
            images = pm.vertices
            assert len(set(images.values())) == len(images)
            for u, w in domain.edges():
                assert codomain.has_edge(images[u], images[w])
            # Non-adjacent pairs stay non-adjacent.
            for u in domain.vertices():
                for w in domain.vertices():
                    if u < w and not domain.has_edge(u, w):
                        assert not codomain.has_edge(images[u], images[w])
            for addr, c_addr in pm.tets.items():
                assert {images[v] for v in domain.tets[addr]} == set(
                    codomain.tets[c_addr]
                )

    def test_preserves_determined_vertices(self, ball):
        pm = propagate_map(elem("1", ball(2).tets["1"]), ball(1), ball(3))
        for u, w in ball(1).edges():
            img = pm.apply_curve(two_sided(u, w))
            assert img == two_sided(pm.apply(u), pm.apply(w))

    def test_restriction_commutes(self, ball):
        e = elem("2", ball(1).tets["2"])
        big = propagate_map(e, ball(2), ball(3))
        small = propagate_map(e, ball(1), ball(3))
        for v in ball(1).vertices():
            assert big.apply(v) == small.apply(v)
        for addr in ball(1).tets:
            assert big.tets[addr] == small.tets[addr]

    def test_forward_then_inverse_is_identity(self, ball):
        work = ball(5)
        e = elem("10", work.tets["10"])
        inv = inverse(e, work)
        fwd = propagate_map(e, ball(1), work)
        back = propagate_map(inv, ball(3), work)
        for v in ball(1).vertices():
            assert back.apply(fwd.apply(v)) == v


class TestSinglePathImages:
    def test_matches_full_propagation(self, ball):
        work = ball(4)
        e = elem("0", work.tets["0"])
        pm = propagate_map(e, ball(2), work)
        for addr in ball(2).tets:
            src = OrderedTet(addr, work.tets[addr])
            img = image_of_ordered_tet(e, src, work)
            assert img.address == pm.tets[addr]
            assert img.verts == tuple(pm.apply(v) for v in src.verts)


class TestGroupLaws:
    def test_identity_laws(self, ball):
        work = ball(4)
        e = elem("12", work.tets["12"])
        ident = MappingClassElement.identity()
        assert compose(e, ident, work) == e
        assert compose(ident, e, work) == e

    def test_inverse_laws(self, ball):
        work = ball(4)
        e = elem("12", (work.tets["12"][2],) + work.tets["12"][:2] + work.tets["12"][3:])
        assert compose(e, inverse(e, work), work).is_identity()
        assert compose(inverse(e, work), e, work).is_identity()

    def test_face_reflections_compose_short(self, ball):
        work = ball(4)
        e0 = elem("0", work.tets["0"])
        e1 = elem("1", work.tets["1"])
        c = compose(e0, e1, work)
        assert c.dst.address == "10"
        assert len(c.dst.address) <= 2

    def test_associativity(self, ball):
        work = ball(6)
        a = elem("0", work.tets["0"])
        b = elem("12", work.tets["12"])
        c = elem("3", (work.tets["3"][1], work.tets["3"][0]) + work.tets["3"][2:])
        left = compose(compose(a, b, work), c, work)
        right = compose(a, compose(b, c, work), work)
        assert left == right

    def test_element_tet_bijection(self, ball):
        work = ball(3)
        seen = set()
        for otet in ordered_tets(work, max_length=1):
            e = MappingClassElement(otet)
            assert image_of_ordered_tet(e, ROOT_TET, work) == otet
            assert otet not in seen
            seen.add(otet)
        assert len(seen) == 24 * 5


class TestStarUnion:
    def test_level_one_is_root_star(self, ball):
        y = star_union(1, ball(2))
        assert sorted(y.one_sided) == [0, 1, 2, 3]
        assert len(y.two_sided) == 6

    def test_level_two_counts(self, ball):
        y = star_union(2, ball(2))
        assert len(y.one_sided) == 2 * 3 + 2
        assert len(y.two_sided) == 6 * 3

    def test_closed_form_counts(self, ball):
        for n in (1, 2, 3, 4):
            y = star_union(n, ball(3))
            assert len(y.one_sided) == 2 * 3 ** (n - 1) + 2
            assert len(y.two_sided) == 6 * 3 ** (n - 1)

    def test_nesting(self, ball):
        b = ball(3)
        for n in (1, 2, 3):
            a, c = star_union(n, b), star_union(n + 1, b)
            assert a.one_sided <= c.one_sided
            assert a.two_sided <= c.two_sided

    def test_ball_too_small(self, ball):
        with pytest.raises(ValueError):
            star_union(3, ball(1))


class TestEnumeration:
    def test_count_into_root_subdivision(self, ball, cgraph):
        maps = enumerate_locally_injective(star_union(1, ball(1)), cgraph(0))
        assert len(maps) == 24

    def test_count_into_radius_one(self, ball, cgraph):
        maps = enumerate_locally_injective(star_union(1, ball(1)), cgraph(1))
        assert len(maps) == 24 * 5

    def test_maps_are_injective_and_one_sided_to_one_sided(self, ball, cgraph):
        maps = enumerate_locally_injective(star_union(1, ball(1)), cgraph(1))
        for m in maps:
            assert len(set(m.values())) == len(m)
            for cv, img in m.items():
                assert type(cv) is type(img)

    def test_each_map_is_a_unique_propagated_element(self, ball, cgraph):
        src = star_union(1, ball(1))
        graph = rigid_set_graph(src)
        seen = set()
        for m in enumerate_locally_injective(src, cgraph(1)):
            e = element_of_map(m, cgraph(1))
            assert e not in seen
            seen.add(e)
            pm = propagate_map(e, ball(0), ball(1))
            assert all(pm.apply_curve(cv) == m[cv] for cv in graph)

    def test_lexicographic_order(self, ball, cgraph):
        maps = enumerate_locally_injective(star_union(1, ball(1)), cgraph(0))
        keys = [tuple(m[OneSided(i)].v for i in range(4)) for m in maps]
        assert keys == sorted(keys)

    def test_corrupted_map_rejected(self, ball, cgraph):
        src = star_union(1, ball(1))
        graph = rigid_set_graph(src)
        cg = cgraph(1)
        m = dict(enumerate_locally_injective(src, cg)[0])
        m[TwoSided(0, 1)], m[TwoSided(0, 2)] = m[TwoSided(0, 2)], m[TwoSided(0, 1)]
        simplicial, loc_inj = check_map(graph, m, cg)
        assert not (simplicial and loc_inj)

    def test_requires_level_one(self, ball, cgraph):
        with pytest.raises(ValueError):
            enumerate_locally_injective(star_union(2, ball(1)), cgraph(1))


class TestStabilizers:
    def test_root_star_trivial(self, ball):
        assert pointwise_stabilizer_check(star_union(1, ball(3)), ball(3))

    def test_level_two_trivial(self, ball):
        assert pointwise_stabilizer_check(star_union(2, ball(3)), ball(3))

    def test_single_vertex_not_rigid(self, ball):
        assert not pointwise_stabilizer_check([0], ball(3))

    def test_work_too_small(self, ball):
        with pytest.raises(ValueError):
            pointwise_stabilizer_check(star_union(2, ball(1)), ball(1))


@pytest.fixture(scope="module")
def reports():
    cache = {}

    def get(level):
        if level not in cache:
            cache[level] = {r["check"]: r for r in rigidity_reports(level)}
        return cache[level]

    return get


class TestLevelChecks:
    def test_level_one_report(self, reports):
        report = reports(1)["rigidity_level_1"]
        assert report["count_found"] == report["count_expected"] == 24 * 17
        assert not report["witnesses_of_failure"]

    def test_level_two_report(self, reports):
        report = reports(2)["rigidity_level_2"]
        assert report["count_found"] == report["count_expected"] == 24 * 5
        assert not report["witnesses_of_failure"]

    def test_induction_step_level_two(self, ball):
        report = induction_step_report(2, ball(3))
        assert report["count_found"] == report["count_expected"] == 12
        assert not report["witnesses_of_failure"]

    def test_higher_levels_via_induction(self, reports):
        report = reports(3)["induction_forcing_level_3"]
        assert report["count_found"] == report["count_expected"] == 36
        assert not report["witnesses_of_failure"]

    def test_induction_level_out_of_range(self, ball):
        with pytest.raises(ValueError):
            induction_step_report(4, ball(3))
