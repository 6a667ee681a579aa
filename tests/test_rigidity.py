import copy
import pickle
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import adjacency_sets, with_edges
from crosscap3 import rigidity, tet_tree
from crosscap3.curve_graph import subdivide
from crosscap3.errors import BudgetError, CodomainTooSmallError
from crosscap3.rigidity import (
    ROOT_TET,
    PERMUTATIONS,
    MappingClassElement,
    OrderedTet,
    check_map,
    compose,
    enumerate_locally_injective,
    image_of_ordered_tet,
    induction_step_report,
    inverse,
    pointwise_stabilizer_check,
    propagate_map,
    rigidity_reports,
    _check_level_two,
    _first_fixer,
    _level_report,
    _match_propagated,
    _propagate,
    _stabilizer_report,
    _with_pairs,
)
from crosscap3.tet_tree import ALPHABET, BLOCK_ELEMS, TetBall, generate_ball, is_address
from oracles import by_verts, element_of_map, has_edge, neighbor, ordered_tets, triangle_cofaces


def elem(address, verts):
    return MappingClassElement(OrderedTet(address, tuple(verts)))


def walk_images(element, domain, codomain):
    """Images of the domain vertices, one ``image_of_ordered_tet`` call per domain tetrahedron.

    Built on the closed-form image alone, so it is independent of the
    batched propagation engine.
    """
    images = {}
    for addr, verts in domain.tets.items():
        images.update(zip(verts, image_of_ordered_tet(element, OrderedTet(addr, verts), codomain).verts))
    return images


def check_tet(ball, otet, role):
    """The ball's slots of ``otet``'s tetrahedron, once its vertices are known to match."""
    slots = ball.tets.get(otet.address)
    if slots is None:
        raise CodomainTooSmallError(f"{role} tetrahedron {otet.address!r} is not in the ball")
    if not set(otet.verts) <= set(slots):
        raise ValueError(f"{role} vertices {otet.verts} do not match tetrahedron {otet.address!r}")
    return slots


def walk_image(element, otet, work):
    """Reference for ``image_of_ordered_tet``: one tree path over the address dict.

    Each letter f of the source address crosses the image face that drops
    the image of slot f, and the fresh vertex takes its place."""
    check_tet(work, element.dst, "destination")
    slots = check_tet(work, otet, "source")
    addr, images = element.dst.address, list(element.dst.verts)
    for letter in otet.address:
        face = int(letter)
        image_face = work.tets[addr].index(images[face])
        step = neighbor(addr, image_face)
        if step not in work.tets:
            raise CodomainTooSmallError(f"image left the codomain ball at {addr!r} across face {image_face}")
        images[face] = work.tets[step][image_face]
        addr = step
    return OrderedTet(addr, tuple(images[slots.index(v)] for v in otet.verts))


def walk_inverse(element, work):
    """Reference for ``inverse``: walk the destination back to the root, building the
    inverse's address from the faces the walk crosses in the domain."""
    check_tet(work, element.dst, "destination")
    addr, images, back = element.dst.address, list(element.dst.verts), ""
    while addr:
        face = int(addr[-1])
        domain_face = images.index(work.tets[addr][face])
        back = neighbor(back, domain_face)
        if back not in work.tets:
            raise CodomainTooSmallError("work ball too small to invert")
        addr = addr[:-1]
        images[domain_face] = work.tets[addr][face]
    slots = work.tets[back]
    return MappingClassElement(OrderedTet(back, tuple(slots[images.index(f)] for f in range(4))))


def outcome(op, *args):
    """The result of ``op``, or the type of the error it raises and the role its message names first."""
    try:
        return op(*args)
    except (CodomainTooSmallError, ValueError) as exc:
        return type(exc), str(exc).split()[0]


def free_reduce(word):
    """Cancel every pair of equal adjacent letters, repeatedly."""
    out = []
    for letter in word:
        if out and out[-1] == letter:
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


def forcing_loop(level, work):
    """Reference for ``induction_step_report``: one ``triangle_cofaces`` call per shell tetrahedron."""
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
    found, expected = len(shell) - len(witnesses), 4 * 3 ** (level - 1)
    return _level_report(level, work.radius, found, expected, witnesses, check=f"induction_forcing_level_{level}")


def match_loop(maps, domain, cg):
    """Reference for ``_match_propagated``: one map at a time, in row order."""
    witnesses, seen = [], set()
    for mapping in maps:
        try:
            element = element_of_map(mapping, cg)
        except ValueError:
            witnesses.append({"images": mapping[:4].tolist(), "error": "no unique tetrahedron"})
            continue
        if element in seen:
            witnesses.append({"element": str(element.dst), "error": "duplicate element"})
            continue
        seen.add(element)
        images = walk_images(element, domain.source, cg.source)
        one = np.array([images[v] for v in domain.one_sided()])
        curve = np.concatenate([one, cg.pair_ids(one[domain.ends[:, 0]], one[domain.ends[:, 1]])])
        if not np.array_equal(curve, mapping):
            witnesses.append({"element": str(element.dst), "error": "propagation mismatch"})
    return witnesses


def first_fixer_loop(ids, work):
    """Reference for ``_first_fixer``: one element at a time, in ``ordered_tets`` order."""
    domain_radius = max(work.vertex_depth(v) for v in ids)
    domain = generate_ball(domain_radius)
    for otet in ordered_tets(work, max_length=work.radius - domain_radius):
        element = MappingClassElement(otet)
        images = walk_images(element, domain, work)
        if not element.is_identity() and all(images[v] == v for v in ids):
            return otet
    return None


def star_union(level, ball):
    """The union of the 10-vertex stars of all tetrahedra within radius level-1.

    The reference for the level-``level`` domain, as (one-sided ids, pairs).
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if ball.radius < level - 1:
        raise ValueError(f"ball radius {ball.radius} too small for level {level}")
    ones, twos = set(), set()
    for addr, verts in ball.tets.items():
        if len(addr) <= level - 1:
            ones.update(verts)
            twos.update(tuple(sorted(p)) for p in combinations(verts, 2))
    return frozenset(ones), frozenset(twos)


short_addresses = st.text(alphabet=ALPHABET, max_size=4).filter(is_address)
elements = st.tuples(short_addresses, st.integers(0, 23))


def word_of_steps(first, steps):
    """The reduced word that starts with letter ``first`` and whose next letters each add a step
    of 1 to 3 to the one before, mod 4."""
    letters = [first]
    for step in steps:
        letters.append((letters[-1] + step) % 4)
    return "".join(ALPHABET[f] for f in letters)


# Destinations of length 1 to 8; ``elements`` covers the root.
long_addresses = st.builds(word_of_steps, st.integers(0, 3), st.lists(st.integers(1, 3), max_size=7))
long_elements = st.tuples(long_addresses, st.integers(0, 23))


def drawn(work, element):
    """The element with destination address ``element[0]``, its slots in permutation ``element[1]``."""
    addr, p = element
    return elem(addr, [work.tets[addr][i] for i in PERMUTATIONS[p]])


def rebuilt(x):
    """``x`` built again from its fields by the validating constructors."""
    if type(x) is MappingClassElement:
        return MappingClassElement(rebuilt(x.dst))
    return OrderedTet(x.address, x.verts)


class TestOrderedTet:
    def test_validation(self):
        with pytest.raises(ValueError):
            OrderedTet("", (0, 1, 2, 2))
        with pytest.raises(ValueError):
            OrderedTet("", (0, 1, 2))
        # No ball holds such an address, so growing the ball would not help: ValueError, not
        # CodomainTooSmallError, before any group operation sees it.
        for address in ("xyz", "000", "00", "4", "01 ", 1, None, ["0"]):
            with pytest.raises(ValueError, match="reduced word"):
                OrderedTet(address, (0, 1, 2, 3))

    @pytest.mark.parametrize("verts", [[0, 1, 2, 3], np.arange(4)], ids=["list", "numpy row"])
    def test_vertices_are_stored_as_a_tuple_of_ints(self, ball, verts):
        # A list never equals the tuple in ROOT_TET and does not hash; a numpy row holds numpy ints.
        e = MappingClassElement(OrderedTet("", verts))
        assert e == MappingClassElement.identity() and hash(e) == hash(MappingClassElement.identity())
        assert type(e.dst.verts) is tuple and all(type(v) is int for v in e.dst.verts)
        assert e.is_identity() and compose(e, e, ball(2)).is_identity()

    @pytest.mark.parametrize("verts", [(0.0, 1.0, 2.0, 3.0), "0123"], ids=["float", "str"])
    def test_rejects_vertices_that_are_not_ints(self, verts):
        with pytest.raises(TypeError):
            OrderedTet("", verts)

    def test_identity(self):
        e = MappingClassElement.identity()
        assert e.is_identity()
        assert e.dst == ROOT_TET

    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_results_are_exact_and_valid(self, ball, a, b, c):
        # The operations build their results unvalidated; each must still be exactly what the
        # validating constructors build from its fields, with Python int vertex ids.
        work = ball(8)
        assume(len(a[0]) + len(b[0]) + len(c[0]) <= work.radius)
        a, b, c = (drawn(work, x) for x in (a, b, c))
        ident = MappingClassElement.identity()
        ai, bi, ab, bc = inverse(a, work), inverse(b, work), compose(a, b, work), compose(b, c, work)
        results = [ident, ai, bi, ab, bc, inverse(ab, work), compose(bi, ai, work), compose(a, ident, work)]
        results += [compose(ident, a, work), compose(a, ai, work), compose(ai, a, work), compose(ab, c, work)]
        results.append(compose(a, bc, work))
        for e in results:
            assert type(e) is MappingClassElement and type(e.dst) is OrderedTet
            assert e == rebuilt(e) and all(type(v) is int for v in e.dst.verts)
        image = image_of_ordered_tet(a, c.dst, work)
        assert type(image) is OrderedTet and image == rebuilt(image)

    def test_repr(self):
        # Witnesses print elements, so the dataclass-style repr is part of the artifacts.
        otet = OrderedTet("01", (0, 1, 2, 4))
        assert repr(otet) == str(otet) == "OrderedTet(address='01', verts=(0, 1, 2, 4))"
        element = "MappingClassElement(dst=OrderedTet(address='01', verts=(0, 1, 2, 4)))"
        assert repr(MappingClassElement(otet)) == str(MappingClassElement(otet)) == element

    def test_hash_follows_equality(self, ball):
        work = ball(4)
        pool = [MappingClassElement(otet) for otet in ordered_tets(work, max_length=1)]
        ident = MappingClassElement.identity()
        again = [compose(e, ident, work) for e in pool] + [inverse(inverse(e, work), work) for e in pool]
        assert again == pool + pool
        assert [hash(e) for e in again] == [hash(e) for e in pool + pool]
        assert len(set(pool + again)) == len(pool) == 120
        assert {e.dst for e in again} == {e.dst for e in pool}
        e = pool[37]
        assert hash(compose(e, inverse(e, work), work)) == hash(ident)

    def test_equals_plain_tuples(self):
        # Elements are tuples: they compare and hash as the plain tuple of their fields.
        assert ROOT_TET == ("", (0, 1, 2, 3)) and hash(ROOT_TET) == hash(("", (0, 1, 2, 3)))
        assert MappingClassElement.identity() == (ROOT_TET,)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copy_round_trip(self, ball, protocol):
        e = elem("01", ball(2).tets["01"][::-1])
        for x in (e, e.dst, MappingClassElement.identity()):
            for y in (pickle.loads(pickle.dumps(x, protocol)), copy.copy(x), copy.deepcopy(x)):
                assert type(y) is type(x) and y == x and repr(y) == repr(x)


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
            propagate_map(elem("01", (0, 1, 2, 3)), ball(0), ball(1))

    @pytest.mark.parametrize(
        "verts, named", [((0, 1, 2, 5), "3 is in no"), ((0, 1, 2, -1), "-1 is negative")], ids=["unheld", "negative"]
    )
    def test_every_domain_id_gets_an_image(self, ball, verts, named):
        # Ids 3 and 4 of the first domain lie in no tetrahedron, and -1 indexes the last image column.
        with pytest.raises(ValueError, match=f"^domain vertex id {named}"):
            propagate_map(MappingClassElement.identity(), TetBall(0, {"": verts}), ball(1))

    @pytest.mark.parametrize(
        "tets, ids",
        [
            ({"0": (4, 1, 2, 3), "": (0, 1, 2, 3)}, {}),
            ({"": (0, 1, 2, 3), "01": (4, 5, 2, 3), "0": (4, 1, 2, 3)}, {5: 8}),
        ],
        ids=["root_last", "child_before_parent"],
    )
    def test_walks_rows_parents_first(self, ball, tets, ids):
        # Dict-built domains whose rows do not come parents first.  ``ids`` renames a domain id
        # to the codomain's id at its place, where the single-path oracle reads the vertices.
        domain, codomain = TetBall(1, tets), ball(3)
        named = TetBall(1, {a: tuple(ids.get(v, v) for v in verts) for a, verts in tets.items()})
        for e in (MappingClassElement.identity(), elem("1", codomain.tets["1"][::-1])):
            pm = propagate_map(e, domain, codomain)
            want = walk_images(e, named, codomain)
            assert pm.vertices == {v: want[ids.get(v, v)] for v in domain.vertices()}
            images = {a: image_of_ordered_tet(e, OrderedTet(a, v), codomain).address for a, v in named.tets.items()}
            assert pm.tets == images

    def test_refuses_an_unreduced_domain(self, ball):
        # Crossing face 0 twice returns to the root: no reduced word addresses "00".
        with pytest.raises(ValueError, match="unreduced address"):
            propagate_map(MappingClassElement.identity(), tampered(3, {"00": (0, 1, 2, 3)}), ball(4))

    def test_refuses_a_second_root(self, ball):
        # Both rows at depth 0 with parent -1: the second would read the images of row -1.
        verts = np.array([[0, 1, 2, 3], [4, 1, 2, 3]])
        domain = TetBall.from_rows(0, verts, np.array([-1, -1]), np.array([-1, -1]), np.array([0, 0]))
        with pytest.raises(ValueError, match="other than one depth-0 tetrahedron"):
            propagate_map(MappingClassElement.identity(), domain, ball(2))

    def test_list_rows_propagate_as_arrays(self, ball):
        rows = ([[0, 1, 2, 3]], [-1], [-1], [0])
        e = MappingClassElement.identity()
        pm = propagate_map(e, TetBall.from_rows(0, *rows), ball(2))
        want = propagate_map(e, TetBall.from_rows(0, *map(np.array, rows)), ball(2))
        assert (pm.vertices, pm.tets) == (want.vertices, want.tets)

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
                assert has_edge(codomain, images[u], images[w])
            # Non-adjacent pairs stay non-adjacent.
            for u in domain.vertices():
                for w in domain.vertices():
                    if u < w and not has_edge(domain, u, w):
                        assert not has_edge(codomain, images[u], images[w])
            for addr, c_addr in pm.tets.items():
                assert {images[v] for v in domain.tets[addr]} == set(
                    codomain.tets[c_addr]
                )

    def test_preserves_determined_vertices(self, ball, cgraph):
        pm = propagate_map(elem("1", ball(2).tets["1"]), ball(1), ball(3))
        dom, cod = cgraph(1), cgraph(3)
        images = pm.apply_curve(dom, cod)
        assert images[: dom.n_one].tolist() == [pm.apply(v) for v in ball(1).vertices()]
        for k, (u, w) in enumerate(ball(1).edges()):
            img = images[dom.n_one + k]
            assert img >= cod.n_one
            assert cod.ends[img - cod.n_one].tolist() == sorted((pm.apply(u), pm.apply(w)))

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


class TestBatchedPropagation:
    def test_matches_single_path_walker(self, ball):
        # Every element with a destination of length <= 2, against image_of_ordered_tet.
        domain, work = ball(2), ball(4)
        rows = [work.rows[a] for a in work.tets if len(a) <= 2]
        dst = np.repeat(rows, 24)
        slots = work.verts[rows][:, PERMUTATIONS].reshape(-1, 4)
        tets, images = _propagate(domain, work, dst, slots)
        assert tets.shape == (24 * 17, 17) and images.shape == (24 * 17, domain.n_vertices)
        for i, (d, s) in enumerate(zip(dst.tolist(), slots.tolist())):
            e = elem(work.addrs[d], s)
            for t, (addr, verts) in enumerate(domain.tets.items()):
                img = image_of_ordered_tet(e, OrderedTet(addr, verts), work)
                assert img.address == work.addrs[tets[i, t]]
                assert img.verts == tuple(images[i, list(verts)].tolist())

    def test_table(self, ball):
        b = ball(3)
        assert b.addrs == list(b.tets)
        rows = by_verts(b)
        for t, addr in enumerate(b.addrs):
            assert b.verts[t].tolist() == list(b.tets[addr])
            assert rows[tuple(sorted(b.tets[addr]))] == t
            for face in range(4):
                nxt = b.nbr[t, face]
                assert (nxt >= 0) == (neighbor(addr, face) in b.tets)
                if nxt >= 0:
                    assert b.addrs[nxt] == neighbor(addr, face)

    def test_batch_leaving_codomain_raises(self, ball):
        # Destinations at distance 2 with a radius-2 domain leave the radius-3 codomain.
        work = ball(3)
        rows = [work.rows[a] for a in ("", "0", "01")]
        with pytest.raises(CodomainTooSmallError):
            _propagate(ball(2), work, np.array(rows), work.verts[rows])
        _propagate(ball(2), work, np.array(rows[:2]), work.verts[rows[:2]])


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

    def test_errors(self, ball):
        work = ball(2)
        far = elem("012", ball(3).tets["012"])
        ident = MappingClassElement.identity()
        with pytest.raises(CodomainTooSmallError):
            image_of_ordered_tet(far, ROOT_TET, work)
        with pytest.raises(CodomainTooSmallError):
            compose(ident, far, work)
        with pytest.raises(CodomainTooSmallError):
            image_of_ordered_tet(ident, far.dst, work)
        with pytest.raises(CodomainTooSmallError):
            inverse(far, work)
        # Tetrahedron f differs from the root in slot f alone.
        for f in range(4):
            wrong = OrderedTet(str(f), (0, 1, 2, 3))
            with pytest.raises(ValueError, match="source vertices"):
                image_of_ordered_tet(ident, wrong, work)
            with pytest.raises(ValueError, match="destination vertices"):
                compose(ident, MappingClassElement(wrong), work)
            with pytest.raises(ValueError, match="destination vertices"):
                inverse(MappingClassElement(wrong), work)

    def test_path_leaving_the_ball_raises(self, ball):
        # Both tetrahedra are in the ball, but the image path is 4 steps long.
        work = ball(3)
        with pytest.raises(CodomainTooSmallError):
            image_of_ordered_tet(elem("01", work.tets["01"]), OrderedTet("23", work.tets["23"]), work)


# Tetrahedra that are not in the ball, whose vertices do not match, or with an id outside it.
BAD_TETS = [OrderedTet("1", (0, 1, 2, 3)), OrderedTet("0123", (0, 1, 2, 3)), OrderedTet("", (0, 1, 2, 10**6))]


class TestClosedForms:
    @pytest.mark.parametrize("radius", [2, 3, 5])
    def test_match_the_path_walks(self, ball, radius):
        # Images of length 3 leave the radius-2 ball; the larger balls hold them all.
        work = ball(radius)
        elements = [MappingClassElement(otet) for otet in [*ordered_tets(work, max_length=2), *BAD_TETS]]
        sources = [*ordered_tets(work, max_length=1), *BAD_TETS]
        left = 0
        for e in elements:
            assert outcome(inverse, e, work) == outcome(walk_inverse, e, work)
            for src in sources:
                got = outcome(image_of_ordered_tet, e, src, work)
                assert got == outcome(walk_image, e, src, work)
                left += got == (CodomainTooSmallError, "image")
        assert (left > 0) == (radius == 2)

    def test_identity(self, ball):
        # image = reduce(c + pi(w)) at slots pi o sigma; inverse = (pi^-1(reverse c), pi^-1).
        work = ball(6)
        sources = [OrderedTet(a, tuple(reversed(v))) for a, v in work.tets.items() if len(a) <= 3]
        for otet in ordered_tets(work, max_length=2):
            c = otet.address
            e, pi = MappingClassElement(otet), [work.tets[c].index(v) for v in otet.verts]
            for src in sources:
                addr = free_reduce(c + "".join(ALPHABET[pi[int(f)]] for f in src.address))
                sigma = [work.tets[src.address].index(v) for v in src.verts]
                want = OrderedTet(addr, tuple(work.tets[addr][pi[s]] for s in sigma))
                assert image_of_ordered_tet(e, src, work) == want
            inv = [pi.index(f) for f in range(4)]
            addr = "".join(ALPHABET[inv[int(f)]] for f in reversed(c))
            assert inverse(e, work) == elem(addr, [work.tets[addr][s] for s in inv])


def tampered(radius, changes):
    """A dict-built ball: the generated one with some addresses set, or removed when set to None."""
    tets = dict(generate_ball(radius).tets)
    for addr, verts in changes.items():
        if verts is None:
            del tets[addr]
        else:
            tets[addr] = verts
    return TetBall(radius, tets)


class TestGroupOpPreconditions:
    @pytest.mark.parametrize(
        "work",
        [
            tampered(3, {"012": (4, 8, 0, 3)}),  # vertex 0 at slot 0 in "", at slot 2 in the leaf "012"
            tampered(3, {"0": None}),  # "01", "02" and "03" lose their parent
            tampered(3, {"01": (4, 1, 2, 3)}),  # "01" changes no slot and "012" slot 1 as well as 2
            tampered(3, {"00": (0, 1, 2, 3)}),  # crossing face 0 twice returns to the root
        ],
        ids=["two_slots", "no_parent", "slot_off_face", "unreduced"],
    )
    def test_malformed_ball(self, work):
        ident = MappingClassElement.identity()
        e = elem("2", work.tets["2"])
        for call in (
            lambda: compose(e, ident, work),
            lambda: inverse(e, work),
            lambda: image_of_ordered_tet(ident, OrderedTet("1", work.tets["1"]), work),
        ):
            with pytest.raises(ValueError, match="ball holds"):
                call()

    def test_vertex_id_out_of_range(self, ball):
        work, ident = ball(3), MappingClassElement.identity()
        far = OrderedTet("", (0, 1, 2, 10**6))
        with pytest.raises(ValueError, match="source vertices"):
            image_of_ordered_tet(ident, far, work)
        with pytest.raises(ValueError, match="destination vertices"):
            compose(ident, MappingClassElement(far), work)
        with pytest.raises(ValueError, match="destination vertices"):
            inverse(MappingClassElement(far), work)
        with pytest.raises(ValueError, match="destination vertices"):
            propagate_map(MappingClassElement(far), ball(0), work)


class TestGroupLawProperty:
    @settings(max_examples=60, deadline=None)
    @given(elements, elements, elements)
    def test_group_laws(self, ball, a, b, c):
        # Destinations of length <= 4; every product fits the radius-8 ball.
        work = ball(8)
        assume(len(a[0]) + len(b[0]) + len(c[0]) <= work.radius)
        a, b, c = (drawn(work, x) for x in (a, b, c))
        ident = MappingClassElement.identity()
        assert compose(a, ident, work) == a == compose(ident, a, work)
        ai, bi, ab = inverse(a, work), inverse(b, work), compose(a, b, work)
        assert compose(a, ai, work).is_identity() and compose(ai, a, work).is_identity()
        assert inverse(ab, work) == compose(bi, ai, work)
        assert compose(ab, c, work) == compose(a, compose(b, c, work), work)
        assert image_of_ordered_tet(a, ROOT_TET, work) == a.dst
        assert len(inverse(a, work).dst.address) == len(a.dst.address)

    @settings(max_examples=60, deadline=None)
    @given(long_elements)
    def test_laws_of_one_long_element(self, ball, a):
        # Destinations of length up to 8; every tetrahedron these laws reach is no farther out than a's.
        work = ball(8)
        a = drawn(work, a)
        ai = inverse(a, work)
        assert inverse(ai, work) == a
        assert compose(a, ai, work).is_identity() and compose(ai, a, work).is_identity()
        assert image_of_ordered_tet(a, ROOT_TET, work) == a.dst
        assert len(ai.dst.address) == len(a.dst.address)


class TestStarUnion:
    def test_level_one_is_root_star(self, ball):
        ones, twos = star_union(1, ball(2))
        assert sorted(ones) == [0, 1, 2, 3]
        assert len(twos) == 6

    def test_level_two_counts(self, ball):
        ones, twos = star_union(2, ball(2))
        assert len(ones) == 2 * 3 + 2
        assert len(twos) == 6 * 3

    def test_closed_form_counts(self, ball):
        for n in (1, 2, 3, 4):
            ones, twos = star_union(n, ball(3))
            assert len(ones) == 2 * 3 ** (n - 1) + 2
            assert len(twos) == 6 * 3 ** (n - 1)

    def test_nesting(self, ball):
        b = ball(3)
        for n in (1, 2, 3):
            (a1, a2), (c1, c2) = star_union(n, b), star_union(n + 1, b)
            assert a1 <= c1
            assert a2 <= c2

    @pytest.mark.parametrize("level", range(1, 7))
    def test_is_the_subdivided_ball(self, ball, level):
        # The level-n domain of the rigidity checks is subdivide(generate_ball(n - 1)).
        domain = subdivide(generate_ball(level - 1))
        ones, twos = star_union(level, ball(5))
        assert set(domain.one_sided()) == ones
        assert set(map(tuple, domain.ends.tolist())) == twos

    def test_ball_too_small(self, ball):
        with pytest.raises(ValueError):
            star_union(3, ball(1))


class TestEnumeration:
    def test_count_into_root_subdivision(self, cgraph):
        maps = enumerate_locally_injective(cgraph(0), cgraph(0))
        assert len(maps) == 24

    def test_count_into_radius_one(self, cgraph):
        maps = enumerate_locally_injective(cgraph(0), cgraph(1))
        assert len(maps) == 24 * 5

    def test_maps_are_injective_and_one_sided_to_one_sided(self, cgraph):
        dom, cg = cgraph(0), cgraph(1)
        maps = enumerate_locally_injective(dom, cg)
        assert maps.shape == (24 * 5, len(dom.vertices))
        for m in maps.tolist():
            assert len(set(m)) == len(m)
            for i, img in enumerate(m):
                assert (i < dom.n_one) == (0 <= img < cg.n_one)

    def test_element_of_map_needs_a_tetrahedron(self, cgraph):
        dom, cg = cgraph(0), cgraph(1)
        m = enumerate_locally_injective(dom, cg)[0].copy()
        m[3] = m[2]
        with pytest.raises(ValueError, match="unique tetrahedron"):
            element_of_map(m, cg)
        m[3] = cg.n_one  # a two-sided id
        with pytest.raises(ValueError, match="unique tetrahedron"):
            element_of_map(m, cg)

    def test_each_map_is_a_unique_propagated_element(self, ball, cgraph):
        dom, cg = cgraph(0), cgraph(1)
        seen = set()
        for m in enumerate_locally_injective(dom, cg):
            e = element_of_map(m, cg)
            assert e not in seen
            seen.add(e)
            pm = propagate_map(e, ball(0), ball(1))
            assert pm.apply_curve(dom, cg).tolist() == m.tolist()

    def test_lexicographic_order(self, cgraph):
        maps = enumerate_locally_injective(cgraph(0), cgraph(0))
        keys = [tuple(m[:4]) for m in maps.tolist()]
        assert keys == sorted(keys)

    def test_corrupted_map_rejected(self, cgraph):
        dom, cg = cgraph(0), cgraph(1)
        m = enumerate_locally_injective(dom, cg)[:1].copy()
        a, b = dom.pair_ids([0, 0], [1, 2])
        m[:, [a, b]] = m[:, [b, a]]
        simplicial, loc_inj = check_map(dom, m, cg)
        assert not (simplicial[0] and loc_inj[0])

    def test_check_map_matches_loop(self, cgraph):
        # Perturbed maps (columns swapped, an entry moved or out of range)
        # against a plain loop over each map.
        cg = cgraph(2)
        dom, maps = level_two_maps(cg)
        adj = {i: set(cg.neighbors(i).tolist()) for i in cg.vertices}
        assert all(check_map(dom, maps, cg)[0]) and all(check_map(dom, maps, cg)[1])
        rng = np.random.default_rng(4)
        for m in maps[:40]:
            for _ in range(5):
                bent = m.copy()
                i, j = rng.choice(len(m), 2, replace=False)
                kind = rng.integers(3)
                if kind == 0:
                    bent[[i, j]] = bent[[j, i]]
                else:
                    bent[i] = rng.integers(-1, len(cg.vertices) + 1) if kind == 1 else bent[j]
                simplicial, loc_inj = check_map(dom, bent[None], cg)
                assert (simplicial[0], loc_inj[0]) == loop_check_map(dom, bent.tolist(), adj)

    def test_requires_level_one(self, cgraph):
        with pytest.raises(ValueError):
            enumerate_locally_injective(cgraph(1), cgraph(1))


def loop_check_map(domain, mapping, adj):
    """(simplicial, locally injective) of one map, one domain vertex at a time."""
    if any(img not in adj for img in mapping):
        return False, False
    simplicial = injective = True
    for i in domain.vertices:
        nbrs = [mapping[j] for j in domain.neighbors(i).tolist()]
        simplicial &= all(img in adj[mapping[i]] for img in nbrs)
        injective &= len(set(nbrs)) == len(nbrs) and mapping[i] not in nbrs
    return simplicial, injective


def level_two_maps(cg):
    """The level-2 domain, and its maps into cg that propagate inside the window."""
    domain = subdivide(generate_ball(1))
    maps = []
    for m in enumerate_locally_injective(subdivide(generate_ball(0)), cg):
        e = element_of_map(m, cg)
        if len(e.dst.address) < cg.source.radius:
            maps.append(propagate_map(e, domain.source, cg.source).apply_curve(domain, cg))
    return domain, np.array(maps)


def enumerate_loop(domain, cg):
    """Reference for ``enumerate_locally_injective``: near-set loops over the curve graph.

    Candidate images have curve degree at least 3 and share a two-sided
    neighbour pairwise; each candidate is then validated by ``check_map``.
    """
    n = cg.n_one
    heavy = np.flatnonzero(cg.degrees()[:n] >= 3).tolist()
    near = {}  # v -> one-sided ids sharing a two-sided neighbour with v
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


def level_two_loop(base_maps, cg):
    """Reference for ``_check_level_two``: one base map at a time over ``adjacency`` sets."""
    ball = cg.source
    domain = subdivide(generate_ball(1))
    tets = domain.source.tets
    adj = adjacency_sets(ball)
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


def ball_with_extra_edge(radius):
    """A fresh ball where face (1, 2, 3) gains a third coface vertex.

    The vertex created at address "30" is joined to 1 and 2; one extra edge
    joins it to 3 as well.
    """
    b = generate_ball(radius)
    return with_edges(b, add=[(b.tets["30"][0], 3)])


class TestCommonNeighbourQueries:
    STAR = subdivide(generate_ball(0))

    @pytest.mark.parametrize("radius", range(1, 6))
    def test_enumeration_matches_the_loop(self, cgraph, radius):
        cg = cgraph(radius)
        maps = enumerate_locally_injective(self.STAR, cg)
        assert len(maps) == 24 * len(cg.source.tets)
        assert np.array_equal(maps, enumerate_loop(self.STAR, cg))

    @pytest.mark.parametrize("radius", range(1, 6))
    def test_level_two_matches_the_loop(self, cgraph, radius):
        cg = cgraph(radius)
        base = enumerate_locally_injective(self.STAR, cg)
        report = _check_level_two(base, cg)
        assert report == level_two_loop(base, cg)
        assert report["count_found"] == report["count_expected"] < len(base)  # boundary maps drop out
        assert report["witnesses_of_failure"] == []

    def test_extra_edge_matches_the_loops(self):
        cg = subdivide(ball_with_extra_edge(3))
        base = enumerate_locally_injective(self.STAR, cg)
        assert np.array_equal(base, enumerate_loop(self.STAR, cg))
        assert len(base) > 24 * len(cg.source.tets)  # the new 4-clique adds 24 maps
        report = _check_level_two(base, cg)
        assert report == level_two_loop(base, cg)
        errors = [w["error"] for w in report["witnesses_of_failure"]]
        assert "face 0 not forced" in errors
        assert {"base": (0, 1, 2, 3), "error": "face 0 not forced"} in report["witnesses_of_failure"]

    def test_bases_without_second_coface_match_the_loop(self, cgraph):
        # Random rows mostly span no tetrahedron, so some face has no second
        # coface; the rest reach the other witnesses.  Real maps with their
        # root images reordered, and repeated, complete or stop at the window.
        cg = cgraph(3)
        base = enumerate_locally_injective(self.STAR, cg)
        rng = np.random.default_rng(7)
        rows = rng.integers(0, cg.n_one, size=(300, base.shape[1]))
        shuffled = base[rng.choice(len(base), 300)]
        shuffled[:, :4] = shuffled[:, rng.permutation(4)]
        mixed = np.concatenate([rows, shuffled, base[:50]])
        report = _check_level_two(mixed, cg)
        assert report == level_two_loop(mixed, cg)
        assert report["count_found"] < len(mixed)
        errors = {w["error"] for w in report["witnesses_of_failure"]}
        assert {"completed map invalid", "duplicate element", "face 0 not forced"} <= errors

    def test_empty_base(self, cgraph):
        cg = cgraph(2)
        base = enumerate_locally_injective(self.STAR, cg)[:0]
        assert _check_level_two(base, cg) == level_two_loop(base, cg)


class TestBatchedMatching:
    @pytest.fixture(scope="class")
    def batches(self, cgraph):
        cg = cgraph(3)
        star = subdivide(generate_ball(0))
        level_one = enumerate_locally_injective(star, cg)
        domain, level_two = level_two_maps(cg)
        return cg, {"level 1": (star, level_one), "level 2": (domain, level_two)}

    @pytest.mark.parametrize("level", ["level 1", "level 2"])
    def test_clean_maps_match_the_loop(self, batches, level):
        cg, by_level = batches
        domain, maps = by_level[level]
        assert _match_propagated(maps, domain, cg) == match_loop(maps, domain, cg) == []

    @pytest.mark.parametrize("level", ["level 1", "level 2"])
    def test_corrupted_batch_matches_the_loop(self, batches, level):
        cg, by_level = batches
        domain, maps = by_level[level]
        bad = maps[:30].copy()
        bad[4] = bad[1]  # duplicated row
        a, b = domain.pair_ids([0, 0], [1, 2])
        bad[7, [a, b]] = bad[7, [b, a]]  # swapped two-sided image
        bad[9, 3] = bad[9, 2]  # root images spanning no tetrahedron
        bad[12, 0] = -1
        bad[15] = bad[9]  # a duplicate of a row with no tetrahedron
        witnesses = _match_propagated(bad, domain, cg)
        assert witnesses == match_loop(bad, domain, cg)
        assert [w["error"] for w in witnesses] == [
            "duplicate element",
            "propagation mismatch",
            "no unique tetrahedron",
            "no unique tetrahedron",
            "no unique tetrahedron",
        ]
        assert witnesses[0]["element"].startswith("OrderedTet(address=")
        assert witnesses[2]["images"] == bad[9, :4].tolist()

    def test_empty_batch(self, batches):
        cg, by_level = batches
        domain, maps = by_level["level 2"]
        assert _match_propagated(maps[:0], domain, cg) == []


class TestStabilizers:
    @pytest.mark.parametrize("ids", [[0], [0, 1], range(4), range(8)])
    def test_first_fixer_matches_the_loop(self, ball, ids):
        work = ball(3)
        fixer = _first_fixer(ids, work)
        assert fixer == first_fixer_loop(list(ids), work)
        assert pointwise_stabilizer_check(ids, work) == (fixer is None)

    def test_fixer_witness(self, ball):
        work = ball(3)
        report = _stabilizer_report(1, [0], work)
        fixer = first_fixer_loop([0], work)
        assert fixer is not None
        assert report["count_found"] == 1
        assert report["witnesses_of_failure"] == [{"element": str(fixer), "error": "nontrivial fixer"}]
        assert _stabilizer_report(1, range(4), work)["witnesses_of_failure"] == []

    def test_root_star_trivial(self, ball):
        assert pointwise_stabilizer_check(ball(0).vertices(), ball(3))

    def test_level_two_trivial(self, ball):
        assert pointwise_stabilizer_check(ball(1).vertices(), ball(3))

    def test_single_vertex_not_rigid(self, ball):
        assert not pointwise_stabilizer_check([0], ball(3))

    def test_work_too_small(self, ball):
        with pytest.raises(ValueError):
            pointwise_stabilizer_check(ball(1).vertices(), ball(1))

    @pytest.mark.parametrize("ids", [[-1], [0, 56]])
    def test_unknown_vertex(self, ball, ids):
        with pytest.raises(ValueError, match=f"vertex id {ids[-1]} is not in 0..55"):
            pointwise_stabilizer_check(ids, ball(3))


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

    @pytest.mark.parametrize("radius", range(3, 7))
    def test_induction_step_matches_the_coface_loop(self, ball, radius):
        for level in range(1, radius + 1):
            assert induction_step_report(level, ball(radius)) == forcing_loop(level, ball(radius))

    def test_induction_step_third_coface(self, ball):
        # "0121" holds the face (4, 2, 3) that "01" shares with "0".
        work = tampered(3, {"0121": (4, 99, 2, 3)})
        for level in range(1, 4):
            assert induction_step_report(level, work) == forcing_loop(level, work)
        report = induction_step_report(2, work)
        assert report["witnesses_of_failure"] == [{"tet": "01", "cofaces": ["0", "01", "0121"]}]
        assert report["count_found"] == report["count_expected"] - 1

    def test_induction_level_out_of_range(self, ball):
        with pytest.raises(ValueError):
            induction_step_report(4, ball(3))


class TestVertexSetLookup:
    def test_matches_the_dict(self, ball):
        # Every row, its vertices in reverse and in shuffled order, then random sets that mostly miss.
        b = ball(4)
        rng = np.random.default_rng(2)
        shuffled = np.array([rng.permutation(v) for v in b.verts])
        misses = rng.integers(-2, b.n_vertices + 2, size=(500, 4))
        quads = np.concatenate([b.verts[:, ::-1], shuffled, misses, b.verts[:5, [0, 1, 2, 2]]])
        ref = by_verts(b)
        assert b.rows_of(quads).tolist() == [ref.get(tuple(sorted(q)), -1) for q in quads.tolist()]
        assert b.rows_of(quads[:0]).tolist() == []

    @pytest.mark.parametrize("radius", range(9))
    def test_every_generated_table(self, ball, radius):
        # Each row in shuffled slot order, random sets that mostly miss, repeated and negative ids.
        b = ball(radius)
        n, rng = b.n_vertices, np.random.default_rng(radius)
        shuffled = np.take_along_axis(b.verts, rng.random(b.verts.shape).argsort(axis=1), axis=1)
        misses = rng.integers(-2, n + 2, size=(2000, 4))
        near = b.verts[rng.integers(len(b.verts), size=500)]
        near[np.arange(500), rng.integers(4, size=500)] = rng.integers(-3, n + 3, size=500)
        quads = np.concatenate([shuffled, misses, near, -b.verts[:3], b.verts[:3, [0, 1, 2, 2]]])
        ref = by_verts(b)
        assert b.rows_of(quads).tolist() == [ref.get(tuple(sorted(q)), -1) for q in quads.tolist()]
        assert (b.rows_of(shuffled) == np.arange(len(b.verts))).all()

    def test_other_tables_give_no_wrong_row(self, ball):
        # Rows out of generation order, or repeating a vertex set: a row may be missed, never misnamed.
        verts = ball(3).verts[np.random.default_rng(3).permutation(53)]
        shared = np.array([[3, 2, 1, 0], [5, 6, 7, 8], [0, 1, 2, 3], [0, 1, 2, 4]])
        for v in (verts, shared):
            b = TetBall.from_rows(0, v, np.full(len(v), -1), np.full(len(v), -1), np.zeros(len(v), dtype=np.int64))
            quads = np.concatenate([v, v[:, ::-1]])
            found = b.rows_of(quads)
            hit = found >= 0
            assert (np.sort(v[found[hit]], axis=1) == np.sort(quads[hit], axis=1)).all()
            assert hit.any()

    def test_ids_near_two_to_the_42(self, ball):
        # No array sized by the largest id: numpy reports its allocations to tracemalloc.
        b = ball(4)
        big = [[1 << 40, 1 << 41, 7, 1 << 42], [0, 1, 2, (1 << 42) + 3], [1 << 42, -(1 << 42), 1, 2]]
        b.born  # built before the trace
        tracemalloc.start()
        try:
            found = b.rows_of(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.tolist() == [-1, -1, -1]
        assert peak < 1 << 20


def perturbed(maps, n_ids, seed):
    """A copy of ``maps`` where every third row has two entries swapped, an entry moved or one out of range."""
    rng = np.random.default_rng(seed)
    bent = maps.copy()
    for m in bent[::3]:
        i, j = rng.choice(m.shape[0], 2, replace=False)
        kind = rng.integers(3)
        if kind == 0:
            m[[i, j]] = m[[j, i]]
        else:
            m[i] = rng.integers(-1, n_ids + 1) if kind == 1 else m[j]
    return bent


def corrupted(maps, domain):
    """The first 90 rows of ``maps`` with a duplicate, a swapped two-sided image and root images
    spanning no tetrahedron, repeated every 30 rows so that blocks of 1, 7 and 64 rows split them."""
    bad = maps[:90].copy()
    a, b = domain.pair_ids([0, 0], [1, 2])
    for k in range(0, 90, 30):
        bad[k + 4] = bad[k + 1]
        bad[k + 7, [a, b]] = bad[k + 7, [b, a]]
        bad[k + 9, 3] = bad[k + 9, 2]
        bad[k + 12, 0] = -1
    return bad


class TestBlockSize:
    """The per-map passes give the same output at every block size.  Every blocked pass reads
    ``tet_tree.BLOCK_ELEMS`` at call time, so that one binding is patched, and it splits
    ``common_neighbors`` as well as the per-map passes."""

    @pytest.fixture(scope="class")
    def inputs(self, cgraph, ball):
        cg = cgraph(3)
        star = subdivide(generate_ball(0))
        base = enumerate_locally_injective(star, cg)
        domain, level_two = level_two_maps(cg)
        rng = np.random.default_rng(7)
        shuffled = base[rng.choice(len(base), 200)]
        shuffled[:, :4] = shuffled[:, rng.permutation(4)]
        mixed = np.concatenate([rng.integers(0, cg.n_one, size=(200, base.shape[1])), base[:300], shuffled])
        return {
            "cg": cg,
            "star": star,
            "domain": domain,
            "work": ball(3),
            "level_one": perturbed(base[:300], len(cg.vertices), 1),
            "level_two": perturbed(level_two, len(cg.vertices), 2),
            "bad_one": corrupted(base, star),
            "bad_two": corrupted(level_two, domain),
            "mixed": mixed,
        }

    FIXED = ([0], [0, 1], range(4), range(8))  # the first two have fixers

    @classmethod
    def outputs(cls, x):
        cg, star, domain = x["cg"], x["star"], x["domain"]
        one, two = x["level_one"], x["level_two"]
        return {
            "check_map": [check_map(star, one, cg), check_map(domain, two, cg)],
            "with_pairs": [_with_pairs(one[:, :4], star, cg), _with_pairs(two[:, :8], domain, cg)],
            "match": [_match_propagated(x["bad_one"], star, cg), _match_propagated(x["bad_two"], domain, cg)],
            "level_two": _check_level_two(x["mixed"], cg),
            "first_fixer": [_first_fixer(ids, x["work"]) for ids in cls.FIXED],
            "reports": [rigidity_reports(level) for level in range(1, 4)],
        }

    @pytest.fixture(scope="class")
    def want(self, inputs):
        return self.outputs(inputs)

    def test_default_outputs_match_the_loops(self, inputs, want):
        cg, star, domain = inputs["cg"], inputs["star"], inputs["domain"]
        adj = {i: set(cg.neighbors(i).tolist()) for i in cg.vertices}
        maps = (inputs["level_one"], inputs["level_two"])
        for dom, bent, (simplicial, loc_inj) in zip((star, domain), maps, want["check_map"]):
            loop = [loop_check_map(dom, m, adj) for m in bent.tolist()]
            assert list(zip(simplicial.tolist(), loc_inj.tolist())) == loop
            assert not simplicial.all() and simplicial.any()
        assert want["match"] == [match_loop(inputs["bad_one"], star, cg), match_loop(inputs["bad_two"], domain, cg)]
        kinds = {"duplicate element", "propagation mismatch", "no unique tetrahedron"}
        assert all({w["error"] for w in witnesses} == kinds for witnesses in want["match"])
        assert want["level_two"] == level_two_loop(inputs["mixed"], cg)
        assert want["first_fixer"] == [first_fixer_loop(list(ids), inputs["work"]) for ids in self.FIXED]

    @pytest.mark.parametrize("block", [1, 7, 64, pytest.param(BLOCK_ELEMS, id="default")])
    def test_block_size_does_not_change_any_result(self, monkeypatch, inputs, want, block):
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", block)
        got = self.outputs(inputs)
        for key in ("check_map", "with_pairs"):
            assert all(np.array_equal(g, w) for g, w in zip(got[key], want[key])), key
        for key in ("match", "level_two", "first_fixer", "reports"):
            assert got[key] == want[key], key

    def test_level_five_matches_one_block(self, monkeypatch, reports):
        # At the default, level 5 splits every per-map pass; one block per pass is the unsplit run.
        want = list(reports(5).values())
        monkeypatch.setattr(tet_tree, "BLOCK_ELEMS", 1 << 40)
        assert rigidity_reports(5) == want


class TestMemory:
    def test_level_five_traced_peak(self):
        # numpy reports its allocations to tracemalloc, so the peak is the same on every run:
        # 18.7 MiB when every per-map pass held all maps at once, 6.6 MiB in row blocks.
        rigidity_reports(5)
        tracemalloc.start()
        try:
            rigidity_reports(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20


class TestBudget:
    def test_level_over_the_budget_is_refused_before_any_ball(self, monkeypatch):
        # Level 2 holds 24 * 17 maps of 10 ids (32,640 bytes), level 3 24 * 53 (101,760 bytes).
        built = []

        def generate(radius):
            built.append(radius)
            return generate_ball(radius)

        monkeypatch.setattr(tet_tree, "MAX_TABLE_BYTES", 1 << 16)
        monkeypatch.setattr(rigidity, "generate_ball", generate)
        assert len(rigidity_reports(2)) == 5
        built.clear()
        with pytest.raises(BudgetError, match="^rigidity level 3 with 1272 maps of the root star needs 0 MiB"):
            rigidity_reports(3)
        assert built == [0]  # the star alone
