"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Exact combinatorial counts and property checks on finite windows; bounds and
radii are fixed here, not tuned.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import random

from crosscap3.cli import main
from crosscap3.curve_graph import structural_report as curve_structural
from crosscap3.metric import (
    check_bottleneck_property,
    check_distance_stability,
    check_subdivision_isometry,
    thinness_report,
)
from crosscap3.rigidity import (
    ROOT_TET,
    MappingClassElement,
    OrderedTet,
    compose,
    image_of_ordered_tet,
    inverse,
    rigidity_reports,
)
from crosscap3.tet_tree import (
    ALPHABET,
    link_labeling_report,
    structural_report as tet_structural,
)
from oracles import ordered_tets


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def enumerate_reduced_words(max_len: int) -> set:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + c for w in frontier for c in ALPHABET if not w or w[-1] != c]
        words.extend(frontier)
    return set(words)


def test_criterion_1_counting(ball, cgraph):
    ok = True
    detail = []
    for n in range(9):
        b, cg = ball(n), cgraph(n)
        # Oracle: the address set is exactly the reduced words, and vertices
        # and edges are recounted from the raw tetrahedron tuples.
        words = enumerate_reduced_words(n)
        verts = {v for t in b.tets.values() for v in t}
        edges = {
            frozenset((t[i], t[j]))
            for t in b.tets.values()
            for i in range(4)
            for j in range(i + 1, 4)
        }
        n_ok = (
            set(b.tets) == words
            and len(b.tets) == 2 * 3**n - 1
            and len(verts) == b.n_vertices == 2 * 3**n + 2
            and len(edges) == b.n_edges() == 6 * 3**n
            and len(cg.two_sided()) == 6 * 3**n
            and cg.n_edges() == 12 * 3**n
        )
        ok = ok and n_ok
        if not n_ok:
            detail.append(f"n={n}")
    report(1, "counting", ok, "; ".join(detail) or "n=0..8 exact")


def test_criterion_2_structural(ball, cgraph):
    checks = tet_structural(ball(4)) + curve_structural(cgraph(4))
    bad = [c["name"] for c in checks if not c["ok"]]
    report(2, "structural", not bad, ", ".join(bad) or f"{len(checks)} checks at n=4")


def test_criterion_3_farey_links(ball):
    (rep,) = link_labeling_report(ball(5))
    report(
        3,
        "farey_links",
        rep["ok"],
        f"{rep['vertices_checked']} links labeled, Mobius cross-validated"
        if rep["ok"]
        else str(rep["failures"][:3]),
    )


def test_criterion_4_metric(dtable, ctable):
    problems = []
    for n in range(6):
        if not check_subdivision_isometry(dtable(n), ctable(n)).ok:
            problems.append(f"isometry n={n}")
    for n in range(5):
        if not check_distance_stability(dtable(n), dtable(n + 1))["ok"]:
            problems.append(f"stability d n={n}")
        if not check_distance_stability(ctable(n), ctable(n + 1))["ok"]:
            problems.append(f"stability c n={n}")
    bot = check_bottleneck_property(dtable(5))
    if not bot.ok:
        problems.append(f"bottleneck: {bot.failures[:2]}")
    report(
        4,
        "metric",
        not problems,
        "; ".join(problems) or f"isometry n<=5, bottleneck pairs={bot.pairs_checked}",
    )


def test_criterion_5_hyperbolicity(dtable, ctable):
    problems = []
    details = []
    for name, table, bound in (
        ("tet_graph n=3", dtable(3), 1.5),
        ("curve_graph n=3", ctable(3), 3.0),
        ("tet_graph n=5", dtable(5), 1.5),
        ("curve_graph n=5", ctable(5), 3.0),
    ):
        rep = thinness_report(table, sample_cap=1_000_000, seed=0)
        if rep.bound != bound:
            problems.append(f"{name} checked against {rep.bound}, not {bound}")
        mode = "exhaustive" if rep.exhaustive else f"sampled {rep.triples_examined}"
        details.append(f"{name} max={rep.max_value} ({mode})")
        if "n=3" in name and not rep.exhaustive:
            problems.append(f"{name} was not exhaustive")
        if "n=5" in name and rep.triples_examined < 1_000_000:
            problems.append(f"{name} sampled too few triples")
        if not rep.ok:
            problems.append(f"{name} max={rep.max_value} witness={rep.witness}")
    report(5, "hyperbolicity", not problems, "; ".join(problems or details))


def test_criterion_6_rigidity():
    problems = []
    reports = {r["check"]: r for r in rigidity_reports(2)}
    lvl1 = reports["rigidity_level_1"]
    if lvl1["count_found"] != 24 * 17 or lvl1["witnesses_of_failure"]:
        problems.append(f"level1 {lvl1['count_found']}!=408")
    lvl2 = reports["rigidity_level_2"]
    if lvl2["count_found"] != 24 * 5 or lvl2["witnesses_of_failure"]:
        problems.append(f"level2 {lvl2['count_found']}!=120")
    for k in (1, 2):
        stab = reports[f"pointwise_stabilizer_level_{k}"]
        if stab["radius"] != 3 or stab["count_found"] or stab["witnesses_of_failure"]:
            problems.append(f"stabilizer of level-{k} star not trivial")
    forcing = reports["induction_forcing_level_2"]
    if forcing["count_found"] != 12 or forcing["witnesses_of_failure"]:
        problems.append(f"forcing {forcing['count_found']}!=12")
    report(
        6,
        "rigidity",
        not problems,
        "; ".join(problems) or "enumeration 408+120, stabilizers trivial, forcing 12/12",
    )


def random_element(rng: random.Random, work, max_len: int = 2) -> MappingClassElement:
    length = rng.randrange(max_len + 1)
    addr = ""
    for _ in range(length):
        addr += rng.choice([c for c in ALPHABET if not addr or addr[-1] != c])
    verts = tuple(rng.sample(work.tets[addr], 4))
    return MappingClassElement(OrderedTet(addr, verts))


def test_criterion_7_group_torsor(ball):
    problems = []
    work3 = ball(3)
    seen = set()
    for otet in ordered_tets(work3, max_length=2):
        e = MappingClassElement(otet)
        if image_of_ordered_tet(e, ROOT_TET, work3) != otet or otet in seen:
            problems.append(f"bijection fails at {otet}")
            break
        seen.add(otet)
    if len(seen) != 24 * 17:
        problems.append(f"margin elements {len(seen)} != 408")

    work = ball(6)
    ident = MappingClassElement.identity()
    rng = random.Random(0)
    for trial in range(500):
        a = random_element(rng, work)
        b = random_element(rng, work)
        ab = compose(a, b, work)
        a_inv = inverse(a, work)
        checks = (
            compose(a, ident, work) == a,
            compose(ident, a, work) == a,
            compose(a, a_inv, work).is_identity(),
            compose(a_inv, a, work).is_identity(),
            inverse(ab, work) == compose(inverse(b, work), a_inv, work),
        )
        if not all(checks):
            problems.append(f"law failed on trial {trial}: {a.dst} {b.dst}")
            break
    # Associativity on fixed-seed triples.
    rng = random.Random(1)
    for trial in range(500):
        a, b, c = (random_element(rng, work) for _ in range(3))
        if compose(compose(a, b, work), c, work) != compose(a, compose(b, c, work), work):
            problems.append(f"associativity failed on trial {trial}")
            break
    report(7, "group_torsor", not problems, "; ".join(problems) or "408 bijective, 500 pairs+triples")


def test_criterion_8_determinism(tmp_path):
    first = tmp_path / "verify1.json"
    second = tmp_path / "verify2.json"
    code1 = main(["verify", "--radius", "4", "--out", str(first)])
    code2 = main(["verify", "--radius", "4", "--out", str(second)])
    same = first.read_bytes() == second.read_bytes()
    report(
        8,
        "determinism",
        code1 == 0 and code2 == 0 and same,
        "byte-identical verify artifacts" if same else "artifacts differ",
    )
