"""Command-line entry point: generation, export, and verification suites.

All output is deterministic for a given invocation: fixed iteration orders,
fixed sampling seeds, no timestamps.  The exit code is nonzero exactly when
some asserted invariant or bound fails (or the invocation itself is
invalid).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import curve_graph, farey, metric, rigidity, tet_tree


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _csv(rows: list[dict]) -> str:
    header = ["name", "radius", "examined", "worst", "witness", "bound", "ok"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[k]).replace(",", ";") for k in header))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands

def cmd_generate(args) -> int:
    ball = tet_tree.generate_ball(args.radius)
    cg = curve_graph.subdivide(ball)
    if args.format == "dot":
        _write(args.out, curve_graph.curve_graph_to_dot(cg))
    else:
        _write(
            args.out,
            _dump_json(
                {
                    "ball": tet_tree.ball_to_json(ball),
                    "curve_graph": curve_graph.curve_graph_to_json(cg),
                }
            ),
        )
    return 0


def cmd_stats(args) -> int:
    n = args.radius
    ball = tet_tree.generate_ball(n)
    cg = curve_graph.subdivide(ball)
    rows = [
        ("tets", len(ball.tets), 2 * 3**n - 1),
        ("one_sided", ball.n_vertices, 2 * 3**n + 2),
        ("d_edges", ball.n_edges(), 6 * 3**n),
        ("two_sided", len(cg.two_sided()), 6 * 3**n),
        ("curve_edges", cg.n_edges(), 12 * 3**n),
    ]
    ok = True
    lines = []
    for name, found, expected in rows:
        status = "ok" if found == expected else f"MISMATCH expected {expected}"
        ok = ok and found == expected
        lines.append(f"{name} {found} {status}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if ok else 1


def run_verify(radius: int) -> dict:
    ball = tet_tree.generate_ball(radius)
    cg = curve_graph.subdivide(ball)
    checks = (
        tet_tree.structural_report(ball)
        + tet_tree.link_labeling_report(ball)
        + curve_graph.structural_report(cg)
    )
    return {
        "command": "verify",
        "radius": radius,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def cmd_verify(args) -> int:
    report = run_verify(args.radius)
    _write(args.out, _dump_json(report))
    return 0 if report["ok"] else 1


def cmd_hyperbolicity(args) -> int:
    if args.sample_cap <= 0:
        raise ValueError("--sample-cap must be positive")
    ball = tet_tree.generate_ball(args.radius)
    cg = curve_graph.subdivide(ball)
    dd = metric.all_pairs_distances(ball)
    dc = metric.all_pairs_distances(cg)
    rows = []

    for name, table, bound in (
        ("thinness_tet_graph", dd, 1.5),
        ("thinness_curve_graph", dc, 3.0),
    ):
        rep = metric.thinness_report(
            table, bound, sample_cap=args.sample_cap, seed=args.seed
        )
        rows.append(
            {
                "name": name + ("" if rep.exhaustive else "_sampled"),
                "radius": args.radius,
                "examined": rep.triples_examined,
                "worst": rep.max_value,
                "witness": " ".join(str(v) for v in rep.witness),
                "bound": rep.bound,
                "ok": rep.ok,
            }
        )

    sub = metric.check_subdivision_isometry(dd, dc)
    rows.append(
        {
            "name": "subdivision_isometry",
            "radius": args.radius,
            "examined": sub.pairs_checked,
            "worst": len(sub.violations),
            "witness": str(sub.violations[:1]),
            "bound": 0,
            "ok": sub.ok,
        }
    )

    if args.radius >= 2:
        bot = metric.check_bottleneck_property(ball, dd)
        rows.append(
            {
                "name": "bottleneck_property",
                "radius": args.radius,
                "examined": bot.pairs_checked,
                "worst": bot.worst_margin,
                "witness": str(bot.failures[:1]),
                "bound": 1.5,
                "ok": bot.ok,
            }
        )

    tree = metric.tree_comparison(ball, dd)
    # No pair has positive tree distance at radius 0, so the ratio range is empty.
    ratio = "none none" if tree.ratio_min is None else f"{tree.ratio_min:.3f} {tree.ratio_max:.3f}"
    rows.append(
        {
            "name": "tree_comparison",
            "radius": args.radius,
            "examined": tree.pairs,
            "worst": tree.diff_max,
            "witness": f"diff [{tree.diff_min} {tree.diff_max}] ratio [{ratio}]",
            "bound": 1,
            "ok": tree.diff_max <= 1,
        }
    )

    text = _csv(rows) if args.format == "csv" else _dump_json(rows)
    _write(args.out, text)
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_rigidity(args) -> int:
    reports = rigidity.rigidity_reports(args.level)
    ok = all(
        r["count_found"] == r["count_expected"] and not r["witnesses_of_failure"]
        for r in reports
    )
    _write(args.out, _dump_json(reports))
    return 0 if ok else 1


def cmd_farey(args) -> int:
    if args.query == "ball":
        patch = farey.farey_ball(None, int(args.args[0]))
        _write(args.out, _dump_json(patch.to_json()))
        return 0
    slopes = [farey.Slope.from_string(s) for s in args.args]
    if args.query == "adjacent":
        result = "true" if farey.farey_adjacent(*slopes) else "false"
    elif args.query == "mediant":
        result = str(farey.mediant(*slopes))
    elif args.query == "neighbors":
        result = " ".join(str(s) for s in sorted(farey.common_neighbors(*slopes)))
    else:  # unfold
        tri = farey.triangle(*slopes[:3])
        edge = frozenset(slopes[3:])
        result = " ".join(str(s) for s in sorted(farey.triangle_unfold(tri, edge)))
    _write(args.out, result + "\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscap3",
        description="Generate and verify finite windows of the curve complex "
        "of the three-holed projective plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, radius=None, formats=()):
        p = sub.add_parser(name, help=help)
        if radius is not None:
            p.add_argument("--radius", type=int, default=radius)
        if formats:
            p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    command("generate", cmd_generate, "export a ball and its curve graph", radius=3, formats=("json", "dot"))
    command("verify", cmd_verify, "run the structural invariant suite", radius=4)

    p = command(
        "hyperbolicity",
        cmd_hyperbolicity,
        "thinness, bottleneck, and isometry reports",
        radius=3,
        formats=("json", "csv"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-cap", type=int, dest="sample_cap", default=metric.DEFAULT_SAMPLE_CAP)

    p = command("rigidity", cmd_rigidity, "map enumeration, stabilizer, and forcing checks")
    p.add_argument("--level", type=int, default=2)

    command("stats", cmd_stats, "counts versus closed forms", radius=3)

    p = command("farey", cmd_farey, "slope queries: adjacent, mediant, neighbors, unfold, ball")
    p.add_argument("query", choices=("adjacent", "mediant", "neighbors", "unfold", "ball"))
    p.add_argument("args", nargs="+")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
