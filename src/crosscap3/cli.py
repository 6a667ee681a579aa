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

from . import curve_graph, metric, rigidity, tet_tree


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def _csv(rows: list[dict]) -> str:
    header = metric.HYPERBOLICITY_FIELDS
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


# The names ``stats`` prints for the count checks, in their order.
STATS_NAMES = ("tets", "one_sided", "d_edges", "two_sided", "curve_edges")


def cmd_stats(args) -> int:
    ball = tet_tree.generate_ball(args.radius)
    checks = tet_tree.count_checks(ball) + curve_graph.count_checks(curve_graph.subdivide(ball))
    lines = [
        f"{name} {c['found']} " + ("ok" if c["ok"] else f"MISMATCH expected {c['expected']}")
        for name, c in zip(STATS_NAMES, checks)
    ]
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if all(c["ok"] for c in checks) else 1


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
    rows = metric.hyperbolicity_reports(args.radius, sample_cap=args.sample_cap, seed=args.seed)
    _write(args.out, _csv(rows) if args.format == "csv" else _dump_json(rows))
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_rigidity(args) -> int:
    reports = rigidity.rigidity_reports(args.level)
    ok = all(
        r["count_found"] == r["count_expected"] and not r["witnesses_of_failure"]
        for r in reports
    )
    _write(args.out, _dump_json(reports))
    return 0 if ok else 1


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
            p.add_argument("--radius", type=tet_tree.ascii_int, default=radius)
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
    p.add_argument("--seed", type=tet_tree.ascii_int, default=0)
    p.add_argument("--sample-cap", type=tet_tree.ascii_int, dest="sample_cap", default=metric.DEFAULT_SAMPLE_CAP)

    p = command("rigidity", cmd_rigidity, "map enumeration, stabilizer, and forcing checks")
    p.add_argument("--level", type=tet_tree.ascii_int, default=2)

    command("stats", cmd_stats, "counts versus closed forms", radius=3)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
