"""Run the mutant corpus: does each named test still kill its mutant?

    python3 mutation/run.py > MUTATION.json

Each entry of ``mutants.json`` names a source file, a text that occurs in
it exactly once, its replacement, and the test node ids that must kill the
mutant.  For each mutant in turn, serially, ``src/`` and ``tests/`` are
copied to a fresh temporary directory, the one replacement is made there,
and pytest runs the named nodes against that copy.  A node kills the mutant
when it fails or errors.  First the named nodes run once on an unmutated
copy: a node that fails there would count as a kill without catching
anything, so the baseline's failures are reported too.

Prints one JSON object: the baseline, and per mutant its kill set, the
named nodes that let it survive, and whether every named node killed it.
The exit code is 1 when some mutant survives a named node or the baseline
fails, else 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "mutants.json"
TIMEOUT_S = 900


def failed_nodes(workdir: Path, nodes: list[str]) -> tuple[list[str], str]:
    """The nodes among ``nodes`` that fail or error under pytest in ``workdir``, and pytest's summary line."""
    report = workdir / "report.json"
    plugin = workdir / "_mutation_report.py"
    plugin.write_text(_PLUGIN)
    env = {**os.environ, "PYTHONPATH": f"{workdir / 'src'}{os.pathsep}{workdir}", "MUTATION_REPORT": str(report)}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_mutation_report", *nodes]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return sorted(nodes), "timeout"
    outcomes = json.loads(report.read_text()) if report.exists() else {}
    # A node that never reported (collection error, crash) counts as failed.
    failed = sorted(n for n in nodes if outcomes.get(n) != "passed")
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    return failed, summary


# A pytest plugin that writes each node's outcome (failure in any phase wins) to a JSON file.
_PLUGIN = '''
import json, os

_outcomes = {}

def pytest_runtest_logreport(report):
    if report.failed or report.nodeid not in _outcomes:
        _outcomes[report.nodeid] = "failed" if report.failed else report.outcome

def pytest_sessionfinish(session):
    with open(os.environ["MUTATION_REPORT"], "w") as fh:
        json.dump(_outcomes, fh)
'''


def copy_tree(dst: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run_mutant(mutant: dict | None, nodes: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="crosscap3-mutant-") as tmp:
        work = Path(tmp)
        copy_tree(work)
        if mutant is not None:
            path = work / mutant["file"]
            text = path.read_text()
            if text.count(mutant["old"]) != 1:
                return {"error": f"old text occurs {text.count(mutant['old'])} times in {mutant['file']}"}
            path.write_text(text.replace(mutant["old"], mutant["new"]))
        failed, summary = failed_nodes(work, nodes)
    return {"failed": failed, "summary": summary}


def main() -> int:
    corpus = json.loads(CORPUS.read_text())
    every_node = sorted({n for m in corpus for n in m["kill"]})
    baseline = run_mutant(None, every_node)
    results = []
    for mutant in corpus:
        out = run_mutant(mutant, mutant["kill"])
        killed_by = out.get("failed", [])
        results.append(
            {
                "id": mutant["id"],
                "file": mutant["file"],
                "kill_set": killed_by,
                "survived": sorted(set(mutant["kill"]) - set(killed_by)),
                "killed": "error" not in out and set(killed_by) == set(mutant["kill"]),
                **({"error": out["error"]} if "error" in out else {"summary": out["summary"]}),
            }
        )
        print(f"{mutant['id']}: {len(killed_by)}/{len(mutant['kill'])} named nodes kill it", file=sys.stderr)
    ok = not baseline["failed"] and all(r["killed"] for r in results)
    print(json.dumps({"baseline": baseline, "mutants": results, "all_killed": ok}, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
