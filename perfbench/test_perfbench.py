"""Tests of the benchmark itself, at tiny sizes: metrics emitted, failures counted.

    python3 -m pytest -q perfbench
"""

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import types

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(workloads.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace):
    spec = workloads.jobs_for(workload, seed=3, sizes=workloads.TINY)
    return run.measure(workload, 3, seconds=0, trace=trace, spec=spec)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, capsys):
    result = tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0, result["witnesses"]
    assert len(result["passes"]) == run.MIN_PASSES
    line = run.report(result, BENCH["end_to_end"], run.environment())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "fail_frac" in capsys.readouterr().out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = tiny(workload, trace=True)
    assert result["correct"], result["witnesses"]
    values = result["values"]
    assert set(values) == {m["name"] for m in BENCH["per_layer"]}
    layers = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + values["trace.harness_s"] == pytest.approx(values["trace.window_s"], rel=1e-6)
    assert values["trace.spans"] > 0


def test_no_layer_metric_without_tracing():
    passes = tiny("rigidity", trace=False)["passes"]
    assert all("layers" not in p for p in passes)


def cli_artifact(*argv):
    from crosscap3 import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def as_pass(job, code, text):
    failures = workloads.artifact_failures(job.split()[0], code, text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return {"failures": [{"job": job, "check": c} for c in failures], "digests": {job: digest}}


def test_corrupted_verify_artifact_is_counted():
    code, text = cli_artifact("verify", "--radius", "2")
    assert code == 0 and workloads.artifact_failures("verify", code, text) == []
    report = json.loads(text)
    report["checks"][1]["ok"] = False
    corrupted = json.dumps(report)
    assert workloads.artifact_failures("verify", 0, corrupted) == [f"not_ok:{report['checks'][1]['name']}"]
    assert workloads.artifact_failures("verify", 0, text[: len(text) // 2]) == ["artifact_not_json"]
    assert workloads.artifact_failures("verify", 1, text) == ["exit_code_1"]

    spec = {"cli": [["verify", "--radius", "2"]]}
    job = "verify --radius 2"
    assert run.failed_jobs(spec, [as_pass(job, 0, text)] * 2)[:2] == (2, 0)
    # A corrupted artifact fails its own checks, and differs from the first pass's bytes.
    attempted, failed, witnesses = run.failed_jobs(spec, [as_pass(job, 0, text), as_pass(job, 0, corrupted)])
    assert (attempted, failed) == (2, 1)
    assert {w["check"] for w in witnesses} == {"not_ok:" + report["checks"][1]["name"], "artifact_differs_between_passes"}


def test_thinness_above_its_bound_is_counted():
    argv = ["hyperbolicity", "--radius", "2", "--sample-cap", "100"]
    code, text = cli_artifact(*argv)
    assert workloads.artifact_failures("hyperbolicity", code, text) == []
    rows = json.loads(text)
    thin = next(r for r in rows if "thinness" in r["name"] and "tet" in r["name"])
    thin["worst"] = 2  # above 3/2; the benchmark checks its own bound, not the artifact's verdict
    failures = workloads.artifact_failures("hyperbolicity", code, json.dumps(rows))
    assert failures == [f"thinness_bound:{thin['name']}"]


def test_broken_group_law_is_counted():
    from crosscap3 import rigidity, tet_tree

    work = tet_tree.generate_ball(3)
    a = rigidity.MappingClassElement(rigidity.OrderedTet("1", work.tets["1"]))
    assert workloads.group_law_failures(rigidity, a, a, a, work) == []

    def unordered(x, y, w):  # loses the slot order of the product
        dst = rigidity.compose(x, y, w).dst
        return rigidity.MappingClassElement(rigidity.OrderedTet(dst.address, tuple(sorted(dst.verts))))

    broken = types.SimpleNamespace(**{**vars(rigidity), "compose": unordered})
    assert "identity" in workloads.group_law_failures(broken, a, a, a, work)


def test_seed_fixes_the_inputs():
    assert workloads.jobs_for("hyperbolicity", 5) == workloads.jobs_for("hyperbolicity", 5)
    assert workloads.jobs_for("hyperbolicity", 5) != workloads.jobs_for("hyperbolicity", 6)
    a, b = workloads.group_ops_stream(7, 50), workloads.group_ops_stream(7, 50)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    assert a[0].sum(axis=1).max() <= 2 * workloads.MAX_ADDRESS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
