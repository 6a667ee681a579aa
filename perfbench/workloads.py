"""Workloads of the crosscap3 benchmark: seeded job lists, one pass, output checks.

A pass runs a workload's whole job list once, closed-loop, in a fresh
process.  Run as a script, this module is that process:

    python3 perfbench/workloads.py SPAWNED_AT SPEC_JSON

It imports crosscap3 from this checkout's ``src``, builds the inputs the jobs
reuse (set-up), runs the jobs, checks every output and prints one JSON line
with its timings and failures.  With ``"trace": true`` in the spec it first
wraps the package's public functions (see ``tracer.py``) and adds per-layer
metrics.  ``run.py`` starts the passes and aggregates them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("verify", "hyperbolicity", "rigidity")

# Thinness bounds the paper proves, keyed by the graph named in the check.
THINNESS_BOUNDS = {"tet": 1.5, "curve": 3.0}

FULL = {
    "verify_radii": (8, 7),
    "hyperbolicity": ((5, 50_000), (4, 100_000)),  # (radius, sample cap)
    "rigidity_level": 5,
    "group_op_tuples": 20_000,
}
TINY = {
    "verify_radii": (3, 2),
    "hyperbolicity": ((2, 500), (1, 500)),
    "rigidity_level": 2,
    "group_op_tuples": 100,
}
MAX_ADDRESS = 4  # longest destination address in the group-operation stream


def jobs_for(workload: str, seed: int, sizes: dict = FULL) -> dict:
    """The workload's fixed job list; every random input is drawn from ``seed``."""
    rng = random.Random(seed)
    if workload == "verify":
        cli = [["verify", "--radius", str(r)] for r in sizes["verify_radii"]]
    elif workload == "hyperbolicity":
        cli = [
            ["hyperbolicity", "--radius", str(r), "--sample-cap", str(cap), "--seed", str(rng.randrange(2**31))]
            for r, cap in sizes["hyperbolicity"]
        ]
    elif workload == "rigidity":
        # The rigidity layer twice over: a few large enumerations through the
        # CLI, then many tiny group operations that no CLI command makes.
        return {
            "workload": workload,
            "cli": [["rigidity", "--level", str(sizes["rigidity_level"])]],
            "tuples": sizes["group_op_tuples"],
            "stream_seed": rng.randrange(2**31),
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "cli": cli}


def job_count(spec: dict) -> int:
    return len(spec["cli"]) + spec.get("tuples", 0)


# ---------------------------------------------------------------------------
# Output checks.  They read any JSON report shape: a check is any object with
# an ``ok`` flag or with found/expected counts, wherever it sits.

def _check_records(node):
    if isinstance(node, dict):
        if "ok" in node or "count_found" in node:
            yield node
        for value in node.values():
            yield from _check_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from _check_records(value)


def artifact_failures(command: str, exit_code: int, text: str) -> list[str]:
    """Names of the output checks one CLI job fails; empty when it passes."""
    failures = [] if exit_code == 0 else [f"exit_code_{exit_code}"]
    try:
        report = json.loads(text)
    except ValueError:
        return failures + ["artifact_not_json"]
    records = list(_check_records(report))
    if not records:
        failures.append("no_checks_in_artifact")
    for rec in records:
        label = rec.get("name") or rec.get("check") or rec.get("command") or "?"
        if "ok" in rec and rec["ok"] is not True:
            failures.append(f"not_ok:{label}")
        if "count_found" in rec and rec["count_found"] != rec.get("count_expected"):
            failures.append(f"count_mismatch:{label}")
    if command == "hyperbolicity":
        failures += _thinness_failures(records)
    return failures


def _thinness_failures(records) -> list[str]:
    failures = []
    seen = set()
    for rec in records:
        name = str(rec.get("name", ""))
        graph = next((g for g in THINNESS_BOUNDS if g in name), None)
        if "thinness" not in name or graph is None:
            continue
        seen.add(graph)
        worst = rec.get("worst", rec.get("max_value"))
        if not isinstance(worst, (int, float)) or not 0 <= worst <= THINNESS_BOUNDS[graph]:
            failures.append(f"thinness_bound:{name}")
    return failures + [f"thinness_missing:{g}" for g in THINNESS_BOUNDS if g not in seen]


def group_law_failures(rigidity, a, b, c, work) -> list[str]:
    """Names of the group laws the tuple (a, b, c) breaks; empty when all hold."""
    compose, inverse = rigidity.compose, rigidity.inverse
    e = rigidity.MappingClassElement.identity()
    failures = []
    if compose(a, e, work) != a or compose(e, a, work) != a:
        failures.append("identity")
    ai, bi, ab = inverse(a, work), inverse(b, work), compose(a, b, work)
    if not (compose(a, ai, work).is_identity() and compose(ai, a, work).is_identity()):
        failures.append("inverse")
    if inverse(ab, work) != compose(bi, ai, work):
        failures.append("inverse_of_product")
    if compose(ab, c, work) != compose(a, compose(b, c, work), work):
        failures.append("associativity")
    if rigidity.image_of_ordered_tet(a, e.dst, work) != a.dst:
        failures.append("image_of_root")
    return failures


# ---------------------------------------------------------------------------
# One pass (child process side)

def group_ops_stream(seed: int, n: int):
    """Address lengths and uniform draws for ``n`` element tuples (a, b, c), as two (n, 3) arrays.

    Lengths of a and b are uniform in 0..MAX_ADDRESS; c is kept short
    enough that |a| + |b| + |c| <= 2 * MAX_ADDRESS, so every product the
    group laws form stays inside one ball of radius 2 * MAX_ADDRESS, the
    default radius cap.  The draw in [0, 1) picks an element of that length.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, MAX_ADDRESS + 1, size=(n, 3))
    lengths[:, 2] = rng.integers(0, np.minimum(MAX_ADDRESS, 2 * MAX_ADDRESS - lengths[:, 0] - lengths[:, 1]) + 1)
    return lengths, rng.random((n, 3))


def _setup_group_ops(spec: dict):
    import numpy as np
    from crosscap3 import rigidity, tet_tree

    lengths, draws = group_ops_stream(spec["stream_seed"], spec["tuples"])
    work = tet_tree.generate_ball(int(lengths.sum(axis=1).max()))
    # Every element with a destination address of length <= MAX_ADDRESS, by length.
    addresses = sorted((a for a in work.tets if len(a) <= MAX_ADDRESS), key=lambda a: (len(a), a))
    pool = [
        rigidity.MappingClassElement(rigidity.OrderedTet(addr, order))
        for addr in addresses
        for order in permutations(work.tets[addr])
    ]
    per_length = np.bincount([len(e.dst.address) for e in pool])
    first = np.cumsum(per_length) - per_length
    picks = first[lengths] + (draws * per_length[lengths]).astype(np.int64)
    return work, [(pool[i], pool[j], pool[k]) for i, j, k in picks.tolist()]


def _run_group_ops(inputs, spans, first_job: int) -> list:
    from crosscap3 import rigidity

    work, tuples = inputs
    failures = []
    for j, (a, b, c) in enumerate(tuples, start=first_job):
        if spans is not None:
            spans.job = j
        try:
            broken = group_law_failures(rigidity, a, b, c, work)
        except Exception as exc:  # a raising job is a failed job, not a crashed pass
            broken = [f"raised_{type(exc).__name__}"]
        if broken:
            witness = f"tuple {j}: {a.dst} {b.dst} {c.dst}"
            failures += [{"job": witness, "check": name} for name in broken]
    return failures


def _run_cli(spec: dict, spans) -> tuple[list, dict, int]:
    from crosscap3 import cli

    failures, digests, artifact_bytes = [], {}, 0
    for j, argv in enumerate(spec["cli"]):
        if spans is not None:
            spans.job = j
        name = " ".join(argv)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            failures.append({"job": name, "check": f"raised_{type(exc).__name__}"})
            continue
        data = out.getvalue().encode()
        artifact_bytes += len(data)
        digests[name] = hashlib.sha256(data).hexdigest()
        failures += [{"job": name, "check": c} for c in artifact_failures(argv[0], code, data.decode())]
    return failures, digests, artifact_bytes


def one_pass(spawned_at: float, spec: dict) -> dict:
    """Set up and run one pass of ``spec`` in this process; return its record."""
    sys.path.insert(0, str(SRC))
    import crosscap3

    if Path(crosscap3.__file__).resolve().parent != SRC / "crosscap3":
        raise SystemExit(f"crosscap3 was imported from {crosscap3.__file__}, not from {SRC}")
    spans = None
    if spec["trace"]:
        import tracer

        spans = tracer.Tracer()
        spans.install()
        traced_from = time.perf_counter()
    inputs = _setup_group_ops(spec) if "tuples" in spec else None
    setup_s = time.time() - spawned_at

    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    failures, digests, artifact_bytes = _run_cli(spec, spans)
    if inputs is not None:
        failures += _run_group_ops(inputs, spans, first_job=len(spec["cli"]))
    t1 = time.perf_counter()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "setup_s": setup_s,
        "wall_s": t1 - t0,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024,  # Linux reports KiB
        "failures": failures,
        "digests": digests,
    }
    if spans is not None:
        layers = spans.metrics(t1 - traced_from)
        layers["cli.artifact_bytes"] = artifact_bytes
        record["layers"] = layers
        OUT.mkdir(exist_ok=True)
        spans.dump(OUT / f"{spec['workload']}.spans.npz")
    return record


if __name__ == "__main__":
    print(json.dumps(one_pass(float(sys.argv[1]), json.loads(sys.argv[2]))))
