import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crosscap3
from crosscap3 import metric, rigidity, tet_tree
from crosscap3.cli import main
from crosscap3.errors import RadiusCapError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStats:
    @pytest.mark.parametrize(
        "radius, digest",
        [
            ("3", "96e964d7aa4b589c20e257bbfbc5990cfda9c7294093933c4f7f009cc68ecba4"),
            ("8", "112985aed5f6bbbd2c772039a9280df8dc61e8a4b6ddb0a2d0ecfd89fd49d49d"),
        ],
    )
    def test_golden_artifact(self, capsys, radius, digest):
        # Digests of the artifacts of the CLI that wrote out the closed forms itself.
        code, out, _ = run(capsys, "stats", "--radius", radius)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_radius_three(self, capsys):
        code, out, _ = run(capsys, "stats", "--radius", "3")
        assert code == 0
        assert "tets 53 ok" in out
        assert "one_sided 56 ok" in out
        assert "d_edges 162 ok" in out
        assert "two_sided 162 ok" in out


class TestGenerate:
    def test_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "ball.json"
        code, _, _ = run(capsys, "generate", "--radius", "1", "--out", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["ball"]["radius"] == 1
        assert len(data["ball"]["tets"]) == 5
        assert len(data["curve_graph"]["two_sided"]) == 18

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "generate", "--radius", "0", "--format", "dot")
        assert code == 0
        assert out.startswith("graph curvegraph_0")
        assert "[shape=box];" in out

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "5eff81fa503346140466ef0c31b73e90c9e545a8e28555f5de80bac790e502b0"),
            ("dot", "f4d9a7458ac014f137c6179e2029a222b9b64d792caee521ca35e65492ca0b64"),
        ],
    )
    def test_golden_artifact(self, capsys, fmt, digest):
        # Digests of the artifacts of the curve graph built from vertex objects.
        code, out, _ = run(capsys, "generate", "--radius", "3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "generate", "--radius", "2", "--out", str(a))
        run(capsys, "generate", "--radius", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_passes_and_reports(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "--radius", "2", "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["ok"] is True
        assert report["radius"] == 2
        names = {c["name"] for c in report["checks"]}
        assert "four_cliques_are_tets" in names
        assert "determined_vertex_unique" in names
        assert "link_labelings" in names

    @pytest.mark.parametrize(
        "radius, digest",
        [
            ("0", "8f4a07665afaba5e39e9c1c5f18f373ce781fb3bfe6156ed8500f60cf0e22130"),
            ("2", "f699c21b5ca3ac43a2b329def2dfa141baf7af0a79f5685b616aa35bbfda4335"),
            ("4", "9bcd091c4817d3b65a17517fea70cc5df6997d7b314859135874eaa0ff33d346"),
            ("6", "5a16ec51790b6c9664201a0f689324ee2a67184be818c0cc8906f8cd5e7291e4"),
        ],
    )
    def test_golden_artifact(self, capsys, radius, digest):
        # Digests of the artifacts of the link labelling on Slope objects.
        code, out, _ = run(capsys, "verify", "--radius", radius)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHyperbolicity:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "hyperbolicity", "--radius", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,radius,examined,worst,witness,bound,ok"
        names = {line.split(",")[0] for line in lines[1:]}
        assert {"thinness_tet_graph", "thinness_curve_graph", "subdivision_isometry"} <= names

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "hyperbolicity", "--radius", "1")
        assert code == 0
        rows = json.loads(out)
        assert all(row["ok"] for row in rows)

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "f52298eefd068ee0977be0859ad6b548468be6b4a53c361cc4d1c5e21654ae5b"),
            ("csv", "4e2a7cd247d3be298069889b3aca5f1ee4dde424044e7c751e3d796f393eb246"),
        ],
    )
    def test_golden_artifact(self, capsys, fmt, digest):
        # Digests of the artifacts of the unvectorized implementation.
        argv = ("hyperbolicity", "--radius", "4", "--sample-cap", "20000", "--seed", "5")
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_artifact_radius_five(self, capsys):
        # Digest of the artifact of the per-pair bottleneck scan; radius 5 is
        # the first with neighbourhood checks (792 of 8,052 pairs).
        argv = ("hyperbolicity", "--radius", "5", "--sample-cap", "20000", "--seed", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "00d194b30c74bedf56de6fede5c9f8134ddb9124024b84f78f0146c6ca3f2f15"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--radius", "0"), "248a9e8a83378de679dc0aa699e70dd267a0ff70afac084dda7677276e2c22e2"),
            (
                ("--radius", "1", "--format", "csv"),
                "d5115804cb2265e1da5773bfb5a4dfd1fdf457bad70fc0d1bff533d4d6ff3a35",
            ),
            (("--radius", "2"), "c85f610801314e2e9210ac2985d2b905b9ba80df6299a62f2160a74af77bc4a5"),
            (
                ("--radius", "3", "--seed", "9", "--format", "csv"),
                "c8f29203cae9880aaa51103c758e876af3d5c75879d54fa45b98cb814d0ba728",
            ),
        ],
    )
    def test_golden_artifact_small_radii(self, capsys, argv, digest):
        # Digests of the artifacts of the CLI that assembled the rows itself;
        # radius 1 has no bottleneck row.
        code, out, _ = run(capsys, "hyperbolicity", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_radius_zero(self, capsys, fmt):
        # No pair has positive tree distance, so the ratio range is empty.
        code, out, _ = run(capsys, "hyperbolicity", "--radius", "0", "--format", fmt)
        assert code == 0
        assert "ratio [none none]" in out


class TestRigidity:
    @pytest.mark.parametrize(
        "level, digest",
        [
            ("1", "6d649dc8dcb5a99ce9a2c72bf176f3e59bb9da067e268d166af8f3665def6ce7"),
            ("2", "54b3b2fca381d44c1e1182eb2945df306a75bdae32843178b72991a6b8f14fcf"),
            ("3", "6079f7a9f01646c6e4ad3f3aa18d36242f824b156e773e4f3cdfee0b0ccb7cf0"),
            ("4", "f465f8dea7b1cd378e29dcf1a23ac9ae147b447ede60cabdbd6ceb2c2de4dfff"),
            ("5", "ec1764b4a0671f567224bf3dee0f8be95542d44d6f9bdc38ffda60702dce0447"),
        ],
    )
    def test_golden_artifact(self, capsys, level, digest):
        # Digests of the artifacts of the two-enumeration implementation (levels
        # 2-3), of the maps as dicts of vertex objects (level 4) and of the
        # one-element-at-a-time propagation (levels 1 and 5).
        code, out, _ = run(capsys, "rigidity", "--level", level)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_enumerates_once(self, capsys, monkeypatch):
        calls = []
        enumerate_maps = rigidity.enumerate_locally_injective

        def counted(*args):
            calls.append(args)
            return enumerate_maps(*args)

        monkeypatch.setattr(rigidity, "enumerate_locally_injective", counted)
        code, _, _ = run(capsys, "rigidity", "--level", "2")
        assert code == 0
        assert len(calls) == 1

    def test_level_two(self, capsys):
        code, out, _ = run(capsys, "rigidity", "--level", "2")
        assert code == 0
        reports = json.loads(out)
        by_check = {r["check"]: r for r in reports}
        assert by_check["rigidity_level_1"]["count_found"] == 408
        assert by_check["rigidity_level_2"]["count_found"] == 120
        assert by_check["pointwise_stabilizer_level_1"]["count_found"] == 0


class TestFarey:
    def test_queries(self, capsys):
        assert run(capsys, "farey", "adjacent", "1/2", "2/3") == (0, "true\n", "")
        assert run(capsys, "farey", "adjacent", "1/3", "2/3") == (0, "false\n", "")
        assert run(capsys, "farey", "mediant", "0/1", "1/1") == (0, "1/2\n", "")
        code, out, _ = run(capsys, "farey", "neighbors", "0/1", "1/0")
        assert code == 0 and set(out.split()) == {"1/1", "-1/1"}

    def test_ball_query(self, capsys):
        code, out, _ = run(capsys, "farey", "ball", "1")
        assert code == 0
        assert len(json.loads(out)["triangles"]) == 4

    def test_invalid_slope(self, capsys):
        code, _, err = run(capsys, "farey", "mediant", "x/y", "1/1")
        assert code == 2 and "error:" in err

    def test_non_adjacent_mediant(self, capsys):
        code, _, err = run(capsys, "farey", "mediant", "1/3", "2/3")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("adjacent", "1/2"), "farey adjacent takes 2 slopes, got 1"),
            (("mediant", "1/2"), "farey mediant takes 2 slopes, got 1"),
            (("neighbors", "0/1", "1/0", "1/1"), "farey neighbors takes 2 slopes, got 3"),
            (("unfold", "0/1", "1/0", "1/1"), "farey unfold takes 5 slopes, got 3"),
            (("ball", "1", "2"), "farey ball takes 1 radius, got 2"),
        ],
    )
    def test_wrong_argument_count(self, capsys, argv, message):
        code, out, err = run(capsys, "farey", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_negative_slope_after_double_dash(self, capsys):
        assert run(capsys, "farey", "adjacent", "--", "1/0", "-1/1") == (0, "true\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ("adjacent", "1_0/1", "0/1"),
            ("adjacent", "١/٢", "0/1"),  # Arabic-Indic digits
            ("adjacent", " 1/2", "0/1"),
            ("adjacent", "1/2 ", "0/1"),
            ("adjacent", "+1/2", "0/1"),
            ("adjacent", "1/+2", "0/1"),
            ("adjacent", "1/2/3", "0/1"),
            ("adjacent", "1/", "0/1"),
            ("mediant", "--1/1", "0/1"),
            ("ball", "1_0"),
            ("ball", "+1"),
            ("ball", " 1"),
            ("ball", "١"),
            ("ball", "-1"),
        ],
    )
    def test_rejects_loose_integers(self, capsys, argv):
        # int() would read each of these; only ASCII digits with an optional
        # leading minus on a slope side (none on a radius) are accepted.
        code, out, err = run(capsys, "farey", "--", *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    def test_signed_denominator(self, capsys):
        assert run(capsys, "farey", "mediant", "1/-2", "0/1") == (0, "-1/3\n", "")


class TestErrors:
    def test_radius_cap(self, capsys):
        code, _, err = run(capsys, "stats", "--radius", "99")
        assert code == 2 and "exceeds cap" in err

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_table_over_budget(self, capsys):
        code, _, err = run(capsys, "hyperbolicity", "--radius", "8")
        assert code == 2
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("radius, n, mib", [("7", 17498, 291), ("8", 52490, 2627)])
    def test_tables_over_budget_are_refused_before_either_is_built(self, capsys, monkeypatch, radius, n, mib):
        # At radius 8 the tetrahedron table alone (13124 vertices, 164 MiB) would fit.
        built = []

        def spy(graph):
            built.append(len(graph.indptr) - 1)
            raise AssertionError(f"a distance table was built for {built[-1]} vertices")

        monkeypatch.setattr(metric, "all_pairs_distances", spy)
        want = f"error: distance table for {n} vertices needs {mib} MiB, over the 256 MiB table budget\n"
        assert run(capsys, "hyperbolicity", "--radius", radius) == (2, "", want)
        assert built == []

    def test_rigidity_level_over_the_cap(self, capsys):
        want = "rigidity level 9 needs a work ball of radius 10, over the radius cap 8"
        assert run(capsys, "rigidity", "--level", "9") == (2, "", f"error: {want}\n")
        with pytest.raises(RadiusCapError, match=want):
            rigidity.rigidity_reports(9)

    def test_rigidity_level_over_the_budget(self, capsys, monkeypatch):
        # Level 6 holds 24 * 1457 maps of 10 ids, 2.7 MiB; it is refused before any ball is built.
        monkeypatch.setattr(tet_tree, "MAX_TABLE_BYTES", 1 << 20)
        code, out, err = run(capsys, "rigidity", "--level", "6")
        assert code == 2 and out == ""
        want = "rigidity level 6 with 34968 maps of the root star needs 2 MiB, over the 1 MiB table budget"
        assert err == f"error: {want}\n"

    @pytest.mark.parametrize("level", ["0", "-1"])
    def test_rigidity_level_below_one(self, capsys, level):
        code, out, err = run(capsys, "rigidity", "--level", level)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "at least 1" in err

    def test_flag_the_command_does_not_read(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_invalid_radius_cap_env(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CROSSCAP3_RADIUS_CAP", value)
        code, _, err = run(capsys, "stats", "--radius", "1")
        assert code == 2
        assert err.startswith("error:") and "CROSSCAP3_RADIUS_CAP" in err

    @pytest.mark.parametrize("spelling", ["٣", "1_0", "+2", " 2"])
    @pytest.mark.parametrize("where", ["--radius", "--level", "--seed", "--sample-cap", "CROSSCAP3_RADIUS_CAP"])
    def test_rejects_loose_integers(self, capsys, monkeypatch, where, spelling):
        # int() reads each spelling (an Arabic-Indic 3, then 10, 2 and 2); every integer
        # input takes ASCII digits only, with a leading minus allowed on the options.
        # ``TestFarey.test_rejects_loose_integers`` has the same spellings of the ball radius.
        argv = {
            "--radius": ["stats", "--radius", spelling],
            "--level": ["rigidity", "--level", spelling],
            "--seed": ["hyperbolicity", "--radius", "1", "--seed", spelling],
            "--sample-cap": ["hyperbolicity", "--radius", "1", "--sample-cap", spelling],
            "CROSSCAP3_RADIUS_CAP": ["stats", "--radius", "1"],
        }[where]
        if where == "CROSSCAP3_RADIUS_CAP":
            monkeypatch.setenv(where, spelling)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an option's value itself
            code = exc.code
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and "error:" in out.err

    def test_bad_sample_cap(self, capsys):
        code, _, err = run(capsys, "hyperbolicity", "--radius", "1", "--sample-cap", "0")
        assert code == 2 and err.startswith("error:")

    def test_bad_sample_cap_refused_before_any_table(self, capsys, monkeypatch):
        def unreachable(graph):
            raise AssertionError("a distance table was built")

        monkeypatch.setattr(metric, "all_pairs_distances", unreachable)
        argv = ("hyperbolicity", "--radius", "6", "--sample-cap", "0")
        assert run(capsys, *argv) == (2, "", "error: sample cap must be positive, got 0\n")

    def test_out_of_memory(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(metric, "hyperbolicity_reports", exhausted)
        assert run(capsys, "hyperbolicity", "--radius", "1") == (2, "", "error: out of memory\n")


def run_module(*argv):
    # ``python -m crosscap3`` in a fresh interpreter that finds the package on PYTHONPATH only.
    src = str(Path(crosscap3.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "crosscap3", *argv], capture_output=True, text=True, env=env, timeout=120
    )


class TestModule:
    def test_verify(self):
        proc = run_module("verify", "--radius", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)

    def test_invalid_radius(self):
        proc = run_module("verify", "--radius", "-1")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines() == ["error: radius must be nonnegative"]
