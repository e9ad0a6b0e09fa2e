"""End-to-end command-line coverage, driven through main(argv)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fishburn
from fishburn import cli, harness
from fishburn.seqcore import ClassId


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_console_script(directory, monkeypatch):
    """Write into `directory` the wrapper an installer makes for the
    `fishburn` entry of `[project.scripts]`, and put `directory` first on
    PATH and the imported package's source root first on PYTHONPATH, so
    the script runs the code under test."""
    tomllib = pytest.importorskip("tomllib")
    src = Path(fishburn.__file__).resolve().parents[1]
    with open(src.parent / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["fishburn"]
    module, _, attr = target.partition(":")
    script = directory / "fishburn"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)
    monkeypatch.setenv("PATH", str(directory), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(src), prepend=os.pathsep)


class TestEnumerate:
    def test_json(self, capsys):
        got = run_json(capsys, "enumerate", "--class", "ASC", "--n", "3")
        assert got == ["0,0,0", "0,0,1", "0,1,0", "0,1,1", "0,1,2"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--class", "PERM_AVOID_A",
                           "--n", "3", "--format", "csv")
        assert code == 0
        rows = [r for r in out.strip().splitlines()]
        assert rows == ["123", "132", "213", "312", "321"]

    def test_prefix(self, capsys):
        got = run_json(capsys, "enumerate", "--class", "ASC", "--n", "4",
                       "--prefix", "0,1")
        assert got[0] == "0,1,0,0" and len(got) == 10

    def test_permutation_prefix_need_not_be_a_permutation(self, capsys):
        got = run_json(capsys, "enumerate", "--class", "perm_all", "--n", "3",
                       "--prefix", "3")
        assert got == ["312", "321"]
        got = run_json(capsys, "enumerate", "--class", "perm_avoid_a",
                       "--n", "4", "--prefix", "13")
        assert got == ["1324"]  # 1342 has its 2 two places after the ascent 34

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "ASC", "--n", "40")
        assert code == 3
        assert err.startswith("resource limit:")


class TestStats:
    def test_sequence_bundle(self, capsys):
        got = run_json(capsys, "stats", "--class", "INV",
                       "0,1,0,2,3,2,5,1,7")
        assert got["asc"] == 5 and got["rep"] == 3 and got["zero"] == 2
        assert got["max"] == 2 and got["rmin"] == 3 and got["nasc"] == 3
        assert got["ASC"] == [1, 3, 4, 6, 8]
        assert got["DIST"] == [5, 6, 7, 8, 9]
        assert got["RMIN"] == [3, 8, 9]
        assert "ealm" not in got  # markers only appear on their home class

    def test_markers_appear_on_their_classes(self, capsys):
        got = run_json(capsys, "stats", "--class", "ASC",
                       "0,1,0,2,3,2,4,1,5")
        assert {"ealm", "zpair", "zpos"} <= set(got)
        got = run_json(capsys, "stats", "--class", "T21",
                       "0,0,2,2,0,5,5,3")
        assert got["mpair"] == 2 and "ealm" not in got

    def test_markers_are_read_at_call_time(self, capsys, monkeypatch):
        monkeypatch.setattr(fishburn.stats, "ealm", lambda s: 99)
        got = run_json(capsys, "stats", "--class", "ASC", "0,1,0")
        assert got["ealm"] == 99
        assert list(got)[-3:] == list(fishburn.stats.MARKERS)[:3]

    def test_permutation_bundle(self, capsys):
        got = run_json(capsys, "stats", "--class", "PERM_ALL",
                       "61832547")
        assert (got["des"], got["ides"], got["iasc"]) == (4, 4, 3)
        assert got["DES"] == [1, 3, 4, 6]
        assert got["LMIN"] == [1, 2]

    def test_non_member_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "stats", "--class", "ASC",
                           "0,2")
        assert code == 2
        assert "is not a member of" in err


class TestApply:
    def test_bijection(self, capsys):
        got = run_json(capsys, "apply", "--map", "theta_lehmer",
                       "61832547")
        assert got == {"map": "theta_lehmer", "input": "61832547",
                       "output": "0,1,0,2,3,2,3,1"}

    def test_trace(self, capsys):
        got = run_json(capsys, "apply", "--map", "beta",
                       "0,1,0,2,3,2,5,1,7", "--trace")
        assert got["output"] == "0,1,0,2,3,2,4,1,5"
        assert got["trace"] == [
            ["7", "0,1,0,2,3,2,5,1,6"],
            ["5", "0,1,0,2,3,2,4,1,5"],
            ["2", "0,1,0,2,3,2,4,1,5"]]

    def test_trace_on_plain_map_is_refused(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "theta_lehmer",
                           "61832547", "--trace")
        assert code == 2 and "traceable maps" in err

    def test_decomposition_emits_side_index(self, capsys):
        got = run_json(capsys, "apply", "--map", "xi_S4", "0,0,1")
        assert got["output"] == "0,1,1" and got["side_index"] == 0

    def test_inverse_direction_needs_side_index(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "xi_S4",
                           "0,1,1", "--direction", "inverse")
        assert code == 2 and "--side-index" in err
        got = run_json(capsys, "apply", "--map", "xi_S4", "0,1,1",
                       "--direction", "inverse", "--side-index", "0")
        assert got["output"] == "0,0,1"

    def test_shift_needs_direction(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "ealm_shift",
                           "0,1,0")
        assert code == 2 and "--direction" in err
        got = run_json(capsys, "apply", "--map", "ealm_shift",
                       "0,1,0", "--direction", "up")
        assert got["output"] == "0,1,1"

    def test_bijections_reject_direction_flag(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "beta",
                           "0,0,0,2", "--direction", "forward")
        assert code == 2 and "inverse maps have their own names" in err

    def test_domain_error_is_exit_two(self, capsys):
        code, _, err = run(capsys, "apply", "--map", "beta",
                           "0,0,2")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("name", cli.MAP_NAMES)
    def test_empty_object_is_a_usage_error(self, capsys, name):
        code, out, err = run(capsys, "apply", "--map", name, "")
        assert code == 2 and out == ""
        assert err == f"error: map {name!r} needs a nonempty object\n"


class TestTable:
    def test_json(self, capsys):
        got = run_json(capsys, "table", "--class", "ASC", "--n", "3",
                       "--stats", "rep,max")
        assert got["class"] == "ASC" and got["n"] == 3
        assert got["stats"] == ["rep", "max"]
        assert got["total"] == 5
        assert got["counts"] == [[[0, 3], 1], [[1, 1], 1],
                                 [[1, 2], 2], [[2, 1], 1]]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "table", "--class", "ASC", "--n", "3",
                           "--stats", "rep,max", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["rep", "max", "count"]
        assert lines[1].split(",") == ["0", "3", "1"]

    def test_unknown_stat(self, capsys):
        code, _, err = run(capsys, "table", "--class", "ASC", "--n", "3",
                           "--stats", "bogus")
        assert code == 2 and "bogus" in err

    def test_resource_limit(self, capsys):
        code, _, _ = run(capsys, "table", "--class", "INV", "--n", "12",
                         "--stats", "asc")
        assert code == 3


class TestSeries:
    def test_fishburn(self, capsys):
        got = run_json(capsys, "series", "--which", "fishburn",
                       "--order", "7")
        assert got == ["0", "1", "2", "5", "15", "53", "217", "1014"]

    def test_quadruple_at_a_rational_point(self, capsys):
        got = run_json(capsys, "series", "--which", "G", "--order", "5",
                       "--x", "2/3", "--q", "3", "--u", "1/2", "--z", "5/7")
        assert got == ["0", "15/7", "415/98", "39065/4116",
                       "3940435/172872", "423786725/7260624"]

    def test_seeded_point_is_echoed_and_reproducible(self, capsys):
        code, out1, err1 = run(capsys, "series", "--which", "G",
                               "--order", "4", "--seed", "7")
        code2, out2, err2 = run(capsys, "series", "--which", "G",
                                "--order", "4", "--seed", "7")
        assert code == code2 == 0
        assert out1 == out2 and err1 == err2
        assert err1.startswith("point:")
        json.loads(err1.split("point:", 1)[1])

    def test_marker_rejected_when_inapplicable(self, capsys):
        code, _, err = run(capsys, "series", "--which", "zeromax",
                           "--order", "4", "--x", "2")
        assert code == 2 and "does not take --x" in err

    def test_seed_and_explicit_values_conflict(self, capsys):
        code, _, err = run(capsys, "series", "--which", "G", "--order", "4",
                           "--seed", "5", "--x", "2")
        assert code == 2 and "not both" in err

    def test_fishburn_has_no_markers(self, capsys):
        code, _, err = run(capsys, "series", "--which", "fishburn",
                           "--seed", "5")
        assert code == 2 and "no markers" in err

    def test_seed_refusal_comes_before_stray_markers(self, capsys):
        code, out, err = run(capsys, "series", "--which", "fishburn",
                             "--seed", "1", "--x", "2")
        assert (code, out) == (2, "")
        assert err == "error: series 'fishburn' has no markers to randomize\n"

    def test_decimal_text_is_still_exact(self, capsys):
        # 0.5 denotes 1/2 exactly, so it is accepted
        code, out, _ = run(capsys, "series", "--which", "G", "--order", "1",
                           "--x", "0.5")
        assert code == 0

    def test_unparseable_value_rejected(self, capsys):
        code, _, err = run(capsys, "series", "--which", "G", "--x", "x/y")
        assert code == 2 and "not an exact rational" in err

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "series", "--which", "fishburn",
                           "--order", "3", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[-1].split(",") == ["3", "5"]


class TestCheck:
    def test_single_check_passes(self, capsys):
        got = run_json(capsys, "check", "--name", "inv_sym", "--max-n", "6")
        assert len(got) == 1
        assert got[0]["name"] == "inv_sym"
        assert got[0]["verdict"] == "pass"
        assert got[0]["parameters"] == {"max_n": 6}

    def test_inapplicable_flag_is_refused(self, capsys):
        code, _, err = run(capsys, "check", "--name", "conjecture1",
                           "--points", "5")
        assert code == 2 and "does not take parameter" in err

    @pytest.mark.parametrize("argv", [
        ("--name", "gf_G", "--points", "-3"),
        ("--name", "gf_asczero", "--points", "0"),
        ("--name", "lemma_suite", "--max-n", "0")])
    def test_nonpositive_size_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert "must be a positive integer" in err

    def test_full_suite_refuses_a_bad_size_before_any_check(
            self, capsys, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("a check ran before the sizes were checked")
        monkeypatch.setattr(harness, "dist_table", no_table)
        code, out, err = run(capsys, "check", "--points", "0")
        assert code == 2 and out == ""
        assert "must be a positive integer" in err

    def test_failing_check_exits_one(self, capsys, tmp_path, monkeypatch):
        # poison the cached table the check will read
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        stats = ("asc", "rep", "zero", "max")
        harness.dist_table(ClassId.ASC, 3, stats)
        path = harness._cache_path(ClassId.ASC, 3, stats)
        payload = json.loads(path.read_text())
        payload["counts"][0][1] += 1
        path.write_text(json.dumps(payload))

        code, out, _ = run(capsys, "check", "--name", "conjecture1",
                           "--max-n", "3")
        assert code == 1
        report = json.loads(out)[0]
        assert report["verdict"] == "fail"
        assert report["counterexample"]["n"] == 3

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "inv_sym",
                           "--max-n", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["name", "verdict", "seconds"]
        assert lines[1].startswith("inv_sym,pass")


class TestParserBasics:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_class_name(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "NOPE",
                           "--n", "3")
        assert code == 2 and "unknown class" in err

    def test_class_name_is_case_insensitive(self, capsys):
        got = run_json(capsys, "enumerate", "--class", "asc", "--n", "2")
        assert got == ["0,0", "0,1"]

    def test_console_script_is_installed(self, tmp_path, monkeypatch):
        # Without an installed package (a run from the checkout with
        # PYTHONPATH=src), build the script pip would write from pyproject.
        if shutil.which("fishburn") is None:
            write_console_script(tmp_path, monkeypatch)
        exe = shutil.which("fishburn")
        assert exe, "console script not on PATH"
        out = subprocess.run(
            [exe, "series", "--which", "fishburn", "--order", "3"],
            capture_output=True, text=True, timeout=60)
        assert out.returncode == 0
        assert json.loads(out.stdout) == ["0", "1", "2", "5"]
