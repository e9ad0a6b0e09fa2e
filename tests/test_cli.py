"""End-to-end command-line coverage, driven through main(argv)."""

import json
import os
import re
import shutil
import subprocess
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

import fishburn
from fishburn import cli, harness
from fishburn.errors import ResourceLimitError
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


def seconds_dropped(text):
    """text with each check's run time read as 0, the one figure of the
    output that differs from run to run."""
    text = re.sub(r'"seconds": [0-9.e-]+', '"seconds": 0', text)
    return re.sub(r"(?m)^(\w+,(?:pass|fail)),[0-9.e-]+,", r"\1,0,", text)


# argv -> exit code, stdout and stderr, byte for byte: every subcommand in
# both formats, and for each one an exit-2 and an exit-3 case
EXACT = [
    ("enumerate --class ASC --n 3", 0,
     '["0,0,0", "0,0,1", "0,1,0", "0,1,1", "0,1,2"]\n',
     ""),
    ("enumerate --class ASC --n 3 --format csv", 0,
     '"0,0,0"\r\n"0,0,1"\r\n"0,1,0"\r\n"0,1,1"\r\n"0,1,2"\r\n',
     ""),
    ("enumerate --class ASC --n 4 --prefix 0,1 --format csv", 0,
     '"0,1,0,0"\r\n"0,1,0,1"\r\n"0,1,0,2"\r\n"0,1,1,0"\r\n'
     '"0,1,1,1"\r\n"0,1,1,2"\r\n"0,1,2,0"\r\n"0,1,2,1"\r\n'
     '"0,1,2,2"\r\n"0,1,2,3"\r\n',
     ""),
    ("enumerate --class PERM_AVOID_A --n 4 --prefix 13", 0,
     '["1324"]\n',
     ""),
    ("enumerate --class ASC --n 4 --prefix 0,2", 0,
     "[]\n",
     ""),
    ("enumerate --class NOPE --n 3", 2,
     "",
     "error: unknown class 'NOPE'; expected one of: inv, asc, "
     "t21, b, c, perm_all, perm_avoid_a, perm_avoid_b\n"),
    ("enumerate --class ASC --n 13 --format csv", 3,
     "",
     "resource limit: length 13 exceeds the cap of 12 for ASC\n"),
    ("enumerate --class ASC --n 0", 2,
     "",
     "error: length must be a positive integer, got 0\n"),
    ("enumerate --class INV --n 11", 3,
     "",
     "resource limit: length 11 exceeds the cap of 10 for INV\n"),
    # a given limit is clamped to half the recursion limit: the graph of a
    # longer walk would recurse past it
    ("enumerate --class INV --n 1100 --limit 1100", 3,
     "",
     "resource limit: length 1100 exceeds the cap of "
     f"{sys.getrecursionlimit() // 2} for INV\n"),
    ("stats --class ASC 0,1,0,2,3,2,4,1,5", 0,
     '{"asc": 5, "rep": 3, "zero": 2, "max": 2, "rmin": 3, '
     '"nasc": 3, "ASC": [1, 3, 4, 6, 8], "DIST": [5, 6, 7, 8, 9], '
     '"ZERO": [1, 3], "MAX": [1, 2], "RMIN": [3, 8, 9], '
     '"NASC": [2, 5, 7], "ealm": 0, "zpair": 0, "zpos": 2}\n',
     ""),
    ("stats --class ASC 0,1,0,2,3,2,4,1,5 --format csv", 0,
     "asc,5\r\nrep,3\r\nzero,2\r\nmax,2\r\nrmin,3\r\nnasc,3\r\n"
     "ASC,1 3 4 6 8\r\nDIST,5 6 7 8 9\r\nZERO,1 3\r\nMAX,1 2\r\n"
     "RMIN,3 8 9\r\nNASC,2 5 7\r\nealm,0\r\nzpair,0\r\nzpos,2\r\n",
     ""),
    ("stats --class T21 0,0,2,2,0,5,5,3", 0,
     '{"asc": 2, "rep": 4, "zero": 3, "max": 3, "rmin": 2, '
     '"nasc": 5, "ASC": [2, 5], "DIST": [4, 7, 8], "ZERO": [1, 2, '
     '5], "MAX": [1, 3, 6], "RMIN": [5, 8], "NASC": [1, 3, 4, 6, '
     '7], "mpair": 2, "mpos": 0}\n',
     ""),
    ("stats --class T21 0,0,2,2,0,5,5,3 --format csv", 0,
     "asc,2\r\nrep,4\r\nzero,3\r\nmax,3\r\nrmin,2\r\nnasc,5\r\n"
     "ASC,2 5\r\nDIST,4 7 8\r\nZERO,1 2 5\r\nMAX,1 3 6\r\n"
     "RMIN,5 8\r\nNASC,1 3 4 6 7\r\nmpair,2\r\nmpos,0\r\n",
     ""),
    ("stats --class PERM_ALL 61832547", 0,
     '{"des": 4, "ides": 4, "iasc": 3, "DES": [1, 3, 4, 6], '
     '"IDES": [5, 6, 7, 8], "LMAX": [1, 3], "LMIN": [1, 2], '
     '"RMAX": [3, 8]}\n',
     ""),
    ("stats --class PERM_ALL 61832547 --format csv", 0,
     "des,4\r\nides,4\r\niasc,3\r\nDES,1 3 4 6\r\nIDES,5 6 7 8\r\n"
     "LMAX,1 3\r\nLMIN,1 2\r\nRMAX,3 8\r\n",
     ""),
    ("stats --class ASC 0,2 --format csv", 2,
     "",
     "error: '0,2' is not a member of ASC\n"),
    # the psi image of the worked permutation of tests/test_bijections.py
    ("stats --class ASC 0,1,0,2,3,2,4,1", 0,
     '{"asc": 4, "rep": 3, "zero": 2, "max": 2, "rmin": 2, '
     '"nasc": 3, "ASC": [1, 3, 4, 6], "DIST": [5, 6, 7, 8], '
     '"ZERO": [1, 3], "MAX": [1, 2], "RMIN": [3, 8], '
     '"NASC": [2, 5, 7], "ealm": 0, "zpair": 0, "zpos": 2}\n',
     ""),
    ("stats --class ASC 0,1,0,2,3,2,4,1 --format csv", 0,
     "asc,4\r\nrep,3\r\nzero,2\r\nmax,2\r\nrmin,2\r\nnasc,3\r\n"
     "ASC,1 3 4 6\r\nDIST,5 6 7 8\r\nZERO,1 3\r\nMAX,1 2\r\n"
     "RMIN,3 8\r\nNASC,2 5 7\r\nealm,0\r\nzpair,0\r\nzpos,2\r\n",
     ""),
    # the interval code and the composed bijections on that permutation (phi
    # refuses it; 75832416 is the avoider phi sends to its psi image), and
    # one input that each of them refuses
    ("apply --map bv 61832547", 0,
     '{"map": "bv", "input": "61832547", "output": "0,1,0,2,3,2,5,1"}\n',
     ""),
    ("apply --map bv 61832547 --format csv", 0,
     'map,input,output,side_index\r\nbv,61832547,"0,1,0,2,3,2,5,1",\r\n',
     ""),
    ("apply --map bv 1,1", 2,
     "",
     "error: cannot parse permutation from '1,1'\n"),
    ("apply --map psi 61832547", 0,
     '{"map": "psi", "input": "61832547", "output": "0,1,0,2,3,2,4,1"}\n',
     ""),
    ("apply --map psi 231 --format csv", 2,
     "",
     "error: 231 contains the forbidden pattern\n"),
    ("apply --map phi 75832416", 0,
     '{"map": "phi", "input": "75832416", "output": "0,1,0,2,3,2,4,1"}\n',
     ""),
    ("apply --map phi 75832416 --format csv", 0,
     'map,input,output,side_index\r\nphi,75832416,"0,1,0,2,3,2,4,1",\r\n',
     ""),
    ("apply --map phi 61832547", 2,
     "",
     "error: 61832547 contains the forbidden pattern\n"),
    ("apply --map upsilon 0,1,0,2,3,2,4,1", 0,
     '{"map": "upsilon", "input": "0,1,0,2,3,2,4,1", '
     '"output": "0,1,1,2,2,0,3,1"}\n',
     ""),
    ("apply --map upsilon 0,2", 2,
     "",
     "error: not an ascent sequence: (0, 2)\n"),
    ("apply --map beta --trace 0,1,0,2,3,2,5,1,7", 0,
     '{"map": "beta", "input": "0,1,0,2,3,2,5,1,7", '
     '"output": "0,1,0,2,3,2,4,1,5", "trace": [["7", '
     '"0,1,0,2,3,2,5,1,6"], ["5", "0,1,0,2,3,2,4,1,5"], ["2", '
     '"0,1,0,2,3,2,4,1,5"]]}\n',
     ""),
    ("apply --map beta --trace 0,1,0,2,3,2,5,1,7 --format csv", 0,
     "map,input,output,side_index\r\n"
     'beta,"0,1,0,2,3,2,5,1,7","0,1,0,2,3,2,4,1,5",\r\n'
     'trace,7,"0,1,0,2,3,2,5,1,6"\r\n'
     'trace,5,"0,1,0,2,3,2,4,1,5"\r\n'
     'trace,2,"0,1,0,2,3,2,4,1,5"\r\n',
     ""),
    ("apply --map xi_S4 0,0,1", 0,
     '{"map": "xi_S4", "input": "0,0,1", "output": "0,1,1", '
     '"side_index": 0}\n',
     ""),
    ("apply --map xi_S4 0,0,1 --format csv", 0,
     'map,input,output,side_index\r\nxi_S4,"0,0,1","0,1,1",0\r\n',
     ""),
    ("apply --map xi_S4 --direction inverse --side-index 0 0,1,1", 0,
     '{"map": "xi_S4", "input": "0,1,1", "output": "0,0,1"}\n',
     ""),
    ("apply --map xi_S4 --direction inverse --side-index 0 0,1,1 "
     "--format csv", 0,
     'map,input,output,side_index\r\nxi_S4,"0,1,1","0,0,1",\r\n',
     ""),
    # the other pair outputs: each reduce forward and each walk inverse
    # writes its sequence and its side index
    ("apply --map s2_reduce 0,1,2,2,0", 0,
     '{"map": "s2_reduce", "input": "0,1,2,2,0", "output": "0,1,2,0", '
     '"side_index": 2}\n',
     ""),
    ("apply --map s2_reduce 0,1,2,2,0 --format csv", 0,
     'map,input,output,side_index\r\ns2_reduce,"0,1,2,2,0","0,1,2,0",2\r\n',
     ""),
    ("apply --map s3_reduce 0,1,2,1,2", 0,
     '{"map": "s3_reduce", "input": "0,1,2,1,2", "output": "0,1,2,2", '
     '"side_index": 1}\n',
     ""),
    ("apply --map s3_reduce 0,1,2,1,2 --format csv", 0,
     'map,input,output,side_index\r\ns3_reduce,"0,1,2,1,2","0,1,2,2",1\r\n',
     ""),
    ("apply --map vartheta --direction inverse --trace 0,0,1,3,4", 0,
     '{"map": "vartheta", "input": "0,0,1,3,4", "output": "0,1,2,3,3", '
     '"side_index": 0, "trace": [["undo_M1", "0,1,1,2,4"], ["undo_M1", '
     '"0,1,2,2,3"], ["undo_M0", "0,1,2,3,3"]]}\n',
     ""),
    ("apply --map vartheta --direction inverse --trace 0,0,1,3,4 "
     "--format csv", 0,
     'map,input,output,side_index\r\nvartheta,"0,0,1,3,4","0,1,2,3,3",0\r\n'
     'trace,undo_M1,"0,1,1,2,4"\r\n'
     'trace,undo_M1,"0,1,2,2,3"\r\n'
     'trace,undo_M0,"0,1,2,3,3"\r\n',
     ""),
    ("apply --map theta_R --direction inverse 0,1,1,0,0", 0,
     '{"map": "theta_R", "input": "0,1,1,0,0", "output": "0,0,0,0,1", '
     '"side_index": 0}\n',
     ""),
    ("apply --map theta_R --direction inverse 0,1,1,0,0 --format csv", 0,
     'map,input,output,side_index\r\ntheta_R,"0,1,1,0,0","0,0,0,0,1",0\r\n',
     ""),
    ("apply --map xi_S4 --direction inverse 0,1,1 --format csv", 2,
     "",
     "error: map 'xi_S4' needs --side-index here\n"),
    # the guard of each family of decomposition maps refuses a non-member
    # and a member outside the map's block
    ("apply --map phi_G 0,1,0,1", 2,
     "",
     "error: not in block G: (0, 1, 0, 1)\n"),
    ("apply --map xi_S4 0,2", 2,
     "",
     "error: not in block S4: (0, 2)\n"),
    ("apply --map mpair_shift --direction up 0,1,0", 2,
     "",
     "error: drop-by-one pattern present: (0, 1, 0)\n"),
    ("apply --map zpair_shift --direction up 0,2", 2,
     "",
     "error: not an ascent sequence: (0, 2)\n"),
    ("apply --map vartheta --side-index 0 0,1,1,0", 2,
     "",
     "error: not a nonempty drop-by-one-avoiding sequence: (0, 1, 1, 0)\n"),
    # a direction or a side index that the map's shape does not take, and
    # a map of no name
    ("apply --map xi_S4 --direction up 0,0,1", 2,
     "",
     "error: map 'xi_S4' takes --direction forward or inverse, not 'up'\n"),
    ("apply --map phi_P --side-index 1 0,1,2", 2,
     "",
     "error: map 'phi_P' does not take --side-index\n"),
    ("apply --map nope 0", 2,
     "",
     "error: unknown map 'nope'; available: theta_lehmer, bv, bv_inv, "
     "beta, beta_inv, gamma, gamma_inv, psi, psi_inv, phi, phi_inv, "
     "upsilon, phi_P, xi_S4, s2_reduce, s3_reduce, ealm_shift, psi_F, "
     "mpair_shift, vartheta, phi_G, zpair_shift, theta_R\n"),
    # a side index outside its range is refused with the range
    ("apply --map vartheta --side-index -1 0,0,2,2,0", 2,
     "",
     "error: index -1 outside [0, mpair-1] for (0, 0, 2, 2, 0)\n"),
    ("table --class ASC --n 4 --stats rep,max", 0,
     '{"class": "ASC", "n": 4, "stats": ["rep", "max"], '
     '"total": 15, "counts": [[[0, 4], 1], [[1, 1], 1], [[1, 2], '
     "2], [[1, 3], 3], [[2, 1], 3], [[2, 2], 4], [[3, 1], 1]]}\n",
     ""),
    ("table --class ASC --n 4 --stats rep,max --format csv", 0,
     "rep,max,count\r\n0,4,1\r\n1,1,1\r\n1,2,2\r\n1,3,3\r\n"
     "2,1,3\r\n2,2,4\r\n3,1,1\r\n",
     ""),
    ("table --class ASC --n 3 --stats bogus --format csv", 2,
     "",
     "error: unknown statistic 'bogus'; usable: asc, rep, zero, "
     "max, rmin, nasc, ealm, zpair, zpos, mpair, mpos\n"),
    # the set-valued names read by the transports are no table statistics
    ("table --class ASC --n 3 --stats ASC", 2,
     "",
     "error: unknown statistic 'ASC'; usable: asc, rep, zero, "
     "max, rmin, nasc, ealm, zpair, zpos, mpair, mpos\n"),
    ("table --class PERM_ALL --n 3 --stats DES", 2,
     "",
     "error: statistic 'DES' does not apply to PERM_ALL; usable: des, "
     "ides, iasc, lmax, lmin, rmax\n"),
    ("table --class ASC --n 3 --stats ,", 2,
     "",
     "error: at least one statistic name is required\n"),
    ("table --class INV --n 12 --stats asc --format csv", 3,
     "",
     "resource limit: length 12 exceeds the cap of 9 for INV\n"),
    ("table --class ASC --n 0 --stats asc", 2,
     "",
     "error: length must be a positive integer, got 0\n"),
    ("table --class PERM_ALL --n 10 --stats des", 3,
     "",
     "resource limit: length 10 exceeds the cap of 9 for PERM_ALL\n"),
    ("series --which G --order 4 --x 2/3 --q 3 --u 1/2 --z 5/7", 0,
     '["0", "15/7", "415/98", "39065/4116", "3940435/172872"]\n',
     ""),
    ("series --which G --order 4 --x 2/3 --q 3 --u 1/2 --z 5/7 "
     "--format csv", 0,
     "0,0\r\n1,15/7\r\n2,415/98\r\n3,39065/4116\r\n"
     "4,3940435/172872\r\n",
     ""),
    ("series --which zeromax --order 4 --seed 7", 0,
     '["0", "7/3", "154/9", "3703/27", "90727/81"]\n',
     'point: {"x": "2", "q": "7", "u": "2/9", "z": "1/3", '
     '"w": "10"}\n'),
    ("series --which zeromax --order 4 --seed 7 --format csv", 0,
     "0,0\r\n1,7/3\r\n2,154/9\r\n3,3703/27\r\n4,90727/81\r\n",
     'point: {"x": "2", "q": "7", "u": "2/9", "z": "1/3", '
     '"w": "10"}\n'),
    # the two variants of the (asc, zero) series agree
    ("series --which asczero1 --order 4 --u 2/3 --z 3", 0,
     '["0", "3", "11", "127/3", "1529/9"]\n',
     ""),
    ("series --which asczero2 --order 4 --u 2/3 --z 3 --format csv", 0,
     "0,0\r\n1,3\r\n2,11\r\n3,127/3\r\n4,1529/9\r\n",
     ""),
    ("series --which zeromax --order 4 --x 2 --format csv", 2,
     "",
     "error: series 'zeromax' does not take --x; markers: q, z\n"),
    ("series --which fishburn --order 13 --format csv", 3,
     "",
     "resource limit: series order 13 exceeds the cap of 12\n"),
    ("series --which fishburn --order 0", 2,
     "",
     "error: series order must be a positive integer, got 0\n"),
    ("series --which G --x 2 --u 2", 2,
     "",
     "error: inadmissible point: x + u - x*u = 0, which is the constant "
     "term of every denominator in the sum\n"),
    ("series --which G --x abc", 2,
     "",
     "error: not an exact rational: 'abc' (write e.g. 2/3)\n"),
    ("series --which G --x 1/0", 2,
     "",
     "error: not an exact rational: '1/0' (write e.g. 2/3)\n"),
    ("series --which zeromax --q 2/3 --z zz", 2,
     "",
     "error: not an exact rational: 'zz' (write e.g. 2/3)\n"),
    ("check --name conjecture1", 0,
     '[{"name": "conjecture1", "parameters": {"max_n": 10}, '
     '"verdict": "pass", "counterexample": null, "seconds": 0}]\n',
     ""),
    ("check --name zeromax_sym", 0,
     '[{"name": "zeromax_sym", "parameters": {"max_n": 10}, '
     '"verdict": "pass", "counterexample": null, "seconds": 0}]\n',
     ""),
    ("check --name inv_sym", 0,
     '[{"name": "inv_sym", "parameters": {"max_n": 8}, '
     '"verdict": "pass", "counterexample": null, "seconds": 0}]\n',
     ""),
    ("check --name inv_sym --max-n 5", 0,
     '[{"name": "inv_sym", "parameters": {"max_n": 5}, '
     '"verdict": "pass", "counterexample": null, "seconds": 0}]\n',
     ""),
    ("check --name inv_sym --max-n 5 --format csv", 0,
     "name,verdict,seconds,parameters,counterexample\r\n"
     'inv_sym,pass,0,"{""max_n"": 5}",\r\n',
     ""),
    ("check --name gf_zeromax --order 4 --points 2 --seed 3", 0,
     '[{"name": "gf_zeromax", "parameters": {"order": 4, '
     '"points": 2, "seed": 3}, "verdict": "pass", '
     '"counterexample": null, "seconds": 0}]\n',
     ""),
    ("check --name gf_zeromax --order 4 --points 2 --seed 3 --format csv", 0,
     "name,verdict,seconds,parameters,counterexample\r\n"
     'gf_zeromax,pass,0,"{""order"": 4, ""points"": 2, '
     '""seed"": 3}",\r\n',
     ""),
    ("check --name gf_G --points 0 --format csv", 2,
     "",
     "error: parameter 'points' of check 'gf_G' must be a positive integer, "
     "got 0\n"),
    ("check --name conjecture1 --max-n 13 --format csv", 3,
     "",
     "resource limit: length 13 exceeds the cap of 12 for ASC\n"),
]


def _over_limit(*args, **kwargs):
    raise ResourceLimitError("injected")


class TestExactOutput:
    @pytest.mark.parametrize("argv, code, out, err", EXACT,
                             ids=[row[0] for row in EXACT])
    def test_pinned(self, capsys, argv, code, out, err):
        got_code, got_out, got_err = run(capsys, *argv.split())
        assert (got_code, seconds_dropped(got_out), got_err) == (
            code, out, err)

    # stats and apply have no limit of their own: raise one inside them
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, patch", [
        ("stats --class ASC 0,1,0", lambda mp: mp.setattr(
            fishburn.stats, "scalar_stats", _over_limit)),
        ("apply --map beta 0,1,0", lambda mp: mp.setitem(
            cli._MAPS, "beta", ("seq", _over_limit, None)))],
        ids=["stats", "apply"])
    def test_limit_inside_a_handler_writes_nothing(
            self, capsys, monkeypatch, argv, patch, fmt):
        patch(monkeypatch)
        assert run(capsys, *argv.split(), "--format", fmt) == (
            3, "", "resource limit: injected\n")


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

    def test_members_stay_lazy(self):
        # main writes the members one at a time, so they are never held;
        # the CSV rows read the same stream of texts
        args = cli.build_parser().parse_args(
            ["enumerate", "--class", "ASC", "--n", "10"])
        _, texts, rows = args.handler(args)
        assert isinstance(texts, Iterator) and isinstance(rows, Iterator)
        assert next(texts) == "0,0,0,0,0,0,0,0,0,0"
        assert next(rows) == ["0,0,0,0,0,0,0,0,0,1"]

    def test_resource_limit(self, capsys):
        code, _, err = run(capsys, "enumerate", "--class", "ASC", "--n", "40")
        assert code == 3
        assert err.startswith("resource limit:")

    @pytest.mark.parametrize("limit, code, err", [
        ("2", 3, "resource limit: length 3 exceeds the cap of 2 for ASC\n"),
        ("-5", 2, "error: limit must be a positive integer, got -5\n"),
        ("0", 2, "error: limit must be a positive integer, got 0\n")])
    def test_limit(self, capsys, limit, code, err):
        assert run(capsys, "enumerate", "--class", "ASC", "--n", "3",
                   "--limit", limit) == (code, "", err)


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

    def test_no_series_takes_w(self, capsys):
        # no series takes w, so there is no --w: argparse reads the prefix
        # as --which
        with pytest.raises(SystemExit) as exc:
            cli.main(["series", "--which", "G", "--order", "3", "--w", "2"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "invalid choice" in err

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

    @pytest.fixture
    def poisoned_cache(self, tmp_path, monkeypatch):
        # poison the cached table conjecture1 reads at n = 3
        monkeypatch.setenv("FISHBURN_CACHE", str(tmp_path))
        stats = ("asc", "rep", "zero", "max")
        harness.dist_table(ClassId.ASC, 3, stats)
        path = harness._cache_path(ClassId.ASC, 3, stats)
        payload = json.loads(path.read_text())
        payload["counts"][0][1] += 1
        path.write_text(json.dumps(payload))

    def test_failing_check_exits_one(self, capsys, poisoned_cache):
        code, out, _ = run(capsys, "check", "--name", "conjecture1",
                           "--max-n", "3")
        assert code == 1
        report = json.loads(out)[0]
        assert report["verdict"] == "fail"
        assert report["counterexample"]["n"] == 3

    def test_failing_check_csv(self, capsys, poisoned_cache):
        code, out, err = run(capsys, "check", "--name", "conjecture1",
                             "--max-n", "3", "--format", "csv")
        assert (code, seconds_dropped(out), err) == (1, (
            'name,verdict,seconds,parameters,counterexample\r\n'
            'conjecture1,fail,0,"{""max_n"": 3}","{""n"": 3, '
            '""tables"": [""ASC (asc,rep,zero,max)"", '
            '""ASC (rep,asc,max,zero)""], ""tuple"": [0, 2, 3, 1], '
            '""counts"": [2, 1]}"\r\n'), "")

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "check", "--name", "inv_sym",
                           "--max-n", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["name", "verdict", "seconds"]
        assert lines[1].startswith("inv_sym,pass")

    @pytest.mark.parametrize("under, reason", [
        ("", "File exists"), ("/tables", "Not a directory")],
        ids=["file", "under-a-file"])
    @pytest.mark.parametrize("argv", [
        "table --class ASC --n 3 --stats asc",
        "check --name conjecture1 --max-n 3"], ids=["table", "check"])
    def test_unwritable_cache_is_a_usage_error(
            self, capsys, tmp_path, monkeypatch, argv, under, reason):
        # a regular file stands where the cache directory would be made
        blocker = tmp_path / "cache"
        blocker.write_text("")
        monkeypatch.setenv("FISHBURN_CACHE", f"{blocker}{under}")
        assert run(capsys, *argv.split()) == (
            2, "", f"error: cannot write the table cache in "
                   f"{blocker}{under}: {reason}\n")


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

    def test_import_loads_no_unused_module(self):
        # a fresh interpreter without site, so only the package's own
        # imports count: these modules cost start-up time and memory, and
        # csv is imported by the one branch that writes CSV
        src = Path(fishburn.__file__).resolve().parents[1]
        unused = ("dataclasses", "inspect", "csv", "ast", "dis", "tokenize")
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
                "import fishburn.cli, fishburn.harness; "
                f"print(sorted(set({unused!r}) & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout, out.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_pipe_ends_quietly(self, fmt):
        # a reader that stops early, as `head -n 1` does (the JSON list is
        # one line of some 4 MB, so read a few bytes of either format)
        src = Path(fishburn.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        with subprocess.Popen(
                [sys.executable, "-m", "fishburn.cli", "enumerate",
                 "--class", "ASC", "--n", "10", "--format", fmt],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert proc.stdout.read(64)
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (0, b"")

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
