"""Command line surface: exit codes, outputs, and JSON mirrors."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from arrfree.arrangement import Arrangement
from arrfree.cli import main
from arrfree.freeness import InductionTable, verify_induction_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "tables"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def build(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, _ = run(capsys, "build", *argv, "--out", str(path))
    assert code == 0
    return str(path)


def test_build_intermediate(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "1")
    arr = Arrangement.from_text(Path(path).read_text())
    assert len(arr) == 10 and arr.dim == 3
    # without --out the file body goes to stdout
    code, out, _ = run(capsys, "build", "--family", "intermediate",
                       "--r", "3", "--ell", "3", "--k", "1")
    assert code == 0
    assert Arrangement.from_text(out) == arr


def test_build_group_and_restriction(capsys, tmp_path):
    path = build(capsys, tmp_path, "g.arr", "--group", "G25")
    assert len(Arrangement.from_text(Path(path).read_text())) == 12
    path = build(capsys, tmp_path, "r.arr", "--group", "G33",
                 "--restrict", "A1")
    arr = Arrangement.from_text(Path(path).read_text())
    assert (arr.dim, len(arr)) == (4, 28)


def test_build_rejects_bad_parameters(capsys, tmp_path):
    out = str(tmp_path / "x.arr")
    assert run(capsys, "build", "--family", "intermediate", "--r", "3",
               "--ell", "2", "--k", "5", "--out", out)[0] == 2
    assert run(capsys, "build", "--family", "intermediate", "--r", "3",
               "--out", out)[0] == 2
    assert run(capsys, "build", "--group", "G99", "--out", out)[0] == 2
    assert run(capsys, "build", "--group", "G33", "--restrict", "E8",
               "--out", out)[0] == 2


def test_exponents(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "2")
    code, out, _ = run(capsys, "exponents", path)
    assert code == 0
    assert out.splitlines()[0] == "1 4 6"
    assert "matches cardinality 11" in out
    code, out, _ = run(capsys, "exponents", path, "--json")
    payload = json.loads(out)
    assert payload["exponents"] == [1, 4, 6]
    assert payload["splits"] and payload["sum_matches_cardinality"]


def test_exponents_empty_and_errors(capsys, tmp_path):
    empty = tmp_path / "e.arr"
    empty.write_text("arr v1 dim=3 zeta=1\n")
    code, out, _ = run(capsys, "exponents", str(empty))
    assert code == 0 and out.splitlines()[0] == "0 0 0"
    assert run(capsys, "exponents", str(tmp_path / "missing.arr"))[0] == 3
    bad = tmp_path / "bad.arr"
    bad.write_text("not a header\n")
    assert run(capsys, "exponents", str(bad))[0] == 3


def test_induce_search(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "1")
    code, out, _ = run(capsys, "induce", path)
    assert code == 0
    rep = verify_induction_table(InductionTable.parse(out))
    assert rep.ok and rep.exponents == (1, 4, 5)


def test_induce_refutes(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "0")
    code, out, _ = run(capsys, "induce", path, "--json")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-inductively-free"


def test_induce_rank_limit(capsys, tmp_path):
    path = build(capsys, tmp_path, "g33.arr", "--group", "G33")
    code, _, err = run(capsys, "induce", path)
    assert code == 2 and "--force" in err


def test_induce_canonical(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "1")
    code, out, _ = run(capsys, "induce", path, "--order", "canonical",
                       "--r", "3", "--ell", "3")
    assert code == 0
    table = InductionTable.parse(out)
    assert table.rows[0].form == "a - b"
    assert table.final == (1, 4, 5)
    # canonical chain must match the file's arrangement
    other = build(capsys, tmp_path, "b.arr",
                  "--family", "intermediate", "--r", "3", "--ell", "3",
                  "--k", "2")
    assert run(capsys, "induce", other, "--order", "canonical",
               "--r", "3", "--ell", "3")[0] == 2
    assert run(capsys, "induce", path, "--order", "canonical")[0] == 2


def test_verify_table(capsys, tmp_path):
    good = FIXTURES / "g29_a1.tbl"
    code, out, _ = run(capsys, "verify-table", str(good))
    assert code == 0 and "1,9,11" in out
    bad = tmp_path / "bad.tbl"
    bad.write_text(good.read_text().replace("1,1,1 | a + b | 1,1",
                                            "1,1,1 | a + b | 1,2"))
    code, out, _ = run(capsys, "verify-table", str(bad))
    assert code == 1 and "row 4" in out
    mangled = tmp_path / "mangled.tbl"
    mangled.write_text("table v1 dim=3 zeta=4\n0,0,0 | a\n")
    assert run(capsys, "verify-table", str(mangled))[0] == 3


def test_count_nec(capsys, tmp_path):
    boolean = tmp_path / "bool.arr"
    boolean.write_text(Arrangement(
        4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        1).to_text())
    code, out, _ = run(capsys, "count-nec", str(boolean))
    assert code == 0
    assert out.splitlines()[1] == "n=1 N=4 exps=0,1,1,1"
    # wrong starting exponents are rejected before the scan
    assert run(capsys, "count-nec", str(boolean),
               "--exponents", "1,1,1,2")[0] == 2
    j1 = run(capsys, "count-nec", str(boolean), "--json", "--threads", "1")
    j2 = run(capsys, "count-nec", str(boolean), "--json", "--threads", "2")
    assert j1[0] == j2[0] == 0 and j1[1] == j2[1]


def test_zero_covector_is_a_parse_error(capsys, tmp_path):
    arr = tmp_path / "zero.arr"
    arr.write_text("arr v1 dim=3 zeta=1\n1, 0, 0\n0, 0, 0\n")
    for cmd in ("induce", "count-nec", "exponents"):
        code, out, err = run(capsys, cmd, str(arr), "--json")
        assert code == 3 and out == "" and "zero covector" in err, cmd
    tbl = tmp_path / "zero.tbl"
    tbl.write_text("table v1 dim=3 zeta=1\n0,0,0 | 0 | 0,0\n1,0,0 | |\n")
    code, out, err = run(capsys, "verify-table", str(tbl), "--json")
    assert code == 3 and out == "" and "zero form" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--r", "2", "--max-ell", "3")
    assert code == 0
    assert "all cells agree" in out and "NotIF" not in out
    code, out, _ = run(capsys, "classify", "--r", "3", "--max-ell", "3",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"]
    verdicts = {(c["ell"], c["k"]): c["inductively_free"]
                for c in payload["cells"]}
    assert verdicts[(3, 0)] is False and verdicts[(3, 1)] is True
    assert run(capsys, "classify", "--r", "1", "--max-ell", "3")[0] == 2


def test_hereditary(capsys, tmp_path):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "4",
                 "--k", "2")
    code, out, _ = run(capsys, "hereditary", path)
    assert code == 0 and out.splitlines()[-1] == "hereditarily inductively free"
    empty = tmp_path / "e.arr"
    empty.write_text("arr v1 dim=2 zeta=1\n")
    assert run(capsys, "hereditary", str(empty))[0] == 0
    bad = build(capsys, tmp_path, "b.arr",
                "--family", "intermediate", "--r", "3", "--ell", "4",
                "--k", "0")
    assert run(capsys, "hereditary", str(bad))[0] == 1


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "arrfree.cli", "classify", "--r", "2",
         "--max-ell", "3", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_agree"]
    assert "elapsed" in proc.stderr
