"""Command line surface: exit codes, outputs, and JSON mirrors."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arrfree
from arrfree import arrangement, catalog, cli, cyclotomic
from arrfree.arrangement import Arrangement
from arrfree.cli import main
from arrfree.cyclotomic import (
    MAX_DIM,
    MAX_NESTING,
    MAX_ORDER,
    Cyc,
    FormatError,
    root_of_unity,
)
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
    # a canonical chain of another dimension is a usage error, not a crash
    code, out, err = run(capsys, "induce", path, "--order", "canonical",
                         "--r", "3", "--ell", "4")
    assert code == 2 and out == "" and err.startswith("error: --ell 4")


def test_zeta_order_above_the_cap_is_a_parse_error(capsys, tmp_path):
    # one above the cap: rejected from the header, before any table is built
    arr = tmp_path / "big.arr"
    arr.write_text(f"arr v1 dim=2 zeta={MAX_ORDER + 1}\n1, 0\n")
    tbl = tmp_path / "big.tbl"
    tbl.write_text(f"table v1 dim=1 zeta={MAX_ORDER + 1}\n0 | a | \n1 | |\n")
    for argv in (("exponents", str(arr)), ("induce", str(arr)),
                 ("count-nec", str(arr)), ("verify-table", str(tbl))):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 3 and out == "" and "above the cap" in err, argv


def test_parser_caps_are_parse_errors(capsys, tmp_path):
    # one above each cap, in a covector entry and in a table's form
    deep = MAX_NESTING + 1
    for entry in ("(" * deep + "1" + ")" * deep, f"z^{MAX_ORDER + 1}"):
        arr = tmp_path / "deep.arr"
        arr.write_text(f"arr v1 dim=2 zeta=3\n1, {entry}\n")
        tbl = tmp_path / "deep.tbl"
        tbl.write_text(f"table v1 dim=2 zeta=3\n0,0 | ({entry})*a | 0\n"
                       "0,1 | |\n")
        for argv in (("exponents", str(arr)), ("induce", str(arr)),
                     ("verify-table", str(tbl))):
            code, out, err = run(capsys, *argv, "--json")
            assert code == 3 and out == "", (argv, err)
            assert "cap" in err, (argv, err)


def test_unreadable_numbers_are_parse_errors(capsys, tmp_path):
    # int() refuses more than 4300 digits by default, and digits such as
    # '²' that are not decimal
    big = "1" * 5000
    files = {
        "head.arr": f"arr v1 dim={big} zeta=3\n1, 0\n",
        "head.tbl": f"table v1 dim={big} zeta=3\n0 | a | \n1 | |\n",
        "form.tbl": f"table v1 dim=2 zeta=3\n0,0 | {big}*a | 0\n0,1 | |\n",
        "entry.arr": f"arr v1 dim=2 zeta=3\n1, {big}\n",
        "power.arr": "arr v1 dim=2 zeta=3\n1, z^\u00b2\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        cmd = "verify-table" if name.endswith(".tbl") else "exponents"
        code, out, err = run(capsys, cmd, str(path), "--json")
        assert code == 3 and out == "", (name, err)
        # a table form's error names its row
        where = "row 1: " if name == "form.tbl" else ""
        assert err.startswith(f"error: {where}cannot read the number"), \
            (name, err)


def test_dimension_above_the_cap(capsys, tmp_path):
    # one coordinate letter too many: a file header is unparseable, and
    # build refuses before writing a file that no reader accepts
    dim = MAX_DIM + 1
    arr = tmp_path / "wide.arr"
    zeros = ["0"] * (dim - 2)
    arr.write_text(f"arr v1 dim={dim} zeta=1\n"
                   + ", ".join(["1", "0"] + zeros) + "\n"
                   + ", ".join(["0", "1"] + zeros) + "\n")
    tbl = tmp_path / "wide.tbl"
    tbl.write_text(f"table v1 dim={dim} zeta=1\n{','.join(['0'] * dim)} | a"
                   f" | {','.join(['0'] * (dim - 1))}\n")
    for argv in (("exponents", str(arr)), ("induce", str(arr)),
                 ("verify-table", str(tbl))):
        code, out, err = run(capsys, *argv, "--json")
        assert code == 3 and out == "" and "above the cap" in err, argv
    out = tmp_path / "wide_build.arr"
    code, stdout, err = run(capsys, "build", "--family", "intermediate",
                            "--r", "3", "--ell", str(dim), "--k", "0",
                            "--out", str(out))
    assert code == 2 and stdout == "" and f"ell <= {MAX_DIM}" in err
    assert not out.exists()


def test_root_order_above_the_cap_is_a_usage_error(capsys, tmp_path,
                                                   monkeypatch):
    path = build(capsys, tmp_path, "a.arr",
                 "--family", "intermediate", "--r", "3", "--ell", "3",
                 "--k", "1")

    def refuse(*args):
        raise AssertionError("a root of unity was built")

    # one above the cap: rejected before any root of unity is built
    monkeypatch.setattr(catalog, "root_of_unity", refuse)
    r = str(MAX_ORDER + 1)
    out = tmp_path / "big.arr"
    for argv in (("build", "--family", "intermediate", "--r", r, "--ell", "2",
                  "--k", "0", "--out", str(out)),
                 ("classify", "--r", r, "--max-ell", "3"),
                 ("induce", path, "--order", "canonical", "--r", r,
                  "--ell", "3")):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and f"r <= {MAX_ORDER}" in err, argv
    assert not out.exists()


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
    # a zero dimension or zeta order in the header is unparseable too
    for text in ("table v1 dim=0 zeta=1\n0 | |\n",
                 "table v1 dim=3 zeta=0\n0,0,0 | a | 0,0\n0,0,1 | |\n"):
        mangled.write_text(text)
        code, out, err = run(capsys, "verify-table", str(mangled), "--json")
        assert code == 3 and out == "" and "must be positive" in err, text


def _random_small_arrangement(rng: random.Random) -> Arrangement:
    dim = rng.randint(1, 3)
    order = rng.choice([1, 2, 3, 4, 5])
    z = root_of_unity(order)
    pool = [0, 0, 1, -1, 2, z, -z, z ** 2 + 1]
    covs = []
    while len(covs) < rng.randint(1, 6):
        v = [Cyc(order, 0) + rng.choice(pool) for _ in range(dim)]
        if any(v):
            covs.append(v)
    return Arrangement(dim, covs, order)


def test_texts_and_tables_round_trip(capsys, tmp_path):
    rng = random.Random(2024)
    replayed = set()
    for n in range(40):
        arr = _random_small_arrangement(rng)
        text = arr.to_text()
        assert Arrangement.from_text(text) == arr, text
        path = tmp_path / f"a{n}.arr"
        path.write_text(text)
        code, out, _ = run(capsys, "induce", str(path), "--json")
        induced = json.loads(out)
        if code != 0:
            assert code == 1 and induced["verdict"] == "not-inductively-free"
            continue
        table = tmp_path / f"a{n}.tbl"
        table.write_text(induced["table"])
        code, out, err = run(capsys, "verify-table", str(table), "--json")
        assert code == 0, (induced["table"], err)
        assert json.loads(out)["exponents"] == induced["exponents"]
        replayed.add(arr.dim)
    assert replayed == {1, 2, 3}


def test_dimension_one_table(capsys, tmp_path):
    path = tmp_path / "line.arr"
    path.write_text("arr v1 dim=1 zeta=1\n1\n")
    code, out, _ = run(capsys, "induce", str(path))
    assert code == 0
    # the restriction to the origin has no exponents
    assert out.splitlines()[1] == "0 | a | "
    table = InductionTable.parse(out)
    assert table.rows[0].restriction_exps == () and table.final == (1,)
    assert table.to_text() == out
    assert verify_induction_table(table).exponents == (1,)
    for bad in ("0 | a | x", "0 | a | 1,", ",0 | a | "):
        with pytest.raises(FormatError, match="line 2: bad exponent list"):
            InductionTable.parse(f"table v1 dim=1 zeta=1\n{bad}\n1 | |\n")


def test_count_nec(capsys, tmp_path):
    boolean = tmp_path / "bool.arr"
    boolean.write_text(Arrangement(
        4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        1).to_text())
    code, out, _ = run(capsys, "count-nec", str(boolean))
    assert code == 0
    assert out.splitlines()[1] == "n=1 N=4 exps=0,1,1,1"
    # the census reaches the empty arrangement, so it does not die
    assert out.splitlines()[-1] == "n=5 N=0 exps="
    # wrong starting exponents are rejected before the scan
    assert run(capsys, "count-nec", str(boolean),
               "--exponents", "1,1,1,2")[0] == 2
    code, out, err = run(capsys, "count-nec", str(boolean),
                         "--exponents=-1,2,2")
    assert code == 2 and out == "" and "nonnegative" in err
    # a list that is not one exits 2 with the option and the text named
    with pytest.raises(SystemExit) as exc:
        run(capsys, "count-nec", str(boolean), "--exponents", "0,1,x")
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "--exponents" in err and "'0,1,x'" in err
    j1 = run(capsys, "count-nec", str(boolean), "--json", "--threads", "1")
    j2 = run(capsys, "count-nec", str(boolean), "--json", "--threads", "2")
    assert j1[0] == j2[0] == 0 and j1[1] == j2[1]


def test_count_nec_refutes_g34_a1(capsys, tmp_path):
    # the paper's rank-5 negative case, with its recorded exponents: the
    # census of removal orders dies at level 1, since no hyperplane has a
    # restriction of 85 - b hyperplanes for an exponent b
    path = build(capsys, tmp_path, "g34_a1.arr",
                 "--group", "G34", "--restrict", "A1")
    code, out, _ = run(capsys, "count-nec", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponents"] == [1, 13, 19, 25, 27]
    assert payload["levels"][-1] == {"n": 1, "N": 0, "exps": []}


FILE_COMMANDS = ("exponents", "induce", "verify-table", "count-nec",
                 "hereditary")


def test_non_utf8_input_is_a_parse_error(capsys, tmp_path):
    for name, body in (("bad.arr", b"arr v1 dim=3 zeta=1\n1, 0, \xff\n"),
                       ("bad.tbl", b"table v1 dim=1 zeta=1\n\xff | |\n")):
        path = tmp_path / name
        path.write_bytes(body)
        for cmd in FILE_COMMANDS:
            code, out, err = run(capsys, cmd, str(path), "--json")
            assert code == 3 and out == "", (cmd, name)
            assert err.startswith("error:") and "UTF-8" in err, (cmd, name)


# exit code 1 is a negative verdict: the payload key and value that say so
NEGATIVE = {"exponents": ("splits", False),
            "induce": ("verdict", "not-inductively-free"),
            "verify-table": ("ok", False),
            "hereditary": ("ok", False)}


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out) + 1)
        kind = rng.randrange(3)
        if kind == 0 and pos < len(out):
            out[pos] ^= 1 << rng.randrange(8)
        elif kind == 1 and pos < len(out):
            del out[pos]
        else:
            # characters of the formats themselves, and two bytes that
            # are not UTF-8
            out.insert(pos, rng.choice(b"0123456789,|-+*z \n\xff\x80"))
    return bytes(out)


def test_mutated_inputs_keep_the_exit_code_contract(capsys, tmp_path):
    inputs = Path(__file__).resolve().parent.parent / "bench" / "inputs"
    seeds = [inputs / f"int_3_3_{k}.arr" for k in range(4)]
    seeds += [FIXTURES / "g33_a2.tbl", FIXTURES / "g29_a1.tbl"]
    rng = random.Random(20261018)
    codes = set()
    for case in range(200):
        source = seeds[case % len(seeds)]
        path = tmp_path / f"m{case}{source.suffix}"
        path.write_bytes(_mutate(rng, source.read_bytes()))
        for cmd in FILE_COMMANDS:
            try:
                code, out, err = run(capsys, cmd, str(path), "--json")
            except Exception as e:
                pytest.fail(f"{cmd} {path.read_bytes()!r} raised {e!r}")
            assert code in (0, 1, 2, 3), (cmd, path.read_bytes())
            codes.add(code)
            if code in (2, 3):
                assert out == "" and err.startswith("error:"), \
                    (cmd, path.read_bytes(), err)
                continue
            payload = json.loads(out)
            assert payload["command"] == cmd
            if code == 1:
                key, value = NEGATIVE[cmd]
                assert payload[key] == value, (cmd, path.read_bytes())
    # the mutations reach success, verdicts and parse errors
    assert {0, 1, 3} <= codes


def test_zero_covector_is_a_parse_error(capsys, tmp_path):
    arr = tmp_path / "zero.arr"
    arr.write_text("arr v1 dim=3 zeta=1\n1, 0, 0\n0, 0, 0\n")
    for cmd in ("induce", "count-nec", "exponents"):
        code, out, err = run(capsys, cmd, str(arr), "--json")
        assert code == 3 and out == "" and "zero covector" in err, cmd
    tbl = tmp_path / "zero.tbl"
    tbl.write_text("table v1 dim=3 zeta=1\n0,0,0 | 0 | 0,0\n1,0,0 | |\n")
    code, out, err = run(capsys, "verify-table", str(tbl), "--json")
    assert code == 3 and out == "" and "error: row 1: the zero form" in err


def test_table_form_errors_name_their_row(capsys, tmp_path):
    head = "table v1 dim=3 zeta=1\n0,0,0 | a | 0,0\n1,0,0 | b | 0,1\n"
    for form, message in (("q + b", "unknown coordinate 'q'"),
                          ("a - a", "the zero form")):
        tbl = tmp_path / "bad.tbl"
        tbl.write_text(head + f"1,1,0 | {form} | 0,1\n1,1,1 | |\n")
        code, out, err = run(capsys, "verify-table", str(tbl), "--json")
        assert code == 3 and out == "", form
        assert f"error: row 3: {message}" in err, err


@pytest.mark.parametrize("exc", [
    arrangement.NotAFlat, arrangement.ZeroDimensional,
    arrangement.NonSplitting, arrangement.NotMember,
    cyclotomic.IncompatibleOrder, cyclotomic.DivisionByZero])
def test_library_errors_are_usage_errors(capsys, monkeypatch, tmp_path, exc):
    def raising(args):
        raise exc("raised by the library")

    monkeypatch.setattr(cli, "cmd_exponents", raising)
    path = build(capsys, tmp_path, "a.arr", "--family", "intermediate",
                 "--r", "3", "--ell", "3", "--k", "1")
    code, out, err = run(capsys, "exponents", path, "--json")
    assert code == 2 and out == ""
    assert "error: raised by the library" in err


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
    # the child imports the same arrfree as this process, installed or not
    src = str(Path(arrfree.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, path] if path else [src]))
    proc = subprocess.run(
        [sys.executable, "-m", "arrfree.cli", "classify", "--r", "2",
         "--max-ell", "3", "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_agree"]
    assert "elapsed" in proc.stderr
