"""Pinned CLI outputs: the sha256 of stdout and the exit code of each run.

The replay pins were recorded before the replay read restrictions mod P,
from exact restrictions, so a change to how a chain is replayed cannot
change these bytes unnoticed.  The catalog pins (`build --group`, its
restrictions, and a digest of `flat_orbits`) were recorded before the
mirror closure ran on residues mod P, from the exact closure.  Every
table is read by a relative name from one directory, since the JSON
payload names the file it read.

The corrupted copies raise the last claimed restriction exponent of one
row by a fixed amount.

The search pins (`induce FILE`, text and JSON) were recorded before the
chain search read a dimension-3 restriction's exponents off its size,
from restrictions built and decided as lattices of their own.

The intermediate(3, 7, 5) pins (`induce --order canonical --json` and
`verify-table --json` on the table of that chain) were recorded before a
replay read a rank-raising row's restriction off the chain's own
characteristic polynomial, from restriction lattices built in
dimension 6.

The pins of every shipped group restricted to every type tag were
recorded before `restriction_by_type` filtered `flat_orbits`' labels,
from its own scan of the orbit levels.  The orbit digests past codim 3
were recorded once `flat_orbits` labelled every codim, after their orbit
sizes were checked to sum to the flats of their rank and each
representative to have codim rows.

The census pins (`count-nec --json`) were recorded before a removal
updated a hyperplane's partners on two-member lines as one mask and the
census kept one removal table per set of multisets.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from arrfree.arrangement import Arrangement
from arrfree.catalog import (_TYPE_TABLE, canonical_induction_order,
                             flat_orbits, group, group_names, intermediate,
                             restriction_by_type)
from arrfree.cli import main
from arrfree.freeness import certify_chain, emit_induction_table

ROOT = Path(__file__).resolve().parent.parent
TABLES = {path.stem: path for path in sorted(
    (ROOT / "fixtures" / "tables").glob("*.tbl"))}
TABLES.update({stem: ROOT / "bench" / "inputs" / f"{stem}.tbl"
               for stem in ("chain_3_6_4", "chain_4_6_4")})

# stem -> (table row, amount added to its last restriction exponent)
CORRUPTED = {
    "g29_a1": (10, 1),
    "g31_a1": (15, 2),
    "g33_a1sq": (8, 1),
    "g33_a2": (7, 2),
    "g34_a1a2": (15, 1),
    "g34_a1cube": (16, 2),
    "g34_a3": (12, 1),
    "chain_3_6_4": (24, 1),
    "chain_4_6_4": (32, 2),
}

GOLDEN = {
    "g29_a1.tbl": (
        0, "5f227d97b27d61b14393ea64add949506fdc7b02472292dc9d9ab99b77ad4cfe"),
    "g29_a1.tbl --json": (
        0, "d3a1abfd3b119f73a3f14f103d5f2048862ea7f487f1849706cb7fea4c2bf76f"),
    "g29_a1_bad.tbl": (
        1, "194e0f4e9f2e53016e1ce96cc8bef24846086c1ba4270ffc8263636f14103089"),
    "g29_a1_bad.tbl --json": (
        1, "53ba57fbc68c1e4bb4c1b063009ba063667a5b73913ce2791537630c0aad6444"),
    "g31_a1.tbl": (
        0, "04235a5d95db532eb517ba264e9cc28e107be1282cd48d34ffeabfaa48629ba8"),
    "g31_a1.tbl --json": (
        0, "9ed0c09d2690e38041f7d56dd77251aa6b78f5b668af8fc3f7e1e54be85a93f9"),
    "g31_a1_bad.tbl": (
        1, "1596b247b8f085d7342148c141c33624a47a6df53d4b391d937ea22bae8968bb"),
    "g31_a1_bad.tbl --json": (
        1, "668f32d3ee3ca14c2e2b1e625006499e6f34481e0106c8ba347ff7fc8b0cfc08"),
    "g33_a1sq.tbl": (
        0, "165ba7d9ed08ac905fcd3ec65c4b9694a7c6eb642d80e415e4493205bbba2b43"),
    "g33_a1sq.tbl --json": (
        0, "c743913629463058dce8c061eb6218d93e6ae46f33397d89ac307239991d39c0"),
    "g33_a1sq_bad.tbl": (
        1, "6f51ab0292909d30751eafadab3c5ed6a0c917ed4bfb1f46e39ba213529baaef"),
    "g33_a1sq_bad.tbl --json": (
        1, "58fbfb24d036f5624c409878a8390ed0b906854888cd523b58f8651b504fa518"),
    "g33_a2.tbl": (
        0, "f6ef825234968bda4708c79dc2e9056ce9e746021abcf52b4f9ce7ae4f2bb8e3"),
    "g33_a2.tbl --json": (
        0, "9aae2bc86355bd792f16a1c5229caebecd8ff9993b2f9c1283c130580f81845f"),
    "g33_a2_bad.tbl": (
        1, "a32107c676ce4d802b2606a7310790f27b609e080d1010a53b120ca4ec6c7f24"),
    "g33_a2_bad.tbl --json": (
        1, "16cd066f799ac08085510da05f0745a08f6ce2265ed5e2bdfbdee01141946ae0"),
    "g34_a1a2.tbl": (
        0, "47425a95abc5cc1d61ff4da73d8356f82f89eeb1d31e46519f90c066b8f5416f"),
    "g34_a1a2.tbl --json": (
        0, "a54e1bb7b49f3ced2fd30b7e0a46c2838c9626dc3ad9d76efba8ba5d6c1f0c87"),
    "g34_a1a2_bad.tbl": (
        1, "d9d0e0da6ea719eabf43f3e50f56ee3025e3080a60159205ae29f1201fcf716d"),
    "g34_a1a2_bad.tbl --json": (
        1, "1796032adb21a99f96e99aff7c38c88cb4316ec1f71e0413f1c5c5dcd7903867"),
    "g34_a1cube.tbl": (
        0, "0a5fb0acfd335f4bcc0e28ac4dc3502e736500f4ba228711c7dde919dc1612af"),
    "g34_a1cube.tbl --json": (
        0, "89beb6756ab87460eeaed307499dd982a4f41622890172a85026acd5ec55f854"),
    "g34_a1cube_bad.tbl": (
        1, "c35dce11d1fea0081f59434a013638654ebb19048eb72e85698979dc63163a13"),
    "g34_a1cube_bad.tbl --json": (
        1, "75afa6f67ea6f31902fd3066c5569dc9506f16e502297b0ec138494ddcb9a394"),
    "g34_a3.tbl": (
        0, "5b1681890e090b31fcc36353d05019a82ecebb13907f813961739edd42eb9e64"),
    "g34_a3.tbl --json": (
        0, "8450bfd84d38b00e162a783d148aa9ef1fb68a65d48dc367230ec2579e508ec7"),
    "g34_a3_bad.tbl": (
        1, "6a02839a618d66b070bcf114fe3cae2d4930cbc11bb8dd770b5ceafc0a4446fa"),
    "g34_a3_bad.tbl --json": (
        1, "0f0b2926b3b19dc8d31cae8553ec878a2ca59482848be7e646f02ade5dcdd075"),
    "chain_3_6_4.tbl": (
        0, "57f13f577e6e11201ba12f3f727e87d2861887077ccf99be49d46cceeed55926"),
    "chain_3_6_4.tbl --json": (
        0, "4e23f35fef51863914fa5cddc5d345b6d0d02054aa7b6937aaaa63f9f3474c6b"),
    "chain_3_6_4_bad.tbl": (
        1, "82302a5a1dbcd2baf9df61242831c7ad06ad35f47f3cbc5a22933c6b0323da4d"),
    "chain_3_6_4_bad.tbl --json": (
        1, "ea01ddf270be1e3b11b0a0ffd2da74919129817e7cfbd3f6f44f45ef9007fa55"),
    "chain_4_6_4.tbl": (
        0, "460d3c10dbe03e6f556140f44940a07fe07a8d79e6fbade8c397efe7fda78bc3"),
    "chain_4_6_4.tbl --json": (
        0, "1256477732b17d4d6880279c11eb2cab03dd68218953903b8700e4d642eb3cd4"),
    "chain_4_6_4_bad.tbl": (
        1, "063f2e24c8a98e7dc9b2bb3d1981bef78422bcf1207afe587563f15e8a68ff5f"),
    "chain_4_6_4_bad.tbl --json": (
        1, "ce36853525497907b1d45151c296c7f914cc6c1d1dd38949487ef562fc3f9733"),
    "int_3_4_2.arr --order canonical --json": (
        0, "bc7e010406c6573db0a53d4e69eb3cc78cadf7b1fd333e5b1d319a0f7584423c"),
    "int_2_5_3.arr --order canonical --json": (
        0, "578576d6c4f04ab531b3abd6c753389baca6441a57dfe08323464de7cf4f1ac8"),
    "int_3_5_3.arr --order canonical --json": (
        0, "189391362165e6b4a0d94209bf03ab30d019f3a20df897e6e5b361678c474156"),
    "int_4_5_3.arr --order canonical --json": (
        0, "a9513581e9dce806e150eafb93bb84932fd8bdafbcb0681cd1be02a9320d4e72"),
    "int_2_6_4.arr --order canonical --json": (
        0, "4b14f159b7692b30e3a5833fd2505a4df4e93b358d7b4eac5a8cb3adb5cea143"),
    "canonical_3_5_bad.tbl --json": (
        1, "476fb1b5449b11cd2e83761c85d2025af7204e7d5f595de5945f522bbeef7dfa"),
    "int_3_7_5.arr --order canonical --json": (
        0, "c467b6faccdfffd3f052bc6ef6785fbf192a7b576a50d32a0dbfc5ce808c2c3d"),
    "canonical_3_7.tbl --json": (
        0, "3fe77cbfcfb2bb9dcfe01d1d56ab55beffb21832adfc104800190f65ad8fdad8"),
}


# (form, table row) -> the error line of `verify-table` on g29_a1.tbl with
# that row's form replaced, which exits 3 with nothing on stdout; recorded
# before the rows of a table shared one parse memo
MALFORMED = {
    ("a*b", 3): "error: row 3: product of coordinates is not linear",
    ("2 3*b", 5): "error: row 5: unexpected trailing input at '3'",
    ("(a", 1): "error: row 1: unbalanced parenthesis",
    ("a + 1", 21): "error: row 21: linear form has a nonzero constant term",
    ("a + z*b )", 2): "error: row 2: unexpected trailing input at ')'",
    ("a + + b", 4): "error: row 4: unexpected token '+'",
    ("z^-1*a", 6): "error: row 6: exponent must be a nonnegative integer",
    ("a + z*b - z*c + d", 7):
        "error: row 7: unknown coordinate 'd' for dimension 3",
}


def _table_rows(lines) -> list:
    """The indices of the lines of a table's rows, the final line not
    included."""
    return [n for n, line in enumerate(lines) if line.count("|") == 2
            and line.split("|")[1].strip()]


def _corrupt(text: str, row: int, amount: int) -> str:
    lines = text.splitlines()
    n = _table_rows(lines)[row - 1]
    before, form, restr = lines[n].split("|")
    exps = [int(p) for p in restr.split(",")]
    exps[-1] += amount
    lines[n] = f"{before}|{form}| {','.join(str(e) for e in exps)}"
    return "\n".join(lines) + "\n"


def _runs():
    """(name, file name, file text, argv) of every pinned run."""
    out = []
    for stem, path in TABLES.items():
        text = path.read_text()
        bad = _corrupt(text, *CORRUPTED[stem])
        for name, body in ((f"{stem}.tbl", text), (f"{stem}_bad.tbl", bad)):
            out.append((name, name, body, ["verify-table", name]))
            out.append((f"{name} --json", name, body,
                        ["verify-table", name, "--json"]))
    for r, ell in ((3, 4), (2, 5), (3, 5), (4, 5), (2, 6), (3, 7)):
        name = f"int_{r}_{ell}_{ell - 2}.arr"
        out.append((f"{name} --order canonical --json", name,
                    intermediate(r, ell, ell - 2).to_text(),
                    ["induce", name, "--order", "canonical", "--json"]))
    # row 32, the last, restricts to the keys of row 31 and one more
    chain = certify_chain(5, 3, canonical_induction_order(3, 5))
    text = emit_induction_table(intermediate(3, 5, 3), chain.certificate)
    out.append(("canonical_3_5_bad.tbl --json", "canonical_3_5_bad.tbl",
                _corrupt(text, 32, 1),
                ["verify-table", "canonical_3_5_bad.tbl", "--json"]))
    # 68 rows, seven of which raise the rank
    chain = certify_chain(7, 3, canonical_induction_order(3, 7))
    text = emit_induction_table(intermediate(3, 7, 5), chain.certificate)
    out.append(("canonical_3_7.tbl --json", "canonical_3_7.tbl", text,
                ["verify-table", "canonical_3_7.tbl", "--json"]))
    return out


def outputs(workdir: Path, capsys) -> dict:
    """{name: (exit code, sha256 of stdout)} of every pinned run, with
    its files written to workdir, the current directory."""
    got = {}
    for name, file, text, argv in _runs():
        (workdir / file).write_text(text)
        code = main(argv)
        stdout = capsys.readouterr().out
        got[name] = (code, hashlib.sha256(stdout.encode()).hexdigest())
    return got


def test_corrupted_rows_exist():
    for stem, (row, _) in CORRUPTED.items():
        text = TABLES[stem].read_text()
        assert _corrupt(text, row, 1) != text


def test_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = outputs(tmp_path, capsys)
    assert len(got) == 44
    assert got == GOLDEN


def test_malformed_rows_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = TABLES["g29_a1"].read_text()
    for (form, row), line in MALFORMED.items():
        lines = text.splitlines()
        n = _table_rows(lines)[row - 1]
        before, _, restr = lines[n].split("|")
        lines[n] = f"{before}| {form} |{restr}"
        (tmp_path / "bad.tbl").write_text("\n".join(lines) + "\n")
        code = main(["verify-table", "bad.tbl"])
        out, err = capsys.readouterr()
        assert (code, out, err.splitlines()[0]) == (3, "", line), form


# the restrictions of the benchmark's restrict workload
RESTRICTIONS = (("G31", "A1"), ("G33", "A1"), ("G33", "A1^2"),
                ("G33", "A2"), ("G34", "A1"), ("G34", "A1^2"), ("G34", "A2"))

CATALOG_GOLDEN = {
    "build --group G23 --json": (
        0, "8a87ed8f1e38bacdf149c517f94a998ad90cba409725e53cc73bbda0b215562b"),
    "build --group G24 --json": (
        0, "5dfca0566eab8361a40b1dc9b123c2ce759e84a81d5cc176e51c258ec8abd49f"),
    "build --group G25 --json": (
        0, "d1de9d3f0a91585cdffaf33dee488aa2ed2ff9d64172181a3f39be91ec26f380"),
    "build --group G26 --json": (
        0, "a547d62f4892363ec9f5043a3cc9bda6a52d0249d5d7622d086de25ee8ffe6ea"),
    "build --group G27 --json": (
        0, "3d3f2f29a23ce93c92c15665a03cfb4e10ecd566f581cc9848fd8c830ec645ce"),
    "build --group G28 --json": (
        0, "ae014bf544121d4d7af46a34061580687515e4b7592502f037b25528f3b34ef0"),
    "build --group G29 --json": (
        0, "95260159ae6f7b694516def598c9efc12acb0022b5b6e677398e8e078adb1a98"),
    "build --group G30 --json": (
        0, "548af09008dd479efca882ace6e8bac94c3de243f429c274a0d2d18dae0c4c35"),
    "build --group G31 --json": (
        0, "3fddbe044de1419ce27441e8a73d7a163bd62f304c5606fae95aadf533c5d573"),
    "build --group G32 --json": (
        0, "8655473616c797916c4f0b886be46454534a2b3ce0eb12d4be1a46428eeba2f1"),
    "build --group G33 --json": (
        0, "62b396059a94ac48e990abc85a24a1bf4747512a8b27f833fc3b4ac85a18799a"),
    "build --group G34 --json": (
        0, "ed9be2d2458aaea006fd662b23d089178c27591366601608d529a47022d0e48c"),
    "build --group G31 --restrict A1 --json": (
        0, "50fff7d4472bb2acc610889d35198767ed80bf781ac9cad90f8e0e2ac11fefce"),
    "build --group G33 --restrict A1 --json": (
        0, "092063bf7ce7d4a44212648a7f34253f3e7d12bade5991213f15ee2eb9e2fed9"),
    "build --group G33 --restrict A1^2 --json": (
        0, "f5822078b75fcc507f10a3e1f1458075cc804fd6c158e057fbce174d19649afb"),
    "build --group G33 --restrict A2 --json": (
        0, "3c7c222a57ef810b1c8306d8fdcd4d44f42fe4563b584ef05110c7a5110aaeda"),
    "build --group G34 --restrict A1 --json": (
        0, "622bde2b8f4b099f94af210073e53cf463592bf31b5796ba0c6e7fa6f2e47657"),
    "build --group G34 --restrict A1^2 --json": (
        0, "aa37abb9bbf81e3d1e015ced94c6c62dd35269a727f9cd9b530293d49b36cf70"),
    "build --group G34 --restrict A2 --json": (
        0, "12edcabba1376c1263579e93507856f815d010628327c00b01390c23bbfec270"),
}

# every shipped group restricted to every tag of the type table: the
# exit code and the sha256 of stdout, or the first line of stderr when it
# fails; recorded before `restriction_by_type` read `flat_orbits`'
# labels, from its own scan of the orbit levels
RESTRICT_GOLDEN = {
    "build --group G23 --restrict A1 --json": (
        0, "6a7b8d8b944097f18cb2943d702b2cbbd717ac3faf9ce059155886e7d55df4d8"),
    "build --group G23 --restrict A1^2 --json": (
        0, "9eb356fa7f8606ac68dcd84f680609d9aef2f415db2855b74c1068198c93a4dc"),
    "build --group G23 --restrict A2 --json": (
        0, "dfaa1d466a8b1ecc30247dd1055e6ec31025fd8f6d5313a21de5f2018b5ed211"),
    "build --group G23 --restrict A1^3 --json": (
        2, "error: G23 has no flat of type A1^3"),
    "build --group G23 --restrict A1A2 --json": (
        2, "error: G23 has no flat of type A1A2"),
    "build --group G23 --restrict A3 --json": (
        2, "error: G23 has no flat of type A3"),
    "build --group G23 --restrict G(3,3,3) --json": (
        2, "error: G23 has no flat of type G(3,3,3)"),
    "build --group G23 --restrict B3 --json": (
        2, "error: G23 has no flat of type B3"),
    "build --group G24 --restrict A1 --json": (
        0, "1ee5961254d17a3fb9e25c3ef2f35d745277390c58d293dddddd9b55ea2a05aa"),
    "build --group G24 --restrict A1^2 --json": (
        2, "error: G24 has no flat of type A1^2"),
    "build --group G24 --restrict A2 --json": (
        0, "71edcec778c6920fe016c3de0c0afaf0fda1ab2c2fe1062ee0bf3f677c5ff03a"),
    "build --group G24 --restrict A1^3 --json": (
        2, "error: G24 has no flat of type A1^3"),
    "build --group G24 --restrict A1A2 --json": (
        2, "error: G24 has no flat of type A1A2"),
    "build --group G24 --restrict A3 --json": (
        2, "error: G24 has no flat of type A3"),
    "build --group G24 --restrict G(3,3,3) --json": (
        2, "error: G24 has no flat of type G(3,3,3)"),
    "build --group G24 --restrict B3 --json": (
        2, "error: G24 has no flat of type B3"),
    "build --group G25 --restrict A1 --json": (
        0, "01db57b2a96b802ece2489e0dfe15d5571df54724d727ff09bb96fbe00004270"),
    "build --group G25 --restrict A1^2 --json": (
        0, "dc49980b17efbd3ba18cd9a4a459475bd13c14cfc2d83a7beccd0ab00468702d"),
    "build --group G25 --restrict A2 --json": (
        2, "error: G25 has no flat of type A2"),
    "build --group G25 --restrict A1^3 --json": (
        2, "error: G25 has no flat of type A1^3"),
    "build --group G25 --restrict A1A2 --json": (
        2, "error: G25 has no flat of type A1A2"),
    "build --group G25 --restrict A3 --json": (
        2, "error: G25 has no flat of type A3"),
    "build --group G25 --restrict G(3,3,3) --json": (
        2, "error: G25 has no flat of type G(3,3,3)"),
    "build --group G25 --restrict B3 --json": (
        2, "error: G25 has no flat of type B3"),
    "build --group G26 --restrict A1 --json": (
        0, "a1b43af6f7004a7a9f27e536eca5587d846f6ad8daf6bde26a88091bedfc0ff3"),
    "build --group G26 --restrict A1^2 --json": (
        0, "72550a977cdf90bbee44074971de6375889fb0e84bf6c105e65cabc294e79389"),
    "build --group G26 --restrict A2 --json": (
        2, "error: G26 has no flat of type A2"),
    "build --group G26 --restrict A1^3 --json": (
        2, "error: G26 has no flat of type A1^3"),
    "build --group G26 --restrict A1A2 --json": (
        2, "error: G26 has no flat of type A1A2"),
    "build --group G26 --restrict A3 --json": (
        2, "error: G26 has no flat of type A3"),
    "build --group G26 --restrict G(3,3,3) --json": (
        2, "error: G26 has no flat of type G(3,3,3)"),
    "build --group G26 --restrict B3 --json": (
        2, "error: G26 has no flat of type B3"),
    "build --group G27 --restrict A1 --json": (
        0, "81506b85b72db13db855b152264f7497619d4634c0fd9aa9c514810685b59605"),
    "build --group G27 --restrict A1^2 --json": (
        2, "error: G27 has no flat of type A1^2"),
    "build --group G27 --restrict A2 --json": (
        0, "a1b0141e3151a048416b822bf39843278b606b0dfe76446add3aeeb383126799"),
    "build --group G27 --restrict A1^3 --json": (
        2, "error: G27 has no flat of type A1^3"),
    "build --group G27 --restrict A1A2 --json": (
        2, "error: G27 has no flat of type A1A2"),
    "build --group G27 --restrict A3 --json": (
        2, "error: G27 has no flat of type A3"),
    "build --group G27 --restrict G(3,3,3) --json": (
        2, "error: G27 has no flat of type G(3,3,3)"),
    "build --group G27 --restrict B3 --json": (
        2, "error: G27 has no flat of type B3"),
    "build --group G28 --restrict A1 --json": (
        0, "9f63263c12ce53f1a19d082d29ba007bf5a8c8ff6056d2806a6c663ada62ba60"),
    "build --group G28 --restrict A1^2 --json": (
        0, "b8965d25863c2efca3c980cc47e879840dbc6f1a47dc45dc66fe103cb4b20ab5"),
    "build --group G28 --restrict A2 --json": (
        0, "03cd26a7a4ac1feec324cf8ef1e6129bedff51a04f877b8c0e7cbdddd8a6704d"),
    "build --group G28 --restrict A1^3 --json": (
        2, "error: G28 has no flat of type A1^3"),
    "build --group G28 --restrict A1A2 --json": (
        0, "2dc186f4dd36cf7371c0b84daa3a9dca2c6740fe517c6ff55547e086be7c74d8"),
    "build --group G28 --restrict A3 --json": (
        2, "error: G28 has no flat of type A3"),
    "build --group G28 --restrict G(3,3,3) --json": (
        2, "error: G28 has no flat of type G(3,3,3)"),
    "build --group G28 --restrict B3 --json": (
        0, "cd9321e70cfc0438cabf32ddfa5649c58207f4b28da1d0be4a97204892cd54ef"),
    "build --group G29 --restrict A1 --json": (
        0, "959a7289497ceb5767bc38c856c6e54c42f10aee07387ee37b5ad62975a8bee3"),
    "build --group G29 --restrict A1^2 --json": (
        0, "ad67d98b3da8bca13400fafc050ad669eb31835b4b935946ceedd4fd10c5ba08"),
    "build --group G29 --restrict A2 --json": (
        0, "56518805bf3e16c8ec9d18fe4938c3ed6a603ffa31443c8a64393ce2a007e42b"),
    "build --group G29 --restrict A1^3 --json": (
        2, "error: G29 has no flat of type A1^3"),
    "build --group G29 --restrict A1A2 --json": (
        0, "622827da9429fa6aa41303c7baef922afc5636f6ff6c79133332cceeafbbfe34"),
    "build --group G29 --restrict A3 --json": (
        0, "e17c329428e8e5d91c0bdf37bfab6900bb695bb2c62150169aada42842e5d700"),
    "build --group G29 --restrict G(3,3,3) --json": (
        2, "error: G29 has no flat of type G(3,3,3)"),
    "build --group G29 --restrict B3 --json": (
        0, "24d247d0af27324f81f4756dcf4dc72c879c4b475746f91f258d911bdfae8a0e"),
    "build --group G30 --restrict A1 --json": (
        0, "ce6e821c81a019e45a9eed5e458c5140a034100bf035dc1b13477fc39f6c8e61"),
    "build --group G30 --restrict A1^2 --json": (
        0, "45069eb2f7060afe789c6d968263797d58a7514f85f70ec8ae3795f77c2dbd3f"),
    "build --group G30 --restrict A2 --json": (
        0, "373179dc9da3648e3594d643a2b02151162781ba720122473702277d18475447"),
    "build --group G30 --restrict A1^3 --json": (
        2, "error: G30 has no flat of type A1^3"),
    "build --group G30 --restrict A1A2 --json": (
        0, "f89fa09822cf381da30c0baafe0862bb73c110ef44e7347bb33123658168690b"),
    "build --group G30 --restrict A3 --json": (
        0, "3e7a38955aaf27100aa59ddcbb8c10e2efdee41ac6ca6f0e4cabadcbc26fd495"),
    "build --group G30 --restrict G(3,3,3) --json": (
        2, "error: G30 has no flat of type G(3,3,3)"),
    "build --group G30 --restrict B3 --json": (
        2, "error: G30 has no flat of type B3"),
    "build --group G31 --restrict A1 --json": (
        0, "50fff7d4472bb2acc610889d35198767ed80bf781ac9cad90f8e0e2ac11fefce"),
    "build --group G31 --restrict A1^2 --json": (
        0, "1dba4ad1501943685b87b7e670b6b9b286f086f5af100b8801b56befcd88bc14"),
    "build --group G31 --restrict A2 --json": (
        0, "e9218bbc11a9cc7973d258df92a783efe202990c9233de3e0dfc6fba11fd11a6"),
    "build --group G31 --restrict A1^3 --json": (
        2, "error: G31 has no flat of type A1^3"),
    "build --group G31 --restrict A1A2 --json": (
        0, "839620fdfd0d236a917dab2162586958bdf43b86bdff5ad8bc3911228e2b0901"),
    "build --group G31 --restrict A3 --json": (
        0, "4161619aa1c03bbd002a8e87954aa62840f19cf1d64bc8c7c2cda678fd982e7a"),
    "build --group G31 --restrict G(3,3,3) --json": (
        2, "error: G31 has no flat of type G(3,3,3)"),
    "build --group G31 --restrict B3 --json": (
        2, "error: G31 has no flat of type B3"),
    "build --group G32 --restrict A1 --json": (
        0, "766b167950b99ab122fbd7b20f72c0f4df11ccd841609c13d61f8f94eb1db401"),
    "build --group G32 --restrict A1^2 --json": (
        0, "fbbb35de1ce212d0dc9f77e39ee5402b3be2e9878513f95c446737a22c676e55"),
    "build --group G32 --restrict A2 --json": (
        2, "error: G32 has no flat of type A2"),
    "build --group G32 --restrict A1^3 --json": (
        2, "error: G32 has no flat of type A1^3"),
    "build --group G32 --restrict A1A2 --json": (
        2, "error: G32 has no flat of type A1A2"),
    "build --group G32 --restrict A3 --json": (
        2, "error: G32 has no flat of type A3"),
    "build --group G32 --restrict G(3,3,3) --json": (
        2, "error: G32 has no flat of type G(3,3,3)"),
    "build --group G32 --restrict B3 --json": (
        2, "error: G32 has no flat of type B3"),
    "build --group G33 --restrict A1 --json": (
        0, "092063bf7ce7d4a44212648a7f34253f3e7d12bade5991213f15ee2eb9e2fed9"),
    "build --group G33 --restrict A1^2 --json": (
        0, "f5822078b75fcc507f10a3e1f1458075cc804fd6c158e057fbce174d19649afb"),
    "build --group G33 --restrict A2 --json": (
        0, "3c7c222a57ef810b1c8306d8fdcd4d44f42fe4563b584ef05110c7a5110aaeda"),
    "build --group G33 --restrict A1^3 --json": (
        0, "0433cca5e1a85b9c2aa516552e797a475ca3ac5c7727e088c541fbf2a5612658"),
    "build --group G33 --restrict A1A2 --json": (
        0, "8f1f8bffd03fe8f98da9378144c20d01c93960fca6415747cfc0d2d73ae97ef4"),
    "build --group G33 --restrict A3 --json": (
        0, "7708e8a0a21ba935a34868411781f3083a11ad9a2649a6ef94c947003ed36b35"),
    "build --group G33 --restrict G(3,3,3) --json": (
        0, "8a91a3834104940051b8e4f7ee6b9c17d2f635066a03ca155264ac3c6db1c9c9"),
    "build --group G33 --restrict B3 --json": (
        2, "error: G33 has no flat of type B3"),
    "build --group G34 --restrict A1 --json": (
        0, "622bde2b8f4b099f94af210073e53cf463592bf31b5796ba0c6e7fa6f2e47657"),
    "build --group G34 --restrict A1^2 --json": (
        0, "aa37abb9bbf81e3d1e015ced94c6c62dd35269a727f9cd9b530293d49b36cf70"),
    "build --group G34 --restrict A2 --json": (
        0, "12edcabba1376c1263579e93507856f815d010628327c00b01390c23bbfec270"),
    "build --group G34 --restrict A1^3 --json": (
        0, "53d2295a406ce33918a345e2a9cbe4f72d8212f5b30364cf42ace8928e8ab8d3"),
    "build --group G34 --restrict A1A2 --json": (
        0, "9f97f9a4cbc153622eccb069880d58481cde1e6b68981002e69f225229001b29"),
    "build --group G34 --restrict A3 --json": (
        0, "cb9b9613780722ed5a4db002eac25133fe0af6fc64448bed510b37b0d843ef2c"),
    "build --group G34 --restrict G(3,3,3) --json": (
        0, "a671387449ba7839feb7dce7c739d1fe085c899f519623b311ead2e2e5394dd4"),
    "build --group G34 --restrict B3 --json": (
        2, "error: G34 has no flat of type B3"),
}

ORBITS_GOLDEN = {
    "G29 1":
        "ea411b409ced636eb464878ba266f12287f870a9894bba7298e8e43254b3b253",
    "G29 2":
        "d3c60a254ba3659e60ec98a69c6314805399955f45f4150fe61cca0c8826df81",
    "G29 3":
        "02062319c92d156dc6f7eb254b26b6b6d8235d41b501dbdba312e699513d381a",
    "G30 1":
        "d72a35e04fbe2b5a4e2ec03e7512d95253afbd69e46c3c76c42f5b946f1da819",
    "G30 2":
        "6bff7d60b63ff7609e85957d65a16a4c335e7c8de137e97399639ae63214ea68",
    "G30 3":
        "b49edbdee38d84472035c069151b486844c07d198d3ee166818febedb04a8a11",
    "G31 1":
        "d72a35e04fbe2b5a4e2ec03e7512d95253afbd69e46c3c76c42f5b946f1da819",
    "G31 2":
        "db280690bb3e21f32d91f326e4ce3a488e21ac31ec81ec79b8061e18fe19879c",
    "G31 3":
        "58c2053e6d09473dada530baf9d8000d90c6d51a693bf32afb4807c7889784d7",
    "G32 1":
        "ea411b409ced636eb464878ba266f12287f870a9894bba7298e8e43254b3b253",
    "G32 2":
        "31862827804027bdba7ef4a37fa13c2dd6263f7c62d75bb3cfb780ecc9ad6797",
    "G32 3":
        "9e1c86e13cee0b672ef2dd2880ed0345d1d0702063b1af2b9b5929bb8bf268ec",
    "G33 1":
        "2f182c09230360399e9e0408f0bcd48ece74c8643c1350fce12cad869972495a",
    "G33 2":
        "d645cb7c70dafe64f187ff346cb0b7b2756a2638486971ff67d59f231baa7613",
    "G33 3":
        "3662d7a4e485a2025fc1bce999561905a5bf1697efe1e7d0e8c47314cdae7e50",
    "G34 1":
        "57cedc18ae62288cbb8e84ccd14f77a350a9c6e68361cdbd86d28626a0924655",
    "G34 2":
        "68420a0cc9d3024f305021eb29c87f78eafb184a9b7c573a9bfbf2509e92a500",
    "G34 3":
        "2954c21c894e13b81e2aec65bb454f18b7d5fe24d4f87bf51f48aba6a17c3785",
    # past codim 3, recorded once `flat_orbits` labelled every codim
    "G29 4":
        "74fceac2c63e9a87b8902d8d4f090204f004032d37a5e3677b53f0450869ed6a",
    "G30 4":
        "4f715553963d49cbf5cd238e710d582b5ded81bfc044c7000cb6e7fe9d68bc74",
    "G31 4":
        "4f715553963d49cbf5cd238e710d582b5ded81bfc044c7000cb6e7fe9d68bc74",
    "G32 4":
        "74fceac2c63e9a87b8902d8d4f090204f004032d37a5e3677b53f0450869ed6a",
    "G33 4":
        "f45ca08662f62ea2b624e01b8e5a850c96a6af5dcb3ecbc6759525857fa80a7e",
    "G33 5":
        "637510794c5030cfba291fd40767865ead02f37ade6b9795c9c652ee8d0b2b83",
}


def catalog_outputs(capsys) -> dict:
    """{argv: (exit code, sha256 of stdout)} of every pinned build."""
    runs = [["build", "--group", name, "--json"] for name in group_names()]
    runs += [["build", "--group", name, "--restrict", tag, "--json"]
             for name, tag in RESTRICTIONS]
    got = {}
    for argv in runs:
        code = main(argv)
        stdout = capsys.readouterr().out
        got[" ".join(argv)] = (code, hashlib.sha256(stdout.encode())
                               .hexdigest())
    return got


def restrict_outputs(capsys) -> dict:
    """{argv: (exit code, sha256 of stdout or first line of stderr)} of
    every group restricted to every tag."""
    got = {}
    for name in group_names():
        for tag in _TYPE_TABLE:
            argv = ["build", "--group", name, "--restrict", tag, "--json"]
            code = main(argv)
            out, err = capsys.readouterr()
            got[" ".join(argv)] = (code, hashlib.sha256(out.encode())
                                   .hexdigest() if code == 0
                                   else err.splitlines()[0])
    return got


def orbit_digests() -> dict:
    """{"G codim": sha256} of the flat orbits' tags, codimensions,
    hyperplane counts, orbit sizes and representative rows, at every
    codim up to the rank; G34 only up to codim 3, as its codims 4 and 5
    take seconds."""
    got = {}
    for name in ("G29", "G30", "G31", "G32", "G33", "G34"):
        for codim in range(1, 4 if name == "G34" else group(name).dim + 1):
            text = repr([(lab.tag, lab.codim, lab.count, lab.orbit_size,
                          [[str(c) for c in row]
                           for row in lab.representative.rows])
                         for lab in flat_orbits(group(name), codim)])
            got[f"{name} {codim}"] = hashlib.sha256(text.encode()).hexdigest()
    return got


def test_catalog_builds_are_pinned(capsys):
    got = catalog_outputs(capsys)
    assert len(got) == 19
    assert got == CATALOG_GOLDEN


def test_restrictions_by_every_tag_are_pinned(capsys):
    got = restrict_outputs(capsys)
    assert len(got) == 96
    assert got == RESTRICT_GOLDEN


# the paper's seven restrictions, its two refuted ones of rank 4, and
# the intermediate cells intermediate(3, ell, k), ell = 3, 4
SEARCH_INPUTS = ("g29_a1", "g31_a1", "g33_a1sq", "g33_a2", "g34_a1a2",
                 "g34_a1cube", "g34_a3", "g33_a1", "g34_a1sq")

SEARCH_GOLDEN = {
    "induce g29_a1.arr": (
        0, "149598d4f99d85f7ad26c1b328249bd2252ebce2a8c5953bc9bf85d985530624"),
    "induce g29_a1.arr --json": (
        0, "c5837166ea6c48578dc5a7398c9794db106388552c9660f0120542c933aa08c0"),
    "induce g31_a1.arr": (
        0, "96faa5490a6e2b944f8345caf1f9ddd7ca6e00ca9ec3036578db3a4db5563a1f"),
    "induce g31_a1.arr --json": (
        0, "999b8ecf6098807b0a2204c46d62f531fd712b3b1360b51c31a8025145617821"),
    "induce g33_a1sq.arr": (
        0, "a8759180913a51fb6b0e09ffb0810cd373760ffefc2fc7d25ccac1b8e731546c"),
    "induce g33_a1sq.arr --json": (
        0, "470b6d602443aa36bb9c4fc7d134b0935caba74c2fe00fa703c9b872b2cb56fa"),
    "induce g33_a2.arr": (
        0, "0ec4ab6b5278130853c6016da1a7c7e831235eabb16d96791f5d0ee36f46155f"),
    "induce g33_a2.arr --json": (
        0, "3f8046314511136018b567dc61829a5a2d703a5564b3546f3e83e03083f3f9b7"),
    "induce g34_a1a2.arr": (
        0, "2fe5ba1ad5fff72eca25303970fb551a665e73ef28d0f5d818191cfcf520fe19"),
    "induce g34_a1a2.arr --json": (
        0, "bf387fadfa2c81fdac0351664738c103a1e43fb83e14e598c5a1c684fe2ad2fb"),
    "induce g34_a1cube.arr": (
        0, "3802dd520858dc476c1632bc987d1679732c1a477490a3d3985adeb38fe79c86"),
    "induce g34_a1cube.arr --json": (
        0, "2732aa1a5e2291907e993a86434cbbc0842157cc33e51af9e40acb7b12ef8e7b"),
    "induce g34_a3.arr": (
        0, "026bfdcfb92987980f02cfcc154ece63eb78f183c67602ebf27d461a27e7fa28"),
    "induce g34_a3.arr --json": (
        0, "48f7c37919e450a776f343e428baa3c93875cb36f57668998d58887d1042c1ab"),
    "induce g33_a1.arr": (
        1, "a1442461525999d1ddfb76dd3209935571a8cde830c8b14679647366b19d858b"),
    "induce g33_a1.arr --json": (
        1, "9213505fe5752261596cd7f7b4d29e45de833da8228220b21c3a5e0c87c7004e"),
    "induce g34_a1sq.arr": (
        1, "a54df9b988506a1b40d43513b2bfa23aafe8e4aca27dd2536b87c18f2db6acb2"),
    "induce g34_a1sq.arr --json": (
        1, "5729328fdb03804c97686d4cc8ff5c4babe3fc99e5a224d9e0b5083c10a14a3d"),
    "induce int_3_3_0.arr": (
        1, "ae457d81470b41edf8236bc05876955b856162ec0bb48fab443dae605ddf980a"),
    "induce int_3_3_0.arr --json": (
        1, "262b4559f3630460f4126299169ed5e9bffcf788bf87cc933c08c3e307d17373"),
    "induce int_3_3_1.arr": (
        0, "96688873b4c7c02c80235a3f42ebd24f219c6b5fa009178309c466cca654744a"),
    "induce int_3_3_1.arr --json": (
        0, "b0f84f3c9d61058706d7f88b705dead482d798bff21bcb342707cbdeaf8f5e74"),
    "induce int_3_3_2.arr": (
        0, "aa3c7964985790ad7d07b4978615e3a272932f74508f07a931686fcac270762e"),
    "induce int_3_3_2.arr --json": (
        0, "2fb053f982bf07721954db649bc90d9a08a231f3a381a6f59933df955c26f971"),
    "induce int_3_3_3.arr": (
        0, "ef00b737fa14e36d785b449e9bf324f0e6122dc31287910455f597ae77384e25"),
    "induce int_3_3_3.arr --json": (
        0, "1e0afbdd508b316502a936d72d193d32928588deac4dab9a21db4ad7376f4e56"),
    "induce int_3_4_0.arr": (
        1, "9c592cb43025ab10f4120a94d5c63cded4a58ad6c5a79f7ee44d7e38b42b8a6e"),
    "induce int_3_4_0.arr --json": (
        1, "d4c7f8979491ea4999985b33d65aaa398f29cdae0bf4620750fd20838003f53f"),
    "induce int_3_4_1.arr": (
        1, "9f49e0df037244e647e858118e5b7a5ac79718a1497cc6b924a3ff670ab9df8d"),
    "induce int_3_4_1.arr --json": (
        1, "99d8eb2474e286dc3c127a72a23c08bb16ba80abedae715d1fa5608a7b726b58"),
    "induce int_3_4_2.arr": (
        0, "0539db67246fd06660717be2b2236454dadb8e03e79117c3691609b77f849b56"),
    "induce int_3_4_2.arr --json": (
        0, "0288571bc2fb42344f9f3860efc4211eb5041a391a6de00a5173919e1369be57"),
    "induce int_3_4_3.arr": (
        0, "77005eb199917bfa72ce5f8621f862f1b4e506a6114e8cf5c98bf37e1725473f"),
    "induce int_3_4_3.arr --json": (
        0, "63dbbc8a972979ea664ecd43ab13a5ffa5b91bf543f4ad04f1f8203a537b775d"),
    "induce int_3_4_4.arr": (
        0, "e4b4ccc8861cabdc3e7dbf654e4eff6f0d472602556a965c62bbe2e94fc9b68c"),
    "induce int_3_4_4.arr --json": (
        0, "353a59d044e00f1755200a61b7eac342d8050aef4bf1607d62e08b99bea58185"),
}


def search_outputs(workdir: Path, capsys) -> dict:
    """{argv: (exit code, sha256 of stdout)} of every pinned search, with
    its files written to workdir, the current directory."""
    files = {f"{stem}.arr": (ROOT / "bench" / "inputs" / f"{stem}.arr")
             .read_text() for stem in SEARCH_INPUTS}
    files.update({f"int_3_{ell}_{k}.arr": intermediate(3, ell, k).to_text()
                  for ell in (3, 4) for k in range(ell + 1)})
    got = {}
    for name, text in files.items():
        (workdir / name).write_text(text)
        for argv in (["induce", name], ["induce", name, "--json"]):
            code = main(argv)
            stdout = capsys.readouterr().out
            got[" ".join(argv)] = (code, hashlib.sha256(stdout.encode())
                                   .hexdigest())
    return got


def test_searches_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = search_outputs(tmp_path, capsys)
    assert len(got) == 36
    assert got == SEARCH_GOLDEN


def test_flat_orbits_are_pinned():
    assert orbit_digests() == ORBITS_GOLDEN


# file name -> (its arrangement, the --exponents given or None); the
# wrong 1,2,4,6 of intermediate(2, 4, 1) (its own are 1,3,4,5) lets
# states hold two multisets
CENSUS_INPUTS = {
    "g33_a1.arr": (lambda: restriction_by_type(group("G33"), "A1"),
                   "1,7,9,11"),
    "g34_a1sq.arr": (lambda: restriction_by_type(group("G34"), "A1^2"),
                     "1,13,19,23"),
    "bool_4.arr": (lambda: Arrangement(4, [[int(i == j) for j in range(4)]
                                              for i in range(4)]), None),
    "int_2_4_1.arr": (lambda: intermediate(2, 4, 1), "1,2,4,6"),
}

CENSUS_GOLDEN = {
    "count-nec g33_a1.arr --exponents 1,7,9,11 --json": (
        0, "2ec9340f950312e2aeb7fc935f6791a39c0fd678a3a76d408177210212ee5f98"),
    "count-nec g34_a1sq.arr --exponents 1,13,19,23 --json": (
        0, "4da7d82160a23ede5de3f1be977577db46106884a360ee8f90cadbc77d9f9f7a"),
    "count-nec bool_4.arr --json": (
        0, "5fbc5b9eb5eb42e0e349175cda9f8a171289a6036534df15970b1f8db8c0354d"),
    "count-nec int_2_4_1.arr --exponents 1,2,4,6 --json": (
        0, "7d8107c0b36efe1412bb49bcea36eddd43e97f422d1f134b59ead3e940940254"),
}


def test_censuses_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, (build, exps) in CENSUS_INPUTS.items():
        (tmp_path / name).write_text(build().to_text())
        argv = ["count-nec", name]
        argv += ["--exponents", exps] if exps else []
        argv.append("--json")
        code = main(argv)
        stdout = capsys.readouterr().out
        got[" ".join(argv)] = (code, hashlib.sha256(stdout.encode())
                               .hexdigest())
    assert got == CENSUS_GOLDEN
