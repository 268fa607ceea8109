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
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from arrfree.catalog import flat_orbits, group, group_names, intermediate
from arrfree.cli import main

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
}


def _corrupt(text: str, row: int, amount: int) -> str:
    lines = text.splitlines()
    rows = [n for n, line in enumerate(lines) if line.count("|") == 2
            and line.split("|")[1].strip()]
    n = rows[row - 1]
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
    out.append(("int_3_4_2.arr --order canonical --json", "int_3_4_2.arr",
                intermediate(3, 4, 2).to_text(),
                ["induce", "int_3_4_2.arr", "--order", "canonical",
                 "--json"]))
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
    assert len(got) == 37
    assert got == GOLDEN


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


def orbit_digests() -> dict:
    """{"G codim": sha256} of the flat orbits' tags, codimensions,
    hyperplane counts, orbit sizes and representative rows."""
    got = {}
    for name in ("G29", "G30", "G31", "G32", "G33", "G34"):
        for codim in (1, 2, 3):
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


def test_flat_orbits_are_pinned():
    assert orbit_digests() == ORBITS_GOLDEN
