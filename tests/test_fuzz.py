"""Hypothesis fuzz of the text formats.

Arrangement (.arr) and induction-table (.tbl) text is generated from the
formats' grammar: headers of dimension up to 4, up to 8 rows, scalars
with z, fractions, powers and parentheses nested up to one level above
the parser's cap, and stray bytes.  Every file command keeps the exit
code contract on it, and whatever parses round-trips through its text.
The runs are derandomized and keep no example database, so they are the
same on every machine and write nothing.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrfree.arrangement import Arrangement
from arrfree.cli import main
from arrfree.cyclotomic import MAX_NESTING, MAX_ORDER, FormatError, parse_scalar
from arrfree.freeness import InductionTable
from test_cli import FILE_COMMANDS, NEGATIVE


def fuzz(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples,
                    suppress_health_check=[HealthCheck.too_slow])


ORDERS = (1, 2, 3, 4, 5, 6, 12)
NUMBERS = st.one_of(
    st.sampled_from(("0", "0", "1", "2")),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(0, 6)))
# the first power and nesting depth the parser refuses, and ones it reads
POWERS = st.sampled_from(("0", "1", "1", "2", "2", "3", "3", str(MAX_ORDER),
                          str(MAX_ORDER + 1)))
DEPTHS = st.sampled_from((1, 1, 1, 1, 2, 2, 3, MAX_NESTING, MAX_NESTING + 1))


def expressions(letters: str = ""):
    """Scalar text, or linear-form text over the given coordinates."""
    atoms = st.one_of(NUMBERS, st.just("z"),
                      *(st.just(c) for c in letters))

    def extend(inner):
        return st.one_of(
            st.builds("{} {} {}".format, inner, st.sampled_from("+-*"),
                      inner),
            st.builds("-{}".format, inner),
            st.builds("{}^{}".format, inner, POWERS),
            st.builds(lambda s, n: "(" * n + s + ")" * n, inner, DEPTHS))

    return st.recursive(atoms, extend, max_leaves=6)


def mostly(common, rare, weight: int):
    """``common`` drawn ``weight`` times as often as ``rare``."""
    return st.sampled_from((common,) * weight + (rare,)).flatmap(lambda s: s)


PLAIN = st.sampled_from(("0", "1", "-1", "2", "z", "-z", "1 + z", "z^2"))
# mostly plain entries, so that most files parse and reach the commands
ENTRIES = mostly(PLAIN, expressions(), 31)


def linear_forms(dim: int):
    """Forms that are mostly linear, and sometimes not."""
    letters = "abcd"[:dim]
    term = st.builds("({})*{}".format, ENTRIES, st.sampled_from(letters))
    sums = st.lists(term, min_size=1, max_size=dim).map(" + ".join)
    return mostly(sums, expressions(letters), 7)


@st.composite
def exponent_lists(draw, length: int) -> str:
    """Mostly of the given length, sometimes one longer or shorter."""
    n = draw(mostly(st.just(length),
                    st.sampled_from((length + 1, max(length - 1, 0))), 8))
    values = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return ",".join(map(str, values))


STRAY = b"#|,^()*/+-z0\n \x00\x80\xff"


@st.composite
def with_stray_bytes(draw, text: str) -> bytes:
    data = bytearray(text.encode())
    for _ in range(draw(mostly(st.just(0), st.sampled_from((1, 2)), 3))):
        data.insert(draw(st.sampled_from(range(len(data) + 1))),
                    draw(st.sampled_from(STRAY)))
    return bytes(data)


@st.composite
def arr_texts(draw) -> str:
    dim = draw(st.sampled_from((1, 2, 3, 4)))
    order = draw(st.sampled_from(ORDERS))
    # sometimes every row has one entry too many or too few
    width = draw(mostly(st.just(dim), st.sampled_from((dim + 1, dim - 1)),
                        9))
    count = draw(st.sampled_from(range(9)))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=width, max_size=width)
                         .map(", ".join), min_size=count, max_size=count))
    return "\n".join([f"arr v1 dim={dim} zeta={order}", *rows]) + "\n"


@st.composite
def tbl_texts(draw) -> str:
    dim = draw(st.sampled_from((1, 2, 3, 4)))
    order = draw(st.sampled_from(ORDERS))
    row = st.builds("{} | {} | {}".format, exponent_lists(dim),
                    linear_forms(dim), exponent_lists(dim - 1))
    count = draw(st.sampled_from(range(8)))
    rows = draw(st.lists(row, min_size=count, max_size=count))
    final = draw(exponent_lists(dim))
    return "\n".join([f"table v1 dim={dim} zeta={order}", *rows,
                      f"{final} | |"]) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(path, data: bytes) -> None:
    path.write_bytes(data)
    for cmd in FILE_COMMANDS:
        code, out, err = _run([cmd, str(path), "--json"])
        assert code in (0, 1, 2, 3), (cmd, data, err)
        if code in (2, 3):
            assert out == "" and err.startswith("error:"), (cmd, data, err)
            continue
        payload = json.loads(out)
        assert payload["command"] == cmd
        if code == 1:
            key, value = NEGATIVE[cmd]
            assert payload[key] == value, (cmd, data)


@fuzz(300)
@given(data=arr_texts().flatmap(with_stray_bytes))
def test_arr_files_keep_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.arr"
    _check_contract(path, data)
    try:
        arr = Arrangement.from_text(data.decode())
    except (UnicodeDecodeError, FormatError):
        return
    assert Arrangement.from_text(arr.to_text()) == arr


@fuzz(200)
@given(data=tbl_texts().flatmap(with_stray_bytes))
def test_tbl_files_keep_the_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tbl"
    _check_contract(path, data)
    try:
        table = InductionTable.parse(data.decode())
    except (UnicodeDecodeError, FormatError):
        return
    text = table.to_text()
    again = InductionTable.parse(text)
    assert (again.dim, again.order, again.rows, again.final) == \
        (table.dim, table.order, table.rows, table.final)
    assert again.to_text() == text


@fuzz(400)
@given(order=st.sampled_from(ORDERS), text=expressions())
def test_scalars_round_trip(order, text):
    try:
        c = parse_scalar(text, order)
    except FormatError:
        return
    assert parse_scalar(str(c), order) == c
