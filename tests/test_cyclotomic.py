"""Scalar arithmetic in Q(zeta_n): identities, parsing, field axioms."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrfree import cyclotomic
from arrfree.arrangement import Arrangement
from arrfree.catalog import intermediate, reflection_arrangement
from arrfree.freeness import verify_induction_table
from arrfree.cyclotomic import (
    Cyc,
    DivisionByZero,
    FormatError,
    IncompatibleOrder,
    InvalidParameter,
    MAX_NESTING,
    MAX_ORDER,
    NotAScalar,
    _dot,
    check_header,
    cyclotomic_polynomial,
    format_linear,
    one,
    parse_linear,
    parse_scalar,
    root_of_unity,
    zero,
)

_ROOT = Path(__file__).resolve().parent.parent

# classical polynomials, constant term first
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
}


def test_cyclotomic_polynomials_match_classical_tables():
    for n, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_square_root_of_unity_is_minus_one():
    assert root_of_unity(2) == -1


def test_fourth_root_squares_to_minus_one():
    i = root_of_unity(4)
    assert i * i == -1
    assert i ** 2 == -1


def test_cube_root_sum_and_product():
    w = root_of_unity(3)
    assert w + w ** 2 == -1
    assert w * w ** 2 == 1
    assert (1 + w) * (1 + w ** 2) == 1


def test_inverse_of_imaginary_unit():
    i = root_of_unity(4)
    assert i.inverse() == -i
    assert 1 / i == -i
    assert (1 + i).inverse() == (1 - i) / 2


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        zero(3).inverse()
    with pytest.raises(DivisionByZero):
        one(4) / zero(4)


def test_promotion_identifies_subfield_elements():
    w = root_of_unity(3)
    assert w.promote(6) == root_of_unity(6, 2)
    assert w.promote(12) == root_of_unity(12, 4)
    with pytest.raises(IncompatibleOrder):
        w.promote(4)


def test_cross_order_equality_and_hash():
    w3 = root_of_unity(3)
    w6 = root_of_unity(6, 2)
    assert w3 == w6
    assert hash(w3) == hash(w6)
    assert len({w3, w6}) == 1


def test_rational_values_hash_like_fractions():
    v = Cyc(12, Fraction(3, 4))
    assert hash(v) == hash(Fraction(3, 4))
    assert v == Fraction(3, 4)
    assert v.as_fraction() == Fraction(3, 4)
    assert root_of_unity(4).is_rational is False
    with pytest.raises(ValueError):
        root_of_unity(4).as_fraction()


def test_scalar_errors_are_arrfree_errors():
    with pytest.raises(IncompatibleOrder, match="not rational"):
        root_of_unity(4).as_fraction()
    bad_values = (
        lambda: cyclotomic_polynomial(0),
        lambda: Cyc(0, 1),
        lambda: Cyc(3, (1, 2, 3)),
        lambda: root_of_unity(0),
    )
    for make in bad_values:
        with pytest.raises(InvalidParameter):
            make()


@pytest.mark.parametrize("args, shown", [
    ((3, ["a"]), "['a']"),
    ((3, 1, "x"), "'x'"),
    ((3, 1.5), "1.5"),
    ((3, None), "None"),
], ids=["str-coeff", "str-den", "float", "none"])
def test_non_rational_coefficients_are_not_scalars(args, shown):
    # named as a hyperplane's entry is, and still a TypeError
    with pytest.raises(NotAScalar, match=re.escape(shown)) as exc:
        Cyc(*args)
    assert isinstance(exc.value, TypeError)
    assert Cyc(3, Fraction(1, 2)) == Fraction(1, 2)
    assert Cyc(3, [1, 2], 3) == Cyc(3, [Fraction(1, 3), Fraction(2, 3)])


def test_conductor_finds_minimal_field():
    v = root_of_unity(12, 4)  # a cube root of unity
    assert v._conductor() == 3
    assert root_of_unity(6)._conductor() == 3  # z6 = 1 + z3
    assert root_of_unity(6) == 1 + root_of_unity(3)
    assert hash(root_of_unity(6)) == hash(1 + root_of_unity(3))
    assert Cyc(8, 5)._conductor() == 1
    assert zero(12)._conductor() == 1


def test_multiplicative_order_of_roots():
    for n in range(1, 13):
        for k in range(n):
            v = root_of_unity(n, k)
            expected = n // math.gcd(n, k)
            p = v
            order = 1
            while p != 1:
                p = p * v
                order += 1
                assert order <= n
            assert order == expected


def test_scalar_parse_and_format_roundtrip():
    samples = [
        ("0", 3),
        ("1", 1),
        ("-3/2", 5),
        ("z", 4),
        ("z^2 - z + 1", 7),
        ("1/2*z + 3", 3),
        ("-z^3 + 2/5", 8),
        ("2*z^2 + z - 3", 12),
    ]
    for text, order in samples:
        v = parse_scalar(text, order)
        assert str(v) == text
        assert parse_scalar(str(v), order) == v


def test_parse_handles_parentheses_and_powers():
    w = root_of_unity(3)
    assert parse_scalar("(1+z)*(1+z^2)", 3) == 1
    assert parse_scalar("(1 - z)^2", 3) == (1 - w) * (1 - w)
    assert parse_scalar("2^3", 1) == 8
    assert parse_scalar("-(z + 1)", 3) == -(w + 1)
    assert parse_scalar("z^4", 4) == 1
    assert parse_scalar("0^0", 5) == 1
    assert parse_scalar("(z^2)^3", 5) == root_of_unity(5)


def test_parse_rejects_malformed_input():
    bad = ["", "z z", "1/+2", "(z", "z)", "a", "1/0", "z^", "z^-1", "z^1/2",
           "*z", "2 3", "z + ", "Q"]
    for text in bad:
        with pytest.raises(FormatError):
            parse_scalar(text, 4)


def test_parse_input_caps():
    # one above each cap; deeper nesting used to overflow the stack
    deep = MAX_NESTING + 1
    for text in ("(" * deep + "1" + ")" * deep, f"z^{MAX_ORDER + 1}"):
        with pytest.raises(FormatError, match="above the cap"):
            parse_scalar(text, 3)
    with pytest.raises(FormatError, match="above the cap"):
        check_header(26, 1)


def test_constant_powers_cost_log_many_products(monkeypatch):
    # a constant base is raised by squaring, so 10 bytes of input cannot
    # ask for a thousand field products
    mul = Cyc.__mul__
    calls = 0

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    got = parse_scalar("(z+1)^1000", 1000)
    assert calls <= 2 * (1000).bit_length()
    monkeypatch.setattr(Cyc, "__mul__", mul)
    # the 1,000-fold product, taken as ten products of a 100-fold one
    hundred = one(1000)
    for _ in range(100):
        hundred = hundred * (root_of_unity(1000) + 1)
    want = one(1000)
    for _ in range(10):
        want = want * hundred
    assert got == want


def test_linear_form_parse_and_render():
    coeffs = parse_linear("a + z*b - 1/2*c", 4, 3)
    i = root_of_unity(4)
    assert coeffs == (Cyc(4, 1), i, Cyc(4, Fraction(-1, 2)))
    assert format_linear(coeffs) == "a + z*b - 1/2*c"
    again = parse_linear(format_linear(coeffs), 4, 3)
    assert again == coeffs


def test_linear_form_multi_term_coefficients_need_parens():
    coeffs = parse_linear("a + (z^2 - 1)*b + 2*c", 3, 3)
    rendered = format_linear(coeffs)
    # z^2 reduces to -z - 1 on the power basis of Q(zeta_3)
    assert rendered == "a + (-z - 2)*b + 2*c"
    assert parse_linear(rendered, 3, 3) == coeffs
    coeffs4 = parse_linear("(z^3 + z)*a - b", 8, 2)
    assert parse_linear(format_linear(coeffs4), 8, 2) == coeffs4


def test_linear_form_rejections():
    with pytest.raises(FormatError):
        parse_linear("a*b", 3, 3)
    with pytest.raises(FormatError):
        parse_linear("a + 1", 3, 3)
    with pytest.raises(FormatError):
        parse_linear("d", 3, 3)
    with pytest.raises(FormatError):
        parse_scalar("a", 3)
    # a coordinate's power 0 is 1 and its power 1 itself; a higher one
    # is a product of coordinates, also when the coordinate has weight 0
    assert parse_linear("a^0*b + (z*c)^1", 3, 3) == \
        (zero(3), one(3), root_of_unity(3))
    for text in ("(a + b)^2", "(0*a)^2", "c^3"):
        with pytest.raises(FormatError, match="not linear"):
            parse_linear(text, 3, 3)


# signed terms from a small pool, so that the forms of one draw share
# many; the last ones are malformed alone or next to another term
_COEFFS = ("", "2*", "-3*", "1/2*", "(z + 1)*", "(-z^2 - z)*", "z^2*",
           "(2/3*z - 1)*", "z*", "(1/2)*")
_TERMS = st.one_of(
    st.builds("{}{}".format, st.sampled_from(_COEFFS),
              st.sampled_from("abc")),
    st.builds("{}*z^{}".format, st.sampled_from("abc"),
              st.sampled_from("0123")),
    st.sampled_from(("b*z", "a + a", "(a - b)*z", "z^7*c", "((c))")),
    st.sampled_from(("a*b", "(a", "a)", "z^", "2", "d", "+", "", "2 3*b",
                     "a^2", "a ? b", "z^-1*a")))


@st.composite
def _form_lists(draw):
    """Forms in a, b and c that share signed terms, some malformed."""
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        terms = draw(st.lists(_TERMS, min_size=1, max_size=4))
        signs = draw(st.lists(st.sampled_from(("+", "-")),
                              min_size=len(terms), max_size=len(terms)))
        lead = draw(st.sampled_from(("", "", "-", "+")))
        forms.append(lead + terms[0] + "".join(
            f" {sign} {term}" for sign, term in zip(signs[1:], terms[1:])))
    return forms


def _parsed(form: str, order: int, memo=None):
    try:
        return parse_linear(form, order, 3, memo)
    except FormatError as e:
        return str(e)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_form_lists(), st.sampled_from((1, 3, 4, 5, 12)))
def test_memoised_linear_forms_parse_as_plain_ones(forms, order):
    memo: dict = {}
    for form in forms:
        plain = _parsed(form, order)
        memoised = _parsed(form, order, memo)
        assert memoised == plain, form
        if not isinstance(plain, str):
            assert [str(c) for c in memoised] == [str(c) for c in plain]
    # a memo keeps only the terms that parsed, each to its own tokens
    for key, lin in memo.items():
        assert key[:2] == (order, 3)
        fresh = cyclotomic._Parser(list(key[2:]), order, 3)
        val = fresh.signed()
        assert fresh.pos == len(key) - 2
        assert (val.const, val.coeffs) == (lin.const, lin.coeffs)


def test_memoised_forms_raise_as_plain_ones():
    deep = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    # (form parsed first, the bad form after it with the same memo)
    cases = (("a + z*b", "a*b"), ("a + z*b", "2 3*b"), ("a", "(a"),
             ("a + z*b", "a + 1"), ("a + z*b", "a + z*b )"),
             ("a + b", "a + + b"), ("z*a", "z^-1*a"),
             ("a + z*b - z*c", "a + z*b - z*c + d"),
             # a term memoised at the top level is not reused inside
             # parentheses, where it would nest too deep
             (f"{deep} + b", f"({deep}) + b"))
    for first, bad in cases:
        memo: dict = {}
        assert not isinstance(_parsed(first, 4, memo), str)
        error = _parsed(bad, 4)
        assert isinstance(error, str)
        assert _parsed(bad, 4, memo) == error, bad


def test_a_memo_shared_across_orders_and_dims_keeps_them_apart():
    memo: dict = {}
    assert parse_linear("a + d", 4, 4, memo) == \
        parse_linear("a + d", 4, 4)
    with pytest.raises(FormatError, match="unknown coordinate 'd'"):
        parse_linear("a + d", 4, 3, memo)
    for order in (3, 4, 3):
        assert parse_linear("z*a - b", order, 2, memo) == \
            parse_linear("z*a - b", order, 2)
        assert parse_linear("z*a - b", order, 2, memo)[0] == \
            root_of_unity(order)
    assert {key[:2] for key in memo} == {(4, 4), (4, 3), (3, 2), (4, 2)}


def test_a_table_parses_each_signed_term_once(monkeypatch):
    # the forms of these tables have no parentheses, so their signed
    # terms are the pieces between the signs
    tables = [_ROOT / "fixtures" / "tables" / "g29_a1.tbl",
              _ROOT / "bench" / "inputs" / "chain_4_6_4.tbl"]
    runs = []
    term = cyclotomic._Parser.term

    def counting(self):
        if not self.depth:
            runs.append(self.pos)
        return term(self)

    monkeypatch.setattr(cyclotomic._Parser, "term", counting)
    for path in tables:
        text = path.read_text()
        forms = [line.split("|")[1].strip() for line in text.splitlines()
                 if line.count("|") == 2 and line.split("|")[1].strip()]
        terms = [re.sub(r"\s", "", t)
                 for form in forms for t in re.findall(r"[+-]?[^+-]+", form)]
        distinct = len(set(terms))
        assert distinct < len(terms)
        for _ in range(2):
            # a second call parses again: the memo lives in one call
            runs.clear()
            assert verify_induction_table(text)
            assert len(runs) == distinct, path.name
        # without a memo, every term is parsed
        runs.clear()
        for form in forms:
            parse_linear(form, 4, 6 if "chain" in path.name else 3)
        assert len(runs) == len(terms)


def _random_value(rng: random.Random, order: int) -> Cyc:
    deg = len(cyclotomic_polynomial(order)) - 1
    coeffs = [rng.randint(-9, 9) for _ in range(deg)]
    return Cyc(order, coeffs, rng.randint(1, 12))


ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
# fields up to degree 40, for the inverse, subtraction and hash checks only
WIDE_ORDERS = [15, 16, 20, 24, 30, 40, 41, 60]


@st.composite
def _dot_cases(draw):
    """An order and two equal-length vectors over it, with zero entries
    and numerators over denominators up to 12."""
    order = draw(st.sampled_from((1, 3, 4, 5, 12, 15)))
    deg = len(cyclotomic_polynomial(order)) - 1
    value = st.one_of(
        st.just(zero(order)),
        st.builds(lambda num, den: Cyc(order, num, den),
                  st.lists(st.integers(-9, 9), min_size=deg, max_size=deg),
                  st.integers(1, 12)))
    n = draw(st.integers(0, 6))
    vec = st.lists(value, min_size=n, max_size=n)
    return order, draw(vec), draw(vec)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_dot_cases())
def test_dot_is_the_sum_of_products(case):
    order, xs, ys = case
    acc = zero(order)
    for x, y in zip(xs, ys):
        acc = acc + x * y
    got = _dot(order, xs, ys)
    assert (got.order, got.num, got.den) == (acc.order, acc.num, acc.den)


def test_field_axioms_fuzz():
    rng = random.Random(20260815)
    for _ in range(300):
        na, nb, nc = (rng.choice(ORDERS) for _ in range(3))
        a = _random_value(rng, na)
        b = _random_value(rng, nb)
        c = _random_value(rng, nc)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert a - b == a + (-b)
        if b:
            assert (a / b) * b == a
            assert b * b.inverse() == 1
    _inverse_and_sub_checks(random.Random(20261018))


def _inverse_and_sub_checks(rng):
    """Subtraction against adding the negation, across mixed orders, and
    inverses of random, rational and root-of-unity values.  x * y = 1
    determines y, so no second inverse is needed as an oracle."""
    for n in ORDERS + WIDE_ORDERS:
        for _ in range(4):
            a = _random_value(rng, n)
            b = _random_value(rng, rng.choice(ORDERS))
            for x, y in ((a, b), (b, a), (1, a), (a, 1)):
                assert x - y == x + (-y)
            for v in (a, b):
                if v:
                    assert v * v.inverse() == 1
                    assert v.inverse().inverse() == v
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        r = Cyc(n, q)
        assert r.inverse() == 1 / q and r * r.inverse() == 1
        for k in range(n):
            assert root_of_unity(n, k).inverse() == root_of_unity(n, n - k)


def test_broken_inverse_kernels_are_caught(monkeypatch):
    units = cyclotomic._units
    broken = (
        # one conjugate dropped, where there is more than one
        lambda n: units(n)[1:] or units(n),
        # every k in 2..n-1, units or not
        lambda n: tuple(range(2, n)),
    )
    for variant in broken:
        monkeypatch.setattr(cyclotomic, "_units", variant)
        with pytest.raises((AssertionError, DivisionByZero)):
            _inverse_and_sub_checks(random.Random(20261018))


def test_promote_keeps_value_and_hash_fuzz():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice(ORDERS)
        v = _random_value(rng, n)
        m = n * rng.choice([1, 2, 3])
        w = v.promote(m)
        assert w == v
        assert hash(w) == hash(v)


def _assert_hash_agrees(a, b):
    """a == b implies hash(a) == hash(b); a rational value hashes as its
    Fraction."""
    if a == b:
        assert hash(a) == hash(b)
    for v in (a, b):
        if v.is_rational:
            assert hash(v) == hash(v.as_fraction())


def _hash_contract_checks(rng: random.Random) -> None:
    # seeded values, promoted and combined across orders
    for n in ORDERS + WIDE_ORDERS:
        for _ in range(3):
            a = _random_value(rng, n)
            b = _random_value(rng, rng.choice(ORDERS))
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for x in (a, b, a + b, a * b, a - a + q):
                y = x.promote(x.order * rng.choice([2, 3, 5]))
                _assert_hash_agrees(x, y)
                assert x == y
            _assert_hash_agrees(a.promote(2 * n) + b, b + a)
            _assert_hash_agrees(b * a.promote(3 * n), a * b)
            _assert_hash_agrees(a - a + q, Cyc(b.order, q))
    # every pair of small values over the subfields of Q(zeta_12); many
    # are equal across orders, such as z6 and 1 + z3
    pool = [Cyc(n, [rng.randint(-1, 1) for _ in cyclotomic_polynomial(n)[1:]])
            for n in (1, 2, 3, 4, 6, 12) for _ in range(25)]
    pool += [root_of_unity(n, k) for n in (2, 3, 4, 6, 12) for k in range(n)]
    for a in pool:
        for b in pool:
            _assert_hash_agrees(a, b)
    assert hash(root_of_unity(6)) == hash(1 + root_of_unity(3))


def _assert_hyperplane_hashes_distinct() -> None:
    """Hyperplane hashes of intermediate(15,4,2) and G34, computed on
    fresh values, are pairwise distinct."""
    for arr in (intermediate(15, 4, 2), reflection_arrangement("G34")):
        arr = Arrangement.from_text(arr.to_text())
        assert len({hash(h) for h in arr}) == len(arr)


def test_hash_invariance_fuzz():
    _hash_contract_checks(random.Random(20261018))


def test_hyperplane_hashes_are_distinct():
    _assert_hyperplane_hashes_distinct()


def _trace_only_hash(self):
    c, n = cyclotomic._ramanujan(self.order), self.order
    tr = sum(a * c[i] for i, a in enumerate(self.num))
    return hash(Fraction(tr, self.den * len(self.num)))


def _conductor_mod_test(self):
    # k % d == 1 never tests k when d = 1
    n, num = self.order, self.num
    for d in range(1, n):
        if n % d == 0 and all(cyclotomic._conjugate(n, num, k) == num
                              for k in cyclotomic._units(n) if k % d == 1):
            return d
    return n


def _undivided_hash(self):
    # the traces not divided by phi(n)
    if self.is_rational:
        return hash(self.as_fraction())
    n, d = self.order, self._conductor()
    c = cyclotomic._ramanujan(n)
    traces = (sum(a * c[(i - j * n // d) % n] for i, a in enumerate(self.num))
              for j in range(len(cyclotomic_polynomial(d)) - 1))
    return hash((d, *(Fraction(t, self.den) for t in traces)))


def test_broken_hashes_are_caught(monkeypatch):
    broken = (("__hash__", _trace_only_hash),
              ("_conductor", _conductor_mod_test),
              ("__hash__", _undivided_hash))
    for name, variant in broken:
        with monkeypatch.context() as m:
            m.setattr(Cyc, name, variant)
            with pytest.raises(AssertionError):
                test_conductor_finds_minimal_field()
                _hash_contract_checks(random.Random(20261018))
                _assert_hyperplane_hashes_distinct()


def test_str_roundtrip_fuzz():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.choice(ORDERS)
        v = _random_value(rng, n)
        assert parse_scalar(str(v), n) == v


def _reference_str(v) -> str:
    """str(v) as it was rendered through Fraction, coefficient by
    coefficient."""
    parts = []
    for k in range(len(v.num) - 1, -1, -1):
        c = v.num[k]
        if not c:
            continue
        q = Fraction(c, v.den)
        mag = str(abs(q))
        if k == 0:
            body = mag
        else:
            sym = "z" if k == 1 else f"z^{k}"
            body = sym if abs(q) == 1 else f"{mag}*{sym}"
        parts.append("-" + body if q < 0 else body)
    return cyclotomic._signed_sum(parts)


@st.composite
def _rendered_values(draw):
    """Values whose coefficients are zero, +-1, other integers, or
    fractions, over a common denominator."""
    order = draw(st.sampled_from((1, 3, 4, 5, 8, 12, 15)))
    den = draw(st.sampled_from((1, 2, 6, 12)) | st.integers(1, 10 ** 6))
    coeff = (st.sampled_from((0, den, -den)) | st.integers(-12, 12)
             | st.integers(-10 ** 12, 10 ** 12))
    deg = cyclotomic._degree(order)
    return Cyc(order, draw(st.lists(coeff, min_size=deg, max_size=deg)), den)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_rendered_values())
def test_str_matches_the_fraction_renderer(v):
    assert str(v) == _reference_str(v)


def test_power_and_scalar_mixing():
    w = root_of_unity(5)
    assert w ** 5 == 1
    assert w ** -1 == w ** 4
    assert w ** 0 == 1
    assert 2 * w == w + w
    assert Fraction(1, 2) * w + Fraction(1, 2) * w == w
    v = w + root_of_unity(3)  # mixes orders 5 and 3
    assert v.order == 15
    assert v - w == root_of_unity(3)
