"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored on the power basis 1, z, ..., z^(d-1) of Q(zeta_n),
where z is a fixed primitive n-th root of unity and d = deg Phi_n.  The
coefficient vector is kept as integers over a single positive denominator
with gcd 1, so equal values always have identical representations at a
given order.  All arithmetic is exact and runs on integer vectors:
products reduce modulo Phi_n through a table of powers of z, and an
inverse is the product of the other Galois conjugates divided by the
norm, an integer.

The module also hosts the shared recursive-descent parser for the scalar
and linear-form syntax used by file formats and the command line:
integers, fractions p/q, the root symbol z, coordinates a, b, c, ...,
and the operators + - * ^ with parentheses.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache


class ArrfreeError(Exception):
    """Base class of every error that arrfree raises on purpose."""


class FormatError(ArrfreeError, ValueError):
    """Raised when textual input (scalar, form, or file) is malformed."""


class IncompatibleOrder(ArrfreeError, ValueError):
    """Raised when a value cannot be moved to the requested root order."""


class DivisionByZero(ArrfreeError, ZeroDivisionError):
    """Raised on inversion or division by the zero scalar."""


class InvalidParameter(ArrfreeError, ValueError):
    """Raised when a constructor parameter is outside its documented range."""


class NotAScalar(ArrfreeError, TypeError):
    """Raised when a value cannot be read as a scalar of Q(zeta_n)."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise InvalidParameter("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(out) - 1, -1, -1):
        q = num[k + dn]
        out[k] = q
        if q:
            for j in range(dn + 1):
                num[k + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def _degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


# The largest root order a file header may name, so that _power_table(n)
# holds at most n * phi(n) <= 10^6 integers; it also caps a ^ exponent,
# which costs one product a unit.  Shipped data uses orders up to 15.
MAX_ORDER = 1000
# coordinates are the letters a..y (z is the root of unity)
_LETTERS = "abcdefghijklmnopqrstuvwxy"
MAX_DIM = len(_LETTERS)
# parentheses nest at most this deep, at about four stack frames a level
MAX_NESTING = 100


def _read_int(digits: str) -> int:
    """int(digits), or a FormatError where int() refuses the digits: more
    than sys.get_int_max_str_digits() of them, or one such as '²'."""
    try:
        return int(digits)
    except ValueError:
        raise FormatError(f"cannot read the number {digits[:20]}"
                          f"{'...' if len(digits) > 20 else ''}") from None


def check_header(dim: str, order: str) -> tuple[int, int]:
    """The dimension and root order of a file header, read from their digit
    strings; rejects them when out of range."""
    dim, order = _read_int(dim), _read_int(order)
    if dim < 1 or order < 1:
        raise FormatError("dimension and zeta order must be positive")
    if order > MAX_ORDER:
        raise FormatError(f"zeta order {order} is above the cap {MAX_ORDER}")
    if dim > MAX_DIM:
        raise FormatError(f"dimension {dim} is above the cap {MAX_DIM}")
    return dim, order


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """z^k reduced to the power basis, for k = 0 .. n-1."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cur = [0] * deg
    cur[0] = 1
    rows = [tuple(cur)]
    for _ in range(n - 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi[j]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduce_table(n: int) -> tuple[tuple[int, ...], ...]:
    """z^k reduced to the power basis, for k = d .. 2d-2 (product overflow)."""
    deg = _degree(n)
    pows = _power_table(n)
    return tuple(pows[k % n] for k in range(deg, 2 * deg - 1))


@lru_cache(maxsize=None)
def _embed_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Images of the order-d power basis inside the order-n power basis."""
    pows = _power_table(n)
    step = n // d
    return tuple(pows[(j * step) % n] for j in range(_degree(d)))


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The units k != 1 mod n; z -> z^k are the other automorphisms."""
    return tuple(k for k in range(2, n) if math.gcd(k, n) == 1)


def _combine(out: list, coeffs, rows) -> tuple[int, ...]:
    """out + sum_j coeffs[j] * rows[j] as a tuple; out is overwritten."""
    deg = len(out)
    for c, row in zip(coeffs, rows):
        if c:
            for t in range(deg):
                out[t] += c * row[t]
    return tuple(out)


def _conjugate(n: int, num: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The image of num under the automorphism z -> z^k of Q(zeta_n)."""
    pows = _power_table(n)
    return _combine([0] * len(num), num,
                    [pows[j * k % n] for j in range(len(num))])


@lru_cache(maxsize=None)
def _ramanujan(n: int) -> tuple[int, ...]:
    """Tr(z^s) from Q(zeta_n) to Q, the Ramanujan sum c_n(s), for s < n."""
    pows = _power_table(n)
    units = (1,) + _units(n)
    return tuple(sum(pows[s * k % n][0] for k in units) for s in range(n))


def _mul_vec(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    deg = len(a)
    if deg == 1:
        return (a[0] * b[0],)
    conv = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    return _combine(conv[:deg], conv[deg:], _reduce_table(n))


def _dot(order: int, xs, ys) -> "Cyc":
    """sum(x * y) over values of Q(zeta_order), exactly: the numerators'
    convolutions add up over one common denominator, and the sum is
    reduced mod Phi_n and normalised once, to the same (num, den) as the
    sum of the products."""
    deg = _degree(order)
    dens = [x.den * y.den for x, y in zip(xs, ys)]
    den = math.lcm(*dens)
    conv = [0] * (2 * deg - 1)
    for x, y, d in zip(xs, ys, dens):
        f = den // d
        for i, a in enumerate(x.num):
            if a:
                a *= f
                for j, b in enumerate(y.num):
                    if b:
                        conv[i + j] += a * b
    return Cyc._norm(order, _combine(conv[:deg], conv[deg:],
                                     _reduce_table(order)), den)


def _normalize(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise DivisionByZero("zero denominator")
    if den < 0:
        num = tuple(-v for v in num)
        den = -den
    g = den
    for v in num:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        num = tuple(v // g for v in num)
        den //= g
    return num, den


class Cyc:
    """An exact element of Q(zeta_order)."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs=0, den: int = 1):
        if order < 1:
            raise InvalidParameter("order must be a positive integer")
        if den == 0:
            raise DivisionByZero("zero denominator")
        deg = _degree(order)
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        try:
            vals = [Fraction(c, den) for c in coeffs]
        except TypeError:
            raise NotAScalar(f"not a scalar: {coeffs!r} / {den!r}") from None
        if len(vals) > deg:
            raise InvalidParameter(
                f"at most {deg} basis coefficients for order {order}")
        vals += [Fraction(0)] * (deg - len(vals))
        scale = math.lcm(*(v.denominator for v in vals))
        num = tuple(int(v * scale) for v in vals)
        self.num, self.den = _normalize(num, scale)
        self.order = order

    # fast internal constructor, trusts its arguments
    @staticmethod
    def _make(order: int, num: tuple[int, ...], den: int) -> "Cyc":
        self = object.__new__(Cyc)
        self.order = order
        self.num = num
        self.den = den
        return self

    @staticmethod
    def _norm(order: int, num: tuple[int, ...], den: int) -> "Cyc":
        num, den = _normalize(num, den)
        return Cyc._make(order, num, den)

    def promote(self, order: int) -> "Cyc":
        """Express this value in Q(zeta_order); order must be a multiple."""
        if order == self.order:
            return self
        if order < 1 or order % self.order:
            raise IncompatibleOrder(
                f"cannot move a value of order {self.order} to order {order}")
        out = _combine([0] * _degree(order), self.num,
                       _embed_table(self.order, order))
        return Cyc._norm(order, out, self.den)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if any(self.num[1:]):
            raise IncompatibleOrder(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def inverse(self) -> "Cyc":
        """1/x by the Galois norm.  With x = num/den, the product adj of the
        conjugates sigma_k(num) (z -> z^k) over the units k != 1 mod n has
        num * adj = N(num), a nonzero integer, so 1/x = den * adj / N."""
        num, n = self.num, self.order
        if not any(num):
            raise DivisionByZero("scalar is zero")
        deg = len(num)
        if not any(num[1:]):
            return Cyc._norm(n, (self.den,) + (0,) * (deg - 1), num[0])
        adj = None
        for k in _units(n):
            conj = _conjugate(n, num, k)
            adj = conj if adj is None else _mul_vec(n, adj, conj)
        norm = _mul_vec(n, num, adj)[0]
        return Cyc._norm(n, tuple(c * self.den for c in adj), norm)

    # -- arithmetic ----------------------------------------------------

    def _align(self, other: "Cyc"):
        if other.order == self.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    def __add__(self, other, sign=1):
        """self + sign * other, sign being 1 or -1."""
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        da, db = a.den, b.den
        if da == db:
            num = tuple(map(operator.add if sign > 0 else operator.sub,
                            a.num, b.num))
            return Cyc._norm(a.order, num, da)
        g = math.gcd(da, db)
        l = da // g * db
        fa, fb = l // da, sign * (l // db)
        num = tuple(x * fa + y * fb for x, y in zip(a.num, b.num))
        return Cyc._norm(a.order, num, l)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.order, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return other.__add__(self, -1)

    def __mul__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        num = _mul_vec(a.order, a.num, b.num)
        return Cyc._norm(a.order, num, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return other.__mul__(self.inverse())

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc._make(self.order, _power_table(self.order)[0], 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    def _conductor(self) -> int:
        """The least d | n with this value in Q(zeta_d): no z -> z^k with
        k a unit and k = 1 mod d moves it."""
        n, num = self.order, self.num
        return next(d for d in range(1, n + 1) if n % d == 0 and all(
            _conjugate(n, num, k) == num
            for k in _units(n) if (k - 1) % d == 0))

    def __hash__(self):
        """A rational x hashes as its Fraction, any other x as its conductor
        d and the traces Tr(x zeta_d^-j) / phi(n), j < phi(d), zeta_d =
        z^(n/d).  Tr / phi(n) is the same in every field holding x, and the
        trace form is nondegenerate, so the key is the same at every order
        and tells apart the values of Q(zeta_d)."""
        n, num = self.order, self.num
        if not any(num[1:]):
            return hash(Fraction(num[0], self.den))
        d = self._conductor()
        c, step = _ramanujan(n), n // d
        traces = tuple(
            sum(a * c[(i - j * step) % n] for i, a in enumerate(num))
            for j in range(_degree(d)))
        phi = len(num)
        return hash((d, *_normalize(traces, self.den * phi)))

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if not c:
                continue
            g = math.gcd(c, self.den)
            mag = str(abs(c) // g)
            if g != self.den:
                mag += f"/{self.den // g}"
            if k == 0:
                body = mag
            else:
                sym = "z" if k == 1 else f"z^{k}"
                body = sym if mag == "1" else f"{mag}*{sym}"
            parts.append("-" + body if c < 0 else body)
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"Cyc(order={self.order}, value='{self}')"


def _coerce(x, order: int):
    if isinstance(x, Cyc):
        return x
    if isinstance(x, int):
        return Cyc._norm(order, (x,) + (0,) * (_degree(order) - 1), 1)
    if isinstance(x, Fraction):
        return Cyc._norm(order, (x.numerator,) + (0,) * (_degree(order) - 1),
                         x.denominator)
    return None


def _signed_sum(terms) -> str:
    """Join terms, each with an optional leading "-", as a signed sum."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}"
                              for t in terms[1:])


def root_of_unity(order: int, power: int = 1) -> Cyc:
    """z^power where z is the canonical primitive root of the given order."""
    if order < 1:
        raise InvalidParameter("order must be a positive integer")
    return Cyc._make(order, _power_table(order)[power % order], 1)


def zero(order: int = 1) -> Cyc:
    return Cyc._make(order, (0,) * _degree(order), 1)


def one(order: int = 1) -> Cyc:
    return Cyc._make(order, _power_table(order)[0], 1)


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z]|[()^*+-]|\S")


def _tokenize(text: str) -> list[str]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        t = m.group(0)
        if len(t) == 1 and not (t.isalnum() or t in "()^*+-"):
            raise FormatError(f"unexpected character {t!r}")
        toks.append(t)
    return toks


class _Lin:
    """Linear polynomial in the coordinates: constant + coefficient map."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Cyc, coeffs=None):
        self.const = const
        self.coeffs = coeffs or {}

    def add(self, other) -> "_Lin":
        const = self.const + other.const
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs[i] + c if i in coeffs else c
        return _Lin(const, coeffs)

    def mul(self, other: "_Lin") -> "_Lin":
        if self.coeffs and other.coeffs:
            raise FormatError("product of coordinates is not linear")
        if other.coeffs:
            self, other = other, self
        s = other.const
        return _Lin(self.const * s, {i: c * s for i, c in self.coeffs.items()})

    def neg(self) -> "_Lin":
        return _Lin(-self.const, {i: -c for i, c in self.coeffs.items()})


class _Parser:
    """Recursive descent over the tokens.  With a memo, a dict that lives
    in the caller's call, each signed term of the top-level sum is looked
    up by (order, dim, its tokens), up to the next + or - outside
    parentheses, and parsed once.  Only a term parsed to exactly those
    tokens is kept, so a bad form raises what it raises unmemoised."""

    def __init__(self, toks: list[str], order: int, dim: int, memo=None):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.order = order
        self.dim = dim
        self.memo = memo

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse(self) -> _Lin:
        if not self.toks:
            raise FormatError("empty expression")
        val = self.expr()
        if self.pos != len(self.toks):
            raise FormatError(f"unexpected trailing input at {self.peek()!r}")
        return val

    def expr(self) -> _Lin:
        val = self.signed()
        while self.peek() in ("+", "-"):
            val = val.add(self.signed())
        return val

    def signed(self) -> _Lin:
        """A term and the sign before it, if any."""
        key = None
        if self.memo is not None and not self.depth:
            end = self.pos + (self.peek() in ("+", "-"))
            level = 0
            for t in self.toks[end:]:
                level += (t == "(") - (t == ")")
                if level < 0 or not level and t in ("+", "-"):
                    break
                end += 1
            key = (self.order, self.dim, *self.toks[self.pos:end])
            if key in self.memo:
                self.pos = end
                return self.memo[key]
        neg = self.peek() in ("+", "-") and self.take() == "-"
        val = self.term()
        if neg:
            val = val.neg()
        if key is not None and self.pos == end:
            self.memo[key] = val
        return val

    def term(self) -> _Lin:
        val = self.factor()
        while self.peek() == "*":
            self.take()
            val = val.mul(self.factor())
        return val

    def factor(self) -> _Lin:
        val = self.atom()
        if self.peek() == "^":
            self.take()
            t = self.take()
            if t is None or not t.isdigit():
                raise FormatError("exponent must be a nonnegative integer")
            k = _read_int(t)
            if k > MAX_ORDER:
                raise FormatError(f"exponent {k} is above the cap {MAX_ORDER}")
            if not val.coeffs:
                val = _Lin(val.const ** k)
            elif k != 1:  # a square of coordinates raises in mul
                val = val.mul(val) if k else _Lin(one(self.order))
        return val

    def atom(self) -> _Lin:
        t = self.take()
        if t is None:
            raise FormatError("unexpected end of expression")
        if t == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise FormatError(f"nesting is above the cap {MAX_NESTING}")
            val = self.expr()
            if self.take() != ")":
                raise FormatError("unbalanced parenthesis")
            self.depth -= 1
            return val
        if t[0].isdigit():
            p, _, q = t.partition("/")
            p, q = _read_int(p), _read_int(q or "1")
            if q == 0:
                raise FormatError("zero denominator in literal")
            return _Lin(_coerce(Fraction(p, q), self.order))
        if t == "z":
            return _Lin(root_of_unity(self.order))
        if t in _LETTERS:
            idx = _LETTERS.index(t)
            if idx >= self.dim:
                if self.dim == 0:
                    raise FormatError(f"coordinate {t!r} not allowed in a scalar")
                raise FormatError(f"unknown coordinate {t!r} for dimension {self.dim}")
            return _Lin(zero(self.order), {idx: one(self.order)})
        raise FormatError(f"unexpected token {t!r}")


def parse_scalar(text: str, order: int) -> Cyc:
    """Parse a scalar expression over Q(zeta_order)."""
    lin = _Parser(_tokenize(text), order, 0).parse()
    return lin.const


def _parse_row(entries, order: int, memo: dict) -> list:
    """parse_scalar of each entry, each distinct (entry, order) parsed once
    per memo, a dict that lives in the caller's call.  Only successes are
    kept, so a bad entry raises where it first appears."""
    row = []
    for e in entries:
        c = memo.get((e, order))
        if c is None:
            c = memo[e, order] = parse_scalar(e, order)
        row.append(c)
    return row


def parse_linear(text: str, order: int, dim: int,
                 memo=None) -> tuple[Cyc, ...]:
    """Parse a homogeneous linear form; returns its coefficient vector.
    A memo (see `_Parser`) shared by the forms of one call parses each
    distinct signed term once."""
    if not 1 <= dim <= MAX_DIM:
        raise FormatError(f"dimension must be between 1 and {MAX_DIM}")
    lin = _Parser(_tokenize(text), order, dim, memo).parse()
    if lin.const:
        raise FormatError("linear form has a nonzero constant term")
    z = zero(order)
    return tuple(lin.coeffs.get(i, z) for i in range(dim))


def format_linear(coeffs) -> str:
    """Render a coefficient vector as a linear form in a, b, c, ..."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        s = str(c)
        if " " in s:
            body = f"({s})*{_LETTERS[i]}"
        elif s == "1":
            body = _LETTERS[i]
        elif s == "-1":
            body = f"-{_LETTERS[i]}"
        else:
            body = f"{s}*{_LETTERS[i]}"
        parts.append(body)
    return _signed_sum(parts)
