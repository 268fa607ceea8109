"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is stored on the power basis 1, z, ..., z^(d-1) of Q(zeta_n),
where z is a fixed primitive n-th root of unity and d = deg Phi_n.  The
coefficient vector is kept as integers over a single positive denominator
with gcd 1, so equal values always have identical representations at a
given order.  All arithmetic is exact.

The module also hosts the shared recursive-descent parser for the scalar
and linear-form syntax used by file formats and the command line:
integers, fractions p/q, the root symbol z, coordinates a, b, c, ...,
and the operators + - * ^ with parentheses.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


class FormatError(ValueError):
    """Raised when textual input (scalar, form, or file) is malformed."""


class IncompatibleOrder(ValueError):
    """Raised when a value cannot be moved to the requested root order."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion or division by the zero scalar."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("order must be a positive integer")
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
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    cur = [0] * deg
    cur[deg - 1] = 1
    rows = []
    for _ in range(deg - 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi[j]
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _embed_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Images of the order-d power basis inside the order-n power basis."""
    pows = _power_table(n)
    step = n // d
    return tuple(pows[(j * step) % n] for j in range(_degree(d)))


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
    out = conv[:deg]
    red = _reduce_table(n)
    for k in range(deg, 2 * deg - 1):
        c = conv[k]
        if c:
            row = red[k - deg]
            for j in range(deg):
                out[j] += c * row[j]
    return tuple(out)


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


def _solve_exact(rows, target):
    """Rational x with sum x_i rows[i] = target, or None if unsolvable."""
    m = len(rows)
    ncol = len(target)
    aug = [[Fraction(rows[i][c]) for i in range(m)] + [Fraction(target[c])]
           for c in range(ncol)]
    pivots = []
    r = 0
    for col in range(m):
        pr = next((i for i in range(r, ncol) if aug[i][col]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(ncol):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, ncol):
        if aug[i][m]:
            return None
    x = [Fraction(0)] * m
    for idx, col in enumerate(pivots):
        x[col] = aug[idx][m]
    return x


class Cyc:
    """An exact element of Q(zeta_order)."""

    __slots__ = ("order", "num", "den", "_hash", "_min")

    def __init__(self, order: int, coeffs=0, den: int = 1):
        if order < 1:
            raise ValueError("order must be a positive integer")
        if den == 0:
            raise DivisionByZero("zero denominator")
        deg = _degree(order)
        if isinstance(coeffs, (int, Fraction)):
            coeffs = (coeffs,)
        vals = [Fraction(c, den) for c in coeffs]
        if len(vals) > deg:
            raise ValueError(f"at most {deg} basis coefficients for order {order}")
        vals += [Fraction(0)] * (deg - len(vals))
        scale = math.lcm(*(v.denominator for v in vals))
        num = tuple(int(v * scale) for v in vals)
        self.num, self.den = _normalize(num, scale)
        self.order = order
        self._hash = None
        self._min = None

    # fast internal constructor, trusts its arguments
    @staticmethod
    def _make(order: int, num: tuple[int, ...], den: int) -> "Cyc":
        self = object.__new__(Cyc)
        self.order = order
        self.num = num
        self.den = den
        self._hash = None
        self._min = None
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
        table = _embed_table(self.order, order)
        deg = _degree(order)
        out = [0] * deg
        for j, c in enumerate(self.num):
            if c:
                row = table[j]
                for t in range(deg):
                    out[t] += c * row[t]
        return Cyc._norm(order, tuple(out), self.den)

    def demote(self) -> "Cyc":
        """The same value expressed in the smallest cyclotomic subfield."""
        if self._min is not None:
            return self._min
        n = self.order
        best = self
        if not any(self.num):
            best = _ZERO1
        elif n > 1:
            for d in _divisors(n)[:-1]:
                x = _solve_exact(_embed_table(d, n), self.num)
                if x is None:
                    continue
                scale = math.lcm(*(v.denominator for v in x))
                num = tuple(int(v * scale) for v in x)
                best = Cyc._norm(d, num, self.den * scale)
                break
        self._min = best
        best._min = best
        return best

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def inverse(self) -> "Cyc":
        if not any(self.num):
            raise DivisionByZero("scalar is zero")
        n = self.order
        if len(self.num) == 1:
            return Cyc._norm(n, (self.den,), self.num[0])
        vec, vden = _inv_vec(n, self.num)
        return Cyc._norm(n, tuple(c * self.den for c in vec), vden)

    # -- arithmetic ----------------------------------------------------

    def _align(self, other: "Cyc"):
        if other.order == self.order:
            return self, other
        n = math.lcm(self.order, other.order)
        return self.promote(n), other.promote(n)

    def __add__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        a, b = self._align(other)
        da, db = a.den, b.den
        if da == db:
            num = tuple(x + y for x, y in zip(a.num, b.num))
            return Cyc._norm(a.order, num, da)
        g = math.gcd(da, db)
        l = da // g * db
        fa, fb = l // da, l // db
        num = tuple(x * fa + y * fb for x, y in zip(a.num, b.num))
        return Cyc._norm(a.order, num, l)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.order, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = _coerce(other, self.order)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

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
        if other.order == self.order:
            return self.num == other.num and self.den == other.den
        a, b = self._align(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self._hash is None:
            m = self.demote()
            if m.order == 1:
                self._hash = hash(Fraction(m.num[0], m.den))
            else:
                self._hash = hash((m.order, m.num, m.den))
        return self._hash

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k in range(len(self.num) - 1, -1, -1):
            c = self.num[k]
            if not c:
                continue
            q = Fraction(c, self.den)
            mag = str(abs(q))
            if k == 0:
                body = mag
            else:
                sym = "z" if k == 1 else f"z^{k}"
                body = sym if abs(q) == 1 else f"{mag}*{sym}"
            parts.append(("-" if q < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        out = [body if sign == "+" else "-" + body]
        for sign, body in parts[1:]:
            out.append(f" {sign} {body}")
        return "".join(out)

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


_ZERO1 = Cyc._make(1, (0,), 1)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def root_of_unity(order: int, power: int = 1) -> Cyc:
    """z^power where z is the canonical primitive root of the given order."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    return Cyc._make(order, _power_table(order)[power % order], 1)


def zero(order: int = 1) -> Cyc:
    return Cyc._make(order, (0,) * _degree(order), 1)


def one(order: int = 1) -> Cyc:
    return Cyc._make(order, _power_table(order)[0], 1)


# -- polynomial helpers over Fraction, used only for inversion ----------

def _pdeg(p):
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _pdivmod(a, b):
    db = _pdeg(b)
    r = list(a)
    q = [Fraction(0)] * max(len(a) - db, 1)
    lead = b[db]
    for k in range(_pdeg(r) - db, -1, -1):
        c = r[k + db] / lead
        if c:
            q[k] = c
            for j in range(db + 1):
                r[k + j] -= c * b[j]
    return q, r


def _inv_vec(n: int, num: tuple[int, ...]):
    """Integer vector and denominator of the inverse of num modulo Phi_n."""
    a = [Fraction(c) for c in cyclotomic_polynomial(n)]
    b = [Fraction(c) for c in num]
    sa, sb = [Fraction(0)], [Fraction(1)]
    while _pdeg(b) > 0:
        q, r = _pdivmod(a, b)
        a, b = b, r
        sa, sb = sb, _psub(sa, _pmul(q, sb))
    g = b[0]
    if not g:
        raise ArithmeticError("polynomial not invertible")
    inv = [c / g for c in sb]
    deg = _degree(n)
    inv += [Fraction(0)] * (deg - len(inv))
    scale = math.lcm(*(c.denominator for c in inv[:deg]))
    return [int(c * scale) for c in inv[:deg]], scale


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+(?:/\d+)?|[A-Za-z]|[()^*+-]|\S")

_LETTERS = "abcdefghijklmnopqrstuvwxy"


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

    def add(self, other, sign: int) -> "_Lin":
        const = self.const + other.const if sign > 0 else self.const - other.const
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            if sign < 0:
                c = -c
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
    def __init__(self, toks: list[str], order: int, dim: int):
        self.toks = toks
        self.pos = 0
        self.order = order
        self.dim = dim

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
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        val = self.term()
        if sign < 0:
            val = val.neg()
        while self.peek() in ("+", "-"):
            op = self.take()
            val = val.add(self.term(), -1 if op == "-" else 1)
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
            k = int(t)
            out = _Lin(one(self.order))
            for _ in range(k):
                out = out.mul(val)
            val = out
        return val

    def atom(self) -> _Lin:
        t = self.take()
        if t is None:
            raise FormatError("unexpected end of expression")
        if t == "(":
            val = self.expr()
            if self.take() != ")":
                raise FormatError("unbalanced parenthesis")
            return val
        if t[0].isdigit():
            if "/" in t:
                p, q = t.split("/")
                if int(q) == 0:
                    raise FormatError("zero denominator in literal")
                c = Fraction(int(p), int(q))
            else:
                c = Fraction(int(t))
            return _Lin(_coerce(c, self.order))
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


def parse_linear(text: str, order: int, dim: int) -> tuple[Cyc, ...]:
    """Parse a homogeneous linear form; returns its coefficient vector."""
    if not 1 <= dim <= len(_LETTERS):
        raise FormatError(f"dimension must be between 1 and {len(_LETTERS)}")
    lin = _Parser(_tokenize(text), order, dim).parse()
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
        if body.startswith("-"):
            parts.append(("-", body[1:]))
        else:
            parts.append(("+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    out = [body if sign == "+" else "-" + body]
    for sign, body in parts[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)
