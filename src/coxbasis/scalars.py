"""Exact scalar arithmetic: rationals and real quadratic extensions.

Crystallographic reflection groups live entirely inside
``fractions.Fraction``.  The dihedral groups I2(5) and I2(8) and the
icosahedral group H3 need a real quadratic extension, implemented here as
``Quad``: a number a + b*sqrt(d) with exact rational parts and a fixed
square-free d > 1.

These are the boundary types of the package: parsing and formatting,
reports, point evaluation, scalar linear algebra and the public API.
Polynomials compute on integer numerators instead (see ``poly``);
``split_scalar`` and ``join_scalar`` convert between the two.
Arithmetic between int/Fraction and Quad promotes to Quad, and a Quad
whose irrational part cancels demotes back to Fraction, so scalar code
never branches on the type.  It relies only on field operations,
comparison with 0 and 1, a total (real-number) order, and hashability.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction, "Quad"]

_RATIONAL = (int, Fraction)


def _as_fraction(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@functools.total_ordering
class Quad:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d))."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int) -> None:
        if d <= 1:
            raise ValueError("quadratic discriminant must be an integer > 1")
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Quad is immutable")

    def _make(self, a: Fraction, b: Fraction) -> Scalar:
        # cancellation of the sqrt part demotes to a plain rational
        if b == 0:
            return a
        return Quad(a, b, self.d)

    def _coerce(self, other: object) -> "Quad | None":
        if isinstance(other, Quad):
            if other.d != self.d:
                raise ValueError("mixed quadratic fields: sqrt(%d) vs sqrt(%d)" % (self.d, other.d))
            return other
        if isinstance(other, _RATIONAL):
            return Quad(_as_fraction(other), Fraction(0), self.d)
        return None

    def __add__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __neg__(self) -> "Quad":
        return Quad(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        return self._make(self.a / n, -self.b / n)

    def __truediv__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv = o.inverse()
        return self.__mul__(inv)

    def __rtruediv__(self, other: object) -> Scalar:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, n: int) -> Scalar:
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        base: Scalar = self
        k = n
        while k:
            if k & 1:
                out = base * out
            base = base * base
            k >>= 1
        return out

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Quad):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, _RATIONAL):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # agrees with Fraction when the sqrt part vanishes
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d), computed exactly."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (0 if a == 0 else 1)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs, rhs = a * a, b * b * self.d
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        diff = self - o
        return diff < 0 if isinstance(diff, _RATIONAL) else diff.sign() < 0

    def __repr__(self) -> str:
        return "Quad(%r, %r, %d)" % (self.a, self.b, self.d)

    def __str__(self) -> str:
        return format_scalar(self)


def split_scalar(x: Scalar) -> tuple[int, "int | tuple[int, int]", int]:
    """Integer parts of a scalar: (d, numerator, denominator).

    A rational gives d = 1 and an int numerator; an element a + b*sqrt(d)
    with b != 0 gives the pair of numerators of a and b over their least
    common positive denominator.  This and :func:`join_scalar` are the
    boundary between the scalar types and the integer polynomial kernels.
    """
    if isinstance(x, int):
        return 1, x, 1
    if isinstance(x, Fraction):
        return 1, x.numerator, x.denominator
    if isinstance(x, Quad):
        a, b = x.a, x.b
        if b == 0:
            return 1, a.numerator, a.denominator
        den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        return x.d, (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)), den
    raise TypeError("not an exact scalar: %r" % (x,))


def common_field(d1: int, d2: int) -> int:
    """The field holding both Q(sqrt(d1)) and Q(sqrt(d2)), d = 1 meaning Q."""
    if d1 == d2 or d2 == 1:
        return d1
    if d1 == 1:
        return d2
    raise ValueError("mixed quadratic fields: sqrt(%d) vs sqrt(%d)" % (d1, d2))


def split_scalars(values: Sequence[Scalar]) -> tuple[int, list, int]:
    """Integer numerators of several scalars over their least common
    positive denominator, in the smallest field holding them all.

    Returns (field, numerators, denominator); the numerators are ints over
    Q and int pairs otherwise, and the denominator is coprime to them all.
    """
    parts = [split_scalar(x) for x in values]
    d = 1
    for cd, _, _ in parts:
        d = common_field(d, cd)
    den = math.lcm(*(cden for _, _, cden in parts))
    nums = []
    for cd, cn, cden in parts:
        f = den // cden
        if d == 1:
            nums.append(cn * f)
        elif cd == 1:
            nums.append((cn * f, 0))
        else:
            nums.append((cn[0] * f, cn[1] * f))
    return d, nums, den


def join_scalar(d: int, num: "int | tuple[int, int]", den: int) -> Scalar:
    """Inverse of :func:`split_scalar`; a vanishing sqrt part gives a Fraction."""
    if d == 1:
        return Fraction(num, den)
    a, b = num
    if b == 0:
        return Fraction(a, den)
    return Quad(Fraction(a, den), Fraction(b, den), d)


def format_scalar(x: Scalar) -> str:
    """Render a scalar as an exact string such as ``-3/4`` or ``1/2+3*sqrt(5)``."""
    if isinstance(x, _RATIONAL):
        return str(_as_fraction(x))
    if x.b == 0:
        return str(x.a)
    b_abs = -x.b if x.b < 0 else x.b
    sqrt_part = "sqrt(%d)" % x.d if b_abs == 1 else "%s*sqrt(%d)" % (b_abs, x.d)
    sign = "-" if x.b < 0 else "+"
    if x.a == 0:
        return sqrt_part if sign == "+" else "-" + sqrt_part
    return "%s%s%s" % (x.a, sign, sqrt_part)


# the text format_scalar writes: -?R, or [-?R(+|-)|-][R*]sqrt(N) with R an
# unsigned integer or fraction
_R = r"\d+(?:/\d+)?"
_SCALAR_TEXT = re.compile(rf"(?P<rational>-?{_R})|(?:(?P<a>-?{_R})(?P<sign>[+-])|(?P<neg>-))?"
                          rf"(?:(?P<b>{_R})\*)?sqrt\((?P<d>\d+)\)")


# radicands up to 10^12 factor by trial division in at most 10^4 steps
_MAX_RADICAND = 10 ** 12


def _square_free(d: int) -> tuple[int, int]:
    """(s, f) with d = s*s*f and f square-free, for 0 <= d <= _MAX_RADICAND.

    Trial division takes out every prime p with p**3 <= d.  What is left
    has at most two prime factors, each above the cube root of d, so it
    is square-free unless it is a square.
    """
    s, f, rest = 1, 1, d
    p = 2
    while p * p * p <= d:
        while rest % (p * p) == 0:
            rest //= p * p
            s *= p
        if rest % p == 0:
            rest //= p
            f *= p
        p += 1
    root = math.isqrt(rest)
    if root * root == rest:
        return s * root, f
    return s, f * rest


def parse_scalar(s: str) -> Scalar:
    """Inverse of :func:`format_scalar`.

    This is where outside text becomes a scalar, so every malformed input
    raises ValueError: text that ``format_scalar`` would not write (such as
    ``0.5``, ``1 2``, ``3*-sqrt(5)`` or ``1e999999999``, whose power of ten
    alone takes minutes), a zero denominator, a square radicand, which would
    make Q(sqrt(d)) a ring with zero divisors, and a radicand above 10^12.  A radicand
    s*s*d with d square-free is read as s*sqrt(d).
    """
    text = s.strip()
    m = _SCALAR_TEXT.fullmatch(text)
    if m is None:
        raise ValueError("cannot parse scalar %r" % text)
    try:
        if m["rational"] is not None:
            return Fraction(m["rational"])
        a = Fraction(m["a"] or 0)
        b = Fraction(m["b"] or 1)
    except ZeroDivisionError:
        raise ValueError("zero denominator in scalar %r" % s) from None
    if m["sign"] == "-" or m["neg"]:
        b = -b
    d = int(m["d"])
    if d > _MAX_RADICAND:
        raise ValueError("radicand out of range in scalar %r" % text)
    root, d = _square_free(d)
    if d == 1:
        raise ValueError("square radicand in scalar %r" % text)
    out = Quad(a, b * root, d)
    return out if out.b != 0 else a
