"""Sparse multivariate polynomials with exact coefficients on Python ints.

A polynomial stores integer numerators over one positive common
denominator: ``num`` maps the key of each monomial (below) to its nonzero
numerator and ``den`` is the smallest positive integer that clears every
coefficient, so equal polynomials have equal representations.  Over Q a
numerator is an int; over Q(sqrt(d)) an int pair (a, b) for a + b*sqrt(d),
with d stored once per polynomial (``d`` = 1 over Q, also when every sqrt
part cancels).  Products, sums, derivatives, substitution and division run
on these ints through one set of kernels for both fields.

The key of x^e is one int, as in Monagan and Pearce's POLY (Maple 17): the
total degree in the top field, then a ``WIDTH``-bit field per exponent,
e_0 most significant.  A monomial product is one int addition, descending
grlex order (degree first, then the exponents lexicographically), which
leading terms, division and every term list follow, is descending int
order, and a degree is one shift.  The top bit of each exponent field is a
guard, 0 in every key, so x^e divides x^f exactly when key(f) - key(e)
sets no guard bit.  The top field is unbounded and takes no carry; only a
degree above ``MAX_DEGREE`` could overflow an exponent field, and the
constructor and every product raise DegreeOverflow for one instead.
Exponent tuples and ``Fraction``/``Quad`` appear only at the boundary: the
constructor, ``terms`` (built on first use), ``leading_term``, evaluation
and the JSON term lists.

"alpha^m divides p" for a linear form alpha is decided by synthetic
division on integer numerators, never by factorization: one step
(`_divide_buckets`), repeated, writes p as sum_j r_j alpha^j.
`contact_orders` runs one chain of steps per form for many fields
(`_chain_orders`), and `order_constraint_rows` reads r_0 .. r_{m-1} of
several polynomials as the linear constraint rows of "alpha^m divides".
Evaluation reads integer points only, and every exact evaluation reads
one fixed stream of them, `sample_points`.  The JSON form of a polynomial,
a term list of exponent lists and exact coefficient strings, is defined
here once, for the reports, ``repr`` and ``--base-file``.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DegreeOverflow
from .scalars import (Quad, Scalar, common_field, format_scalar, join_scalar, parse_scalar,
                      split_scalar, split_scalars)

Exponents = tuple[int, ...]
# the (pivot variable, pivot coefficient, tail) of `pivot_form`
PivotForm = tuple[int, int, dict]

INFINITE_ORDER = math.inf

# bits per exponent field of a key; the top bit of each is the guard
WIDTH = 16
MAX_DEGREE = (1 << (WIDTH - 1)) - 1
_FIELD = (1 << WIDTH) - 1


@functools.lru_cache(maxsize=64)
def _layout(nvars: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """For keys in ``nvars`` variables: the shift of each exponent's field,
    the key of each variable and the guard bits of all exponent fields."""
    top = nvars * WIDTH
    shifts = tuple(range(top - WIDTH, -1, -WIDTH))
    units = tuple((1 << s) + (1 << top) for s in shifts)
    return shifts, units, sum(1 << (s + WIDTH - 1) for s in shifts)


def monomial_keys(monos: Sequence[Exponents], nvars: int) -> list[int]:
    """The keys of the monomials x^e, e in ``monos``; ValueError for a
    negative exponent and DegreeOverflow for a degree above MAX_DEGREE."""
    units = _layout(nvars)[1]
    keys = [sum(map(mul, e, units)) for e in monos]
    # with no negative exponent, a degree field above MAX_DEGREE is the only overflow
    if nvars and keys and (min(map(min, monos)) < 0 or max(keys) >> nvars * WIDTH > MAX_DEGREE):
        if min(map(min, monos)) < 0:
            raise ValueError("negative exponent in %r" % (min(monos, key=min),))
        raise DegreeOverflow("monomial of degree %d: degrees above %d do not fit a key"
                             % (max(map(sum, monos)), MAX_DEGREE))
    return keys


def linear_numerators(form: Poly) -> dict:
    """{i: numerator of x_i} of a linear form, in the order of its terms."""
    units = _layout(form.nvars)[1]
    return {units.index(k): c for k, c in form.num.items()}


# --- integer kernels ------------------------------------------------------
# A numerator dict maps keys to ints (d = 1) or to int pairs (d > 1).
# The kernels take and return such dicts; callers track the denominators.


def _promote(num: dict, d_from: int, d_to: int) -> dict:
    """A numerator dict in the representation of the field ``d_to``."""
    if d_from == d_to:
        return num
    return {e: (c, 0) for e, c in num.items()}


def _content(num: dict, d: int, den: int) -> int:
    if d == 1:
        return math.gcd(den, *num.values())
    return math.gcd(den, *chain.from_iterable(num.values()))


def _scale_num(num: dict, c, d: int) -> dict:
    """Every numerator times the int (d = 1) or pair c."""
    if d == 1:
        return {e: v * c for e, v in num.items()}
    ca, cb = c
    return {e: (a * ca + d * b * cb, a * cb + b * ca) for e, (a, b) in num.items()}


def _mul_num(a: dict, b: dict, d: int, top: int) -> dict:
    """Product of two numerator dicts whose keys have their degree field at
    ``top``: a monomial product is one int addition.  DegreeOverflow if
    the product's degree is above MAX_DEGREE."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if (max(a) + max(b)) >> top > MAX_DEGREE:
        raise DegreeOverflow("product of degree %d: degrees above %d do not fit a key"
                             % ((max(a) + max(b)) >> top, MAX_DEGREE))
    if len(a) == 1:
        ((k1, c1),) = a.items()
        if d == 1:
            return {k1 + k2: c1 * c2 for k2, c2 in b.items()}
        return _scale_num({k1 + k2: c2 for k2, c2 in b.items()}, c1, d)
    if d == 1:
        out: dict[int, int] = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return {k: c for k, c in out.items() if c}
    outa: dict[int, int] = {}
    outb: dict[int, int] = {}
    geta, getb = outa.get, outb.get
    for k1, (a1, b1) in a.items():
        for k2, (a2, b2) in b.items():
            k = k1 + k2
            outa[k] = geta(k, 0) + a1 * a2 + d * b1 * b2
            outb[k] = getb(k, 0) + a1 * b2 + b1 * a2
    return {k: (ca, outb[k]) for k, ca in outa.items() if ca or outb[k]}


def _add_into(acc: dict, num: dict, factor, d: int) -> None:
    """acc += factor * num, leaving zeros in place for a final sweep."""
    get = acc.get
    if d == 1:
        if factor == 1:
            for e, c in num.items():
                acc[e] = get(e, 0) + c
        else:
            for e, c in num.items():
                acc[e] = get(e, 0) + factor * c
        return
    fa, fb = factor
    for e, (a, b) in num.items():
        cur = get(e)
        xa = a * fa + d * b * fb
        xb = a * fb + b * fa
        acc[e] = (xa, xb) if cur is None else (cur[0] + xa, cur[1] + xb)


def _nonzero(acc: dict, d: int) -> dict:
    if d == 1:
        return {e: c for e, c in acc.items() if c}
    return {e: c for e, c in acc.items() if c[0] or c[1]}


def _partial_num(num: dict, i: int, d: int, nvars: int) -> dict:
    """The numerators of the partial derivative by variable ``i``."""
    shifts, units = _layout(nvars)[:2]
    s, unit = shifts[i], units[i]
    out = {}
    for k, c in num.items():
        e = k >> s & _FIELD
        if e:
            out[k - unit] = c * e if d == 1 else (c[0] * e, c[1] * e)
    return out


class Poly:
    """Immutable sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "d", "num", "den", "_terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Scalar] | None = None) -> None:
        exps_list, coeffs = [], []
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple %r does not have %d entries" % (exps, nvars))
            if coeff != 0:
                exps_list.append(exps)
                coeffs.append(coeff)
        d, nums, den = split_scalars(coeffs)
        _init(self, nvars, d, dict(zip(monomial_keys(exps_list, nvars), nums)), den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _new(nvars, 1, {}, 1)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        return _new(nvars, 1, {_layout(nvars)[1][i]: 1}, 1)

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents, c: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> "Poly":
        n = len(coeffs)
        return cls(n, {tuple(1 if j == i else 0 for j in range(n)): c
                       for i, c in enumerate(coeffs)})

    @property
    def terms(self) -> dict[Exponents, Scalar]:
        """The exponents -> Fraction/Quad view, built on first use."""
        view = self._terms
        if view is None:
            d, den, shifts = self.d, self.den, _layout(self.nvars)[0]
            view = {tuple([k >> s & _FIELD for s in shifts]): join_scalar(d, c, den)
                    for k, c in self.num.items()}
            object.__setattr__(self, "_terms", view)
        return view

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return (self.nvars == other.nvars and self.d == other.d
                    and self.den == other.den and self.num == other.num)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, self.d, self.den, frozenset(self.num.items())))

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the denominators."""
        self._check_compatible(other)
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        d = common_field(self.d, other.d)
        a = _promote(self.num, self.d, d)
        b = _promote(other.num, other.d, d)
        da, db = self.den, other.den
        g = math.gcd(da, db)
        den = da // g * db
        fa, fb = db // g, sign * (da // g)
        out = dict(a) if fa == 1 else _scale_num(a, fa if d == 1 else (fa, 0), d)
        _add_into(out, b, fb if d == 1 else (fb, 0), d)
        return _make(self.nvars, d, _nonzero(out, d), den)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        if self.d == 1:
            num = {e: -c for e, c in self.num.items()}
        else:
            num = {e: (-a, -b) for e, (a, b) in self.num.items()}
        return _new(self.nvars, self.d, num, self.den)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            self._check_compatible(other)
            if not self.num or not other.num:
                return Poly.zero(self.nvars)
            d = common_field(self.d, other.d)
            num = _mul_num(_promote(self.num, self.d, d), _promote(other.num, other.d, d), d,
                           self.nvars * WIDTH)
            return _make(self.nvars, d, num, self.den * other.den)
        if isinstance(other, (int, Fraction, Quad)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction, Quad)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Scalar) -> "Poly":
        if c == 0:
            return Poly.zero(self.nvars)
        cd, cn, cden = split_scalar(c)
        if cd == 1 and cn == cden:
            return self
        d = common_field(self.d, cd)
        num = _scale_num(_promote(self.num, self.d, d), cn if cd == d else (cn, 0), d)
        return _make(self.nvars, d, num, self.den * cden)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = _new(self.nvars, 1, {0: 1}, 1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("polynomials in %d and %d variables" % (self.nvars, other.nvars))

    def is_homogeneous(self) -> bool:
        top = self.nvars * WIDTH
        return len({k >> top for k in self.num}) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms; None for zero, error if mixed."""
        top = self.nvars * WIDTH
        degs = {k >> top for k in self.num}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else None

    def leading_term(self) -> tuple[Exponents, Scalar]:
        if not self.num:
            raise ValueError("zero polynomial has no leading term")
        k = max(self.num)
        exps = tuple([k >> s & _FIELD for s in _layout(self.nvars)[0]])
        return exps, join_scalar(self.d, self.num[k], self.den)

    def monic(self) -> "Poly":
        _, c = self.leading_term()
        if c == 1:
            return self
        return self.scale(1 / c)

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable ``i``."""
        return _make(self.nvars, self.d, _partial_num(self.num, i, self.d, self.nvars), self.den)

    def substitute(self, forms: Sequence["Poly"]) -> "Poly":
        """Substitute ``forms[i]`` for variable ``i``."""
        if len(forms) != self.nvars:
            raise ValueError("need %d substitution polynomials, got %d" % (self.nvars, len(forms)))
        target = forms[0].nvars if forms else 0
        for f in forms:
            if f.nvars != target:
                raise ValueError("substitution polynomials disagree on variable count")
        return substitute_sum(self, [tuple(Powers(f) for f in forms)], target)

    def evaluate(self, point: Sequence[int]) -> Scalar:
        """Exact value at an integer point: `numerator_at` over ``den``."""
        if not all(isinstance(x, int) for x in point):
            raise ValueError("evaluation needs integer coordinates")
        return join_scalar(self.d, self.numerator_at(point), self.den)

    def numerator_at(self, point: Sequence[int]) -> "int | tuple[int, int]":
        """The value at an integral point times ``den``: an int over Q, an
        int pair over Q(sqrt(d))."""
        if len(point) != self.nvars:
            raise ValueError("need %d coordinates, got %d" % (self.nvars, len(point)))
        shifts = _layout(self.nvars)[0]
        d = self.d
        ta = tb = 0
        for k, c in self.num.items():
            m = 1
            for s, x in zip(shifts, point):
                m *= x ** (k >> s & _FIELD)
            if d == 1:
                ta += c * m
            else:
                ta += c[0] * m
                tb += c[1] * m
        return ta if d == 1 else (ta, tb)

    def divrem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder of division by one divisor in grlex order.

        The divisor is made monic with integer numerators over m.  A
        quotient step needs its coefficient divisible by m; when it is
        not, the work, quotient and remainder numerators are rescaled
        once by the missing factor, so exact divisions by integral monic
        divisors never rescale at all.
        """
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(divisor.num)
        lt_coeff = join_scalar(divisor.d, divisor.num[lead], divisor.den)
        monic = divisor if lt_coeff == 1 else divisor.scale(1 / lt_coeff)
        d = common_field(self.d, monic.d)
        m = monic.den
        guards = _layout(self.nvars)[2]
        tail = [(k, c) for k, c in _promote(monic.num, monic.d, d).items() if k != lead]
        work = dict(_promote(self.num, self.d, d))
        wden = self.den
        # a min-heap of negated keys pops the leading monomial first
        heap = [-k for k in work]
        heapq.heapify(heap)
        quot: dict = {}
        rem: dict = {}
        while heap:
            k = -heapq.heappop(heap)
            c = work.pop(k, None)
            if c is None:
                continue  # stale heap entry
            t = k - lead
            if t & guards:  # the leading monomial does not divide x^k
                rem[k] = c
                continue
            if m != 1:
                g = m // (math.gcd(m, c) if d == 1 else math.gcd(m, *c))
                if g != 1:
                    wden *= g
                    gg = g if d == 1 else (g, 0)
                    work = _scale_num(work, gg, d)
                    quot = _scale_num(quot, gg, d)
                    rem = _scale_num(rem, gg, d)
                    c = c * g if d == 1 else (c[0] * g, c[1] * g)
                q = c // m if d == 1 else (c[0] // m, c[1] // m)
            else:
                q = c
            quot[t] = c
            for d_key, d_coeff in tail:
                target = t + d_key
                cur = work.get(target)
                if d == 1:
                    s = (0 if cur is None else cur) - q * d_coeff
                    nz = s != 0
                else:
                    qa, qb = q
                    ca, cb = d_coeff
                    s = (-(qa * ca + d * qb * cb), -(qa * cb + qb * ca))
                    if cur is not None:
                        s = (cur[0] + s[0], cur[1] + s[1])
                    nz = s[0] != 0 or s[1] != 0
                if nz:
                    if cur is None:
                        heapq.heappush(heap, -target)
                    work[target] = s
                elif cur is not None:
                    del work[target]
        quotient = _make(self.nvars, d, quot, wden)
        if lt_coeff != 1:
            quotient = quotient.scale(1 / lt_coeff)
        return quotient, _make(self.nvars, d, rem, wden)

    def __repr__(self) -> str:
        return "Poly(%d, %s)" % (self.nvars, poly_to_json(self))


_set = object.__setattr__


def _init(p: Poly, nvars: int, d: int, num: dict, den: int) -> None:
    _set(p, "nvars", nvars)
    _set(p, "d", d)
    _set(p, "num", num)
    _set(p, "den", den)
    _set(p, "_terms", None)


def _new(nvars: int, d: int, num: dict, den: int) -> Poly:
    """A polynomial from numerators already in normal form."""
    p = object.__new__(Poly)
    _init(p, nvars, d, num, den)
    return p


def _make(nvars: int, d: int, num: dict, den: int) -> Poly:
    """A polynomial from nonzero numerators over a positive denominator.

    Demotes to Q when every sqrt part vanishes and divides out the common
    factor of the denominator and the numerators.
    """
    if d != 1 and not any(b for _, b in num.values()):
        d = 1
        num = {e: a for e, (a, _) in num.items()}
    if den != 1:
        if not num:
            den = 1
        else:
            g = _content(num, d, den)
            if g != 1:
                den //= g
                if d == 1:
                    num = {e: c // g for e, c in num.items()}
                else:
                    num = {e: (a // g, b // g) for e, (a, b) in num.items()}
    return _new(nvars, d, num, den)


class Powers:
    """The powers of one polynomial's numerators, grown on demand.

    Power e of a polynomial F = N / f is N^e / f^e; the table keeps the
    numerator dicts N^e, so substitutions that reuse a form (every term
    of one polynomial, or every candidate of one Reynolds average) never
    recompute its powers.
    """

    __slots__ = ("d", "den", "top", "_pows")

    def __init__(self, form: Poly) -> None:
        self.d = form.d
        self.den = form.den
        self.top = form.nvars * WIDTH
        self._pows = [{0: 1 if form.d == 1 else (1, 0)}, form.num]

    def get(self, e: int) -> dict:
        pows = self._pows
        while len(pows) <= e:
            pows.append(_mul_num(pows[-1], pows[1], self.d, self.top))
        return pows[e]


def substitute_sum(p: Poly, substitutions: Sequence[Sequence[Powers]], nvars: int) -> Poly:
    """The sum over substitutions of p with table i's form put for variable i.

    All results are accumulated into one numerator dict over one common
    denominator: a term x^E of p becomes c_E times the product of the
    tables' powers, scaled by the table denominators the term does not use.
    """
    if not p.num:
        return Poly.zero(nvars)
    d = p.d
    for tables in substitutions:
        for t in tables:
            d = common_field(d, t.d)
    shifts = _layout(p.nvars)[0]
    terms = [([k >> s & _FIELD for s in shifts], c) for k, c in _promote(p.num, p.d, d).items()]
    high = [max(col) for col in zip(*(e for e, _ in terms))]
    # per substitution the product of den_i^high_i, and the common multiple
    clears = [math.prod(t.den ** k for t, k in zip(tables, high)) for tables in substitutions]
    common = math.lcm(*clears)
    top = nvars * WIDTH
    acc: dict = {}
    for tables, clear in zip(substitutions, clears):
        outer = common // clear
        for exps, c in terms:
            factor = outer
            prod = None
            for t, e, k in zip(tables, exps, high):
                if e < k:
                    factor *= t.den ** (k - e)
                if e:
                    pw = _promote(t.get(e), t.d, d)
                    prod = pw if prod is None else _mul_num(prod, pw, d, top)
            if prod is None:
                prod = {0: 1 if d == 1 else (1, 0)}
            _add_into(acc, prod, c * factor if d == 1 else (c[0] * factor, c[1] * factor), d)
    return _make(nvars, d, _nonzero(acc, d), p.den * common)


def poly_to_json(p: Poly) -> list:
    """The term list [[exponents, coefficient string], ...] in descending
    grlex order, each rational coefficient written from its numerator over
    ``den``."""
    d, den, num = p.d, p.den, p.num
    shifts = _layout(p.nvars)[0]
    out = []
    for k in sorted(num, reverse=True):
        c = num[k]
        if d != 1:
            text = format_scalar(join_scalar(d, c, den))
        else:
            g = math.gcd(c, den)
            text = str(c // g) if g == den else "%d/%d" % (c // g, den // g)
        out.append([[k >> s & _FIELD for s in shifts], text])
    return out


def poly_from_json(data: Sequence, nvars: int) -> Poly:
    """Parse a term list; raises ValueError on any malformed term and on
    two terms with the same exponents."""
    if not isinstance(data, list):
        raise ValueError("a polynomial must be a list of terms")
    terms = {}
    for term in data:
        if not (isinstance(term, list) and len(term) == 2):
            raise ValueError("malformed polynomial term %r" % (term,))
        exps, coeff = term
        if (not isinstance(coeff, str) or not isinstance(exps, list) or len(exps) != nvars
                or not all(type(e) is int and e >= 0 for e in exps)):
            raise ValueError("malformed polynomial term %r" % (term,))
        if tuple(exps) in terms:
            raise ValueError("repeated exponents in polynomial term %r" % (term,))
        terms[tuple(exps)] = parse_scalar(coeff)
    return Poly(nvars, terms)


def linear_combination(polys: Sequence[Poly], form: Poly) -> Poly:
    """sum_i a_i * polys[i] for the linear form sum_i a_i x_i.

    One integer combination of the numerators over one common
    denominator; for the coefficients of a field this is the field
    applied to the form.
    """
    top = form.nvars * WIDTH
    if len(polys) != form.nvars or any(k >> top != 1 for k in form.num):
        raise ValueError("need a linear form in %d variables" % len(polys))
    d = form.d
    picked = []
    for i, c in linear_numerators(form).items():
        f = polys[i]
        if f.num:
            d = common_field(d, f.d)
            picked.append((f, c))
    if not picked:
        return Poly.zero(form.nvars)
    den = math.lcm(*(f.den for f, _ in picked))
    acc: dict = {}
    for f, c in picked:
        s = den // f.den
        factor = c * s if d == 1 else (c * s, 0) if form.d == 1 else (c[0] * s, c[1] * s)
        _add_into(acc, _promote(f.num, f.d, d), factor, d)
    return _make(form.nvars, d, _nonzero(acc, d), den * form.den)


def partial_combination(polys: Sequence[Poly], p: Poly) -> Poly:
    """sum_i polys[i] * dp/dx_i, the field with coefficients ``polys``
    applied to p: the products of numerators summed over one common
    denominator and normalized once."""
    picked = [(f, i) for i, f in enumerate(polys) if f.num]
    d = p.d
    for f, _ in picked:
        d = common_field(d, f.d)
    num = _promote(p.num, p.d, d)
    den = math.lcm(*(f.den for f, _ in picked))
    acc: dict = {}
    for f, i in picked:
        s = den // f.den
        _add_into(acc, _mul_num(_promote(f.num, f.d, d), _partial_num(num, i, d, p.nvars), d,
                                p.nvars * WIDTH), s if d == 1 else (s, 0), d)
    return _make(p.nvars, d, _nonzero(acc, d), den * p.den)


def contact_orders(fields: Sequence[Sequence[Poly]], forms: Sequence[Poly],
                   pivots: Callable[[int, int], PivotForm] | None = None
                   ) -> list[tuple[int | float, ...]]:
    """One row per field theta = sum_i theta_i d/dx_i, given by its
    coefficients: at each form alpha = sum_i a_i x_i, the largest k with
    alpha^k dividing theta(alpha) = sum_i a_i theta_i, ``math.inf`` where
    that is 0.

    Each form runs one division chain for all the fields (`_chain_orders`):
    every field's coefficients are bucketed once per pivot variable, tagged
    with the field's index, and theta(alpha) of every field is summed into
    one set of buckets, each factor carrying its field's common denominator
    and the form's one scale a^D.  ``pivots(k, d)``, if given, is the
    `pivot_form` of forms[k] over the field d (``Arrangement.pivot_form``)."""
    if not forms:
        return [()] * len(fields)
    n = forms[0].nvars
    if any(len(coeffs) != n for coeffs in fields):
        raise ValueError("a field in %d variables needs %d coefficients" % (n, n))
    polys = [p for coeffs in fields for p in coeffs]
    d = 1
    for alpha in forms:
        d = common_field(d, _division_field(alpha, polys))
    nums = [_promote(p.num, p.d, d) for p in polys]
    tags = [f for f in range(len(fields)) for _ in range(n)]
    scales = []
    for coeffs in fields:
        den = math.lcm(*(p.den for p in coeffs))
        scales += [den // p.den for p in coeffs]
    shifts = _layout(n)[0]
    by_pivot: dict[int, list] = {}
    columns = []
    for k, alpha in enumerate(forms):
        v, a, tail = pivots(k, d) if pivots else pivot_form(alpha, d)
        if v not in by_pivot:
            by_pivot[v] = _bucketed(nums, n, v, tags)
        bucketed = by_pivot[v]
        factors = ((v, a if d == 1 else (a, 0)), *tail.items())
        depth = max((len(bucketed[f * n + t]) for f in range(len(fields)) for t, _ in factors),
                    default=0)
        power = a ** max(0, depth - 1)
        buckets: list[dict] = [{} for _ in range(depth)]
        for f in range(len(fields)):
            for t, c in factors:
                s = scales[f * n + t] * power
                for acc, b in zip(buckets, bucketed[f * n + t]):
                    _add_into(acc, b, c * s if d == 1 else (c[0] * s, c[1] * s), d)
        steps = [(1 << shifts[t], c) for t, c in tail.items()]
        columns.append(_chain_orders(buckets, a, steps, d, shifts[v], len(fields)))
    return list(zip(*columns))


def _chain_orders(buckets: list[dict], a: int, steps: list, d: int, top: int,
                  count: int) -> list[int | float]:
    """The orders of `count` tagged polynomials at one form, from one chain
    of `_divide_buckets` steps on their shared buckets: a polynomial's
    order is the index of the first remainder with a nonzero entry under
    its tag (the exponent field at ``top``), and from then on its terms
    are dropped from the quotient, so it is not divided again."""
    orders: list[int | float] = [INFINITE_ORDER] * count
    j = 0
    while any(buckets):
        quotient = _divide_buckets(buckets, a, steps, d)
        done = {k >> top & _FIELD for k in _nonzero(buckets[0], d)}
        if done:
            for f in done:
                orders[f] = j
            quotient = [{k: c for k, c in b.items() if k >> top & _FIELD not in done}
                        for b in quotient]
        buckets = quotient
        j += 1
    return orders


def order_constraint_rows(applied: Sequence[Poly], alpha: Poly, m: int, d: int,
                          pivot: Callable[[int], PivotForm] | None = None) -> list[list]:
    """Integer rows forcing alpha^m to divide a combination of ``applied``.

    Each p is sum_j r_j alpha^j with no r_j containing the pivot variable
    of `pivot_form`, so alpha^m divides a combination exactly when the
    same combination of the r_0 ... r_{m-1} vanishes.  The r_j come from
    `_remainders`, with every polynomial scaled by one shared factor (the
    common denominator times a^D, a the pivot coefficient, D the top pivot
    exponent of all of them); each monomial of some r_j is one row, filled
    in as the division finds it.  Entries are ints over Q (d = 1) and int
    pairs over Q(sqrt(d)), as in ``linalg.Echelon``.  ``pivot(field)``, if
    given, is the `pivot_form` of alpha over the field of the division.
    """
    field = _division_field(alpha, applied)
    v, a, tail = pivot(field) if pivot else pivot_form(alpha, field)
    bucketed = _bucketed([_promote(p.num, p.d, field) for p in applied], alpha.nvars, v)
    shifts = _layout(alpha.nvars)[0]
    steps = [(1 << shifts[t], c) for t, c in tail.items()]
    power = a ** max(0, max(map(len, bucketed), default=0) - 1)
    den = math.lcm(*(p.den for p in applied))
    zero = 0 if d == 1 else (0, 0)
    slots: dict[tuple[int, int], list] = {}
    for u, (p, buckets) in enumerate(zip(applied, bucketed)):
        buckets = _scale_buckets(buckets, den // p.den * power, field)
        for j, r in zip(range(m), _remainders(buckets, a, steps, field)):
            for k, c in r.items():
                row = slots.get((j, k))
                if row is None:
                    row = slots[j, k] = [zero] * len(applied)
                row[u] = c if field == d else (c, 0)
    return list(slots.values())


def _division_field(alpha: Poly, polys: Iterable[Poly]) -> int:
    """The field holding alpha and the polynomials; ValueError unless alpha
    is a nonzero homogeneous linear form in their variables."""
    top = alpha.nvars * WIDTH
    if not alpha.num or any(k >> top != 1 for k in alpha.num):
        raise ValueError("order is only defined along a nonzero homogeneous linear form")
    d = alpha.d
    for p in polys:
        if p.nvars != alpha.nvars:
            raise ValueError("the form and the polynomials have different variables")
        d = common_field(d, p.d)
    return d


def pivot_form(alpha: Poly, d: int) -> PivotForm:
    """A primitive integral multiple of alpha as a*x_v + tail.

    Returns the pivot variable v, the pivot coefficient a, a rational
    integer, and the tail as {variable: numerator}.  Over Q the pivot is
    a coefficient of least absolute value; over Q(sqrt(d)) a rational one
    of least norm if there is one, and alpha is multiplied by the
    conjugate of its pivot coefficient.  Scaling alpha leaves every order
    unchanged.
    """
    coeffs = _promote(linear_numerators(alpha), alpha.d, d)
    if d == 1:
        pivot = min(coeffs, key=lambda t: (abs(coeffs[t]), t))
    else:
        pivot = min(coeffs, key=lambda t: (coeffs[t][1] != 0,
                                           abs(coeffs[t][0] ** 2 - d * coeffs[t][1] ** 2), t))
        ca, cb = coeffs[pivot]
        coeffs = _scale_num(coeffs, (ca, -cb), d)
    g = _content(coeffs, d, 0)
    coeffs = {t: c // g if d == 1 else (c[0] // g, c[1] // g) for t, c in coeffs.items()}
    a = coeffs.pop(pivot) if d == 1 else coeffs.pop(pivot)[0]
    return pivot, a, coeffs


def _bucketed(nums: Sequence[dict], nvars: int, pivot: int,
              tags: Sequence[int] | None = None) -> list[list[dict]]:
    """Numerator dicts as buckets by pivot exponent, ready for `_divide_buckets`.

    Bucket j of a dict maps the key of each term with pivot exponent j,
    its degree and pivot fields cleared (short keys for a short chain), to
    its numerator; a dict's tag, if given, is put in the pivot's field.
    Multiplying a bucketed term by x_t then adds 1 << (x_t's shift)."""
    s, low = _layout(nvars)[0][pivot], (1 << nvars * WIDTH) - 1
    out = []
    for u, num in enumerate(nums):
        tag = tags[u] << s if tags else 0
        depth = max((k >> s & _FIELD for k in num), default=-1) + 1
        buckets: list[dict] = [{} for _ in range(depth)]
        for k, c in num.items():
            e = k >> s & _FIELD
            buckets[e][k & low ^ e << s | tag] = c
        out.append(buckets)
    return out


def _scale_buckets(buckets: list[dict], s: int, d: int) -> list[dict]:
    if s == 1:
        return buckets
    return [_scale_num(b, s if d == 1 else (s, 0), d) for b in buckets]


def _remainders(buckets: list[dict], a: int, steps: list, d: int) -> Iterator[dict]:
    """r_0, r_1, ... of p = sum_j r_j alpha^j, one `_divide_buckets` step
    each, for buckets of p scaled by a multiple of a^D (a the pivot
    coefficient, D the top pivot exponent), so every quotient is integral."""
    while buckets:
        quotient = _divide_buckets(buckets, a, steps, d)
        yield _nonzero(buckets[0], d)
        buckets = quotient


def _divide_buckets(buckets: list[dict], a: int, steps: list, d: int) -> list[dict]:
    """One synthetic division of bucketed numerators by a*x_v + tail.

    From the top bucket down, a quotient coefficient is q = c / a, and
    -q times the tail goes into the bucket below, one int addition per
    term of the tail.  The remainder is left in ``buckets[0]``, zeros
    included; returns the quotient's buckets.  The dividend must be
    scaled as `_remainders` says, so a divides every c.
    """
    quotient = []
    for j in range(len(buckets) - 1, 0, -1):
        below = buckets[j - 1]
        get = below.get
        qb: dict = {}
        if d == 1:
            for k, c in buckets[j].items():
                if not c:
                    continue
                if a != 1:
                    c, r = divmod(c, a)
                    assert not r, "the scale by a^D keeps every quotient integral"
                qb[k] = c
                for step, lc in steps:
                    t = k + step
                    below[t] = get(t, 0) - c * lc
        else:
            for k, (ca, cb) in buckets[j].items():
                if not (ca or cb):
                    continue
                if a != 1:
                    ca, ra = divmod(ca, a)
                    cb, rb = divmod(cb, a)
                    assert not (ra or rb), "the scale by a^D keeps every quotient integral"
                qb[k] = (ca, cb)
                for step, (la, lb) in steps:
                    t = k + step
                    xa, xb = get(t, (0, 0))
                    below[t] = (xa - ca * la - d * cb * lb, xb - ca * lb - cb * la)
        quotient.append(qb)
    quotient.reverse()
    return quotient


# small integer points in general position: the inverse of the connection
# reads point after point of the stream, and a curve such as the moment curve
# (1, t, t^2, ...) will not do there, because an image in the ideal of that
# curve vanishes at every point of it
_POINT_SEED = 2002


def sample_points(nvars: int) -> Iterator[tuple[int, ...]]:
    """The fixed, endless stream of integer points in [-r, r]^nvars,
    r = max(9, 2 * nvars), at which the package evaluates exactly."""
    rng = random.Random(_POINT_SEED)
    # a point off B_n needs n distinct nonzero absolute values, off D_n n
    # distinct ones, so the range grows with the rank; it is 9 up to rank 4
    bound = max(9, 2 * nvars)
    while True:
        yield tuple(rng.randint(-bound, bound) for _ in range(nvars))


def numerator_in(p: Poly, point: Sequence[int], scale: int, d: int) -> "int | tuple[int, int]":
    """p's numerator at an integral point times an integer scale, in the
    field d that holds p: an int over Q, an int pair over Q(sqrt(d))."""
    v = p.numerator_at(point)
    if d == 1:
        return v * scale
    return (v * scale, 0) if p.d == 1 else (v[0] * scale, v[1] * scale)


def weighted_exponents(weights: Sequence[int], total: int) -> Iterator[Exponents]:
    """All exponent tuples e with sum_i e_i * weights[i] = total, the first
    exponent descending and the rest likewise for each; unit weights give
    the monomials of one degree in descending grlex."""
    if total < 0:
        return
    if not weights:
        if total == 0:
            yield ()
        return
    w, rest = weights[0], weights[1:]
    if not rest:
        if total % w == 0:
            yield (total // w,)
        return
    for e in range(total // w, -1, -1):
        for tail in weighted_exponents(rest, total - e * w):
            yield (e, *tail)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, descending grlex."""
    return weighted_exponents((1,) * nvars, degree)


def product(polys: Iterable[Poly], nvars: int) -> Poly:
    out = _new(nvars, 1, {0: 1}, 1)
    for p in polys:
        out = out * p
    return out
