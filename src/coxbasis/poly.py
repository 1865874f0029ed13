"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a dict from exponent tuples to nonzero scalars
(Fraction or Quad).  The monomial order used everywhere is graded
lexicographic: compare total degree first, then the exponent tuple
lexicographically.  Leading terms, division, and all serialized term
lists refer to this order.

Division is plain multivariate division by a single divisor.  Exact
division raises :class:`~coxbasis.errors.NotDivisible` carrying the
remainder, which doubles as the membership test for the whole package:
"alpha^m divides p" is decided by m successive exact divisions, never by
factorization.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import NotDivisible
from .scalars import Quad, Scalar, format_scalar, scalar_inverse

Exponents = tuple[int, ...]

INFINITE_ORDER = math.inf


def grlex_key(exps: Exponents) -> tuple[int, Exponents]:
    return (sum(exps), exps)


def _heap_key(exps: Exponents) -> tuple[int, Exponents]:
    # negated grlex key, so a min-heap pops the leading monomial first
    return (-sum(exps), tuple(-e for e in exps))


def _clean_coeff(c: Scalar) -> Scalar:
    # ints are promoted so scalar division can never fall into floats
    return Fraction(c) if isinstance(c, int) else c


class Poly:
    """Immutable sparse polynomial in ``nvars`` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponents, Scalar] | None = None) -> None:
        clean: dict[Exponents, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple %r does not have %d entries" % (exps, nvars))
                if coeff == 0:
                    continue
                clean[exps] = _clean_coeff(coeff)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Exponents, c: Scalar = 1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    @classmethod
    def linear(cls, coeffs: Sequence[Scalar]) -> "Poly":
        n = len(coeffs)
        return cls(n, {tuple(1 if j == i else 0 for j in range(n)): c
                       for i, c in enumerate(coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            s = out.get(exps, 0) + coeff
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            self._check_compatible(other)
            out: dict[Exponents, Scalar] = {}
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    exps = tuple(x + y for x, y in zip(e1, e2))
                    s = out.get(exps, 0) + c1 * c2
                    if s == 0:
                        out.pop(exps, None)
                    else:
                        out[exps] = s
            return Poly(self.nvars, out)
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
        c = _clean_coeff(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(self.nvars, Fraction(1))
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

    def total_degree(self) -> int | float:
        """Maximum total degree, -inf for the zero polynomial."""
        if not self.terms:
            return -INFINITE_ORDER
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms; None for zero, error if mixed."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def leading_term(self) -> tuple[Exponents, Scalar]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def leading_coefficient(self) -> Scalar:
        return self.leading_term()[1]

    def monic(self) -> "Poly":
        _, c = self.leading_term()
        if c == 1:
            return self
        return self.scale(scalar_inverse(c))

    def coefficient(self, exps: Exponents) -> Scalar:
        return self.terms.get(tuple(exps), Fraction(0))

    def partial(self, i: int) -> "Poly":
        """Partial derivative with respect to variable ``i``."""
        out: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            lowered = exps[:i] + (e - 1,) + exps[i + 1:]
            out[lowered] = coeff * e
        return Poly(self.nvars, out)

    def substitute(self, forms: Sequence["Poly"]) -> "Poly":
        """Substitute ``forms[i]`` for variable ``i``."""
        if len(forms) != self.nvars:
            raise ValueError("need %d substitution polynomials, got %d" % (self.nvars, len(forms)))
        target = forms[0].nvars if forms else 0
        for f in forms:
            if f.nvars != target:
                raise ValueError("substitution polynomials disagree on variable count")
        powers: list[list[Poly]] = [[Poly.constant(target, Fraction(1))] for _ in range(self.nvars)]
        one = Poly.constant(target, Fraction(1))

        def power(i: int, e: int) -> Poly:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * forms[i])
            return cache[e]

        out = Poly.zero(target)
        for exps, coeff in self.terms.items():
            term = one.scale(coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        """Exact value at a point given by one scalar per variable."""
        if len(point) != self.nvars:
            raise ValueError("need %d coordinates, got %d" % (self.nvars, len(point)))
        powers: dict[tuple[int, int], Scalar] = {}
        total: Scalar = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = point[i] ** e
                    term = term * pw
            total = total + term
        return total

    def divrem(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder of division by one divisor in grlex order."""
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lt_exps, lt_coeff = divisor.leading_term()
        inv_lt = scalar_inverse(lt_coeff)
        work = dict(self.terms)
        heap = [(_heap_key(e), e) for e in work]
        heapq.heapify(heap)
        quot: dict[Exponents, Scalar] = {}
        rem: dict[Exponents, Scalar] = {}
        while heap:
            _, exps = heapq.heappop(heap)
            coeff = work.get(exps)
            if coeff is None:
                continue  # stale heap entry
            del work[exps]
            if all(a >= b for a, b in zip(exps, lt_exps)):
                t_exps = tuple(a - b for a, b in zip(exps, lt_exps))
                t_coeff = coeff * inv_lt
                quot[t_exps] = quot.get(t_exps, 0) + t_coeff
                for d_exps, d_coeff in divisor.terms.items():
                    if d_exps == lt_exps:
                        continue
                    target = tuple(a + b for a, b in zip(t_exps, d_exps))
                    s = work.get(target, 0) - t_coeff * d_coeff
                    if s == 0:
                        work.pop(target, None)
                    else:
                        if target not in work:
                            heapq.heappush(heap, (_heap_key(target), target))
                        work[target] = s
            else:
                rem[exps] = coeff
        return Poly(self.nvars, quot), Poly(self.nvars, rem)

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact quotient; raises NotDivisible with the remainder otherwise."""
        quot, rem = self.divrem(divisor)
        if not rem.is_zero:
            raise NotDivisible("division left a nonzero remainder", remainder=rem)
        return quot

    def terms_sorted(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending grlex order (the canonical serialization)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.nvars)
        pieces: list[str] = []
        for exps, coeff in self.terms_sorted():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            cs = format_scalar(coeff)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    term = body
                elif cs == "-1":
                    term = "-" + body
                else:
                    term = "%s*%s" % (("(%s)" % cs) if ("+" in cs[1:] or "-" in cs[1:]) else cs, body)
            else:
                term = ("(%s)" % cs) if ("+" in cs[1:] or "-" in cs[1:]) else cs
            pieces.append(term)
        out = pieces[0]
        for term in pieces[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def __repr__(self) -> str:
        return "Poly(%d, %s)" % (self.nvars, self.to_str())


def default_names(nvars: int) -> list[str]:
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return ["x%d" % (i + 1) for i in range(nvars)]


def linear_form_order(p: Poly, alpha: Poly) -> int | float:
    """Largest k with alpha^k dividing p, by repeated exact division.

    Returns ``math.inf`` for p = 0.  ``alpha`` must be a nonzero linear form.
    """
    if alpha.is_zero or alpha.total_degree() != 1:
        raise ValueError("order is only defined along a nonzero linear form")
    if p.is_zero:
        return INFINITE_ORDER
    order = 0
    while True:
        try:
            p = p.divide_exact(alpha)
        except NotDivisible:
            return order
        order += 1


def point_off(forms: Sequence[Poly], nvars: int) -> tuple[tuple[Fraction, ...], tuple[Scalar, ...]]:
    """The first point (1, t, t^2, ...), t = 1, 2, ..., where no form vanishes.

    Returns the point together with the values of the forms there.  The
    forms must be nonzero linear forms: each is then a nonzero polynomial
    of degree below ``nvars`` in t along this curve, so only finitely many
    t are skipped and the search ends.
    """
    for f in forms:
        if f.nvars != nvars or f.is_zero or not f.is_homogeneous() or f.total_degree() != 1:
            raise ValueError("point_off needs nonzero linear forms in %d variables" % nvars)
    t = 1
    while True:
        point = tuple(Fraction(t) ** i for i in range(nvars))
        values = tuple(f.evaluate(point) for f in forms)
        if all(v != 0 for v in values):
            return point, values
        t += 1


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, descending grlex."""
    if degree < 0:
        return
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def count_monomials(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def product(polys: Iterable[Poly], nvars: int) -> Poly:
    out = Poly.constant(nvars, Fraction(1))
    for p in polys:
        out = out * p
    return out
