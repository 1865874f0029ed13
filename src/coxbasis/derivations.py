"""Polynomial vector fields and the flat affine connection.

A Derivation is a vector field sum_i f_i d/dx_i with polynomial
coefficients, stored as one Poly per coordinate.  The degree of a
homogeneous derivation is the common total degree of its nonzero
coefficients, so the Euler field has degree 1.

The connection is nabla_{d1} d2 = sum_i (d1 f_i) d/dx_i where the f_i are
the coefficients of d2.  It is characterized by (nabla_{d1} d2)(alpha) =
d1(d2(alpha)) for linear forms alpha.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import PolyMatrix
from .poly import Poly, partial_combination
from .scalars import Quad, Scalar


class Derivation:
    """A polynomial vector field, one coefficient per coordinate."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Poly]) -> None:
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a derivation needs at least one coordinate")
        nvars = coeffs[0].nvars
        if any(c.nvars != nvars for c in coeffs):
            raise ValueError("coefficients disagree on variable count")
        if len(coeffs) != nvars:
            raise ValueError("a derivation needs exactly one coefficient per variable")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Derivation is immutable")

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, nvars: int) -> "Derivation":
        return cls([Poly.zero(nvars)] * nvars)

    @classmethod
    def coordinate(cls, nvars: int, i: int) -> "Derivation":
        one = Poly.constant(nvars, Fraction(1))
        return cls([one if j == i else Poly.zero(nvars) for j in range(nvars)])

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Derivation):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Derivation") -> "Derivation":
        return Derivation([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "Derivation") -> "Derivation":
        return Derivation([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "Derivation":
        return Derivation([-c for c in self.coeffs])

    def __mul__(self, other: "Poly | Scalar") -> "Derivation":
        if isinstance(other, Poly):
            return Derivation([other * c for c in self.coeffs])
        if isinstance(other, (int, Fraction, Quad)):
            return Derivation([c.scale(other) for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def apply(self, p: Poly) -> Poly:
        """Apply the derivation to a polynomial, sum_i f_i dp/dx_i, summed
        over one common denominator (``poly.partial_combination``)."""
        return partial_combination(self.coeffs, p)

    def is_homogeneous(self) -> bool:
        return (all(c.is_homogeneous() for c in self.coeffs)
                and len({c.homogeneous_degree() for c in self.coeffs} - {None}) <= 1)

    def degree(self) -> int | None:
        """Common degree of the nonzero coefficients; None for zero fields."""
        degs = {c.homogeneous_degree() for c in self.coeffs} - {None}
        if len(degs) > 1:
            raise ValueError("derivation is not homogeneous")
        return degs.pop() if degs else None

    def __repr__(self) -> str:
        return "Derivation(%r)" % (list(self.coeffs),)


def euler_field(nvars: int) -> Derivation:
    """The Euler field, x_i d/dx_i summed over all coordinates."""
    return Derivation([Poly.variable(nvars, i) for i in range(nvars)])


def nabla(d1: Derivation, d2: Derivation) -> Derivation:
    """Covariant derivative of d2 along d1 for the flat connection."""
    return Derivation([d1.apply(f) for f in d2.coeffs])


def coefficient_matrix(members: Sequence[Derivation]) -> PolyMatrix:
    """Matrix whose column j holds the coefficients of members[j]."""
    if not members:
        raise ValueError("no derivations given")
    n = members[0].nvars
    return PolyMatrix([[m.coeffs[i] for m in members] for i in range(n)])
