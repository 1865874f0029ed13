"""Exception hierarchy.

Everything raised on purpose derives from CoxBasisError.  The CLI maps
NotABasis to exit code 2, failed or internally inconsistent certificates
and group constructions to 3, and unsupported input (a degree too) or
exceeded budgets to 4.
"""

from __future__ import annotations


class CoxBasisError(Exception):
    """Base class for all package errors."""


class NoSolution(CoxBasisError):
    """A linear system has no solution; for the connection solver this
    signals a non-invariant or otherwise malformed input field."""


class NonUniqueSolution(CoxBasisError):
    """A solve that must be unique found a nontrivial kernel; this is an
    internal consistency failure, not a user error."""


class NotPolynomial(CoxBasisError):
    """A covariant-derivative component is not polynomial; carries the
    coordinate index and the division remainder."""

    def __init__(self, message: str, coordinate: int | None = None, remainder=None) -> None:
        super().__init__(message)
        self.coordinate = coordinate
        self.remainder = remainder


class JacobianDegenerate(CoxBasisError):
    """No candidate set of basic invariants had a nonzero Jacobian."""


class NotABasis(CoxBasisError):
    """A proposed base basis failed certification; carries the certificate,
    or a failure record when the members could not be certified at all."""

    def __init__(self, message: str, certificate=None, failure: dict | None = None) -> None:
        super().__init__(message)
        self.certificate = certificate
        self.failure = failure


class CertificateFailed(CoxBasisError):
    """A constructed basis failed its own certificate.  The construction
    is covered by a theorem, so this is an internal alarm."""

    def __init__(self, message: str, certificate=None) -> None:
        super().__init__(message)
        self.certificate = certificate


class GroupClosureFailed(CoxBasisError):
    """The coset chain of a group did not give the order its type fixes,
    or the orbit of its simple roots not the hyperplane count.  The
    realization is fixed per type, so this is an internal alarm."""


class UnsupportedType(CoxBasisError):
    """Unknown or unsupported reflection group type."""


class OrderBoundExceeded(CoxBasisError):
    """The requested group is larger than the configured order bound."""


class BudgetExceeded(CoxBasisError):
    """A configured time budget ran out between pipeline stages."""


class DegreeOverflow(CoxBasisError):
    """A polynomial degree above ``poly.MAX_DEGREE``, which keys do not hold."""
