"""Exact free bases for derivation modules of multi-Coxeter arrangements.

The pipeline: realize a finite Coxeter group exactly, compute basic
invariants, apply the inverse of the connection along the primitive
direction k times to the Euler field, differentiate along a base basis,
and certify the result by contact orders, the degree count, and the
determinant factorization.
"""

from .basis import BasisRequest, BasisResult, base_basis, build_basis
from .certify import Certificate, contact_order, graded_member_basis, ziegler_certify
from .connection import nabla_D, nabla_D_inverse, universal_field
from .coxeter import (Arrangement, CoxeterDatum, Multiplicity, ReflectionGroup,
                      build_group, make_datum, parse_type, reynolds)
from .derivations import Derivation, euler_field, nabla
from .errors import (BudgetExceeded, CertificateFailed, CoxBasisError,
                     JacobianDegenerate, NoSolution, NonUniqueSolution, NotABasis,
                     NotPolynomial, OrderBoundExceeded, UnsupportedType)
from .invariants import InvariantSystem, compute_invariants
from .poly import Poly
from .scalars import Quad, format_scalar, parse_scalar
from .verify import hodge_suite

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "BasisRequest", "BasisResult", "BudgetExceeded", "Certificate",
    "CertificateFailed", "CoxBasisError", "CoxeterDatum", "Derivation",
    "InvariantSystem", "JacobianDegenerate", "Multiplicity", "NoSolution",
    "NonUniqueSolution", "NotABasis", "NotPolynomial",
    "OrderBoundExceeded", "Poly", "Quad", "ReflectionGroup", "UnsupportedType",
    "base_basis", "build_basis", "build_group",
    "compute_invariants", "contact_order", "euler_field", "format_scalar",
    "graded_member_basis", "hodge_suite", "make_datum", "nabla", "nabla_D",
    "nabla_D_inverse", "parse_scalar", "parse_type", "reynolds", "universal_field",
    "ziegler_certify",
]
