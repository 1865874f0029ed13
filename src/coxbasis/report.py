"""JSON report construction and parsing.

Reports carry every number as an exact string (rational or quadratic),
never as a float.  All term lists are emitted in descending monomial
order and all dict keys are sorted on dump, so a report is byte
deterministic for a given request.  The members of a basis report parse
back into derivations, which is how a previous run's base can be re-fed
and re-certified.  A certificate's witness c * prod_H alpha_H^{m(H)} is
expanded only here, as its report is written.

`dump_json` is the package's one JSON writer, for the info, basis and
verify reports.  It writes by hand exactly the text of ``json.dumps(obj,
sort_keys=True, indent=2)``, the layout of every report, which ``json``
can only produce with its pure-Python encoder: dicts with sorted keys,
lists, strings through ``json``'s own ASCII escaping, ints, null and
booleans, with lists of plain ints and polynomial terms rendered in one
piece each; any other value is handed to ``json.dumps``.
"""

from __future__ import annotations

import json

from .basis import BasisResult
from .certify import VERDICT_DEPENDENT, Certificate, order_to_json
from .coxeter import Arrangement, Multiplicity
from .derivations import Derivation
from .poly import Poly, poly_from_json, poly_to_json, product
from .scalars import format_scalar

SCHEMA_BASIS = "coxbasis/basis-report/1"
SCHEMA_VERIFY = "coxbasis/verify-report/1"

_escape = json.encoder.encode_basestring_ascii
_INT_ONLY = {int}  # the types of a list of plain ints, bool excluded


def derivation_to_json(delta: Derivation) -> dict:
    deg = delta.degree() if delta.is_homogeneous() else None
    return {
        "degree": deg,
        "coefficients": [poly_to_json(f) for f in delta.coeffs],
    }


def derivation_from_json(data: dict, nvars: int) -> Derivation:
    """Parse a derivation; raises ValueError on any malformed shape."""
    coeffs = data.get("coefficients") if isinstance(data, dict) else None
    if not isinstance(coeffs, list):
        raise ValueError("derivation data needs a list of coefficients")
    if len(coeffs) != nvars:
        raise ValueError("derivation data has %d coefficients, expected %d"
                         % (len(coeffs), nvars))
    return Derivation([poly_from_json(c, nvars) for c in coeffs])


def _witness(multiplicity: Multiplicity) -> Poly:
    """prod_H alpha_H^{m(H)} on the multiplicity's arrangement as
    prod_v Q_v^v, where Q_v is the product of the forms with m(H) = v; a
    constant nonzero m has Q_v the arrangement's cached defining polynomial."""
    arrangement, required = multiplicity.arrangement, multiplicity.values
    if len(set(required)) == 1 and required[0]:
        return arrangement.defining_polynomial ** required[0]
    n = arrangement.datum.rank
    forms: dict[int, list[Poly]] = {}
    for h, mv in zip(arrangement.hyperplanes, required):
        if mv:
            forms.setdefault(mv, []).append(h.form)
    return product((product(fs, n) ** v for v, fs in forms.items()), n)


def certificate_to_json(cert: Certificate) -> dict:
    """A certificate on its multiplicity's arrangement; a free one with its
    witness, a dependent one with the zero polynomial."""
    out = {
        "verdict": cert.verdict,
        "member_degrees": list(cert.member_degrees),
        "required_multiplicities": list(cert.multiplicity.values),
        "contact_orders": [[order_to_json(o) for o in row] for row in cert.orders],
        "degree_sum": sum(cert.member_degrees),
        "multiplicity_sum": cert.multiplicity.total(),
    }
    if cert.determinant_scalar is not None:
        witness = _witness(cert.multiplicity).scale(cert.determinant_scalar)
        out["determinant"] = poly_to_json(witness)
        out["determinant_scalar"] = format_scalar(cert.determinant_scalar)
    elif cert.verdict == VERDICT_DEPENDENT:
        out["determinant"] = []
    if cert.failure is not None:
        out["failure"] = {k: order_to_json(v) if isinstance(v, float) else v
                          for k, v in cert.failure.items()}
    return out


def group_to_json(arrangement: Arrangement) -> dict:
    datum = arrangement.datum
    return {
        "type": datum.label,
        "rank": datum.rank,
        "field": datum.field_label,
        "order": datum.group_order(),
        "num_hyperplanes": len(arrangement),
        "coxeter_number": datum.coxeter_number,
        "degrees": list(datum.degrees),
        "exponents": list(datum.exponents),
        "hyperplanes": [[format_scalar(c) for c in h.coeffs]
                        for h in arrangement.hyperplanes],
        "orbits": [list(o) for o in arrangement.orbits()],
    }


def multiplicity_to_json(mult: Multiplicity) -> dict:
    out: dict = {"per_hyperplane": list(mult.values)}
    per_orbit = mult.per_orbit()
    if per_orbit is not None:
        out["per_orbit"] = per_orbit
    return out


def multiplicity_from_json(data: dict, arrangement: Arrangement) -> Multiplicity:
    """Parse {"per_hyperplane": [...]}, {"per_orbit": [...]} or
    {"constant": n}, or several of them that give one multiplicity, as the
    ``inputs.multiplicity`` block of a report does; raises ValueError unless
    every value is an int and the keys given agree."""
    if not isinstance(data, dict):
        raise ValueError("multiplicity data must be a JSON object")
    builders = {"per_hyperplane": Multiplicity, "per_orbit": Multiplicity.from_orbit_values}
    built = {}
    for key, build in builders.items():
        if key in data:
            values = data[key]
            if not (isinstance(values, list) and all(type(v) is int for v in values)):
                raise ValueError("multiplicity %s must be a list of integers" % key)
            built[key] = build(arrangement, values)
    if "constant" in data:
        if type(data["constant"]) is not int:
            raise ValueError("multiplicity constant must be an integer")
        built["constant"] = Multiplicity.constant(arrangement, data["constant"])
    if not built:
        raise ValueError("multiplicity data needs per_hyperplane, per_orbit, or constant")
    first, *rest = built.values()
    if any(m != first for m in rest):
        raise ValueError("multiplicity keys %s give different values" % " and ".join(built))
    return first


def basis_report(result: BasisResult) -> dict:
    """The basis report of a result; the request carries its invariant
    system, and the system its arrangement."""
    req = result.request
    system = req.system
    report = {
        "schema": SCHEMA_BASIS,
        "inputs": {
            "type": system.label,
            "k": req.k,
            "multiplicity": multiplicity_to_json(req.multiplicity),
            "base_source": result.base_source,
        },
        "group": group_to_json(system.arrangement),
        "invariants": {
            "degrees": list(system.degrees),
            "jacobian_scalar": format_scalar(system.jacobian_scalar),
            "fingerprint": system.fingerprint(),
        },
        "universal_field": derivation_to_json(result.universal),
        "base": {
            "members": [derivation_to_json(b) for b in result.base_members],
            "degrees": [b.degree() for b in result.base_members],
        },
        "shifted_multiplicity": multiplicity_to_json(result.certificate.multiplicity),
        "members": [derivation_to_json(m) for m in result.members],
        "member_degrees": list(result.certificate.member_degrees),
        "certificate": certificate_to_json(result.certificate),
    }
    if result.base_certificate is not None:
        report["base"]["certificate"] = certificate_to_json(result.base_certificate)
    return report


def dump_report(report: dict) -> str:
    return dump_json(report) + "\n"


def dump_json(obj: object) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, written by hand."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(o: object, nl: str, out: list[str]) -> None:
    """Append the JSON of o; ``nl`` is a newline and the indent of o's line."""
    if isinstance(o, str):
        out.append(_escape(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            return
        # a term [[exponents], "coeff"] with nonempty exponents, in one piece
        inner2 = inner + "  "
        term = "[" + inner2 + "[" + inner2 + "  %s" + inner2 + "]," + inner2 + "%s" + inner + "]"
        sep3 = "," + inner2 + "  "
        sep = "[" + inner
        for x in o:
            out.append(sep)
            sep = "," + inner
            if type(x) is list and len(x) == 2:
                exps, coeff = x
                if (type(coeff) is str and type(exps) is list
                        and set(map(type, exps)) == _INT_ONLY):
                    out.append(term % (sep3.join(map(str, exps)), _escape(coeff)))
                    continue
            _write_json(x, inner, out)
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, not %s"
                                    % type(key).__name__)
                key = json.dumps(key)
            out.append(sep + _escape(key) + ": ")
            sep = "," + inner
            _write_json(value, inner, out)
        out.append(nl + "}")
    else:
        out.append(json.dumps(o))
