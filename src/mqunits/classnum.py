"""2-class numbers of multiquadratic fields via the class number formula.

For a multiquadratic field of degree 4, 8 or 16 the 2-class number is
Q * prod h2(k_i) / 2^v over its quadratic subfields k_i, where Q = 2^j is
the unit index (units.unit_index, which counts the torsion of the CM field
K) and v is a fixed exponent per field shape (2, 9, 16).  kuroda_h2 names
the field and its subfields by the symbols of claims.KURODA_FIELDS.  The
subfield values are computed by quadratic_h2 over the forms module, which
computes no unit (a real field's narrow class number is halved by reading
the rho cycles), so the formula ties the unit-index computation to class
numbers computed by an entirely independent route.  The report's
quad_h2_table check computes the 15 subfield values of a pair once, as a
map from subfield symbol to h2; kuroda_h2 and predict_structures read that
map.  A non-integral result means the inputs contradict each other and
raises Falsified.
"""

import math

from . import claims
from .errors import Falsified
from .forms import (  # class_number_imaginary: the full group data, re-exported
    ClassNumberReport,
    class_number_imaginary,
    class_number_real,
    count_reduced_forms,
    disc_of_radicand,
)

_V_BY_DEGREE = {4: 2, 8: 9, 16: 16}


def quadratic_h2(r: int) -> ClassNumberReport:
    """h and h2 of Q(sqrt(r)) for squarefree r, either sign, under D = disc_of_radicand(r).

    For r < 0 only the reduced forms are counted: no check reads the group
    structure that class_number_imaginary adds.  supported_discriminant
    rejects the D of an r that is 1 or not squarefree.
    """
    if r > 1:
        return class_number_real(r)
    D = disc_of_radicand(r)
    h = count_reduced_forms(D)
    return ClassNumberReport(D, h, h & -h)


def subfield_radicands(p: int, q: int):
    """The 15 quadratic subfield radicands of Q(sqrt2, sqrt p, sqrt q, i),
    in the report order of claims.SUBFIELDS."""
    return tuple(claims.value(s, p, q) for s in claims.SUBFIELDS)


def kuroda_h2(field: tuple, h2: dict, unit_index: int) -> int:
    """unit_index * prod(subfield h2) / 2^v for the field of
    claims.KURODA_FIELDS named by its generator symbols, over h2, a map from
    subfield symbol to 2-class number, and the unit index 2^j of
    units.unit_index; Falsified if the value is not an integer."""
    syms = claims.KURODA_FIELDS[field]
    num = unit_index * math.prod(h2[s] for s in syms)
    degree = len(syms) + 1
    den = 2 ** _V_BY_DEGREE[degree]
    if num % den:
        raise Falsified(
            f"class number formula gives {num}/{den} for the degree-{degree} field, "
            "which is not an integer"
        )
    return num // den


def claimed_h2(field: tuple, tag: str) -> int:
    """The 2-class number of a field of claims.KURODA_FIELDS as the formula
    gives it over what the paper claims under condition class tag: the
    subfield h2 of claims.H2_CLAIMS (a bound counts as its value) and the
    unit index of claims.Q_LOG2, which stores the exponent-lattice index,
    times one more factor 2 for the torsion of the CM field K."""
    h2 = {s: n for s, (_, n) in claims.H2_CLAIMS[tag].items()}
    return kuroda_h2(field, h2, 2 ** (claims.Q_LOG2[field] + ("-1" in field)))


# ---------------------------------------------------------------------------
# predicted 2-class group and Galois structures


def predict_structures(p: int, q: int, tag: str, h2_neg_pq: int) -> dict:
    """The report's structures entry for a pair of condition class tag.

    m comes from the computed h2_neg_pq = h2(-pq) = 2^m, and must satisfy
    the claim on m of claims.STRUCTURES, which also gives the tower groups
    of the class; an unknown tag raises ValueError.  The 2-class number of
    the n-th layer is h2_Ln = 2^(n+m-1).  Group labels are plain strings:
    "(2,2)", "Z/n", "Q_k" (generalized quaternion of order 2^k).  A
    violated claim raises Falsified.
    """
    if tag not in claims.STRUCTURES:
        raise ValueError(f"no structures are claimed for condition class {tag!r}")
    if h2_neg_pq & (h2_neg_pq - 1) or h2_neg_pq < 2:
        raise Falsified(f"h2(-{p * q}) = {h2_neg_pq} is not a power of 2 above 1")
    m = h2_neg_pq.bit_length() - 1
    claim = claims.STRUCTURES[tag]
    if not claims.holds(claim["m"], m):
        rel, n = claim["m"]
        want = 2 ** n if rel == "==" else f"{rel} {2 ** n}"
        raise Falsified(f"{tag} pair ({p},{q}) has h2(-pq) = {h2_neg_pq}, expected {want}")
    cl2_tower = claim["cl2_tower"]
    return {
        "m": m,
        "cl2_genus_base": "(2,2)",
        "cl2_L": 2 ** (m + 1),
        "cl2_F": cl2_tower,
        "cl2_K": cl2_tower,
        "gal_F2": claim["gal_F2"].format(m1=m + 1),
        "gal_k2": f"Q_{m + 2}",
        "h2_Ln": "2^n" if m == 1 else f"2^(n+{m - 1})",
        "h2_Ln_plus": 1,
        "iwasawa": [1, m - 1],
    }
