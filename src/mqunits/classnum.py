"""2-class numbers of multiquadratic fields via the class number formula.

For a multiquadratic field of degree 4, 8 or 16 the 2-class number is
2^(q_log2 - v) times the product of the 2-class numbers of its quadratic
subfields, where q_log2 is the exponent of the unit index and v is a fixed
exponent per field shape (2, 9, 16).  The subfield values are computed by
the forms module, which computes no unit (a real field's narrow class
number is halved by reading the rho cycles), so the formula ties the
unit-index computation to class numbers computed by an entirely independent
route.  A non-integral result means the inputs contradict each other and
raises Falsified.
"""

from dataclasses import dataclass

from .errors import Falsified
from .forms import (  # class_number_imaginary: the full group data, re-exported
    ClassNumberReport,
    class_number_imaginary,
    class_number_real,
    count_reduced_forms,
    disc_of_radicand,
)
from .quadratic import COND1, COND2, classify_pair

_V_BY_DEGREE = {4: 2, 8: 9, 16: 16}


def quadratic_h2(r: int) -> ClassNumberReport:
    """h and h2 of Q(sqrt(r)) for squarefree r, either sign.

    For r < 0 only the reduced forms are counted: no check reads the group
    structure that class_number_imaginary adds.
    """
    if r > 1:
        return class_number_real(r)
    D = disc_of_radicand(r)
    h = count_reduced_forms(D)
    return ClassNumberReport(D, h, h & -h)


def subfield_radicands(p: int, q: int):
    """The 15 quadratic subfield radicands of Q(sqrt2, sqrt p, sqrt q, i),
    in the fixed report order."""
    return (
        -1, 2, -2, p, -p, q, -q, 2 * p, -2 * p, 2 * q, -2 * q,
        p * q, -p * q, 2 * p * q, -2 * p * q,
    )


@dataclass
class KurodaInstance:
    """One application of the class number formula.

    degree 4, 8 and 16 carry the exponent v = 2, 9 and 16 and expect 3, 7
    and 15 subfield entries (radicand, h2) respectively.
    """

    degree: int
    subfield_h2: tuple
    q_log2: int

    def __post_init__(self):
        if self.degree not in _V_BY_DEGREE:
            raise ValueError(f"degree {self.degree} not covered")
        self.subfield_h2 = tuple((int(r), int(h)) for r, h in self.subfield_h2)
        if len(self.subfield_h2) != self.degree - 1:
            raise ValueError(f"degree {self.degree} has {self.degree - 1} quadratic subfields")
        if self.q_log2 < 0:
            raise ValueError(f"unit index exponent {self.q_log2} is negative")
        if any(h < 1 for _, h in self.subfield_h2):
            raise ValueError(f"subfield 2-class numbers {self.subfield_h2} are not all positive")


def kuroda_h2(instance: KurodaInstance) -> int:
    """Evaluate 2^(q_log2 - v) * prod(subfield h2); Falsified if non-integral."""
    num = 2 ** instance.q_log2
    for _, h in instance.subfield_h2:
        num *= h
    den = 2 ** _V_BY_DEGREE[instance.degree]
    if num % den:
        raise Falsified(
            f"class number formula gives {num}/{den} for the degree-{instance.degree} field, "
            "which is not an integer"
        )
    return num // den


def deg4_instance(p: int, q_log2: int) -> KurodaInstance:
    """Formula instance for Q(sqrt2, sqrt p)."""
    rads = (2, p, 2 * p)
    return KurodaInstance(4, tuple((r, quadratic_h2(r).h2) for r in rads), q_log2)


def deg8_instance(p: int, q: int, q_log2: int) -> KurodaInstance:
    """Formula instance for the totally real field Q(sqrt2, sqrt p, sqrt q)."""
    rads = (2, p, q, 2 * p, 2 * q, p * q, 2 * p * q)
    return KurodaInstance(8, tuple((r, quadratic_h2(r).h2) for r in rads), q_log2)


def deg16_instance(p: int, q: int, q_log2: int) -> KurodaInstance:
    """Formula instance for the CM field Q(sqrt2, sqrt p, sqrt q, i)."""
    rads = subfield_radicands(p, q)
    return KurodaInstance(16, tuple((r, quadratic_h2(r).h2) for r in rads), q_log2)


# ---------------------------------------------------------------------------
# claimed subfield values


def crosscheck_quadratic_h2(p: int, q: int, cond):
    """Compare computed h2 of all 15 quadratic subfields with the claimed
    values; returns (claim, computed, pass) triples.

    The claims: h2 = 1 for 2, p, q, 2q, -1, -2, -q; h2 = 2 for 2p, pq, 2pq,
    -p, -2p, -2q; h2 = 4 for -2pq; and for -pq exactly 2 under Cond2 but
    2^m with m >= 2 under Cond1.
    """
    if not cond.is_applicable:
        raise ValueError(f"pair is not applicable: {cond.reason}")
    ones = {2, p, q, 2 * q, -1, -2, -q}
    twos = {2 * p, p * q, 2 * p * q, -p, -2 * p, -2 * q}
    out = []
    for r in subfield_radicands(p, q):
        h2 = quadratic_h2(r).h2
        if r == -p * q:
            if cond.tag == COND2:
                out.append((f"h2({r}) == 2", h2, h2 == 2))
            else:
                out.append((f"h2({r}) >= 4", h2, h2 >= 4))
        elif r == -2 * p * q:
            out.append((f"h2({r}) == 4", h2, h2 == 4))
        elif r in ones:
            out.append((f"h2({r}) == 1", h2, h2 == 1))
        else:
            assert r in twos
            out.append((f"h2({r}) == 2", h2, h2 == 2))
    return out


# ---------------------------------------------------------------------------
# predicted 2-class group and Galois structures


def predict_structures(p: int, q: int) -> dict:
    """The report's structures entry for an applicable pair.

    m comes from the independently computed h2(-pq) = 2^m.  Under Cond1 the
    class groups of the two index-2 towers are of type (2,2) with
    generalized quaternion Galois group Q_{m+1}; under Cond2 everything
    collapses to cyclic: m must equal 1 (h2(-pq) = 2) and the tower group is
    Z/4.  The 2-class number of the n-th layer is h2_Ln = 2^(n+m-1).  Group
    labels are plain strings: "(2,2)", "Z/n", "Q_k" (generalized quaternion
    of order 2^k).  A violated condition constraint raises Falsified.
    """
    cond = classify_pair(p, q)
    if not cond.is_applicable:
        raise ValueError(f"pair is not applicable: {cond.reason}")
    h2 = quadratic_h2(-p * q).h2
    if h2 & (h2 - 1) or h2 < 2:
        raise Falsified(f"h2(-{p * q}) = {h2} is not a power of 2 above 1")
    m = h2.bit_length() - 1
    if cond.tag == COND2:
        if m != 1:
            raise Falsified(f"Cond2 pair ({p},{q}) has h2(-pq) = {h2}, expected 2")
        cl2_tower, gal_f2 = "Z/4", "Z/4"
    else:
        if m < 2:
            raise Falsified(f"Cond1 pair ({p},{q}) has h2(-pq) = {h2}, expected >= 4")
        cl2_tower, gal_f2 = "(2,2)", f"Q_{m + 1}"
    return {
        "m": m,
        "cl2_genus_base": "(2,2)",
        "cl2_L": 2 ** (m + 1),
        "cl2_F": cl2_tower,
        "cl2_K": cl2_tower,
        "gal_F2": gal_f2,
        "gal_k2": f"Q_{m + 2}",
        "h2_Ln": "2^n" if m == 1 else f"2^(n+{m - 1})",
        "h2_Ln_plus": 1,
        "iwasawa": [1, m - 1],
    }
