"""What the paper (arXiv 2004.08899) claims, as data keyed by condition class.

Every claim is written over the symbols 1, 2, p, q, 2p, 2q, pq, 2pq and
their negatives, which stand for the products they spell for a prime pair
p = 5, q = 3 (mod 8); value() resolves a symbol for one pair.  A unit is an
exponent vector {symbol: e} over the fundamental units eps_r of the real
quadratic subfields Q(sqrt r), with e in (1/4)Z (quarters() resolves one),
and a field is named by the symbols of its generators.  A claimed number
reads ("==", n) when it is exact and (">=", n) when it is a lower bound.
The checks of the battery read these tables; no other module restates a
claim.  The README lists which check reads which table.
"""

from fractions import Fraction

COND1 = "Cond1"  # (p/q) = +1
COND2 = "Cond2"  # (p/q) = -1

H, Q4 = Fraction(1, 2), Fraction(1, 4)


# symbol -> (k, has p, has q), read once here: the symbol names k * p * q
# with the primes it lacks left out
_SYMBOLS = {sign + s: ((-1 if sign else 1) * (2 if "2" in s else 1), "p" in s, "q" in s)
            for sign in ("", "-") for s in ("1", "2", "p", "q", "2p", "2q", "pq", "2pq")}


def value(sym: str, p: int, q: int) -> int:
    """The integer that sym names for the pair: value("-2pq", p, q) == -2*p*q."""
    k, has_p, has_q = _SYMBOLS[sym]
    return k * (p if has_p else 1) * (q if has_q else 1)


def holds(claim, x: int) -> bool:
    """Does x satisfy the claim ("==", n) or (">=", n)?"""
    rel, n = claim
    return x == n if rel == "==" else x >= n


def quarters(vec: dict, p: int, q: int) -> dict:
    """The vector vec for the pair as {r: 4*e} in integers, the form the other
    modules read; ArithmeticError, under python -O too, for e outside (1/4)Z."""
    out = {}
    for s, e in vec.items():
        out[value(s, p, q)], rem = divmod(4 * e.numerator, e.denominator)
        if rem:
            raise ArithmeticError(f"exponent {e} of eps_{s} is not a multiple of 1/4")
    return out


def _both(x):
    return {COND1: x, COND2: x}


# The Pell lemmas.  The fundamental unit x + y*sqrt(d) of Q(sqrt d), for d
# one of 2pq, pq, 2q, q, has norm +1, and x - 1 and x + 1 are squares times
# the shapes below: (shape of x-1, shape of x+1, the side u1 comes from, r1,
# r2, doubled), where (u1*sqrt(r1) + u2*sqrt(r2))^2 is 2*eps when doubled
# and eps otherwise.
_PELL_BOTH = {
    "2q": ("1", "2q", "minus", "1", "2q", True),
    "q": ("1", "q", "minus", "1", "q", True),
}
PELL_CASES = {
    COND1: {"2pq": ("p", "2q", "minus", "p", "2q", True),
            "pq": ("2q", "2p", "plus", "p", "q", False), **_PELL_BOTH},
    COND2: {"2pq": ("2p", "q", "minus", "2p", "q", True),
            "pq": ("q", "p", "plus", "p", "q", True), **_PELL_BOTH},
}

# The six biquadratic fields Q(sqrt d1, sqrt d2) that the battery builds, in
# the order it builds them, and a fundamental system of units of each: keyed
# by condition class when the field holds both p and q, one system
# otherwise.  A vector with exponents 1/2 is the square root of its product.
BIQUAD_FSU = {
    ("p", "q"): {COND1: ({"p": 1}, {"q": 1}, {"pq": H}),
                 COND2: ({"p": 1}, {"q": 1}, {"q": H, "pq": H})},
    ("2", "q"): ({"2": 1}, {"q": H}, {"2q": H}),
    ("p", "2q"): {COND1: ({"p": 1}, {"2q": 1}, {"2q": H, "2pq": H}),
                  COND2: ({"p": 1}, {"2q": 1}, {"2pq": H})},
    ("2p", "q"): {COND1: ({"q": 1}, {"2p": 1}, {"2pq": H}),
                  COND2: ({"q": 1}, {"2p": 1}, {"q": H, "2pq": H})},
    ("2", "pq"): _both(({"2": 1}, {"pq": 1}, {"pq": H, "2pq": H})),
    ("2", "p"): ({"2": 1}, {"p": 1}, {"2": H, "p": H, "2p": H}),
}

K_2P = ("2", "p")  # Q(sqrt2, sqrt p)
K_PLUS = ("2", "p", "q")  # K+ = Q(sqrt2, sqrt p, sqrt q)
K_CM = ("2", "p", "q", "-1")  # K = K+(i)

# The unit indices: log2 of the index of the subfield units, as read off the
# exponent lattice of an FSU, for the six biquadratic fields, K+ and K.
Q_LOG2 = {("p", "q"): 1, ("2", "q"): 2, ("p", "2q"): 1, ("2p", "q"): 1, ("2", "pq"): 1,
          K_2P: 1, K_PLUS: 6, K_CM: 7}

# The roots of unity of K, keyed by q == 3: zeta8, and the cube roots on top
# when q = 3 puts sqrt(-3) in K.
CM_TORSION = {False: "zeta8", True: "zeta24"}

# The named units, as exponent vectors: units of K+, and the torsion-twisted
# root that K adds.  The fourth root is the one unit whose vector depends on
# the condition class.
E2, EP, EQ, E2P, E2Q, EPQ, E2PQ = (f"eps_{s}" for s in ("2", "p", "q", "2p", "2q", "pq", "2pq"))
SQ, S2Q, SPQ, S2PQ = "sqrt_eps_q", "sqrt_eps_2q", "sqrt_eps_pq", "sqrt_eps_2pq"
SP2P = "sqrt_eps_2_eps_p_eps_2p"
F4 = "fourth_root"
CM_ROOT = "sqrt_zeta_eps_2_sqrt_eps_q_eps_2q"
_UNITS = {name: {name[4:]: 1} for name in (E2, EP, EQ, E2P, E2Q, EPQ, E2PQ)}
_UNITS.update({SQ: {"q": H}, S2Q: {"2q": H}, SPQ: {"pq": H}, S2PQ: {"2pq": H},
               SP2P: {"2": H, "p": H, "2p": H}, CM_ROOT: {"2": H, "q": Q4, "2q": Q4}})
UNITS = {
    COND1: {**_UNITS, F4: {"p": H, "2q": Q4, "pq": Q4, "2pq": Q4}},
    COND2: {**_UNITS, F4: {"2": H, "p": H, "q": Q4, "pq": Q4, "2pq": Q4}},
}

# The unit groups of K+ and K: these named units form an FSU of each.  K
# takes the FSU of K+ with sqrt(eps_2q) replaced by the torsion-twisted root.
KPLUS_FSU = (E2, EP, SQ, S2Q, SPQ, SP2P, F4)
CM_FSU = tuple(CM_ROOT if name == S2Q else name for name in KPLUS_FSU)

# The norm tables of K+.  tau1, tau2, tau3 negate sqrt2, sqrt p, sqrt q, and
# column nXY is the relative norm 1 + tauX*tauY.  Each entry of a named
# unit's row is (sign, monomial): the sign is +-1 or a letter that the row
# fixes on first use, and the monomial maps unit names to integer powers.
# None makes no claim.
NORM_COLUMNS = ("tau1", "tau2", "tau3", "n1", "n2", "n3", "n12", "n13", "n23")
_NT_COMMON = {
    E2: ((-1, {E2: -1}), (1, {E2: 1}), (1, {E2: 1}),
         (-1, {}), (1, {E2: 2}), (1, {E2: 2}), (-1, {}), (-1, {}), (1, {E2: 2})),
    EP: ((1, {EP: 1}), (-1, {EP: -1}), (1, {EP: 1}),
         (1, {EP: 2}), (-1, {}), (1, {EP: 2}), (-1, {}), (1, {EP: 2}), (-1, {})),
    SQ: ((-1, {SQ: 1}), (1, {SQ: 1}), (-1, {SQ: -1}),
         (-1, {EQ: 1}), (1, {EQ: 1}), (-1, {}), (-1, {EQ: 1}), (1, {}), (-1, {})),
    S2Q: ((1, {S2Q: -1}), (1, {S2Q: 1}), (-1, {S2Q: -1}),
          (1, {}), (1, {E2Q: 1}), (-1, {}), (1, {}), (-1, {E2Q: 1}), (-1, {})),
    SP2P: (("u", {SP2P: 1, E2: -1, E2P: -1}), ("v", {SP2P: 1, EP: -1, E2P: -1}), (1, {SP2P: 1}),
           ("u", {EP: 1}), ("v", {E2: 1}), (1, {E2: 1, EP: 1, E2P: 1}), None, None, None),
}
NORM_TABLES = {
    COND1: {
        **_NT_COMMON,
        SPQ: ((1, {SPQ: 1}), (-1, {SPQ: -1}), (1, {SPQ: -1}),
              (1, {EPQ: 1}), (-1, {}), (1, {}), (-1, {}), (1, {}), (-1, {EPQ: 1})),
        S2PQ: ((1, {S2PQ: -1}), (1, {S2PQ: -1}), (-1, {S2PQ: -1}),
               (1, {}), (1, {}), (-1, {}), (1, {E2PQ: 1}), (-1, {E2PQ: 1}), (-1, {E2PQ: 1})),
        F4: (("r", {F4: 1, S2Q: -1, S2PQ: -1}), ("s", {F4: 1, EP: -1, SPQ: -1, S2PQ: -1}),
             ("t", {F4: 1, S2Q: -1, SPQ: -1, S2PQ: -1}),
             ("r", {EP: 1, SPQ: 1}), ("s", {S2Q: 1}), ("t", {EP: 1}), None, None, None),
    },
    COND2: {
        **_NT_COMMON,
        SPQ: ((-1, {SPQ: 1}), (-1, {SPQ: -1}), (1, {SPQ: -1}),
              (-1, {EPQ: 1}), (-1, {}), (1, {}), (1, {}), (-1, {}), (-1, {EPQ: 1})),
        S2PQ: ((-1, {S2PQ: -1}), (1, {S2PQ: -1}), (-1, {S2PQ: -1}),
               (-1, {}), (1, {}), (-1, {}), (-1, {E2PQ: 1}), (1, {E2PQ: 1}), (-1, {E2PQ: 1})),
        F4: (("r", {F4: 1, E2: -1, S2PQ: -1}), ("s", {F4: 1, EP: -1, SPQ: -1, S2PQ: -1}),
             ("t", {F4: 1, SQ: -1, SPQ: -1, S2PQ: -1}),
             ("r", {EP: 1, SQ: 1, SPQ: 1}), ("s", {E2: 1, SQ: 1}), ("t", {E2: 1, EP: 1}),
             None, None, None),
    },
}

# The 15 quadratic subfields of K, in report order, and their 2-class
# numbers.  Only h2(-pq) depends on the condition class.
SUBFIELDS = ("-1", "2", "-2", "p", "-p", "q", "-q", "2p", "-2p", "2q", "-2q", "pq", "-pq", "2pq", "-2pq")
_H2 = {s: ("==", h) for s, h in (
    ("-1", 1), ("2", 1), ("-2", 1), ("p", 1), ("-p", 2), ("q", 1), ("-q", 1), ("2p", 2),
    ("-2p", 2), ("2q", 1), ("-2q", 2), ("pq", 2), ("2pq", 2), ("-2pq", 4))}
H2_CLAIMS = {COND1: {**_H2, "-pq": (">=", 4)}, COND2: {**_H2, "-pq": ("==", 2)}}

# The fields of the class number formula and their quadratic subfields:
# Q(sqrt2, sqrt p), K+ and K, of degrees 4, 8 and 16.
KURODA_FIELDS = {K_2P: ("2", "p", "2p"), K_PLUS: ("2", "p", "q", "2p", "2q", "pq", "2pq"),
                 K_CM: SUBFIELDS}

# The towers.  With h2(-pq) = 2^m, the claim on m, the 2-class group of the
# index-2 towers F and K, and Gal(F2/F), where {m1} stands for m + 1 and Q_k
# is generalized quaternion of order 2^k.
STRUCTURES = {
    COND1: {"m": (">=", 2), "cl2_tower": "(2,2)", "gal_F2": "Q_{m1}"},
    COND2: {"m": ("==", 1), "cl2_tower": "Z/4", "gal_F2": "Z/4"},
}
