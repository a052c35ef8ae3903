"""The exponent vectors of the unit systems on Fractions, kept for the tests.

mqunits keeps every exponent vector in quarters, as integers {r: 4*e}.
This module takes the Fraction route instead: a claimed vector resolved to
Fractions, the vector of a root that a subset search finds as half the sum
of its subset's, and the label and exponent strings of a report formatted
from Fractions.  The searches of wada_fsu and azizi_extend read only the
witnesses and their character vectors, so the ones here run them again
over the same witnesses, with Fraction vectors alongside; the tests compare
each vector with the quarters of the unit the package built.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

from mqunits import claims
from mqunits.field import embed_element
from mqunits.quadratic import classify_pair
from mqunits.units import _norm_pos, _square_subsets, _torsion


def exponents(vec: dict, p: int, q: int) -> dict:
    """A claimed vector with its symbols resolved for the pair, as Fractions."""
    return {claims.value(s, p, q): Fraction(e) for s, e in vec.items()}


def level(exps: dict) -> int:
    """The lcm of the denominators of the exponents."""
    return math.lcm(*(e.denominator for e in exps.values()))


def halved(vectors: list, idxs) -> dict:
    """Half the sum of the vectors at idxs, zeros dropped."""
    out = {}
    for i in idxs:
        for r, e in vectors[i].items():
            out[r] = out.get(r, 0) + e / 2
    return {r: e for r, e in out.items() if e}


def biquadratic(key: tuple, p: int, q: int) -> list:
    """The vectors of the claimed system of the field claims.BIQUAD_FSU[key]
    for the pair, that of its condition class when it has one per class."""
    system = claims.BIQUAD_FSU[key]
    if isinstance(system, dict):
        system = system[classify_pair(p, q).tag]
    return [exponents(vec, p, q) for vec in system]


def _searched(witness):
    """What _square_subsets reads of a unit, its character vector not yet known."""
    return SimpleNamespace(witness=witness, chars=None)


def wada(field, subsystems, known=None) -> list:
    """The vectors of wada_fsu(field, [fsu for _, fsu in subsystems], known),
    where subsystems pairs each subfield FSU with the vectors of its
    generators."""
    vectors, units, seen = [], [], set()
    for vecs, fsu in subsystems:
        for exps, g in zip(vecs, fsu.generators):
            key = frozenset(exps.items())
            if key not in seen:
                seen.add(key)
                vectors.append(exps)
                units.append(_searched(embed_element(g.witness, field)))
    while (found := next(_square_subsets(units, None, known), None)) is not None:
        idxs, _, w = found
        vectors[max(idxs)] = halved(vectors, idxs)
        units[max(idxs)] = _searched(_norm_pos(w))
    return vectors


def azizi(vectors: list, real_fsu, cm_basis, root=None) -> list:
    """The vectors of azizi_extend(real_fsu, cm_basis, root), where vectors
    are those of the generators of real_fsu."""
    order = _torsion(cm_basis)[1]
    real = real_fsu.field
    two_mu = (real.surd(2) if order % 8 == 0 else real.zero()) + 2
    out = list(vectors)
    units = [_searched(g.witness) for g in real_fsu.generators]
    for idxs, _, _ in _square_subsets(units, two_mu, root):
        out[max(idxs)] = halved(vectors, idxs)
    return out


def unit_label(exps: dict) -> str:
    """The label of the unit with the Fraction vector exps."""
    s = level(exps)
    inner = "*".join(f"eps_{r}" if e * s == 1 else f"eps_{r}^{int(e * s)}"
                     for r, e in sorted(exps.items()))
    return {1: inner, 2: f"sqrt({inner})", 4: f"root4({inner})"}[s]


def exponent_strings(exps: dict) -> dict:
    """The exponents of a report entry, formatted from Fractions."""
    return {str(r): str(Fraction(e)) for r, e in sorted(exps.items())}
