"""The unit systems of one pair, built outside verify_pair as the battery
builds them: the checks that make them are called in the battery's order,
each on what its prerequisites returned, so a test reads the very systems
that a report is written from.
"""

from mqunits import report
from mqunits.quadratic import classify_pair, lemma_decompose


def battery_systems(p, q):
    """((the systems of Q(sqrt2, sqrt d) for d = p, q, pq), the FSU of K+,
    the FSU of K), from the lemma witnesses, the kept one-prime systems and
    the root that azizi_square takes."""
    cond = classify_pair(p, q)
    rep = report.PairReport(p, q, {"tag": cond.tag, "reason": cond.reason})
    witnesses = [lemma_decompose(p, q, tag) for tag in ("q", "2q", "pq", "2pq")]
    biquad = report._check_biquad_fsu_all(p, q, cond, rep, *witnesses)[2]
    fsu = report._check_wada_q_index(p, q, cond, rep, biquad)[2]
    ok, detail, root = report._check_azizi_square(p, q, cond, rep)
    if not ok:  # raised, not asserted: python -O keeps it in a module pytest does not rewrite
        raise AssertionError(detail)
    cm = report._check_cm_fsu(p, q, cond, rep, fsu, root)[2]
    return (report._one_prime_fsu(2, p), report._one_prime_fsu(2, q), biquad[0]), fsu, cm
