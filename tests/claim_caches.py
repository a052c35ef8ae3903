"""One way for a test to patch the claims table and have every check read
the patch.

The process keeps what the claims resolve to: the rows of the named units
per condition class (claims.unit_rows), the norm-table plan per frame and
class (units._norm_plan), and the systems of Q(sqrt2, sqrt p) and
Q(sqrt2, sqrt q) (report._one_prime_fsu).  A test that patches a claim
clears them once the patch is in place, and again once it is undone, so
that neither it nor a later test reads a stale entry.
"""

from mqunits import claims, report, units


def clear_claim_caches() -> None:
    """Empty every per-process cache that holds something read from claims."""
    claims.unit_rows.cache_clear()
    units._norm_plan.cache_clear()
    report._one_prime_fsu.cache_clear()


def verify_patched(monkeypatch, fault, p, q):
    """verify_pair(p, q) with fault(mp) applied on a monkeypatch context mp,
    the caches cleared once it is applied and once it is undone."""
    try:
        with monkeypatch.context() as mp:
            fault(mp)
            clear_claim_caches()
            return report.verify_pair(p, q)
    finally:
        clear_claim_caches()
