"""Machine checks behind Cayley certificates for (n,k)-star graphs.

The rule, the certificate record and the choice of route live in
:mod:`starcayley.verdicts`.  Here :func:`sabidussi_direct` and
:func:`certify_via_lambda` run machine checks on explicit witness groups and
report exactly what was verified; ``verify_certificate`` checks an old
sharply k-transitive witness H as the direct action of H x 1.  The search of
the full automorphism group for a regular subgroup, the one route that may
refute, is :mod:`starcayley.search`; ``cayley.search_regular_subgroup`` still
resolves, and imports it on first use.
"""

from __future__ import annotations

import math

from .pairs import PairGroup, symmetric_nu_group
from .perm import PermGroup, canonical_flag, flag_count, flag_stabilizer
from .verdicts import METHOD_DIRECT, METHOD_LAMBDA, VERDICT_CAYLEY, VERDICT_UNKNOWN, Certificate
# re-exported for bench/replay.py, which reads the rule and the dispatch from here
from .verdicts import METHOD_REFUTATION, classify, table_certificate, verify_certificate


def __getattr__(name: str):
    # callers that read the search from here import it on first use, so a
    # process that never searches never compiles it
    if name == "search_regular_subgroup":
        from .search import search_regular_subgroup
        return search_regular_subgroup
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# witness checks


def _pair_witness(group: PairGroup) -> dict:
    return {
        "name": group.name,
        "degree": group.n,
        "k": group.k,
        "generators": [g.to_dict() for g in group.generators],
    }


def sabidussi_direct(group: PairGroup, n: int, k: int) -> Certificate:
    """Certify a regular action directly, via Sabidussi's criterion: G is
    regular on the vertices iff |G| = P(n,k) and the stabiliser of the base
    vertex [1..k] is trivial.  Both numbers are counted without listing a
    pair (see :meth:`PairGroup.base_stabilizer_order`).  The third recorded
    check, that g -> g([1..k]) is a bijection onto the vertices, follows by
    orbit-stabiliser: the map's fibres are the cosets of the stabiliser and
    its image has |G| / |Stab| vertices.  The verdict is Cayley only if all
    three checks pass.
    """
    if group.n != n or group.k != k:
        raise ValueError("group does not act on the requested graph")
    order_ok = group.order == math.perm(n, k)
    stabilizer_ok = group.base_stabilizer_order() == 1
    checks = (
        ("order_equals_vertex_count", order_ok),
        ("base_vertex_stabilizer_trivial", stabilizer_ok),
        ("evaluation_map_bijective", order_ok and stabilizer_ok),
    )
    verdict = VERDICT_CAYLEY if all(ok for _, ok in checks) else VERDICT_UNKNOWN
    return Certificate(n, k, verdict, METHOD_DIRECT, _pair_witness(group), checks)


def certify_via_lambda(h: PermGroup, n: int, k: int) -> Certificate:
    """Certify via a sharply (n-k, k-1, 1)-transitive witness H <= S_n.

    The product G = H x S_{k-1} then acts regularly on the vertices, and the
    certificate never enumerates G: the order bookkeeping |H| (k-1)! = P(n,k)
    plus the flag-freeness of H carry the argument.  This is the only
    feasible route when P(n,k) is astronomically large, e.g. (n,k) = (33,30).
    """
    if h.degree != n:
        raise ValueError(f"witness degree {h.degree} != n={n}")
    lam = (n - k, k - 1, 1)
    count = flag_count(lam, n)
    order_ok = h.order == count
    product_order_ok = h.order * math.factorial(k - 1) == math.perm(n, k)
    free_ok = flag_stabilizer(h, canonical_flag(lam, n)).order == 1
    checks = (
        ("order_equals_flag_count", order_ok),
        ("canonical_flag_stabilizer_trivial", free_ok),
        ("witness_times_symmetric_factor_matches_vertex_count", product_order_ok),
    )
    ok = all(okc for _, okc in checks)
    witness = dict(h.to_dict(), lam=list(lam))
    verdict = VERDICT_CAYLEY if ok else VERDICT_UNKNOWN
    return Certificate(n, k, verdict, METHOD_LAMBDA, witness, checks)


# ---------------------------------------------------------------------------
# witness groups


def witness_certificate(n: int, k: int, recipe: tuple) -> Certificate:
    """Check the witness group :func:`verdicts.witness_recipe` names for the
    yes-case (n,k).  :func:`verdicts.build_certificate` calls this only when
    the group's order fits its element cap.  H is passed as generators alone
    and closed once, on the chain whose order the certificate checks: the
    pair group H x 1 ("mu") or H x S_{k-1} ("pairs"), or H's own ("flag")."""
    from . import witness_groups

    name, arg, shape = recipe
    unclosed = getattr(witness_groups, f"{name}_unclosed")
    h = unclosed() if arg is None else unclosed(arg)
    if shape == "flag":
        return certify_via_lambda(h, n, k)
    nu_side = symmetric_nu_group(n, k) if shape == "pairs" else None
    return sabidussi_direct(PairGroup.direct_product(h, k, nu_side), n, k)
