"""Machine checks behind Cayley certificates for (n,k)-star graphs.

The rule, the certificate record and the choice of route live in
:mod:`starcayley.verdicts`.  Here :func:`witness_certificate` writes, and
:func:`verify_witness` re-runs, the certificates of explicit witness groups,
on image tuples from end to end: a pair witness is closed as one
:class:`~starcayley.pairs.PairGroup` chain and checked by
:func:`sabidussi_direct`; a flag witness H is closed as its own chain and
checked by :func:`flag_certificate`.  An old sharply k-transitive witness H
is checked as the direct action of H x 1.  No route here imports
:mod:`starcayley.perm`; :func:`certify_via_lambda` takes its
:class:`~starcayley.perm.PermGroup`, for library callers.  The search of the
full automorphism group for a regular subgroup, the one route that may
refute, is :mod:`starcayley.search`; ``cayley.search_regular_subgroup``
still resolves, and imports it on first use.
"""

from __future__ import annotations

import math

from .chain import StabChain, permutation
from .pairs import PairGroup, flat_pair, symmetric_nu_generators
from .verdicts import (METHOD_DIRECT, METHOD_LAMBDA, METHOD_SHARP_K, VERDICT_CAYLEY,
                       VERDICT_UNKNOWN, Certificate)
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
    return Certificate(n, k, verdict, METHOD_DIRECT, group.to_dict(), checks)


def canonical_flag_stabilizer_order(chain: StabChain, n: int, k: int) -> int:
    """How many elements of the chain's group map each block of the
    canonical flag of type (n-k, k-1, 1), {1..n-k}, {n-k+1..n-1} and {n},
    onto itself: the length of one walk of the chain that drops every
    transversal entry sending a point out of its block (see
    :meth:`StabChain.elements`).  The walk is short when the first points
    lie in small blocks: for PGammaL(2,32) at (33,30) it builds 45
    products, and keeps the identity alone."""
    blocks = (range(1, n - k + 1), range(n - k + 1, n), range(n, n + 1))
    return len(chain.elements(within={x: block for block in blocks for x in block}))


def flag_certificate(chain: StabChain, name: str | None, generators: list,
                     n: int, k: int) -> Certificate:
    """Certify via a sharply (n-k, k-1, 1)-transitive witness H <= S_n,
    given as its closed chain, its name and its generators' image tuples.

    The product G = H x S_{k-1} then acts regularly on the vertices, and the
    certificate never enumerates G: the order bookkeeping |H| (k-1)! = P(n,k)
    plus the flag-freeness of H carry the argument.  This is the only
    feasible route when P(n,k) is astronomically large, e.g. (n,k) = (33,30).
    |H| is compared with the number of flags of type (n-k, k-1, 1),
    n! / ((n-k)! (k-1)!), and the stabiliser of the canonical flag is
    counted on H's own chain, which builds no second chain.
    """
    if chain.degree != n:
        raise ValueError(f"witness degree {chain.degree} != n={n}")
    if k < 2:
        raise ValueError(f"the flag type ({n - k}, {k - 1}, 1) has a part below 1")
    order, symmetric = chain.order(), math.factorial(k - 1)
    checks = (
        ("order_equals_flag_count", order == math.perm(n, k) // symmetric),
        ("canonical_flag_stabilizer_trivial",
         canonical_flag_stabilizer_order(chain, n, k) == 1),
        ("witness_times_symmetric_factor_matches_vertex_count",
         order * symmetric == math.perm(n, k)),
    )
    verdict = VERDICT_CAYLEY if all(ok for _, ok in checks) else VERDICT_UNKNOWN
    witness = {"name": name, "degree": n, "generators": [list(g) for g in generators],
               "lam": [n - k, k - 1, 1]}
    return Certificate(n, k, verdict, METHOD_LAMBDA, witness, checks)


def certify_via_lambda(h, n: int, k: int) -> Certificate:
    """:func:`flag_certificate` for a :class:`~starcayley.perm.PermGroup` H,
    on H's chain, which is closed here if it was not yet."""
    if h.degree != n:
        raise ValueError(f"witness degree {h.degree} != n={n}")
    return flag_certificate(h.chain, h.name, [g.images for g in h.generators], n, k)


# ---------------------------------------------------------------------------
# witness groups


def witness_certificate(n: int, k: int, recipe: tuple) -> Certificate:
    """Check the witness group :func:`verdicts.witness_recipe` names for the
    yes-case (n,k).  :func:`verdicts.build_certificate` calls this only when
    the group's order fits its element cap.  H is passed as generator image
    tuples alone and closed once, on the chain whose order the certificate
    checks: the pair group H x 1 ("mu") or H x S_{k-1} ("pairs"), or H's
    own ("flag")."""
    from . import witness_groups

    name, arg, shape = recipe
    unclosed = getattr(witness_groups, f"{name}_unclosed")
    label, degree, gens = unclosed() if arg is None else unclosed(arg)
    if shape == "flag":
        return flag_certificate(StabChain(degree, gens), label, gens, n, k)
    nus = symmetric_nu_generators(n, k) if shape == "pairs" else ()
    return sabidussi_direct(PairGroup.product(degree, k, label, gens, nus), n, k)


def verify_witness(cert: Certificate, cap: float) -> Certificate:
    """Re-run a witness certificate (direct, sharply k-transitive or flag)
    from its witness data alone, under the element cap.

    Raises ValueError, before any chain is built, when the witness's
    degree, k or lam, where present, are not n, k and [n-k, k-1, 1], when
    it has no generator, or when a generator is not a permutation of 1..n
    (for a pair, see :func:`pairs.flat_pair`).  So every chain's degree is
    backed by generator lists in the certificate.  A sharply k-transitive
    witness H, which nothing writes any more, is closed as H x 1 on the
    chain of a direct certificate.
    """
    n, k, witness = cert.n, cert.k, cert.witness
    for key, value in (("degree", n), ("k", k), ("lam", [n - k, k - 1, 1])):
        if key in witness and witness[key] != value:
            raise ValueError(f"witness {key} {witness[key]!r} does not match {value!r}")
    gens = witness["generators"]
    if not gens:
        raise ValueError("the witness has no generator")
    if cert.method == METHOD_LAMBDA:
        gens = [permutation(g) for g in gens]
        if any(len(g) != n for g in gens):
            raise ValueError(f"a generator is not a permutation of 1..{n}")
        return flag_certificate(StabChain(n, gens, cap=cap), witness.get("name"), gens, n, k)
    if cert.method == METHOD_DIRECT:
        flat = [flat_pair(g["mu"], g["nu"], n, k) for g in gens]
    else:
        flat = [flat_pair(g, None, n, k) for g in gens]
    group = PairGroup(n, k, flat, witness.get("name"), cap)
    if cert.method == METHOD_DIRECT:
        return sabidussi_direct(group, n, k)
    # orbit-stabiliser: H is k-transitive iff the base vertex's orbit,
    # |H| / |Stab|, is all P(n,k) vertices; sharply so iff |H| = P(n,k)
    order, vertices = group.order, math.perm(n, k)
    checks = (("order_equals_vertex_count", order == vertices),
              ("k_transitive", order == vertices * group.base_stabilizer_order()))
    verdict = VERDICT_CAYLEY if all(ok for _, ok in checks) else VERDICT_UNKNOWN
    return Certificate(n, k, verdict, METHOD_SHARP_K, witness, checks)
