"""Machine checks behind Cayley certificates for (n,k)-star graphs.

The rule, the certificate record and the choice of route live in
:mod:`starcayley.verdicts`.  Here the ``certify_*`` / ``sabidussi_direct``
functions run machine checks on explicit witness groups and report exactly
what was verified, and :func:`search_regular_subgroup` searches the full
automorphism group for a regular subgroup; only an exhausted search may
refute.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from itertools import islice, permutations

from .pairs import AutPair, PairGroup, aut_order, nu_tail, symmetric_nu_group
from .perm import (DEFAULT_ELEMENT_CAP, CapExceeded, PermGroup,
                   canonical_flag, cycle_type, flag_count, flag_stabilizer,
                   is_k_transitive, orbit, right_multiplication)
from .verdicts import (METHOD_DIRECT, METHOD_LAMBDA, METHOD_REFUTATION,
                       METHOD_SHARP_K, VERDICT_CAYLEY, VERDICT_NOT_CAYLEY,
                       VERDICT_UNKNOWN, _FULL_SEARCH_CHECK, Certificate, factorize)
# re-exported for callers that read the rule and the dispatch from here
from .verdicts import (build_certificate, classify, is_prime_power,
                       is_truncated_search, table_certificate, verify_certificate)


# ---------------------------------------------------------------------------
# witness checks


def _pair_witness(group: PairGroup) -> dict:
    return {
        "name": group.name,
        "degree": group.n,
        "k": group.k,
        "generators": [g.to_dict() for g in group.generators],
    }


def _group_witness(group: PermGroup) -> dict:
    return {
        "name": group.name,
        "degree": group.degree,
        "generators": [g.to_list() for g in group.generators],
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


def certify_via_sharp_k(h: PermGroup, n: int, k: int) -> Certificate:
    """Certify via a sharply k-transitive witness H <= S_n.

    Such an H acts regularly on the vertices through the pairs (mu, 1), so
    verifying sharp k-transitivity is the whole certificate.
    """
    if h.degree != n:
        raise ValueError(f"witness degree {h.degree} != n={n}")
    order_ok = h.order == math.perm(n, k)
    transitive_ok = is_k_transitive(h, k)
    checks = (
        ("order_equals_vertex_count", order_ok),
        ("k_transitive", transitive_ok),
    )
    ok = order_ok and transitive_ok
    verdict = VERDICT_CAYLEY if ok else VERDICT_UNKNOWN
    return Certificate(n, k, verdict, METHOD_SHARP_K, _group_witness(h), checks)


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
    witness = dict(_group_witness(h), lam=list(lam))
    verdict = VERDICT_CAYLEY if ok else VERDICT_UNKNOWN
    return Certificate(n, k, verdict, METHOD_LAMBDA, witness, checks)


# ---------------------------------------------------------------------------
# exhaustive search


# the search looks at the clock once per this many steps of every phase
DEADLINE_STRIDE = 256


def _fixes_some_vertex(mu_type: tuple[int, ...], nu_type: tuple[int, ...]) -> bool:
    """Whether a pair with these cycle types (mu on 1..n, nu on 1..k) fixes a vertex.

    A fixed vertex a has mu(a_j) = a_{nu(j)}, so j -> a_j injects {1..k} into
    {1..n} carrying each l-cycle of nu onto an l-cycle of mu.  Such a map
    exists iff, for every l, nu has at most as many l-cycles as mu.
    """
    have = Counter(mu_type)
    return all(have[length] >= count for length, count in Counter(nu_type).items())


def _class_plan(n: int, k: int, target: int, check_clock):
    """Decide both candidate filters (no fixed vertex, order dividing target)
    once per class of S_n x S_{k-1}, a pair of cycle types, listing no pair.

    Returns (candidates, representatives, count): the candidates as a
    :class:`_ByClass`, the first candidate of each kept class in candidate
    order (nu outer, mu inner, both lexicographic), and their number.  The
    representatives need only the lex-first mu of each type: one lex scan of
    S_n finds them, and stops once the classes seen, of sizes
    n! / prod l^m_l m_l!, cover S_n.  count is a sum of those sizes.
    """
    first: dict[tuple, tuple] = {}  # mu's cycle type -> (lex-first mu, class size)
    order, covered = math.factorial(n), 0
    for i, mu in enumerate(permutations(range(1, n + 1))):
        if i % DEADLINE_STRIDE == 0:
            check_clock("planning classes", f"permutation {i}/{order}")
        mu_type = cycle_type(mu)
        if mu_type not in first:
            size = order // math.prod(length ** m * math.factorial(m)
                                      for length, m in Counter(mu_type).items())
            first[mu_type] = mu, size
            covered += size
            if covered == order:
                break
    keep: dict[tuple, bool] = {}
    nu_types: dict[tuple, tuple] = {}
    representatives, count = [], 0
    for nu in permutations(range(2, k + 1)):
        tail = nu_tail(nu, n)
        nu_type = nu_types[tail] = cycle_type((1,) + nu)
        for mu_type, (mu, size) in first.items():
            kept = keep.get((mu_type, nu_type))
            if kept is None:
                kept = keep[mu_type, nu_type] = (not _fixes_some_vertex(mu_type, nu_type) and
                                                 target % math.lcm(*mu_type, *nu_type) == 0)
                if kept:
                    representatives.append(mu + tail)
            if kept:
                count += size
    return _ByClass(n, keep, nu_types), representatives, count


class _ByClass(dict):
    """The candidates, as a container that tests a flat pair by its class,
    keep[mu's type, nu_types[nu's tail]]: each pair is typed once, and the
    dict keeps the answer."""

    __slots__ = ("n", "keep", "nu_types")

    def __init__(self, n: int, keep: dict, nu_types: dict):
        super().__init__()
        self.n, self.keep, self.nu_types = n, keep, nu_types

    def __contains__(self, pair) -> bool:
        kept = self.get(pair)
        if kept is None:
            n = self.n
            kept = self[pair] = self.keep[cycle_type(pair[:n]), self.nu_types[pair[n:]]]
        return kept


class _Cache(dict):
    """The candidates streamed so far, in order, each mapped to its
    :func:`right_multiplication` getter; a pair not streamed yet gets a
    fresh getter, which is not kept."""

    __slots__ = ()

    def append(self, pair) -> None:
        self[pair] = right_multiplication(pair)

    def __missing__(self, pair):
        return right_multiplication(pair)


def _stream(n: int, k: int, candidates: _ByClass, cache, check_clock):
    """The candidates as flat pairs, in the order of
    ``aut_product(n, k).iter_pairs()``: nu outer, mu inner, both
    lexicographic; each is appended to cache as it is yielded."""
    total = aut_order(n, k)
    done = 0
    for nu in permutations(range(2, k + 1)):
        tail = nu_tail(nu, n)
        for mu in permutations(range(1, n + 1)):
            if done % DEADLINE_STRIDE == 0:
                check_clock("filtering candidates", f"pair {done}/{total}")
            done += 1
            pair = mu + tail
            if pair in candidates:
                cache.append(pair)
                yield pair


def search_regular_subgroup(n: int, k: int, max_gens: int = 2,
                            cap: int = DEFAULT_ELEMENT_CAP,
                            time_limit: float | None = None,
                            up_to_conjugacy: bool = True) -> Certificate:
    """Bounded exhaustive search for a regular subgroup of S_n x S_{k-1}.

    Every non-identity element of a regular subgroup is fixed-point-free on
    the vertices and has order dividing P(n,k), so candidates are filtered
    accordingly before generating-set growth; closures are pruned the moment
    they admit an element violating either condition or outgrow P(n,k).
    Pairs are flat tuples throughout (see :mod:`starcayley.pairs`).

    Both filters depend on the conjugacy class alone, a pair of cycle types,
    mu's on 1..n and nu's on 1..k, so each class is decided once, up front
    (:func:`_class_plan`); the candidates are then streamed in order as the
    growth asks for them, and cached for the next pass.  Closure pruning
    types an element (:class:`_ByClass`) until one pass has exhausted the
    stream, and looks it up in the cache from then on.

    With up_to_conjugacy the first generator is only the representative of
    its class in S_n x S_{k-1}, the class's first candidate.  If G = <a, b>
    is regular and sigma conjugates a to rep(a), then sigma G sigma^-1 =
    <rep(a), sigma b sigma^-1> is regular too, since sigma is a graph
    automorphism, and sigma b sigma^-1 is again a candidate; so the second
    generator ranges over every candidate.  Without it, as in certificates
    written before the reduction, every candidate a is paired with every
    later candidate b.

    The refutation verdict is only issued when exhausting all generating
    sets of size <= max_gens provably covers every subgroup of order P(n,k):
    by default that is the case when P(n,k) is square-free (groups of
    square-free order are metacyclic, hence 2-generated) and max_gens >= 2.
    Otherwise an exhausted search returns Unknown, never NotCayley.

    A time_limit (seconds) truncates the search; the clock is read every
    DEADLINE_STRIDE steps of every phase, and a truncated search always
    returns Unknown, with a note naming the phase and how far it got.
    """
    target = math.perm(n, k)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    order = aut_order(n, k)
    if order > cap:
        raise CapExceeded(f"|Aut| = {order} exceeds cap {cap}")

    def check_clock(phase: str, progress: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"{phase}, {progress}")

    try:
        # orbit() never tests its start, the identity, against allowed
        allowed, representatives, count = _class_plan(n, k, target, check_clock)
        # A pass over the stream ends early only by leaving the search, so the
        # first pass (the full variant's one-generator phase, or the partners
        # of the first representative) fills the cache, and later ones read it.
        cache = _Cache()
        stream = _stream(n, k, allowed, cache, check_clock)
        identity = tuple(range(1, n + k))

        def grow(gens) -> bool:
            # x -> x * g reaches the same group from the identity as g * x,
            # with one getter per candidate, made once, not one per element
            seen = orbit([identity], gens, limit=target, allowed=allowed,
                         act=cache.__getitem__)
            return seen is not None and len(seen) == target

        total = len(representatives) if up_to_conjugacy else count
        firsts = representatives if up_to_conjugacy else stream
        for i, g in enumerate(firsts if max_gens >= 1 else ()):
            if i % DEADLINE_STRIDE == 0:
                check_clock("one-generator growth", f"candidate {i}/{total}")
            if grow((g,)):
                return _search_hit(n, k, (g,), count)
        steps = 0
        firsts = representatives if up_to_conjugacy else cache
        for i, a in enumerate(firsts if max_gens >= 2 else ()):
            if len(cache) < count:
                seconds = stream
            else:
                if isinstance(allowed, _ByClass):
                    allowed = cache
                seconds = cache if up_to_conjugacy else islice(cache, i + 1, None)
            for b in seconds:
                if steps % DEADLINE_STRIDE == 0:
                    check_clock("two-generator growth", f"pair {i}/{total}")
                steps += 1
                if grow((a, b)):
                    return _search_hit(n, k, (a, b), count)
    except TimeoutError as stop:
        return Certificate(
            n, k, VERDICT_UNKNOWN, METHOD_REFUTATION, None,
            (("search_space_exhausted", False),),
            (f"time budget of {time_limit}s exhausted before the search "
             f"space was covered ({stop})",))

    square_free = all(e == 1 for _, e in factorize(target))
    exhausted = square_free and max_gens >= 2
    checks = (
        ("full_automorphism_group_enumerated", True),
        ("candidates_restricted_to_fixed_point_free_elements", True),
        (f"generator_sets_up_to_{max_gens}_closed_up_to_conjugacy" if up_to_conjugacy
         else f"{_FULL_SEARCH_CHECK}{max_gens}_generators_closed", True),
        ("no_regular_subgroup_found", True),
        (f"order_{target}_subgroups_need_at_most_{max_gens}_generators", exhausted),
    )
    notes = ((f"groups of square-free order {target} are "
              "metacyclic, hence 2-generated"),) if square_free else ()
    if exhausted:
        return Certificate(n, k, VERDICT_NOT_CAYLEY, METHOD_REFUTATION,
                           None, checks, notes)
    return Certificate(n, k, VERDICT_UNKNOWN, METHOD_REFUTATION, None, checks,
                       ("search exhausted, but no generator bound certifies "
                        f"that order-{target} subgroups are {max_gens}-generated",))


def _search_hit(n, k, gens, candidate_count) -> Certificate:
    group = PairGroup.generate(n, k, [AutPair.from_flat(g, n) for g in gens],
                               name=f"search-regular({n},{k})")
    cert = sabidussi_direct(group, n, k)
    notes = (f"found among {candidate_count} fixed-point-free candidates",)
    return Certificate(cert.n, cert.k, cert.verdict, cert.method,
                       cert.witness, cert.checks, notes)


# ---------------------------------------------------------------------------
# witness groups


def witness_certificate(n: int, k: int) -> Certificate:
    """Check the known witness group of the yes-case (n,k): a sporadic pair,
    or k = 2 or k = 3 with 2 <= k <= n-2.  :func:`verdicts.build_certificate`
    calls this only when the group's order fits its element cap."""
    from .witness_groups import agl1, mathieu11, mathieu12, pgammal2, pgl2, psl2

    special = {
        (11, 4): lambda: _direct_product_cert(mathieu11(), n, k),
        (12, 5): lambda: _direct_product_cert(mathieu12(), n, k),
        (9, 4): lambda: _direct_product_cert(psl2(8), n, k, with_nu=True),
        (9, 6): lambda: _direct_product_cert(psl2(8), n, k, with_nu=True),
        (33, 4): lambda: _direct_product_cert(pgammal2(32), n, k, with_nu=True),
        (33, 30): lambda: certify_via_lambda(pgammal2(32), n, k),
    }
    if (n, k) in special:
        return special[(n, k)]()
    if k == 2:
        return _direct_product_cert(agl1(n), n, k)
    if k == 3:
        return _direct_product_cert(pgl2(n - 1), n, k)
    raise ValueError(f"no witness group is known for ({n},{k})")


def _direct_product_cert(h: PermGroup, n: int, k: int,
                         with_nu: bool = False) -> Certificate:
    nu_side = symmetric_nu_group(n, k) if with_nu else None
    group = PairGroup.direct_product(h, k, nu_side)
    return sabidussi_direct(group, n, k)
