"""The exhaustive transversal search for a regular subgroup, the one machine
route that may refute, and the replay of the older two-generator search.
:mod:`starcayley.verdicts` imports it only on the search and refutation
routes, so a witness ``certify`` or ``check`` never compiles it."""

from __future__ import annotations

import math
import time
from collections import Counter
from itertools import permutations
from operator import itemgetter

from . import DEFAULT_ELEMENT_CAP, CapExceeded
from .cayley import sabidussi_direct
from .chain import cycle_type, orbit, right_multiplication
from .pairs import AutPair, PairGroup, nu_tail
from .verdicts import (METHOD_REFUTATION, VERDICT_CAYLEY, VERDICT_NOT_CAYLEY,
                       VERDICT_UNKNOWN, Certificate, factorize)


# the search looks at the clock once per this many pairs a coset scan passes
DEADLINE_STRIDE = 256


def _fixes_some_vertex(mu_type: tuple[int, ...], nu_type: tuple[int, ...]) -> bool:
    """Whether a pair with these cycle types (mu on 1..n, nu on 1..k) fixes a vertex.

    A fixed vertex a has mu(a_j) = a_{nu(j)}, so j -> a_j injects {1..k} into
    {1..n} carrying each l-cycle of nu onto an l-cycle of mu.  Such a map
    exists iff, for every l, nu has at most as many l-cycles as mu.
    """
    have = Counter(mu_type)
    return all(have[length] >= count for length, count in Counter(nu_type).items())


class _ByClass(dict):
    """The candidates, as a container that tests a flat pair by its class,
    mu's cycle type and nu's tail: the first pair typed of a class decides
    the class, in keep, and the dict keeps each typed pair's answer.  Both
    are caches, emptied together once the dict holds cap pairs, so keep
    never holds more classes than that."""

    __slots__ = ("n", "target", "keep", "cap")

    def __init__(self, n: int, k: int, cap: int):
        super().__init__()
        self.n, self.target, self.keep, self.cap = n, math.perm(n, k), {}, cap

    def __contains__(self, pair) -> bool:
        kept = self.get(pair)
        if kept is None:
            if len(self) >= self.cap:
                self.clear()
                self.keep.clear()
            n = self.n
            mu_type, tail = cycle_type(pair[:n]), pair[n:]
            kept = self.keep.get((mu_type, tail))
            if kept is None:
                nu_type = cycle_type((1, *[x - n + 1 for x in tail]))
                kept = self.keep[mu_type, tail] = (not _fixes_some_vertex(mu_type, nu_type) and
                                                   self.target % math.lcm(*mu_type, *nu_type) == 0)
            self[pair] = kept
        return kept


def _coset(n: int, k: int, v: tuple, candidates: _ByClass, check_clock):
    """The candidates that map the base vertex [1..k] to v, lazily, nu outer:
    mu(j) = v[nu(j)] for j <= k, and mu maps k+1..n onto the other points
    in any way.  The clock is read every DEADLINE_STRIDE pairs scanned."""
    rest = [x for x in range(1, n + 1) if x not in v]
    scanned = 0
    for nu in permutations(range(2, k + 1)):
        head, tail = (v[0], *[v[j - 1] for j in nu]), nu_tail(nu, n)
        for others in permutations(rest):
            if scanned % DEADLINE_STRIDE == 0:
                check_clock(f"pair {scanned} of the coset of {v}")
            scanned += 1
            pair = head + others + tail
            if pair in candidates:
                yield pair


def search_regular_subgroup(n: int, k: int, cap: int = DEFAULT_ELEMENT_CAP,
                            time_limit: float | None = None) -> Certificate:
    """Exhaustive transversal search for a regular subgroup of S_n x S_{k-1}.

    Every non-identity element of a regular subgroup is fixed-point-free on
    the vertices and has order dividing P(n,k).  Both depend on the
    conjugacy class alone, a pair of cycle types, so each class is decided
    the first time one of its pairs is typed (:class:`_ByClass`), and a
    closure is pruned the moment it admits any other element or outgrows
    P(n,k).  Pairs are flat tuples throughout (see :mod:`starcayley.pairs`).

    The search grows a semiregular group H from {1}: v is the first vertex,
    in rank order, that H's orbit of the base vertex [1..k] misses; each
    candidate c that maps [1..k] to v (:func:`_coset`) gives the closure
    <H, c>, and each closure not explored before is grown in turn, until one
    has order P(n,k).  A regular G that contains H holds exactly one such c,
    and <H, c> is larger than H and lies in G, so every regular subgroup
    lies on some branch, and an exhausted search refutes with no bound on
    the number of generators.

    The search never lists S_n x S_{k-1}.  What it holds is bounded by cap:
    it raises :class:`CapExceeded` when P(n,k), the length of its vertex
    list and the most any closure may hold, exceeds cap.  The closures on
    the current branch at least double at each level, so together they hold
    under 2 P(n,k) pairs, plus the closure being computed; the memo of typed
    pairs and the set of explored closures are caches, emptied whenever they
    pass cap points (a pair is n+k-1 points), which changes no result, since
    an explored closure is only ever one whose branch found nothing.  A
    time_limit (seconds) truncates the search; the clock is read every
    DEADLINE_STRIDE pairs a coset scan passes, and a truncated search always
    returns Unknown, with a note saying how far it got.
    """
    target = math.perm(n, k)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    if target > cap:
        raise CapExceeded(f"P({n},{k}) = {target} exceeds cap {cap}")

    def check_clock(progress: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"transversal search, {progress}")

    width = n + k - 1  # the points of a pair, which the caches count against cap
    allowed = _ByClass(n, k, cap // width)
    vertices = list(permutations(range(1, n + 1), k))
    # a pair's image of [1..k] holds mu(nu^-1(i)) at i: one getter per tail,
    # and for k = 1 a 1-tuple, as the vertices are
    images = {nu_tail(nu, n): itemgetter(*sorted(range(k), key=((1,) + nu).__getitem__))
              for nu in permutations(range(2, k + 1))} if k > 1 else {(): itemgetter(slice(1))}
    identity = tuple(range(1, n + k))
    explored = set()
    held = 0

    def grow(gens: tuple, group, start: int):
        nonlocal held
        covered = {images[p[n:]](p) for p in group}
        while vertices[start] in covered:
            start += 1
        for c in _coset(n, k, vertices[start], allowed, check_clock):
            # x -> x * g from H reaches <H, c>, as g * x would; orbit() tests
            # no start against allowed, so the identity passes
            seen = orbit(group, gens + (c,), limit=target, allowed=allowed,
                         act=right_multiplication)
            if seen is None or (key := frozenset(seen)) in explored:
                continue
            if held + len(key) * width > cap:
                explored.clear()
                held = 0
            explored.add(key)
            held += len(key) * width
            found = (gens + (c,) if len(seen) == target
                     else grow(gens + (c,), seen, start + 1))
            if found:
                return found
        return None

    try:
        found = grow((), (identity,), 0)
    except TimeoutError as stop:
        return Certificate(
            n, k, VERDICT_UNKNOWN, METHOD_REFUTATION, None,
            (("search_space_exhausted", False),),
            (f"time budget of {time_limit}s exhausted before the search "
             f"space was covered ({stop})",))
    if found:
        return _search_hit(n, k, found)
    checks = (
        ("full_automorphism_group_enumerated", True),
        ("candidates_restricted_to_fixed_point_free_elements", True),
        ("transversal_search_exhausted", True),
        ("no_regular_subgroup_found", True),
    )
    return Certificate(n, k, VERDICT_NOT_CAYLEY, METHOD_REFUTATION, None, checks)


# the third check of a refutation by the two-generator search, in each of its
# variants, as certificates written before the transversal search record it
_TWO_GENERATOR_CHECKS = ("generator_sets_up_to_2_closed_up_to_conjugacy",
                         "all_generating_sets_up_to_2_generators_closed")


def derive_two_generator_search(cert: Certificate, fresh: Certificate) -> Certificate:
    """fresh, the transversal search's certificate for cert's pair; or, when
    cert is a refutation by the two-generator search, what that search
    finds, derived from fresh.

    That search closed every subgroup generated by two candidates, and
    refuted only when P(n,k) is square-free, since such groups are
    metacyclic, hence 2-generated.  So where the transversal search finds
    no regular subgroup, it found none either, and its verdict follows from
    the factorisation; where a square-free regular group exists, it found
    one too.  A regular group of any other order may need more generators,
    and then nothing can be derived: the result records no check, and a
    note says why.
    """
    variant = next((name for name, _ in cert.checks if name in _TWO_GENERATOR_CHECKS), None)
    n, k = fresh.n, fresh.k
    target = math.perm(n, k)
    square_free = all(e == 1 for _, e in factorize(target))
    if variant is None or fresh.verdict == VERDICT_UNKNOWN or (
            fresh.verdict == VERDICT_CAYLEY and square_free):
        return fresh
    if fresh.verdict == VERDICT_CAYLEY:
        return Certificate(n, k, VERDICT_UNKNOWN, METHOD_REFUTATION, None, (), (
            f"a regular subgroup exists, and its order {target} is not square-free, "
            "so whether two candidates generate one cannot be derived",))
    checks = fresh.checks[:2] + ((variant, True), fresh.checks[3],
                                 (f"order_{target}_subgroups_need_at_most_2_generators",
                                  square_free))
    return Certificate(n, k, VERDICT_NOT_CAYLEY if square_free else VERDICT_UNKNOWN,
                       METHOD_REFUTATION, None, checks)


def _search_hit(n, k, gens) -> Certificate:
    # drop each generator that the others generate, last first
    identity = tuple(range(1, n + k))
    gens = list(gens)
    for g in gens[::-1]:
        if g in orbit([identity], [h for h in gens if h != g], act=right_multiplication):
            gens.remove(g)
    group = PairGroup.generate(n, k, [AutPair.from_flat(g, n) for g in gens],
                               name=f"search-regular({n},{k})")
    return sabidussi_direct(group, n, k)
