"""The classification rule and the certificate record, free of group code.

:func:`classify` answers from the closed-form rule alone (pure arithmetic
plus a six-pair exceptional table).  :func:`build_certificate` and
:func:`verify_certificate` pick a route from arithmetic alone.  Only a
route that closes a witness group imports :mod:`starcayley.cayley`, which
holds the machine checks, and only a search or the replay of a refutation
imports :mod:`starcayley.search`; so ``classify`` and every table
certificate load no group module, and a witness never loads the search.

A verdict of ``"NotCayley"`` is only ever produced by the classification
table (labeled as such) or by an exhausted search; a failed witness check
yields ``"Unknown"``, because the absence of one witness proves nothing.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import DEFAULT_ELEMENT_CAP, CapExceeded

VERDICT_CAYLEY = "Cayley"
VERDICT_NOT_CAYLEY = "NotCayley"
VERDICT_UNKNOWN = "Unknown"

METHOD_DIRECT = "DirectRegularAction"
METHOD_SHARP_K = "SharpKTransitiveWitness"
METHOD_LAMBDA = "LambdaTransitiveWitness"
METHOD_TABLE = "ClassificationTable"
METHOD_REFUTATION = "ExhaustiveSearchRefutation"

# The witness each sporadic yes-case is certified by: (n, k) -> (constructor
# in witness_groups, its argument, shape).  The shape is "mu" for H x 1,
# "pairs" for H x S_{k-1}, and "flag" for a sharply (n-k, k-1, 1)-transitive H.
SPORADIC_WITNESSES = {
    (9, 4): ("psl2", 8, "pairs"),
    (9, 6): ("psl2", 8, "pairs"),
    (11, 4): ("mathieu11", None, "mu"),
    (12, 5): ("mathieu12", None, "mu"),
    (33, 4): ("pgammal2", 32, "pairs"),
    (33, 30): ("pgammal2", 32, "flag"),
}

SPORADIC_CAYLEY_PAIRS = frozenset(SPORADIC_WITNESSES)

# the no-cases build_certificate refutes by search: those whose base vertex
# stabiliser, (n-k)!(k-1)! pairs, is at most 144 and whose vertex count P(n,k)
# is at most 6,720
SEARCHED_NO_CASES = frozenset({(6, 2), (7, 3), (7, 4), (8, 4), (8, 5)})


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (p, e) pairs, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# this bound (Sorenson and Webster, 2015)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with the bases 2..41.

    A witness proves n composite at any size.  Below _MILLER_RABIN_BOUND no
    composite passes every base; at or above it a probable prime is not
    proven prime, and CapExceeded is raised instead of an answer.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_BOUND:
        raise CapExceeded(f"{n} is a probable prime, but the Miller-Rabin bases 2..41 "
                          f"prove primality only below {_MILLER_RABIN_BOUND}")
    return True


def _integer_root(n: int, m: int) -> int:
    """floor(n^(1/m)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def is_prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m when n is a prime power, else None.

    m is the largest exponent with an exact integer m-th root of n; that
    root is a prime power only if it is prime, since a root that were itself
    a power would give a larger m.  By convention 1 is not a prime power.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    for m in range(n.bit_length() - 1, 0, -1):
        root = _integer_root(n, m)
        if root ** m == n:
            return (root, m) if is_prime(root) else None
    return None


class ClassificationResult(namedtuple("ClassificationResult", "n k is_cayley clause")):
    __slots__ = ()


def classify(n: int, k: int) -> ClassificationResult:
    """Decide Cayleyness of the (n,k)-star graph from the classification rule.

    Clauses, first match wins: the degenerate graphs k=1 (complete graph) and
    k=n-1 (star graph) are always Cayley; so is every n=k+2; for k=2 the
    answer is "n is a prime power", for k=3 it is "n-1 is a prime power";
    six exceptional pairs remain; everything else is not Cayley.
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got ({n},{k})")
    if k == 1:
        return ClassificationResult(n, k, True, "k=1")
    if k == n - 1:
        return ClassificationResult(n, k, True, "k=n-1")
    if n == k + 2:
        return ClassificationResult(n, k, True, "n=k+2")
    if k == 2:
        if is_prime_power(n):
            return ClassificationResult(n, k, True, "k=2-prime-power")
        return ClassificationResult(n, k, False, "none")
    if k == 3:
        if is_prime_power(n - 1):
            return ClassificationResult(n, k, True, "k=3-prime-power-successor")
        return ClassificationResult(n, k, False, "none")
    if (n, k) in SPORADIC_CAYLEY_PAIRS:
        return ClassificationResult(n, k, True, "sporadic")
    return ClassificationResult(n, k, False, "none")


# ---------------------------------------------------------------------------
# certificates


class Certificate(namedtuple("Certificate", "n k verdict method witness checks notes",
                             defaults=((),))):
    """A machine-checkable record of why the (n,k)-star graph is or is not Cayley.

    witness is a JSON-ready dict or None, checks a tuple of (name, passed)
    pairs, notes a tuple of strings.
    """

    __slots__ = ()

    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "checks": [{"name": name, "pass": ok} for name, ok in self.checks],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        """One line of JSON with no insignificant whitespace."""
        # json is imported only where certificates are written or read, so
        # classify and the arithmetic commands never load it
        import json
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        return cls(
            n=data["n"], k=data["k"], verdict=data["verdict"],
            method=data["method"], witness=data.get("witness"),
            checks=tuple((c["name"], bool(c["pass"])) for c in data["checks"]),
            notes=tuple(data.get("notes", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        import json
        return cls.from_dict(json.loads(text))


def table_certificate(n: int, k: int) -> Certificate:
    """A certificate that only records the classification-rule verdict.

    Labeled method=ClassificationTable so that "the rule says" stays clearly
    separate from "a machine check verified".
    """
    result = classify(n, k)
    verdict = VERDICT_CAYLEY if result.is_cayley else VERDICT_NOT_CAYLEY
    checks = ((f"classification_clause_{result.clause}", True),)
    return Certificate(n, k, verdict, METHOD_TABLE, None, checks)


def is_truncated_search(cert: Certificate) -> bool:
    """Whether cert records a search that a budget cut short: an Unknown
    refutation whose one check is search_space_exhausted=fail.  Nothing in
    it can be reproduced, since the truncation point depends on the clock."""
    return (cert.method == METHOD_REFUTATION and cert.verdict == VERDICT_UNKNOWN
            and cert.checks == (("search_space_exhausted", False),))


# ---------------------------------------------------------------------------
# strategy dispatch and re-verification


def witness_recipe(n: int, k: int) -> tuple[str, int | None, str] | None:
    """The witness group that certifies the yes-case (n,k), in the form of
    a SPORADIC_WITNESSES entry: AGL(1,n) for k = 2, PGL(2,n-1) for k = 3,
    the table's entry for a sporadic pair.  None where the table is the only
    certificate: k = 1, k = n-1, and n = k+2 with k >= 4."""
    if k == 1 or k == n - 1:
        return None
    if (n, k) in SPORADIC_WITNESSES:
        return SPORADIC_WITNESSES[n, k]
    if k == 2:
        return ("agl1", n, "mu")
    if k == 3:
        return ("pgl2", n - 1, "mu")
    return None


def _witness_order(n: int, k: int, shape: str) -> int:
    """The order of the group a witness of the given shape closes: the
    regular group, of order P(n,k), or for "flag" H alone, of order
    n!/((n-k)!(k-1)!), the number of flags of type (n-k, k-1, 1)."""
    order = math.perm(n, k)
    return order // math.factorial(k - 1) if shape == "flag" else order


def build_certificate(n: int, k: int, force_search: bool = False,
                      element_cap: int = DEFAULT_ELEMENT_CAP,
                      time_limit: float | None = None) -> Certificate:
    """Produce the strongest certificate available for (n,k) under the budgets.

    Preference order: the witness group :func:`witness_recipe` names,
    checked directly (or via the flag route for (33,30)), built only when
    its order fits element_cap, the cap ``check`` closes it under; a search
    for the no-cases in SEARCHED_NO_CASES; the labeled classification table
    otherwise.
    """
    result = classify(n, k)
    if force_search or (n, k) in SEARCHED_NO_CASES:
        # perm first: see the note on import order in cli.py
        from . import perm, search
        return search.search_regular_subgroup(n, k, cap=element_cap,
                                              time_limit=time_limit)
    recipe = witness_recipe(n, k) if result.is_cayley else None
    if recipe is None or _witness_order(n, k, recipe[2]) > element_cap:
        return table_certificate(n, k)
    # perm first, and no search: see the note on import order in cli.py
    from . import perm, cayley
    return cayley.witness_certificate(n, k, recipe)


def verify_certificate(cert: Certificate, cap: int = DEFAULT_ELEMENT_CAP,
                       time_limit: float | None = None) -> tuple[bool, Certificate]:
    """Re-run every check a certificate records, from its witness data alone.

    Returns (reproduced, fresh_certificate): reproduced is True when the
    fresh run agrees bit-for-bit on the verdict and on every recorded check.
    A refutation is replayed by the transversal search, under time_limit,
    and one by the older two-generator search is derived from it
    (:func:`search.derive_two_generator_search`); a replay the clock cuts
    short is a truncated search (:func:`is_truncated_search`), which
    reproduces nothing.  A sharply k-transitive witness H, which nothing
    writes any more, is closed as H x 1 on the chain of a direct certificate.
    Raises ValueError unless n and k are integers with 1 <= k < n.
    """
    n, k = cert.n, cert.k
    if type(n) is not int or type(k) is not int or not 1 <= k < n:
        raise ValueError(f"need integers 1 <= k < n, got ({n!r},{k!r})")
    if cert.method == METHOD_TABLE:
        fresh = table_certificate(n, k)
    elif cert.method in (METHOD_DIRECT, METHOD_SHARP_K, METHOD_LAMBDA, METHOD_REFUTATION):
        from . import perm, pairs, cayley
        if cert.method in (METHOD_DIRECT, METHOD_SHARP_K):
            e = perm.Perm.identity(n)
            gens = [pairs.AutPair.from_dict(g) if cert.method == METHOD_DIRECT
                    else pairs.AutPair(perm.Perm(g), e) for g in cert.witness["generators"]]
            group = pairs.PairGroup.generate(n, k, gens, cap=cap,
                                             name=cert.witness.get("name"))
            if cert.method == METHOD_DIRECT:
                fresh = cayley.sabidussi_direct(group, n, k)
            else:
                # orbit-stabiliser: H is k-transitive iff the base vertex's orbit,
                # |H| / |Stab|, is all P(n,k) vertices; sharply so iff |H| = P(n,k)
                order, vertices = group.order, math.perm(n, k)
                checks = (("order_equals_vertex_count", order == vertices),
                          ("k_transitive", order == vertices * group.base_stabilizer_order()))
                verdict = VERDICT_CAYLEY if all(ok for _, ok in checks) else VERDICT_UNKNOWN
                fresh = Certificate(n, k, verdict, METHOD_SHARP_K, cert.witness, checks)
        elif cert.method == METHOD_LAMBDA:
            h = perm.PermGroup.from_dict(cert.witness, cap=cap)
            fresh = cayley.certify_via_lambda(h, n, k)
        else:
            from . import search
            fresh = search.derive_two_generator_search(
                cert, search.search_regular_subgroup(n, k, cap=cap, time_limit=time_limit))
    else:
        raise ValueError(f"unknown certificate method {cert.method!r}")
    reproduced = (fresh.verdict == cert.verdict and fresh.checks == cert.checks)
    return reproduced, fresh
