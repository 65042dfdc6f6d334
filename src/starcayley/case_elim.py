"""Arithmetic elimination of candidate point groups for star graphs with
large k.

If the (n,k)-star graph were Cayley with first-component image H, the
complement T <= S_{k-1} would need order t = P(n,k) / |H| with t dividing
(k-1)!.  For each concrete family the contradiction takes one of three
shapes, mirrored here as reason codes:

* ``t_not_divides_factorial``: t does not divide (k-1)! (includes t
  outright exceeding (k-1)!);
* ``symmetric_index_too_small``: the index (k-1)!/t is below k-1 but above
  2, impossible for a subgroup of a symmetric group;
* ``alternating_order_divisibility``: the index forces T to contain a
  pointwise-alternating subgroup whose order (k-r)!/2 fails to divide t.

Every record is re-derivable from exact integer arithmetic alone; no group
is ever constructed here.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import comb, factorial

from .numbers import (agl_d2_order, divides_mersenne_product,
                      index_binomial_bound, kernel_order_divides_factorial,
                      required_kernel_order, two_adic_obstruction)
from .verdicts import is_prime


class CaseFamily(str, Enum):
    M11 = "M11"
    M12 = "M12"
    M23 = "M23"
    M24 = "M24"
    A7_2_4 = "2^4.A7"
    M11_ON_12 = "M11_on_12"
    M22 = "M22"
    M22_2 = "M22.2"
    PGAMMAL2Q_SUB = "PGammaL2q_sub"
    AGL1_8 = "AGL(1,8)"
    AGAMMAL1_8 = "AGammaL(1,8)"
    AGAMMAL1_32 = "AGammaL(1,32)"
    AGL_D_2 = "AGL(d,2)"


# degree and order of each finite family; AGL(d,2) is parametrized by n = 2^d
_FINITE_FAMILY_DATA: dict[CaseFamily, tuple[int, int]] = {
    CaseFamily.M11: (11, 7920),
    CaseFamily.M12: (12, 95040),
    CaseFamily.M23: (23, 10200960),
    CaseFamily.M24: (24, 244823040),
    CaseFamily.A7_2_4: (16, 40320),
    CaseFamily.M11_ON_12: (12, 7920),
    CaseFamily.M22: (22, 443520),
    CaseFamily.M22_2: (22, 887040),
    CaseFamily.AGL1_8: (8, 56),
    CaseFamily.AGAMMAL1_8: (8, 168),
    CaseFamily.AGAMMAL1_32: (32, 4960),
}

# the six exceptional (a, r, index) triples of the small-index classification
EXCEPTIONAL_INDEX_TRIPLES = frozenset({
    (6, 3, 15), (5, 2, 6), (6, 2, 6), (6, 2, 12), (7, 3, 30), (8, 3, 30),
})


class CaseRecord(namedtuple("CaseRecord", "family n k group_order t refuted refuted_by "
                                        "index r detail", defaults=(None, None, ""))):
    """One elimination: t is an int, or a Fraction where |H| does not divide
    P(n,k); index and r are set by the reasons that use them."""

    __slots__ = ()


def family_order(family: CaseFamily, n: int) -> int:
    if family is CaseFamily.AGL_D_2:
        d = n.bit_length() - 1
        if 1 << d != n:
            raise ValueError(f"AGL(d,2) needs n = 2^d, got {n}")
        return agl_d2_order(d)
    try:
        expected_n, order = _FINITE_FAMILY_DATA[family]
    except KeyError:
        raise ValueError(f"{family} has no closed-form order table") from None
    if n != expected_n:
        raise ValueError(f"{family.value} acts on {expected_n} points, not {n}")
    return order


def eliminate_case(family: CaseFamily, n: int, k: int) -> CaseRecord:
    """Run the arithmetic refutation for one (family, n, k) candidate."""
    if not 2 <= k <= n - 3:
        raise ValueError(f"case analysis needs 2 <= k <= n-3, got ({n},{k})")
    if family is CaseFamily.PGAMMAL2Q_SUB:
        raise ValueError("projective subgroup candidates go through "
                         "pgammal_solution_scan, not eliminate_case")
    if family is CaseFamily.AGL_D_2:
        return _eliminate_agl_case(n, k)

    order = family_order(family, n)
    pnk = math.perm(n, k)
    if pnk % order:
        return CaseRecord(family, n, k, order, Fraction(pnk, order), True,
                          "t_not_integral",
                          detail="group order does not divide the vertex count")
    t = pnk // order
    kfact = factorial(k - 1)
    if kfact % t:
        return CaseRecord(family, n, k, order, t, True,
                          "t_not_divides_factorial",
                          detail=f"t = {t} does not divide (k-1)! = {kfact}")

    a = k - 1
    index = kfact // t
    if 2 < index < a:
        return CaseRecord(
            family, n, k, order, t, True, "symmetric_index_too_small",
            index=index,
            detail=f"S_{a} has no subgroup of index {index} (2 < {index} < {a})")

    r = next((r for r in range(1, a // 2 + 1) if index < comb(a, r)), None)
    if r is None:
        return CaseRecord(family, n, k, order, t, False, "not_refuted",
                          index=index, detail="index exceeds every binomial bound")
    if a % 2 == 0 and index == comb(a, a // 2) // 2:
        return CaseRecord(family, n, k, order, t, False, "not_refuted",
                          index=index, r=r,
                          detail="index matches the imprimitive two-block case")
    if (a, r, index) in EXCEPTIONAL_INDEX_TRIPLES:
        return CaseRecord(family, n, k, order, t, False, "not_refuted",
                          index=index, r=r, detail="exceptional small-index case")
    required = factorial(a - r + 1) // 2
    if t % required:
        return CaseRecord(
            family, n, k, order, t, True, "alternating_order_divisibility",
            index=index, r=r,
            detail=f"T would contain an alternating subgroup of order "
                   f"{(a - r + 1)}!/2, which does not divide t = {t}")
    return CaseRecord(family, n, k, order, t, False, "not_refuted",
                      index=index, r=r)


def _eliminate_agl_case(n: int, k: int) -> CaseRecord:
    d = n.bit_length() - 1
    if 1 << d != n or k != n - 3:
        raise ValueError(f"AGL(d,2) case needs (n,k) = (2^d, 2^d-3), got ({n},{k})")
    order = agl_d2_order(d)
    t = required_kernel_order(d)
    if d < 8:
        # small range: t fails even the basic divisibility into (k-1)!
        if not kernel_order_divides_factorial(d):
            return CaseRecord(CaseFamily.AGL_D_2, n, k, order, t, True,
                              "t_not_divides_factorial",
                              detail=f"t does not divide (2^{d}-4)!")
        return CaseRecord(CaseFamily.AGL_D_2, n, k, order, t, False,
                          "not_refuted")
    # d >= 8: the unconditional route: binomial index bound + 2-adic
    # valuation obstruction, with the imprimitive case excluded by
    # r+1 < k/8 and the exceptional triples by k-1 > 8.  (The direct
    # divisibility also fails wherever the primitive-divisor scan reaches,
    # recorded as corroboration.)
    r = (d * d - d) // 2 - 2
    bound_ok = index_binomial_bound(d)
    valuation_ok = two_adic_obstruction(d)
    imprimitive_excluded = r + 1 < Fraction(k, 8)
    exceptional_excluded = k - 1 > 8
    refuted = bound_ok and valuation_ok and imprimitive_excluded and exceptional_excluded
    divisibility_also_fails = not divides_mersenne_product(d)
    return CaseRecord(
        CaseFamily.AGL_D_2, n, k, order, t, refuted,
        "binomial_index_bound_and_two_adic_valuation" if refuted else "not_refuted",
        r=r,
        detail=f"index bound {bound_ok}, valuation obstruction {valuation_ok}, "
               f"imprimitive excluded {imprimitive_excluded}, "
               f"exceptional excluded {exceptional_excluded}; direct "
               f"divisibility into (k-1)! also fails: {divisibility_also_fails}")


def pgammal_solution_scan(r_max: int) -> list[int]:
    """Prime powers q = p^r (r <= r_max) surviving the projective-subgroup chain.

    A 3-transitive subgroup of PGammaL(2,q) as point group forces k = q - 2
    (so q >= 6) and the divisibility (q - 2) | 6r.  Since a positive divisor
    cannot exceed 6r, the scan stops once 6r < 2^r - 2 (at r = 6).  Any hit
    beyond the expected {8, 32} is reported rather than filtered.
    """
    if r_max < 1:
        raise ValueError("need r_max >= 1")
    hits = []
    for r in range(1, r_max + 1):
        if 6 * r < (1 << r) - 2:
            break
        p = 2
        while p ** r - 2 <= 6 * r:
            if is_prime(p):
                q = p ** r
                if q >= 6 and (6 * r) % (q - 2) == 0:
                    hits.append(q)
            p += 1
    return sorted(hits)
