"""Exact big-integer checks for the hypothetical AGL(d,2) Cayley case and the
primitive-divisor scan of the sequence 2^d - 3.

The scenario under attack: if the (2^d, 2^d-3)-star graph were a Cayley graph
with point group AGL(d,2), a complement subgroup T <= S_{2^d - 4} of order

    t = P(2^d, 2^d-3) / |AGL(d,2)|

would have to exist.  For d < 8 already t does not divide (2^d - 4)!.  For
d >= 8 the refutation rests on two exact inequalities (checked here as
:func:`index_binomial_bound` and :func:`two_adic_obstruction`), and,
independently, on 2^d - 3 having a primitive prime divisor (scanned here by
one gcd per d, no factorization required).

Everything in this module is exact integer or Fraction arithmetic; there is
no floating point anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, factorial, gcd

# literal factorial cross-checks are only feasible while (2^d)! stays small
IDENTITY_CROSS_CHECK_MAX_D = 16


def agl_d2_order(d: int) -> int:
    """|AGL(d,2)| = 2^d (2^d - 1)(2^d - 2) ... (2^d - 2^(d-1))."""
    n = 1 << d
    order = n
    for i in range(d):
        order *= n - (1 << i)
    return order


def v2(x: int) -> int:
    """The 2-adic valuation: the largest v with 2^v dividing x."""
    if x <= 0:
        raise ValueError(f"need x >= 1, got {x}")
    return (x & -x).bit_length() - 1


def v2_factorial(m: int) -> int:
    """v2(m!) by the Legendre sum of floor(m / 2^i); O(log m) for any m."""
    if m < 0:
        raise ValueError("need m >= 0")
    total = 0
    while m:
        m >>= 1
        total += m
    return total


def required_kernel_order(d: int) -> int:
    """t = P(2^d, 2^d - 3) / |AGL(d,2)|, asserted to be an exact integer.

    The quotient is integral because AGL(d,2) acts on the k-tuples; this is
    asserted rather than assumed.  The value grows like (2^d)!, so calling
    this for large d is deliberate.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    return _kernel_order(d, factorial((1 << d) - 4))


def _kernel_order(d: int, k_minus_1_factorial: int) -> int:
    # t from (2^d - 4)!, which a caller that needs that factorial too passes
    # in, so each d forms only one factorial of its scale:
    # P(n, n-3) = n!/3! = (n-4)! (n-3)(n-2)(n-1)n / 6 with n = 2^d
    n = 1 << d
    kperms = k_minus_1_factorial * (n - 3) * (n - 2) * (n - 1) * n // 6
    q, r = divmod(kperms, agl_d2_order(d))
    if r:
        raise AssertionError(f"P(2^{d}, 2^{d}-3) not divisible by |AGL({d},2)|")
    return q


class AglCase(namedtuple("AglCase", "d")):
    """Derived parameters of the hypothetical AGL(d,2) case."""

    __slots__ = ()

    def __new__(cls, d: int):
        if d < 3:
            raise ValueError("need d >= 3")
        return super().__new__(cls, d)

    @property
    def n(self) -> int:
        return 1 << self.d

    @property
    def k(self) -> int:
        return (1 << self.d) - 3

    @property
    def r(self) -> int:
        return (self.d * self.d - self.d) // 2 - 2

    def t(self) -> int:
        return required_kernel_order(self.d)


def kernel_order_divides_factorial(d: int) -> bool:
    """Whether t divides (2^d - 4)!, the order of the ambient symmetric group.

    A Cayley witness needs this to hold; it fails for every 3 <= d <= 7,
    which settles those cases outright.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    ambient = factorial((1 << d) - 4)
    return ambient % _kernel_order(d, ambient) == 0


def _mersenne_residue(d: int, lo: int) -> int:
    """(2^lo - 1)...(2^(d-3) - 1) mod 2^d - 3 for lo >= 1, by shifts: the bits
    above 2^d fold back in times 3 (2^d = 3 mod 2^d - 3), and one fold keeps
    x < 2^(d+1), so no step divides by a d-bit number."""
    mask = (1 << d) - 1
    x = 1
    for j in range(lo, d - 2):
        x = (x << j) - x
        x = 3 * (x >> d) + (x & mask)
    return x % ((1 << d) - 3)


def divides_mersenne_product(d: int) -> bool:
    """Whether 2^d - 3 divides (2^(d-3)-1)(2^(d-4)-1)...(2^3-1).

    Stripping from t | (2^d - 4)! every factor coprime to 2^d - 3 leaves
    exactly this product divisibility, so the necessary condition on t holds
    iff this returns True.  The classification expects False throughout
    d >= 8, which on its own rules the AGL(d,2) witness out wherever the
    scan reaches.
    """
    if d < 7:
        raise ValueError("need d >= 7")
    return _mersenne_residue(d, 3) == 0


def has_primitive_divisor(d: int) -> bool:
    """Whether 2^d - 3 has a prime divisor dividing no earlier 2^i - 3 (i < d).

    Let p be a prime of m = 2^d - 3 and o = ord_p(2).  p divides 2^i - 3
    exactly when o | d - i, and 2^1 - 3, 2^2 - 3 have no prime, so p is
    non-primitive iff o <= d - 3.  Every such o has a multiple in
    [floor((d-2)/2), d - 3] (o itself, or the range is longer than o), so
    those primes are the primes of g = gcd(m, R), R the product of 2^j - 1
    over that range (j >= 1, as 2^0 - 1 = 0).  m is divided by g until
    coprime to it; m > 1 survives exactly when a primitive prime divisor
    exists.  No factorization is ever performed.
    """
    if d < 3:
        raise ValueError("need d >= 3")
    m = (1 << d) - 3
    g = gcd(m, _mersenne_residue(d, max(1, (d - 2) // 2)))
    while g > 1:
        m //= g
        g = gcd(m, g)
    return m > 1


def zsigmondy_scan(d_max: int, d_start: int = 3) -> list[int]:
    """All d in [d_start, d_max] where 2^d - 3 lacks a primitive prime divisor.

    Over any range starting at 3 the expected answer is {7} (2^7 - 3 = 5^3,
    and 5 already divides 2^3 - 3); the conjecture is that nothing else ever
    appears.
    """
    if d_max < d_start:
        raise ValueError("empty scan range")
    return [d for d in range(max(d_start, 3), d_max + 1)
            if not has_primitive_divisor(d)]


def _simplified_index(d: int) -> Fraction:
    # imported here: the primitive-divisor scan needs no fractions or decimal
    from fractions import Fraction

    # (k-1)!/t collapses by pure factorial cancellation to
    # 3! (2^d - 2^2)(2^d - 2^3) ... (2^d - 2^(d-1)) / (2^d - 3)
    n = 1 << d
    num = 6
    for j in range(2, d):
        num *= n - (1 << j)
    return Fraction(num, n - 3)


def index_binomial_bound(d: int) -> bool:
    """Exact comparison (k-1)!/t < C(k-1, r) for the AGL(d,2) case.

    The left side is evaluated through its cancelled closed form, which is an
    identity of the defining formulas.  For d <= IDENTITY_CROSS_CHECK_MAX_D
    (beyond which the literal factorials are astronomically large) the closed
    form is asserted equal to the direct quotient (k-1)!/t.
    """
    if d < 8:
        raise ValueError("need d >= 8")
    case = AglCase(d)
    lhs = _simplified_index(d)
    if d <= IDENTITY_CROSS_CHECK_MAX_D:
        from fractions import Fraction

        ambient = factorial(case.k - 1)
        direct = Fraction(ambient, _kernel_order(d, ambient))
        if direct != lhs:
            raise AssertionError(f"index identity failed at d={d}")
    return lhs < comb(case.k - 1, case.r)


def two_adic_obstruction(d: int) -> bool:
    """Whether v2((k-r)!/(2t)) > 0, i.e. (k-r)!/2 does not divide t.

    The valuation is computed along two independent routes and asserted
    equal: directly, as d(d-1)/2 minus the valuation of the literal product
    (2^d - 1)(2^d - 2)...(2^d - (r+2)); and in the closed form
    (r+2) - v2((r+2)!).  A third route from the defining fraction of t
    (Legendre valuations of the factorials involved) must agree as well.
    """
    if d < 8:
        raise ValueError("need d >= 8")
    case = AglCase(d)
    r = case.r

    product = 1
    n = 1 << d
    for i in range(1, r + 3):
        product *= n - i
    direct = d * (d - 1) // 2 - v2(product)

    closed = (r + 2) - v2_factorial(r + 2)

    v2_t = (n - 2) - d - d * (d - 1) // 2  # from t's defining fraction
    from_definition = v2_factorial(case.k - r) - 1 - v2_t

    if not direct == closed == from_definition:
        raise AssertionError(
            f"valuation routes disagree at d={d}: {direct}, {closed}, "
            f"{from_definition}")
    return closed > 0
