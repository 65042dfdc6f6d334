import math
from fractions import Fraction
from math import factorial, gcd

import pytest

from starcayley.numbers import (AglCase, _mersenne_residue, agl_d2_order,
                                divides_mersenne_product,
                                has_primitive_divisor, index_binomial_bound,
                                kernel_order_divides_factorial,
                                required_kernel_order, two_adic_obstruction,
                                v2, v2_factorial, zsigmondy_scan)


def test_v2_basics():
    assert v2(12) == 2
    assert v2(1) == 0
    assert v2(2 ** 20) == 20
    with pytest.raises(ValueError):
        v2(0)


def test_v2_of_28_factorial():
    # Legendre sum 14 + 7 + 3 + 1
    assert v2_factorial(28) == 25
    assert v2(factorial(28)) == 25


def test_legendre_matches_literal_factorials():
    for m in range(201):
        expected = v2(factorial(m)) if m >= 2 else 0
        assert v2_factorial(m) == expected


def test_v2_reflection_identity():
    # v2(2^d - i) = v2(i) for 1 <= i <= 2^d - 1
    for d in range(1, 13):
        n = 1 << d
        for i in range(1, n):
            assert v2(n - i) == v2(i)


def test_agl_case_parameters():
    case = AglCase(8)
    assert case.n == 256
    assert case.k == 253
    assert case.r == 26
    with pytest.raises(ValueError):
        AglCase(2)


def test_agl_case_is_an_immutable_record():
    case = AglCase(8)
    assert case == AglCase(d=8) and hash(case) == hash(AglCase(8))
    assert case != AglCase(9) and repr(case) == "AglCase(d=8)"
    with pytest.raises(ValueError, match="^need d >= 3$"):
        AglCase(2)
    with pytest.raises(AttributeError):
        case.d = 9


def test_agl_d2_order_is_defined_once():
    # in numbers, so that the arithmetic commands need not load verdicts
    from starcayley import case_elim, numbers, verdicts
    assert numbers.agl_d2_order.__module__ == "starcayley.numbers"
    assert case_elim.agl_d2_order is numbers.agl_d2_order
    assert not hasattr(verdicts, "agl_d2_order")


def test_required_kernel_order_d3():
    # P(8,5) = 6720, |AGL(3,2)| = 1344, quotient 5
    assert math.perm(8, 5) == 6720
    assert agl_d2_order(3) == 1344
    assert required_kernel_order(3) == 5


def test_kernel_divisibility_fails_below_8():
    for d in range(3, 8):
        assert not kernel_order_divides_factorial(d)
    # the d = 3 instance concretely: 5 does not divide 4! = 24
    assert factorial(4) % required_kernel_order(3) != 0


def test_mersenne_product_divisibility_false():
    for d in range(8, 65):
        assert not divides_mersenne_product(d)


def test_primitive_divisor_small_cases():
    assert has_primitive_divisor(4)       # 13 is prime, new
    assert not has_primitive_divisor(7)   # 125 = 5^3, and 5 | 2^3 - 3
    assert has_primitive_divisor(8)
    for d in (3, 4, 5, 6):                # 5, 13, 29, 61 all prime, all new
        assert has_primitive_divisor(d)


def strip(m, g):
    # divide m by g until it is coprime to every prime of g
    while g > 1:
        m //= g
        g = gcd(m, g)
    return m


def d_bit_stripping(d):
    # the oracle: strip m = 2^d - 3 by gcd(m, 2^i - 3) for every 2 <= i < d
    m = (1 << d) - 3
    for i in range(2, d):
        m = strip(m, gcd(m, (1 << i) - 3))
    return m > 1


@pytest.mark.parametrize("ds", [range(3, 1001), (1500, 2000, 2500, 4000)],
                         ids=["3..1000", "spot"])
def test_folded_residue_agrees_with_d_bit_stripping(ds):
    for d in ds:
        assert has_primitive_divisor(d) == d_bit_stripping(d), d


def test_half_range_strips_like_the_full_range():
    # every ord_p(2) <= d - 3 has a multiple in [floor((d-2)/2), d - 3]
    for d in range(3, 401):
        m = (1 << d) - 3
        half = strip(m, gcd(m, _mersenne_residue(d, max(1, (d - 2) // 2))))
        full = strip(m, gcd(m, _mersenne_residue(d, 1)))
        assert half == full, d


def test_mersenne_residue_is_the_literal_product():
    for d in range(3, 120):
        m = (1 << d) - 3
        for lo in range(1, d - 2):
            product = math.prod((1 << j) - 1 for j in range(lo, d - 2))
            assert _mersenne_residue(d, lo) == product % m, (d, lo)


def test_zsigmondy_scan():
    assert zsigmondy_scan(6) == []
    assert zsigmondy_scan(100) == [7]
    assert zsigmondy_scan(1000) == [7]


def test_gcd_method_agrees_with_factorization_oracle():
    # independent oracle: sieve-assisted trial division factorization, then
    # direct primitivity test 2^i mod p != 3 for all smaller i
    limit = 1 << 20  # covers sqrt(2^40 - 3)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    primes = [p for p in range(2, limit + 1) if sieve[p]]

    def factorize(m):
        out = []
        for p in primes:
            if p * p > m:
                break
            while m % p == 0:
                out.append(p)
                m //= p
        if m > 1:
            out.append(m)
        return out

    for d in range(3, 41):
        m = (1 << d) - 3
        has_new_prime = False
        for p in set(factorize(m)):
            if all(pow(2, i, p) != 3 % p for i in range(1, d)):
                has_new_prime = True
                break
        assert has_primitive_divisor(d) == has_new_prime, d


def test_primitive_divisor_implies_product_indivisible():
    # material implication checked on instances: a primitive prime divisor
    # of 2^d - 3 blocks the divisibility into the product of 2^j - 1
    for d in range(8, 65):
        if has_primitive_divisor(d):
            assert not divides_mersenne_product(d)


def test_index_binomial_bound_with_identity_cross_check():
    assert index_binomial_bound(8)
    assert index_binomial_bound(12)


@pytest.mark.parametrize("d", range(8, 17))
def test_index_identity_exact(d):
    # the cancelled form of (k-1)!/t equals the literal factorial quotient
    case = AglCase(d)
    direct = Fraction(factorial(case.k - 1), case.t())
    simplified = Fraction(6 * math.prod((1 << d) - (1 << j) for j in range(2, d)),
                          (1 << d) - 3)
    assert direct == simplified


def test_index_bound_range():
    for d in range(8, 41):
        assert index_binomial_bound(d)
    with pytest.raises(ValueError):
        index_binomial_bound(7)


def test_two_adic_obstruction_d8():
    # r = 26; the valuation equals 28 - v2(28!) = 3 along every route
    assert AglCase(8).r == 26
    assert (26 + 2) - v2_factorial(28) == 3
    assert two_adic_obstruction(8)


def test_two_adic_obstruction_range():
    for d in range(8, 41):
        assert two_adic_obstruction(d)


def test_supporting_inequalities():
    for d in range(8, 65):
        assert d * d <= 1 << (d - 2)
        case = AglCase(d)
        assert case.r + 1 < Fraction(case.k, 8)
