import math
from fractions import Fraction
from math import factorial, prod

import pytest

from starcayley.case_elim import (CaseFamily, eliminate_case, family_order,
                                  pgammal_solution_scan)


def test_family_orders():
    assert family_order(CaseFamily.M11, 11) == 7920
    assert family_order(CaseFamily.M23, 23) == 3 * 16 * 20 * 21 * 22 * 23
    assert family_order(CaseFamily.M24, 24) == 3 * 16 * 20 * 21 * 22 * 23 * 24
    assert family_order(CaseFamily.A7_2_4, 16) == factorial(8)
    assert family_order(CaseFamily.AGL_D_2, 16) == 16 * 15 * 14 * 12 * 8
    with pytest.raises(ValueError):
        family_order(CaseFamily.M11, 12)


def test_case_record_is_an_immutable_record():
    # P(11,2) = 110 is not a multiple of |M11|, so t is a Fraction and the
    # reasons that set index and r do not run
    rec = eliminate_case(CaseFamily.M11, 11, 2)
    assert (rec.t, rec.refuted_by, rec.index, rec.r) == (
        Fraction(1, 72), "t_not_integral", None, None)
    again = eliminate_case(CaseFamily.M11, 11, 2)
    assert rec == again and hash(rec) == hash(again)
    assert rec != eliminate_case(CaseFamily.M11, 11, 3)
    with pytest.raises(AttributeError):
        rec.refuted = False


def test_m11_on_11_points():
    rec = eliminate_case(CaseFamily.M11, 11, 8)
    assert rec.refuted and rec.refuted_by == "symmetric_index_too_small"
    assert rec.t == 7 * 6 * 5 * 4
    assert rec.index == 6  # |S_7 : T| = 6 < 7


def test_m11_divisibility_kills_other_k():
    for k in (6, 7):
        rec = eliminate_case(CaseFamily.M11, 11, k)
        assert rec.refuted and rec.refuted_by == "t_not_divides_factorial"


def test_m12_both_surviving_k():
    rec8 = eliminate_case(CaseFamily.M12, 12, 8)
    assert rec8.refuted and rec8.refuted_by == "alternating_order_divisibility"
    assert rec8.t == 7 * 6 * 5 and rec8.index == 24 and rec8.r == 3
    # the alternating subgroup would have order 5!/2 = 60, and 60 does not
    # divide 210
    assert rec8.t % (factorial(5) // 2) != 0

    rec9 = eliminate_case(CaseFamily.M12, 12, 9)
    assert rec9.refuted and rec9.refuted_by == "alternating_order_divisibility"
    assert rec9.t == 7 * 6 * 5 * 4 and rec9.index == 48 and rec9.r == 3
    assert rec9.t % (factorial(6) // 2) != 0


def test_m23():
    rec = eliminate_case(CaseFamily.M23, 23, 20)
    assert rec.refuted and rec.refuted_by == "alternating_order_divisibility"
    assert rec.t == prod(range(4, 20)) // (3 * 16)
    assert rec.index == 3 * 16 * 6 and rec.r == 3


def test_m24_both_surviving_k():
    rec20 = eliminate_case(CaseFamily.M24, 24, 20)
    assert rec20.refuted and rec20.refuted_by == "alternating_order_divisibility"
    assert rec20.t == prod(range(5, 20)) // (3 * 16)
    assert rec20.index == 3 * 16 * 24 and rec20.r == 4

    rec21 = eliminate_case(CaseFamily.M24, 24, 21)
    assert rec21.refuted and rec21.refuted_by == "alternating_order_divisibility"
    assert rec21.t == prod(range(4, 20)) // (3 * 16)
    assert rec21.index == 3 * 16 * 120 and rec21.r == 5


def test_a7_extension_on_16_points():
    rec = eliminate_case(CaseFamily.A7_2_4, 16, 13)
    assert rec.refuted and rec.refuted_by == "t_not_divides_factorial"
    assert rec.t == math.perm(16, 13) // factorial(8)
    assert factorial(12) % rec.t != 0


def test_m11_on_12_points():
    rec = eliminate_case(CaseFamily.M11_ON_12, 12, 9)
    assert rec.refuted and rec.refuted_by == "symmetric_index_too_small"
    assert rec.t == 12 * 7 * 6 * 5 * 4
    assert rec.index == 4  # |S_8 : T| = 4 < 8


def test_m22_and_its_extension():
    for family in (CaseFamily.M22, CaseFamily.M22_2):
        rec = eliminate_case(family, 22, 19)
        assert rec.refuted and rec.refuted_by == "t_not_divides_factorial"
        assert rec.t % 19 == 0  # 19 | t forces t to miss 18!


def test_affine_line_contradictions():
    rec8 = eliminate_case(CaseFamily.AGL1_8, 8, 5)
    assert rec8.refuted and rec8.refuted_by == "t_not_divides_factorial"
    assert rec8.t == 120 and rec8.t > factorial(4)

    recg8 = eliminate_case(CaseFamily.AGAMMAL1_8, 8, 5)
    assert recg8.refuted and recg8.refuted_by == "t_not_divides_factorial"
    assert recg8.t == 40 and recg8.t > factorial(4)

    rec32 = eliminate_case(CaseFamily.AGAMMAL1_32, 32, 29)
    assert rec32.refuted and rec32.refuted_by == "t_not_divides_factorial"
    assert rec32.t == math.perm(32, 29) // (32 * 31 * 5)
    assert rec32.t > factorial(28)


def test_agl_d2_small_and_large():
    rec3 = eliminate_case(CaseFamily.AGL_D_2, 8, 5)
    assert rec3.refuted and rec3.refuted_by == "t_not_divides_factorial"
    rec8 = eliminate_case(CaseFamily.AGL_D_2, 256, 253)
    assert rec8.refuted
    assert rec8.refuted_by == "binomial_index_bound_and_two_adic_valuation"
    assert rec8.r == 26


def test_eliminate_case_validation():
    with pytest.raises(ValueError):
        eliminate_case(CaseFamily.M11, 11, 9)  # k > n-3
    with pytest.raises(ValueError):
        eliminate_case(CaseFamily.PGAMMAL2Q_SUB, 9, 6)


def test_pgammal_solution_scan():
    assert pgammal_solution_scan(5) == [8, 32]
    assert pgammal_solution_scan(10) == [8, 32]  # terminates at r = 6 anyway
    assert pgammal_solution_scan(1) == []


def test_scan_rejects_q4_by_domain():
    # q = 4 satisfies the bare divisibility 2 | 12 but sits outside the
    # k = q-2 >= 4 domain of the chain, so it must not appear
    assert 4 not in pgammal_solution_scan(5)


def test_region_verdicts_reproduced_from_arithmetic():
    # over the whole large-k region (n/2 < k <= n-3, n <= 34), the surviving
    # projective solutions are the only Cayley pairs; everything else the
    # case analysis touches is refuted
    from starcayley.verdicts import classify
    accepted = {(q + 1, q - 2) for q in pgammal_solution_scan(5)}
    assert accepted == {(9, 6), (33, 30)}
    for n in range(6, 35):
        for k in range(n // 2 + 1, n - 2):
            assert classify(n, k).is_cayley == ((n, k) in accepted), (n, k)


def test_eliminations_consistent_with_classification():
    # every refuted (n,k) really is a non-Cayley or differently-witnessed
    # pair: the elimination never contradicts the classification rule
    from starcayley.verdicts import classify
    cases = [
        (CaseFamily.M11, 11, 8), (CaseFamily.M12, 12, 8),
        (CaseFamily.M12, 12, 9), (CaseFamily.M23, 23, 20),
        (CaseFamily.M24, 24, 20), (CaseFamily.M24, 24, 21),
        (CaseFamily.A7_2_4, 16, 13), (CaseFamily.M11_ON_12, 12, 9),
        (CaseFamily.M22, 22, 19), (CaseFamily.AGL1_8, 8, 5),
        (CaseFamily.AGAMMAL1_8, 8, 5), (CaseFamily.AGAMMAL1_32, 32, 29),
    ]
    for family, n, k in cases:
        rec = eliminate_case(family, n, k)
        assert rec.refuted
        assert not classify(n, k).is_cayley, (family, n, k)
