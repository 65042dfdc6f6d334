import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starcayley
import starcayley.witness_groups as witness_groups_mod
from starcayley.case_elim import _FINITE_FAMILY_DATA, CaseFamily
from starcayley.chain import StabChain
from starcayley.perm import (canonical_flag, flag_stabilizer, is_k_homogeneous,
                             is_k_transitive, is_sharply_k_transitive,
                             is_sharply_lambda_transitive)
from starcayley.perm import Flag
from starcayley.numbers import agl_d2_order
from starcayley.witness_groups import (_agl_d2_generators, agammal1, agl, agl1,
                                       mathieu11, mathieu12, pgammal2, pgl2,
                                       pgl_order, psl2)


def test_psl2_8_order():
    assert psl2(8).order == 504  # 9 * 8 * 7


def test_pgammal2_32_order():
    assert pgammal2(32).order == 163680  # 5 * 33 * 32 * 31


def test_pgl_orders_closed_form():
    for q in (4, 5, 7, 8, 9):
        assert pgl2(q).order == (q + 1) * q * (q - 1) == pgl_order(q)


def test_pgl_sharply_3_transitive():
    for q in (4, 5, 7, 8):
        assert is_sharply_k_transitive(pgl2(q), 3)


def test_psl_odd_q_has_index_2():
    assert psl2(5).order == pgl2(5).order // 2
    assert psl2(7).order == pgl2(7).order // 2


def test_psl_even_q_equals_pgl():
    assert set(psl2(8).elements) == set(pgl2(8).elements)


def test_agl1_orders():
    assert agl1(8).order == 56
    assert agammal1(8).order == 168
    assert agammal1(32).order == 32 * 31 * 5
    assert agl1(5).order == 20
    assert agl1(9).order == 72


def test_agl1_sharply_2_transitive():
    for q in (4, 5, 7, 8, 9):
        assert is_sharply_k_transitive(agl1(q), 2)


def test_agl_d2_orders():
    assert agl(1).order == 2
    assert agl(2).order == 24
    assert agl(3).order == 1344  # 8 * 7 * 6 * 4
    assert agl(3).order == agl_d2_order(3)


def test_agl_d2_3_transitive():
    assert is_k_transitive(agl(3), 3)
    assert is_k_transitive(agl(4), 3)
    assert not is_k_transitive(agl(3), 4)


def test_mathieu_orders_and_sharpness():
    m11 = mathieu11()
    assert m11.order == 7920 == math.perm(11, 4)
    assert is_sharply_k_transitive(m11, 4)
    m12 = mathieu12()
    assert m12.order == 95040 == math.perm(12, 5)
    assert is_sharply_k_transitive(m12, 5)


def test_homogeneous_not_transitive_family():
    # AGL(1,8), AGammaL(1,8) and AGammaL(1,32) are 3-homogeneous without
    # being 3-transitive; the projective-line groups over GF(8) and GF(32)
    # repeat the pattern at k=4
    assert is_k_homogeneous(agl1(8), 3)
    assert not is_k_transitive(agl1(8), 3)
    assert is_k_homogeneous(agammal1(8), 3)
    assert not is_k_transitive(agammal1(8), 3)
    assert is_k_homogeneous(agammal1(32), 3)
    assert not is_k_transitive(agammal1(32), 3)
    assert is_k_homogeneous(pgammal2(8), 4)
    assert not is_k_transitive(pgammal2(8), 4)
    assert is_k_homogeneous(pgammal2(32), 4)
    assert not is_k_transitive(pgammal2(32), 4)


def test_lambda_sharpness_of_witnesses():
    assert is_sharply_lambda_transitive(psl2(8), (5, 3, 1))
    assert is_sharply_lambda_transitive(pgammal2(32), (29, 3, 1))


def test_explicit_flag_stabilizers_trivial():
    # the hand computation behind the flag-freeness claims: fix infinity,
    # permute {0, 1, z} (the first three finite points), permute the rest
    psl = psl2(8)
    flag8 = Flag((frozenset(range(4, 9)), frozenset({1, 2, 3}), frozenset({9})))
    assert flag_stabilizer(psl, flag8).order == 1

    pgl32 = pgammal2(32)
    flag32 = Flag((frozenset(range(4, 33)), frozenset({1, 2, 3}),
                   frozenset({33})))
    assert flag_stabilizer(pgl32, flag32).order == 1


def test_canonical_flag_stabilizers_trivial():
    assert flag_stabilizer(psl2(8), canonical_flag((5, 3, 1), 9)).order == 1
    assert flag_stabilizer(pgammal2(32),
                           canonical_flag((29, 3, 1), 33)).order == 1


def test_group_orders_divide_degree_factorial():
    for g in (psl2(8), agl1(8), agammal1(8), mathieu11(), mathieu12(), agl(3)):
        assert math.factorial(g.degree) % g.order == 0


_WRONG_ORDER_CASES = """
import sys
import starcayley.numbers as numbers
import starcayley.witness_groups as w

print("optimize", sys.flags.optimize)
# agl reads agl_d2_order from numbers when it is called
for module, order_fn, build, arg in [(w, "pgl_order", w.pgl2, 5), (w, "psl_order", w.psl2, 5),
                                     (w, "pgammal_order", w.pgammal2, 4),
                                     (w, "agl1_order", w.agl1, 5),
                                     (w, "agammal1_order", w.agammal1, 4),
                                     (numbers, "agl_d2_order", w.agl, 3)]:
    right = getattr(module, order_fn)
    setattr(module, order_fn, lambda _: 0)
    try:
        build(arg)
        print(order_fn, "accepted")
    except AssertionError:
        print(order_fn, "raised")
    setattr(module, order_fn, right)
"""


def test_order_checks_survive_python_O():
    src = str(Path(starcayley.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-O", "-c", _WRONG_ORDER_CASES],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.split("\n")
    assert lines[0] == "optimize 1"
    assert lines[1:7] == [f"{name} raised" for name in (
        "pgl_order", "psl_order", "pgammal_order", "agl1_order",
        "agammal1_order", "agl_d2_order")]


def test_agl_d2_orders_beyond_the_element_cap():
    # |AGL(5,2)| = 319,979,520 is past the closure cap; the chain's order
    # needs no enumeration
    for d in (5, 6, 7):
        chain = StabChain(1 << d, [g.images for g in _agl_d2_generators(d)])
        assert chain.order() == agl_d2_order(d)
    assert agl_d2_order(5) == 319_979_520


def test_constructed_orders_match_the_family_table():
    for family, group in [(CaseFamily.M11, mathieu11()), (CaseFamily.M12, mathieu12()),
                          (CaseFamily.AGL1_8, agl1(8)),
                          (CaseFamily.AGAMMAL1_8, agammal1(8)),
                          (CaseFamily.AGAMMAL1_32, agammal1(32))]:
        assert (group.degree, group.order) == _FINITE_FAMILY_DATA[family], family


@pytest.mark.parametrize("second", [((3, 7, 11, 8), (4, 10, 5, 3)),
                                    ((3, 7, 11, 12), (4, 10, 5, 6))],
                         ids=["repeated-point", "point-out-of-range"])
def test_mathieu_cycle_points_are_checked(monkeypatch, second):
    # the embedded cycles are read into image tuples with a plain check,
    # which python -O keeps
    long_cycle, _ = witness_groups_mod._M11_GENERATORS
    monkeypatch.setattr(witness_groups_mod, "_M11_GENERATORS", (long_cycle, second))
    with pytest.raises(ValueError, match="bad cycle point"):
        witness_groups_mod.mathieu11_unclosed()
