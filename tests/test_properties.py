"""Cross-module property suites: the automorphism action is an injective
homomorphism, transitivity is witnessed explicitly, projected witnesses are
homogeneous, and the two primitive-divisor routes agree.
"""

import math
from itertools import permutations

from starcayley.pairs import AutPair, PairGroup, aut_product, project_and_kernel
from starcayley.perm import (Perm, is_k_homogeneous, is_k_transitive,
                             is_sharply_lambda_transitive)
from starcayley.search import search_regular_subgroup
from starcayley.stargraph import build
from starcayley.witness_groups import (agammal1, agl, agl1, mathieu11,
                                       pgammal2, psl2)


def test_action_is_injective_on_53():
    # all 240 automorphism pairs of the (5,3) graph induce 240 distinct
    # vertex maps
    graph = build(5, 3)
    tables = set()
    for f in aut_product(5, 3).iter_pairs():
        tables.add(tuple(f.apply(v) for v in graph.vertices))
    assert len(tables) == 240


def test_action_is_a_homomorphism():
    # apply(f*g, v) == apply(f, apply(g, v)), exhaustively over a
    # deterministic slice of pairs and all vertices
    graph = build(5, 3)
    pairs = list(aut_product(5, 3).iter_pairs())
    sample = pairs[::40]  # 6 representatives, fixed stride
    for f in sample:
        for g in sample:
            fg = f * g
            for v in graph.vertices:
                assert fg.apply(v) == f.apply(g.apply(v))


def test_vertex_transitivity_of_53():
    base = (1, 2, 3)
    for v in build(5, 3).vertices:
        rest = [x for x in range(1, 6) if x not in v]
        f = AutPair(Perm(list(v) + rest), Perm.identity(5))
        assert f.apply(base) == v


def test_projected_search_witnesses_are_homogeneous():
    for n, k in [(4, 2), (5, 2)]:
        cert = search_regular_subgroup(n, k)
        assert cert.verdict == "Cayley"
        gens = [AutPair.from_dict(g) for g in cert.witness["generators"]]
        group = PairGroup.generate(n, k, gens)
        h, t = project_and_kernel(group)
        assert h.order * t.order == group.order
        assert is_k_homogeneous(h, k)


def test_projected_product_witness_is_homogeneous():
    from starcayley.pairs import symmetric_nu_group
    g = PairGroup.direct_product(psl2(8), 4, symmetric_nu_group(9, 4))
    h, _ = project_and_kernel(g)
    assert is_k_homogeneous(h, 4)


def test_lambda_invariance_under_part_reordering():
    psl = psl2(8)
    for lam in set(permutations((5, 3, 1))):
        assert is_sharply_lambda_transitive(psl, lam)
    big = pgammal2(32)
    for lam in set(permutations((29, 3, 1))):
        assert is_sharply_lambda_transitive(big, lam)


def test_homogeneous_implies_one_less_transitive():
    # every implemented k-homogeneous group with 2 <= k <= n/2 is both
    # (k-1)-homogeneous and (k-1)-transitive
    witnesses = [
        (psl2(8), 4),       # 9 points
        (pgammal2(32), 4),  # 33 points
        (agl1(8), 3),       # 8 points
        (agammal1(8), 3),
        (agammal1(32), 3),  # 32 points
        (mathieu11(), 4),   # 11 points
        (agl(3), 3),        # 8 points
    ]
    for group, k in witnesses:
        assert 2 <= k <= group.degree / 2
        assert is_k_homogeneous(group, k)
        assert is_k_homogeneous(group, k - 1)
        assert is_k_transitive(group, k - 1)


def test_psl_sandwich_case_is_homogeneous_not_transitive():
    # for q = 7 = 3 mod 4 the determinant-1 projective action on 8 points
    # is 3-homogeneous but not 3-transitive
    g = psl2(7)
    assert is_k_homogeneous(g, 3)
    assert not is_k_transitive(g, 3)


def test_gcd_and_factorization_routes_agree():
    # duplicated from the numbers suite boundary on purpose: the two routes
    # must agree on the first values beyond the known exception
    from starcayley.numbers import has_primitive_divisor
    expected = {3: True, 4: True, 5: True, 6: True, 7: False, 8: True,
                9: True, 10: True}
    for d, want in expected.items():
        assert has_primitive_divisor(d) == want


def test_compose_associativity_exhaustive_s4():
    s4 = [Perm(p) for p in permutations((1, 2, 3, 4))]
    for a in s4[::3]:
        for b in s4[::4]:
            for c in s4[::5]:
                assert (a * b) * c == a * (b * c)


def test_rank_unrank_roundtrip_many_shapes():
    from starcayley.stargraph import rank, unrank
    for n in range(2, 8):
        for k in range(1, n):
            total = math.perm(n, k)
            for i in range(0, total, max(1, total // 50)):
                assert rank(unrank(i, n, k), n) == i
