import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from starcayley.chain import StabChain, orbit
from starcayley.pairs import AutPair
from starcayley.perm import (CapExceeded, Flag, Lambda, Perm, PermGroup,
                             canonical_flag, closure, flag_count,
                             flag_stabilizer, is_k_homogeneous,
                             is_k_transitive, is_sharply_k_transitive,
                             is_sharply_lambda_transitive)
from starcayley.witness_groups import mathieu11, mathieu12, psl2


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([1, 1, 2])
    with pytest.raises(ValueError):
        Perm([2, 3, 4])
    assert Perm([2, 1, 3]).degree == 3


def test_identity_and_inverse():
    p = Perm.from_cycles(5, (1, 3, 4), (2, 5))
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert Perm.identity(5) * p == p
    assert p * Perm.identity(5) == p


def test_involution_composes_to_identity():
    t = Perm.from_cycles(2, (1, 2))
    assert (t * t).is_identity()


def test_compose_convention_fixed():
    # (p * q)(x) = p(q(x)): q first.  Hand evaluation of both orders pins
    # the convention: the 3-cycle after the transposition gives [3,2,1].
    p = Perm.from_cycles(3, (1, 2, 3))
    q = Perm.from_cycles(3, (1, 2))
    assert (p * q).to_list() == [3, 2, 1]
    assert (q * p).to_list() == [1, 3, 2]


def test_compose_degree_mismatch():
    # every product checks degrees: a 4-cycle times the identity of degree 3
    # would otherwise read only three of its images
    four, three = Perm.from_cycles(4, (1, 2, 3, 4)), Perm.identity(3)
    for p, q in ((four, three), (three, four)):
        with pytest.raises(ValueError, match="degree mismatch"):
            p * q
        with pytest.raises(ValueError, match="degree mismatch"):
            AutPair(p, Perm.identity(p.degree)) * AutPair(q, Perm.identity(q.degree))


def test_cycles_roundtrip():
    p = Perm.from_cycles(6, (1, 4), (2, 3, 5))
    assert Perm.from_cycles(6, *p.cycles()) == p
    assert p.order() == 6


def test_closure_s3():
    g = closure([Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 2, 3))])
    assert g.order == 6
    assert Perm.identity(3) in g


def test_closure_contains_inverses_and_products():
    g = closure([Perm.from_cycles(4, (1, 2, 3, 4)), Perm.from_cycles(4, (1, 2))])
    assert g.order == 24
    for a in g:
        assert a.inverse() in g
    # spot-check products on a small slice
    for a in list(g)[:6]:
        for b in list(g)[:6]:
            assert a * b in g


def test_group_elements_are_image_tuples_and_perms_at_the_boundary():
    a4 = closure([Perm.from_cycles(4, (1, 2, 3)), Perm.from_cycles(4, (2, 3, 4))])
    assert a4.order == 12
    assert list(a4.elements) == sorted(a4.elements)
    members = list(a4)
    assert all(isinstance(p, Perm) for p in members)
    assert [p.images for p in members] == list(a4.elements)
    assert all(p in a4 for p in members)
    assert Perm.from_cycles(4, (1, 2)) not in a4
    assert Perm.from_cycles(4, (1, 2, 3, 4)) not in a4


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure([Perm.from_cycles(5, (1, 2)), Perm.from_cycles(5, (1, 2, 3, 4, 5))],
                cap=10)


def test_lagrange_on_small_groups():
    for gens, degree in [
        ([(1, 2)], 2),
        ([(1, 2), (1, 2, 3)], 3),
        ([(1, 2, 3, 4)], 4),
    ]:
        g = closure([Perm.from_cycles(degree, c) for c in gens])
        assert math.factorial(degree) % g.order == 0


def test_symmetric_on_subset():
    g = PermGroup.symmetric_on([2, 3, 4], 9)
    assert g.order == 6
    assert all(p(x) == x for p in g for x in (1, 5, 6, 7, 8, 9))


def test_orbits():
    gens = [Perm.from_cycles(4, (1, 2, 3, 4))]
    images = [g.images for g in gens]
    assert len(orbit([(1,)], images)) == 4
    assert len(orbit([frozenset({1, 2})], images,
                     act=lambda g: lambda s: frozenset(g[x - 1] for x in s))) == 4


def test_k_transitivity_symmetric_group():
    s3 = PermGroup.symmetric(3)
    assert is_k_transitive(s3, 3)
    assert is_sharply_k_transitive(s3, 3)


def test_k_transitivity_witnesses():
    # PSL(2,8) is 4-homogeneous but not 4-transitive on its 9 points;
    # M11 is sharply 4-transitive on 11.
    g = psl2(8)
    assert is_k_homogeneous(g, 4)
    assert not is_k_transitive(g, 4)
    m11 = mathieu11()
    assert is_k_transitive(m11, 4)
    assert is_sharply_k_transitive(m11, 4)
    assert StabChain(11, [g.images for g in m11.generators], base=(1, 2, 3, 4)).order(4) == 1


def test_sharp_transitivity_order_mismatch():
    s4 = PermGroup.symmetric(4)
    assert is_k_transitive(s4, 2)
    assert not is_sharply_k_transitive(s4, 2)  # order 24 != P(4,2) = 12


def test_any_transitive_group_is_1_homogeneous():
    g = closure([Perm.from_cycles(5, (1, 2, 3, 4, 5))])
    assert is_k_homogeneous(g, 1)


def test_lambda_validation():
    with pytest.raises(ValueError):
        Lambda((0, 2))
    with pytest.raises(ValueError):
        Flag((frozenset({1, 2}), frozenset({2, 3})))
    assert Lambda((5, 3, 1)).total == 9


def test_lambda_is_an_immutable_record():
    lam = Lambda([5, 3, 1])
    assert lam.parts == (5, 3, 1) and repr(lam) == "Lambda(parts=(5, 3, 1))"
    assert lam == Lambda((5, 3, 1)) and hash(lam) == hash(Lambda((5, 3, 1)))
    assert lam != Lambda((5, 3)) and len({lam, Lambda((5, 3, 1)), Lambda((1,))}) == 2
    for parts in ((), (0, 2), (2, -1)):
        with pytest.raises(ValueError, match=r"all parts must be >= 1: \("):
            Lambda(parts)
    with pytest.raises(AttributeError):
        lam.parts = (1,)


def test_flag_is_an_immutable_record():
    flag = Flag([{1, 2}, [3]])
    assert flag.blocks == (frozenset({1, 2}), frozenset({3}))
    assert flag.shape == Lambda((2, 1))
    same = Flag((frozenset({2, 1}), frozenset({3})))
    assert flag == same and hash(flag) == hash(same)
    assert flag != Flag([{3}, {1, 2}]) and len({flag, same, Flag([{3}, {1, 2}])}) == 2
    with pytest.raises(ValueError, match="^flag blocks must be pairwise disjoint$"):
        Flag(({1, 2}, {2, 3}))
    with pytest.raises(AttributeError):
        flag.blocks = ()


def test_flag_count():
    assert flag_count((5, 3, 1), 9) == math.factorial(9) // (
        math.factorial(5) * math.factorial(3))
    assert flag_count((2, 2), 4) == 6
    # ignored remainder: pick an ordered pair of singletons out of 4 points
    assert flag_count((1, 1), 4) == 12


def test_flag_stabilizer_trivial_when_blocks_are_singletons():
    s3 = PermGroup.symmetric(3)
    flag = Flag((frozenset({1}), frozenset({2}), frozenset({3})))
    assert flag_stabilizer(s3, flag).order == 1


def test_flag_stabilizer_s4_two_blocks():
    # Brute force over all 24 elements: exactly id, (1 2), (3 4), (1 2)(3 4)
    # map {1,2} onto itself and {3,4} onto itself.  (Allowing the blocks to
    # swap would give the order-8 partition stabilizer instead; an ordered
    # flag keeps each block in place.)
    s4 = PermGroup.symmetric(4)
    flag = Flag((frozenset({1, 2}), frozenset({3, 4})))
    stab = flag_stabilizer(s4, flag)
    assert stab.order == 4
    expected = {
        Perm.identity(4),
        Perm.from_cycles(4, (1, 2)),
        Perm.from_cycles(4, (3, 4)),
        Perm.from_cycles(4, (1, 2), (3, 4)),
    }
    assert set(stab) == expected


def test_psl28_flag_stabilizer_trivial():
    flag = canonical_flag((5, 3, 1), 9)
    assert flag_stabilizer(psl2(8), flag).order == 1


def test_sharply_lambda_transitive_psl28():
    g = psl2(8)
    assert is_sharply_lambda_transitive(g, (5, 3, 1))
    assert is_sharply_lambda_transitive(g, Lambda((5, 3, 1)))
    # invariant under reordering the parts
    assert is_sharply_lambda_transitive(g, (3, 5, 1))
    assert is_sharply_lambda_transitive(g, (1, 3, 5))


def test_sharply_lambda_transitive_fallback_path():
    # order 24 != 6 tuples: the action cannot be regular, so the answer is
    # False without looking at any orbit
    s4 = PermGroup.symmetric(4)
    assert not is_sharply_lambda_transitive(s4, (2, 2))


def test_sharp_implies_transitive_and_order():
    for g, k in [(mathieu11(), 4), (mathieu12(), 5)]:
        assert is_sharply_k_transitive(g, k)
        assert is_k_transitive(g, k)
        assert g.order == math.perm(g.degree, k)


def test_group_serialization_roundtrip():
    g = closure([Perm.from_cycles(4, (1, 2, 3)), Perm.from_cycles(4, (2, 3, 4))],
                name="A4")
    data = g.to_dict()
    assert data["degree"] == 4 and data["name"] == "A4"
    assert PermGroup.from_dict(data).order == g.order


def test_from_elements_rejects_a_set_that_is_not_closed():
    with pytest.raises(ValueError):
        PermGroup.from_elements([(2, 1, 3), (1, 3, 2)], 3)
    a4 = closure([Perm.from_cycles(4, (1, 2, 3)), Perm.from_cycles(4, (2, 3, 4))])
    with pytest.raises(ValueError):
        PermGroup.from_elements(a4.elements[:-1], 4)
    with pytest.raises(ValueError):
        PermGroup.from_elements(a4.elements + ((2, 1, 3, 4),), 4)
    assert PermGroup.from_elements(a4.elements, 4).elements == a4.elements


def test_chain_base_prefix_and_stabilizer_orders():
    m11 = mathieu11()
    chain = StabChain(11, [g.images for g in m11.generators], base=(11, 5))
    assert chain.base[:3] == (11, 5, 1)
    assert chain.order() == 7920
    assert chain.order(1) == 720 and chain.order(2) == 72
    assert sorted(chain.elements(2)) == sorted(
        g for g in m11.elements if g[10] == 11 and g[4] == 5)
    with pytest.raises(ValueError):
        StabChain(4, base=(1, 1))
    with pytest.raises(ValueError):
        StabChain(4, base=(5,))


def test_chain_stops_at_the_cap_before_it_is_complete():
    # an m-cycle and a transposition generate S_m, of order m!; the first
    # orbits alone pass the cap, long before the chain is complete
    m = 200
    cycle = tuple(range(2, m + 1)) + (1,)
    swap = (2, 1) + tuple(range(3, m + 1))
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        StabChain(m, [cycle, swap], cap=10**6)
    with pytest.raises(CapExceeded):
        closure([Perm(cycle), Perm(swap)], cap=10**6)
    assert time.perf_counter() - start < 1.0
    # a cap the order meets exactly is not passed
    assert StabChain(5, [(2, 3, 4, 1, 5), (2, 1, 3, 4, 5)], cap=24).order() == 24


def test_chain_inverses_share_the_ints_of_the_padded_identity():
    # past 256 each entry of an inverse would otherwise be an int of its own
    m = 400
    chain = StabChain(m, [tuple(range(2, m + 1)) + (1,)])
    transversal = chain._transversals[0]
    points = transversal[chain.base[0]][1]
    assert points == tuple(range(m + 1)) and len(transversal) == m
    for u, inverse in transversal.values():
        assert all(inverse[x] == i for i, x in enumerate(u, 1))
        assert all(x is points[x] for x in inverse)


@st.composite
def generated_groups(draw):
    """A degree n <= 7, one to three generators, a probe permutation and a flag."""
    n = draw(st.integers(1, 7))
    points = list(range(1, n + 1))
    gens = [Perm(draw(st.permutations(points)))
            for _ in range(draw(st.integers(1, 3)))]
    probe = Perm(draw(st.permutations(points)))
    shuffled = draw(st.permutations(points))
    cuts = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=4)))
    blocks = [shuffled[a:b] for a, b in zip([0] + cuts, cuts)]
    return n, gens, probe, Flag(tuple(frozenset(b) for b in blocks))


@settings(max_examples=150, deadline=None)
@given(generated_groups())
def test_chain_matches_breadth_first_closure(case):
    n, gens, probe, flag = case
    identity = tuple(range(1, n + 1))
    oracle = orbit([identity], [g.images for g in gens])
    group = closure(gens)
    assert group.order == len(oracle)
    assert group.elements == tuple(sorted(oracle))
    assert (probe in group) == (probe.images in oracle)
    for k in range(1, n + 1):
        assert is_k_transitive(group, k) == (
            len(orbit([tuple(range(1, k + 1))], [g.images for g in gens])) == math.perm(n, k))
        points = probe.images[:k]
        fixers = [g for g in oracle if all(g[p - 1] == p for p in points)]
        chain = StabChain(n, [g.images for g in gens], base=points)
        assert (chain.order(k) == 1) == (len(fixers) == 1)
    stabilizer = [g for g in oracle
                  if all(g[x - 1] in block for block in flag.blocks for x in block)]
    assert flag_stabilizer(group, flag).order == len(stabilizer)
    assert PermGroup.from_elements(oracle, n).order == len(oracle)


@settings(max_examples=150, deadline=None)
@given(generated_groups(), st.data())
def test_filtered_walk_lists_exactly_the_elements_within(case, data):
    # within may name any points, those of one-point levels included, and
    # map them to any sets, empty ones included
    n, gens, _, _ = case
    points = st.integers(1, n)
    within = {x: frozenset(data.draw(st.sets(points)))
              for x in data.draw(st.sets(points))}
    oracle = orbit([tuple(range(1, n + 1))], [g.images for g in gens])
    assert closure(gens).chain.elements(within=within) == sorted(
        g for g in oracle if all(g[x - 1] in allowed for x, allowed in within.items()))


@settings(max_examples=100, deadline=None)
@given(generated_groups())
def test_base_image_sift_matches_the_listed_prefixes(case):
    n, gens, probe, _ = case
    elements = orbit([tuple(range(1, n + 1))], [g.images for g in gens])
    for base in ((), tuple(range(n, 0, -2))):
        chain = StabChain(n, [g.images for g in gens], base)
        for m in range(n + 1):
            points = chain.base[:m]
            prefixes = {tuple(e[b - 1] for b in points) for e in elements}
            assert all(chain.has_base_image(p) for p in prefixes)
            wanted = tuple(probe(b) for b in points)
            assert chain.has_base_image(wanted) == (wanted in prefixes)
