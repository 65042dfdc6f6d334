import math

import pytest

from starcayley.pairs import (AutPair, PairGroup, aut_order, aut_product,
                              project_and_kernel, symmetric_nu_group)
from starcayley.chain import StabChain
from starcayley.perm import CapExceeded, Perm, PermGroup, closure, is_k_homogeneous
from starcayley.witness_groups import mathieu11, pgammal2, psl2


def test_autpair_validation_and_algebra():
    mu = Perm.from_cycles(5, (1, 2, 3))
    nu = Perm.from_cycles(5, (2, 3))
    f = AutPair(mu, nu)
    assert (f * f.inverse()).is_identity()
    g = AutPair(Perm.from_cycles(5, (4, 5)), Perm.identity(5))
    assert (f * g).mu == mu * Perm.from_cycles(5, (4, 5))


def test_apply_rejects_bad_nu():
    # for k = 3 vertices, nu may only move {2, 3}
    f = AutPair(Perm.identity(5), Perm.from_cycles(5, (3, 4)))
    with pytest.raises(ValueError):
        f.apply((1, 2, 3))


def test_aut_product_orders():
    assert aut_product(4, 2).order == 24          # 4! * 1!
    assert aut_product(5, 3).order == 240         # 5! * 2!
    # 9! * 3! is over the cap: the order is known, the group is not built
    assert aut_order(9, 4) == math.factorial(9) * 6 == 2177280
    with pytest.raises(CapExceeded):
        aut_product(9, 4)


def test_aut_product_enumeration_matches_order():
    g = aut_product(5, 3)
    assert sum(1 for _ in g.iter_pairs()) == g.order


def test_direct_product_with_trivial_factor():
    m11 = mathieu11()
    g = PairGroup.direct_product(m11, 4)
    assert g.order == m11.order
    h, t = project_and_kernel(g)
    assert h.order == m11.order
    assert t.order == 1
    assert set(h.elements) == set(m11.elements)


def test_project_and_kernel_psl28_product():
    g = PairGroup.direct_product(psl2(8), 4, symmetric_nu_group(9, 4))
    assert g.order == 504 * 6
    h, t = project_and_kernel(g)
    assert h.order == 504
    assert t.order == 6
    assert h.order * t.order == g.order
    assert is_k_homogeneous(h, 4)


def test_pair_closure():
    e = Perm.identity(4)
    g = PairGroup.generate(4, 2, [AutPair(Perm.from_cycles(4, (1, 2, 3, 4)), e)])
    assert g.order == 4


def test_generated_group_is_one_flat_chain():
    n, k = 5, 3
    e, swap = Perm.identity(n), Perm.from_cycles(n, (2, 3))
    # (1 2) paired with nu = (2 3), and nu = (2 3) alone: order 4
    g = PairGroup.generate(n, k, [AutPair(Perm.from_cycles(n, (1, 2)), swap),
                                  AutPair(e, swap)])
    assert g.order == 4
    assert g._chain.base[:2 * k - 1] == (1, 2, 3, 6, 7)
    pairs = set(g.iter_pairs())
    assert len(pairs) == 4 and AutPair(Perm.from_cycles(n, (1, 2)), e) in pairs
    # only the identity has mu(j) = nu(j) for j <= 3
    assert g.base_stabilizer_order() == 1
    h, t = project_and_kernel(g)
    assert h.order == 2 and set(t.elements) == {e.images, swap.images}
    with pytest.raises(CapExceeded):
        PairGroup.generate(n, k, g.generators, cap=3)


def test_generated_group_edge_cases():
    # no generator: the trivial group
    trivial = PairGroup.generate(5, 3, [])
    assert trivial.order == 1 == trivial.base_stabilizer_order()
    assert list(trivial.iter_pairs()) == [AutPair(Perm.identity(5), Perm.identity(5))]
    # k = 1: the tail is empty, and the fixers of [1] are the stabiliser of 1
    e = Perm.identity(5)
    s5 = PairGroup.generate(5, 1, [AutPair(Perm.from_cycles(5, (1, 2)), e),
                                   AutPair(Perm.from_cycles(5, (1, 2, 3, 4, 5)), e)])
    assert s5.order == 120 and s5.base_stabilizer_order() == 24
    h, t = project_and_kernel(s5)
    assert h.order == 120 and t.order == 1


def test_grouped_by_nu_generic():
    g = PairGroup.direct_product(psl2(8), 4, symmetric_nu_group(9, 4))
    mus_by_nu = {}
    for pair in g.iter_pairs():
        mus_by_nu.setdefault(pair.nu.images, []).append(pair.mu.images)
    assert len(mus_by_nu) == 6
    assert all(len(set(mus)) == 504 for mus in mus_by_nu.values())
    # in the chain's order: by the flat images of the base 1..4, 10..12,
    # then 5..9, each pair once
    base = (1, 2, 3, 4, 10, 11, 12, 5, 6, 7, 8, 9)
    keys = [tuple(pair.flat(4)[b - 1] for b in base) for pair in g.iter_pairs()]
    assert keys == sorted(set(keys)) and len(keys) == g.order


def test_flat_encoding_is_a_faithful_permutation_of_n_plus_k_minus_1_points():
    n, k = 5, 3
    pairs = list(aut_product(n, k).iter_pairs())
    flats = [p.flat(k) for p in pairs]
    assert all(sorted(f) == list(range(1, n + k)) for f in flats)
    by_mu_then_nu = sorted(pairs, key=lambda p: (p.mu.images, p.nu.images))
    assert sorted(flats) == [p.flat(k) for p in by_mu_then_nu]
    assert [AutPair.from_flat(f, n) for f in flats] == pairs
    for a, b in zip(pairs[::7], pairs[3::11]):
        assert (Perm(a.flat(k)) * Perm(b.flat(k))).images == (a * b).flat(k)


def _refuse(*args, **kwargs):
    raise AssertionError("a group's elements were listed")


def test_direct_product_lists_no_pair(monkeypatch):
    h, t = pgammal2(32), symmetric_nu_group(33, 4)
    monkeypatch.setattr(StabChain, "elements", _refuse)
    monkeypatch.setattr(PermGroup, "elements", property(_refuse))
    g = PairGroup.direct_product(h, 4, t)
    assert g.order == 163680 * 6 == math.perm(33, 4)
    # PGammaL(2,32) is sharply 3-transitive, so each nu on 1..4 meets one
    # mu on 1..3 and the pair moves 4 unless nu(4) = mu(4); exactly the
    # identity fixes [1..4]
    assert g.base_stabilizer_order() == 1
    # the projection and the kernel are recovered from the one chain
    proj, kernel = project_and_kernel(g)
    assert proj.order == h.order and kernel.order == t.order
    assert all(mu in proj for mu in h.generators)


def test_base_stabilizer_order_of_a_product_with_unrealised_prefixes():
    # S_4 on 1..4 inside degree 6, times S_3 on 2..4, at k = 4: every nu has
    # an mu agreeing with it on 1..4, and H_(1..4) is trivial
    h = PermGroup.symmetric_on(range(1, 5), 6)
    g = PairGroup.direct_product(h, 4, symmetric_nu_group(6, 4))
    assert g.base_stabilizer_order() == 6
    # with H = <(1 2 3 4)> only the identity prefix is realised
    c4 = PairGroup.direct_product(closure([Perm.from_cycles(6, (1, 2, 3, 4))]), 4,
                                  symmetric_nu_group(6, 4))
    assert c4.base_stabilizer_order() == 1
    # and H_(1..k) counts: S_2 on {5, 6} fixes 1..4 pointwise
    s = PairGroup.direct_product(PermGroup.symmetric(6), 4, symmetric_nu_group(6, 4))
    assert s.base_stabilizer_order() == 6 * 2
