import itertools
import json
import math
import re
from types import SimpleNamespace

import pytest

from starcayley import cayley
from starcayley.cayley import (Certificate, build_certificate, certify_via_lambda,
                               certify_via_sharp_k, classify, is_prime_power,
                               sabidussi_direct, search_regular_subgroup,
                               table_certificate, verify_certificate)
from starcayley.pairs import (PairGroup, aut_product, project_and_kernel,
                              symmetric_nu_group)
from starcayley.perm import PermGroup, cycle_type, is_k_homogeneous
from starcayley.witness_groups import agl1, mathieu11, mathieu12, pgl2, psl2


def test_is_prime_power():
    assert is_prime_power(32) == (2, 5)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(6) is None
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None  # by convention
    with pytest.raises(ValueError):
        is_prime_power(0)


def test_classify_examples():
    assert classify(9, 4).clause == "sporadic"
    assert classify(9, 4).is_cayley
    assert not classify(6, 2).is_cayley
    assert classify(7, 5).clause == "n=k+2"
    assert classify(5, 1).clause == "k=1"
    assert classify(5, 4).clause == "k=n-1"
    assert classify(4, 2).clause == "n=k+2"  # precedence over the k=2 clause
    with pytest.raises(ValueError):
        classify(4, 4)


def test_classify_sporadics_complete():
    sporadic = {(9, 4), (9, 6), (11, 4), (12, 5), (33, 4), (33, 30)}
    for n, k in sporadic:
        assert classify(n, k).clause == "sporadic", (n, k)
    assert not classify(10, 4).is_cayley
    assert not classify(33, 5).is_cayley


def test_sabidussi_direct_m11():
    g = PairGroup.direct_product(mathieu11(), 4)
    cert = sabidussi_direct(g, 11, 4)
    assert cert.verdict == "Cayley"
    assert cert.method == "DirectRegularAction"
    assert dict(cert.checks) == {
        "order_equals_vertex_count": True,
        "base_vertex_stabilizer_trivial": True,
        "evaluation_map_bijective": True,
    }


def test_sabidussi_direct_m12():
    cert = sabidussi_direct(PairGroup.direct_product(mathieu12(), 5), 12, 5)
    assert cert.verdict == "Cayley"


def test_sabidussi_direct_psl28_product():
    g = PairGroup.direct_product(psl2(8), 4, symmetric_nu_group(9, 4))
    assert g.order == 504 * 6 == math.perm(9, 4)
    cert = sabidussi_direct(g, 9, 4)
    assert cert.verdict == "Cayley"


def test_sabidussi_fails_on_nonregular_group():
    g = PairGroup.direct_product(PermGroup.symmetric(4), 2)
    cert = sabidussi_direct(g, 4, 2)
    assert cert.verdict == "Unknown"
    assert not cert.all_passed()


def test_certify_via_sharp_k():
    assert certify_via_sharp_k(agl1(5), 5, 2).verdict == "Cayley"
    assert certify_via_sharp_k(pgl2(7), 8, 3).verdict == "Cayley"
    cert = certify_via_sharp_k(PermGroup.symmetric(4), 4, 2)
    assert cert.verdict == "Unknown"  # order 24 != 12: not sharp


def test_certify_via_lambda_psl28():
    cert = certify_via_lambda(psl2(8), 9, 4)
    assert cert.verdict == "Cayley"
    assert cert.witness["lam"] == [5, 3, 1]
    cert96 = certify_via_lambda(psl2(8), 9, 6)
    assert cert96.verdict == "Cayley"
    assert cert96.witness["lam"] == [3, 5, 1]


def test_certificate_json_roundtrip():
    cert = certify_via_sharp_k(agl1(5), 5, 2)
    data = json.loads(cert.to_json())
    assert set(data) == {"n", "k", "verdict", "method", "witness", "checks", "notes"}
    assert data["witness"]["degree"] == 5
    assert Certificate.from_json(cert.to_json()) == cert


def test_verify_certificate_roundtrips():
    for cert in [
        certify_via_sharp_k(agl1(5), 5, 2),
        certify_via_lambda(psl2(8), 9, 4),
        sabidussi_direct(PairGroup.direct_product(mathieu11(), 4), 11, 4),
        table_certificate(10, 4),
    ]:
        reproduced, fresh = verify_certificate(cert)
        assert reproduced, (cert.method, fresh)


def test_verify_refutation_certificate():
    cert = search_regular_subgroup(6, 2)
    reproduced, _ = verify_certificate(cert)
    assert reproduced


def test_search_finds_regular_subgroup_52():
    cert = search_regular_subgroup(5, 2)
    assert cert.verdict == "Cayley"
    assert cert.method == "DirectRegularAction"
    # the witness is an order-20 sharply 2-transitive group; its projection
    # is 2-homogeneous
    gens = cert.witness["generators"]
    assert len(gens) >= 1
    import starcayley.pairs as pairs_mod
    pair_gens = [pairs_mod.AutPair.from_dict(g) for g in gens]
    group = PairGroup.generate(5, 2, pair_gens)
    assert group.order == 20
    h, _ = project_and_kernel(group)
    assert is_k_homogeneous(h, 2)


def test_search_finds_regular_subgroup_42():
    cert = search_regular_subgroup(4, 2)
    assert cert.verdict == "Cayley"


def test_search_unknown_when_bound_not_justified():
    # order 12 = 2^2 * 3 is not square-free, so an exhausted single-generator
    # search cannot claim refutation
    cert = search_regular_subgroup(4, 2, max_gens=0)
    assert cert.verdict == "Unknown"


def test_search_truncated_by_time_budget():
    cert = search_regular_subgroup(6, 2, time_limit=0.0)
    assert cert.verdict == "Unknown"
    assert any("budget" in note for note in cert.notes)


def test_build_certificate_strategies():
    assert build_certificate(11, 4).method == "DirectRegularAction"
    assert build_certificate(33, 30).method == "LambdaTransitiveWitness"
    assert build_certificate(6, 2).method == "ExhaustiveSearchRefutation"
    assert build_certificate(6, 2).verdict == "NotCayley"
    assert build_certificate(10, 4).method == "ClassificationTable"
    assert build_certificate(10, 4).verdict == "NotCayley"
    assert build_certificate(7, 1).verdict == "Cayley"
    cert = build_certificate(6, 4)  # n=k+2 with no wired witness
    assert cert.verdict == "Cayley" and cert.method == "ClassificationTable"


def test_constructive_verdicts_match_classification():
    for n, k in [(5, 2), (7, 2), (8, 2), (5, 3), (6, 3), (9, 3), (9, 4),
                 (9, 6), (11, 4), (12, 5)]:
        cert = build_certificate(n, k)
        assert cert.verdict == "Cayley"
        assert (cert.verdict == "Cayley") == classify(n, k).is_cayley
        assert cert.method != "ClassificationTable"


# ---------------------------------------------------------------------------
# the flat-pair search and the product-shape rebuild in verify_certificate


def _fixes_a_vertex_by_scan(pair, n, k):
    """Oracle: does any k-permutation satisfy mu(a_{nu^-1(i)}) = a_i for all i?"""
    mu = pair.mu.images
    nu_inv = pair.nu.inverse().images
    return any(all(mu[v[nu_inv[i] - 1] - 1] == v[i] for i in range(k))
               for v in itertools.permutations(range(1, n + 1), k))


@pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 3), (6, 4), (7, 3)])
def test_cycle_type_fixed_point_test_matches_vertex_scan(n, k):
    target = math.perm(n, k)
    expected = []
    for pair in aut_product(n, k).iter_pairs():
        by_scan = _fixes_a_vertex_by_scan(pair, n, k)
        by_type = cayley._fixes_some_vertex(cycle_type(pair.mu.images),
                                            cycle_type(pair.nu.images[:k]))
        assert by_type == by_scan, pair
        if not by_scan and target % pair.order() == 0:
            expected.append(pair.flat(k))
    # the search sees the surviving pairs as flat tuples, in iter_pairs order
    assert cayley._candidates(n, k, target, lambda phase, progress: None) == expected


def test_search_deadline_checked_while_filtering(monkeypatch):
    reads = []

    def fake_monotonic():
        reads.append(None)
        return 0.0 if len(reads) < 3 else 100.0

    monkeypatch.setattr(cayley, "time", SimpleNamespace(monotonic=fake_monotonic))
    cert = search_regular_subgroup(7, 2, time_limit=10.0)
    assert cert.verdict == "Unknown"
    assert cert.checks == (("search_space_exhausted", False),)
    (note,) = cert.notes
    assert "budget" in note
    assert "filtering candidates" in note
    assert re.search(r"\d+/5040", note)
    assert len(reads) == 3


@pytest.mark.parametrize("n,k,force_search", [
    (9, 4, False), (9, 6, False), (11, 4, False), (12, 5, False),
    (33, 4, False), (33, 30, False),
    (6, 4, True), (7, 2, True), (8, 3, True),
])
def test_build_then_verify_round_trip(n, k, force_search):
    cert = build_certificate(n, k, force_search=force_search)
    assert cert.verdict == "Cayley"
    assert cert.method != "ClassificationTable"
    reproduced, fresh = verify_certificate(cert)
    assert reproduced, fresh


def _generic_closures(monkeypatch):
    calls = []
    generate = PairGroup.generate.__func__

    def spy(cls, *args, **kwargs):
        calls.append(args[:2])
        return generate(cls, *args, **kwargs)

    monkeypatch.setattr(PairGroup, "generate", classmethod(spy))
    return calls


def _with_generators(cert, generators):
    return Certificate.from_dict(dict(cert.to_dict(),
                                      witness=dict(cert.witness, generators=generators)))


def test_tampered_product_witness_fails_to_reproduce(monkeypatch):
    calls = _generic_closures(monkeypatch)
    cert = build_certificate(9, 4)
    gens = cert.witness["generators"]
    assert verify_certificate(cert)[0]
    # drop the last S_3 generator: the nu factor shrinks
    assert not verify_certificate(_with_generators(cert, gens[:-1]))[0]
    # swap the first mu for a copy of the second: H shrinks
    wrong = [dict(gens[0], mu=gens[1]["mu"])] + gens[1:]
    assert not verify_certificate(_with_generators(cert, wrong))[0]
    # every one of these witnesses is product-shaped
    assert calls == []


def test_mixed_generator_witness_takes_generic_path(monkeypatch):
    calls = _generic_closures(monkeypatch)
    cert = build_certificate(9, 4)
    gens = cert.witness["generators"]
    mixed = {"mu": gens[0]["mu"], "nu": gens[-1]["nu"]}
    assert mixed["nu"] != list(range(1, 10)) and mixed["mu"] != list(range(1, 10))
    reproduced, fresh = verify_certificate(_with_generators(cert, gens + [mixed]))
    assert reproduced, fresh
    assert calls == [(9, 4)]
