import collections
import hashlib
import itertools
import json
import math
import re
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from starcayley import CapExceeded, cayley, verdicts
from starcayley import chain as chain_mod
from starcayley import pairs as pairs_mod
from starcayley import search as search_mod
from starcayley import witness_groups as witness_groups_mod
from starcayley.cayley import (Certificate, build_certificate, certify_via_lambda,
                               certify_via_sharp_k, classify, is_prime_power,
                               is_truncated_search, sabidussi_direct, table_certificate,
                               verify_certificate)
from starcayley.chain import StabChain, cycle_type
from starcayley.pairs import (AutPair, PairGroup, aut_order, aut_product, nu_tail,
                              project_and_kernel, symmetric_nu_group)
from starcayley.perm import Perm, PermGroup, closure, flag_count, is_k_homogeneous
from starcayley.search import search_regular_subgroup
from starcayley.stargraph import rank
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


def test_is_prime_power_agrees_with_factorize():
    for n in range(1, 20_001):
        factors = verdicts.factorize(n)
        assert is_prime_power(n) == (factors[0] if len(factors) == 1 else None), n


@pytest.mark.parametrize("n,expected", [
    (2**61 - 1, (2**61 - 1, 1)),
    ((2**31 - 1) ** 2, (2**31 - 1, 2)),
    (3**40, (3, 40)),
    ((10**9 + 7) * (10**9 + 9), None),
    (2**64, (2, 64)),
    (6**20, None),
])
def test_is_prime_power_large_cases_below_the_miller_rabin_bound(n, expected):
    assert n < verdicts._MILLER_RABIN_BOUND
    assert is_prime_power(n) == expected


def test_is_prime_above_the_miller_rabin_bound():
    # a base witnesses a composite at any size; a probable prime there is no proof
    assert is_prime_power((2**61 - 1) * (2**89 - 1)) is None
    assert not verdicts.is_prime(2**89 + 1)
    with pytest.raises(CapExceeded):
        is_prime_power(2**89 - 1)
    with pytest.raises(CapExceeded):
        is_prime_power((2**89 - 1) ** 2)


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
    pair_gens = [AutPair.from_dict(g) for g in gens]
    group = PairGroup.generate(5, 2, pair_gens)
    assert group.order == 20
    h, _ = project_and_kernel(group)
    assert is_k_homogeneous(h, 2)


def test_search_finds_regular_subgroup_42():
    cert = search_regular_subgroup(4, 2)
    assert cert.verdict == "Cayley"


def _two_generator_refutation(n, k, variant="generator_sets_up_to_2_closed_up_to_conjugacy"):
    """A refutation as the two-generator search wrote it when it found no
    regular subgroup generated by two candidates: NotCayley when P(n,k) is
    square-free, Unknown otherwise."""
    target = math.perm(n, k)
    square_free = all(e == 1 for _, e in verdicts.factorize(target))
    checks = (("full_automorphism_group_enumerated", True),
              ("candidates_restricted_to_fixed_point_free_elements", True),
              (variant, True), ("no_regular_subgroup_found", True),
              (f"order_{target}_subgroups_need_at_most_2_generators", square_free))
    if square_free:
        return Certificate(n, k, "NotCayley", "ExhaustiveSearchRefutation", None, checks,
                           (f"groups of square-free order {target} are metacyclic, "
                            "hence 2-generated",))
    return Certificate(n, k, "Unknown", "ExhaustiveSearchRefutation", None, checks,
                       ("search exhausted, but no generator bound certifies "
                        f"that order-{target} subgroups are 2-generated",))


def test_search_unknown_when_bound_not_justified():
    # order 840 = 2^3 * 3 * 5 * 7 is not square-free, so the two-generator
    # search exhausted (7,4) with Unknown; its replay is derived from the
    # transversal search, which finds no regular subgroup
    old = _two_generator_refutation(7, 4)
    reproduced, fresh = verify_certificate(Certificate.from_json(old.to_json()))
    assert reproduced and fresh.verdict == "Unknown" and fresh.checks == old.checks
    assert not verify_certificate(old._replace(verdict="NotCayley"))[0]
    assert search_regular_subgroup(7, 4).verdict == "NotCayley"


def test_two_generator_refutation_of_a_yes_case_fails_to_reproduce():
    # (7,2): 42 is square-free, so the old search would have found the hit
    reproduced, fresh = verify_certificate(_two_generator_refutation(7, 2))
    assert not reproduced and fresh.verdict == "Cayley"
    # (5,2): 20 is not, so whether two candidates generate a regular group
    # is not derived, and the replay records nothing but the reason
    reproduced, fresh = verify_certificate(_two_generator_refutation(5, 2))
    assert not reproduced and fresh.checks == ()
    (note,) = fresh.notes
    assert "order 20 is not square-free" in note


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


def test_k2_and_k3_witnesses_are_gated_by_the_element_cap():
    # the witness has order P(n,k): 9 * 8 = 72 for (9,2), 9 * 8 * 7 = 504 for (9,3)
    assert build_certificate(9, 2, element_cap=72).method == "DirectRegularAction"
    assert build_certificate(9, 2, element_cap=71).method == "ClassificationTable"
    assert build_certificate(9, 3, element_cap=504).method == "DirectRegularAction"
    assert build_certificate(9, 3, element_cap=503).method == "ClassificationTable"


def test_witness_table_names_each_witness_once():
    assert verdicts.SPORADIC_CAYLEY_PAIRS == frozenset(verdicts.SPORADIC_WITNESSES)
    # the closed form of each named group's order; M11 and M12 are sharply
    # 4- and 5-transitive on 11 and 12 points
    closed_form = {"agl1": witness_groups_mod.agl1_order,
                   "pgl2": witness_groups_mod.pgl_order,
                   "psl2": witness_groups_mod.psl_order,
                   "pgammal2": witness_groups_mod.pgammal_order,
                   "mathieu11": lambda: math.perm(11, 4),
                   "mathieu12": lambda: math.perm(12, 5)}
    recipes = {}
    for n in range(4, 35):
        for k in range(1, n):
            if classify(n, k).is_cayley:
                recipe = recipes[n, k] = verdicts.witness_recipe(n, k)
                table = build_certificate(n, k).method == "ClassificationTable"
                assert (recipe is None) == table, (n, k)
    recipes[1024, 2] = verdicts.witness_recipe(1024, 2)
    assert recipes[1024, 2] == ("agl1", 1024, "mu")
    for (n, k), recipe in recipes.items():
        if recipe is None:
            continue
        name, arg, shape = recipe
        h = closed_form[name](*([] if arg is None else [arg]))
        expected = {"mu": h, "pairs": h * math.factorial(k - 1), "flag": h}[shape]
        assert verdicts._witness_order(n, k, shape) == expected, (n, k)
    assert verdicts._witness_order(33, 30, "flag") == flag_count((3, 29, 1), 33) == 163_680


def test_search_cap_counts_the_vertices():
    # the search lists P(n,k) vertices and closures of at most P(n,k) pairs;
    # |S_5 x S_1| = 120 is never listed
    assert search_regular_subgroup(5, 2, cap=20).verdict == "Cayley"
    with pytest.raises(CapExceeded, match=r"^P\(5,2\) = 20 exceeds cap 19$"):
        search_regular_subgroup(5, 2, cap=19)


def test_search_of_many_classes_is_bounded_by_the_time_limit():
    # P(100,2) = 9,900 and P(2000,1) fit the default cap, and the
    # p(100) = 190,569,292 classes of mu are never listed: each is decided
    # when the search first meets it, and the clock ends the search
    for n, k in [(100, 2), (2000, 1)]:
        start = time.perf_counter()
        assert is_truncated_search(search_regular_subgroup(n, k, time_limit=0.2))
        assert time.perf_counter() - start < 1.0
    # at a cap of P(7,3) = 210 points, pairs of 9 points, the memo and the
    # explored set are emptied whenever they pass 23 pairs
    assert search_regular_subgroup(7, 3, cap=210).verdict == "NotCayley"


@pytest.mark.parametrize("n,k", [(6, 4), (7, 3), (7, 4)])
def test_search_caches_emptied_at_the_cap_change_no_certificate(n, k, monkeypatch):
    # at cap = P(n,k) the memo of typed pairs and the explored closures are
    # emptied many times over; count the clears and compare the certificates
    clears = []
    real = search_mod._ByClass.clear
    monkeypatch.setattr(search_mod._ByClass, "clear", lambda self: (clears.append(1), real(self)))
    small = search_regular_subgroup(n, k, cap=math.perm(n, k))
    assert clears
    assert small == search_regular_subgroup(n, k)


# sha256 of build_certificate(n, k).to_json(): the bytes depend on the field
# moduli, the point order of the projective line and the witness key order
CERTIFICATE_SHA256 = {
    (9, 4): "725f2021b6a11c8e1e493b3738d487455ec12aa2fda659ee310e00a45fc4122b",
    (9, 6): "4eb243e563f223bc7a8c802b3ebb52f6bc56221fd5e50f9edf2b51c853fbbb03",
    (11, 4): "f21daaa2ddc0c545b9059421d2dcc48b41caa61cc9286a98527130d924d48d97",
    (12, 5): "c266f1e7649560b36cd1b54a66fd97086c01a3eb859934f0c49d73dc4cdce3de",
    (33, 4): "a78724e4a76cbc1c07f33592841151dfa00ceafeb7a2026702fa9ac21de20a2c",
    (33, 30): "fc141eaa493afec5d1d3c6bd02c91f42c86f4668a020cfa6ab428ab8eb61471a",
    (25, 2): "ff1fa09d2c8b899a0cbc479ef2c4b2e75f9d8eec183f9092bf13a695782f5f18",
    (26, 3): "abce13108284d3e6441137e37fbfc51321ec0271d7386788b55cd0391be5ad6c",
    (28, 3): "d23144221f85c99564329b382e11f8790c5836dd0658753f0e27ce3ed249bb15",
    (27, 2): "ba0b44cb3a0750f93d3594333bab36117a9c6e528c2315286374da6505e22c11",
}


@pytest.mark.parametrize("n,k", sorted(CERTIFICATE_SHA256))
def test_certificate_bytes_are_pinned(n, k):
    text = build_certificate(n, k).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[n, k]


def test_truncated_search_predicate():
    truncated = search_regular_subgroup(6, 2, time_limit=0.0)
    assert is_truncated_search(truncated)
    assert not is_truncated_search(build_certificate(6, 2))
    assert not is_truncated_search(_two_generator_refutation(7, 4))
    forged = Certificate(6, 2, "NotCayley", truncated.method, None, truncated.checks)
    assert not is_truncated_search(forged)


def test_constructive_verdicts_match_classification():
    for n, k in [(5, 2), (7, 2), (8, 2), (5, 3), (6, 3), (9, 3), (9, 4),
                 (9, 6), (11, 4), (12, 5)]:
        cert = build_certificate(n, k)
        assert cert.verdict == "Cayley"
        assert (cert.verdict == "Cayley") == classify(n, k).is_cayley
        assert cert.method != "ClassificationTable"


# ---------------------------------------------------------------------------
# the flat-pair search, and verify_certificate's closure of the witness pairs


def _fixes_a_vertex_by_scan(pair, n, k):
    """Oracle: does any k-permutation satisfy mu(a_{nu^-1(i)}) = a_i for all i?"""
    mu = pair.mu.images
    nu_inv = pair.nu.inverse().images
    return any(all(mu[v[nu_inv[i] - 1] - 1] == v[i] for i in range(k))
               for v in itertools.permutations(range(1, n + 1), k))


def _candidates(n, k, representatives=None):
    """Oracle: every flat pair that fixes no vertex and whose order divides
    P(n,k), nu outer and mu inner, each typed; the first candidate of each
    class is appended to representatives."""
    target = math.perm(n, k)
    verdicts = {}
    candidates = []
    for nu in itertools.permutations(range(2, k + 1)):
        nu_type = cycle_type((1,) + nu)
        tail = nu_tail(nu, n)
        for mu in itertools.permutations(range(1, n + 1)):
            types = (cycle_type(mu), nu_type)
            keep = verdicts.get(types)
            if keep is None:
                keep = verdicts[types] = (not search_mod._fixes_some_vertex(*types) and
                                          target % math.lcm(*types[0], *nu_type) == 0)
                if keep and representatives is not None:
                    representatives.append(mu + tail)
            if keep:
                candidates.append(mu + tail)
    return candidates


def _no_clock(progress):
    pass


def _streamed(n, k):
    """The candidates the search's cosets list lazily, one coset for each
    vertex in rank order, and the classes decided on the way; each
    candidate maps [1..k] to the vertex of its coset."""
    candidates = search_mod._ByClass(n, k, math.inf)
    streamed = []
    for v in itertools.permutations(range(1, n + 1), k):
        coset = list(search_mod._coset(n, k, v, candidates, _no_clock))
        assert all(AutPair.from_flat(c, n).apply(range(1, k + 1)) == v for c in coset)
        streamed += coset
    return streamed, candidates


@pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 3), (6, 4), (7, 3)])
def test_cycle_type_fixed_point_test_matches_vertex_scan(n, k):
    target = math.perm(n, k)
    pairs = list(aut_product(n, k).iter_pairs())
    # the chain lists every pair once, by its flat images of the base 1..k,
    # n+1..n+k-1, then k+1..n
    base = (*range(1, k + 1), *range(n + 1, n + k), *range(k + 1, n + 1))
    keys = [tuple(pair.flat(k)[b - 1] for b in base) for pair in pairs]
    assert keys == sorted(set(keys)) and len(keys) == aut_order(n, k)
    expected = []
    for pair in pairs:
        by_scan = _fixes_a_vertex_by_scan(pair, n, k)
        by_type = search_mod._fixes_some_vertex(cycle_type(pair.mu.images),
                                            cycle_type(pair.nu.images[:k]))
        assert by_type == by_scan, pair
        if not by_scan and target % pair.order() == 0:
            expected.append(pair.flat(k))
    # the search sees the surviving pairs as flat tuples, coset by coset
    assert sorted(_candidates(n, k)) == sorted(expected)
    assert sorted(_streamed(n, k)[0]) == sorted(expected)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(4, 9) for k in range(2, n - 1)
                                 if aut_order(n, k) <= 80_640])
def test_streamed_candidates_match_the_enumeration(n, k):
    streamed, _ = _streamed(n, k)
    assert sorted(streamed) == sorted(_candidates(n, k))


def _lex_scan_verdicts(n, k):
    """Oracle: each class's verdict, for the classes a lex scan of S_n sees
    until they cover S_n."""
    target, order = math.perm(n, k), math.factorial(n)
    mu_types, covered = set(), 0
    for mu in itertools.permutations(range(1, n + 1)):
        mu_type = cycle_type(mu)
        if mu_type not in mu_types:
            mu_types.add(mu_type)
            covered += order // math.prod(l ** m * math.factorial(m) for l, m
                                          in collections.Counter(mu_type).items())
            if covered == order:
                break
    return {(mu_type, nu_type): (not search_mod._fixes_some_vertex(mu_type, nu_type)
                                 and target % math.lcm(*mu_type, *nu_type) == 0)
            for nu_type in {cycle_type((1,) + nu) for nu in itertools.permutations(range(2, k + 1))}
            for mu_type in mu_types}


def _pair_of_type(mu_type, nu, n):
    """A flat pair whose mu has cycle type mu_type, each cycle on
    consecutive points, and whose nu has the images nu of 2..k."""
    mu, start = [], 1
    for length in mu_type:
        mu += [*range(start + 1, start + length), start]
        start += length
    return tuple(mu) + nu_tail(nu, n)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(2, n)])
def test_class_plan_matches_the_lex_scan(n, k):
    # the search decides a class when it first types one of its pairs, and
    # decides each one as the lex scan does
    verdicts = _lex_scan_verdicts(n, k)
    mu_types = {mu_type for mu_type, _ in verdicts}
    candidates = search_mod._ByClass(n, k, math.inf)
    for nu in itertools.permutations(range(2, k + 1)):
        for mu_type in mu_types:
            pair = _pair_of_type(mu_type, nu, n)
            assert cycle_type(pair[:n]) == mu_type
            assert (pair in candidates) == verdicts[mu_type, cycle_type((1,) + nu)]
    # each pair typed was the first of its class, mu's type and nu's tail
    assert len(candidates.keep) == len(mu_types) * math.factorial(k - 1)


def test_search_deadline_checked_while_scanning_a_coset(monkeypatch):
    # (11,1) scans 409,114 pairs of the coset of (2,) to reach its first
    # candidate, an 11-cycle; the scan reads the clock every DEADLINE_STRIDE
    # pairs, so a clock past the deadline at its fourth read stops it there
    reads, scanned = [], []

    def fake_monotonic():
        reads.append(None)
        return 0.0 if len(reads) < 4 else 100.0

    contains = search_mod._ByClass.__contains__
    monkeypatch.setattr(search_mod._ByClass, "__contains__",
                        lambda self, pair: scanned.append(pair) or contains(self, pair))
    monkeypatch.setattr(search_mod, "time", SimpleNamespace(monotonic=fake_monotonic))
    cert = search_regular_subgroup(11, 1, time_limit=10.0)
    assert is_truncated_search(cert)
    # one read sets the deadline, and the scan reads it at pairs 0, 256 and 512
    (note,) = cert.notes
    assert note.endswith("(transversal search, pair 512 of the coset of (2,))")
    assert len(scanned) == 2 * search_mod.DEADLINE_STRIDE


def test_search_deadline_checked_in_every_phase(monkeypatch):
    def run(cut):
        reads = []

        def fake_monotonic():
            reads.append(None)
            return 0.0 if len(reads) < cut else 100.0

        monkeypatch.setattr(search_mod, "time", SimpleNamespace(monotonic=fake_monotonic))
        return search_regular_subgroup(7, 3, time_limit=10.0), len(reads)

    cert, reads = run(math.inf)
    assert cert.verdict == "NotCayley"
    # the one phase is the transversal search, and every read can stop it:
    # one read sets the deadline, and the scan of each of the 21 cosets the
    # search grows a group over reads it once, at its first of 4! 2! = 48 pairs
    assert reads == 22
    for cut in range(2, reads + 1):
        cert, _ = run(cut)
        assert is_truncated_search(cert), cut
        (note,) = cert.notes
        assert re.search(r"\(transversal search, pair 0 of the coset of \(\d, \d, \d\)\)$",
                         note), note


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


def _generate_calls(monkeypatch):
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
    calls = _generate_calls(monkeypatch)
    cert = build_certificate(9, 4)
    gens = cert.witness["generators"]
    assert verify_certificate(cert)[0]
    # drop the last S_3 generator: the nu factor shrinks
    assert not verify_certificate(_with_generators(cert, gens[:-1]))[0]
    # swap the first mu for a copy of the second: H shrinks
    wrong = [dict(gens[0], mu=gens[1]["mu"])] + gens[1:]
    assert not verify_certificate(_with_generators(cert, wrong))[0]
    # every witness, product-shaped or not, is closed as one flat chain:
    # once by certify, and once by each check
    assert calls == [(9, 4)] * 4


def _with_a_mixed_pair(cert):
    """cert with one more generator that pairs its first mu with its last nu."""
    gens = cert.witness["generators"]
    mixed = {"mu": gens[0]["mu"], "nu": gens[-1]["nu"]}
    identity = list(range(1, cert.n + 1))
    assert mixed["nu"] != identity and mixed["mu"] != identity
    return _with_generators(cert, gens + [mixed])


def test_mixed_generator_witness_takes_generic_path(monkeypatch):
    calls = _generate_calls(monkeypatch)
    reproduced, fresh = verify_certificate(_with_a_mixed_pair(build_certificate(9, 4)))
    assert reproduced, fresh
    # certify and check each close one chain
    assert calls == [(9, 4)] * 2


def _chains_built_with_no_cached_witness(monkeypatch) -> list[int]:
    """Make every cached, verified witness constructor raise, and return the
    list that records the degree of each StabChain built from then on."""
    def refuse(*args, **kwargs):
        raise AssertionError("H was closed on its own")

    for name in ("agl1", "pgl2", "psl2", "pgammal2", "mathieu11", "mathieu12"):
        monkeypatch.setattr(witness_groups_mod, name, refuse)
    chains = []
    init = StabChain.__init__

    def counting(self, *args, **kwargs):
        chains.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabChain, "__init__", counting)
    return chains


@pytest.mark.parametrize("n,k", [(25, 2), (28, 3)])
def test_k_2_and_k_3_witnesses_close_one_chain(monkeypatch, n, k):
    # AGL(1,25) and PGL(2,27) are closed only inside the pair group: certify
    # closes one chain, and never the cached, verified H on its own
    chains = _chains_built_with_no_cached_witness(monkeypatch)
    calls = _generate_calls(monkeypatch)
    cert = build_certificate(n, k)
    assert cert.verdict == "Cayley" and cert.method == "DirectRegularAction"
    assert calls == [(n, k)] and chains == [n + k - 1]


@pytest.mark.parametrize("n,k", [(9, 4), (9, 6), (11, 4), (12, 5), (33, 4)])
def test_sporadic_product_witnesses_close_one_chain(monkeypatch, n, k):
    # PSL(2,8), M11, M12 and PGammaL(2,32) are passed to the pair group as
    # generators alone, so certify closes the pair chain and nothing else
    chains = _chains_built_with_no_cached_witness(monkeypatch)
    cert = build_certificate(n, k)
    assert cert.verdict == "Cayley" and cert.method == "DirectRegularAction"
    assert chains == [n + k - 1]


def test_flag_witness_closes_one_chain(monkeypatch):
    # (33,30) closes PGammaL(2,32) once; the flag check walks that chain, and
    # the one element it keeps, the identity, makes the stabiliser's chain
    chains = _chains_built_with_no_cached_witness(monkeypatch)
    cert = build_certificate(33, 30)
    assert cert.verdict == "Cayley" and cert.method == "LambdaTransitiveWitness"
    assert chains == [33, 33]


def test_flag_check_lists_no_stabiliser_and_builds_no_second_chain(monkeypatch):
    h = witness_groups_mod.pgammal2(32)
    chains = _chains_built_with_no_cached_witness(monkeypatch)
    elements = StabChain.elements

    def filtered_walk_only(self, level=0, within=None):
        if level or within is None:
            raise AssertionError("a stabiliser was listed")
        return elements(self, level, within)

    monkeypatch.setattr(StabChain, "elements", filtered_walk_only)
    cert = certify_via_lambda(h, 33, 30)
    assert cert.verdict == "Cayley" and len(cert.checks) == 3 and cert.all_passed()
    # the only chain built is the one-element stabiliser's, none on another base
    assert chains == [33]
    reproduced, fresh = verify_certificate(Certificate.from_json(cert.to_json()))
    assert reproduced and fresh.all_passed()
    assert chains == [33, 33, 33]


def test_mixed_generator_witness_lists_no_pair(monkeypatch):
    # a (6,4) search hit and the (9,4) witness with a mixed pair added: each
    # is closed as one chain, and only the tails, at most (k-1)! of them,
    # are listed
    mixed = _with_a_mixed_pair(build_certificate(9, 4))

    def refuse(*args, **kwargs):
        raise AssertionError("a group's elements were listed")

    monkeypatch.setattr(StabChain, "elements", refuse)
    monkeypatch.setattr(PermGroup, "elements", property(refuse))
    orbit = pairs_mod.orbit
    largest = []

    def counting(starts, generators, **kwargs):
        seen = orbit(starts, generators, **kwargs)
        largest.append(len(seen))
        return seen

    monkeypatch.setattr(pairs_mod, "orbit", counting)
    hit = search_regular_subgroup(6, 4)
    assert hit.verdict == "Cayley" and max(largest, default=0) <= math.factorial(3)
    for witness in (hit, mixed):
        largest.clear()
        reproduced, fresh = verify_certificate(Certificate.from_json(witness.to_json()))
        assert reproduced, fresh
        assert largest and max(largest) <= math.factorial(witness.k - 1)


def test_every_certificate_for_n_up_to_34_passes_check():
    # all 558 pairs 4 <= n <= 34, 1 <= k < n, through the JSON text
    failed = []
    for n in range(4, 35):
        for k in range(1, n):
            text = build_certificate(n, k).to_json()
            if not verify_certificate(Certificate.from_json(text))[0]:
                failed.append((n, k))
    assert failed == []


# ---------------------------------------------------------------------------
# Sabidussi's criterion from two counts, against the element-by-element pass


def _sabidussi_by_ranks(group, n, k):
    """Oracle: the rank pass sabidussi_direct ran before it counted.  Every
    pair's image of [1..k] is ranked; returns the three recorded booleans
    (order, trivial stabiliser, bijective evaluation map) and the number of
    pairs that fix [1..k]."""
    target = math.perm(n, k)
    base = tuple(range(1, k + 1))
    hits = bytearray(target)
    collision = False
    base_fixers = 0
    identity_fixes_base = False
    for pair in group.iter_pairs():
        mu, nu = pair.mu.images, pair.nu.images
        # vertex position i holds mu(a_{nu^-1(i)}); index() gives nu^-1(i) - 1
        v = tuple(mu[nu.index(i)] for i in range(1, k + 1))
        r = rank(v, n)
        if hits[r]:
            collision = True
        hits[r] = 1
        if v == base:
            base_fixers += 1
            identity_fixes_base |= pair.is_identity()
    order_ok = group.order == target
    bijective = not collision and sum(hits) == target and order_ok
    return (order_ok, base_fixers == 1 and identity_fixes_base, bijective), base_fixers


def _booleans(cert):
    return tuple(ok for _, ok in cert.checks)


def _s5_fixing_6():
    return closure([Perm.from_cycles(6, (1, 2)), Perm.from_cycles(6, (1, 2, 3, 4, 5))],
                   name="S_5")


_FACTORS = {"S4": lambda: PermGroup.symmetric(4), "S5fix6": _s5_fixing_6,
            "PSL(2,8)": lambda: psl2(8), "M11": mathieu11, "PGL(2,7)": lambda: pgl2(7)}


def _nu_factor(kind, n, k):
    """T trivial ("1"), T = S_{k-1} ("S"), or the proper subgroup <(2 .. k)> ("C")."""
    if kind == "1":
        return None
    if kind == "S":
        return symmetric_nu_group(n, k)
    assert k >= 4, "for k <= 3 the cycle (2 .. k) generates all of S_{k-1}"
    return closure([Perm.from_cycles(n, tuple(range(2, k + 1)))], name=f"C_{k - 1}")


# regular: PSL(2,8) x 1 at (9,3), PSL(2,8) x S_3 at (9,4), M11 x 1 at (11,4),
# PGL(2,7) x 1 at (8,3); S_5 x 1 at (6,3) has the right order, but (4 5)
# fixes [1,2,3]; the rest have the wrong order
@pytest.mark.parametrize("h,n,k,t", [
    ("S4", 4, 2, "1"), ("S5fix6", 6, 3, "1"), ("S5fix6", 6, 3, "S"),
    ("PSL(2,8)", 9, 3, "1"), ("PSL(2,8)", 9, 3, "S"),
    ("PSL(2,8)", 9, 4, "1"), ("PSL(2,8)", 9, 4, "S"), ("PSL(2,8)", 9, 4, "C"),
    ("PSL(2,8)", 9, 5, "1"), ("PSL(2,8)", 9, 5, "S"), ("PSL(2,8)", 9, 5, "C"),
    ("M11", 11, 2, "1"), ("M11", 11, 3, "1"), ("M11", 11, 3, "S"),
    ("M11", 11, 4, "1"), ("M11", 11, 4, "S"), ("M11", 11, 4, "C"),
    ("M11", 11, 5, "1"), ("M11", 11, 5, "C"),
    ("PGL(2,7)", 8, 2, "1"), ("PGL(2,7)", 8, 3, "1"), ("PGL(2,7)", 8, 3, "S"),
    ("PGL(2,7)", 8, 4, "1"), ("PGL(2,7)", 8, 4, "S"), ("PGL(2,7)", 8, 4, "C"),
    ("PGL(2,7)", 8, 5, "1"), ("PGL(2,7)", 8, 5, "S"), ("PGL(2,7)", 8, 5, "C"),
])
def test_counted_sabidussi_matches_the_rank_pass(h, n, k, t):
    product = PairGroup.direct_product(_FACTORS[h](), k, _nu_factor(t, n, k))
    expected, fixers = _sabidussi_by_ranks(product, n, k)
    assert product.base_stabilizer_order() == fixers
    assert _booleans(sabidussi_direct(product, n, k)) == expected


def test_rank_oracle_sees_regular_and_non_regular_groups():
    regular = PairGroup.direct_product(psl2(8), 4, symmetric_nu_group(9, 4))
    assert _sabidussi_by_ranks(regular, 9, 4) == ((True, True, True), 1)
    same_order = PairGroup.direct_product(_s5_fixing_6(), 3)
    assert _sabidussi_by_ranks(same_order, 6, 3) == ((True, False, False), 2)


@st.composite
def _generating_pairs(draw):
    """A star graph with n <= 7 and one to three generating pairs; either
    every pair has mu = 1 or nu = 1 (a product), or the sides mix freely."""
    n = draw(st.integers(4, 7))
    k = draw(st.integers(2, 3 if n == 7 else min(4, n - 2)))
    mixed = draw(st.booleans())
    identity = Perm.identity(n)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mu = Perm(draw(st.permutations(range(1, n + 1))))
        nu = Perm((1,) + tuple(draw(st.permutations(range(2, k + 1))))
                  + tuple(range(k + 1, n + 1)))
        if not mixed:
            mu, nu = (mu, identity) if draw(st.booleans()) else (identity, nu)
        gens.append(AutPair(mu, nu))
    return n, k, gens


@settings(max_examples=60, deadline=None)
@given(_generating_pairs())
def test_counted_sabidussi_matches_the_rank_pass_on_random_pairs(case):
    n, k, gens = case
    group = PairGroup.generate(n, k, gens)
    expected, fixers = _sabidussi_by_ranks(group, n, k)
    assert group.base_stabilizer_order() == fixers
    assert _booleans(sabidussi_direct(group, n, k)) == expected


@pytest.mark.parametrize("n,k", [(33, 4), (12, 5), (9, 6)])
def test_yes_case_certify_and_check_list_no_elements(monkeypatch, n, k):
    def refuse(*args, **kwargs):
        raise AssertionError("a group's elements were listed")

    monkeypatch.setattr(StabChain, "elements", refuse)
    # the witness groups are cached, and may have listed their elements in
    # an earlier test
    monkeypatch.setattr(PermGroup, "elements", property(refuse))
    cert = build_certificate(n, k)
    assert cert.verdict == "Cayley" and cert.method == "DirectRegularAction"
    reproduced, fresh = verify_certificate(Certificate.from_json(cert.to_json()))
    assert reproduced, fresh


# ---------------------------------------------------------------------------
# the transversal search, against the classification


@pytest.mark.parametrize("n,k", [(n, k) for n in range(3, 9) for k in range(1, n)])
def test_search_matches_the_classification(n, k):
    # (8,6) has |S_8 x S_5| = 4,838,400 over the default cap, and (8,7)
    # 29,030,400; the search lists no pair of them
    cert = search_regular_subgroup(n, k, cap=10**7)
    expected = "Cayley" if classify(n, k).is_cayley else "NotCayley"
    assert cert.verdict == expected and cert.all_passed()
    reproduced, fresh = verify_certificate(Certificate.from_json(cert.to_json()), cap=10**7)
    assert reproduced, fresh


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (7, 2)])
def test_search_up_to_conjugacy_matches_the_full_search(n, k):
    # refutations by the two-generator search, with its first generator up
    # to conjugacy or not, replay alike: reproduced where no regular subgroup
    # exists; otherwise a hit when P(n,k) is square-free, as the older search
    # found too, and no check at all when it is not
    square_free = all(e == 1 for _, e in verdicts.factorize(math.perm(n, k)))
    for variant in ("generator_sets_up_to_2_closed_up_to_conjugacy",
                    "all_generating_sets_up_to_2_generators_closed"):
        old = _two_generator_refutation(n, k, variant)
        reproduced, fresh = verify_certificate(Certificate.from_json(old.to_json()))
        assert reproduced == (not classify(n, k).is_cayley)
        if reproduced:
            assert fresh.checks == old.checks
        elif square_free:
            assert fresh.verdict == "Cayley" and fresh.method == "DirectRegularAction"
        else:
            assert fresh.checks == () and "not square-free" in fresh.notes[0]


@pytest.mark.parametrize("n,k,classes", [(6, 2, 5), (7, 3, 16), (6, 4, 27)])
def test_representatives_are_the_first_candidate_of_each_class(n, k, classes):
    # the classes the search keeps, decided as its cosets meet them, are
    # exactly those whose first candidates the lex scan took as representatives
    representatives = []
    _candidates(n, k, representatives)
    _, decided = _streamed(n, k)
    kept = {(mu_type, cycle_type(pairs_mod._nu_of_tail(tail, n)[:k]))
            for (mu_type, tail), keep in decided.keep.items() if keep}
    types = {(cycle_type(flat[:n]), cycle_type(AutPair.from_flat(flat, n).nu.images[:k]))
             for flat in representatives}
    assert kept == types
    assert len(representatives) == classes


def _base_images(n, k, generators):
    """Oracle: the vertices the group of the flat generators maps [1..k] to."""
    identity = tuple(range(1, n + k))
    group = chain_mod.orbit([identity], generators) if generators else {identity}
    return {AutPair.from_flat(g, n).apply(range(1, k + 1)) for g in group}


def test_refutation_branches_over_the_coset_of_each_missed_vertex(monkeypatch):
    n, k = 6, 2
    closures = []
    orbit = search_mod.orbit

    def counting(starts, gens, **kwargs):
        closures.append(gens)
        return orbit(starts, gens, **kwargs)

    monkeypatch.setattr(search_mod, "orbit", counting)
    assert search_regular_subgroup(n, k).verdict == "NotCayley"
    vertices = list(itertools.permutations(range(1, n + 1), k))
    candidates = set(_candidates(n, k))
    for gens in closures:
        # the last generator maps [1..k] to the first vertex, in rank order,
        # that the group of the others misses
        *others, c = gens
        covered = _base_images(n, k, others)
        missed = next(v for v in vertices if v not in covered)
        assert c in candidates
        assert AutPair.from_flat(c, n).apply(range(1, k + 1)) == missed
    # from {1} the search branches over the whole coset of (1,3)
    first = [gens for gens in closures if len(gens) == 1]
    assert first == [(c,) for c in search_mod._coset(n, k, (1, 3), candidates, _no_clock)]
    # a group is grown once: the generators before the last, over all
    # closures, generate distinct groups
    identity = tuple(range(1, n + k))
    grown = {gens[:-1] for gens in closures if len(gens) > 1}
    assert len({frozenset(chain_mod.orbit([identity], g)) for g in grown}) == len(grown)
    assert len(closures) == 77


def test_8_3_hit_keeps_no_redundant_generator_and_types_few_pairs(monkeypatch):
    # tests/data/hit-8-3.json is `certify 8 3 --force-search` as written by the
    # two-generator search, which typed all 80,640 pairs of S_8 x S_2 at first
    text = (Path(__file__).parent / "data" / "hit-8-3.json").read_text()
    assert verify_certificate(Certificate.from_json(text))[0]
    typed = []

    def spy(images):
        typed.append(images)
        return cycle_type(images)

    monkeypatch.setattr(search_mod, "cycle_type", spy)
    cert = search_regular_subgroup(8, 3)
    assert cert.verdict == "Cayley" and cert.all_passed()
    assert cert.to_json() == json.dumps(cert.to_dict(), separators=(",", ":"))
    gens = [AutPair.from_dict(g) for g in cert.witness["generators"]]
    assert len(gens) == 3
    # the others generate a smaller group than all of them
    for i in range(len(gens)):
        assert PairGroup.generate(8, 3, gens[:i] + gens[i + 1:]).order < math.perm(8, 3)
    assert len(typed) < 15_000


def test_build_certificate_refutes_7_3_by_search():
    cert = build_certificate(7, 3)
    assert cert.verdict == "NotCayley"
    assert cert.method == "ExhaustiveSearchRefutation"
    assert cert.all_passed() and cert.notes == ()
    assert ("transversal_search_exhausted", True) in cert.checks
    reproduced, fresh = verify_certificate(Certificate.from_json(cert.to_json()))
    assert reproduced, fresh


def test_build_certificate_searches_exactly_the_gated_no_cases(monkeypatch):
    searched = []
    monkeypatch.setattr(search_mod, "search_regular_subgroup",
                        lambda n, k, **kwargs: searched.append((n, k)))
    for n in range(4, 35):
        for k in range(1, n):
            build_certificate(n, k)
    assert searched == [(6, 2), (7, 3), (7, 4), (8, 4), (8, 5)]
    assert set(searched) == verdicts.SEARCHED_NO_CASES


def test_refutation_without_the_reduction_replays_the_full_search(monkeypatch):
    text = (Path(__file__).parent / "data" / "refutation-6-2-full.json").read_text()
    calls = []
    search = search_mod.search_regular_subgroup

    def spy(*args, **kwargs):
        calls.append(set(kwargs))
        return search(*args, **kwargs)

    monkeypatch.setattr(search_mod, "search_regular_subgroup", spy)
    old = Certificate.from_json(text)
    reproduced, fresh = verify_certificate(old)
    assert reproduced and fresh.checks == old.checks
    new = search(6, 2)
    assert verify_certificate(new)[0]
    # both replays run the transversal search, and the full search's checks
    # are derived from it
    assert calls == [{"cap", "time_limit"}] * 2
    assert old == _two_generator_refutation(6, 2, "all_generating_sets_up_to_2_generators_closed")
    assert new.checks[:2] == old.checks[:2] and new.checks[3] == old.checks[3]
    assert new.checks[2] == ("transversal_search_exhausted", True) and new.notes == ()


def test_trivial_nu_factor_costs_one_base_image_sift(monkeypatch):
    # A_20 is sharply 18-transitive, and (1 2 3), (2 3 ... 20) generate it;
    # with nu = 1 the stabiliser count must not walk the 17! permutations of
    # 2..18: the one tail 21..37 is sifted with the prefix 1..18 it encodes
    n, k = 20, 18
    e = list(range(1, n + 1))
    three_cycle = [2, 3, 1] + e[3:]
    long_cycle = [1] + e[2:] + [2]
    cert = Certificate(n, k, "Cayley", "DirectRegularAction",
                       {"name": "A_20", "degree": n, "k": k,
                        "generators": [{"mu": three_cycle, "nu": e},
                                       {"mu": long_cycle, "nu": e}]},
                       (("order_equals_vertex_count", True),
                        ("base_vertex_stabilizer_trivial", True),
                        ("evaluation_map_bijective", True)))
    sifts = []
    has_base_image = StabChain.has_base_image

    def counting(chain, images):
        sifts.append(images)
        return has_base_image(chain, images)

    monkeypatch.setattr(StabChain, "has_base_image", counting)
    start = time.perf_counter()
    reproduced, fresh = verify_certificate(cert, cap=10**19)
    assert reproduced, fresh
    assert time.perf_counter() - start < 1.0
    assert sifts == [tuple(range(1, k + 1)) + tuple(range(n + 1, n + k))]
