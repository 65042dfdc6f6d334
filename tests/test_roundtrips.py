"""Hypothesis round trips of the serialised forms (Perm, AutPair,
Certificate), and a fuzz of Certificate.from_dict on arbitrary JSON."""

import json

from hypothesis import given, settings, strategies as st

from starcayley.verdicts import Certificate
from starcayley.pairs import AutPair
from starcayley.perm import Perm

# what cli.cmd_check reports as a malformed certificate (exit 2)
MALFORMED = (ValueError, KeyError, TypeError, AttributeError)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def pairs(draw):
    """A pair for the (n,k)-star graph: any mu, and nu on 2..k."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, n))
    mu = Perm(draw(st.permutations(range(1, n + 1))))
    nu = Perm((1,) + tuple(draw(st.permutations(range(2, k + 1))))
              + tuple(range(k + 1, n + 1)))
    return AutPair(mu, nu), k


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_perm_round_trips_through_its_list(images):
    p = Perm(images)
    assert p.to_list() == list(images)
    assert Perm(p.to_list()) == p
    assert Perm(json.loads(json.dumps(p.to_list()))) == p


@given(pairs())
def test_autpair_round_trips_through_dict_and_flat(case):
    pair, k = case
    assert AutPair.from_dict(json.loads(json.dumps(pair.to_dict()))) == pair
    flat = pair.flat(k)
    assert sorted(flat) == list(range(1, pair.degree + k))
    assert AutPair.from_flat(flat, pair.degree) == pair


certificates = st.builds(
    Certificate,
    n=st.integers(1, 40), k=st.integers(1, 40),
    verdict=st.sampled_from(["Cayley", "NotCayley", "Unknown"]),
    method=st.text(),
    witness=st.none() | st.dictionaries(st.text(), json_values, max_size=4),
    checks=st.lists(st.tuples(st.text(), st.booleans()), max_size=5).map(tuple),
    notes=st.lists(st.text(), max_size=3).map(tuple))


@given(certificates)
def test_certificate_round_trips_through_json(cert):
    assert Certificate.from_json(cert.to_json()) == cert
    # certificates were pretty-printed before they became compact
    assert Certificate.from_json(json.dumps(cert.to_dict(), indent=2)) == cert


# dicts with the certificate's keys reach past the first lookup
certificate_shaped = st.fixed_dictionaries(
    {}, optional={key: json_values | st.lists(json_values, max_size=3)
                  for key in ("n", "k", "verdict", "method", "witness", "checks", "notes")})
check_lists = st.fixed_dictionaries(
    {"n": st.integers(), "k": st.integers(), "verdict": st.text(), "method": st.text(),
     "checks": st.lists(st.dictionaries(st.sampled_from(["name", "pass", "x"]), json_values),
                        max_size=3)},
    optional={"notes": json_values})


@settings(max_examples=300)
@given(json_values | certificate_shaped | check_lists)
def test_certificate_from_dict_returns_or_raises_a_malformed_error(data):
    try:
        cert = Certificate.from_dict(data)
    except MALFORMED:
        return
    assert isinstance(cert, Certificate)
    assert isinstance(cert.checks, tuple) and isinstance(cert.notes, tuple)
