import pytest

from starcayley.gf import Field, SemilinearMap, _is_irreducible, field, smallest_irreducible


def test_pinned_moduli():
    # the two binary fields of the sporadic witnesses reduce by their smallest
    # irreducibles, z^3 = z + 1 and z^5 = z^2 + 1, which certificates depend on
    f8 = field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)
    z = 2
    assert f8.mul(f8.mul(z, z), z) == 0b011  # z+1

    f32 = field(2, 5)
    assert f32.modulus == (1, 0, 1, 0, 0, 1)
    assert f32.pow(z, 5) == 0b101  # z^2+1


def test_default_modulus_is_smallest_irreducible():
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)
    assert smallest_irreducible(2, 5) == (1, 0, 1, 0, 0, 1)
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1 over GF(3)


def test_reducible_modulus_rejected():
    # x^3 + 1 = (x+1)(x^2+x+1) is passed over for x^3 + x + 1
    assert not _is_irreducible((1, 0, 0, 1), 2)
    assert _is_irreducible((1, 1, 0, 1), 2)
    with pytest.raises(ValueError):
        Field(4, 1)  # 4 is not prime


def test_inverses_exhaustive_gf8():
    f = field(2, 3)
    for x in range(1, 8):
        assert f.mul(x, f.inv(x)) == 1


def test_field_axioms_sampled_gf32():
    f = field(2, 5)
    elems = range(f.q)
    for x in elems[::3]:
        for y in elems[::5]:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in elems[::7]:
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
                assert f.mul(x, f.mul(y, z)) == f.mul(f.mul(x, y), z)


def test_frobenius_is_automorphism_of_order_m():
    f = field(2, 5)
    for x in range(f.q):
        for y in range(f.q):
            assert f.frobenius(f.mul(x, y)) == f.mul(f.frobenius(x), f.frobenius(y))
    for x in range(f.q):
        assert f.frobenius(x, 5) == x


def test_frobenius_orbit_of_z_in_gf32():
    # z^(2^e) for e = 0..4, reduced: z, z^2, z^4, z^3+z^2+1, z^4+z^3+z+1
    f = field(2, 5)
    z = 2
    orbit = [f.frobenius(z, e) for e in range(5)]
    assert orbit == [0b00010, 0b00100, 0b10000, 0b01101, 0b11011]


def test_odd_characteristic_field():
    f = field(3, 2)
    assert f.q == 9
    g = f.primitive_element()
    assert _brute_order(f, g) == 8
    for x in range(1, 9):
        assert f.mul(x, f.inv(x)) == 1


def test_to_images_is_a_permutation_of_the_line():
    for f in (field(2, 3), field(3, 2), field(2, 5)):
        q, g = f.q, f.primitive_element()
        for args in [(1, 1, 0, 1), (g, 0, 0, 1), (0, 1, 1, 0), (1, g, 1, 0),
                     (g, 1, 1, 0, 1)]:
            assert sorted(SemilinearMap(f, *args).to_images()) == list(range(1, q + 2)), args


def test_to_images_deterministic():
    # the cached field and a fresh one induce the same maps
    fresh = Field(2, 3)
    assert fresh is not field(2, 3) and fresh == field(2, 3)
    for args in [(0, 1, 1, 0), (2, 1, 1, 3, 2)]:
        assert (SemilinearMap(field(2, 3), *args).to_images()
                == SemilinearMap(fresh, *args).to_images())


def test_semilinear_map_validation():
    f = field(2, 3)
    with pytest.raises(ValueError):
        SemilinearMap(f, 1, 1, 1, 1)  # determinant zero


def test_semilinear_map_is_an_immutable_record():
    f = field(2, 3)
    m = SemilinearMap(f, 1, 1, 0, 1, f.m + 1)  # x -> x^2 + 1
    assert m.frob_exp == 1 and SemilinearMap(f, 1, 1, 0, 1).frob_exp == 0
    same = SemilinearMap(f, 1, 1, 0, 1, 1)
    assert m == same and hash(m) == hash(same)
    assert m != SemilinearMap(f, 1, 1, 0, 1) and len({m, same, SemilinearMap(f, 1, 1, 0, 1)}) == 2
    assert SemilinearMap(field=f, a=1, b=1, c=0, d=1, frob_exp=4) == same
    with pytest.raises(ValueError, match="^singular matrix$"):
        SemilinearMap(f, 2, 4, 1, 2)
    with pytest.raises(AttributeError):
        m.frob_exp = 0


def test_semilinear_action():
    # points 1..q are the element codes 0..q-1, point q+1 is infinity
    for f in (field(2, 3), field(3, 2)):
        q, g = f.q, f.primitive_element()
        inv = SemilinearMap(f, 0, 1, 1, 0).to_images()  # x -> 1/x
        assert inv[0] == q + 1 and inv[q] == 1 and inv[1] == 2
        assert all(inv[x] == f.inv(x) + 1 for x in range(1, q))
        shift = SemilinearMap(f, 1, 1, 0, 1).to_images()  # x -> x + 1
        assert shift[q] == q + 1
        assert all(shift[x] == f.add(x, 1) + 1 for x in range(q))
        frob = SemilinearMap(f, g, 1, 0, 1, 1).to_images()  # x -> g x^p + 1
        assert frob[q] == q + 1
        assert all(frob[x] == f.add(f.mul(g, f.pow(x, f.p)), 1) + 1 for x in range(q))
        # x -> x^p / (x^p + 1): infinity goes to a/c = 1, and x^p = -1 to infinity
        mobius = SemilinearMap(f, 1, 0, 1, 1, 1).to_images()
        assert mobius[q] == 2 and mobius[f.neg(1)] == q + 1


def test_upper_triangular_flag_fixers_gf8():
    # among the maps x -> a x + b fixing infinity, only the identity keeps
    # {0, 1, z} invariant as a set: the explicit case analysis behind the
    # (5,3,1)-freeness of the determinant-1 projective action
    f = field(2, 3)
    z = 2
    block = {0, 1, z}
    fixers = []
    for a in range(1, 8):
        for b in range(8):
            image = {f.add(f.mul(a, x), b) for x in block}
            if image == block:
                fixers.append((a, b))
    assert fixers == [(1, 0)]


def test_upper_triangular_flag_fixers_gf32_semilinear():
    # same computation over GF(32) but allowing a Frobenius twist: all six
    # assignments force a contradiction except alpha=1, beta=0, twist=0
    f = field(2, 5)
    z = 2
    block = {0, 1, z}
    fixers = []
    for e in range(5):
        for a in range(1, 32):
            for b in range(32):
                image = {f.add(f.mul(a, f.frobenius(x, e)), b) for x in block}
                if image == block:
                    fixers.append((a, b, e))
    assert fixers == [(1, 0, 0)]


ORACLE_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (31, 1), (2, 5)]


@pytest.mark.parametrize("p,m", ORACLE_FIELDS, ids=lambda v: str(v))
def test_log_table_products_match_polynomial_products(p, m):
    f = field(p, m)
    for x in range(f.q):
        for y in range(f.q):
            assert f.mul(x, y) == f._mul_slow(x, y), (x, y)


def _brute_order(f: Field, x: int) -> int:
    o, y = 1, x
    while y != 1:
        y = f._mul_slow(y, x)
        o += 1
    return o


@pytest.mark.parametrize("p,m", ORACLE_FIELDS, ids=lambda v: str(v))
def test_primitive_element_is_the_smallest_of_full_order(p, m):
    f = field(p, m)
    g = next(x for x in range(1, f.q) if _brute_order(f, x) == f.q - 1)
    assert f.primitive_element() == g


@pytest.mark.parametrize("p,m", ORACLE_FIELDS, ids=lambda v: str(v))
def test_inverse_power_and_frobenius_match_repeated_products(p, m):
    f = field(p, m)
    for x in range(1, f.q):
        assert f._mul_slow(x, f.inv(x)) == 1
        y = 1
        for e in range(2 * f.q):
            assert f.pow(x, e) == y
            y = f._mul_slow(y, x)
        assert f.frobenius(x) == f.pow(x, p)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0 and f.frobenius(0) == 0


def test_field_above_the_old_table_cap():
    f = Field(1031, 1)
    assert f.q == 1031
    for x in range(1, f.q):
        assert f.mul(x, f.inv(x)) == 1
    assert f.add(1030, 2) == 1 and f.sub(0, 1) == 1030 and f.neg(5) == 1026
