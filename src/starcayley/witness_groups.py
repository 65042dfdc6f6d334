"""The explicit witness permutation groups: affine and projective (semi)linear
groups over small fields, affine groups over GF(2)^d, and the two sharply
transitive Mathieu groups.

Every cached constructor returns a :class:`~starcayley.perm.PermGroup`
acting on 1-based points, with its order verified on a stabiliser chain,
and imports :mod:`starcayley.perm` when called.  Each witness a certificate
closes also has an ``*_unclosed`` constructor (:func:`agl1_unclosed`,
:func:`pgl2_unclosed`, :func:`psl2_unclosed`, :func:`pgammal2_unclosed`,
:func:`mathieu11_unclosed`, :func:`mathieu12_unclosed`), which returns the
witness's name, its degree and its generators as image tuples, each checked
to be a permutation: the same list the cached constructor closes, with no
:class:`~starcayley.perm.Perm` built.  The certificate closes that group
once, on the chain whose order its checks compare with the closed form: a
pair group for the direct-product witnesses, and for (33,30) PGammaL(2,32)'s
own chain, which the flag check then walks.  Projective
groups act on the q+1 points of the projective line in the order of
:meth:`starcayley.gf.SemilinearMap.to_images` (finite points by element
code, infinity last); affine groups over GF(q) act on the q finite points in
the same order.  Groups are closed with no element cap: a stabiliser chain
stays polynomial in the degree whatever the order, each constructor checks
the order, and callers with an element budget compare it with the closed
form first (:func:`starcayley.verdicts.build_certificate`).

Constructors are cached: groups are immutable, so sharing is safe.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .chain import from_cycles, permutation
from .gf import Field, SemilinearMap, field_of_order


def _images_of(field: Field, a, b, c, d, frob_exp=0) -> tuple[int, ...]:
    return permutation(SemilinearMap(field, a, b, c, d, frob_exp).to_images())


def _affine_images(field: Field, a: int, b: int, frob_exp: int = 0) -> tuple[int, ...]:
    """x -> a x^s + b on the q finite points only: the semilinear map with
    c = 0, d = 1, which fixes infinity."""
    return permutation(SemilinearMap(field, a, b, 0, 1, frob_exp).to_images()[:field.q])


def _group(unclosed: tuple) -> PermGroup:
    """The group of an ``*_unclosed`` constructor's (name, degree,
    generators), its chain not built yet."""
    from .perm import Perm, PermGroup
    name, degree, gens = unclosed
    return PermGroup(degree, [*map(Perm._raw, gens)], name=name)


def _verified(group: PermGroup, order: int) -> PermGroup:
    """The group, once its order, read off its chain, matches the closed form
    (survives ``python -O``)."""
    if group.order != order:
        raise AssertionError(
            f"{group.name} has order {group.order}, expected {order}")
    return group


def pgl_order(q: int) -> int:
    return (q + 1) * q * (q - 1)


def psl_order(q: int) -> int:
    return pgl_order(q) // math.gcd(2, q - 1)


def pgammal_order(q: int) -> int:
    return pgl_order(q) * field_of_order(q).m


def agl1_order(q: int) -> int:
    return q * (q - 1)


def agammal1_order(q: int) -> int:
    return agl1_order(q) * field_of_order(q).m


def _pgl2_generators(f: Field) -> list[tuple[int, ...]]:
    g = f.primitive_element()
    return [_images_of(f, 1, 1, 0, 1),   # x -> x + 1
            _images_of(f, g, 0, 0, 1),   # x -> g x
            _images_of(f, 0, 1, 1, 0)]   # x -> 1/x


def _agl1_generators(f: Field) -> list[tuple[int, ...]]:
    return [_affine_images(f, 1, 1), _affine_images(f, f.primitive_element(), 0)]


def pgl2_unclosed(q: int) -> tuple[str, int, list[tuple[int, ...]]]:
    """PGL(2,q)'s name, degree and three generators, for a caller that
    closes the group once, on the chain whose order it checks."""
    return f"PGL(2,{q})", q + 1, _pgl2_generators(field_of_order(q))


def agl1_unclosed(q: int) -> tuple[str, int, list[tuple[int, ...]]]:
    """AGL(1,q)'s name, degree and two generators (see :func:`pgl2_unclosed`)."""
    return f"AGL(1,{q})", q, _agl1_generators(field_of_order(q))


def psl2_unclosed(q: int) -> tuple[str, int, list[tuple[int, ...]]]:
    """PSL(2,q)'s name, degree and generators (see :func:`pgl2_unclosed`).

    For even q the determinant-1 action coincides with PGL(2,q), and the
    generators are PGL(2,q)'s; only odd q gives the index-2 subgroup,
    generated by x -> x+1, x -> g^2 x and x -> -1/x, all of determinant 1.
    """
    f = field_of_order(q)
    if f.p == 2:
        gens = _pgl2_generators(f)
    else:
        g = f.primitive_element()
        gens = [_images_of(f, 1, 1, 0, 1),
                _images_of(f, f.mul(g, g), 0, 0, 1),
                _images_of(f, 0, f.neg(1), 1, 0)]
    return f"PSL(2,{q})", q + 1, gens


def pgammal2_unclosed(q: int) -> tuple[str, int, list[tuple[int, ...]]]:
    """PGammaL(2,q), PGL(2,q) extended by the Frobenius x -> x^p: its name,
    degree and generators (see :func:`pgl2_unclosed`)."""
    f = field_of_order(q)
    gens = _pgl2_generators(f)
    if f.m > 1:
        gens.append(_images_of(f, 1, 0, 0, 1, frob_exp=1))
    return f"PGammaL(2,{q})", q + 1, gens


@lru_cache(maxsize=None)
def pgl2(q: int) -> PermGroup:
    """PGL(2,q) acting on the q+1 points of the projective line."""
    return _verified(_group(pgl2_unclosed(q)), pgl_order(q))


@lru_cache(maxsize=None)
def psl2(q: int) -> PermGroup:
    """PSL(2,q) on the projective line (see :func:`psl2_unclosed`)."""
    return _verified(_group(psl2_unclosed(q)), psl_order(q))


@lru_cache(maxsize=None)
def pgammal2(q: int) -> PermGroup:
    """PGammaL(2,q) on the projective line."""
    return _verified(_group(pgammal2_unclosed(q)), pgammal_order(q))


@lru_cache(maxsize=None)
def agl1(q: int) -> PermGroup:
    """AGL(1,q): the maps x -> a x + b (a nonzero) on the q field points."""
    return _verified(_group(agl1_unclosed(q)), agl1_order(q))


@lru_cache(maxsize=None)
def agammal1(q: int) -> PermGroup:
    """AGammaL(1,q): AGL(1,q) extended by the Frobenius."""
    f = field_of_order(q)
    gens = _agl1_generators(f)
    if f.m > 1:
        gens.append(_affine_images(f, 1, 0, frob_exp=1))
    return _verified(_group((f"AGammaL(1,{q})", q, gens)), agammal1_order(q))


def _agl_d2_generators(d: int) -> list[Perm]:
    """The translation by e0, the cyclic coordinate shift and the
    transvection e1 -> e0 + e1, as permutations of GF(2)^d."""
    from .perm import Perm
    size = 1 << d

    def as_perm(f) -> Perm:
        return Perm(tuple(f(x) + 1 for x in range(size)))

    gens = [as_perm(lambda x: x ^ 1)]
    if d > 1:
        mask = size - 1
        gens.append(as_perm(lambda x: ((x << 1) | (x >> (d - 1))) & mask))
        gens.append(as_perm(lambda x: x ^ ((x >> 1) & 1)))
    return gens


@lru_cache(maxsize=None)
def agl(d: int) -> PermGroup:
    """AGL(d,2): affine maps v -> Av + b of GF(2)^d.

    Points are indexed 1 .. 2^d by the binary code of the vector plus one.
    The order check certifies that :func:`_agl_d2_generators` really
    generate the full group.
    """
    # numbers is imported here: no other witness needs it
    from .numbers import agl_d2_order
    from .perm import closure
    if d < 1:
        raise ValueError("need d >= 1")
    group = closure(_agl_d2_generators(d), cap=math.inf, name=f"AGL({d},2)")
    return _verified(group, agl_d2_order(d))


# ---------------------------------------------------------------------------
# Mathieu groups from embedded generator data.  The literals themselves are
# not trusted: each cached constructor certifies the sharp 4-/5-transitivity,
# and with it the order, before returning, so any corruption fails loudly at
# build time; a certificate closed from the unclosed group records it as a
# failed check.

_M11_GENERATORS = (
    ((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),),
    ((3, 7, 11, 8), (4, 10, 5, 6)),
)

_M12_EXTRA_GENERATOR = ((1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))


def mathieu11_unclosed() -> tuple[str, int, list[tuple[int, ...]]]:
    """M11's name, degree and two generators (see :func:`pgl2_unclosed`)."""
    return "M11", 11, [from_cycles(11, *cycs) for cycs in _M11_GENERATORS]


def mathieu12_unclosed() -> tuple[str, int, list[tuple[int, ...]]]:
    """M12's name, degree and generators, M11's on 12 points and one more
    (see :func:`pgl2_unclosed`)."""
    gens = [from_cycles(12, *cycs) for cycs in (*_M11_GENERATORS, _M12_EXTRA_GENERATOR)]
    return "M12", 12, gens


def _sharply_transitive(unclosed: tuple, k: int) -> PermGroup:
    from .perm import is_sharply_k_transitive
    group = _group(unclosed)
    if not is_sharply_k_transitive(group, k):
        raise AssertionError(f"embedded {group.name} generator data failed verification")
    return group


@lru_cache(maxsize=None)
def mathieu11() -> PermGroup:
    """The sharply 4-transitive Mathieu group on 11 points, order 7920."""
    return _sharply_transitive(mathieu11_unclosed(), 4)


@lru_cache(maxsize=None)
def mathieu12() -> PermGroup:
    """The sharply 5-transitive Mathieu group on 12 points, order 95040."""
    return _sharply_transitive(mathieu12_unclosed(), 5)
