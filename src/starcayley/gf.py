"""Finite fields GF(p^m) and the semilinear maps of their projective lines.

Field elements are encoded as integers 0 .. p^m - 1: the base-p digits of the
code, least significant first, are the coefficients of the polynomial residue.
For p = 2 this is the usual bitmask encoding.  Products, inverses and powers
read a logarithm table over the smallest primitive element; sums work on the
digits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .verdicts import is_prime, is_prime_power


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    # mod is monic of degree len(mod)-1
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm] + [0] * max(0, dm - len(a))


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2."""
    m = len(mod) - 1
    if m < 1 or mod[m] != 1:
        return False
    for deg in range(1, m // 2 + 1):
        for code in range(p ** deg):
            div = [(code // p ** i) % p for i in range(deg)] + [1]
            if all(c == 0 for c in _poly_rem(mod, div, p)):
                return False
    return True


def smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m with the smallest coefficient code."""
    if m == 1:
        return (0, 1)
    for code in range(p ** m):
        mod = tuple((code // p ** i) % p for i in range(m)) + (1,)
        if _is_irreducible(mod, p):
            return mod
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")


class Field:
    """GF(p^m) with integer-coded elements.

    Residues are reduced by :func:`smallest_irreducible`, the modulus.
    Built once from two tables of q entries: exp[i] = g^i for the smallest
    primitive element g (exp[q-1] = 1 again), and log, its inverse on the
    nonzero elements.  Multiplicative operations read these tables; addition
    works on the base-p digits.  Immutable once built.
    """

    def __init__(self, p: int, m: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** m
        self.p = p
        self.m = m
        self.q = q
        self.modulus = smallest_irreducible(p, m)
        # g = 1 has order 1, which is q - 1 only for q = 2
        for g in range(1, q):
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._mul_slow(x, g)
            if len(powers) == q - 1:
                break
        else:
            raise AssertionError("no multiplicative generator found")
        self._exp = powers + [1]
        self._log = [0] * q
        for i, x in enumerate(powers):
            self._log[x] = i

    # digit arithmetic: addition, and the products that fill the tables
    def _digits(self, x: int) -> list[int]:
        return [(x // self.p ** i) % self.p for i in range(self.m)]

    def _code(self, digits: Sequence[int]) -> int:
        v = 0
        for d in reversed(list(digits)):
            v = v * self.p + d % self.p
        return v

    def _mul_slow(self, x: int, y: int) -> int:
        prod = _poly_mul(self._digits(x), self._digits(y), self.p)
        return self._code(_poly_rem(prod, self.modulus, self.p))

    # public arithmetic
    def add(self, x: int, y: int) -> int:
        return self._code([a + b for a, b in zip(self._digits(x), self._digits(y))])

    def sub(self, x: int, y: int) -> int:
        return self._code([a - b for a, b in zip(self._digits(x), self._digits(y))])

    def neg(self, x: int) -> int:
        return self._code([-a for a in self._digits(x)])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[-self._log[x] % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            return 0 if e else 1
        return self._exp[self._log[x] * e % (self.q - 1)]

    def frobenius(self, x: int, e: int = 1) -> int:
        """x -> x^(p^e)."""
        return self.pow(x, self.p ** (e % self.m))

    def primitive_element(self) -> int:
        return self._exp[1]

    def element_name(self, x: int) -> str:
        """Readable polynomial form, e.g. 'z^2+z+1'."""
        if x == 0:
            return "0"
        terms = []
        for i in reversed(range(self.m)):
            c = (x // self.p ** i) % self.p
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"{c}{z}")
        return "+".join(terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(p: int, m: int) -> Field:
    return Field(p, m)


def field_of_order(q: int) -> Field:
    pm = is_prime_power(q)
    if pm is None:
        raise ValueError(f"{q} is not a prime power")
    return field(*pm)


# ---------------------------------------------------------------------------
# the projective line


class SemilinearMap(namedtuple("SemilinearMap", "field a b c d frob_exp")):
    """[x:y] -> [a x^s + b y^s : c x^s + d y^s] with s the frob_exp-th Frobenius power."""

    __slots__ = ()

    def __new__(cls, field: Field, a: int, b: int, c: int, d: int, frob_exp: int = 0):
        if field.sub(field.mul(a, d), field.mul(b, c)) == 0:
            raise ValueError("singular matrix")
        return super().__new__(cls, field, a, b, c, d, frob_exp % field.m)

    def to_images(self) -> tuple[int, ...]:
        """The induced permutation of the projective line in one-line notation.

        Point i <= q is [i-1 : 1], the element with code i-1, and point q+1
        is infinity [1 : 0]; [x:1] maps to [a x^s + b : c x^s + d] and
        [1:0] to [a : c].
        """
        f, a, b, c, d, s = self
        q = f.q
        images = []
        for x in range(q):
            xs = f.frobenius(x, s)
            den = f.add(f.mul(c, xs), d)
            images.append(q + 1 if den == 0 else f.div(f.add(f.mul(a, xs), b), den) + 1)
        images.append(q + 1 if c == 0 else f.div(a, c) + 1)
        return tuple(images)
