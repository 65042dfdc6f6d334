"""Automorphism pairs (mu, nu) of the (n,k)-star graph and subgroups of the
product S_n x S_{k-1}.

The second component nu is stored as a degree-n permutation that fixes 1 and
every point above k, i.e. it only rearranges {2, ..., k}.  A pair acts on a
vertex [a1, ..., ak] by

    [a1, ..., ak]  ->  [mu(a_{nu^-1(1)}), ..., mu(a_{nu^-1(k)})]

which is the first-k-coordinates view of the two-sided product mu a nu^-1.

Inside the package a pair is a *flat* tuple, a permutation of n+k-1 points:
mu on 1..n, and point n+i-1 -> n+nu(i)-1 for 2 <= i <= k.  S_n x S_{k-1} is
then a subgroup of S_{n+k-1} whose product is the permutation product, and
sorting flat tuples orders pairs by (mu, nu).  :class:`AutPair` is the
public, serialised view, built only at the boundary.
"""

from __future__ import annotations

import math
from math import lcm
from typing import Iterator, Sequence

from .perm import DEFAULT_ELEMENT_CAP, CapExceeded, Perm, PermGroup, orbit


def nu_is_admissible(nu: Perm, k: int) -> bool:
    """True iff nu fixes 1 and everything above k."""
    return nu.acts_within(range(2, k + 1))


class AutPair:
    """One automorphism of the (n,k)-star graph, as a pair (mu, nu)."""

    __slots__ = ("mu", "nu", "_hash")

    def __init__(self, mu: Perm, nu: Perm):
        if mu.degree != nu.degree:
            raise ValueError("mu and nu must share a degree")
        self.mu = mu
        self.nu = nu
        self._hash = hash((mu.images, nu.images))

    @classmethod
    def identity(cls, n: int) -> "AutPair":
        e = Perm.identity(n)
        return cls(e, e)

    @property
    def degree(self) -> int:
        return self.mu.degree

    def __mul__(self, other: "AutPair") -> "AutPair":
        return AutPair(self.mu * other.mu, self.nu * other.nu)

    def inverse(self) -> "AutPair":
        return AutPair(self.mu.inverse(), self.nu.inverse())

    def is_identity(self) -> bool:
        return self.mu.is_identity() and self.nu.is_identity()

    def order(self) -> int:
        return lcm(self.mu.order(), self.nu.order())

    def apply(self, vertex: Sequence[int]) -> tuple[int, ...]:
        """Image of a k-permutation vertex under this automorphism."""
        k = len(vertex)
        if not nu_is_admissible(self.nu, k):
            raise ValueError(
                f"nu moves points outside 2..{k}: {self.nu!r}")
        mu_img = self.mu.images
        nu_inv = self.nu.inverse().images
        return tuple(mu_img[vertex[nu_inv[i] - 1] - 1] for i in range(k))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AutPair) and self.mu == other.mu
                and self.nu == other.nu)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"AutPair({self.mu!r}, {self.nu!r})"

    def to_dict(self) -> dict:
        return {"mu": self.mu.to_list(), "nu": self.nu.to_list()}

    def flat(self, k: int) -> tuple[int, ...]:
        """The pair as one permutation of n+k-1 points (see the module notes)."""
        shift = self.degree - 1
        return self.mu.images + tuple(x + shift for x in self.nu.images[1:k])

    @classmethod
    def from_flat(cls, flat: tuple[int, ...], n: int) -> "AutPair":
        return cls(Perm._raw(flat[:n]), _nu_of_tail(flat[n:], n))

    @classmethod
    def from_dict(cls, data: dict) -> "AutPair":
        return cls(Perm(data["mu"]), Perm(data["nu"]))


class PairGroup:
    """A subgroup of S_n x S_{k-1}, the automorphism group of the star graph.

    Two storage shapes share one interface:

    * explicit: every pair held as a sorted flat tuple (closures, search
      results);
    * product: factor element lists (mus x nus), iterated lazily, used for
      direct products like H x S_{k-1} whose pair set can be large.

    A third, generator-level shape keeps only generators and the known order;
    iterating it raises :class:`CapExceeded`.
    """

    __slots__ = ("n", "k", "name", "generators", "_flats", "_mus", "_nus", "order")

    def __init__(self, n: int, k: int, *, generators=None, flats=None,
                 mus=None, nus=None, order=None, name=None):
        self.n = n
        self.k = k
        self.name = name
        self.generators = tuple(generators) if generators else None
        self._flats = tuple(flats) if flats is not None else None
        self._mus = tuple(mus) if mus is not None else None
        self._nus = tuple(nus) if nus is not None else None
        if self._flats is not None:
            self.order = len(self._flats)
        elif self._mus is not None:
            self.order = len(self._mus) * len(self._nus)
        elif order is not None:
            self.order = order
        else:
            raise ValueError("need pairs, factors, or an explicit order")

    # -- constructors -------------------------------------------------------

    @classmethod
    def direct_product(cls, mu_group: PermGroup, k: int,
                       nu_group: PermGroup | None = None,
                       name: str | None = None) -> "PairGroup":
        """All pairs (mu, nu) with mu from mu_group and nu from nu_group.

        With nu_group omitted the nu side is trivial, giving {(mu, 1)}.
        """
        n = mu_group.degree
        if nu_group is None:
            nu_group = PermGroup.trivial(n)
        if nu_group.degree != n:
            raise ValueError("factor degrees differ")
        for nu in nu_group.generators:
            if not nu_is_admissible(nu, k):
                raise ValueError(f"nu generator moves points outside 2..{k}")
        e = Perm.identity(n)
        gens = tuple(AutPair(g, e) for g in mu_group.generators)
        gens += tuple(AutPair(e, s) for s in nu_group.generators
                      if not s.is_identity())
        if not gens:
            gens = (AutPair.identity(n),)
        if name is None:
            name = mu_group.name or "H"
            if nu_group.order > 1:
                name = f"{name} x S_{k - 1}"
        return cls(n, k, generators=gens, mus=mu_group.elements,
                   nus=nu_group.elements, name=name)

    @classmethod
    def generate(cls, n: int, k: int, generators: Sequence[AutPair],
                 cap: int = DEFAULT_ELEMENT_CAP, name=None) -> "PairGroup":
        """Breadth-first closure of generating pairs, as flat tuples."""
        for g in generators:
            if g.degree != n or not nu_is_admissible(g.nu, k):
                raise ValueError(f"{g!r} is not a pair for the ({n},{k})-star graph")
        flats = orbit([tuple(range(1, n + k))], [g.flat(k) for g in generators],
                      limit=cap)
        if flats is None:
            raise CapExceeded(f"pair closure exceeded cap={cap}")
        return cls(n, k, generators=tuple(generators), flats=sorted(flats),
                   name=name)

    @classmethod
    def generator_level(cls, n: int, k: int, generators: Sequence[AutPair],
                        order: int, name=None) -> "PairGroup":
        return cls(n, k, generators=tuple(generators), order=order, name=name)

    # -- queries -------------------------------------------------------------

    @property
    def is_enumerable(self) -> bool:
        return self._flats is not None or self._mus is not None

    def iter_pairs(self) -> Iterator[AutPair]:
        if self._flats is not None:
            return (AutPair.from_flat(f, self.n) for f in self._flats)
        if self._mus is not None:
            return (AutPair(mu, nu) for nu in self._nus for mu in self._mus)
        raise CapExceeded(
            f"group of order {self.order} held at generator level; "
            "enumeration was declined at construction")

    def grouped_by_nu(self) -> list[tuple[Perm, Sequence[tuple[int, ...]]]]:
        """(nu, image tuples of its mus) buckets, by nu; cheap for products."""
        if self._mus is not None:
            mus = [mu.images for mu in self._mus]
            return [(nu, mus) for nu in self._nus]
        n = self.n
        buckets: dict[tuple, list[tuple]] = {}
        for f in self._flats:
            buckets.setdefault(f[n:], []).append(f[:n])
        return [(_nu_of_tail(tail, n), mus)
                for tail, mus in sorted(buckets.items())]

    def __iter__(self) -> Iterator[AutPair]:
        return self.iter_pairs()

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.name or "PairGroup"
        return f"<{label} <= S_{self.n} x S_{self.k - 1}: order {self.order}>"


def _nu_of_tail(tail: tuple[int, ...], n: int) -> Perm:
    """nu as a degree-n permutation, from the flat images of points n+1.."""
    return Perm._raw((1,) + tuple(x - n + 1 for x in tail)
                     + tuple(range(len(tail) + 2, n + 1)))


def symmetric_nu_group(n: int, k: int) -> PermGroup:
    """S_{k-1} realized inside S_n as the permutations of {2, ..., k}."""
    if k < 2:
        return PermGroup.trivial(n)
    return PermGroup.symmetric_on(range(2, k + 1), n, name=f"S_{k - 1}")


def aut_order(n: int, k: int) -> int:
    """|S_n x S_{k-1}| = n! (k-1)!, for the star graphs with k >= 2, n >= k+2."""
    if k < 2 or n < k + 2:
        raise ValueError(f"need k >= 2 and n >= k+2, got ({n},{k})")
    return math.factorial(n) * math.factorial(k - 1)


def aut_product(n: int, k: int, cap: int = DEFAULT_ELEMENT_CAP) -> PairGroup:
    """The full automorphism group S_n x S_{k-1} of the (n,k)-star graph.

    Enumerated when n!(k-1)! fits under the cap; otherwise returned at
    generator level with its order only.
    """
    order = aut_order(n, k)
    if order <= cap:
        return PairGroup.direct_product(
            PermGroup.symmetric(n), k, symmetric_nu_group(n, k),
            name=f"S_{n} x S_{k - 1}")
    e = Perm.identity(n)
    gens = [AutPair(Perm.transposition(n, 1, 2), e),
            AutPair(Perm.from_cycles(n, tuple(range(1, n + 1))), e)]
    if k > 2:
        gens.append(AutPair(e, Perm.transposition(n, 2, 3)))
        gens.append(AutPair(e, Perm.from_cycles(n, tuple(range(2, k + 1)))))
    return PairGroup.generator_level(n, k, gens, order, name=f"S_{n} x S_{k - 1}")


def project_and_kernel(group: PairGroup) -> tuple[PermGroup, PermGroup]:
    """Split a pair group into its first-component image H and kernel part T.

    H collects the distinct mu components; T collects the nu components of
    pairs whose mu is the identity.  |H| * |T| = |G| is asserted, which is
    the first-isomorphism-theorem bookkeeping for the projection onto S_n.
    """
    n = group.n
    mus: set[Perm] = set()
    kernel_nus: set[Perm] = set()
    for pair in group.iter_pairs():
        mus.add(pair.mu)
        if pair.mu.is_identity():
            kernel_nus.add(pair.nu)
    h = PermGroup.from_elements(mus, n, name=f"pi1({group.name or 'G'})")
    t = PermGroup.from_elements(kernel_nus, n, name=f"ker({group.name or 'G'})")
    if h.order * t.order != group.order:
        raise AssertionError(
            f"|H| * |T| = {h.order} * {t.order} != |G| = {group.order}")
    return h, t
