"""Automorphism pairs (mu, nu) of the (n,k)-star graph and subgroups of the
product S_n x S_{k-1}.

The second component nu is stored as a degree-n permutation that fixes 1 and
every point above k, i.e. it only rearranges {2, ..., k}.  A pair acts on a
vertex [a1, ..., ak] by

    [a1, ..., ak]  ->  [mu(a_{nu^-1(1)}), ..., mu(a_{nu^-1(k)})]

which is the first-k-coordinates view of the two-sided product mu a nu^-1.

Closures and the search treat a pair as a *flat* tuple, a permutation of
n+k-1 points: mu on 1..n, and point n+i-1 -> n+nu(i)-1 for 2 <= i <= k.
S_n x S_{k-1} is then a subgroup of S_{n+k-1} whose product is the
permutation product, and sorting flat tuples orders pairs by (mu, nu).  The
search in :mod:`starcayley.search` slices flat pairs at n too: in
``_coset``, which builds them, in ``_ByClass.__contains__``, which types
them, and in the ``images`` getters of ``search_regular_subgroup``, which
read a pair's image of [1..k] off its tail.  A :class:`PairGroup`, a direct
product H x T included, is one stabiliser chain on the flat points, and
lists no pair.  A pair fixes the base vertex [1..k] iff mu(j) = nu(j) for
j <= k.  The elements of a chain that map its first base points to given
images are none or one coset of the pointwise stabiliser of those points, so
the pairs fixing [1..k] are counted as that stabiliser's order times the
number of wanted images some element has.  :class:`AutPair` is the public,
serialised view, built only at the boundary.
"""

from __future__ import annotations

import math
from math import lcm
from typing import Iterator, Sequence

from .chain import StabChain, orbit
from .perm import DEFAULT_ELEMENT_CAP, CapExceeded, Perm, PermGroup, closure


def nu_is_admissible(nu: Perm, k: int) -> bool:
    """True iff nu fixes 1 and everything above k."""
    return all(x == i or 2 <= i <= k for i, x in enumerate(nu.images, 1))


class AutPair:
    """One automorphism of the (n,k)-star graph, as a pair (mu, nu)."""

    __slots__ = ("mu", "nu", "_hash")

    def __init__(self, mu: Perm, nu: Perm):
        if mu.degree != nu.degree:
            raise ValueError("mu and nu must share a degree")
        self.mu = mu
        self.nu = nu
        self._hash = hash((mu.images, nu.images))

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
        return self.mu.images + nu_tail(self.nu.images[1:k], self.degree)

    @classmethod
    def from_flat(cls, flat: tuple[int, ...], n: int) -> "AutPair":
        return cls(Perm._raw(flat[:n]), Perm._raw(_nu_of_tail(flat[n:], n)))

    @classmethod
    def from_dict(cls, data: dict) -> "AutPair":
        return cls(Perm(data["mu"]), Perm(data["nu"]))


class PairGroup:
    """A subgroup of S_n x S_{k-1}, the automorphism group of the star graph,
    held as one :class:`StabChain` on the n+k-1 flat points, on the base
    1..k, n+1..n+k-1, then the rest, which gives the order and membership.
    Every group, a direct product H x T included, is made by :meth:`generate`,
    so ``certify`` builds the very chain that ``check`` rebuilds from the
    certificate.  No pair is listed; :meth:`iter_pairs` builds them on
    demand.  :class:`AutPair` objects are built only by :meth:`iter_pairs`
    and for the generators.
    """

    __slots__ = ("n", "k", "name", "generators", "_chain", "order")

    def __init__(self, n: int, k: int, generators: Sequence[AutPair],
                 name: str | None, chain: StabChain):
        self.n = n
        self.k = k
        self.name = name
        self.generators = tuple(generators)
        self._chain = chain
        self.order = chain.order()

    # -- constructors -------------------------------------------------------

    @classmethod
    def direct_product(cls, mu_group: PermGroup, k: int,
                       nu_group: PermGroup | None = None,
                       name: str | None = None) -> "PairGroup":
        """All pairs (mu, nu) with mu from mu_group and nu from nu_group,
        generated by the pairs (g, 1) and (1, s).

        With nu_group omitted the nu side is trivial, giving {(mu, 1)}.  Only
        the factors' generators are read, so neither factor is closed on its
        own.  The chain has no element cap: the callers know the product's
        order before they build it.
        """
        n = mu_group.degree
        e = Perm.identity(n)
        nus = [] if nu_group is None else [s for s in nu_group.generators if not s.is_identity()]
        if name is None:
            name = mu_group.name or "H"
            if nus:
                name = f"{name} x S_{k - 1}"
        gens = [AutPair(g, e) for g in mu_group.generators] + [AutPair(e, s) for s in nus]
        return cls.generate(n, k, gens, cap=math.inf, name=name)

    @classmethod
    def generate(cls, n: int, k: int, generators: Sequence[AutPair],
                 cap: int = DEFAULT_ELEMENT_CAP, name=None) -> "PairGroup":
        """The group the pairs generate, closed as one :class:`StabChain` on
        the flat points, on the base 1..k, n+1..n+k-1, then the rest."""
        for g in generators:
            if g.degree != n or not nu_is_admissible(g.nu, k):
                raise ValueError(f"{g!r} is not a pair for the ({n},{k})-star graph")
        chain = StabChain(n + k - 1, [g.flat(k) for g in generators],
                          tuple(range(1, k + 1)) + tuple(range(n + 1, n + k)), cap)
        return cls(n, k, generators, name, chain)

    # -- queries -------------------------------------------------------------

    def _tails(self) -> set[tuple]:
        """The flat images of n+1..n+k-1 under the pairs: the orbit of that
        tuple under the flat generators, at most (k-1)! tuples."""
        n, k = self.n, self.k
        if k == 1:
            return {()}
        return orbit([tuple(range(n + 1, n + k))], [g.flat(k) for g in self.generators])

    def base_stabilizer_order(self) -> int:
        """How many pairs fix the base vertex [1..k], counted by cosets (see
        the module notes).  The wanted images of the first 2k-1 base points
        are pi(tau) + tau for each tail tau, where pi(tau) is the nu that tau
        encodes, read on 1..k."""
        n, k, chain = self.n, self.k, self._chain
        wanted = (_nu_of_tail(tail, n)[:k] + tail for tail in self._tails())
        return chain.order(2 * k - 1) * sum(map(chain.has_base_image, wanted))

    def iter_pairs(self) -> Iterator[AutPair]:
        """Every pair as an :class:`AutPair`, in the order of
        :meth:`StabChain.elements`: by the images of the base points
        1..k, n+1..n+k-1, then the rest."""
        return (AutPair.from_flat(f, self.n) for f in self._chain.elements())

    def __iter__(self) -> Iterator[AutPair]:
        return self.iter_pairs()

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.name or "PairGroup"
        return f"<{label} <= S_{self.n} x S_{self.k - 1}: order {self.order}>"


def nu_tail(nu: Sequence[int], n: int) -> tuple[int, ...]:
    """The flat images of points n+1.., from nu's images of 2..k."""
    return tuple(x + n - 1 for x in nu)


def _nu_of_tail(tail: tuple[int, ...], n: int) -> tuple[int, ...]:
    """nu as a degree-n image tuple, from the flat images of points n+1.."""
    return ((1,) + tuple(x - n + 1 for x in tail)
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

    Raises :class:`CapExceeded` when n!(k-1)! exceeds the cap;
    :func:`aut_order` gives the order without building the group.
    """
    order = aut_order(n, k)
    if order > cap:
        raise CapExceeded(f"|S_{n} x S_{k - 1}| = {order} exceeds cap={cap}")
    return PairGroup.direct_product(
        PermGroup.symmetric(n), k, symmetric_nu_group(n, k),
        name=f"S_{n} x S_{k - 1}")


def project_and_kernel(group: PairGroup) -> tuple[PermGroup, PermGroup]:
    """Split a pair group into its first-component image H and kernel part T.

    H is generated by the generators' mu components; T collects the nu
    components of pairs whose mu is the identity, the tails tau whose flat
    pair (1..n) + tau lies in the chain.  |H| * |T| = |G| is asserted, which
    is the first-isomorphism-theorem bookkeeping for the projection onto
    S_n.
    """
    n, label = group.n, group.name or "G"
    identity = tuple(range(1, n + 1))
    h = closure([g.mu for g in group.generators] or [Perm._raw(identity)],
                name=f"pi1({label})")
    kernel_nus = [_nu_of_tail(tail, n) for tail in group._tails()
                  if identity + tail in group._chain]
    t = PermGroup.from_elements(kernel_nus, n, name=f"ker({label})")
    if h.order * t.order != group.order:
        raise AssertionError(
            f"|H| * |T| = {h.order} * {t.order} != |G| = {group.order}")
    return h, t
