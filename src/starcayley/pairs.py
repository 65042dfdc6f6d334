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
number of wanted images some element has.

A :class:`PairGroup` holds its generators as flat tuples, and the
certificate and search routes build it from flat tuples alone
(:func:`flat_pair` reads and checks a pair given as image lists).
:class:`~starcayley.perm.AutPair`, the object view of one pair, lives with
the object API in :mod:`starcayley.perm`; ``pairs.AutPair`` still resolves.
It, and the constructors and queries here that take or give
:class:`~starcayley.perm.Perm` objects, import :mod:`starcayley.perm` when
called, so a route that certifies, checks or searches never compiles it.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from . import DEFAULT_ELEMENT_CAP, CapExceeded
from .chain import StabChain, from_cycles, orbit, permutation


def nu_is_admissible(nu: Sequence[int], k: int) -> bool:
    """True iff nu, an image tuple, fixes 1 and everything above k."""
    return all(x == i or 2 <= i <= k for i, x in enumerate(nu, 1))


def flat_pair(mu: Sequence[int], nu: Sequence[int] | None, n: int, k: int) -> tuple[int, ...]:
    """The pair (mu, nu), given as image lists, as one flat tuple.

    Raises ValueError unless mu is a permutation of 1..n and nu, None for
    the identity, one of 1..n that fixes 1 and every point above k.  The
    checks are plain ``if`` statements, which ``python -O`` keeps.
    """
    mu = permutation(mu)
    if len(mu) != n:
        raise ValueError(f"mu has degree {len(mu)}, not n={n}")
    if nu is None:
        return mu + tuple(range(n + 1, n + k))
    nu = permutation(nu)
    if len(nu) != n or not nu_is_admissible(nu, k):
        raise ValueError(f"nu {nu!r} is not a permutation of 1..{n} that fixes 1 "
                         f"and every point above k={k}")
    return mu + nu_tail(nu[1:k], n)


def __getattr__(name: str):
    # AutPair, the object view of a pair, lives with the object API in perm,
    # which no certificate or search route compiles; it is imported on first use
    if name == "AutPair":
        from .perm import AutPair
        return AutPair
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PairGroup:
    """A subgroup of S_n x S_{k-1}, the automorphism group of the star graph,
    held as one :class:`StabChain` on the n+k-1 flat points, on the base
    1..k, n+1..n+k-1, then the rest, which gives the order and membership.

    Built from flat generators (see the module notes), which ``flat``
    keeps; :meth:`generate`, :meth:`direct_product` and :meth:`product`
    make them from pairs or factors.  So ``certify`` builds the very chain
    that ``check`` rebuilds from the certificate.  No pair is listed;
    :meth:`iter_pairs` builds them on demand, and :attr:`generators` the
    generators as :class:`AutPair` objects.
    """

    __slots__ = ("n", "k", "name", "flat", "_chain", "order")

    def __init__(self, n: int, k: int, flat: Sequence[tuple], name: str | None = None,
                 cap: float = DEFAULT_ELEMENT_CAP):
        self.n = n
        self.k = k
        self.name = name
        self.flat = tuple(flat)
        self._chain = StabChain(n + k - 1, self.flat,
                                tuple(range(1, k + 1)) + tuple(range(n + 1, n + k)), cap)
        self.order = self._chain.order()

    # -- constructors -------------------------------------------------------

    @classmethod
    def product(cls, n: int, k: int, label: str | None, mus: Sequence[tuple],
                nus: Sequence[tuple] = (), name: str | None = None) -> "PairGroup":
        """H x T, generated by the pairs (g, 1) for g in ``mus`` and (1, s) for
        each s in ``nus`` but the identity, all image tuples of degree n.

        Unless given, the name is ``label`` (or "H"), with " x S_{k-1}"
        when T has a generator.  Only the factors' generators are read, so
        neither factor is closed on its own.  The chain has no element cap:
        the callers know the product's order before they build it.
        """
        identity = tuple(range(1, n + 1))
        nus = [s for s in nus if s != identity]
        if name is None:
            name = label or "H"
            if nus:
                name = f"{name} x S_{k - 1}"
        flat = [flat_pair(g, None, n, k) for g in mus] + [flat_pair(identity, s, n, k)
                                                          for s in nus]
        return cls(n, k, flat, name, cap=math.inf)

    @classmethod
    def direct_product(cls, mu_group: PermGroup, k: int,
                       nu_group: PermGroup | None = None,
                       name: str | None = None) -> "PairGroup":
        """All pairs (mu, nu) with mu from mu_group and nu from nu_group
        (:meth:`product` of their generators).  With nu_group omitted the
        nu side is trivial, giving {(mu, 1)}."""
        nus = () if nu_group is None else [s.images for s in nu_group.generators]
        return cls.product(mu_group.degree, k, mu_group.name,
                           [g.images for g in mu_group.generators], nus, name)

    @classmethod
    def generate(cls, n: int, k: int, generators: Sequence[AutPair],
                 cap: int = DEFAULT_ELEMENT_CAP, name=None) -> "PairGroup":
        """The group the :class:`AutPair` objects generate, closed as one
        :class:`StabChain` on the flat points."""
        for g in generators:
            if g.degree != n or not nu_is_admissible(g.nu.images, k):
                raise ValueError(f"{g!r} is not a pair for the ({n},{k})-star graph")
        return cls(n, k, [g.flat(k) for g in generators], name, cap)

    # -- queries -------------------------------------------------------------

    @property
    def generators(self) -> tuple[AutPair, ...]:
        """The generators as :class:`AutPair` objects, built on each call."""
        from .perm import AutPair
        return tuple(AutPair.from_flat(f, self.n) for f in self.flat)

    def _tails(self) -> set[tuple]:
        """The flat images of n+1..n+k-1 under the pairs: the orbit of that
        tuple under the flat generators, at most (k-1)! tuples."""
        n, k = self.n, self.k
        if k == 1:
            return {()}
        return orbit([tuple(range(n + 1, n + k))], self.flat)

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
        from .perm import AutPair
        return (AutPair.from_flat(f, self.n) for f in self._chain.elements())

    def __iter__(self) -> Iterator[AutPair]:
        return self.iter_pairs()

    def __len__(self) -> int:
        return self.order

    def to_dict(self) -> dict:
        """The certificate's witness: the name, n, k and each generator as
        mu and nu, image lists of degree n."""
        n = self.n
        return {
            "name": self.name,
            "degree": n,
            "k": self.k,
            "generators": [{"mu": list(f[:n]), "nu": list(_nu_of_tail(f[n:], n))}
                           for f in self.flat],
        }

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


def symmetric_nu_generators(n: int, k: int) -> list[tuple[int, ...]]:
    """Generators of S_{k-1} on {2, ..., k}, image tuples of degree n: the
    transposition (2 3) and the cycle (2 3 ... k), or for k <= 2 the
    identity."""
    if k < 3:
        return [tuple(range(1, n + 1))]
    return [from_cycles(n, (2, 3)), from_cycles(n, tuple(range(2, k + 1)))]


def symmetric_nu_group(n: int, k: int) -> PermGroup:
    """S_{k-1} realized inside S_n as the permutations of {2, ..., k}."""
    from .perm import Perm, PermGroup
    if k < 2:
        return PermGroup.trivial(n)
    return PermGroup(n, [*map(Perm._raw, symmetric_nu_generators(n, k))], name=f"S_{k - 1}")


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
    s_n = [from_cycles(n, (1, 2)), from_cycles(n, tuple(range(1, n + 1)))]
    return PairGroup.product(n, k, None, s_n, symmetric_nu_generators(n, k),
                             name=f"S_{n} x S_{k - 1}")


def project_and_kernel(group: PairGroup) -> tuple[PermGroup, PermGroup]:
    """Split a pair group into its first-component image H and kernel part T.

    H is generated by the generators' mu components; T collects the nu
    components of pairs whose mu is the identity, the tails tau whose flat
    pair (1..n) + tau lies in the chain.  |H| * |T| = |G| is asserted, which
    is the first-isomorphism-theorem bookkeeping for the projection onto
    S_n.
    """
    from .perm import Perm, PermGroup, closure
    n, label = group.n, group.name or "G"
    identity = tuple(range(1, n + 1))
    h = closure([Perm._raw(f[:n]) for f in group.flat] or [Perm._raw(identity)],
                name=f"pi1({label})")
    kernel_nus = [_nu_of_tail(tail, n) for tail in group._tails()
                  if identity + tail in group._chain]
    t = PermGroup.from_elements(kernel_nus, n, name=f"ker({label})")
    if h.order * t.order != group.order:
        raise AssertionError(
            f"|H| * |T| = {h.order} * {t.order} != |G| = {group.order}")
    return h, t
