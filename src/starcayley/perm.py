"""Permutations of {1..n}, finitely generated permutation groups, and the
transitivity/homogeneity and flag predicates used throughout the package.

The tuple engine under them is :mod:`starcayley.chain`; the names used
here are imported from it, so ``perm.StabChain`` still resolves.

Two conventions are fixed once, here, and used everywhere:

* Points are 1-based in every external representation.  A permutation of
  degree n moves the set {1, ..., n}.
* Composition is ``(p * q)(x) = p(q(x))``: q acts first, then p.
"""

from __future__ import annotations

import math
from collections import namedtuple
from math import lcm
from typing import Iterable, Iterator, Sequence

from . import DEFAULT_ELEMENT_CAP, CapExceeded
from .chain import StabChain, _pointwise, cycle_type, orbit


class Perm:
    """A permutation of {1, ..., n} in one-line notation.

    ``images[i-1]`` is the image of point ``i``.  Immutable and hashable.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # internal fast path: caller guarantees images is a valid tuple
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls._raw(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, *cycles: Sequence[int]) -> "Perm":
        """Build a permutation of degree n from disjoint cycles of 1-based points."""
        img = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= n or x in seen:
                    raise ValueError(f"bad cycle point {x} in {cycles!r}")
                seen.add(x)
            for i, x in enumerate(cyc):
                img[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls._raw(tuple(img))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Perm":
        return cls.from_cycles(n, (i, j))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x))
        a = self.images
        return Perm._raw(tuple(a[x - 1] for x in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images):
            inv[x - 1] = i + 1
        return Perm._raw(tuple(inv))

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self.images))

    def fixed_points(self) -> frozenset[int]:
        return frozenset(i + 1 for i, x in enumerate(self.images) if x == i + 1)

    def moved_points(self) -> frozenset[int]:
        return frozenset(i + 1 for i, x in enumerate(self.images) if x != i + 1)

    def acts_within(self, points: Iterable[int]) -> bool:
        """True iff every point moved by this permutation lies in ``points``."""
        allowed = set(points)
        return all(p in allowed for p in self.moved_points())

    def order(self) -> int:
        return lcm(*cycle_type(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point."""
        out = []
        seen = [False] * len(self.images)
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i + 1:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = self.images[j] - 1
            out.append(tuple(cyc))
        return out

    def to_list(self) -> list[int]:
        """One-line notation as a JSON-friendly list of 1-based images."""
        return list(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Perm[{body}, n={self.degree}]"


def compose(p: Perm, q: Perm) -> Perm:
    """Compose two permutations: q acts first, then p."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return p * q


def closure(generators: Sequence[Perm], cap: int = DEFAULT_ELEMENT_CAP,
            name: str | None = None) -> "PermGroup":
    """The group generated by ``generators``, held as a :class:`StabChain`.

    Raises :class:`CapExceeded` when the group's order exceeds ``cap``, so
    that listing its elements stays within the cap.
    """
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share a degree")
    chain = StabChain(degree, [g.images for g in generators], cap=cap)
    return PermGroup(degree, generators, name=name, chain=chain)


class PermGroup:
    """A finite permutation group, held as a :class:`StabChain` on the
    natural base 1..n.

    ``generators`` are :class:`Perm` objects.  The order, membership and
    k-transitivity are read off the chain; ``elements``, the sorted tuple of
    the elements' image tuples, is built from the chain's transversals on
    first access.  Iteration builds a :class:`Perm` per element on demand.
    The chain and the element tuple are built on first use and never
    change afterwards, so instances are safe to share.
    """

    __slots__ = ("degree", "generators", "name", "_chain", "_elements")

    def __init__(self, degree: int, generators: Sequence[Perm], name: str | None = None,
                 chain: StabChain | None = None, elements: tuple | None = None):
        self.degree = degree
        self.generators = tuple(generators)
        self.name = name
        self._chain = chain
        self._elements = elements
        if not self.generators:
            raise ValueError("a group needs at least one generator")

    @classmethod
    def from_elements(cls, elements: Iterable[tuple[int, ...]], degree: int,
                      name: str | None = None) -> "PermGroup":
        """The group whose elements are the given image tuples.

        Generators are picked greedily: each element that does not sift
        through the chain of the earlier picks becomes the next pick.
        Raises ValueError when the tuples are not closed under products,
        that is, when the picks generate more elements than were given.
        """
        identity = tuple(range(1, degree + 1))
        elements = tuple(sorted(set(elements))) or (identity,)
        chain = StabChain(degree)
        gens = [Perm._raw(t) for t in elements if chain.add(t)]
        if chain.order() != len(elements):
            raise ValueError(f"{len(elements)} permutations are not a group: they "
                             f"generate a group of order {chain.order()}")
        return cls(degree, gens or [Perm._raw(identity)], name, chain, elements)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, (Perm.identity(degree),), name="1")

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        return cls.symmetric_on(range(1, n + 1), n)

    @classmethod
    def symmetric_on(cls, points: Iterable[int], degree: int,
                     name: str | None = None) -> "PermGroup":
        """The full symmetric group on ``points``, embedded with the given degree."""
        pts = sorted(points)
        if len(pts) >= 2:
            gens = (Perm.transposition(degree, pts[0], pts[1]),
                    Perm.from_cycles(degree, tuple(pts)))
        else:
            gens = (Perm.identity(degree),)
        return cls(degree, gens, name=name)

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            self._chain = StabChain(self.degree, [g.images for g in self.generators])
        return self._chain

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        if self._elements is None:
            self._elements = tuple(self.chain.elements())
        return self._elements

    @property
    def order(self) -> int:
        return self.chain.order()

    def chain_from(self, points: Sequence[int]) -> StabChain:
        """A chain for this group whose base starts with the given distinct
        points: the group's own chain when its base already does."""
        points = tuple(points)
        if self.chain.base[:len(points)] == points:
            return self.chain
        return StabChain(self.degree, [g.images for g in self.generators], points)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, p: Perm) -> bool:
        return p.degree == self.degree and p.images in self.chain

    def __iter__(self) -> Iterator[Perm]:
        return map(Perm._raw, self.elements)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "degree": self.degree,
            "generators": [g.to_list() for g in self.generators],
        }

    @classmethod
    def from_dict(cls, data: dict, cap: int = DEFAULT_ELEMENT_CAP) -> "PermGroup":
        gens = [Perm(g) for g in data["generators"]]
        return closure(gens, cap=cap, name=data.get("name"))


# ---------------------------------------------------------------------------
# orbits


def orbit_of_tuple(generators: Sequence[Perm], start: Sequence[int]) -> set[tuple]:
    """Orbit of an ordered point tuple under the group the generators produce."""
    return orbit([tuple(start)], [g.images for g in generators])


def orbit_of_set(generators: Sequence[Perm], start: Iterable[int]) -> set[frozenset]:
    """Orbit of a point set under the induced action on subsets."""
    return orbit([frozenset(start)], [g.images for g in generators],
                 act=lambda g: _pointwise(g, frozenset))


# ---------------------------------------------------------------------------
# transitivity and homogeneity


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """True iff the group is transitive on ordered k-tuples of distinct points.

    Read off the chain on the base 1..n: the group is k-transitive iff the
    stabiliser of 1..i is transitive on the other n-i points for every
    i < k, that is, iff the first k basic orbits have lengths n, ..., n-k+1.
    """
    _check_k(group, k)
    lengths = group.chain.orbit_lengths()
    return all(lengths[i] == group.degree - i for i in range(k))


def is_k_homogeneous(group: PermGroup, k: int) -> bool:
    """True iff the group is transitive on k-element subsets of the points."""
    _check_k(group, k)
    orbit = orbit_of_set(group.generators, range(1, k + 1))
    return len(orbit) == math.comb(group.degree, k)


def is_sharply_k_transitive(group: PermGroup, k: int) -> bool:
    """True iff the group acts regularly (transitively and freely) on k-tuples.

    Equivalent to k-transitivity together with |G| = P(n, k).
    """
    _check_k(group, k)
    return group.order == math.perm(group.degree, k) and is_k_transitive(group, k)


def tuple_stabilizer_is_trivial(group: PermGroup, points: Sequence[int]) -> bool:
    """True iff only the identity fixes every listed point."""
    points = tuple(dict.fromkeys(points))
    return group.chain_from(points).order(len(points)) == 1


def _check_k(group: PermGroup, k: int) -> None:
    if not 1 <= k <= group.degree:
        raise ValueError(f"k={k} out of range for degree {group.degree}")


# ---------------------------------------------------------------------------
# composition-series style actions on ordered set tuples ("flags")


class Lambda(namedtuple("Lambda", "parts")):
    """An ordered tuple of block sizes; points beyond the sum are ignored."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"all parts must be >= 1: {parts!r}")
        return super().__new__(cls, parts)

    @property
    def total(self) -> int:
        return sum(self.parts)


class Flag(namedtuple("Flag", "blocks")):
    """An ordered tuple of pairwise disjoint point sets."""

    __slots__ = ()

    def __new__(cls, blocks):
        blocks = tuple(frozenset(b) for b in blocks)
        if len(frozenset().union(*blocks)) != sum(len(b) for b in blocks):
            raise ValueError("flag blocks must be pairwise disjoint")
        return super().__new__(cls, blocks)

    @property
    def shape(self) -> Lambda:
        return Lambda(tuple(len(b) for b in self.blocks))


def _parts(lam) -> tuple[int, ...]:
    return lam.parts if isinstance(lam, Lambda) else Lambda(tuple(lam)).parts


def canonical_flag(lam, degree: int | None = None) -> Flag:
    """The flag whose blocks are consecutive runs: {1..p1}, {p1+1..p1+p2}, ..."""
    parts = _parts(lam)
    if degree is not None and sum(parts) > degree:
        raise ValueError(f"parts {parts} exceed degree {degree}")
    blocks = []
    start = 1
    for p in parts:
        blocks.append(frozenset(range(start, start + p)))
        start += p
    return Flag(tuple(blocks))


def flag_count(lam, n: int) -> int:
    """Number of ordered tuples of disjoint subsets of {1..n} with the given sizes."""
    parts = _parts(lam)
    total = sum(parts)
    if total > n:
        raise ValueError(f"parts {parts} exceed degree {n}")
    count = math.factorial(n) // math.factorial(n - total)
    for p in parts:
        count //= math.factorial(p)
    return count


def flag_stabilizer(group: PermGroup, flag: Flag) -> PermGroup:
    """Subgroup of elements mapping every block of the flag onto itself.

    Its elements are listed by a walk of the group's own chain that drops
    every transversal entry sending a base point out of its block (see
    :meth:`StabChain.elements`); points outside every block are free.
    The walk is short when the first points lie in small blocks: for
    PGammaL(2,32) it builds 45 products at the canonical flag of type
    (3,29,1), where the singleton's stabiliser alone has 4,960 elements, and
    117,769 at the one of type (29,3,1).
    """
    within = {x: block for block in flag.blocks for x in block}
    return PermGroup.from_elements(group.chain.elements(within=within), group.degree,
                                   name=f"stab({group.name or 'G'})")


def is_sharply_lambda_transitive(group: PermGroup, lam) -> bool:
    """True iff the group acts regularly on ordered disjoint-subset tuples of type lam.

    A regular action needs |G| equal to the number of such tuples.  Given
    that, regularity is equivalent to freeness, and freeness needs checking
    only at the canonical flag: a trivial stabilizer there makes the orbit
    exhaust all tuples, and the stabilizers elsewhere are conjugate.
    Reordering the parts reorders the blocks of every tuple alike, which
    changes neither answer, so the flag is taken with the smallest block
    first, where :func:`flag_stabilizer` walks least.
    """
    parts = _parts(lam)
    n = group.degree
    if group.order != flag_count(parts, n):
        return False
    return flag_stabilizer(group, canonical_flag(sorted(parts), n)).order == 1
