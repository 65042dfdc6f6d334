"""Permutations of {1..n}, finitely generated permutation groups, and the
transitivity/homogeneity predicates used throughout the package.

Two conventions are fixed once, here, and used everywhere:

* Points are 1-based in every external representation.  A permutation of
  degree n moves the set {1, ..., n}.
* Composition is ``(p * q)(x) = p(q(x))``: q acts first, then p.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations as _all_permutations
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

DEFAULT_ELEMENT_CAP = 2_000_000


class CapExceeded(RuntimeError):
    """An enumeration grew past its element cap.

    Raised instead of silently truncating; callers that hit this should switch
    to a certificate-based argument rather than full enumeration.
    """


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


def cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Sorted cycle lengths of a permutation in one-line notation, 1-cycles included."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(images) + 1):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = images[start - 1]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def compose(p: Perm, q: Perm) -> Perm:
    """Compose two permutations: q acts first, then p."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return p * q


def closure(generators: Sequence[Perm], cap: int = DEFAULT_ELEMENT_CAP,
            name: str | None = None) -> "PermGroup":
    """Enumerate the group generated by ``generators``: the orbit of the
    identity (see :func:`orbit`).  Raises :class:`CapExceeded` once more than
    ``cap`` elements appear."""
    if not generators:
        raise ValueError("need at least one generator")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share a degree")
    seen = orbit([tuple(range(1, degree + 1))], [g.images for g in generators],
                 limit=cap)
    if seen is None:
        raise CapExceeded(f"closure exceeded cap={cap}; use a certificate-based "
                          "path instead of enumeration")
    return PermGroup(degree, generators, seen, name=name)


def orbit(starts: Iterable, generators: Iterable[tuple], limit: float = math.inf,
          allowed: set | None = None, act=None) -> set | None:
    """Breadth-first orbit under the group the generators (image tuples) produce.

    By default a generator acts on point tuples pointwise, t -> (g(t1), ...),
    which for the image tuple t of a permutation p is the product g * p.
    ``act(*x)`` may instead map a generator g, padded so that g[i] is the
    image of i, to the image of the orbit element x.  Returns None as soon
    as the orbit outgrows ``limit`` or leaves ``allowed``.
    """
    seen = set(starts)
    if act is None:
        # a one-index itemgetter returns the item, not a 1-tuple
        act = itemgetter if len(next(iter(seen))) > 1 else (lambda p: lambda g: (g[p],))
    padded = [(0,) + g for g in dict.fromkeys(generators)]
    boundary = list(seen)
    while boundary:
        fresh = []
        for x in boundary:
            image_under = act(*x)
            for g in padded:
                u = image_under(g)
                if u not in seen:
                    if allowed is not None and u not in allowed:
                        return None
                    seen.add(u)
                    if len(seen) > limit:
                        return None
                    fresh.append(u)
        boundary = fresh
    return seen


class PermGroup:
    """A finite permutation group with its elements fully enumerated.

    ``elements`` is the sorted tuple of the elements' image tuples, the form
    :func:`orbit` produces; ``generators`` are :class:`Perm` objects.
    Iteration builds a :class:`Perm` per element on demand, and membership
    of a :class:`Perm` is a binary search.  Immutable after construction;
    all queries are pure reads, so instances are safe to share across
    threads.
    """

    __slots__ = ("degree", "generators", "elements", "name")

    def __init__(self, degree: int, generators: Sequence[Perm],
                 elements: Iterable[tuple[int, ...]], name: str | None = None):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.name = name
        if not self.generators:
            raise ValueError("a group needs at least one generator")

    @classmethod
    def from_elements(cls, elements: Iterable[tuple[int, ...]], degree: int,
                      name: str | None = None) -> "PermGroup":
        """Wrap image tuples already known to form a subgroup.

        Generators are picked greedily: each element outside the group the
        earlier picks generate becomes the next pick.
        """
        identity = tuple(range(1, degree + 1))
        elements = sorted(set(elements)) or [identity]
        gens: list[tuple] = []
        reached = {identity}
        for t in elements:
            if t not in reached:
                gens.append(t)
                reached = orbit([identity], gens)
        return cls(degree, map(Perm._raw, gens or [identity]), elements, name=name)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        e = Perm.identity(degree)
        return cls(degree, (e,), (e.images,), name="1")

    @classmethod
    def symmetric(cls, n: int) -> "PermGroup":
        return cls.symmetric_on(range(1, n + 1), n)

    @classmethod
    def symmetric_on(cls, points: Iterable[int], degree: int,
                     name: str | None = None) -> "PermGroup":
        """The full symmetric group on ``points``, embedded with the given degree."""
        pts = sorted(points)
        base = list(range(1, degree + 1))
        elems = []
        for assignment in _all_permutations(pts):
            img = base[:]
            for src, dst in zip(pts, assignment):
                img[src - 1] = dst
            elems.append(tuple(img))
        if len(pts) >= 2:
            gens = (Perm.transposition(degree, pts[0], pts[1]),
                    Perm.from_cycles(degree, tuple(pts)))
        else:
            gens = (Perm.identity(degree),)
        return cls(degree, gens, elems, name=name)

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, p: Perm) -> bool:
        i = bisect_left(self.elements, p.images)
        return i < len(self.elements) and self.elements[i] == p.images

    def __iter__(self) -> Iterator[Perm]:
        return map(Perm._raw, self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label}: degree {self.degree}, order {self.order}>"

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "name": self.name,
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
                 act=lambda *points: lambda g: frozenset(map(g.__getitem__, points)))


# ---------------------------------------------------------------------------
# transitivity and homogeneity


def is_k_transitive(group: PermGroup, k: int) -> bool:
    """True iff the group is transitive on ordered k-tuples of distinct points.

    Tested on the single orbit of (1, ..., k): orbits partition the tuples,
    so one representative suffices.
    """
    _check_k(group, k)
    orbit = orbit_of_tuple(group.generators, range(1, k + 1))
    return len(orbit) == math.perm(group.degree, k)


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
    pts = [p - 1 for p in points]
    hits = 0
    for img in group.elements:
        if all(img[p] == p + 1 for p in pts):
            hits += 1
            if hits > 1:
                return False
    return hits == 1


def _check_k(group: PermGroup, k: int) -> None:
    if not 1 <= k <= group.degree:
        raise ValueError(f"k={k} out of range for degree {group.degree}")


# ---------------------------------------------------------------------------
# composition-series style actions on ordered set tuples ("flags")


@dataclass(frozen=True)
class Lambda:
    """An ordered tuple of block sizes; points beyond the sum are ignored."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if not self.parts or any(p < 1 for p in self.parts):
            raise ValueError(f"all parts must be >= 1: {self.parts!r}")

    @property
    def total(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class Flag:
    """An ordered tuple of pairwise disjoint point sets."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        total = sum(len(b) for b in self.blocks)
        if len(frozenset().union(*self.blocks)) != total:
            raise ValueError("flag blocks must be pairwise disjoint")

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


def _flag_fixed_by(images: tuple, blocks: tuple[frozenset, ...]) -> bool:
    for block in blocks:
        for x in block:
            if images[x - 1] not in block:
                return False
    return True


def flag_stabilizer(group: PermGroup, flag: Flag) -> PermGroup:
    """Subgroup of elements mapping every block of the flag onto itself."""
    keep = [g for g in group.elements if _flag_fixed_by(g, flag.blocks)]
    return PermGroup.from_elements(keep, group.degree,
                                   name=f"stab({group.name or 'G'})")


def is_sharply_lambda_transitive(group: PermGroup, lam) -> bool:
    """True iff the group acts regularly on ordered disjoint-subset tuples of type lam.

    A regular action needs |G| equal to the number of such tuples.  Given
    that, regularity is equivalent to freeness, and freeness needs checking
    only at the canonical flag: a trivial stabilizer there makes the orbit
    exhaust all tuples, and the stabilizers elsewhere are conjugate.
    """
    parts = _parts(lam)
    n = group.degree
    if group.order != flag_count(parts, n):
        return False
    return flag_stabilizer(group, canonical_flag(parts, n)).order == 1
