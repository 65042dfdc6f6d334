"""The tuple-level engine under :mod:`starcayley.perm`, :mod:`starcayley.pairs`
and :mod:`starcayley.search`: cycle types, breadth-first orbits and the
Schreier-Sims stabiliser chain, all on image tuples with 1-based points,
composed as ``(p * q)(x) = p(q(x))``."""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence

from . import CapExceeded


def permutation(images: Sequence[int]) -> tuple[int, ...]:
    """images as a tuple, once it is checked to be a permutation of 1..n."""
    images = tuple(images)
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
    return images


def from_cycles(n: int, *cycles: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of degree n of the product of disjoint cycles of
    1-based points, once each point is checked to be in range and unrepeated."""
    img = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for x in cyc:
            if not 1 <= x <= n or x in seen:
                raise ValueError(f"bad cycle point {x} in {cycles!r}")
            seen.add(x)
        for i, x in enumerate(cyc):
            img[x - 1] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


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


def orbit(starts: Iterable, generators: Iterable[tuple], limit: float = math.inf,
          allowed: set | None = None, act=None) -> set | None:
    """Breadth-first orbit under the group the generators (image tuples) produce.

    By default a generator acts on point tuples pointwise, t -> (g(t1), ...),
    which for the image tuple t of a permutation p is the product g * p.
    ``act(g)`` may instead return the map that the generator g induces on
    orbit elements, such as :func:`right_multiplication`.  Returns None as
    soon as the orbit outgrows ``limit`` or leaves ``allowed``.
    """
    seen = set(starts)
    movers = [*map(act or _pointwise, generators)]
    boundary = list(seen)
    while boundary:
        fresh = []
        for x in boundary:
            for move in movers:
                u = move(x)
                if u not in seen:
                    if allowed is not None and u not in allowed:
                        return None
                    seen.add(u)
                    if len(seen) > limit:
                        return None
                    fresh.append(u)
        boundary = fresh
    return seen


def _pointwise(g: tuple, into=tuple):
    """t -> into(g(t1), g(t2), ...) on collections of points."""
    padded = (0,) + g
    return lambda t: into(map(padded.__getitem__, t))


def right_multiplication(g: tuple):
    """p -> p * g on image tuples of degree at least 2: one getter for every
    p, where g * p would need one per p.  From the identity it reaches the
    same group as the default action."""
    return itemgetter(*[v - 1 for v in g])


def _padded_inverse(u: tuple, points: tuple) -> tuple:
    """The inverse of u, padded so that entry x is the preimage of x.

    ``points`` is the padded identity (0, 1, ..., len(u)), and the entries
    are taken from it: a fresh int would cost 28 bytes for every entry above
    256, in each of a chain's transversal entries."""
    inv = [0] * (len(u) + 1)
    for i, x in zip(points[1:], u):
        inv[x] = i
    return tuple(inv)


class StabChain:
    """A deterministic Schreier-Sims stabiliser chain (Sims 1970; Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).

    The base lists every point: the given base points first, then the rest
    in increasing order.  Level i belongs to the i-th base point b.  It
    holds the strong generators that fix the base points before b, and a
    transversal that maps each point beta of b's basic orbit to a pair
    (u, u^-1 padded as in :func:`_padded_inverse`) with u(b) = beta.  Every
    Schreier generator is sifted, none is sampled, so :meth:`order` is
    exact.  Since every point is a base point, a permutation that sifts
    through all levels is the identity.  Elements are image tuples.

    Each basic orbit only grows, and lies inside the complete one, so the
    product of their lengths bounds the order from below at every stage:
    :class:`CapExceeded` is raised the moment it passes ``cap``.
    """

    __slots__ = ("degree", "base", "_cap", "_gens", "_tested", "_orbits", "_transversals")

    def __init__(self, degree: int, generators: Iterable[tuple] = (),
                 base: Sequence[int] = (), cap: float = math.inf):
        rest = set(base)
        if len(rest) != len(base) or not all(1 <= b <= degree for b in rest):
            raise ValueError(f"base {base!r} is not a list of distinct points of 1..{degree}")
        self.degree = degree
        self.base = tuple(base) + tuple(x for x in range(1, degree + 1) if x not in rest)
        self._cap = cap
        identity = tuple(range(1, degree + 1))
        entry = (identity, (0,) + identity)
        self._gens: list[list[tuple]] = [[] for _ in self.base]
        # _tested[i][j]: how many points of orbit i were tried with generator j
        self._tested: list[list[int]] = [[] for _ in self.base]
        self._orbits = [[b] for b in self.base]
        self._transversals = [{b: entry} for b in self.base]
        for g in generators:
            self.add(g)

    def order(self, level: int = 0) -> int:
        """The order of the pointwise stabiliser of the first ``level`` base points."""
        return math.prod(map(len, self._orbits[level:]))

    def orbit_lengths(self) -> list[int]:
        """The basic orbit length of each base point, in base order."""
        return [len(orbit) for orbit in self._orbits]

    def sift(self, g: tuple, level: int = 0) -> tuple[tuple, int] | None:
        """None when g lies in the stabiliser of the first ``level`` base
        points; otherwise the residue and the level whose orbit it left."""
        base, transversals = self.base, self._transversals
        for i in range(level, len(base)):
            b = base[i]
            beta = g[b - 1]
            if beta != b:
                entry = transversals[i].get(beta)
                if entry is None:
                    return g, i
                g = tuple(map(entry[1].__getitem__, g))
        return None

    def __contains__(self, g: tuple) -> bool:
        return self.sift(g) is None

    def has_base_image(self, images: Sequence[int]) -> bool:
        """Whether some element maps the first len(images) base points to
        ``images``: a sift of those images alone through the first levels."""
        for i in range(len(images)):
            entry = self._transversals[i].get(images[i])
            if entry is None:
                return False
            images = tuple(map(entry[1].__getitem__, images))
        return True

    def add(self, g: tuple) -> bool:
        """Extend the group by g, keeping the chain complete; False when g
        was already a member."""
        found = self.sift(g)
        if found is None:
            return False
        h, level = found
        self._extend(h, 0, level)
        self._complete(level)
        return True

    def _extend(self, h: tuple, first: int, last: int) -> None:
        """Make h a strong generator of levels first..last and grow their orbits."""
        for i in range(first, last + 1):
            gens, orbit, transversal = self._gens[i], self._orbits[i], self._transversals[i]
            # the base point's entry is (identity, padded identity)
            points = transversal[orbit[0]][1]
            gens.append(h)
            self._tested[i].append(0)
            padded = [(0,) + s for s in gens]
            # h on the old points, then every generator on the new ones
            todo = [(beta, (padded[-1],)) for beta in orbit]
            while todo:
                beta, movers = todo.pop()
                u = transversal[beta][0]
                for s in movers:
                    gamma = s[beta]
                    if gamma not in transversal:
                        v = tuple(map(s.__getitem__, u))
                        transversal[gamma] = (v, _padded_inverse(v, points))
                        orbit.append(gamma)
                        todo.append((gamma, padded))
        if self.order() > self._cap:
            raise CapExceeded(f"group order exceeds cap={self._cap}: its chain "
                              f"already holds {self.order()} elements")

    def _complete(self, level: int) -> None:
        """Sift the untested Schreier generators of levels ``level``..0, given
        that the levels below ``level`` are complete (the SCHREIERSIMS loop
        of Holt, Eick and O'Brien, *Handbook of Computational Group
        Theory*, 2005, 4.4.2)."""
        i = level
        while i >= 0:
            found = self._failing_schreier_generator(i)
            if found is None:
                i -= 1
            else:
                h, last = found
                self._extend(h, i + 1, last)
                i = last

    def _failing_schreier_generator(self, i: int) -> tuple[tuple, int] | None:
        b = self.base[i]
        orbit, transversal, tested = self._orbits[i], self._transversals[i], self._tested[i]
        for j, s in enumerate(self._gens[i]):
            padded = (0,) + s
            # a generator that fixes b was added to level i+1 as well, and
            # its Schreier generator at beta = b is itself
            skip_base = s[b - 1] == b
            while tested[j] < len(orbit):
                beta = orbit[tested[j]]
                tested[j] += 1
                if beta == b and skip_base:
                    continue
                x = tuple(map(padded.__getitem__, transversal[beta][0]))
                found = self.sift(tuple(map(transversal[x[b - 1]][1].__getitem__, x)), i + 1)
                if found is not None:
                    return found
        return None

    def elements(self, level: int = 0, within: dict | None = None) -> list[tuple]:
        """Every element of the stabiliser of the first ``level`` base points.

        Each is a product of one transversal element per level.  They come
        in lexicographic order of their images read along the base, which
        for the natural base 1..n is sorted order: an element at or below
        level i fixes every base point before b_i, so the images before
        b_i are set by the levels above, and the image of b_i by this one.

        ``within`` maps base points to point sets; only the elements that
        map each such b into within[b] are listed.  The image of b is set
        once the walk has passed b's level, so a transversal entry that
        sends b outside within[b] is dropped with every product below it.
        A level whose orbit is b alone has no entry to drop, and b is
        tested on the product of the levels above it.
        """
        identity = tuple(range(1, self.degree + 1))
        within = within or {}
        # per level with more than one orbit point: the points its base
        # point may go to (None: any), the getter of the orbit points' images
        # under a prefix, for each orbit point the getter of prefix * u, and
        # the tests of the one-point levels below it, up to the next level
        levels = []
        # the tests of the one-point levels above the first listed level,
        # which the identity must pass
        tests = first_tests = []
        for b, t in zip(self.base[level:], self._transversals[level:]):
            if len(t) > 1:
                tests = []
                levels.append((within.get(b), itemgetter(*[beta - 1 for beta in t]),
                               [itemgetter(*[x - 1 for x in u]) for u, _ in t.values()],
                               tests))
            elif b in within:
                tests.append((b - 1, within[b]))

        def passes(g: tuple, tests: list) -> bool:
            return all(g[i] in allowed for i, allowed in tests)

        if not passes(identity, first_tests):
            return []
        if not levels:
            return [identity]
        out: list[tuple] = []

        def walk(prefix: tuple, depth: int) -> None:
            allowed, images_of_orbit, products, tests = levels[depth]
            # the images are distinct, so the getters are never compared
            ordered = sorted(zip(images_of_orbit(prefix), products))
            if allowed is None:
                found = [times(prefix) for _, times in ordered]
            else:
                found = [times(prefix) for image, times in ordered if image in allowed]
            if tests:
                found = [g for g in found if passes(g, tests)]
            if depth == len(levels) - 1:
                out.extend(found)
            else:
                for g in found:
                    walk(g, depth + 1)

        walk(identity, 0)
        return out
