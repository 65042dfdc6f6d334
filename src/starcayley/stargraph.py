"""The (n,k)-star graph: construction, edge kinds, vertex indexing, and the
small structural checks (triangles, six-cycles, transposition products,
brute-force automorphism counting).  The automorphism action of a pair
(mu, nu) is :meth:`starcayley.pairs.AutPair.apply`.

Vertices are the k-permutations of {1..n}, held as plain tuples of 1-based
labels.  Two edge types exist:

* star edge: swap the label in position 1 with the label in position i,
  for some 2 <= i <= k;
* residual edge: change only the label in position 1.

Every vertex therefore meets k-1 star edges and n-k residual edges.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from bisect import bisect_left
from collections import deque
from enum import Enum
from operator import itemgetter
from typing import Iterator, Sequence

from . import DEFAULT_VERTEX_CAP

KPerm = tuple[int, ...]


class EdgeKind(Enum):
    STAR = "star"
    RESIDUAL = "residual"


class GraphSizeExceeded(RuntimeError):
    """Materializing the graph would exceed the vertex cap."""


class BudgetExceeded(RuntimeError):
    """The backtracking automorphism search ran past its node budget."""


class UnsupportedCyclePattern(ValueError):
    """Six-cycle query on an incident edge pair outside the two handled shapes."""


# ---------------------------------------------------------------------------
# vertex indexing: lexicographic rank over ordered k-tuples


def rank_weights(n: int, k: int) -> list[int]:
    """Place values of the rank: position i weighs P(n-1-i, k-1-i)."""
    return [math.perm(n - 1 - i, k - 1 - i) for i in range(k)]


def rank(v: Sequence[int], n: int) -> int:
    """Lexicographic rank of a k-permutation among all k-permutations of n."""
    v = tuple(v)
    r = 0
    for i, (a, w) in enumerate(zip(v, rank_weights(n, len(v)))):
        smaller = a - 1
        for j in range(i):
            if v[j] < a:
                smaller -= 1
        r += smaller * w
    return r


def unrank(index: int, n: int, k: int) -> KPerm:
    """Inverse of :func:`rank`."""
    if not 0 <= index < math.perm(n, k):
        raise ValueError(f"rank {index} out of range for P({n},{k})")
    available = list(range(1, n + 1))
    out = []
    for w in rank_weights(n, k):
        pos, index = divmod(index, w)
        out.append(available.pop(pos))
    return tuple(out)


# ---------------------------------------------------------------------------
# adjacency from the definitions (usable without materializing a graph)


def star_neighbors(v: Sequence[int]) -> list[KPerm]:
    v = tuple(v)
    return [(v[i],) + v[1:i] + (v[0],) + v[i + 1:] for i in range(1, len(v))]


def residual_neighbors(v: Sequence[int], n: int) -> list[KPerm]:
    v = tuple(v)
    used = set(v)
    return [(x,) + v[1:] for x in range(1, n + 1) if x not in used]


def edge_kind(u: Sequence[int], v: Sequence[int]) -> EdgeKind | None:
    """Classify the pair as a star edge, residual edge, or None if not adjacent."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("vertices come from different graphs")
    if u == v:
        raise ValueError("self-loop query")
    diff = [i for i in range(len(u)) if u[i] != v[i]]
    if diff == [0] and v[0] not in u:
        return EdgeKind.RESIDUAL
    if (len(diff) == 2 and diff[0] == 0
            and u[0] == v[diff[1]] and u[diff[1]] == v[0]):
        return EdgeKind.STAR
    return None


# Ranks are stored as C unsigned ints, so a graph may have at most this many
# vertices.
_RANK_LIMIT = 1 << 8 * array("I").itemsize


class StarGraph:
    """A fully materialized (n,k)-star graph: one flat adjacency array.

    The adjacency is one ``array('I')`` of P(n,k)*(n-1) ranks; the row of
    rank i, read by :meth:`row`, is the slice [i*(n-1), (i+1)*(n-1)).  Each
    row lists the k-1 star neighbors first and the n-k residual neighbors
    after them, so the edge kind is positional.  A flat array holds no int
    objects, so the store costs 4 bytes a rank.  :func:`build` makes each
    row from the row of the vertex's first k-1 labels in S(n,k-1), by one
    C-level pick, without looking up any neighbour's label tuple.

    The array is all a graph holds.  The label tables ``vertices`` (rank
    order, which is the lexicographic order of
    :func:`itertools.permutations`) and ``index`` (its inverse) are built
    on first use and cached, so the counting queries and the exports never
    pay for them.
    Immutable after construction: the array never changes, and the cached
    tables are functions of (n, k).
    """

    __slots__ = ("n", "k", "_adj", "_vertices", "_index")

    def __init__(self, n, k, adj):
        self.n = n
        self.k = k
        self._adj = adj
        self._vertices = None
        self._index = None

    @property
    def vertices(self) -> tuple[KPerm, ...]:
        """Every vertex label, in rank order."""
        if self._vertices is None:
            self._vertices = tuple(itertools.permutations(range(1, self.n + 1), self.k))
        return self._vertices

    @property
    def index(self) -> dict[KPerm, int]:
        """Label -> rank, the inverse of :attr:`vertices`."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        return self._index

    @property
    def vertex_count(self) -> int:
        return len(self._adj) // (self.n - 1)

    def row(self, i: int) -> array:
        """The ranks adjacent to rank i: k-1 star neighbours, then n-k residual."""
        width = self.n - 1
        return self._adj[i * width:i * width + width]

    def neighbors(self, v: Sequence[int]) -> list[tuple[KPerm, EdgeKind]]:
        split = self.k - 1
        return [(self.vertices[j],
                 EdgeKind.STAR if pos < split else EdgeKind.RESIDUAL)
                for pos, j in enumerate(self.row(self.index[tuple(v)]))]

    def edges(self) -> Iterator[tuple[int, int, EdgeKind]]:
        """Each undirected edge once, as (smaller rank, larger rank, kind)."""
        split = self.k - 1
        for i in range(self.vertex_count):
            for pos, j in enumerate(self.row(i)):
                if i < j:
                    yield i, j, EdgeKind.STAR if pos < split else EdgeKind.RESIDUAL

    def edge_count(self) -> int:
        return len(self._adj) // 2

    def triangle_count(self) -> int:
        """Each triangle is seen once from each of its three edges.

        An exact, kind-blind census over every edge, kept as the test
        oracle for :func:`stats`, which counts at one vertex."""
        adj, rows = self._adj, self._row_struct()
        read, step = rows.unpack_from, rows.size
        total = 0
        for i in range(self.vertex_count):
            row = read(adj, i * step)
            mine = set(row)
            for j in row:
                if i < j:
                    total += len(mine.intersection(read(adj, j * step)))
        return total // 3

    def _row_struct(self) -> struct.Struct:
        """The layout of one row: its unpack_from(adj, i * size) and
        iter_unpack(adj) give rows as tuples straight from the array,
        skipping the array slice that row() makes (about a sixth of the
        triangle census)."""
        return struct.Struct(f"{self.n - 1}{self._adj.typecode}")

    def degree_split(self) -> tuple[int, int]:
        """(star degree, residual degree), uniform over vertices by construction."""
        return self.k - 1, self.n - self.k


def _extend_rows(parent_rows: Iterator[tuple[int, ...]], n: int,
                 j: int) -> Iterator[tuple[int, ...]]:
    """The rows of S(n,j) in rank order, from the rows of S(n,j-1).

    A vertex v = P + (b,) has rank rank(P)*c + t, where c = n-j+1 and b is
    the t-th smallest label missing from P; call range(g*c, (g+1)*c) the
    group of prefix rank g.  Let s count the labels missing from P below
    P[0].  Every neighbour of v lies in the group of an entry of P's row:
    * the star neighbour that swaps v[0] and v[i], 1 <= i < j-1, at offset
      t in the group of P's star neighbour that swaps P[0] and P[i];
    * the star neighbour that swaps v[0] and b, (b,) + P[1:] + (P[0],), in
      the group of P's t-th residual neighbour (b,) + P[1:], at offset
      s - [t < s];
    * the residual neighbour (y,) + P[1:] + (b,), y the u-th label missing
      from P (u != t), in the group of P's u-th residual neighbour, at
      offset t - [u < t] + [s <= t].
    So v's row is one fixed itemgetter, picked by (s, t), applied to the
    groups of P's row laid end to end.
    """
    c = n - j + 1
    stars = j - 2
    pickers = [[itemgetter(*(i * c + t for i in range(stars)),
                           (stars + t) * c + s - (t < s),
                           *((stars + u) * c + t - (u < t) + (s <= t)
                             for u in range(c) if u != t))
                for t in range(c)] for s in range(c + 1)]
    for p, row in enumerate(parent_rows):
        groups = tuple(itertools.chain.from_iterable(
            [range(g * c, g * c + c) for g in row]))
        for pick in pickers[bisect_left(row, p, stars) - stars]:
            yield pick(groups)


def _check_size(n: int, k: int, vertex_cap: int) -> int:
    """P(n,k) for 1 <= k < n.  :class:`GraphSizeExceeded` when the graph is
    over the vertex cap or has more vertices than an unsigned int rank can
    index."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got ({n},{k})")
    count = math.perm(n, k)
    if count > vertex_cap:
        raise GraphSizeExceeded(
            f"P({n},{k}) = {count} exceeds vertex cap {vertex_cap}")
    if count > _RANK_LIMIT:
        raise GraphSizeExceeded(
            f"P({n},{k}) = {count} exceeds {_RANK_LIMIT}, the most vertices "
            f"an unsigned int rank can index")
    return count


def build(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> StarGraph:
    """Materialize the (n,k)-star graph, vertices indexed by lexicographic rank.

    No neighbour is looked up by its label tuple.  The rows grow one
    position at a time from those of S(n,1) = K_n, each row of S(n,j) one
    C-level pick from the row of its prefix in S(n,j-1) (see
    :func:`_extend_rows`).  Every level is a stream: the rows of S(n,k) go
    straight into the flat array, and the rows below k live only while
    their extensions are made.  No label table is made here; see
    :class:`StarGraph`.
    """
    _check_size(n, k, vertex_cap)
    rows = ((*range(a), *range(a + 1, n)) for a in range(n))
    for j in range(2, k + 1):
        rows = _extend_rows(rows, n, j)
    return StarGraph(n, k, array("I", itertools.chain.from_iterable(rows)))


def stats(n: int, k: int, vertex_cap: int = DEFAULT_VERTEX_CAP
          ) -> tuple[int, int, tuple[int, int], int]:
    """(vertices, edges, (star degree, residual degree), triangles) of the
    (n,k)-star graph, counted at the base vertex (1..k) alone.

    S_n relabels symbols, keeps both edge kinds and is transitive on
    k-permutations, so the graph is vertex-transitive: every vertex has as
    many star and residual neighbours as the base vertex, and lies in as
    many triangles, t, the number of adjacent pairs among those neighbours.
    Each edge has two ends and each triangle three corners, so the counts
    are P(n,k)*(n-1)/2 and P(n,k)*t/3.  The graph is refused as :func:`build` refuses it, so
    ``graph --stats`` and the exports share their exit codes and messages.
    """
    count = _check_size(n, k, vertex_cap)
    base = tuple(range(1, k + 1))
    star, residual = star_neighbors(base), residual_neighbors(base, n)
    t = sum(edge_kind(u, v) is not None
            for u, v in itertools.combinations(star + residual, 2))
    return (count, count * (len(star) + len(residual)) // 2,
            (len(star), len(residual)), count * t // 3)


# ---------------------------------------------------------------------------
# structural checks


def is_edge_in_triangle(graph: StarGraph, u: Sequence[int], v: Sequence[int]) -> bool:
    """True iff the edge uv lies in a 3-cycle (shares a common neighbor)."""
    iu, iv = graph.index[tuple(u)], graph.index[tuple(v)]
    row = graph.row(iu)
    if iv not in row:
        raise ValueError(f"{u!r} and {v!r} are not adjacent")
    return not set(row).isdisjoint(graph.row(iv))


def six_cycles_through(graph: StarGraph, u: Sequence[int], v: Sequence[int],
                       w: Sequence[int]) -> list[tuple[KPerm, ...]]:
    """All 6-cycles through the path u-v-w matching the kind pattern.

    With one residual and one star edge at v, the cycle must alternate kinds;
    with two star edges it must consist of star edges only.  Each returned
    cycle is (u, v, w, x, y, z) read around the cycle.  Two residual edges
    are outside both shapes and raise :class:`UnsupportedCyclePattern`.
    """
    u, v, w = tuple(u), tuple(v), tuple(w)
    k1 = edge_kind(u, v)
    k2 = edge_kind(v, w)
    if k1 is None or k2 is None:
        raise ValueError("u-v and v-w must both be edges")
    if k1 == k2 == EdgeKind.RESIDUAL:
        raise UnsupportedCyclePattern(
            "two residual edges: no uniqueness statement holds for this pattern")
    if k1 == k2 == EdgeKind.STAR:
        kinds = (EdgeKind.STAR,) * 4
    else:
        # alternate around the cycle: uv, vw, wx, xy, yz, zu
        kinds = (k1, k2, k1, k2)
    found = []
    iu = graph.index[u]
    path = {u, v, w}
    for x, kx in graph.neighbors(w):
        if kx is not kinds[0] or x in path:
            continue
        for y, ky in graph.neighbors(x):
            if ky is not kinds[1] or y in path or y == x:
                continue
            for z, kz in graph.neighbors(y):
                if kz is not kinds[2] or z in path or z in (x, y):
                    continue
                iz = graph.index[z]
                if iu in graph.row(iz):
                    close = edge_kind(z, u)
                    if close is kinds[3]:
                        found.append((u, v, w, x, y, z))
    return found


def transposition_identity_check(n: int) -> bool:
    """Scan products of six transpositions through the point 1.

    For labels 2 <= a..f <= n with cyclically adjacent entries distinct,
    (1 f)(1 e)(1 d)(1 c)(1 b)(1 a) is the identity exactly when a=c=e and
    b=d=f.  Returns True iff the full scan finds no violation.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    idn = tuple(range(1, n + 1))
    swaps = {}
    for i in range(2, n + 1):
        img = list(idn)
        img[0], img[i - 1] = i, 1
        swaps[i] = tuple(img)

    labels = range(2, n + 1)
    for a in labels:
        for b in labels:
            if b == a:
                continue
            for c in labels:
                if c == b:
                    continue
                for d in labels:
                    if d == c:
                        continue
                    for e in labels:
                        if e == d:
                            continue
                        for f in labels:
                            if f == e or f == a:
                                continue
                            # apply (1 a) first, then (1 b), ..., then (1 f)
                            img = idn
                            for t in (a, b, c, d, e, f):
                                s = swaps[t]
                                img = tuple(s[x - 1] for x in img)
                            is_id = img == idn
                            should = (a == c == e and b == d == f)
                            if is_id != should:
                                return False
    return True


# ---------------------------------------------------------------------------
# independent automorphism-count oracle


def brute_force_automorphism_count(graph: StarGraph, node_budget: int = 10_000_000,
                                   max_vertices: int = 64,
                                   fix_vertex: int | None = None) -> int:
    """Count all adjacency-preserving vertex bijections by backtracking.

    Deliberately ignorant of edge kinds: the oracle must be able to confirm,
    not assume, that automorphisms preserve them.  Vertices are matched in a
    breadth-first order (each new vertex touches an already-mapped one) with
    a degree + triangle-count invariant filter.

    With fix_vertex set, only bijections fixing that rank are counted (the
    vertex stabilizer), which makes the orbit-stabilizer relation
    |Aut| = |V| * |Stab| checkable from two independent runs.
    """
    size = graph.vertex_count
    if size > max_vertices:
        raise ValueError(f"{size} vertices exceeds max_vertices={max_vertices}")
    adj = [frozenset(graph.row(i)) for i in range(size)]
    start = 0 if fix_vertex is None else fix_vertex
    order = [start]
    placed = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in sorted(adj[x]):
            if y not in placed:
                placed.add(y)
                order.append(y)
                queue.append(y)
    if len(order) != size:
        raise ValueError("graph is not connected")
    degree = [len(a) for a in adj]
    triangles = [sum(len(adj[x] & adj[y]) for y in adj[x]) // 2 for x in range(size)]
    invariant = list(zip(degree, triangles))

    image = [-1] * size
    used = [False] * size
    count = 0
    nodes = 0

    def extend(pos: int) -> None:
        nonlocal count, nodes
        if pos == size:
            count += 1
            return
        v = order[pos]
        if v == fix_vertex:
            candidates = {v}
        else:
            mapped_nb = [x for x in adj[v] if image[x] >= 0]
            if mapped_nb:
                candidates = set(adj[image[mapped_nb[0]]])
                for x in mapped_nb[1:]:
                    candidates &= adj[image[x]]
            else:
                candidates = set(range(size))
        for c in sorted(candidates):
            if used[c] or invariant[c] != invariant[v]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(f"exceeded {node_budget} search nodes")
            ok = True
            for x in range(size):
                if image[x] >= 0 and ((x in adj[v]) != (image[x] in adj[c])):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = c
            used[c] = True
            extend(pos + 1)
            image[v] = -1
            used[c] = False

    extend(0)
    return count


# ---------------------------------------------------------------------------
# exports


# Lines per export chunk.  One line a chunk writes the (11,6) dot export
# about 1.6 times as slowly; one chunk of the whole text holds all of it.
_CHUNK_LINES = 1000


def _blocks(items, size: int) -> Iterator[list]:
    """Lists of up to size consecutive items."""
    items = iter(items)
    return iter(lambda: list(itertools.islice(items, size)), [])


def _joined(blocks: Iterator[list[str]], sep: str) -> Iterator[str]:
    """One chunk a non-empty block; joined, the chunks are sep.join of
    every item of every block."""
    lead = ""
    for block in blocks:
        if block:
            yield lead + sep.join(block)
            lead = sep


def export_chunks(graph: StarGraph, fmt: str) -> Iterator[str]:
    """The graph as text in fmt, "dot", "edges" or "json", in chunks of
    about a thousand lines or list items; joined, the chunks are the whole
    text, final newline included.

    Each row is read once, straight from the adjacency array, and each edge
    is written from its smaller rank, tagged by its position in the row.
    Labels come from :func:`itertools.permutations`, which is rank order,
    so no label table is built: the text streams in the memory of the
    adjacency and one chunk.
    """
    n, k = graph.n, graph.k
    labels = _blocks(enumerate(itertools.permutations(range(1, n + 1), k)),
                     _CHUNK_LINES)
    # a vertex writes about half its row, so a block of rows is about
    # _CHUNK_LINES edges
    rows = _blocks(enumerate(graph._row_struct().iter_unpack(graph._adj)),
                   max(1, 2 * _CHUNK_LINES // (n - 1)))
    star, residual = ("star", "residual") if fmt == "dot" else ("S", "R")
    tags = (star,) * (k - 1) + (residual,) * (n - k)
    if fmt == "edges":
        yield from _joined(([f"{i} {j} {t}" for i, row in block
                             for j, t in zip(row, tags) if i < j]
                            for block in rows), "\n")
        yield "\n"
    elif fmt == "dot":
        yield f'graph "S_{n}_{k}" {{\n'
        yield from _joined(itertools.chain(
            ([f'  v{i} [label="[{",".join(map(str, v))}]"];' for i, v in block]
             for block in labels),
            ([f'  v{i} -- v{j} [kind="{t}"];' for i, row in block
              for j, t in zip(row, tags) if i < j]
             for block in rows)), "\n")
        yield "\n}\n"
    elif fmt == "json":
        # the bytes of json.dumps on the same payload
        yield (f'{{"n": {n}, "k": {k}, "vertex_count": {graph.vertex_count}, '
               f'"vertices": [')
        yield from _joined(([str(list(v)) for _, v in block] for block in labels),
                           ", ")
        yield '], "edges": ['
        yield from _joined(([f'[{i}, {j}, "{t}"]' for i, row in block
                             for j, t in zip(row, tags) if i < j]
                            for block in rows), ", ")
        yield "]}\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def to_dot(graph: StarGraph) -> str:
    """DOT text; vertices labeled "[a1,...,ak]", edges tagged with their kind."""
    return "".join(export_chunks(graph, "dot"))[:-1]


def edge_list_lines(graph: StarGraph) -> list[str]:
    """One line per edge: "u v K" with vertex ranks and K in {S, R}."""
    return "".join(export_chunks(graph, "edges")).splitlines()
