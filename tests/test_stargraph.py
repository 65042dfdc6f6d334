import json
import math
from itertools import permutations

import pytest

from starcayley.pairs import AutPair, aut_product
from starcayley.perm import Perm
from starcayley.stargraph import (BudgetExceeded, EdgeKind, GraphSizeExceeded,
                                  UnsupportedCyclePattern,
                                  brute_force_automorphism_count, build,
                                  edge_kind, edge_list_lines, export_chunks,
                                  is_edge_in_triangle, rank,
                                  residual_neighbors, six_cycles_through,
                                  star_neighbors, stats, to_dot,
                                  transposition_identity_check, unrank)


def test_build_counts():
    g = build(4, 2)
    assert g.vertex_count == 12
    for v in g.vertices:
        kinds = [k for _, k in g.neighbors(v)]
        assert kinds.count(EdgeKind.STAR) == 1
        assert kinds.count(EdgeKind.RESIDUAL) == 2


def test_build_94_vertex_count():
    assert build(9, 4).vertex_count == 3024  # 9*8*7*6


def test_build_k1_is_complete_graph():
    g = build(5, 1)
    assert g.vertex_count == 5
    for v in g.vertices:
        assert len(g.neighbors(v)) == 4
        assert all(k is EdgeKind.RESIDUAL for _, k in g.neighbors(v))


def test_build_validation_and_cap():
    # stats builds no graph but refuses exactly what build refuses
    for make in (build, stats):
        with pytest.raises(ValueError):
            make(3, 3)
        with pytest.raises(GraphSizeExceeded, match="vertex cap"):
            make(10, 5, vertex_cap=100)
        # P(14,13) > 2^32 ranks do not fit an unsigned int: refused before
        # any row is made, whatever the cap
        with pytest.raises(GraphSizeExceeded, match="unsigned int"):
            make(14, 13, vertex_cap=10**12)


def test_adjacency_symmetric_with_matching_kinds():
    g = build(5, 3)
    for v in g.vertices:
        for u, kind in g.neighbors(v):
            back = dict(g.neighbors(u))
            assert back[v] is kind


def test_rank_unrank_extremes():
    n, k = 6, 3
    assert rank(tuple(range(1, k + 1)), n) == 0
    top = tuple(range(n, n - k, -1))
    assert rank(top, n) == math.perm(n, k) - 1
    assert unrank(math.perm(n, k) - 1, n, k) == top


def test_rank_unrank_roundtrip_exhaustive():
    n, k = 5, 3
    for i in range(math.perm(n, k)):
        assert rank(unrank(i, n, k), n) == i
    # and the graph's vertex order is exactly the lexicographic rank order
    g = build(n, k)
    for i, v in enumerate(g.vertices):
        assert rank(v, n) == i


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(60, 5, 3)


def test_edge_kind_cases():
    assert edge_kind((1, 2, 3), (2, 1, 3)) is EdgeKind.STAR
    assert edge_kind((1, 2, 3), (4, 2, 3)) is EdgeKind.RESIDUAL
    assert edge_kind((1, 2, 3), (2, 3, 1)) is None
    assert edge_kind((1, 2, 3), (3, 2, 1)) is EdgeKind.STAR
    assert edge_kind((1, 2, 3), (1, 3, 2)) is None  # first position unchanged
    with pytest.raises(ValueError):
        edge_kind((1, 2, 3), (1, 2, 3))


def test_neighbor_generators_match_graph():
    n, k = 5, 3
    g = build(n, k)
    for v in g.vertices:
        expected = {(u, EdgeKind.STAR) for u in star_neighbors(v)}
        expected |= {(u, EdgeKind.RESIDUAL) for u in residual_neighbors(v, n)}
        assert set(g.neighbors(v)) == expected


def _rows_from_the_definition(graph):
    index, n = graph.index, graph.n
    return [tuple(index[u] for u in star_neighbors(v))
            + tuple(index[u] for u in residual_neighbors(v, n))
            for v in graph.vertices]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 9) for k in range(1, n)]
                         + [(9, 5), (10, 3)])
def test_build_matches_the_definition_row_for_row(n, k):
    # k = 1 has no star part, k = n-1 a single residual neighbour, and k = 2
    # a single star neighbour; the order inside each row is checked too
    g = build(n, k)
    vertices = tuple(permutations(range(1, n + 1), k))
    assert g.vertices == vertices
    assert g.index == {v: i for i, v in enumerate(vertices)}
    rows = [tuple(g.row(i)) for i in range(g.vertex_count)]
    assert rows == _rows_from_the_definition(g)
    assert len(g._adj) == g.vertex_count * (n - 1)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 3), (7, 6), (8, 4)])
def test_label_tables_are_built_only_when_asked_for(n, k):
    g = build(n, k)
    g.vertex_count, g.edge_count(), g.degree_split(), g.triangle_count()
    assert g._vertices is None and g._index is None
    assert g.vertices == tuple(permutations(range(1, n + 1), k))
    assert g._index is None
    assert g.index == {v: i for i, v in enumerate(g.vertices)}
    assert g.vertices is g.vertices and g.index is g.index


def test_apply_automorphism_identity():
    f = AutPair(Perm.identity(6), Perm.identity(6))
    assert f.apply((3, 1, 4)) == (3, 1, 4)


def test_apply_automorphism_sends_base_to_any_vertex():
    # choosing mu as a full-permutation representative of the target vertex
    # and nu = id maps [1..k] onto it
    n, k = 5, 3
    base = tuple(range(1, k + 1))
    for v in permutations(range(1, n + 1), k):
        rest = [x for x in range(1, n + 1) if x not in v]
        mu = Perm(list(v) + rest)
        f = AutPair(mu, Perm.identity(n))
        assert f.apply(base) == v


def test_automorphism_preserves_edge_kinds():
    # exhaustive over all edges of the (5,3) graph and all 240 automorphisms
    g = build(5, 3)
    pairs = list(aut_product(5, 3).iter_pairs())
    edges = [(g.vertices[i], g.vertices[j], kind) for i, j, kind in g.edges()]
    for f in pairs:
        for u, v, kind in edges:
            assert edge_kind(f.apply(u), f.apply(v)) is kind


def test_triangle_iff_residual_small():
    for n, k in [(4, 2), (5, 3)]:
        g = build(n, k)
        for i, j, kind in g.edges():
            in_tri = is_edge_in_triangle(g, g.vertices[i], g.vertices[j])
            assert in_tri == (kind is EdgeKind.RESIDUAL)


def test_is_edge_in_triangle_rejects_non_edges():
    g = build(5, 3)
    with pytest.raises(ValueError):
        is_edge_in_triangle(g, (1, 2, 3), (2, 3, 1))


def test_six_cycle_explicit_construction():
    # for v=[1..k], u=[k+1,2..k], w=[2,1,3..k] the alternating 6-cycle is
    # forced through x=[k+1,1,3..k], y=[1,k+1,3..k], z=[2,k+1,3..k]
    g = build(5, 3)
    v, u, w = (1, 2, 3), (4, 2, 3), (2, 1, 3)
    cycles = six_cycles_through(g, u, v, w)
    assert cycles == [((4, 2, 3), (1, 2, 3), (2, 1, 3),
                       (4, 1, 3), (1, 4, 3), (2, 4, 3))]


def test_six_cycle_unique_alternating():
    g = build(5, 3)
    cycles = six_cycles_through(g, (5, 2, 3), (1, 2, 3), (2, 1, 3))
    assert len(cycles) == 1


def test_six_cycle_mirrored_orientation():
    # walking the same path star-first finds the same unique cycle
    g = build(5, 3)
    v, u, w = (1, 2, 3), (4, 2, 3), (2, 1, 3)
    forward = six_cycles_through(g, u, v, w)
    backward = six_cycles_through(g, w, v, u)
    assert len(backward) == 1
    assert backward == [(w, v, u) + tuple(reversed(forward[0][3:]))]


def test_six_cycle_unique_star_only():
    g = build(5, 3)
    v = (1, 2, 3)
    u, w = (2, 1, 3), (3, 2, 1)  # the two star neighbors of v
    cycles = six_cycles_through(g, u, v, w)
    assert len(cycles) == 1
    cyc = cycles[0]
    ring = list(cyc) + [cyc[0]]
    assert all(edge_kind(a, b) is EdgeKind.STAR for a, b in zip(ring, ring[1:]))


def test_six_cycle_rejects_double_residual():
    g = build(5, 3)
    with pytest.raises(UnsupportedCyclePattern):
        six_cycles_through(g, (4, 2, 3), (1, 2, 3), (5, 2, 3))


def test_six_cycle_exhaustive_uniqueness_53():
    g = build(5, 3)
    for v in g.vertices:
        star = [u for u, kind in g.neighbors(v) if kind is EdgeKind.STAR]
        residual = [u for u, kind in g.neighbors(v) if kind is EdgeKind.RESIDUAL]
        for u in residual:
            for w in star:
                assert len(six_cycles_through(g, u, v, w)) == 1
        for i, u in enumerate(star):
            for w in star[i + 1:]:
                assert len(six_cycles_through(g, u, v, w)) == 1


def test_transposition_product_forced_pattern():
    # a=c=e, b=d=f always gives the identity: ((1 b)(1 a))^3 collapses
    idn = Perm.identity(5)
    prod = idn
    for t in (2, 3, 2, 3, 2, 3):
        prod = Perm.transposition(5, 1, t) * prod
    assert prod.is_identity()


def test_transposition_product_counterexample():
    prod = Perm.identity(5)
    for t in (2, 3, 4, 2, 3, 4):
        prod = Perm.transposition(5, 1, t) * prod
    assert not prod.is_identity()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_transposition_identity_scan(n):
    assert transposition_identity_check(n)


def test_brute_force_automorphism_counts():
    assert brute_force_automorphism_count(build(4, 2)) == 24
    assert brute_force_automorphism_count(build(5, 2)) == 120


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_automorphism_count(build(5, 3), node_budget=100)
    with pytest.raises(ValueError):
        brute_force_automorphism_count(build(6, 3), max_vertices=64)


def test_excluded_case_k_equals_n_minus_1():
    # for k = n-1 the graph is the classical star graph and the automorphism
    # group is larger than n!(k-1)!: the oracle confirms n!(n-1)! instead
    assert brute_force_automorphism_count(build(3, 2)) == 12    # 3! * 2!
    assert brute_force_automorphism_count(build(4, 3)) == 144   # 4! * 3!


def test_orbit_stabilizer_relation():
    # vertex-transitive, so |Aut| = |V| * |Stab_v| for any vertex
    for n, k in [(4, 2), (5, 2), (5, 3)]:
        g = build(n, k)
        total = brute_force_automorphism_count(g)
        stab = brute_force_automorphism_count(g, fix_vertex=0)
        assert total == g.vertex_count * stab
        # and the stabilizer order is the expected (k-1)!(n-k)!
        assert stab == math.factorial(k - 1) * math.factorial(n - k)


def test_exports():
    g = build(3, 2)
    dot = to_dot(g)
    assert 'label="[1,2]"' in dot
    assert 'kind="star"' in dot and 'kind="residual"' in dot
    lines = edge_list_lines(g)
    assert len(lines) == 6  # 6 vertices, degree 2
    assert all(line.split()[2] in {"S", "R"} for line in lines)


def _export_from_the_label_table(g, fmt):
    """The export built whole from ``vertices`` and ``edges()``: the text the
    streamed writer must reproduce byte for byte."""
    tag = {EdgeKind.STAR: "S", EdgeKind.RESIDUAL: "R"}
    if fmt == "json":
        return json.dumps({"n": g.n, "k": g.k, "vertex_count": g.vertex_count,
                           "vertices": [list(v) for v in g.vertices],
                           "edges": [[i, j, tag[kind]] for i, j, kind in g.edges()]}) + "\n"
    if fmt == "edges":
        return "".join(f"{i} {j} {tag[kind]}\n" for i, j, kind in g.edges())
    return "".join([f'graph "S_{g.n}_{g.k}" {{\n',
                    *(f'  v{i} [label="[{",".join(map(str, v))}]"];\n'
                      for i, v in enumerate(g.vertices)),
                    *(f'  v{i} -- v{j} [kind="{kind.value}"];\n' for i, j, kind in g.edges()),
                    "}\n"])


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n)])
def test_export_chunks_match_the_label_table_and_the_wrappers(n, k):
    g = build(n, k)
    texts = {fmt: "".join(export_chunks(g, fmt)) for fmt in ("dot", "edges", "json")}
    assert g._vertices is None and g._index is None
    for fmt, text in texts.items():
        assert text == _export_from_the_label_table(g, fmt)
    assert to_dot(g) + "\n" == texts["dot"]
    assert edge_list_lines(g) == texts["edges"].splitlines()


@pytest.mark.parametrize("fmt", ["dot", "edges", "json"])
def test_export_chunks_stay_small(fmt):
    chunks = list(export_chunks(build(9, 4), fmt))  # 3,024 vertices, 12,096 edges
    # a chunk holds at most 2,000 lines (or list items) of under 64 bytes
    assert len(chunks) > 10
    assert max(map(len, chunks)) < 128 * 1024


def test_export_chunks_reject_an_unknown_format():
    with pytest.raises(ValueError, match="unknown export format 'csv'"):
        list(export_chunks(build(3, 2), "csv"))


@pytest.mark.parametrize("n,k,expected", [
    (n, k, math.perm(n, k - 1) * math.comb(n - k + 1, 3))
    for n in range(2, 9) for k in range(1, n)])
def test_triangle_census_matches_clique_structure(n, k, expected):
    # triangles come only from residual cliques: one clique of n-k+1
    # vertices per tail, P(n, k-1) tails, C(n-k+1, 3) triangles per clique
    g = build(n, k)
    assert g.triangle_count() == expected
    # the count at one vertex agrees with the census over every edge
    assert stats(n, k) == (g.vertex_count, g.edge_count(), g.degree_split(), expected)
