"""Traced replay of one starcayley command line.

run.py starts this script once per command line, with ``PYTHONPATH`` set to
the checkout's ``src``, so every replay starts in a fresh process the way
the CLI run does: caches are cold and the peak RSS is this process's own.

    python3 bench/replay.py '{"op": 3, "argv": ["certify", "12", "5", "--out", "c.json"]}'

Instead of calling the CLI, the replay makes the calls into the layers'
public functions that the command's work consists of, lower layers first so
that a cached lower layer is warm when an upper one runs.  Every such call
gets a span.  The replay prints one JSON line: the spans, and a result in
the shape run.py's output checks expect.  The argument ``probe`` instead of
a JSON request makes one small fixed call into each measured layer.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from starcayley import cayley, cli, gf, numbers, pairs, perm, stargraph, witness_groups

import checks

# The witness `certify` builds for each yes-case the workloads certify:
# (constructor, field order, shape).  The shape is "mu" for H x 1, "pairs"
# for H x S_{k-1} and "flag" for the flag-based certificate.
SPORADIC_WITNESS = {
    (9, 4): ("psl2", 8, "pairs"),
    (9, 6): ("psl2", 8, "pairs"),
    (11, 4): ("mathieu11", None, "mu"),
    (12, 5): ("mathieu12", None, "mu"),
    (33, 4): ("pgammal2", 32, "pairs"),
    (33, 30): ("pgammal2", 32, "flag"),
}

# build_certificate searches a no-case when |S_n x S_{k-1}| is at most this
SEARCH_AUT_LIMIT = 1000

def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory: name, start, end, parent, operation, peak RSS rise."""

    def __init__(self, op: int):
        self.op = op
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "parent": self._open[-1]["id"] if self._open else None}
        self.spans.append(span)
        self._open.append(span)
        peak = _peak_mb()
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            span["peak_rise_mb"] = _peak_mb() - peak
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _field_of(q: int) -> tuple[int, int]:
    p = checks.prime_power_base(q)
    return p, round(math.log(q, p))


def witness_recipe(n: int, k: int):
    if (n, k) in SPORADIC_WITNESS:
        return SPORADIC_WITNESS[(n, k)]
    if k == 2:
        return "agl1", n, "mu"
    if k == 3:
        return "pgl2", n - 1, "mu"
    return None


def replay_certify(t: Tracer, args) -> dict:
    n, k = args.n, args.k
    yes = checks.is_cayley(n, k)
    small = math.factorial(n) * math.factorial(k - 1) <= SEARCH_AUT_LIMIT
    recipe = witness_recipe(n, k) if yes else None
    if args.force_search or (not yes and small):
        cert = _search(t, n, k, args)
    elif recipe is None:
        cert = t.call("cayley.table_certificate", cayley.table_certificate, n, k)
    else:
        ctor, q, shape = recipe
        if q is not None:
            t.call("gf.field", gf.field, *_field_of(q))
        h = t.call(f"witness_groups.{ctor}", getattr(witness_groups, ctor),
                   *([] if q is None else [q]))
        if ctor.startswith("mathieu"):
            t.call("perm.is_sharply_k_transitive", perm.is_sharply_k_transitive, h, k)
        if shape == "flag":
            flag = t.call("perm.canonical_flag", perm.canonical_flag,
                          (n - k, k - 1, 1), n)
            t.call("perm.flag_stabilizer", perm.flag_stabilizer, h, flag)
            cert = t.call("cayley.certify_via_lambda", cayley.certify_via_lambda, h, n, k)
        else:
            nu = (t.call("pairs.symmetric_nu_group", pairs.symmetric_nu_group, n, k)
                  if shape == "pairs" else None)
            group = t.call("pairs.PairGroup.direct_product",
                           pairs.PairGroup.direct_product, h, k, nu)
            cert = t.call("cayley.sabidussi_direct", cayley.sabidussi_direct, group, n, k)
    text = t.call("cayley.Certificate.to_json", cert.to_json)
    if args.out:
        Path(args.out).write_text(text + "\n")
    result = {"cert": json.loads(text)}
    for span in t.spans:
        if "overrun_s" in span:
            result["overrun_s"] = span["overrun_s"]
    return result


def _search(t: Tracer, n: int, k: int, args):
    _enumerate_aut(t, n, k, args.budget_elements)
    with t.span("cayley.search_regular_subgroup") as span:
        cert = cayley.search_regular_subgroup(n, k, cap=args.budget_elements,
                                              time_limit=args.time_limit)
    if args.time_limit is not None:
        span["overrun_s"] = max(0.0, span["end"] - span["start"] - args.time_limit)
    return cert


def _enumerate_aut(t: Tracer, n: int, k: int, cap: int) -> None:
    with t.span("pairs.aut_product") as span:
        span["count"] = sum(1 for _ in pairs.aut_product(n, k, cap=cap).iter_pairs())


def _closure(t: Tracer, generators: list) -> perm.PermGroup:
    with t.span("perm.closure") as span:
        group = perm.closure(generators)
        span["count"] = group.order
    return group


def replay_check(t: Tracer, args) -> dict:
    text = Path(args.certificate).read_text()
    cert = t.call("cayley.Certificate.from_json", cayley.Certificate.from_json, text)
    n, k, witness = cert.n, cert.k, cert.witness
    if cert.method == cayley.METHOD_DIRECT:
        gens = t.call("pairs.AutPair.from_dict",
                      lambda: [pairs.AutPair.from_dict(g) for g in witness["generators"]])
        t.call("pairs.PairGroup.generate", pairs.PairGroup.generate, n, k, gens,
               cap=args.budget_elements)
        _closure(t, [g.mu for g in gens])
    elif cert.method == cayley.METHOD_LAMBDA:
        h = _closure(t, [perm.Perm(g) for g in witness["generators"]])
        flag = t.call("perm.canonical_flag", perm.canonical_flag, witness["lam"], n)
        t.call("perm.flag_stabilizer", perm.flag_stabilizer, h, flag)
        t.call("cayley.certify_via_lambda", cayley.certify_via_lambda, h, n, k)
    elif cert.method == cayley.METHOD_REFUTATION:
        _enumerate_aut(t, n, k, args.budget_elements)
    reproduced, _ = t.call("cayley.verify_certificate", cayley.verify_certificate, cert,
                           cap=args.budget_elements)
    return {"reproduced": reproduced}


def replay_graph(t: Tracer, args) -> dict:
    graph = t.call("stargraph.build", stargraph.build, args.n, args.k,
                   vertex_cap=args.budget_vertices)
    if args.stats:
        return {"stats": {
            "vertices": graph.vertex_count,
            "edges": t.call("stargraph.StarGraph.edge_count", graph.edge_count),
            "split": list(t.call("stargraph.StarGraph.degree_split", graph.degree_split)),
            "triangles": t.call("stargraph.StarGraph.triangle_count", graph.triangle_count),
        }}
    if args.format == "dot":
        return {"text": t.call("stargraph.to_dot", stargraph.to_dot, graph)}
    if args.format == "edges":
        lines = t.call("stargraph.edge_list_lines", stargraph.edge_list_lines, graph)
        return {"text": "\n".join(lines)}
    edges = t.call("stargraph.StarGraph.edges", lambda: list(graph.edges()))
    tag = {stargraph.EdgeKind.STAR: "S", stargraph.EdgeKind.RESIDUAL: "R"}
    return {"text": json.dumps({"vertices": graph.vertices,
                                "edges": [(i, j, tag[kind]) for i, j, kind in edges]})}


def replay_zsigmondy(t: Tracer, args) -> dict:
    start = 3
    if args.checkpoint and Path(args.checkpoint).exists():
        start = max(start, int(Path(args.checkpoint).read_text()) + 1)
    rows = [(d, int(t.call("numbers.has_primitive_divisor",
                           numbers.has_primitive_divisor, d)))
            for d in range(start, args.d_max + 1)]
    return {"rows": rows}


def replay_verify_lemmas(t: Tracer, args) -> dict:
    lo, hi = args.d
    rows = []
    for d in range(max(lo, 3), hi + 1):
        if d < 8:
            values = [t.call("numbers.kernel_order_divides_factorial",
                             numbers.kernel_order_divides_factorial, d)]
        else:
            values = [t.call("numbers.index_binomial_bound", numbers.index_binomial_bound, d),
                      t.call("numbers.two_adic_obstruction", numbers.two_adic_obstruction, d)]
        rows.append((d, values))
    return {"lemmas": rows}


def replay_classify(t: Tracer, args) -> dict:
    rows = [(n, k, t.call("cayley.classify", cayley.classify, n, k).is_cayley)
            for n in range(4, args.n_max + 1) for k in range(2, n - 1)]
    return {"rows": rows}


def replay_probe(t: Tracer) -> dict:
    """One small call into every measured layer, at the sizes of S_{4,2}."""
    t.call("gf.field", gf.field, 2, 2)
    h = t.call("witness_groups.agl1", witness_groups.agl1, 4)
    _closure(t, list(h.generators))
    t.call("perm.is_sharply_k_transitive", perm.is_sharply_k_transitive, h, 2)
    flag = t.call("perm.canonical_flag", perm.canonical_flag, (2, 1, 1), 4)
    t.call("perm.flag_stabilizer", perm.flag_stabilizer, h, flag)
    _enumerate_aut(t, 4, 2, perm.DEFAULT_ELEMENT_CAP)
    e = perm.Perm.identity(4)
    t.call("pairs.PairGroup.generate", pairs.PairGroup.generate, 4, 2,
           [pairs.AutPair(g, e) for g in h.generators])
    group = t.call("pairs.PairGroup.direct_product", pairs.PairGroup.direct_product, h, 2)
    cert = t.call("cayley.sabidussi_direct", cayley.sabidussi_direct, group, 4, 2)
    t.call("cayley.certify_via_lambda", cayley.certify_via_lambda, h, 4, 2)
    t.call("cayley.verify_certificate", cayley.verify_certificate, cert)
    with t.span("cayley.search_regular_subgroup") as span:
        cayley.search_regular_subgroup(4, 2, time_limit=0.0)
    span["overrun_s"] = span["end"] - span["start"]
    graph = t.call("stargraph.build", stargraph.build, 4, 2)
    t.call("stargraph.StarGraph.triangle_count", graph.triangle_count)
    t.call("stargraph.to_dot", stargraph.to_dot, graph)
    t.call("numbers.has_primitive_divisor", numbers.has_primitive_divisor, 8)
    t.call("numbers.kernel_order_divides_factorial", numbers.kernel_order_divides_factorial, 3)
    return {}


REPLAYS = {
    "certify": replay_certify,
    "check": replay_check,
    "graph": replay_graph,
    "zsigmondy": replay_zsigmondy,
    "verify-lemmas": replay_verify_lemmas,
    "classify": replay_classify,
}


def main() -> int:
    gf.field.cache_clear()
    for constructor in vars(witness_groups).values():
        if hasattr(constructor, "cache_clear"):
            constructor.cache_clear()
    if sys.argv[1] == "probe":
        tracer = Tracer("probe")
        with tracer.span("bench.op"):
            result = replay_probe(tracer)
    else:
        request = json.loads(sys.argv[1])
        args = cli.make_parser().parse_args(request["argv"])
        tracer = Tracer(request["op"])
        with tracer.span("bench.op") as root:
            root["argv"] = request["argv"]
            result = REPLAYS[args.command](tracer, args)
    print(json.dumps({"spans": tracer.spans, "result": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
