"""Output checks that share no code with starcayley.

Each check takes data already parsed from a run's output (the CLI's text in
an untraced run, the returned objects in a traced run) and returns a list of
problems; an empty list means the output is correct.  The classification
rule, the prime-power test, the vertex action, the closed forms and the
factorisations are all written here from their definitions.
"""

from __future__ import annotations

import json
import math
import re
from itertools import permutations

SPORADIC = frozenset({(9, 4), (9, 6), (11, 4), (12, 5), (33, 4), (33, 30)})

# rows of the zsigmondy scan up to this d are compared with a trial-division
# factorisation of 2^d - 3 (at most 2^20 divisions per row)
FACTOR_CHECK_MAX_D = 40


def prime_power_base(q: int) -> int | None:
    """The prime p with q = p^m (m >= 1), or None when q is not a prime power."""
    if q < 2:
        return None
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


def is_cayley(n: int, k: int) -> bool:
    """The paper's classification of the (n,k)-star graphs, 1 <= k < n."""
    if k in (1, n - 1) or n == k + 2:
        return True
    if k == 2:
        return prime_power_base(n) is not None
    if k == 3:
        return prime_power_base(n - 1) is not None
    return (n, k) in SPORADIC


def expected_verdict(n: int, k: int) -> str:
    return "Cayley" if is_cayley(n, k) else "NotCayley"


# ---------------------------------------------------------------------------
# certificates


def check_certificate(cert: dict, n: int, k: int, may_be_unknown: bool) -> list[str]:
    """Verdict against the rule, plus a breadth-first orbit for Cayley witnesses."""
    if (cert.get("n"), cert.get("k")) != (n, k):
        return [f"certificate is for ({cert.get('n')},{cert.get('k')}), not ({n},{k})"]
    verdict = cert.get("verdict")
    if verdict == "Unknown" and may_be_unknown:
        return []
    if verdict != expected_verdict(n, k):
        return [f"({n},{k}) verdict {verdict}, rule says {expected_verdict(n, k)}"]
    method = cert.get("method")
    if method == "DirectRegularAction":
        reached = pair_orbit_size(n, k, cert["witness"]["generators"])
        if reached != math.perm(n, k):
            return [f"({n},{k}) generators reach {reached} of "
                    f"{math.perm(n, k)} vertices"]
    elif method == "LambdaTransitiveWitness":
        lam = tuple(cert["witness"]["lam"])
        if lam != (n - k, k - 1, 1):
            return [f"({n},{k}) flag shape {lam} is not ({n - k},{k - 1},1)"]
        total = math.factorial(n) // (math.factorial(n - k) * math.factorial(k - 1))
        reached = flag_orbit_size(n, n - k, cert["witness"]["generators"])
        if reached != total:
            return [f"({n},{k}) generators reach {reached} of {total} flags"]
    elif verdict == "Cayley" and method != "ClassificationTable":
        return [f"({n},{k}) Cayley certificate with unexpected method {method}"]
    return []


def pair_orbit_size(n: int, k: int, generators: list[dict]) -> int:
    """Vertices reached from [1..k] under the pairs (mu, nu).

    The pair acts by [a1..ak] -> [mu(a_{nu^-1(1)}), ..., mu(a_{nu^-1(k)})].
    """
    moves = []
    for g in generators:
        mu, nu = g["mu"], g["nu"]
        nu_inv = [0] * n
        for i, image in enumerate(nu):
            nu_inv[image - 1] = i
        order = [nu_inv[i] for i in range(k)]
        moves.append(((0, *mu), order))
    start = tuple(range(1, k + 1))
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for v in frontier:
            for mu, order in moves:
                w = tuple([mu[v[p]] for p in order])
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return len(seen)


def flag_orbit_size(n: int, first: int, generators: list[list[int]]) -> int:
    """Flags (first-set, middle-set, point) reached from the canonical flag.

    A flag of shape (first, n-first-1, 1) is fixed by its first block and its
    last point, so a state is the sorted first block followed by the point.
    """
    maps = [(0, *g) for g in generators]
    start = (*range(1, first + 1), n)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for s in frontier:
            for g in maps:
                w = (*sorted([g[x] for x in s[:first]]), g[s[first]])
                if w not in seen:
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return len(seen)


# ---------------------------------------------------------------------------
# graphs


def check_graph_stats(n: int, k: int, stats: dict) -> list[str]:
    vertices = math.perm(n, k)
    want = {
        "vertices": vertices,
        "edges": vertices * (n - 1) // 2,
        "split": [k - 1, n - k],
        "triangles": math.perm(n, k - 1) * math.comb(n - k + 1, 3),
    }
    return [f"({n},{k}) {key} {stats.get(key)} != {value}"
            for key, value in want.items() if stats.get(key) != value]


def parse_graph_stats(text: str) -> dict:
    fields = dict(line.split(":", 1) for line in text.splitlines()
                  if line.startswith(("vertices:", "edges:", "triangles:")))
    split = re.search(r"star:(\d+) residual:(\d+)", text)
    return {
        "vertices": int(fields.get("vertices", -1)),
        "edges": int(fields.get("edges", -1)),
        "split": [int(split[1]), int(split[2])] if split else None,
        "triangles": int(fields.get("triangles", -1)),
    }


def edge_tag(u: tuple, v: tuple) -> str | None:
    """S for a star edge, R for a residual edge, None for a non-edge."""
    if u[1:] == v[1:]:
        return "R" if u[0] != v[0] else None
    diff = [i for i in range(len(u)) if u[i] != v[i]]
    if len(diff) == 2 and diff[0] == 0 and u[0] == v[diff[1]] and v[0] == u[diff[1]]:
        return "S"
    return None


def check_edges(n: int, k: int, vertices: list[tuple],
                edges: list[tuple[int, int, str]]) -> list[str]:
    """Every exported edge is a star or residual edge with the right tag, once."""
    problems = []
    if vertices != list(permutations(range(1, n + 1), k)):
        problems.append(f"({n},{k}) vertex list is not the k-permutations in order")
    want = math.perm(n, k) * (n - 1) // 2
    if len(edges) != want or len({frozenset((i, j)) for i, j, _ in edges}) != want:
        problems.append(f"({n},{k}) {len(edges)} edges exported, want {want} distinct")
    bad = [(i, j, tag) for i, j, tag in edges
           if not (0 <= i < len(vertices) and 0 <= j < len(vertices))
           or edge_tag(vertices[i], vertices[j]) != tag]
    if bad:
        problems.append(f"({n},{k}) {len(bad)} edges wrongly tagged, e.g. {bad[0]}")
    return problems


def parse_edges(fmt: str, text: str, n: int, k: int) -> tuple[list[tuple], list[tuple]]:
    """(vertices, edges) from an exported graph in the dot, edges or json format."""
    if fmt == "json":
        data = json.loads(text)
        return ([tuple(v) for v in data["vertices"]],
                [(i, j, tag) for i, j, tag in data["edges"]])
    if fmt == "edges":
        edges = []
        for line in text.splitlines():
            i, j, tag = line.split()
            edges.append((int(i), int(j), tag))
        return list(permutations(range(1, n + 1), k)), edges
    labels = re.findall(r'^\s*v(\d+) \[label="\[([\d,]+)\]"\];$', text, re.M)
    vertices = [tuple(int(a) for a in label.split(",")) for _, label in labels]
    if [int(i) for i, _ in labels] != list(range(len(labels))):
        vertices = []
    kinds = {"star": "S", "residual": "R"}
    edges = [(int(i), int(j), kinds.get(kind, kind)) for i, j, kind in
             re.findall(r'^\s*v(\d+) -- v(\d+) \[kind="(\w+)"\];$', text, re.M)]
    return vertices, edges


# ---------------------------------------------------------------------------
# number theory


def factor(m: int) -> list[int]:
    """Distinct prime factors of m by trial division."""
    primes = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def has_primitive_prime(d: int) -> bool:
    """Whether some prime factor of 2^d - 3 divides no 2^i - 3 with 2 <= i < d."""
    return any(all(pow(2, i, p) != 3 % p for i in range(2, d))
               for p in factor((1 << d) - 3))


def check_zsigmondy(rows: list[tuple[int, int]], first: int, last: int,
                    checkpoint: int | None = None) -> list[str]:
    """Rows cover first..last; only d = 7 lacks a primitive divisor."""
    problems = []
    if [d for d, _ in rows] != list(range(first, last + 1)):
        problems.append(f"zsigmondy rows do not cover d = {first}..{last}")
    failing = {d for d, primitive in rows if not primitive}
    want = {7} if first <= 7 <= last else set()
    if failing != want:
        problems.append(f"zsigmondy failing set {sorted(failing)} != {sorted(want)}")
    wrong = [d for d, primitive in rows
             if d <= FACTOR_CHECK_MAX_D and bool(primitive) != has_primitive_prime(d)]
    if wrong:
        problems.append(f"zsigmondy rows disagree with factorisation at d = {wrong}")
    if checkpoint is not None and checkpoint != last:
        problems.append(f"checkpoint ends at {checkpoint}, window ends at {last}")
    return problems


def parse_zsigmondy(text: str) -> list[tuple[int, int]]:
    return [(int(d), int(p)) for d, p, _ in
            (line.split(",") for line in text.splitlines() if line)]


def kernel_order_divides(d: int) -> bool:
    """Whether t = P(2^d, 2^d - 3) / |AGL(d,2)| divides (2^d - 4)!."""
    q = 1 << d
    agl = q
    for i in range(d):
        agl *= q - (1 << i)
    t = math.perm(q, q - 3) // agl
    return math.factorial(q - 4) % t == 0


def check_lemmas(rows: list[tuple[int, list[bool]]], first: int, last: int) -> list[str]:
    """d < 8 rows report t not dividing (2^d-4)!, checked here; d >= 8 rows pass."""
    if [d for d, _ in rows] != list(range(first, last + 1)):
        return [f"verify-lemmas rows do not cover d = {first}..{last}"]
    problems = []
    for d, values in rows:
        values = tuple(values)
        if d < 8:
            if values != (False,) or kernel_order_divides(d):
                problems.append(f"verify-lemmas d={d}: reported {values}")
        elif values != (True, True):
            problems.append(f"verify-lemmas d={d}: reported {values}")
    return problems


def parse_lemmas(text: str) -> list[tuple[int, list[bool]]]:
    rows = []
    for line in text.splitlines():
        m = re.match(r"d=(\d+): kernel-order divisibility into \S+ -> (True|False)", line)
        if m:
            rows.append((int(m[1]), [m[2] == "True"]))
            continue
        m = re.match(r"d=(\d+): index-binomial-bound (\w+), two-adic-obstruction (\w+)",
                     line)
        if m:
            rows.append((int(m[1]), [m[2] == "pass", m[3] == "pass"]))
    return rows


def check_classification(rows: list[tuple[int, int, bool]], n_max: int) -> list[str]:
    want = [(n, k) for n in range(4, n_max + 1) for k in range(2, n - 1)]
    if [(n, k) for n, k, _ in rows] != want:
        return [f"classify rows do not cover 4 <= n <= {n_max}, 2 <= k <= n-2"]
    wrong = [(n, k) for n, k, cayley in rows if cayley != is_cayley(n, k)]
    return [f"classify disagrees with the rule at {wrong}"] if wrong else []


def parse_classification(text: str) -> list[tuple[int, int, bool]]:
    lines = text.splitlines()
    return [(int(n), int(k), cayley == "yes") for n, k, cayley, _ in
            (line.split(",") for line in lines[1:] if line)]
