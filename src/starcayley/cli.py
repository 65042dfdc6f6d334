"""Command-line surface for scripted verification runs.

Subcommands: graph, classify, certify, check, zsigmondy, verify-lemmas.
Exit codes: 0 all checks pass / verdict delivered; 2 a recorded claim failed
to reproduce, or a witness check that certify ran failed (the certificate,
Unknown, is still written), or a certificate or checkpoint is malformed or
cannot be read or written (one line on stderr), or the arguments are
malformed, such as an (n,k) without 1 <= k < n, a budget below 1, a
--time-limit that is not a finite number >= 0 or an empty --d range (a
usage line, then one error line, on stderr); 3 a budget was exhausted: an
element cap, a --time-limit (for check, the replay of a search) or a
primality that Miller-Rabin cannot prove (one line on stderr); 1 stdout was
closed before all output was written, as by `| head` (nothing on stderr).
Output is deterministic: fixed point orders, fixed field moduli, no
randomness anywhere.
"""

from __future__ import annotations

import errno
import math
import os
import sys
import time

from . import DEFAULT_ELEMENT_CAP, DEFAULT_VERTEX_CAP, CapExceeded
from .cmdline import Command, Option, Parser

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"empty range {text}: need LO <= HI")
        return lo, hi
    v = int(text)
    return v, v


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"need an integer >= 1, got {value}")
    return value


def _time_limit(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"need a finite number >= 0, got {text}")
    return value


# Each command imports only the modules it needs: every process pays for
# the modules it imports, and bytecode caching may be off.  The command
# line is read by cmdline, which loads no module that the commands do not
# load anyway, as argparse's gettext, locale and shutil were.  classify,
# certify and check import verdicts alone, which states the rule and records
# table certificates; it imports the group modules only on a route that
# closes a group (cayley) or searches (search).  Where bytecode is not
# cached, a module's whole syntax tree is held while it compiles, so a
# process peaks at its largest compile: the group modules are compiled in
# pieces, the tuple engine in chain and the search apart from cayley, and
# the routes run on chain's image tuples, so none compiles perm, the object
# API and the largest group module.  A witness route imports cayley, then
# chain, pairs, witness_groups and gf; a search route search first.


def cmd_graph(args) -> int:
    from .stargraph import GraphSizeExceeded, build, export_chunks, stats
    try:
        # --stats counts at one vertex and builds no graph, but is refused
        # as the exports are
        result = (stats if args.stats else build)(
            args.n, args.k, vertex_cap=args.budget_vertices)
    except GraphSizeExceeded as exc:
        # within the budget, only the 2^32 ranks of the adjacency store refuse it
        over = math.perm(args.n, args.k) > args.budget_vertices
        print(f"{'budget exhausted' if over else 'graph too large'}: {exc}",
              file=sys.stderr)
        return EXIT_BUDGET
    if args.stats:
        vertices, edges, (star, residual), triangles = result
        print(f"vertices: {vertices}")
        print(f"edges: {edges}")
        print(f"star:{star} residual:{residual} per vertex")
        print(f"triangles: {triangles}")
        return EXIT_OK
    # each chunk is written as it is made, so the text is never held whole
    sys.stdout.writelines(export_chunks(result, args.format))
    return EXIT_OK


def cmd_classify(args) -> int:
    from .verdicts import classify
    if args.n_max < 4:
        print("need --n-max >= 4", file=sys.stderr)
        return EXIT_MISMATCH
    rows = []
    for n in range(4, args.n_max + 1):
        for k in range(2, n - 1):
            result = classify(n, k)
            rows.append((n, k, result.is_cayley, result.clause))
    if args.format == "csv":
        print("n,k,cayley,clause")
        for n, k, cayley, clause in rows:
            print(f"{n},{k},{'yes' if cayley else 'no'},{clause}")
    else:
        width = max(len(r[3]) for r in rows)
        for n, k, cayley, clause in rows:
            mark = "Cayley    " if cayley else "not-Cayley"
            print(f"n={n:>3} k={k:>3}  {mark}  {clause:<{width}}")
    return EXIT_OK


def cmd_certify(args) -> int:
    from .verdicts import build_certificate, classify, is_truncated_search
    try:
        cert = build_certificate(args.n, args.k,
                                 force_search=args.force_search,
                                 element_cap=args.budget_elements,
                                 time_limit=args.time_limit)
    except CapExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    text = cert.to_json()
    if args.out:
        try:
            with open(args.out, "w") as out:
                out.write(text + "\n")
        except OSError as exc:
            print(f"cannot write certificate {args.out}: {_one_line(exc)}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    print(text)
    if is_truncated_search(cert):
        print(f"budget exhausted: {cert.notes[0]}", file=sys.stderr)
        return EXIT_BUDGET
    if not cert.all_passed():  # a witness check failed: the verdict is Unknown
        return EXIT_MISMATCH
    expected = classify(args.n, args.k)
    consistent = (cert.verdict == "Unknown"
                  or (cert.verdict == "Cayley") == expected.is_cayley)
    return EXIT_OK if consistent else EXIT_MISMATCH


def _one_line(exc: Exception) -> str:
    return " ".join(f"{type(exc).__name__}: {exc}".split())


def _check_entry(checks: tuple, i: int) -> str:
    if i >= len(checks):
        return "absent"
    name, ok = checks[i]
    return f"{name}={'pass' if ok else 'fail'}"


def cmd_check(args) -> int:
    from .verdicts import Certificate, is_truncated_search, verify_certificate
    try:
        with open(args.certificate) as recorded:
            cert = Certificate.from_json(recorded.read())
        if is_truncated_search(cert):
            print(f"budget exhausted: {args.certificate} records a truncated "
                  "search, which cannot be reproduced", file=sys.stderr)
            return EXIT_BUDGET
        reproduced, fresh = verify_certificate(cert, cap=args.budget_elements,
                                               time_limit=args.time_limit)
    except CapExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"malformed certificate {args.certificate}: {_one_line(exc)}",
              file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as exc:
        print(f"cannot read certificate {args.certificate}: {_one_line(exc)}",
              file=sys.stderr)
        return EXIT_MISMATCH
    if is_truncated_search(fresh):
        print(f"budget exhausted: the search replay of {args.certificate} ran "
              f"past --time-limit {args.time_limit}", file=sys.stderr)
        return EXIT_BUDGET
    if reproduced:
        print(f"certificate reproduced: ({cert.n},{cert.k}) {cert.verdict} "
              f"via {cert.method}")
        return EXIT_OK
    print("certificate MISMATCH")
    if not fresh.checks:  # nothing could be re-run, and the note says why
        print(fresh.notes[0])
        return EXIT_MISMATCH
    if fresh.verdict != cert.verdict:
        print(f"verdict: recorded {cert.verdict}, fresh {fresh.verdict}")
    for i in range(max(len(cert.checks), len(fresh.checks))):
        recorded, rerun = _check_entry(cert.checks, i), _check_entry(fresh.checks, i)
        if recorded != rerun:
            print(f"check {i + 1}: recorded {recorded}, fresh {rerun}")
    return EXIT_MISMATCH


def _write_checkpoint(path: str, d: int) -> None:
    """Replace the checkpoint's value by d.  The value goes to a temporary
    file in the same directory, which is synced and then renamed over the
    checkpoint, so a crash leaves either the old value or the new one."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    with open(tmp, "w") as out:
        out.write(f"{d}\n")
        out.flush()
        os.fsync(out.fileno())
    os.replace(tmp, path)


def cmd_zsigmondy(args) -> int:
    from . import numbers
    start = 3
    checkpoint = os.path.normpath(args.checkpoint) if args.checkpoint else None
    text = None
    try:
        if checkpoint:
            with open(checkpoint) as saved:
                text = saved.read().strip()
    except OSError as exc:
        # no checkpoint there (the errors pathlib's exists() reads as
        # absent): the scan starts at d = 3
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.ELOOP):
            print(f"cannot read checkpoint {checkpoint}: {_one_line(exc)}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    if text is not None:
        if not (text.isascii() and text.isdigit()):
            print(f"corrupt checkpoint {checkpoint}: {text[:40]!r} is not a "
                  "decimal integer", file=sys.stderr)
            return EXIT_MISMATCH
        start = max(start, int(text) + 1)
    failing = []
    for d in range(start, args.d_max + 1):
        t0 = time.perf_counter()
        primitive = numbers.has_primitive_divisor(d)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        print(f"{d},{1 if primitive else 0},{elapsed_ms:.3f}")
        if not primitive:
            failing.append(d)
        if checkpoint and (d % args.checkpoint_every == 0 or d == args.d_max):
            try:
                _write_checkpoint(checkpoint, d)
            except OSError as exc:
                print(f"cannot write checkpoint {checkpoint}: {_one_line(exc)}",
                      file=sys.stderr)
                return EXIT_MISMATCH
    expected = [7] if start <= 7 <= args.d_max else []
    if failing != expected:
        print(f"unexpected failing set {failing} (expected {expected})",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    from . import numbers
    lo, hi = args.d
    ok = True
    for d in range(lo, hi + 1):
        if d < 3:
            print(f"d={d}: skipped (needs d >= 3)")
            continue
        if d < 8:
            divides = numbers.kernel_order_divides_factorial(d)
            status = "EXPECTED-FAIL ok" if not divides else "UNEXPECTED-PASS"
            ok = ok and not divides
            print(f"d={d}: kernel-order divisibility into (2^d-4)! -> "
                  f"{divides} [{status}]")
        else:
            bound = numbers.index_binomial_bound(d)
            valuation = numbers.two_adic_obstruction(d)
            ok = ok and bound and valuation
            print(f"d={d}: index-binomial-bound {'pass' if bound else 'FAIL'}, "
                  f"two-adic-obstruction {'pass' if valuation else 'FAIL'}")
    return EXIT_OK if ok else EXIT_MISMATCH


# The command line: one table names each command's handler, its positionals
# and its options, and cmdline.Parser reads a command line against it as
# argparse did, and renders the usage and --help from it.
COMMANDS = {
    "graph": Command(cmd_graph, "build a star graph and export it",
                     (("n", int), ("k", int)), {
        "--format": Option(str, "dot", ("dot", "edges", "json"), help="export format"),
        "--stats": Option(None, False,
                          help="print vertex count, degree split and triangle census"),
        "--budget-vertices": Option(_positive_int, DEFAULT_VERTEX_CAP,
                                    help="the most vertices a graph may have"),
    }),
    "classify": Command(cmd_classify, "print the Cayley classification table", (), {
        "--n-max": Option(int, None, required=True, help="the last n of the table"),
        "--format": Option(str, "text", ("text", "csv"), help="table format"),
    }),
    "certify": Command(cmd_certify, "produce a Cayley certificate for (n,k)",
                       (("n", int), ("k", int)), {
        "--force-search": Option(None, False, help="search for a regular subgroup"),
        "--budget-elements": Option(_positive_int, DEFAULT_ELEMENT_CAP,
                                    help="the largest group to close"),
        "--time-limit": Option(_time_limit, None,
                               help="seconds before a search truncates to Unknown"),
        "--out": Option(str, None, help="also write the certificate JSON to this path"),
    }),
    "check": Command(cmd_check, "re-run every check a certificate records",
                     (("certificate", str),), {
        "--budget-elements": Option(_positive_int, DEFAULT_ELEMENT_CAP,
                                    help="the largest group to close"),
        "--time-limit": Option(_time_limit, None,
                               help="seconds before the replay of a search stops (exit 3)"),
    }),
    "zsigmondy": Command(cmd_zsigmondy, "scan 2^d-3 for primitive prime divisors (CSV)", (), {
        "--d-max": Option(int, None, required=True, help="the last d to scan"),
        "--checkpoint": Option(str, None, help="resume file holding the last verified d"),
        "--checkpoint-every": Option(_positive_int, 100,
                                     help="how many d between checkpoint writes"),
    }),
    "verify-lemmas": Command(cmd_verify_lemmas,
                             "run the AGL(d,2) feasibility battery over a d range", (), {
        "--d": Option(_parse_range, None, required=True, help="the d range, or one d",
                      metavar="LO..HI"),
    }),
}

DESCRIPTION = ("(n,k)-star graphs: construction, Cayley certification, and the arithmetic\n"
               "verification battery")


def make_parser() -> Parser:
    return Parser("starcayley", DESCRIPTION, COMMANDS)


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if "k" in vars(args) and not 1 <= args.k < args.n:
        parser.error(f"{args.command}: need 1 <= k < n, got n={args.n}, k={args.k}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left early shows up here too
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does.  Point stdout at
        # devnull, so that the flush at exit meets no second broken pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
