"""End-to-end benchmark of the starcayley CLI, with a traced per-layer run.

    python3 bench/run.py --workload certs --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout; the program is taken from its ``src``
directory.  Workloads (see README.md): ``certs``, ``search``, ``scan``, or
``all`` for the three in turn.

Load is a closed loop from this one process: it starts one CLI child at a
time and waits for it, through launch.py.  A run first times SETUP_PROBES
fresh CLI processes that do no work, then runs whole rounds of the workload's
command lines, starting another round only if it should end within
``--seconds``, and checks every output against checks.py outside the timed
region (an output that repeats an earlier round's byte for byte keeps that
round's verdict).  Each time figure sums, over the command lines, each one's
median wall over the rounds.

With ``--trace 1`` each command line is instead replayed by replay.py, in a
process of its own, with a span around every call into a layer; the spans go
to ``.bench_work/trace-<workload>-seed<seed>.jsonl`` and the per-layer
metrics are self times summed over those spans.

The last line printed is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

SPORADIC_YES = [(9, 4), (9, 6), (11, 4), (12, 5), (33, 4), (33, 30)]
# odd-characteristic prime powers with m >= 2; the seed picks one field for
# the k=2 member (q, 2) and one for the k=3 member (q+1, 3).  The fields are
# close in size, so the choice moves no time or certificate size by much.
K2_FIELDS = (25, 27)
K3_FIELDS = (25, 27)
# (33,4) is certified but not checked: `check 33 4` alone runs about 65 s and
# peaks at 1.1 GB, longer than a whole run of any workload may take.
UNCHECKED = {(33, 4)}
# the n = 34 row of the classification table: every certificate in it is the
# table's verdict, so certify and check build no group
TABLE_PAIRS = [(34, k) for k in range(2, 34)]
SEARCH_HITS = [(6, 4), (7, 2)]
DEADLINE_PAIR, DEADLINE_S = (8, 3), 2
DEADLINE_GRACE_S = 1.0
ZSIGMONDY_D_MAX = 1000
WINDOW_START, WINDOW_OFFSETS, WINDOW_LENGTH = 2000, 25, 500
LEMMA_D = (3, 40)
CLASSIFY_N_MAX = 34

SETUP_PROBES = 21
SETUP_ARGV = ["classify", "--n-max", "4"]
RUN_BUDGET_S = 170.0


def op(*argv, **fields) -> dict:
    return {"argv": [str(a) for a in argv], **fields}


def certs_ops(rng: random.Random) -> list[dict]:
    pairs = [*SPORADIC_YES, (rng.choice(K2_FIELDS), 2), (rng.choice(K3_FIELDS) + 1, 3)]
    ops = []
    for n, k in pairs:
        out = f"cert-{n}-{k}.json"
        ops.append(op("certify", n, k, "--out", out, n=n, k=k, out=out))
        if (n, k) not in UNCHECKED:
            ops.append(op("check", out))
    return ops


def search_ops(rng: random.Random) -> list[dict]:
    ops = [op("certify", 6, 2, "--out", "cert-6-2.json", n=6, k=2, out="cert-6-2.json"),
           op("check", "cert-6-2.json")]
    for n, k in SEARCH_HITS:
        out = f"cert-{n}-{k}.json"
        ops += [op("certify", n, k, "--force-search", "--out", out, n=n, k=k, out=out),
                op("check", out)]
    n, k = DEADLINE_PAIR
    ops.append(op("certify", n, k, "--force-search", "--time-limit", DEADLINE_S,
                  n=n, k=k, limit=DEADLINE_S))
    return ops


def scan_ops(rng: random.Random) -> list[dict]:
    start = WINDOW_START + rng.randrange(WINDOW_OFFSETS)
    last = start + WINDOW_LENGTH
    ops = [op("graph", 12, 5, "--stats", n=12, k=5),
           op("graph", 11, 6, "--stats", n=11, k=6)]
    ops += [op("graph", 8, 4, "--format", fmt, n=8, k=4, fmt=fmt)
            for fmt in ("dot", "edges", "json")]
    ops += [op("zsigmondy", "--d-max", ZSIGMONDY_D_MAX, first=3, last=ZSIGMONDY_D_MAX),
            op("zsigmondy", "--d-max", last, "--checkpoint", "scan.ckpt",
               first=start + 1, last=last, checkpoint=("scan.ckpt", start)),
            op("verify-lemmas", "--d", f"{LEMMA_D[0]}..{LEMMA_D[1]}"),
            op("classify", "--n-max", CLASSIFY_N_MAX, "--format", "csv")]
    for n, k in TABLE_PAIRS:
        out = f"cert-{n}-{k}.json"
        ops += [op("certify", n, k, "--out", out, n=n, k=k, out=out), op("check", out)]
    return ops


WORKLOADS = {"certs": certs_ops, "search": search_ops, "scan": scan_ops}

END_TO_END = {"setup_s": "s", "wall_s": "s", "certify_s": "s", "check_s": "s",
              "peak_rss_mb": "MB", "cert_bytes": "bytes"}
# printed where the workload runs these commands; not in the result line,
# because only scan does
COMMAND_TOTALS = {"graph_s": "s", "zsigmondy_s": "s"}

# per-layer metric -> the span names whose self time it sums; a name ending
# in "." stands for every span in that module
LAYER_TIMES = {
    "gf.field_s": ("gf.field",),
    "witness_groups.build_s": ("witness_groups.",),
    "perm.closure_s": ("perm.closure",),
    "perm.flag_stabilizer_s": ("perm.flag_stabilizer",),
    "perm.transitivity_s": ("perm.is_sharply_k_transitive",),
    "pairs.generate_s": ("pairs.PairGroup.generate",),
    "pairs.aut_product_s": ("pairs.aut_product",),
    "cayley.sabidussi_s": ("cayley.sabidussi_direct",),
    "cayley.lambda_s": ("cayley.certify_via_lambda",),
    "cayley.verify_s": ("cayley.verify_certificate",),
    "cayley.search_s": ("cayley.search_regular_subgroup",),
    "stargraph.build_s": ("stargraph.build",),
    "stargraph.triangle_count_s": ("stargraph.StarGraph.triangle_count",),
    "stargraph.export_s": ("stargraph.to_dot", "stargraph.edge_list_lines",
                           "stargraph.StarGraph.edges"),
    "numbers.primitive_divisor_s": ("numbers.has_primitive_divisor",),
    "numbers.battery_s": ("numbers.kernel_order_divides_factorial",
                          "numbers.index_binomial_bound", "numbers.two_adic_obstruction"),
}
LAYER_PEAKS = {"pairs.generate_peak_mb": "pairs.PairGroup.generate",
               "stargraph.build_peak_mb": "stargraph.build",
               "stargraph.triangle_count_peak_mb": "stargraph.StarGraph.triangle_count"}


class Child:
    """A finished child process: wall time, exit code, peak RSS and its output."""

    def __init__(self, result: dict, out: Path):
        self.wall = result["wall"]
        self.code = result["code"]
        self.rss_mb = result["rss_mb"]
        self.stdout = out.read_text()
        self.stderr = out.with_suffix(".err").read_text()


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.ops = WORKLOADS[workload](random.Random(seed))
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.spans: list[dict] = []
        self.per_op: dict[int, list[Child]] = {}
        self.replay_walls: list[float] = []
        self.checked: dict[tuple, list[str]] = {}
        self.check_s = 0.0

    def child(self, argv: list[str], name: str, timeout: float | None = None) -> Child:
        remaining = self.deadline - time.perf_counter()
        out = self.work / f"{name}.out"
        request = {"argv": argv, "cwd": str(self.work), "out": str(out),
                   "timeout": remaining if timeout is None else min(timeout, remaining)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        return Child(json.loads(self.launcher.stdout.readline()), out)

    def cli(self, argv: list[str], name: str, timeout: float | None = None) -> Child:
        return self.child([sys.executable, "-m", "starcayley.cli", *argv], name, timeout)

    def replay(self, request: str, name: str) -> tuple[Child, dict | None]:
        child = self.child([sys.executable, str(ROOT / "bench" / "replay.py"), request], name)
        if child.code != 0:
            return child, None
        payload = json.loads(child.stdout.splitlines()[-1])
        self.spans += payload["spans"]
        return child, payload["result"]

    # -- one operation -------------------------------------------------------

    def run_op(self, index: int, spec: dict) -> Child | None:
        self.attempted += 1
        label = " ".join(spec["argv"])
        if time.perf_counter() >= self.deadline:
            self.failures.append(f"not run, {RUN_BUDGET_S:.0f} s budget spent: {label}")
            return None
        if "checkpoint" in spec:
            path, last = spec["checkpoint"]
            (self.work / path).write_text(f"{last}\n")
        if "out" in spec:
            (self.work / spec["out"]).unlink(missing_ok=True)
        limit = spec.get("limit")
        if self.trace:
            # the replay runs to the end, so its span shows the whole overrun
            child, data = self.replay(json.dumps({"op": index, "argv": spec["argv"]}),
                                      f"op{index}")
        else:
            # a caller who set a time limit stops waiting once the grace is spent
            timeout = None if limit is None else limit + DEADLINE_GRACE_S
            child, data = self.cli(spec["argv"], f"op{index}", timeout), None
        failure = None
        if limit is not None:
            overrun = data["overrun_s"] if data else child.wall - limit
            if overrun > DEADLINE_GRACE_S:
                if child.code == -signal.SIGKILL:
                    failure = (f"deadline-overrun: {label} killed {DEADLINE_GRACE_S} s "
                               f"past its {limit} s limit")
                else:
                    failure = (f"deadline-overrun: {label} returned {overrun:.2f} s past "
                               f"its {limit} s limit (grace {DEADLINE_GRACE_S} s)")
        expected = {0, 3} if limit is not None else {0}
        if child.code not in expected or (self.trace and data is None):
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(failure or f"exit {child.code}: {label} {tail[0]}")
            return child
        if failure:
            self.failures.append(failure)
        if self.trace:
            self.problems += self.check_output(spec, label, child, data)
            return child
        # a later round that reproduces an output byte for byte has the
        # verdict of its first check
        key = (index, child.code, child.stdout, *self.files(spec))
        if key not in self.checked:
            start = time.perf_counter()
            self.checked[key] = self.check_output(spec, label, child, data)
            self.check_s += time.perf_counter() - start
        self.problems += self.checked[key]
        return child

    def files(self, spec: dict) -> list[str | None]:
        names = [spec.get("out"), spec.get("checkpoint", [None])[0]]
        return [(self.work / n).read_text() if n and (self.work / n).exists() else None
                for n in names]

    def check_output(self, spec: dict, label: str, child: Child, data: dict | None) -> list[str]:
        limit = spec.get("limit")
        try:
            if data is None:
                data = self.parse(spec, child.stdout)
            problems = [f"{label}: {p}" for p in self.check(spec, data)]
            if (limit is not None and not self.trace
                    and (child.code == 3) != (data["cert"]["verdict"] == "Unknown")):
                problems.append(f"{label}: exit {child.code} with verdict "
                                f"{data['cert']['verdict']}")
            return problems
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{label}: unreadable output ({exc!r})"]

    def parse(self, spec: dict, text: str) -> dict:
        """CLI output in the shape replay.py returns."""
        command = spec["argv"][0]
        if command == "certify":
            return {"cert": json.loads(text)}
        if command == "check":
            return {"reproduced": text.startswith("certificate reproduced")}
        if command == "graph":
            return {"stats": checks.parse_graph_stats(text)} if "fmt" not in spec else {"text": text}
        if command == "zsigmondy":
            return {"rows": checks.parse_zsigmondy(text)}
        if command == "verify-lemmas":
            return {"lemmas": checks.parse_lemmas(text)}
        return {"rows": checks.parse_classification(text)}

    def check(self, spec: dict, data: dict) -> list[str]:
        command = spec["argv"][0]
        if command == "certify":
            problems = checks.check_certificate(data["cert"], spec["n"], spec["k"],
                                                may_be_unknown="limit" in spec)
            if "out" in spec and json.loads((self.work / spec["out"]).read_text()) != data["cert"]:
                problems.append("--out file differs from the printed certificate")
            return problems
        if command == "check":
            return [] if data["reproduced"] else ["certificate not reproduced"]
        if command == "graph":
            if "stats" in data:
                return checks.check_graph_stats(spec["n"], spec["k"], data["stats"])
            vertices, edges = checks.parse_edges(spec["fmt"], data["text"], spec["n"], spec["k"])
            return checks.check_edges(spec["n"], spec["k"], vertices, edges)
        if command == "zsigmondy":
            checkpoint = None
            if "checkpoint" in spec and not self.trace:
                checkpoint = int((self.work / spec["checkpoint"][0]).read_text())
            return checks.check_zsigmondy(data["rows"], spec["first"], spec["last"], checkpoint)
        if command == "verify-lemmas":
            return checks.check_lemmas(data["lemmas"], *LEMMA_D)
        return checks.check_classification(data["rows"], CLASSIFY_N_MAX)

    # -- the run -------------------------------------------------------------

    def rounds(self, one_round) -> list[dict]:
        """Whole rounds; another starts only if it should end within --seconds.

        A round that repeats the last one's outputs skips their checks, so
        the time those checks took is left out of the next round's estimate.
        """
        results = []
        start = last = time.perf_counter()
        while True:
            checks_before = self.check_s
            results.append(one_round())
            now = time.perf_counter()
            estimate = now - last - (self.check_s - checks_before)
            if now + estimate - start > self.seconds or now >= self.deadline:
                return results
            last = now

    def untraced_round(self) -> dict:
        """Each command line's wall time, and the bytes of the certificates written."""
        walls, bytes_written = {}, 0
        for index, spec in enumerate(self.ops):
            child = self.run_op(index, spec)
            if child is None:
                continue
            self.per_op.setdefault(index, []).append(child)
            walls[index] = child.wall
            if "out" in spec and (self.work / spec["out"]).exists():
                bytes_written += (self.work / spec["out"]).stat().st_size
        return {"walls": walls, "cert_bytes": bytes_written}

    def untraced_metrics(self, setup: float, results: list[dict]) -> dict:
        """Sums over command lines of each one's median wall over the rounds."""
        metrics = dict.fromkeys([*END_TO_END, *COMMAND_TOTALS], 0.0)
        for index, spec in enumerate(self.ops):
            walls = [r["walls"][index] for r in results if index in r["walls"]]
            if not walls:
                continue
            for key in ("wall_s", f"{spec['argv'][0]}_s"):
                if key in metrics:
                    metrics[key] += statistics.median(walls)
        metrics["setup_s"] = setup
        metrics["peak_rss_mb"] = max(c.rss_mb for cs in self.per_op.values() for c in cs)
        metrics["cert_bytes"] = float(statistics.median(r["cert_bytes"] for r in results))
        return metrics

    def traced_round(self) -> dict:
        first = len(self.spans)
        probe, _ = self.replay("probe", "probe")
        if probe.code != 0:
            self.problems.append(f"probe replay exited {probe.code}")
        children = [self.run_op(index, spec) for index, spec in enumerate(self.ops)]
        self.replay_walls.append(sum(c.wall for c in children if c is not None))
        return layer_metrics(self.spans[first:])

    def setup_time(self) -> float:
        """Median wall of SETUP_PROBES fresh CLI processes, after one warm-up."""
        self.cli(SETUP_ARGV, "warmup")
        times = []
        for i in range(SETUP_PROBES):
            child = self.cli(SETUP_ARGV, f"setup{i}")
            if child.code != 0 or "n=  4 k=  2  Cayley" not in child.stdout:
                self.problems.append(f"setup probe exited {child.code}: {child.stderr[-200:]}")
            times.append(child.wall)
        return statistics.median(times)

    def execute(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        self.launcher = subprocess.Popen([sys.executable, str(ROOT / "bench" / "launch.py")],
                                         env=self.env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)
        try:
            if self.trace:
                results = self.rounds(self.traced_round)
                units = {**{m: "s" for m in LAYER_TIMES}, "perm.closure_elements": "count",
                         "cayley.search_overrun_s": "s",
                         **{m: "MB" for m in LAYER_PEAKS}}
            else:
                setup = self.setup_time()
                results = self.rounds(self.untraced_round)
                units = {**END_TO_END, **COMMAND_TOTALS}
        finally:
            self.launcher.stdin.close()
            self.launcher.wait()
            self.launcher.stdout.close()
            shutil.rmtree(self.work, ignore_errors=True)
        if self.trace:
            medians = {m: statistics.median(r[m] for r in results) for m in units}
        else:
            medians = self.untraced_metrics(setup, results)
        self.report(results, medians, units)
        shown = units if self.trace else END_TO_END
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {m: {"value": medians[m], "unit": shown[m]} for m in shown},
        }

    def report(self, results: list[dict], medians: dict, units: dict) -> None:
        mode = "traced" if self.trace else "untraced"
        print(f"workload {self.workload}  seed {self.seed}  {mode}  rounds {len(results)}  "
              f"operations {self.attempted}  failed {len(self.failures)}")
        for name, unit in units.items():
            if name not in COMMAND_TOTALS or medians[name]:
                print(f"  {name:<30} {medians[name]:14.6f} {unit}")
        for index, children in self.per_op.items():
            wall = statistics.median(c.wall for c in children)
            rss = max(c.rss_mb for c in children)
            print(f"  op {wall:9.3f} s {rss:8.1f} MB  exit {children[-1].code:>2}  "
                  f"{' '.join(self.ops[index]['argv'])}")
        for failure in dict.fromkeys(self.failures):
            print(f"  FAILED x{self.failures.count(failure)} {failure}")
        for problem in self.problems:
            print(f"  INCORRECT {problem}")
        if self.trace:
            path = WORK / f"trace-{self.workload}-seed{self.seed}.jsonl"
            with open(path, "w") as out:
                out.writelines(json.dumps(s) + "\n" for s in self.spans)
            print(f"  replay wall {statistics.median(self.replay_walls):.3f} s "
                  f"(compare untraced wall_s); {len(self.spans)} spans in "
                  f"{path.relative_to(ROOT)}")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer self times, closure size, search overrun and peak-RSS rises."""
    by_op: dict = {}
    for s in spans:
        by_op.setdefault(s["op"], []).append(s)
    self_time: dict[str, float] = {}
    for op_spans in by_op.values():
        covered = {s["id"]: 0.0 for s in op_spans}
        for s in op_spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in op_spans:
            own = s["end"] - s["start"] - covered[s["id"]]
            self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
    metrics = {m: sum(t for name, t in self_time.items()
                      if any(name == n or n.endswith(".") and name.startswith(n)
                             for n in names))
               for m, names in LAYER_TIMES.items()}
    metrics["perm.closure_elements"] = sum(s.get("count", 0) for s in spans
                                           if s["name"] == "perm.closure")
    metrics["cayley.search_overrun_s"] = sum(s.get("overrun_s", 0.0) for s in spans)
    for m, name in LAYER_PEAKS.items():
        metrics[m] = max(s["peak_rise_mb"] for s in spans if s["name"] == name)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "starcayley" / "cli.py").is_file():
        print(f"no starcayley sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: Run(name, args.seed, args.seconds, bool(args.trace)).execute()
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
