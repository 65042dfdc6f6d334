import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from starcayley import cli, verdicts
from starcayley.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "5", "3", "--format", "dot")
    assert code == 0
    assert out.count("label=") == 60


def test_graph_edges(capsys):
    code, out, _ = run_cli(capsys, "graph", "3", "2", "--format", "edges")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6


def test_graph_stats(capsys):
    code, out, _ = run_cli(capsys, "graph", "4", "2", "--stats")
    assert code == 0
    assert "star:1 residual:2 per vertex" in out
    assert "vertices: 12" in out


def test_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "4", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["vertex_count"] == 12
    assert all(tag in {"S", "R"} for _, _, tag in payload["edges"])


def test_graph_stats_builds_no_graph(capsys, monkeypatch):
    from starcayley import stargraph

    def refuse(*args, **kwargs):
        raise AssertionError("graph --stats built the graph")

    monkeypatch.setattr(stargraph, "build", refuse)
    code, out, _ = run_cli(capsys, "graph", "11", "6", "--stats")
    assert code == 0
    assert out == ("vertices: 332640\nedges: 1663200\n"
                   "star:5 residual:5 per vertex\ntriangles: 1108800\n")


# sha256 of `graph 8 4 --format FMT`, pinned from the exports that were
# built whole before they were printed
_GRAPH_8_4_SHA256 = {
    "dot": "26aed06211b4f024e5365e49c887b1c5809bcc492e5fac9dcf868886afbb31b7",
    "edges": "6b3e17d6ba911587427cae9fa61a509bac15f1e1802fa9b2cf7ed8ed82959290",
    "json": "c62573cc1f800b2fb090ca4237574823e7764e4e69a35f8e72c1c6d17b0d4fc0",
}


@pytest.mark.parametrize("fmt", sorted(_GRAPH_8_4_SHA256))
def test_graph_export_bytes_are_pinned(capsys, fmt):
    code, out, err = run_cli(capsys, "graph", "8", "4", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _GRAPH_8_4_SHA256[fmt]


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)])
def test_graph_export_prints_the_joined_chunks(capsys, n, k):
    # test_stargraph.py checks the chunks against the label table and the
    # to_dot / edge_list_lines wrappers
    from starcayley.stargraph import build, export_chunks
    g = build(n, k)
    for fmt in ("dot", "edges", "json"):
        code, out, _ = run_cli(capsys, "graph", str(n), str(k), "--format", fmt)
        assert code == 0
        assert out == "".join(export_chunks(g, fmt))


def test_graph_export_builds_no_label_table(capsys, monkeypatch):
    from starcayley.stargraph import StarGraph

    def refuse(self):
        raise AssertionError("graph --format built a label table")

    monkeypatch.setattr(StarGraph, "vertices", property(refuse))
    monkeypatch.setattr(StarGraph, "index", property(refuse))
    for fmt in ("dot", "edges", "json"):
        code, out, _ = run_cli(capsys, "graph", "6", "3", "--format", fmt)
        assert code == 0 and out.endswith("\n")


@pytest.mark.parametrize("argv,lines_read", [
    (["graph", "10", "5", "--format", "dot"], 1),  # stdout closed mid-stream
    (["classify", "--n-max", "4"], 0),  # closed before the flush at exit
], ids=["graph-dot", "classify"])
def test_stdout_closed_early_exits_1_without_a_traceback(argv, lines_read):
    proc = subprocess.Popen([sys.executable, "-m", "starcayley.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env_with_this_package())
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 1
    assert err == ""  # no traceback, and no "Exception ignored" at exit


def test_graph_budget(capsys):
    code, _, err = run_cli(capsys, "graph", "10", "5", "--budget-vertices", "100")
    assert code == 3
    assert "budget" in err
    # --stats builds no graph, but the vertex budget still refuses it
    code, out, err = run_cli(capsys, "graph", "10", "5", "--stats",
                             "--budget-vertices", "100")
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted: ")
    # past 2^32 vertices the ranks outgrow the adjacency store, whatever the budget
    code, _, err = run_cli(capsys, "graph", "14", "13", "--stats",
                           "--budget-vertices", str(10**12))
    assert code == 3
    assert err.startswith("graph too large: ") and "unsigned int" in err
    assert "budget" not in err


def test_classify_table(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n-max", "12")
    assert code == 0
    assert "n=  9 k=  4  Cayley" in out
    assert "n=  9 k=  6  Cayley" in out
    assert "n= 11 k=  4  Cayley" in out
    assert "n= 12 k=  5  Cayley" in out
    assert "n=  6 k=  2  not-Cayley" in out


def test_classify_csv_prime_power_column(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n-max", "34", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    k2 = {int(r[0]): r[2] for r in rows if r[1] == "2"}
    prime_powers = {4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
    for n, verdict in k2.items():
        assert (verdict == "yes") == (n in prime_powers or n - 2 == 2), n
    # n=4 is the n=k+2 clause; every other yes in the k=2 column is a prime power
    assert "33,4,yes,sporadic" in out
    assert "33,30,yes,sporadic" in out


def test_certify_and_check_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "9", "4", "--out", str(cert_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Cayley"
    assert payload["method"] == "DirectRegularAction"

    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 0
    assert "reproduced" in out


def test_certify_refutation(capsys):
    code, out, _ = run_cli(capsys, "certify", "6", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NotCayley"
    assert payload["method"] == "ExhaustiveSearchRefutation"


def test_certify_force_search(capsys):
    code, out, _ = run_cli(capsys, "certify", "5", "2", "--force-search")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Cayley"
    assert payload["notes"] == []


def test_certify_lambda_route(capsys):
    code, out, _ = run_cli(capsys, "certify", "33", "30")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "LambdaTransitiveWitness"
    assert payload["verdict"] == "Cayley"


def test_check_detects_tampering(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "5", "2")
    payload = json.loads(out)
    payload["checks"][0]["pass"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert "MISMATCH" in out


def test_zsigmondy_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "zsigmondy", "--d-max", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 98  # d = 3..100
    failing = [int(l.split(",")[0]) for l in lines if l.split(",")[1] == "0"]
    assert failing == [7]


def test_zsigmondy_checkpoint_resume(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    code, out, _ = run_cli(capsys, "zsigmondy", "--d-max", "50",
                           "--checkpoint", str(ckpt))
    assert code == 0
    assert ckpt.read_text().strip() == "50"
    code, out, _ = run_cli(capsys, "zsigmondy", "--d-max", "60",
                           "--checkpoint", str(ckpt))
    assert code == 0
    lines = out.strip().splitlines()
    assert [int(l.split(",")[0]) for l in lines] == list(range(51, 61))


def test_verify_lemmas_pass_range(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--d", "8..16")
    assert code == 0
    assert out.count("pass") == 2 * 9


def test_verify_lemmas_expected_failures(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--d", "3..7")
    assert code == 0
    assert out.count("EXPECTED-FAIL ok") == 5


def test_verify_lemmas_empty_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemmas", "--d", "9..3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: starcayley verify-lemmas")
    assert "argument --d: empty range 9..3: need LO <= HI" in captured.err


@pytest.mark.parametrize("argv", [
    ["graph", "5", "3", "--stats", "--budget-vertices"],
    ["certify", "5", "2", "--budget-elements"],
    ["check", "cert.json", "--budget-elements"],
], ids=["graph-vertices", "certify-elements", "check-elements"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_budget_below_1_is_a_usage_error(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: starcayley {argv[0]}")
    assert f"argument {argv[-1]}: need an integer >= 1, got {value}" in captured.err


# the harness imports nothing, json included, before it starts recording:
# the commands come as argv, split at ";", and the results go out as two
# lines of space-separated words
_LOADED_MODULES = """
import sys

class Started:
    # a finder that finds nothing: it sees each import start, before the
    # module is compiled
    names = []

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        cls.names.append(name)

sys.meta_path.insert(0, Started)
from starcayley.cli import main
commands = [[]]
for word in sys.argv[1:]:
    if word == ";":
        commands.append([])
    else:
        commands[-1].append(word)
codes = [main(argv) for argv in commands]
print(*codes)
print(*Started.names)
"""


def _env_with_this_package() -> dict:
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _loaded_modules(cwd, *commands) -> tuple[list[int], list[str]]:
    """Run the CLI commands in one fresh interpreter; return their exit codes
    and the modules the package and the commands imported, in the order their
    imports started.  (sys.modules is no record of that order: a module moves
    to its end once it has run.)"""
    env = _env_with_this_package()
    argv = [word for command in commands for word in (";", *command)][1:]
    result = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                            capture_output=True, text=True, env=env, cwd=cwd,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    codes, loaded = result.stdout.splitlines()[-2:]
    return [int(code) for code in codes.split()], loaded.split()


def test_arithmetic_commands_load_no_group_or_graph_module(tmp_path):
    codes, loaded = _loaded_modules(tmp_path, ["zsigmondy", "--d-max", "10"],
                                    ["verify-lemmas", "--d", "8..9"])
    assert codes == [0, 0]
    assert "starcayley.numbers" in loaded
    for name in ("perm", "chain", "pairs", "cayley", "search", "gf", "stargraph"):
        assert f"starcayley.{name}" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_zsigmondy_alone_loads_no_fractions(tmp_path):
    # only the lemma battery builds a Fraction
    codes, loaded = _loaded_modules(tmp_path, ["zsigmondy", "--d-max", "10"])
    assert codes == [0]
    assert "starcayley.numbers" in loaded
    assert "fractions" not in loaded and "decimal" not in loaded


def test_classify_and_table_certificates_load_no_group_module(tmp_path):
    codes, loaded = _loaded_modules(tmp_path, ["classify", "--n-max", "34"],
                                    ["certify", "34", "5", "--out", "cert.json"],
                                    ["check", "cert.json"])
    assert codes == [0, 0, 0]
    assert json.loads((tmp_path / "cert.json").read_text())["method"] == "ClassificationTable"
    assert "starcayley.verdicts" in loaded
    for name in ("perm", "chain", "pairs", "cayley", "search", "witness_groups",
                 "stargraph", "gf"):
        assert f"starcayley.{name}" not in loaded


def test_group_routes_load_no_dataclasses_fractions_or_numbers(tmp_path):
    sporadic, k2, flag = ["9", "4"], ["25", "2"], ["33", "30"]
    codes, loaded = _loaded_modules(
        tmp_path, *(["certify", *nk, "--out", f"cert-{nk[0]}.json"]
                    for nk in (sporadic, k2, flag)),
        *(["check", f"cert-{nk[0]}.json"] for nk in (sporadic, k2, flag)),
        ["certify", "6", "2"])
    assert codes == [0] * 7
    assert [json.loads((tmp_path / f"cert-{n}.json").read_text())["method"]
            for n in ("9", "25", "33")] == [
        "DirectRegularAction", "DirectRegularAction", "LambdaTransitiveWitness"]
    assert "starcayley.witness_groups" in loaded and "starcayley.cayley" in loaded
    for name in ("dataclasses", "inspect", "fractions", "decimal", "starcayley.numbers"):
        assert name not in loaded


@pytest.mark.parametrize("commands,loads_json", [
    ([["classify", "--n-max", "4"]], False),
    ([["zsigmondy", "--d-max", "10"]], False),
    ([["verify-lemmas", "--d", "3..9"]], False),
    ([["graph", "4", "2", "--format", "json"]], False),
    ([["certify", "34", "5"]], True),
    ([["check", "cert.json"]], True),
], ids=["classify", "zsigmondy", "verify-lemmas", "graph-json", "certify", "check"])
def test_json_is_loaded_only_where_certificates_are_written_or_read(tmp_path, commands,
                                                                   loads_json):
    # the harness loads no json itself, so certify and check show it being loaded
    (tmp_path / "cert.json").write_text(verdicts.table_certificate(34, 5).to_json())
    codes, loaded = _loaded_modules(tmp_path, *commands)
    assert codes == [0] * len(commands)
    assert ("json" in loaded) == loads_json


@pytest.mark.parametrize("n,k", [("9", "4"), ("33", "30")])
def test_witness_routes_load_the_chain_engine_and_never_the_search(tmp_path, n, k):
    codes, loaded = _loaded_modules(tmp_path, ["certify", n, k, "--out", "cert.json"],
                                    ["check", "cert.json"])
    assert codes == [0, 0]
    assert "starcayley.chain" in loaded and "starcayley.witness_groups" in loaded
    assert "starcayley.search" not in loaded


def test_search_routes_load_the_search_and_no_witness_group(tmp_path):
    codes, loaded = _loaded_modules(tmp_path, ["certify", "6", "2", "--out", "cert.json"],
                                    ["check", "cert.json"],
                                    ["certify", "7", "2", "--force-search"])
    assert codes == [0, 0, 0]
    assert json.loads((tmp_path / "cert.json").read_text())["verdict"] == "NotCayley"
    assert "starcayley.search" in loaded and "starcayley.chain" in loaded
    for name in ("witness_groups", "gf"):
        assert f"starcayley.{name}" not in loaded


def test_group_routes_load_perm_before_cayley(tmp_path):
    # compiling perm before the modules that import it keeps peak memory lower
    # where bytecode is not cached
    codes, loaded = _loaded_modules(tmp_path, ["certify", "9", "4"])
    assert codes == [0]
    assert loaded.index("starcayley.perm") < loaded.index("starcayley.cayley")


@pytest.mark.parametrize("text", [
    '{"n": 9, "k": 4}',
    "not json at all",
    "[1, 2, 3]",
    '{"n": 5, "k": 2, "verdict": "Cayley", "method": "DirectRegularAction",'
    ' "witness": {"generators": [{"mu": [1, 1, 2, 3, 4], "nu": [1, 2, 3, 4, 5]}]},'
    ' "checks": []}',
    '{"n": 5, "k": 2, "verdict": "Cayley", "method": "NoSuchMethod",'
    ' "witness": null, "checks": [{"name": "x", "pass": true}]}',
    *(f'{{"n": {n}, "k": {k}, "verdict": "Cayley", "method": "DirectRegularAction",'
      ' "witness": {"generators": [{"mu": [2, 3, 4, 5, 1], "nu": [1, 2, 3, 4, 5]}]},'
      ' "checks": [{"name": "x", "pass": true}]}' for n, k in [(5, 0), (5, -1), (5, "true")]),
    *(f'{{"n": {n}, "k": {k}, "verdict": "NotCayley", "method": "ExhaustiveSearchRefutation",'
      ' "witness": null, "checks": [{"name": "transversal_search_exhausted", "pass": true}]}'
      for n, k in [(5, 0), (5, 6), (1, 1), (5, 5)]),
], ids=["missing-fields", "not-json", "json-list", "bad-generator", "unknown-method",
        "direct-k-0", "direct-k-negative", "direct-k-bool", "refutation-k-0",
        "refutation-k-above-n", "refutation-1-1", "refutation-k-equals-n"])
def test_check_malformed_certificate_exits_2_with_one_line(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("malformed certificate")


def test_corrupted_m11_data_fails_a_sabidussi_check_and_exits_2(tmp_path, capsys,
                                                                monkeypatch):
    from starcayley import witness_groups
    # one 4-cycle of the second generator shortened to a 3-cycle
    long_cycle, _ = witness_groups._M11_GENERATORS
    monkeypatch.setattr(witness_groups, "_M11_GENERATORS",
                        (long_cycle, ((3, 7, 11, 8), (4, 10, 5))))
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "11", "4", "--out", str(out_path))
    assert code == 2
    payload = json.loads(out)
    assert payload == json.loads(out_path.read_text())
    assert payload["verdict"] == "Unknown" and payload["method"] == "DirectRegularAction"
    assert {"name": "order_equals_vertex_count", "pass": False} in payload["checks"]


def test_check_mismatch_prints_only_the_differing_checks(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "certify", "5", "2")
    payload = json.loads(out)
    first, *rest = payload["checks"]
    first["pass"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 2
    assert out.splitlines() == [
        "certificate MISMATCH",
        f"check 1: recorded {first['name']}=fail, fresh {first['name']}=pass"]
    assert rest and not any(c["name"] in out for c in rest)


def test_zsigmondy_corrupt_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    for text in ("garbage\n", "", "12x\n", "²\n"):
        ckpt.write_text(text)
        code, out, err = run_cli(capsys, "zsigmondy", "--d-max", "50",
                                 "--checkpoint", str(ckpt))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("corrupt checkpoint")
        assert ckpt.read_text() == text


def test_zsigmondy_checkpoint_writes_are_atomic(tmp_path, capsys, monkeypatch):
    # every rename puts a complete value in place of a complete value, and
    # the temporary file lives next to the checkpoint
    ckpt = tmp_path / "ckpt"
    seen = []
    real_replace = os.replace

    def watched_replace(src, dst):
        assert Path(src).parent == Path(dst).parent == tmp_path
        new = Path(src).read_text()
        old = Path(dst).read_text() if Path(dst).exists() else None
        seen.append((old, new))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", watched_replace)
    code, _, _ = run_cli(capsys, "zsigmondy", "--d-max", "45", "--checkpoint",
                         str(ckpt), "--checkpoint-every", "10")
    assert code == 0
    assert [new for _, new in seen] == ["10\n", "20\n", "30\n", "40\n", "45\n"]
    assert all(re.fullmatch(r"\d+\n", old) for old, _ in seen[1:])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    assert ckpt.read_text() == "45\n"


@pytest.mark.parametrize("every", ["0", "-3"])
def test_zsigmondy_checkpoint_every_below_1_is_a_usage_error(tmp_path, capsys, every):
    ckpt = tmp_path / "ckpt"
    with pytest.raises(SystemExit) as exc:
        main(["zsigmondy", "--d-max", "5", "--checkpoint", str(ckpt),
              "--checkpoint-every", every])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: starcayley zsigmondy")
    assert f"argument --checkpoint-every: need an integer >= 1, got {every}" in captured.err
    assert not ckpt.exists()


def test_check_missing_or_directory_certificate_exits_2_with_one_line(tmp_path, capsys):
    for path in (tmp_path / "absent.json", tmp_path):
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"cannot read certificate {path}")


def test_zsigmondy_checkpoint_directory_exits_2_with_one_line(tmp_path, capsys):
    code, out, err = run_cli(capsys, "zsigmondy", "--d-max", "10",
                             "--checkpoint", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"cannot read checkpoint {tmp_path}")


def test_zsigmondy_unwritable_checkpoint_exits_2_with_one_line(tmp_path, capsys):
    ckpt = tmp_path / "no-such-dir" / "ckpt"
    code, out, err = run_cli(capsys, "zsigmondy", "--d-max", "10",
                             "--checkpoint", str(ckpt))
    assert code == 2
    assert [int(line.split(",")[0]) for line in out.splitlines()] == list(range(3, 11))
    assert err.count("\n") == 1 and err.startswith(f"cannot write checkpoint {ckpt}")
    assert not ckpt.parent.exists()


def test_certify_unwritable_out_exits_2_with_one_line(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "cert.json"
    code, out, err = run_cli(capsys, "certify", "5", "2", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"cannot write certificate {out_path}")
    assert not out_path.parent.exists()


def test_check_replays_a_refutation_written_before_the_conjugacy_reduction(capsys):
    path = Path(__file__).parent / "data" / "refutation-6-2-full.json"
    names = [c["name"] for c in json.loads(path.read_text())["checks"]]
    assert "all_generating_sets_up_to_2_generators_closed" in names
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out == "certificate reproduced: (6,2) NotCayley via ExhaustiveSearchRefutation\n"


@pytest.mark.parametrize("n,k", [(6, 2), (7, 3)])
def test_check_reproduces_a_two_generator_refutation(capsys, n, k):
    # `certify n k` as written when the search closed two-generator sets up
    # to conjugacy
    path = Path(__file__).parent / "data" / f"refutation-{n}-{k}-conjugacy.json"
    names = [c["name"] for c in json.loads(path.read_text())["checks"]]
    assert "generator_sets_up_to_2_closed_up_to_conjugacy" in names
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out == f"certificate reproduced: ({n},{k}) NotCayley via ExhaustiveSearchRefutation\n"


def _old_refutation(n, k):
    """The two-generator search's refutation of (n,k), as it wrote one
    when P(n,k) is not square-free: Unknown."""
    target = math.perm(n, k)
    return {"n": n, "k": k, "verdict": "Unknown", "method": "ExhaustiveSearchRefutation",
            "witness": None, "checks": [
                {"name": "full_automorphism_group_enumerated", "pass": True},
                {"name": "candidates_restricted_to_fixed_point_free_elements", "pass": True},
                {"name": "generator_sets_up_to_2_closed_up_to_conjugacy", "pass": True},
                {"name": "no_regular_subgroup_found", "pass": True},
                {"name": f"order_{target}_subgroups_need_at_most_2_generators", "pass": False}],
            "notes": ["search exhausted, but no generator bound certifies "
                      f"that order-{target} subgroups are 2-generated"]}


def test_check_derives_an_old_unknown_refutation_and_names_what_it_cannot(tmp_path, capsys):
    # (7,4) has no regular subgroup, so the old Unknown follows
    path = tmp_path / "old-7-4.json"
    path.write_text(json.dumps(_old_refutation(7, 4)))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0
    assert out == "certificate reproduced: (7,4) Unknown via ExhaustiveSearchRefutation\n"
    # (5,2) has one, of order 20, which is not square-free: one line says why
    # nothing follows
    path = tmp_path / "old-5-2.json"
    path.write_text(json.dumps(_old_refutation(5, 2)))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 2
    first, reason = out.splitlines()
    assert first == "certificate MISMATCH"
    assert reason == ("a regular subgroup exists, and its order 20 is not square-free, "
                      "so whether two candidates generate one cannot be derived")


@pytest.mark.parametrize("n,k", [(7, 4), (8, 4), (8, 5)])
def test_certify_refutes_by_search_and_check_reproduces(tmp_path, capsys, n, k):
    cert_path = tmp_path / f"cert-{n}-{k}.json"
    code, out, _ = run_cli(capsys, "certify", str(n), str(k), "--out", str(cert_path))
    assert code == 0
    cert = json.loads(out)
    assert (cert["verdict"], cert["method"]) == ("NotCayley", "ExhaustiveSearchRefutation")
    assert [c["name"] for c in cert["checks"]][2] == "transversal_search_exhausted"
    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 0
    assert out == f"certificate reproduced: ({n},{k}) NotCayley via ExhaustiveSearchRefutation\n"


def test_check_of_a_witness_generating_s_200_stops_at_the_cap(tmp_path, capsys):
    # a 200-cycle and a transposition generate S_200; the chain is cut as
    # soon as its orbits pass the element cap
    m = 200
    e = list(range(1, m + 1))
    cert = {"n": m, "k": 2, "verdict": "Cayley", "method": "DirectRegularAction",
            "witness": {"name": "S_200", "degree": m, "k": 2, "generators": [
                {"mu": e[1:] + [1], "nu": e}, {"mu": [2, 1] + e[2:], "nu": e}]},
            "checks": [{"name": name, "pass": True} for name in (
                "order_equals_vertex_count", "base_vertex_stabilizer_trivial",
                "evaluation_map_bijective")]}
    path = tmp_path / "s200.json"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("budget exhausted: group order exceeds cap")


def test_certify_writes_one_line_and_check_reads_pretty_printed_certificates(
        tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "9", "4", "--out", str(cert_path))
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert cert_path.read_text() == out
    # certify wrote json.dumps(cert.to_dict(), indent=2) before certificates were compact
    for (n, k), method in {(9, 4): "DirectRegularAction",
                           (33, 30): "LambdaTransitiveWitness",
                           (34, 5): "ClassificationTable",
                           (6, 2): "ExhaustiveSearchRefutation"}.items():
        cert = verdicts.build_certificate(n, k)
        assert cert.method == method
        old = tmp_path / f"old-{n}-{k}.json"
        old.write_text(json.dumps(cert.to_dict(), indent=2) + "\n")
        code, out, _ = run_cli(capsys, "check", str(old))
        assert code == 0
        assert out == f"certificate reproduced: ({n},{k}) {cert.verdict} via {method}\n"


def test_certify_k2_above_the_old_field_cap_and_check(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, err = run_cli(capsys, "certify", "1031", "2", "--out", str(cert_path))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "Cayley"
    assert payload["method"] == "DirectRegularAction"
    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 0
    assert out == "certificate reproduced: (1031,2) Cayley via DirectRegularAction\n"


def test_certify_k3_under_a_raised_element_budget_and_check(tmp_path, capsys):
    # |PGL(2,128)| = P(129,3) = 2,097,024 is above the default budget
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "129", "3", "--budget-elements", "3000000",
                           "--out", str(cert_path))
    assert code == 0
    assert json.loads(out)["method"] == "DirectRegularAction"
    code, out, _ = run_cli(capsys, "check", str(cert_path), "--budget-elements", "3000000")
    assert code == 0
    assert out == "certificate reproduced: (129,3) Cayley via DirectRegularAction\n"
    code, out, err = run_cli(capsys, "check", str(cert_path))
    assert code == 3 and out == ""
    assert err.startswith("budget exhausted: group order exceeds cap=2000000")


def test_forced_search_is_capped_by_the_vertex_count(tmp_path, capsys):
    # |S_8 x S_5| = 4,838,400 is above the default budget, P(8,6) = 20,160 is not
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "8", "6", "--force-search",
                           "--out", str(cert_path))
    assert code == 0 and json.loads(out)["verdict"] == "Cayley"
    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 0
    assert out == "certificate reproduced: (8,6) Cayley via DirectRegularAction\n"
    code, out, err = run_cli(capsys, "certify", "13", "12", "--force-search")
    assert code == 3 and out == ""
    assert err == "budget exhausted: P(13,12) = 6227020800 exceeds cap 2000000\n"


def _refutation(n, k):
    """A refutation as the transversal search writes it."""
    return json.dumps({
        "n": n, "k": k, "verdict": "NotCayley", "method": "ExhaustiveSearchRefutation",
        "witness": None, "checks": [{"name": name, "pass": True} for name in (
            "full_automorphism_group_enumerated",
            "candidates_restricted_to_fixed_point_free_elements",
            "transversal_search_exhausted", "no_regular_subgroup_found")],
        "notes": []})


@pytest.mark.parametrize("n,k", [(100, 2), (2000, 1)])
def test_forced_search_and_its_replay_of_many_classes_stop_at_the_time_limit(tmp_path, capsys,
                                                                             n, k):
    # P(n,k) fits the default budget, and the p(n) classes of mu are never
    # listed: both commands search until the time limit, then exit 3
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", str(n), str(k), "--force-search",
                             "--time-limit", "0.5")
    assert code == 3 and time.perf_counter() - start < 1.5
    assert json.loads(out)["verdict"] == "Unknown"
    assert err.startswith("budget exhausted: time budget of 0.5s exhausted before the search "
                          "space was covered (transversal search, pair ")
    cert_path = tmp_path / "crafted.json"
    cert_path.write_text(_refutation(n, k))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "check", str(cert_path), "--time-limit", "0.5")
    assert code == 3 and time.perf_counter() - start < 1.5
    assert (out, err) == ("", f"budget exhausted: the search replay of {cert_path} ran past "
                              "--time-limit 0.5\n")


def test_forced_search_for_k_1_finds_the_cyclic_group_and_refutes_nothing(tmp_path, capsys):
    # a pair with k = 1 is a permutation of the n points, and C_n is regular
    # on them; a refutation of (5,1) by search fails to reproduce
    code, out, _ = run_cli(capsys, "certify", "5", "1", "--force-search")
    assert code == 0 and json.loads(out)["verdict"] == "Cayley"
    cert_path = tmp_path / "refutation-5-1.json"
    cert_path.write_text(_refutation(5, 1))
    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 2
    assert "Cayley" in out


@pytest.mark.parametrize("n,verdict", [(2**61 - 1, "Cayley"), (2**61 - 2, "NotCayley")])
def test_certify_and_check_k2_near_2_to_the_61_answer_at_once(tmp_path, n, verdict):
    # 2^61 - 1 is prime, so trial division up to its square root would run
    # for hours; 2^61 - 2 is no prime power, and (2^61 - 2)! is out of reach
    env = _env_with_this_package()
    cert_path = tmp_path / "cert.json"
    for argv in (["certify", str(n), "2", "--out", str(cert_path)],
                 ["check", str(cert_path)]):
        result = subprocess.run([sys.executable, "-m", "starcayley.cli", *argv],
                                capture_output=True, text=True, env=env,
                                timeout=10)
        assert result.returncode == 0, result.stderr
    assert json.loads(cert_path.read_text())["verdict"] == verdict
    assert result.stdout == (f"certificate reproduced: ({n},2) {verdict} "
                             "via ClassificationTable\n")


@pytest.mark.parametrize("n,k", [(2**89 - 1, 2), (2**89, 3)])
def test_probable_prime_above_the_miller_rabin_bound_exits_3(tmp_path, n, k):
    # 2^89 - 1 is prime, but the bases 2..41 prove primality only below
    # 3,317,044,064,679,887,385,961,981; trial division would run for hours
    env = _env_with_this_package()
    cert_path = tmp_path / "cert.json"
    clause = "k=2-prime-power" if k == 2 else "k=3-prime-power-successor"
    cert_path.write_text(verdicts.Certificate(
        n, k, "Cayley", "ClassificationTable", None,
        ((f"classification_clause_{clause}", True),)).to_json())
    for argv in (["certify", str(n), str(k)], ["check", str(cert_path)]):
        result = subprocess.run([sys.executable, "-m", "starcayley.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=10)
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("budget exhausted: 618970019642690137449562111 ")


def test_composite_above_the_miller_rabin_bound_answers_at_once(tmp_path):
    n = (2**61 - 1) * (2**89 - 1)
    env = _env_with_this_package()
    cert_path = tmp_path / "cert.json"
    for argv in (["certify", str(n), "2", "--out", str(cert_path)],
                 ["check", str(cert_path)]):
        result = subprocess.run([sys.executable, "-m", "starcayley.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=10)
        assert result.returncode == 0, result.stderr
    assert json.loads(cert_path.read_text())["verdict"] == "NotCayley"
    assert result.stdout == (f"certificate reproduced: ({n},2) NotCayley "
                             "via ClassificationTable\n")


def test_check_time_limit_bounds_the_search_replay(tmp_path, capsys):
    cert_path = tmp_path / "cert-7-3.json"
    code, _, _ = run_cli(capsys, "certify", "7", "3", "--out", str(cert_path))
    assert code == 0
    code, out, err = run_cli(capsys, "check", str(cert_path), "--time-limit", "0")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("budget exhausted")
    code, out, _ = run_cli(capsys, "check", str(cert_path))
    assert code == 0
    assert out == "certificate reproduced: (7,3) NotCayley via ExhaustiveSearchRefutation\n"


def test_check_on_a_truncated_search_exits_3_without_searching(tmp_path, capsys, monkeypatch):
    cert_path = tmp_path / "t.json"
    code, out, _ = run_cli(capsys, "certify", "6", "2", "--time-limit", "0",
                           "--out", str(cert_path))
    assert code == 3
    assert json.loads(out)["verdict"] == "Unknown"

    def no_search(*args, **kwargs):
        raise AssertionError("check re-ran the search")

    monkeypatch.setattr(verdicts, "verify_certificate", no_search)
    code, out, err = run_cli(capsys, "check", str(cert_path))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("budget exhausted")


def test_certify_has_no_vertex_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "5", "2", "--budget-vertices", "100"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-vertices" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["certify", "3", "5"], ["graph", "3", "5"],
                                  ["certify", "5", "0"]])
def test_n_k_outside_1_le_k_lt_n_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: starcayley")
    assert f"{argv[0]}: need 1 <= k < n, got n={argv[1]}, k={argv[2]}" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-0.5"])
def test_time_limit_not_finite_or_negative_is_a_usage_error(capsys, value):
    for argv in (["certify", "6", "2"], ["check", "cert.json"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--time-limit={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: starcayley {argv[0]}")
        assert f"argument --time-limit: need a finite number >= 0, got {value}" in captured.err


def test_time_limit_0_truncates_the_search_and_exits_3(capsys):
    code, out, err = run_cli(capsys, "certify", "6", "2", "--time-limit", "0")
    assert code == 3
    assert json.loads(out)["checks"] == [{"name": "search_space_exhausted", "pass": False}]
    assert err.count("\n") == 1 and err.startswith("budget exhausted")


@pytest.mark.parametrize("n,k", [(9, 4), (9, 6), (11, 4), (12, 5), (33, 4), (33, 30)])
def test_certify_builds_a_sporadic_witness_only_when_it_fits_the_budget(tmp_path, capsys, n, k):
    # the order of the group the witness closes: P(n,k) for a regular group,
    # |PGammaL(2,32)| for the (33,30) flag witness
    gate = 33 * 32 * 31 * 5 if (n, k) == (33, 30) else math.perm(n, k)
    for budget, method in ((gate - 1, "ClassificationTable"),
                           (gate, "LambdaTransitiveWitness" if (n, k) == (33, 30)
                            else "DirectRegularAction")):
        cert_path = tmp_path / f"cert-{budget}.json"
        code, out, _ = run_cli(capsys, "certify", str(n), str(k), "--budget-elements",
                               str(budget), "--out", str(cert_path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["verdict"], payload["method"]) == ("Cayley", method)
        code, out, _ = run_cli(capsys, "check", str(cert_path),
                               "--budget-elements", str(budget))
        assert code == 0
        assert out == f"certificate reproduced: ({n},{k}) Cayley via {method}\n"
