import gc
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import citeflow
from citeflow import (Network, aged_path_counts, complete_acyclic, parse_pajek,
                      random_dag, spc, standardize, write_pajek)
from citeflow.cli import main

from conftest import arcs_of, cpm_overflow_net, diamond_chain

DIAMOND = ('*Vertices 4\n1 "a"\n2 "b"\n3 "c"\n4 "d"\n'
           "*Arcs\n1 2\n1 3\n2 4\n3 4\n")
TWO_CYCLE = "*Vertices 3\n*Arcs\n1 2\n2 1\n2 3\n"


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.net"
    path.write_text(DIAMOND)
    return path


def run(args):
    return main([str(a) for a in args])


def test_weights_normalized_diamond(tmp_path, diamond_file, capsys):
    out = tmp_path / "run"
    assert run(["weights", diamond_file, "--method", "spc",
                "--normalize", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "totalFlow    2" in stdout
    net = parse_pajek((out / "spc.net").read_text())
    assert net.weights.tolist() == [0.5, 0.5, 0.5, 0.5]
    vec = (out / "spc.vec").read_text().splitlines()
    assert vec == ["*Vertices 4", "1", "0.5", "0.5", "1"]


def test_weights_exact_mode_writes_integers(tmp_path, diamond_file):
    out = tmp_path / "run"
    assert run(["weights", diamond_file, "--mode", "exact",
                "--out", out]) == 0
    assert "1 2 1\n" in (out / "spc.net").read_text()


def test_weights_jsonl_report(tmp_path, diamond_file):
    out = tmp_path / "run"
    assert run(["weights", diamond_file, "--method", "spnp", "--mode",
                "exact", "--jsonl", "--out", out]) == 0
    lines = [json.loads(line)
             for line in (out / "spnp.jsonl").read_text().splitlines()]
    assert lines[0]["record"] == "summary"
    assert lines[0]["total_flow"] == 10
    arcs = [r for r in lines if r["record"] == "arc"]
    assert [r["weight"] for r in arcs] == [2, 2, 2, 2]
    verts = [r for r in lines if r["record"] == "vertex"]
    assert len(verts) == 4


def test_cli_matches_library(tmp_path, diamond_file):
    out = tmp_path / "run"
    assert run(["weights", diamond_file, "--mode", "exact",
                "--out", out]) == 0
    lib = spc(standardize(parse_pajek(DIAMOND)), "exact")
    written = parse_pajek((out / "spc.net").read_text())
    assert written.weights.tolist() == [float(v) for v in lib.arc[:4]]


def test_stats_tolerates_cycles(tmp_path, capsys):
    path = tmp_path / "cyc.net"
    path.write_text(TWO_CYCLE)
    assert run(["stats", path, "--out", tmp_path / "o"]) == 0
    stdout = capsys.readouterr().out
    assert "2:1" in stdout


def test_mainpath_needs_acyclic_input(tmp_path, capsys):
    path = tmp_path / "cyc.net"
    # a loop alone makes the input cyclic too
    for text in (TWO_CYCLE, "*Vertices 2\n*Arcs\n1 2\n2 2\n"):
        path.write_text(text)
        assert run(["mainpath", path, "--out", tmp_path / "o"]) == 4
        assert "cyclic" in capsys.readouterr().err
        assert run(["mainpath", path, "--repair", "shrink",
                    "--out", tmp_path / "o2"]) == 0


def test_missing_and_malformed_inputs(tmp_path, capsys):
    assert run(["weights", tmp_path / "nope.net",
                "--out", tmp_path / "o"]) == 3
    bad = tmp_path / "bad.net"
    bad.write_text("*Vertices 2\n*Edges\n1 2\n")
    assert run(["weights", bad, "--out", tmp_path / "o"]) == 3
    binary = tmp_path / "bin.net"
    binary.write_bytes(b"\xff\xfe\x00broken")
    assert run(["stats", binary, "--out", tmp_path / "o"]) == 3
    capsys.readouterr()


def test_usage_errors(tmp_path, diamond_file, capsys):
    o = tmp_path / "o"
    cyclic = tmp_path / "cyclic.net"
    cyclic.write_text(TWO_CYCLE)
    # refused on the arguments alone, before a missing or cyclic input is read
    for path in (diamond_file, tmp_path / "missing.net", cyclic):
        for args in (["weights", "--method", "sum", "--alpha", "0.5"],
                     ["weights", "--method", "spc", "--alpha", "0.5"],
                     ["weights", "--method", "nppc", "--normalize"],
                     ["weights", "--method", "sum", "--normalize"],
                     ["islands", "--k", "0"],
                     ["islands", "--k", "3", "--K", "2"]):
            assert run([args[0], path, *args[1:], "--out", o]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("citeflow: error: ")
        for alpha in ("0", "1.5", "-1", "nan"):
            assert run(["weights", path, "--method", "spnp",
                        "--alpha", alpha, "--out", o]) == 2
            assert "alpha must lie in (0, 1]" in capsys.readouterr().err
        for args in (["cut", "--threshold", "nan"], ["hits", "--top", "-3"]):
            assert run([args[0], path, *args[1:], "--out", o]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("citeflow: error: ")
            assert args[1] in err[0]
    assert not o.exists()
    with pytest.raises(SystemExit) as err:
        run(["frobnicate", diamond_file])
    assert err.value.code == 2
    capsys.readouterr()


def test_console_entry_freezes_then_runs_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(citeflow.cli, "main",
                        lambda: calls.append("main") or 7)
    monkeypatch.delitem(sys.modules, "citeflow.__main__", raising=False)
    entry = importlib.import_module("citeflow.__main__")
    assert calls == []  # importing the module runs nothing
    assert entry.frozen_main() == 7
    assert calls == ["freeze", "main"]
    # the installed command starts there too (3.10 has no tomllib)
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert ('citeflow = "citeflow.__main__:frozen_main"'
            in pyproject.read_text().splitlines())


def test_overflow_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(diamond_chain(1030)))
    assert run(["weights", path, "--mode", "float",
                "--out", tmp_path / "o"]) == 5
    assert "rerun in mode=" in capsys.readouterr().err
    # the same run in log mode succeeds
    assert run(["weights", path, "--mode", "log",
                "--out", tmp_path / "o2"]) == 0
    capsys.readouterr()


def test_float_overflow_without_mode_reruns_in_log(tmp_path, capsys):
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(diamond_chain(1030)))
    out = tmp_path / "o"
    assert run(["weights", path, "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "citeflow: float counts exceed the double range; running in log mode"]
    assert "mode         log" in captured.out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["mode"] == "log"
    log = tmp_path / "log"
    assert run(["weights", path, "--mode", "log", "--out", log]) == 0
    capsys.readouterr()
    assert (out / "spc.net").read_bytes() == (log / "spc.net").read_bytes()


def test_runs_are_deterministic(tmp_path, diamond_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["weights", diamond_file, "--method", "splc",
                    "--mode", "exact", "--out", out]) == 0
    for name in ("splc.net", "splc.vec"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("created_utc")
    mb.pop("created_utc")
    assert ma == mb


def test_manifest_checksums(tmp_path, diamond_file):
    import hashlib
    out = tmp_path / "o"
    assert run(["weights", diamond_file, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "weights"
    raw = diamond_file.read_bytes()
    assert manifest["input"]["sha256"] == hashlib.sha256(raw).hexdigest()
    for record in manifest["outputs"]:
        data = (out / record["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == record["sha256"]
    assert manifest["parameters"]["mode"] == "float"
    assert "citeflow" in manifest["versions"]


def test_repair_command(tmp_path, capsys):
    path = tmp_path / "cyc.net"
    path.write_text(TWO_CYCLE)
    out = tmp_path / "o"
    assert run(["repair", path, "--repair", "preprint", "--out", out]) == 0
    fixed = parse_pajek((out / "acyclic.net").read_text())
    assert fixed.n == 5
    clu = (out / "components.clu").read_text().splitlines()
    assert clu == ["*Vertices 3", "1", "1", "2"]
    assert "acyclic             True" in capsys.readouterr().out


@pytest.mark.parametrize("strategy", ["shrink", "preprint"])
def test_repair_finds_strong_components_once(tmp_path, monkeypatch,
                                              strategy):
    found = citeflow.acyclic.strong_components
    calls = []

    def counted(net):
        calls.append(net.n)
        return found(net)

    monkeypatch.setattr(citeflow.acyclic, "strong_components", counted)
    monkeypatch.setattr(citeflow.cli, "strong_components", counted)
    src = tmp_path / "loop.net"
    src.write_text(TWO_CYCLE + "3 3\n")
    assert run(["repair", src, "--repair", strategy,
                "--out", tmp_path / "out"]) == 0
    assert calls == [3]


@pytest.mark.parametrize("method", ["spc", "nppc"])
def test_mainpath_computes_the_input_levels_once(tmp_path, monkeypatch,
                                                 diamond_file, method):
    sweep = citeflow.acyclic._level_sweep
    calls = []

    def counted(net):
        calls.append(net.n)
        return sweep(net)

    monkeypatch.setattr(citeflow.acyclic, "_level_sweep", counted)
    assert run(["mainpath", diamond_file, "--method", method,
                "--out", tmp_path / "out"]) == 0
    assert calls == [4]  # is_acyclic and standardize


def test_cpm_and_cut_outputs(tmp_path):
    path = tmp_path / "branch.net"
    path.write_text(write_pajek(Network(
        4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])))
    out = tmp_path / "cpm"
    assert run(["cpm", path, "--mode", "exact", "--out", out]) == 0
    sub = parse_pajek((out / "cpm.net").read_text())
    assert sub.n == 4 and sub.m == 3
    out2 = tmp_path / "cut"
    assert run(["cut", path, "--mode", "exact", "--threshold", "2",
                "--out", out2]) == 0
    sub2 = parse_pajek((out2 / "cut.net").read_text())
    assert arcs_of(sub2) == [(1, 2), (3, 4)]
    assert sub2.weights.tolist() == [2.0, 2.0]


def test_islands_outputs(tmp_path):
    net = Network(4, [(1, 2, 5.0), (3, 4, 4.0), (2, 3, 1.0)])
    path = tmp_path / "isl.net"
    path.write_text(write_pajek(net))
    out = tmp_path / "o"
    assert run(["islands", path, "--method", "nppc", "--k", "2",
                "--K", "2", "--out", out]) == 0
    clu = (out / "islands.clu").read_text().splitlines()
    assert clu[0] == "*Vertices 4"
    assert len(clu) == 5
    csv = (out / "island_sizes.csv").read_text().splitlines()
    assert csv[0] == "size,count"
    assert len(csv) == 3  # dense sizes 1..K
    assert all("," in line for line in csv[1:])


def _arc_rows(path) -> dict:
    """{(tail label, head label): weight token} of a written .net file."""
    lines = path.read_text().splitlines()
    n = int(lines[0].split()[1])
    label = {v.split()[0]: v.split('"')[1] for v in lines[1:n + 1]}
    rows = [line.split() for line in lines[n + 2:]]
    return {(label[t], label[h]): w for t, h, w in rows}


@pytest.mark.parametrize("method", ["nppc", "sum"])
@pytest.mark.parametrize("command", ["mainpath", "cpm", "cut"])
def test_subnetworks_write_the_method_weights(tmp_path, method, command):
    path = tmp_path / "diamond7.net"
    path.write_text(DIAMOND.split("*Arcs")[0]
                    + "*Arcs\n1 2 7\n1 3 7\n2 4 7\n3 4 7\n")
    assert set(_arc_rows(path).values()) == {"7"}
    assert run(["weights", path, "--method", method,
                "--out", tmp_path / "w"]) == 0
    rows = _arc_rows(tmp_path / "w" / f"{method}.net")
    extra = ["--threshold", "0"] if command == "cut" else []
    assert run([command, path, "--method", method, *extra,
                "--out", tmp_path / "o"]) == 0
    assert _arc_rows(tmp_path / "o" / f"{command}.net") == rows  # 4 arcs


@pytest.mark.parametrize("command", ["mainpath", "cpm", "cut"])
def test_exact_subnetwork_weights_keep_every_digit(tmp_path, command):
    path = tmp_path / "complete.net"
    path.write_text(write_pajek(complete_acyclic(64)))
    assert run(["weights", path, "--mode", "exact",
                "--out", tmp_path / "w"]) == 0
    rows = _arc_rows(tmp_path / "w" / "spc.net")
    assert max(map(len, rows.values())) > 17  # beyond a double's digits
    extra = ["--threshold", "0"] if command == "cut" else []
    assert run([command, path, "--mode", "exact", *extra,
                "--out", tmp_path / "o"]) == 0
    sub = _arc_rows(tmp_path / "o" / f"{command}.net")
    assert sub and all(rows[arc] == w for arc, w in sub.items())
    if command == "cut":
        assert sub == rows


def test_hits_outputs(tmp_path, capsys):
    star = Network(6, [(1, j) for j in range(2, 7)])
    path = tmp_path / "star.net"
    path.write_text(write_pajek(star))
    out = tmp_path / "o"
    assert run(["hits", path, "--top", "3", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "converged" in stdout
    csv = (out / "hits.csv").read_text().splitlines()
    assert csv[0].startswith("rank,hub_id,")
    assert len(csv) == 4
    first = csv[1].split(",")
    assert first[4] == "1"  # the cited hub of the star tops authorities
    assert abs(float(first[6]) - 1.0) < 1e-12


def test_log_mode_weights_are_logarithms(tmp_path, diamond_file):
    out = tmp_path / "o"
    assert run(["weights", diamond_file, "--mode", "log", "--out", out]) == 0
    net = parse_pajek((out / "spc.net").read_text())
    assert net.weights.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_closure_methods_record_exact_mode(tmp_path, diamond_file, capsys):
    out = tmp_path / "o"
    assert run(["weights", diamond_file, "--method", "nppc", "--mode", "log",
                "--out", out]) == 0
    assert "mode         exact" in capsys.readouterr().out
    params = json.loads((out / "manifest.json").read_text())["parameters"]
    assert params["mode"] == "exact"
    assert "1 2 2\n" in (out / "nppc.net").read_text()


def test_closed_stdout_pipe_is_not_an_error(tmp_path):
    star = Network(600, [(1, j) for j in range(2, 601)])
    path = tmp_path / "star.net"
    path.write_text(write_pajek(star))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(citeflow.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "citeflow", "hits", str(path), "--top",
             "500", "--out", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert (out / "hits.csv").exists() and (out / "manifest.json").exists()


def test_alpha_spnp(tmp_path, diamond_file, capsys):
    out = tmp_path / "o"
    assert run(["weights", diamond_file, "--method", "spnp",
                "--alpha", "0.5", "--out", out]) == 0
    assert "alpha        0.5" in capsys.readouterr().out


def _jsonl_weights(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [r["weight"] for r in lines if r["record"] != "summary"]


def test_alpha_follows_mode(tmp_path, capsys):
    path = tmp_path / "r.net"
    path.write_text(write_pajek(random_dag(12, 0.35, seed=3)))
    runs = {}
    for mode in ("float", "exact", "log"):
        out = tmp_path / mode
        assert run(["weights", path, "--method", "spnp", "--alpha", "0.5",
                    "--mode", mode, "--jsonl", "--out", out]) == 0
        assert f"mode         {mode}" in capsys.readouterr().out
        params = json.loads((out / "manifest.json").read_text())["parameters"]
        assert params["mode"] == mode
        runs[mode] = _jsonl_weights(out / "spnp.jsonl")
    std = standardize(parse_pajek(path.read_text()))
    lib = aged_path_counts(std, 0.5, "exact")
    want = list(lib.arc)[:std.net.m] + list(lib.vertex)[:std.net.n]
    assert [Fraction(str(v)) for v in runs["exact"]] == want
    assert any(isinstance(v, str) and "/" in v for v in runs["exact"])
    for g, f in zip(runs["log"], runs["float"]):
        assert math.isclose(math.exp(g), f, rel_tol=1e-9)


def test_aged_overflow_exit_code(tmp_path, capsys):
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(diamond_chain(1030)))
    assert run(["weights", path, "--method", "spnp", "--alpha", "1",
                "--mode", "float", "--out", tmp_path / "o"]) == 5
    assert "rerun in mode=" in capsys.readouterr().err


def test_exact_median_keeps_every_digit(tmp_path, capsys):
    # 4120 arcs, each on half of the 2**1030 paths
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(diamond_chain(1030)))
    assert run(["weights", path, "--mode", "exact",
                "--out", tmp_path / "o"]) == 0
    half = str(2 ** 1029)
    assert f"min {half}  median {half}  max {half}" in capsys.readouterr().out


def test_exact_log_beyond_the_double_range(tmp_path, capsys):
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(diamond_chain(1030)))
    assert run(["weights", path, "--mode", "exact", "--log",
                "--out", tmp_path / "o"]) == 0
    capsys.readouterr()
    assert set(_arc_rows(tmp_path / "o" / "spc.net").values()) == {
        repr(math.log(2 ** 1029))}


def test_exact_shares_below_the_double_range_are_counted(tmp_path, capsys):
    # a lone arc beside 2**1080 paths: its share and its two vertices'
    # lie below the smallest double and are written as 0
    chain = diamond_chain(1080)
    net = Network(chain.n + 2, arcs_of(chain) + [(chain.n + 1, chain.n + 2)])
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(net))
    for args, name, count in [(["weights"], "spc.net", 3),
                              (["cut", "--threshold", "0"], "cut.net", 1)]:
        out = tmp_path / args[0]
        assert run([args[0], path, "--mode", "exact", "--normalize",
                    *args[1:], "--out", out]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"citeflow: {count} ")
        assert "--log" in err[0]
        lone = (str(net.n - 1), str(net.n))
        assert _arc_rows(out / name)[lone] == "0"
        logs = tmp_path / f"{args[0]}-log"
        assert run([args[0], path, "--mode", "exact", "--normalize", "--log",
                    *args[1:], "--out", logs]) == 0
        assert capsys.readouterr().err == ""


def test_exact_zeros_printed_on_stdout_are_counted(tmp_path, capsys):
    # the lone arc's share prints as 0: in weights' minimum, which spc.net
    # also holds, and as island 2's minimum, which islands writes nowhere
    chain = diamond_chain(1080)
    net = Network(chain.n + 2, arcs_of(chain) + [(chain.n + 1, chain.n + 2)])
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(net))
    for command, shown, count in [("weights", "arc weights  min 0  ", 3),
                                  ("islands", "2       2     0 ", 1)]:
        assert run([command, path, "--mode", "exact", "--normalize",
                    "--out", tmp_path / command]) == 0
        captured = capsys.readouterr()
        assert shown in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"citeflow: {count} ")
        assert "printed as 0" in err[0]


def test_cpm_path_totals_beyond_the_double_range_exit_code(tmp_path, capsys):
    net, _ = cpm_overflow_net()
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(net))
    out = tmp_path / "o"
    for mode in ([], ["--mode", "float"]):
        assert run(["cpm", path, *mode, "--out", out]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("citeflow: error: path "
                                                   "totals exceed")
        assert not out.exists()
    assert run(["cpm", path, "--mode", "log", "--out", out]) == 0
    assert "3067 vertices, 4087 arcs" in capsys.readouterr().out


def test_unusable_out_is_a_usage_error(tmp_path, diamond_file, capsys):
    for command, out in [("stats", diamond_file),
                         ("weights", diamond_file / "sub")]:
        assert run([command, diamond_file, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"citeflow: error: cannot write to {out}: ")
        assert len(err.splitlines()) == 1
    assert diamond_file.read_text() == DIAMOND


def _wide_diamond_chain(blocks, width):
    """`blocks` diamonds in a row, each `width` parallel two-arc paths."""
    arcs, a = [], 1
    for _ in range(blocks):
        for mid in range(a + 1, a + width + 1):
            arcs += [(a, mid), (mid, a + width + 1)]
        a += width + 1
    return Network(a, arcs)


def test_unrenderable_exact_fractions_exit_code(tmp_path, capsys):
    # aged counts near 16**520 * 0.5**1040: fractions far beyond a double
    path = tmp_path / "wide.net"
    path.write_text(write_pajek(_wide_diamond_chain(520, 16)))
    out = tmp_path / "o"
    assert run(["weights", path, "--method", "spnp", "--mode", "exact",
                "--alpha", "0.5", "--out", out]) == 5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--mode log" in err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_cut_on_normalized_weights(tmp_path, diamond_file, capsys):
    # every internal diamond arc carries 0.5 of the flow, so a 0.6
    # threshold on normalized weights leaves nothing
    out = tmp_path / "o"
    assert run(["cut", diamond_file, "--normalize", "--threshold", "0.6",
                "--out", out]) == 0
    assert "0 vertices, 0 arcs" in capsys.readouterr().out
    out2 = tmp_path / "o2"
    assert run(["cut", diamond_file, "--normalize", "--threshold", "0.5",
                "--out", out2]) == 0
    kept = parse_pajek((out2 / "cut.net").read_text())
    assert kept.n == 4 and kept.m == 4
    params = json.loads((out2 / "manifest.json").read_text())["parameters"]
    assert params["normalize"] is True and params["threshold"] == 0.5


@pytest.mark.parametrize("threshold",
                         ["0.2", "0.1", "0.05", "1e-9", "0", "-1"])
def test_cut_threshold_is_linear_in_every_mode(tmp_path, capsys, threshold):
    path = tmp_path / "r.net"
    path.write_text(write_pajek(random_dag(14, 0.3, seed=5)))
    kept = []
    for flags in (["--mode", "float"], ["--mode", "log"], ["--log"]):
        out = tmp_path / "-".join(flags)
        assert run(["cut", path, "--normalize", "--threshold", threshold,
                    *flags, "--out", out]) == 0
        kept.append(arcs_of(parse_pajek((out / "cut.net").read_text())))
    capsys.readouterr()
    assert kept[0] == kept[1] == kept[2]
    assert 0 < len(kept[0])  # shares are multiples of 1/23, the largest 6/23


def test_cut_never_keeps_floored_zeros(tmp_path, capsys):
    # beside 2**1080 chain paths the lone arc's share is below the double
    # range; --log gives it its exact logarithm, about -748.6, which lies
    # below ln 1e-300 = -690.8 with no floor (`floored` stays empty)
    chain = diamond_chain(1080)
    lone = Network(chain.n + 2, arcs_of(chain) + [(chain.n + 1, chain.n + 2)])
    path = tmp_path / "n.net"
    path.write_text(write_pajek(lone))
    kept = []
    for flags in ([], ["--log"]):
        out = tmp_path / f"o{len(flags)}"
        assert run(["cut", path, "--mode", "exact", "--normalize",
                    "--threshold", "1e-300", *flags, "--out", out]) == 0
        kept.append(arcs_of(parse_pajek((out / "cut.net").read_text())))
    capsys.readouterr()
    assert kept[0] == kept[1] == arcs_of(chain)


def test_mainpath_unchanged_by_normalization(tmp_path, diamond_file, capsys):
    plain, scaled = tmp_path / "a", tmp_path / "b"
    assert run(["mainpath", diamond_file, "--out", plain]) == 0
    assert run(["mainpath", diamond_file, "--normalize", "--out", scaled]) == 0
    first = parse_pajek((plain / "mainpath.net").read_text())
    second = parse_pajek((scaled / "mainpath.net").read_text())
    assert arcs_of(first) == arcs_of(second)
    assert first.labels == second.labels
    assert second.weights.tolist() == [0.5] * first.m


def test_islands_membership_survives_log_scale(tmp_path):
    src = tmp_path / "n.net"
    net = Network(4, [(1, 2, 5.0), (3, 4, 4.0), (2, 3, 1.0)])
    src.write_text(write_pajek(net))
    plain, logged = tmp_path / "a", tmp_path / "b"
    common = ["islands", src, "--method", "spc", "--k", "2", "--K", "2"]
    assert run(common + ["--out", plain]) == 0
    assert run(common + ["--log", "--out", logged]) == 0
    same = (plain / "islands.clu").read_text()
    assert (logged / "islands.clu").read_text() == same


def test_normalize_rejected_without_total(tmp_path, diamond_file, capsys):
    assert run(["cut", diamond_file, "--method", "sum", "--normalize",
                "--threshold", "1", "--out", tmp_path / "o"]) == 2
    assert "error" in capsys.readouterr().err


# --- derived structure built once, networks let go, digits without a cap ---

LOOPY = TWO_CYCLE + "3 3\n1 1\n"  # a 2-cycle, a loop in it and one outside


@pytest.mark.parametrize("argv", [
    ["repair", "--repair", "preprint"], ["repair", "--repair", "shrink"],
    ["stats"], ["weights", "--repair", "shrink"]])
def test_one_tarjan_build_per_command(tmp_path, monkeypatch, argv, capsys):
    tarjan, builds = citeflow.acyclic._tarjan, []

    def counted(net):
        builds.append(net.n)
        return tarjan(net)

    monkeypatch.setattr(citeflow.acyclic, "_tarjan", counted)
    src = tmp_path / "loopy.net"
    src.write_text(LOOPY)
    assert run([argv[0], src, *argv[1:], "--out", tmp_path / "o"]) == 0
    assert builds == [3]


@pytest.mark.parametrize("argv, writer", [
    (["weights", "--repair", "shrink"], "write_pajek"),
    (["cut", "--repair", "shrink", "--normalize", "--threshold", "0"],
     "write_subnetwork")])
def test_the_parse_is_gone_when_the_writer_runs(tmp_path, monkeypatch, argv,
                                                writer, capsys):
    import weakref
    parse, write = citeflow.cli.parse_pajek, getattr(citeflow.cli, writer)
    parsed, alive = [], []

    def parse_and_watch(text):  # a Network has no weakref slot; its arrays do
        net = parse(text)
        parsed.extend(map(weakref.ref, (net.tails, net.heads, net.weights)))
        return net

    def write_and_look(*args):
        alive.append(any(ref() is not None for ref in parsed))
        return write(*args)

    monkeypatch.setattr(citeflow.cli, "parse_pajek", parse_and_watch)
    monkeypatch.setattr(citeflow.cli, writer, write_and_look)
    src = tmp_path / "loopy.net"
    src.write_text(LOOPY)
    assert run([argv[0], src, *argv[1:], "--out", tmp_path / "o"]) == 0
    assert alive == [False]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Python 3.10 keeps a "
                    "call's arguments alive in the caller until it returns")
@pytest.mark.parametrize("argv", [
    ["weights", "--repair", "shrink"],
    ["cut", "--repair", "shrink", "--normalize", "--threshold", "0"]])
def test_the_parse_is_gone_when_the_standard_form_is_built(tmp_path,
                                                           monkeypatch, argv,
                                                           capsys):
    import weakref
    parse, build = citeflow.cli.parse_pajek, citeflow.cli.standardize
    parsed, alive = [], []

    def parse_and_watch(text):
        net = parse(text)
        parsed.extend(map(weakref.ref, (net.tails, net.heads, net.weights)))
        return net

    def build_and_look(net):
        alive.append(any(ref() is not None for ref in parsed))
        return build(net)

    monkeypatch.setattr(citeflow.cli, "parse_pajek", parse_and_watch)
    monkeypatch.setattr(citeflow.cli, "standardize", build_and_look)
    src = tmp_path / "loopy.net"
    src.write_text(LOOPY)
    assert run([argv[0], src, *argv[1:], "--out", tmp_path / "o"]) == 0
    assert alive == [False]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int digit cap came with Python 3.10.7")
def test_exact_counts_above_the_digit_cap(tmp_path, capsys):
    total, half = str(2**2200), str(2**2199)  # 663 and 663 digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        src = tmp_path / "chain.net"
        src.write_text(write_pajek(diamond_chain(2200)))
        for argv, name in [
                (["weights", "--mode", "exact"], "spc.vec"),
                (["weights", "--mode", "exact", "--normalize"], None),
                (["weights", "--mode", "exact", "--jsonl"], "spc.jsonl"),
                (["mainpath", "--mode", "exact"], "mainpath.net")]:
            out = tmp_path / "_".join(argv)
            assert run([argv[0], src, *argv[1:], "--out", out]) == 0
            assert sys.get_int_max_str_digits() == 640
            text = (out / name).read_text() if name else capsys.readouterr().out
            lines = text.splitlines()
            if name == "spc.vec":  # every path starts at vertex 1
                assert lines[1] == total
            elif name == "spc.jsonl":
                assert f'"total_flow": {total},' in lines[0]
            elif name == "mainpath.net":  # each arc lies on half the paths
                assert lines[-1] == f"{6600} {6601} {half}"
            else:
                assert f"totalFlow    {total}" in lines
        # the cap holds while the input is parsed
        src.write_text(f"*Vertices 1\n{'7' * 700} \"a\"\n*Arcs\n")
        assert run(["stats", src, "--out", tmp_path / "o"]) == 3
        assert "vertex id is not an integer" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
