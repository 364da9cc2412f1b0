import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citeflow
from citeflow import Network, parse_pajek, spc, standardize, write_pajek
from citeflow.cli import main

from conftest import arcs_of

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
    path.write_text(TWO_CYCLE)
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
    assert run(["weights", diamond_file, "--method", "sum",
                "--alpha", "0.5", "--out", o]) == 2
    assert run(["weights", diamond_file, "--method", "nppc",
                "--normalize", "--out", o]) == 2
    assert run(["islands", diamond_file, "--k", "0", "--out", o]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(["frobnicate", diamond_file])
    assert err.value.code == 2
    capsys.readouterr()


def test_overflow_exit_code(tmp_path, capsys):
    arcs = []
    a = 1
    for _ in range(1030):
        arcs += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
        a += 3
    path = tmp_path / "deep.net"
    path.write_text(write_pajek(Network(a, arcs)))
    assert run(["weights", path, "--mode", "float",
                "--out", tmp_path / "o"]) == 5
    assert "rerun in mode=" in capsys.readouterr().err
    # the same run in log mode succeeds
    assert run(["weights", path, "--mode", "log",
                "--out", tmp_path / "o2"]) == 0
    capsys.readouterr()


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
