"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {
    "cli_citation": {"n": 600, "lookback": 100, "mutual": 10, "loops": 3},
    "library_deep": {"n": 60, "density": 0.5},
    "closure_cyclic": {"n": 600, "fields": 2, "lookback": 50, "mutual": 10, "loops": 3},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_each_workload_once_reports_every_metric(workload, trace):
    record = run.run(workload, seed=5, seconds=0, trace=bool(trace), sizes=TINY)
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        record["failures"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert set(record["shape"]) == {"n", "arc_lines", "parallels_merged", "loops",
                                    "scc_nontrivial", "depth"}
    for key in ("commit", "nproc", "cpu_model", "python", "numpy", "blas_threads",
                "loadavg"):
        assert key in record["environment"]


def test_corrupted_output_counts_as_failed(tmp_path):
    sys.path.insert(0, str(run.SRC))
    import citeflow as cf

    prep = run.prepare_cli_citation(cf, 7, TINY["cli_citation"], tmp_path)
    rep = run.run_cli_sequence(prep, tmp_path / "rep")
    assert all(not op["problems"] for op in rep["ops"]), rep["ops"]
    codes = [0] * len(prep["commands"])

    bad = tmp_path / "bad"
    shutil.copytree(tmp_path / "rep", bad)
    net = bad / "weights" / "spc.net"
    lines = net.read_text().splitlines()
    at = lines.index("*Arcs") + 1
    tail, head, weight = lines[at].split()
    lines[at] = f"{tail} {head} {float(weight) * 1.001!r}"
    net.write_text("\n".join(lines) + "\n")
    ops = run.check_cli(prep, codes, bad)
    assert [op["op"] for op in ops if op["problems"]] == ["weights"]

    # with the manifest made to agree, the weight column check still fails
    manifest = json.loads((bad / "weights" / "manifest.json").read_text())
    for rec in manifest["outputs"]:
        rec["sha256"] = hashlib.sha256((bad / "weights" / rec["path"])
                                       .read_bytes()).hexdigest()
    (bad / "weights" / "manifest.json").write_text(json.dumps(manifest))
    ops = run.check_cli(prep, codes, bad)
    assert [p for op in ops for p in op["problems"]] == [
        "spc.net: arc weight column differs"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "cli_citation", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
