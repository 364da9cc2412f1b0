"""The OpenBLAS thread guard of `import citeflow`, each case in a fresh
interpreter whose thread variables are cleared."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import citeflow
from citeflow import random_dag, write_pajek

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="counts threads in /proc/self/task")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = ("import os; print(len(os.listdir('/proc/self/task')), "
         "os.environ.get('OPENBLAS_NUM_THREADS'))")


def _python(*args, **env):
    """Standard output of a fresh interpreter, split into words."""
    clean = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    clean["PYTHONPATH"] = os.pathsep.join(
        [str(Path(citeflow.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, *args], env=dict(clean, **env),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout.split()


def test_citeflow_first_starts_one_blas_thread():
    assert _python("-c", "import citeflow; " + PROBE) == ["1", "None"]


def test_a_thread_variable_of_the_caller_is_kept():
    got = _python("-c", "import citeflow; " + PROBE, OPENBLAS_NUM_THREADS="2")
    assert got[1] == "2"


def test_numpy_imported_first_is_left_alone():
    alone = _python("-c", "import numpy; " + PROBE)
    assert _python("-c", "import numpy, citeflow; " + PROBE) == alone


def test_hits_output_does_not_depend_on_the_thread_count(tmp_path):
    path = tmp_path / "in.net"
    path.write_text(write_pajek(random_dag(300, 0.03, seed=3)))
    csv = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        _python("-m", "citeflow", "hits", str(path), "--top", "300",
                "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        csv.append((out / "hits.csv").read_bytes())
    assert csv[0] == csv[1]
