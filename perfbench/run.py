"""citeflow benchmark: three seeded workloads, checked outputs, end-to-end
metrics, and a traced run for per-layer metrics.

    python3 perfbench/run.py --workload cli_citation --seed 1 --seconds 36 --trace 0

Run it from the root of a citeflow checkout; it uses the sources in `src/`
as they are, with no install step.  It makes the workload's inputs from the
seed, repeats the workload's command or call sequence until `--seconds` have
passed, checks every output, and prints one JSON object as its last line of
standard output: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Each metric is the median over the repetitions.
A fuller record (environment, input shape, every repetition, every failed
check, and the spans of a traced run) goes to `.perfbench/results/`.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import gen  # noqa: E402
from spans import MAX_COUNTS, SUM_COUNTS, TIME_METRICS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKER = Path(__file__).resolve().parent / "worker.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
PROCESS_LIMIT_S = 150  # a child still running after this is killed
SETUP_PROBES = 3  # at the start, and again after each repetition

# Sizes keep one repetition to a few seconds on a 2-core machine, so a run
# takes several and reports their median.  library_deep keeps the
# criterion-9 network, whose path counts must leave the double range.
SIZES = {
    "cli_citation": {"n": 30_000, "lookback": 1000, "mutual": 150, "loops": 15},
    "library_deep": {"n": 2000, "density": 0.5},
    "closure_cyclic": {"n": 4800, "fields": 4, "lookback": 500, "mutual": 100,
                       "loops": 10},
}

CLI_CITATION = [  # (label, subcommand and options, input: None = generated)
    ("repair", ["repair", "--repair", "preprint"], None),
    ("weights", ["weights", "--method", "spc", "--repair", "shrink", "--normalize"], None),
    ("mainpath", ["mainpath", "--single"], "repair/acyclic.net"),
    ("cut", ["cut", "--normalize", "--threshold", "0.001"], "repair/acyclic.net"),
]
CLOSURE_CYCLIC = [
    ("nppc", ["weights", "--method", "nppc", "--repair", "shrink"], None),
    ("islands", ["islands", "--method", "sum", "--repair", "shrink", "--k", "2",
                 "--K", "30"], None),
    ("repair", ["repair", "--repair", "preprint"], None),
    ("stats", ["stats"], None),
    ("hits", ["hits"], None),
]

END_TO_END = {"pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "arcs_per_s": "1/s", "setup_s": "s", "pass_ratio": "ratio"}
TRACE_EXTRA = {"trace.pipeline_s": "s", "trace.overhead_share": "ratio",
               "trace.e2e_share": "ratio", "trace.residual_share": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {m: "s" for m in TIME_METRICS}
    units.update({c: "bytes" if c.startswith("pajek.") else "count"
                  for c in MAX_COUNTS + SUM_COUNTS})
    units.update(TRACE_EXTRA)
    return units


# --- processes ---

def run_process(argv: list[str], stdout: Path, stderr: Path):
    """Run to completion; (exit code, rusage of the child)."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
    timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def setup_probe(scratch: Path) -> float:
    """Wall seconds of a fresh interpreter that only imports citeflow."""
    t0 = time.perf_counter()
    code, _ = run_process([sys.executable, "-c", "import citeflow"],
                          scratch / "setup.out", scratch / "setup.err")
    if code != 0:
        raise RuntimeError("citeflow does not import: "
                           + (scratch / "setup.err").read_text()[-2000:])
    return time.perf_counter() - t0


# --- workloads: inputs and expected outputs ---

def net_tuple(net):
    return net.n, net.tails, net.heads, net.weights


def expect_repair(cf, net):
    fixed = cf.preprint_transform(cf.remove_loops(net))
    clu = np.array(cf.strong_components(net).class_of, dtype=np.float64)
    return fixed, {"acyclic.net": ("net", net_tuple(fixed)),
                   "components.clu": ("clu", clu)}


def write_input(work: Path, n, tails, heads) -> Path:
    path = work / "input.net"
    path.write_text(gen.pajek_text(n, tails, heads))
    return path


def prepare_cli_citation(cf, seed, size, work):
    n, tails, heads = gen.citation_like(
        seed, size["n"], lookback=size["lookback"], mutual=size["mutual"],
        loops=size["loops"])
    net = cf.Network.from_arrays(n, tails, heads)
    fixed, repair = expect_repair(cf, net)

    shrunk = cf.shrink_components(cf.remove_loops(cf.simplify(net)))
    share = cf.normalize(cf.spc(cf.standardize(shrunk)))
    weights = {"spc.net": ("net", (shrunk.n, shrunk.tails, shrunk.heads,
                                   share.arc.values[:shrunk.m])),
               "spc.vec": ("vec", share.vertex[:shrunk.n])}

    simple = cf.simplify(fixed)
    std = cf.standardize(simple)
    counts = cf.spc(std)
    path = cf.main_path(std, counts.arc, single=True)
    vals = list(cf.normalize(counts).arc)[:simple.m]
    cut = cf.arc_cut(simple, vals, 0.001)
    expected = {
        "repair": repair, "weights": weights,
        "mainpath": {"mainpath.net": ("net", checks.read_net(
            cf.write_subnetwork(path, counts.arc)))},
        "cut": {"cut.net": ("net", checks.read_net(cf.write_subnetwork(cut, vals)))},
    }
    return {"commands": CLI_CITATION, "input": write_input(work, n, tails, heads),
            "shape": gen.shape(n, tails, heads), "expected": expected,
            "arcs_per_seq": 2 * len(tails) + 2 * fixed.m}


def prepare_closure_cyclic(cf, seed, size, work):
    n, tails, heads = gen.citation_like(
        seed, size["n"], lookback=size["lookback"], mutual=size["mutual"],
        loops=size["loops"], fields=size["fields"])
    shape = gen.shape(n, tails, heads)
    net = cf.Network.from_arrays(n, tails, heads)
    _, repair = expect_repair(cf, net)

    shrunk = cf.shrink_components(cf.remove_loops(cf.simplify(net)))
    anc, desc = checks.closure_counts(shrunk.n, shrunk.tails, shrunk.heads)
    t, h = shrunk.tails, shrunk.heads
    found = cf.islands(shrunk, cf.ArcWeights((anc[t] + desc[h]).tolist(), "exact"),
                       min_size=2, max_size=30)
    scores = cf.hits(net)
    stats = {"vertices": str(n), "arcs": str(shape["arc_lines"]),
             "loops": str(shape["loops"]), "depth": str(shape["depth"]),
             # the generator's 2-cycles are disjoint, so every component has 2
             "strong component sizes": f"2:{shape['scc_nontrivial']}"}
    expected = {
        "nppc": {"nppc.net": ("net", (shrunk.n, t, h, anc[t] * desc[h])),
                 "nppc.vec": ("vec", anc[1:] * desc[1:])},
        "islands": {"islands.clu": ("clu", np.array(found.membership(shrunk.n), float)),
                    "island_sizes.csv": ("sizes", found.size_frequencies())},
        "repair": repair,
        "stats": {"stdout": ("stats", stats)},
        "hits": {"hits.csv": ("hits", [
            (hv, hs, av, as_) for (hv, hs), (av, as_)
            in zip(scores.top(15, "hub"), scores.top(15, "authority"))])},
    }
    return {"commands": CLOSURE_CYCLIC, "input": write_input(work, n, tails, heads),
            "shape": shape, "expected": expected,
            "arcs_per_seq": len(CLOSURE_CYCLIC) * len(tails)}


def prepare_library_deep(cf, seed, size, work):
    n, tails, heads = gen.deep_dag(seed, size["n"], size["density"])
    arrays = work / "deep.npz"
    np.savez(arrays, n=n, tails=tails, heads=heads)
    return {"arrays": arrays, "shape": gen.shape(n, tails, heads),
            "arcs": len(tails)}


PREPARE = {"cli_citation": prepare_cli_citation, "library_deep": prepare_library_deep,
           "closure_cyclic": prepare_closure_cyclic}


# --- one repetition ---

def check_cli(prep, codes, repdir: Path) -> list[dict]:
    ops = []
    for (label, _, _), code in zip(prep["commands"], codes):
        problems = checks.check_command(code, repdir / label, repdir / f"{label}.stdout",
                                        prep["expected"][label])
        ops.append({"op": label, "problems": problems})
    return ops


def cli_argv(command, prep, repdir: Path) -> list[str]:
    label, args, source = command
    inp = prep["input"] if source is None else repdir / source
    return [args[0], str(inp), *args[1:], "--out", str(repdir / label)]


def run_cli_sequence(prep, repdir: Path) -> dict:
    """The CLI commands as subprocesses, one at a time, then their checks."""
    repdir.mkdir(parents=True)
    codes, cpu, rss, each = [], 0.0, 0, {}
    t0 = time.perf_counter()
    for command in prep["commands"]:
        label = command[0]
        c0 = time.perf_counter()
        code, usage = run_process(
            [sys.executable, "-m", "citeflow", *cli_argv(command, prep, repdir)],
            repdir / f"{label}.stdout", repdir / f"{label}.stderr")
        each[label] = time.perf_counter() - c0
        codes.append(code)
        cpu += usage.ru_utime + usage.ru_stime
        rss = max(rss, usage.ru_maxrss)
    wall = time.perf_counter() - t0
    return {"pipeline_s": wall, "cpu_s": cpu, "peak_rss_mb": rss / 1024,
            "command_s": each, "ops": check_cli(prep, codes, repdir)}


def run_worker(spec: dict, repdir: Path):
    """(worker result or None, rusage, problems)."""
    spec = dict(spec, src=str(SRC), result=str(repdir / "worker.json"))
    (repdir / "spec.json").write_text(json.dumps(spec, default=str))
    code, usage = run_process([sys.executable, str(WORKER), str(repdir / "spec.json")],
                              repdir / "worker.out", repdir / "worker.err")
    if code != 0 or not (repdir / "worker.json").is_file():
        tail = (repdir / "worker.err").read_text()[-2000:]
        return None, usage, [f"worker exited with code {code}: {tail}"]
    return json.loads((repdir / "worker.json").read_text()), usage, []


def run_session(prep, repdir: Path, replays: list[str]) -> tuple[dict, dict]:
    """Library session(s) in one worker process."""
    repdir.mkdir(parents=True)
    out, usage, problems = run_worker(
        {"kind": "session", "arrays": prep["arrays"], "replays": replays}, repdir)
    if out is None:
        return {"ops": [{"op": "session", "problems": problems}]}, {}
    plain = out["plain"]
    rep = {"pipeline_s": plain["wall_s"], "cpu_s": plain["cpu_s"],
           "peak_rss_mb": usage.ru_maxrss / 1024,
           "ops": [op for r in replays for op in out[r]["ops"]]}
    return rep, out


def run_cli_inprocess(prep, repdir: Path, replays: list[str]) -> tuple[list, dict]:
    """Plain and traced replays of the CLI commands through cli.main."""
    argvs, stdouts = {}, {}
    for replay in replays:
        (repdir / replay).mkdir()
        argvs[replay] = [cli_argv(c, prep, repdir / replay) for c in prep["commands"]]
        stdouts[replay] = [str(repdir / replay / f"{c[0]}.stdout") for c in prep["commands"]]
    out, _, problems = run_worker(
        {"kind": "cli", "replays": replays, "argvs": argvs, "stdouts": stdouts}, repdir)
    if out is None:
        return [{"op": "replay", "problems": problems}], {}
    ops = []
    for replay in replays:
        for op in check_cli(prep, out[replay]["codes"], repdir / replay):
            ops.append(dict(op, op=f"{replay}.{op['op']}"))
    return ops, out


def run_rep(kind: str, prep, repdir: Path, index: int, trace: bool) -> dict:
    replays = ["plain", "traced"] if index % 2 == 0 else ["traced", "plain"]
    out = {}
    if kind == "session":
        rep, out = run_session(prep, repdir, replays if trace else ["plain"])
        rep["commands"] = 0
    else:
        rep = run_cli_sequence(prep, repdir / "e2e")
        rep["commands"] = len(prep["commands"])
        if trace:
            ops, out = run_cli_inprocess(prep, repdir, replays)
            rep["ops"] += ops
    if out and trace:
        rep["layers"] = out["traced"]["layers"]
        rep["traced_s"] = out["traced"]["wall_s"]
        rep["replay_s"] = out["plain"]["wall_s"]
        rep["spans"] = out["traced"]["spans"]
    return rep


def trace_metrics(rep: dict, setup_s: float) -> dict:
    """Per-layer values of one traced repetition, with the trace accounting.
    In-process replays do not pay `setup_s`, so each command adds it back."""
    startup = rep["commands"] * setup_s
    traced = rep["traced_s"] + startup
    self_s = sum(rep["layers"][m] for m in TIME_METRICS)
    return dict(rep["layers"], **{
        "trace.pipeline_s": traced,
        "trace.overhead_share": rep["traced_s"] / rep["replay_s"] - 1.0,
        "trace.e2e_share": traced / rep["pipeline_s"] - 1.0,
        "trace.residual_share": 1.0 - (self_s + startup) / traced})


# --- the run ---

def calibration_s() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's speed at the
    moment, for reading runs made at different times side by side."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - t0


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "citeflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy
    return {
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "loadavg": os.getloadavg(),
        "calibration_s": calibration_s(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """Measure one workload; returns the full record, whose "result" entry is
    the object the command line prints."""
    sys.path.insert(0, str(SRC))
    import citeflow as cf

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment()}
    work = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        size = (sizes or SIZES)[workload]
        prep = PREPARE[workload](cf, seed, size, work)
        kind = "session" if workload == "library_deep" else "cli"
        setup_probe(work)  # not kept: it may compile bytecode
        setup = [setup_probe(work) for _ in range(SETUP_PROBES)]
        reps, last = [], 0.0
        deadline = time.perf_counter() + seconds
        # another repetition starts only if half of it fits before the
        # deadline, so a run ends near --seconds on average
        while not reps or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            repdir = work / f"rep{len(reps)}"
            reps.append(run_rep(kind, prep, repdir, len(reps), trace))
            shutil.rmtree(repdir)
            setup += [setup_probe(work) for _ in range(2)]
            last = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["environment"]["calibration_end_s"] = calibration_s()
    setup_s = median(setup)
    ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in ops if op["problems"]]
    if trace:
        layered = [trace_metrics(rep, setup_s) for rep in reps if "layers" in rep]
        metrics = {name: {"value": median([lay[name] for lay in layered]), "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        pipeline = median([rep["pipeline_s"] for rep in reps if "pipeline_s" in rep])
        arcs = prep["arcs_per_seq"] if kind == "cli" else prep["arcs"] * len(
            reps[0]["ops"])
        values = {
            "pipeline_s": pipeline,
            "cpu_s": median([rep["cpu_s"] for rep in reps if "cpu_s" in rep]),
            "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps
                                   if "peak_rss_mb" in rep]),
            "arcs_per_s": arcs / pipeline if pipeline else 0.0,
            "setup_s": setup_s,
            "pass_ratio": 1.0 - len(failed) / len(ops),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    record.update(
        shape=prep["shape"], setup_samples=setup, repetitions=[
            {k: v for k, v in rep.items() if k not in ("ops", "spans")} for rep in reps],
        failures=[dict(op, rep=i) for i, rep in enumerate(reps)
                  for op in rep["ops"] if op["problems"]],
        spans=[rep.get("spans") for rep in reps] if trace else None,
        result={"correct": not failed, "attempted": len(ops), "failed": len(failed),
                "metrics": metrics})
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "citeflow" / "__init__.py").is_file():
        print(f"perfbench: no citeflow sources under {SRC}; run from the root "
              "of a citeflow checkout", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, default=str))
    result = record["result"]
    for failure in record["failures"]:
        print(f"FAILED rep {failure['rep']} {failure['op']}: "
              + "; ".join(failure["problems"]), file=sys.stderr)
    print(json.dumps(record["shape"]), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
