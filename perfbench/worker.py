"""Runs citeflow in process, for the library workload and for traced replays
of the CLI workloads.

    python3 perfbench/worker.py SPEC.json

SPEC names the kind ("session" or "cli"), citeflow's source directory, the
replays to make in order ("plain" and/or "traced"), their inputs, and the
file to write the result to.  run.py checks the CLI outputs afterwards;
the library session checks its own results here, between the timed calls.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import Tracer


class Aborted(Exception):
    """A session call failed; the calls after it depend on its result."""


class Ops:
    """Times each library call and collects the problems its checks find."""

    def __init__(self):
        self.records: list[dict] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def call(self, name: str, fn, *args, allow=()):
        """Result of fn(*args), or the exception when it is one of `allow`."""
        self.records.append({"op": name, "problems": []})
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        except allow as exc:
            return exc
        except Exception as exc:  # reported as a failed operation
            self.records[-1]["problems"].append(f"raised {exc!r}")
            raise Aborted from exc
        finally:
            self.wall_s += time.perf_counter() - w0
            self.cpu_s += time.process_time() - c0

    def check(self, problems: list[str]) -> None:
        self.records[-1]["problems"].extend(problems)


def library_session(cf, net, ops: Ops) -> None:
    """The library workload: every flow method and mode, aging, closure
    counting and each extractor, in that order, on one deep network."""
    m = net.m
    std = ops.call("standardize", cf.standardize, net)
    for method in ("spc", "splc", "spnp"):
        fn = getattr(cf, method)
        log = ops.call(f"{method}.log", fn, std, "log")
        exact = ops.call(f"{method}.exact", fn, std, "exact")
        ops.check(checks.log_matches_exact(log, exact))
        if method == "spc":
            ops.check(checks.kirchhoff(std, exact))
            spc_log, spc_exact = log, exact
        del log, exact

    aged = ops.call("aged_path_counts", cf.aged_path_counts, std, 0.5)
    if not np.all(np.isfinite(aged.arc.values) & (aged.arc.values > 0)):
        ops.check(["aged weights are not all finite and positive"])
    del aged

    closure = ops.call("nppc", cf.nppc, net)
    anc, desc = checks.closure_counts(net.n, net.tails, net.heads)
    if list(closure.arc) != (anc[net.tails] * desc[net.heads]).tolist():
        ops.check(["nppc arc weights differ from the independent closure count"])
    if list(closure.vertex) != (anc[1:] * desc[1:]).tolist():
        ops.check(["nppc vertex weights differ from the independent closure count"])

    by_log = ops.call("main_path.log", cf.main_path, std, spc_log.arc)
    by_exact = ops.call("main_path.exact", cf.main_path, std, spc_exact.arc)
    if (by_log.arcs, by_log.vertices) != (by_exact.arcs, by_exact.vertices):
        ops.check(["main path differs between log and exact weights"])
    cpm = ops.call("cpm_path.log", cf.cpm_path, std, spc_log.arc)
    if not cpm.arcs:
        ops.check(["critical path is empty"])

    found = ops.call("islands", cf.islands, net,
                     cf.ArcWeights(spc_log.arc.values[:m], "log"), 2, 30)
    sizes = [isl.size for isl in found.islands]
    members = set().union(*(isl.vertices for isl in found.islands))
    if not sizes or not all(2 <= s <= 30 for s in sizes) or len(members) != sum(sizes):
        ops.check([f"islands are empty, overlap or leave 2..30: {sizes[:10]}"])

    share = ops.call("normalize", cf.normalize, spc_log)
    if share.arc.values.max() > 1e-12:
        ops.check(["a normalized weight exceeds 1"])
    cut = ops.call("arc_cut", cf.arc_cut, net,
                   cf.ArcWeights(share.arc.values[:m], "log"), math.log(1e-3))
    total = spc_exact.total_flow
    want = tuple(i for i, w in enumerate(spc_exact.arc.values[:m]) if 1000 * w >= total)
    if cut.arcs != want:
        ops.check([f"cut keeps {len(cut.arcs)} arcs, exact shares give {len(want)}"])

    result = ops.call("spc.float", cf.spc, std, "float", allow=(cf.WeightOverflowError,))
    if total > sys.float_info.max:
        if not isinstance(result, cf.WeightOverflowError):
            ops.check(["float spc did not raise on counts beyond the double range"])
    elif isinstance(result, Exception) or not checks.close(
            result.arc.values, [float(x) for x in spc_exact.arc.values], 1e-9):
        ops.check(["float spc differs from exact spc"])


def cli_replay(main, argvs: list[list[str]], stdouts: list[str],
               tracer: Tracer | None) -> dict:
    """Each argv through citeflow.cli.main, one after another."""
    codes = []
    w0, c0 = time.perf_counter(), time.process_time()
    for run, (argv, stdout) in enumerate(zip(argvs, stdouts)):
        if tracer:
            tracer.run = run
        with open(stdout, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
    return {"wall_s": time.perf_counter() - w0, "cpu_s": time.process_time() - c0,
            "codes": codes}


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, spec["src"])
    import citeflow as cf
    from citeflow import cli, extract

    if spec["kind"] == "session":
        arrays = np.load(spec["arrays"])
        net = cf.Network.from_arrays(int(arrays["n"]), arrays["tails"], arrays["heads"])
    out = {}
    for replay in spec["replays"]:
        tracer = Tracer() if replay == "traced" else None
        if tracer:
            tracer.install([cf] if spec["kind"] == "session" else [cli, extract],
                           cf.Network)
        try:
            if spec["kind"] == "session":
                ops = Ops()
                with contextlib.suppress(Aborted):
                    library_session(cf, net, ops)
                rec = {"wall_s": ops.wall_s, "cpu_s": ops.cpu_s, "ops": ops.records}
            else:
                entry = tracer.wrap("cli.self_s", cli.main) if tracer else cli.main
                rec = cli_replay(entry, spec["argvs"][replay], spec["stdouts"][replay],
                                 tracer)
        finally:
            if tracer:
                tracer.remove()
        if tracer:
            rec["layers"] = tracer.summary()
            rec["spans"] = tracer.spans
        out[replay] = rec
    Path(spec["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()
