"""Command line front end.

One subcommand per analysis step: `stats`, `repair`, `weights`, `mainpath`,
`cpm`, `cut`, `islands`, `hits`.  `main` alone touches files: it loads the
input once (`_load` keeps its sha256, not its bytes), runs `_front` (the
weight commands' shared front half) on the unnamed parse and the command on
what `_front` returns, and writes what the command returns once (`_finish`).
Every run drops a manifest.json next to its outputs recording the input
checksum, the resolved parameters, library versions and a checksum per
emitted file, so a run can be audited and repeated; outputs are
byte-identical across repeats (the manifest timestamp aside).

Exit codes: 0 success, 2 bad arguments or an --out that cannot be written
to, 3 unreadable or malformed input, 4 cyclic input where an acyclic one is
required, 5 numeric overflow (float counts under --mode float, float cpm
path totals beyond the double range, or an exact fraction with no float
rendering).  What the arguments alone rule out (`_usage_error`) exits 2
before the input is read, so before 3 and 4.  Exit 0 also when stdout's
reader leaves early (`| head`): files are written first; and when positive
exact values below the double range are written or printed as 0, which one
stderr line counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from functools import partial
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .acyclic import (CycleError, is_acyclic, preprint_transform, remove_loops,
                      shrink_components, standardize, strong_components)
from .extract import arc_cut, cpm_path, islands, main_path, write_subnetwork
from .network import MODES, ArcWeights, Network, simplify
from .pajek import (PajekParseError, format_number, parse_pajek, write_pajek,
                    write_partition, write_vector)
from .rank import hits
from .stats import format_stats, network_stats
from .weights import (WeightOverflowError, aged_path_counts, log_transform,
                      normalize, nppc, spc, splc, spnp, sum_weights)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CYCLIC = 4
EXIT_OVERFLOW = 5

METHODS = ("spc", "splc", "spnp", "nppc", "sum")


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="citeflow",
        description="Flow weights, main paths, islands and hub/authority "
                    "scores for acyclic citation networks.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("input", help="Pajek .net file")
    io.add_argument("--out", default=".", metavar="DIR",
                    help="output directory (default: current)")

    wm = argparse.ArgumentParser(add_help=False)
    wm.add_argument("--method", choices=METHODS, default="spc",
                    help="weighting method (default: spc)")
    wm.add_argument("--mode", choices=MODES, default=None,
                    help="numeric mode of spc, splc and spnp, aged or not "
                         "(default float, rerun in log if float overflows); "
                         "nppc and sum are exact")
    wm.add_argument("--alpha", type=float, default=None, metavar="A",
                    help="aging factor in (0,1] for spnp path counting, in "
                         "any --mode")
    wm.add_argument("--repair", choices=("shrink", "preprint"), default=None,
                    help="repair a cyclic input before weighting instead of "
                         "failing")
    wm.add_argument("--normalize", action="store_true",
                    help="divide all weights by the total flow")
    wm.add_argument("--log", action="store_true",
                    help="use natural logarithms of the weights")

    sub.add_parser("stats", parents=[io],
                   help="structural summary of the network as given")

    p = sub.add_parser("repair", parents=[io],
                       help="make the network acyclic, report the components")
    p.add_argument("--repair", choices=("shrink", "preprint"),
                   default="shrink", dest="strategy",
                   help="shrink components to points or add preprint twins "
                        "(default: shrink)")

    p = sub.add_parser("weights", parents=[io, wm],
                       help="arc and vertex weights by one method")
    p.add_argument("--jsonl", action="store_true",
                   help="also write a JSON-lines report")

    p = sub.add_parser("mainpath", parents=[io, wm],
                       help="greedy highest-weight subnetwork from the source")
    p.add_argument("--single", action="store_true",
                   help="break ties toward the smallest vertex id, yielding "
                        "one chain")

    sub.add_parser("cpm", parents=[io, wm],
                   help="maximum total weight source-sink path(s)")

    p = sub.add_parser("cut", parents=[io, wm],
                       help="subnetwork of arcs at or above a weight threshold")
    p.add_argument("--threshold", type=float, required=True, metavar="T",
                   help="keep arcs with weight >= T or tied with it, in "
                        "linear units in every mode (log weights: ln T)")

    p = sub.add_parser("islands", parents=[io, wm],
                       help="maximal locally heavy clusters")
    p.add_argument("--k", type=int, default=2, metavar="K_MIN",
                   help="smallest island size (default: 2)")
    p.add_argument("--K", type=int, default=None, metavar="K_MAX",
                   help="largest island size (default: no bound)")

    p = sub.add_parser("hits", parents=[io],
                       help="hub and authority scores")
    p.add_argument("--top", type=int, default=15, metavar="N",
                   help="rows in the ranking table (default: 15)")

    return top


# --- shared plumbing ---

def _load(args) -> Network:
    """The network in args.input; its sha256 goes to args.sha256 and its
    bytes end here.  Then str() of an int loses the digit cap that guards
    int() of the text (CVE-2020-10735), so exact counts of any size render."""
    path = args.input
    try:
        raw = Path(path).read_bytes()
        args.sha256, text = hashlib.sha256(raw).hexdigest(), raw.decode("utf-8")
        del raw
        net = parse_pajek(text)
    except OSError as exc:
        raise _Fail(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Fail(EXIT_PARSE, f"{path} is not UTF-8 text: {exc}") from exc
    except PajekParseError as exc:
        raise _Fail(EXIT_PARSE, f"{path}: {exc}") from exc
    getattr(sys, "set_int_max_str_digits", int)(0)  # from 3.10.7; `main` resets
    return net


def _repaired(net: Network, strategy: str) -> Network:
    if strategy == "shrink":  # drops loops with every intra-class arc
        return shrink_components(net)
    return preprint_transform(remove_loops(net))


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                     for row in (header, *rows))


def _zeros(result, *columns) -> int:
    """Positive exact values in `columns` that render as 0 (<= 2**-1075)."""
    if result.arc.mode != "exact":
        return 0
    return sum(type(v) is Fraction and not float(v) and v > 0
               for col in columns for v in col)


def _finish(args, params: dict, files: dict[str, str],
            stdout_text: str, zeros: int = 0) -> int:
    """Write each output, encoded once and hashed as written, then the
    manifest; then the zero count and stdout."""
    outputs = []
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            data = text.encode()
            Path(args.out, name).write_bytes(data)
            outputs.append({"path": name,
                            "sha256": hashlib.sha256(data).hexdigest()})
        manifest = {
            "command": args.command,
            "created_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"),
            "input": {"path": args.input, "sha256": args.sha256},
            "outputs": outputs,
            "parameters": params,
            "versions": {"citeflow": __version__,
                         "numpy": np.__version__,
                         "python": "%d.%d.%d" % sys.version_info[:3]},
        }
        Path(args.out, "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8",
            newline="\n")
    except OSError as exc:
        raise _Fail(EXIT_USAGE, f"cannot write to {args.out}: {exc}") from exc
    if zeros:
        print(f"citeflow: {zeros} positive exact values below the double "
              "range written or printed as 0; --log gives their logarithms",
              file=sys.stderr)
    if stdout_text:
        print(stdout_text, flush=True)
    return EXIT_OK


# --- commands: (args, *front half) -> (parameters, files, stdout[, zeros]) ---

def _cmd_stats(args, net):
    return {}, {}, format_stats(network_stats(net))


def _cmd_repair(args, net):
    base = net if args.strategy == "shrink" else remove_loops(net)
    part = strong_components(base)  # loops keep the SCCs; kept on `base`
    fixed = _repaired(base, args.strategy)  # for the repair to read
    del base  # a loop-free copy is not kept for the writer
    nontrivial = sum(1 for size in part.sizes() if size > 1)
    lines = [f"strategy            {args.strategy}",
             f"vertices            {net.n} -> {fixed.n}",
             f"arcs                {net.m} -> {fixed.m}",
             f"loops removed       {np.count_nonzero(net.tails == net.heads)}",
             f"components (>1)     {nontrivial}",
             f"acyclic             {is_acyclic(fixed)}"]
    files = {"acyclic.net": write_pajek(fixed),
             "components.clu": write_partition(part.class_of)}
    return {"strategy": args.strategy}, files, "\n".join(lines)


def _front(args, net: Network) -> tuple:
    """The command's arguments after `args`: the parse for `stats`, `repair`
    and `hits`; for a weight command (network, standard form, result,
    manifest parameters, repair applied), the parse simplified, repaired or
    rejected if cyclic, weighed, normalized and logged."""
    if "method" not in args:
        return (net,)
    net, repaired = simplify(net), "none"
    if not is_acyclic(net):
        if args.repair is None:
            raise _Fail(EXIT_CYCLIC, "input network is cyclic; rerun with "
                        "--repair shrink or --repair preprint")
        net, repaired = _repaired(net, args.repair), args.repair
    std, result = standardize(net), None
    if args.method in ("nppc", "sum"):
        result = {"nppc": nppc, "sum": sum_weights}[args.method](net)
    else:
        kernel = {"spc": spc, "splc": splc, "spnp": spnp}[args.method]
        counts = (partial(kernel, std) if args.alpha is None
                  else partial(aged_path_counts, std, args.alpha))
        try:
            result = counts(args.mode or "float")
        except WeightOverflowError:
            if args.mode is not None:
                raise
            print("citeflow: float counts exceed the double range; running "
                  "in log mode", file=sys.stderr)
        if result is None:
            result = counts("log")
    params = {"method": args.method, "mode": result.arc.mode,  # what ran
              "alpha": args.alpha, "repair": args.repair,
              "normalize": args.normalize, "log": args.log}
    try:
        if args.normalize:
            result = normalize(result)
        if args.log:
            result = log_transform(result)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc
    return net, std, result, params, repaired


def _subnetwork(params, name, sub, result, text):
    """The return of a command that writes `sub` with its weights."""
    return (params, {name: write_subnetwork(sub, result.arc)}, text,
            _zeros(result, result.arc.values[list(sub.arcs)]))


def _cmd_weights(args, net, std, result, params, repaired):
    arc_vals = result.arc.values[:net.m]  # the input's arcs come first
    files = {f"{args.method}.net": write_pajek(net, arc_vals)}
    if result.vertex is not None:
        files[f"{args.method}.vec"] = write_vector(result.vertex[:net.n])

    summary = [f"method       {result.method}",
               f"mode         {params['mode']}",
               f"vertices     {net.n}",
               f"arcs         {net.m}",
               f"repair       {repaired}"]
    if result.alpha is not None:
        summary.append(f"alpha        {format_number(result.alpha)}")
    if result.total_flow is not None:
        summary.append(f"totalFlow    {format_number(result.total_flow)}")
    summary.append(f"normalized   {'yes' if result.normalized else 'no'}")
    if net.m:  # every value printed here is also written
        if result.arc.mode == "exact":  # exact midpoint of the middle pair
            ordered, k = sorted(arc_vals), net.m // 2
            spread = (ordered[0], Fraction(ordered[k] + ordered[~k]) / 2,
                      ordered[-1])
        else:
            spread = arc_vals.min(), np.median(arc_vals), arc_vals.max()
        summary.append("arc weights  min %s  median %s  max %s"
                       % tuple(map(format_number, spread)))
    if args.log:
        summary.append(f"floored      {len(result.floored)} zero-weight arcs")

    if args.jsonl:  # exact fractions as strings
        record = partial(json.dumps, sort_keys=True, default=str)
        lines = [record({
            "record": "summary", "method": result.method,
            "mode": params["mode"], "alpha": result.alpha,
            "normalized": result.normalized, "total_flow": result.total_flow,
            "vertices": net.n, "arcs": net.m})]
        lines += [record({"record": "arc", "index": i, "tail": t,
                          "head": h, "weight": value})
                  for i, (t, h, value) in enumerate(zip(
                      net.tails.tolist(), net.heads.tolist(),
                      arc_vals.tolist()))]
        if result.vertex is not None:
            lines += [record({"record": "vertex", "id": v, "weight": value})
                      for v, value in enumerate(
                          list(result.vertex)[:net.n], start=1)]
        files[f"{args.method}.jsonl"] = "\n".join(lines) + "\n"

    return params, files, "\n".join(summary), _zeros(
        result, arc_vals, () if result.vertex is None
        else result.vertex[:net.n])


def _cmd_mainpath(args, net, std, result, params, repaired):
    sub = main_path(std, result.arc, single=args.single)
    params["single"] = args.single
    return _subnetwork(params, "mainpath.net", sub, result,
                       f"main path: {len(sub.vertices)} vertices, "
                       f"{len(sub.arcs)} arcs (method {result.method})")


def _cmd_cpm(args, net, std, result, params, repaired):
    sub = cpm_path(std, result.arc)
    return _subnetwork(params, "cpm.net", sub, result,
                       f"critical path: {len(sub.vertices)} vertices, "
                       f"{len(sub.arcs)} arcs (method {result.method})")


def _cmd_cut(args, net, std, result, params, repaired):
    vals, threshold = result.arc.values[:net.m], args.threshold
    if result.arc.mode == "log":  # logs: cut at ln T, where T is linear
        if threshold <= 0:
            threshold = -math.inf
        else:  # zeros mapped to a floor stay below T > 0
            threshold = math.log(threshold)
            vals = np.where(np.isin(np.arange(net.m), result.floored),
                            -math.inf, vals)
    elif result.arc.mode == "exact" and 0 < threshold < math.inf:
        below = math.nextafter(threshold, 0)  # T stands for what rounds to it
        threshold = (Fraction(threshold) + Fraction(below)) / 2
    sub = arc_cut(net, ArcWeights(vals, result.arc.mode), threshold)
    sizes = sorted((len(c) for c in sub.components), reverse=True)
    params["threshold"] = args.threshold
    return _subnetwork(params, "cut.net", sub, result,
                       f"cut at {format_number(args.threshold)}: "
                       f"{len(sub.vertices)} vertices, {len(sub.arcs)} arcs, "
                       f"{len(sizes)} weak components"
                       + (f" (largest {sizes[0]})" if sizes else ""))


def _cmd_islands(args, net, std, result, params, repaired):
    vals = ArcWeights(result.arc.values[:net.m], result.arc.mode)
    try:
        found = islands(net, vals, min_size=args.k, max_size=args.K)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc

    rows = [[str(i), str(isl.size), format_number(isl.internal_min),
             "-" if isl.external_max is None
             else format_number(isl.external_max)]
            for i, isl in enumerate(found.islands, start=1)]
    table = _table(["island", "size", "min inside", "max outside"], rows)

    freq = found.size_frequencies()
    csv_lines = ["size,count"] + [f"{size},{freq.get(size, 0)}"
                                  for size in range(1, found.max_size + 1)]
    files = {"islands.clu": write_partition(found.membership(net.n)),
             "island_sizes.csv": "\n".join(csv_lines) + "\n"}
    params.update(k=found.min_size, K=found.max_size)
    text = f"{len(found.islands)} islands\n{table}" if rows else "no islands"
    return params, files, text, _zeros(result, *(
        (isl.internal_min, isl.external_max) for isl in found.islands))


def _cmd_hits(args, net):
    try:
        scores = hits(net)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc
    count = min(args.top, net.n)
    hub_top = scores.top(count, "hub")
    auth_top = scores.top(count, "authority")
    rows = []
    csv_lines = ["rank,hub_id,hub_label,hub_score,"
                 "authority_id,authority_label,authority_score"]
    for rank in range(count):
        hv, hs = hub_top[rank]
        av, as_ = auth_top[rank]
        rows.append([str(rank + 1), f"{hs:.6f}", net.label(hv), "|",
                     f"{as_:.6f}", net.label(av)])
        csv_lines.append(",".join([
            str(rank + 1), str(hv), _csv_field(net.label(hv)), repr(hs),
            str(av), _csv_field(net.label(av)), repr(as_)]))
    table = _table(["rank", "hub", "label", "", "authority", "label"], rows)
    note = (f"converged after {scores.iterations} iterations"
            if scores.converged else
            f"NOT converged after {scores.iterations} iterations "
            f"(residual {scores.residual:.3e})")
    files = {"hits.csv": "\n".join(csv_lines) + "\n"}
    return {"top": args.top}, files, f"{table}\n{note}"


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _usage_error(args) -> str | None:
    """What is wrong with the arguments alone, if anything."""
    alpha, method = getattr(args, "alpha", None), getattr(args, "method", "")
    if alpha is not None and method != "spnp":
        return "--alpha applies to --method spnp only"
    if alpha is not None and not 0.0 < alpha <= 1.0:
        return "alpha must lie in (0, 1]"
    if getattr(args, "normalize", False) and method in ("nppc", "sum"):
        return f"{method.upper()} weights carry no total flow"
    if args.command == "islands" and (
            args.k < 1 or args.K is not None and args.K < args.k):
        return "need 1 <= min_size <= max_size"
    if args.command == "cut" and math.isnan(args.threshold):
        return "--threshold must be a number, got nan"
    if args.command == "hits" and args.top < 0:
        return f"--top must be at least 0, got {args.top}"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "stats": _cmd_stats, "repair": _cmd_repair, "weights": _cmd_weights,
        "mainpath": _cmd_mainpath, "cpm": _cmd_cpm, "cut": _cmd_cut,
        "islands": _cmd_islands, "hits": _cmd_hits}[args.command]
    cap = getattr(sys, "get_int_max_str_digits", int)()
    try:
        if error := _usage_error(args):
            raise _Fail(EXIT_USAGE, error)
        # no name here holds the parse: it lives in `_front` and dies there
        return _finish(args, *handler(args, *_front(args, _load(args))))
    except _Fail as fail:
        print(f"citeflow: error: {fail}", file=sys.stderr)
        return fail.code
    except WeightOverflowError as exc:  # float counts or cpm path totals
        print(f"citeflow: error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OverflowError:  # float() of an exact Fraction, before any write
        print("citeflow: error: an exact fraction beyond the double range "
              "has no float rendering; rerun with --mode log", file=sys.stderr)
        return EXIT_OVERFLOW
    except BrokenPipeError:  # devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        getattr(sys, "set_int_max_str_digits", int)(cap)


if __name__ == "__main__":
    sys.exit(main())
