"""Command line front end.

One subcommand per analysis step: `stats`, `repair`, `weights`, `mainpath`,
`cpm`, `cut`, `islands`, `hits`.  Every run drops a manifest.json next to
its outputs recording the input checksum, the resolved parameters, library
versions and a checksum per emitted file, so a run can be audited and
repeated; outputs are byte-identical across repeats (the manifest timestamp
aside).

Exit codes: 0 success, 2 bad arguments, 3 unreadable or malformed input,
4 cyclic input where an acyclic one is required, 5 numeric overflow.  Exit
0 also when stdout's reader leaves early (`| head`): files are written first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .acyclic import (CycleError, is_acyclic, preprint_transform, remove_loops,
                      shrink_components, standardize, strong_components)
from .extract import arc_cut, cpm_path, islands, main_path, write_subnetwork
from .network import MODES, Network, simplify
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
LARGE_M = 10 ** 6  # above this, numeric mode defaults to log


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
                    help="numeric mode of spc, splc and spnp (default float, "
                         "log above a million arcs); nppc and sum are exact")
    wm.add_argument("--alpha", type=float, default=None, metavar="A",
                    help="aging factor in (0,1] for spnp path counting")
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
                   help="keep arcs with weight >= T (compared against the "
                        "stored values, so ln-scale in log mode)")

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

def _load(path: str) -> tuple[bytes, Network]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise _Fail(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    try:
        net = parse_pajek(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise _Fail(EXIT_PARSE, f"{path} is not UTF-8 text: {exc}") from exc
    except PajekParseError as exc:
        raise _Fail(EXIT_PARSE, f"{path}: {exc}") from exc
    return raw, net


def _acyclic_or_repair(net: Network, strategy: str | None) -> tuple[Network, str]:
    """Either confirm the network is acyclic or apply the chosen repair."""
    if is_acyclic(net):
        return net, "none"
    if strategy is None:
        raise _Fail(EXIT_CYCLIC,
                    "input network is cyclic; rerun with --repair shrink "
                    "or --repair preprint")
    net = remove_loops(net)
    if strategy == "shrink":
        return shrink_components(net), "shrink"
    return preprint_transform(net), "preprint"


def _resolve_mode(mode: str | None, m: int) -> str:
    if mode is not None:
        return mode
    return "log" if m > LARGE_M else "float"


def _compute(net: Network, method: str, mode: str, alpha: float | None):
    """Run one weighting method; returns (standardized | None, result)."""
    if alpha is not None and method != "spnp":
        raise _Fail(EXIT_USAGE, "--alpha applies to --method spnp only")
    if method == "nppc":
        return None, nppc(net)
    if method == "sum":
        return None, sum_weights(net)
    std = standardize(net)
    try:
        if alpha is not None:
            return std, aged_path_counts(std, alpha)
        fn = {"spc": spc, "splc": splc, "spnp": spnp}[method]
        return std, fn(std, mode)
    except WeightOverflowError as exc:
        raise _Fail(EXIT_OVERFLOW, str(exc)) from exc


def _original_arc_values(net: Network, std, result) -> list:
    """Per-arc weights aligned with `net`, whichever network the method ran
    on (standardized networks keep the original arcs first, in order)."""
    vals = list(result.arc)
    return vals[:net.m] if std is not None else vals


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _finish(args, input_raw: bytes, params: dict, files: dict[str, str],
            stdout_text: str) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    for name, text in files.items():
        with open(outdir / name, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
        records.append({"path": name,
                        "sha256": hashlib.sha256(text.encode()).hexdigest()})
    manifest = {
        "command": args.command,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input": {"path": args.input,
                  "sha256": hashlib.sha256(input_raw).hexdigest()},
        "outputs": records,
        "parameters": {k: _jsonable(v) for k, v in sorted(params.items())},
        "versions": {"citeflow": __version__,
                     "numpy": np.__version__,
                     "python": "%d.%d.%d" % sys.version_info[:3]},
    }
    with open(outdir / "manifest.json", "w", newline="\n",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if stdout_text:
        print(stdout_text, flush=True)
    return EXIT_OK


# --- commands ---

def _cmd_stats(args) -> int:
    raw, net = _load(args.input)
    return _finish(args, raw, {}, {}, format_stats(network_stats(net)))


def _cmd_repair(args) -> int:
    raw, net = _load(args.input)
    part = strong_components(net)
    loopless = remove_loops(net)
    if args.strategy == "shrink":
        fixed = shrink_components(loopless, strong_components(loopless))
    else:
        fixed = preprint_transform(loopless)
    nontrivial = sum(1 for size in part.sizes() if size > 1)
    lines = [f"strategy            {args.strategy}",
             f"vertices            {net.n} -> {fixed.n}",
             f"arcs                {net.m} -> {fixed.m}",
             f"loops removed       {net.m - loopless.m}",
             f"components (>1)     {nontrivial}",
             f"acyclic             {is_acyclic(fixed)}"]
    files = {"acyclic.net": write_pajek(fixed),
             "components.clu": write_partition(part.class_of)}
    return _finish(args, raw, {"strategy": args.strategy}, files,
                   "\n".join(lines))


def _weight_params(args, mode: str) -> dict:
    return {"method": args.method, "mode": mode, "alpha": args.alpha,
            "repair": args.repair, "normalize": args.normalize,
            "log": args.log}


def _weighted(args):
    """Front half shared by every weight-driven command: parse, simplify,
    repair or reject cycles, compute, then normalize / take logs."""
    raw, net = _load(args.input)
    net = simplify(net)
    net, repaired = _acyclic_or_repair(net, args.repair)
    std, result = _compute(net, args.method, _resolve_mode(args.mode, net.m),
                           args.alpha)
    mode = result.arc.mode  # what ran: nppc and sum exact, aging in floats
    try:
        if args.normalize:
            result = normalize(result)
        if args.log:
            result = log_transform(result)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc
    return raw, net, std, result, mode, repaired


def _cmd_weights(args) -> int:
    raw, net, std, result, mode, repaired = _weighted(args)
    arc_vals = _original_arc_values(net, std, result)
    files = {f"{args.method}.net": write_pajek(net, arc_vals)}
    if result.vertex is not None:
        files[f"{args.method}.vec"] = write_vector(
            list(result.vertex)[:net.n])

    summary = [f"method       {result.method}",
               f"mode         {mode}",
               f"vertices     {net.n}",
               f"arcs         {net.m}",
               f"repair       {repaired}"]
    if result.alpha is not None:
        summary.append(f"alpha        {format_number(result.alpha)}")
    if result.total_flow is not None:
        summary.append(f"totalFlow    {format_number(result.total_flow)}")
    summary.append(f"normalized   {'yes' if result.normalized else 'no'}")
    if net.m:
        summary.append("arc weights  min %s  median %s  max %s" % (
            format_number(min(arc_vals)),
            format_number(statistics.median(arc_vals)),
            format_number(max(arc_vals))))
    if args.log:
        summary.append(f"floored      {len(result.floored)} zero-weight arcs")
    params = _weight_params(args, mode)

    if args.jsonl:
        lines = [json.dumps({
            "record": "summary", "method": result.method, "mode": mode,
            "alpha": result.alpha, "normalized": result.normalized,
            "total_flow": _jsonable(result.total_flow),
            "vertices": net.n, "arcs": net.m}, sort_keys=True)]
        for i, value in enumerate(arc_vals):
            lines.append(json.dumps(
                {"record": "arc", "index": i, "tail": int(net.tails[i]),
                 "head": int(net.heads[i]), "weight": _jsonable(value)},
                sort_keys=True))
        if result.vertex is not None:
            for v, value in enumerate(list(result.vertex)[:net.n], start=1):
                lines.append(json.dumps(
                    {"record": "vertex", "id": v,
                     "weight": _jsonable(value)}, sort_keys=True))
        files[f"{args.method}.jsonl"] = "\n".join(lines) + "\n"

    return _finish(args, raw, params, files, "\n".join(summary))


def _path_common(args):
    raw, net, std, result, mode, repaired = _weighted(args)
    if std is None:
        std = standardize(net)
    return raw, net, std, result, mode, repaired


def _cmd_mainpath(args) -> int:
    raw, net, std, result, mode, repaired = _path_common(args)
    sub = main_path(std, result.arc, single=args.single)
    files = {"mainpath.net": write_subnetwork(
        sub, result.arc if len(result.arc) == std.base.m else None)}
    params = _weight_params(args, mode)
    params["single"] = args.single
    text = (f"main path: {len(sub.vertices)} vertices, "
            f"{len(sub.arcs)} arcs (method {result.method})")
    return _finish(args, raw, params, files, text)


def _cmd_cpm(args) -> int:
    raw, net, std, result, mode, repaired = _path_common(args)
    sub = cpm_path(std, result.arc)
    files = {"cpm.net": write_subnetwork(
        sub, result.arc if len(result.arc) == std.base.m else None)}
    text = (f"critical path: {len(sub.vertices)} vertices, "
            f"{len(sub.arcs)} arcs (method {result.method})")
    return _finish(args, raw, _weight_params(args, mode), files, text)


def _cmd_cut(args) -> int:
    raw, net, std, result, mode, repaired = _weighted(args)
    vals = _original_arc_values(net, std, result)
    sub = arc_cut(net, vals, args.threshold)
    files = {"cut.net": write_subnetwork(sub, vals)}
    sizes = sorted((len(c) for c in sub.components), reverse=True)
    text = (f"cut at {format_number(args.threshold)}: {len(sub.vertices)} "
            f"vertices, {len(sub.arcs)} arcs, {len(sizes)} weak components"
            + (f" (largest {sizes[0]})" if sizes else ""))
    params = _weight_params(args, mode)
    params["threshold"] = args.threshold
    return _finish(args, raw, params, files, text)


def _cmd_islands(args) -> int:
    raw, net, std, result, mode, repaired = _weighted(args)
    vals = _original_arc_values(net, std, result)
    try:
        found = islands(net, vals, min_size=args.k,
                        max_size=args.K if args.K is not None else net.n)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc

    rows = [[str(i), str(isl.size), format_number(isl.internal_min),
             "-" if isl.external_max is None
             else format_number(isl.external_max)]
            for i, isl in enumerate(found.islands, start=1)]
    table = _table(["island", "size", "min inside", "max outside"], rows)

    freq = found.size_frequencies()
    csv_lines = ["size,count"]
    for size in range(1, found.max_size + 1):
        csv_lines.append(f"{size},{freq.get(size, 0)}")
    files = {"islands.clu": write_partition(found.membership(net.n)),
             "island_sizes.csv": "\n".join(csv_lines) + "\n"}
    params = _weight_params(args, mode)
    params.update(k=found.min_size, K=found.max_size)
    text = f"{len(found.islands)} islands\n{table}" if rows else "no islands"
    return _finish(args, raw, params, files, text)


def _cmd_hits(args) -> int:
    raw, net = _load(args.input)
    try:
        scores = hits(net)
    except ValueError as exc:
        raise _Fail(EXIT_USAGE, str(exc)) from exc
    count = max(0, min(args.top, net.n))
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
    return _finish(args, raw, {"top": args.top}, files, f"{table}\n{note}")


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "stats": _cmd_stats, "repair": _cmd_repair, "weights": _cmd_weights,
        "mainpath": _cmd_mainpath, "cpm": _cmd_cpm, "cut": _cmd_cut,
        "islands": _cmd_islands, "hits": _cmd_hits}[args.command]
    try:
        return handler(args)
    except _Fail as fail:
        print(f"citeflow: error: {fail}", file=sys.stderr)
        return fail.code
    except BrokenPipeError:  # devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
