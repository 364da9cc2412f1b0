"""Span tracing from outside the program.

`Tracer.install` swaps public citeflow names for wrappers that record a span
around each call, and `Tracer.remove` puts the originals back.  A span is
[name, start, end, parent index, run id]; spans stay in memory until the
caller writes them out.  A span's name is the per-layer metric its self
time counts toward: its duration minus the part its child spans cover.
"""

from __future__ import annotations

import time

import numpy as np

from gen import longest_levels

# public function name -> per-layer metric of its self time
LAYER_OF = {
    "parse_pajek": "pajek.parse_s",
    "write_pajek": "pajek.write_s",
    "write_vector": "pajek.write_s",
    "write_partition": "pajek.write_s",
    "simplify": "network.simplify_s",
    "is_acyclic": "acyclic.check_s",
    "strong_components": "acyclic.scc_s",
    "remove_loops": "acyclic.repair_s",
    "shrink_components": "acyclic.repair_s",
    "preprint_transform": "acyclic.repair_s",
    "standardize": "acyclic.standardize_s",
    "aged_path_counts": "weights.aged_s",
    "normalize": "weights.normalize_s",
    "log_transform": "weights.normalize_s",
    "nppc": "weights.closure_s",
    "sum_weights": "weights.closure_s",
    "main_path": "extract.main_path_s",
    "cpm_path": "extract.cpm_s",
    "arc_cut": "extract.cut_s",
    "islands": "extract.islands_s",
    "write_subnetwork": "extract.write_s",
    "hits": "rank.hits_s",
    "network_stats": "stats.network_stats_s",
}
FLOWS = ("spc", "splc", "spnp")  # self time goes to weights.flow_<mode>_s

TIME_METRICS = sorted(set(LAYER_OF.values()) | {
    "weights.flow_float_s", "weights.flow_log_s", "weights.flow_exact_s",
    "network.build_s", "cli.self_s"})
MAX_COUNTS = ("acyclic.depth", "acyclic.scc_nontrivial")
SUM_COUNTS = ("pajek.bytes_in", "pajek.bytes_out", "network.builds",
              "network.parallel_merged", "rank.hits_iterations")


def _depth(std) -> int:
    """H: arcs on the longest s-t path of a standardized network (the
    feedback arc, stored last, left out)."""
    base = std.base
    level = longest_levels(base.n + 1, base.tails[:-1], base.heads[:-1])
    return int(level[std.t])


def _counts(name: str, args, result) -> dict:
    """Counters recorded where the work happens.  Callables are evaluated
    after the traced run, outside its timing."""
    if name == "parse_pajek":
        return {"pajek.bytes_in": len(args[0])}
    if LAYER_OF.get(name) == "pajek.write_s":
        return {"pajek.bytes_out": len(result)}
    if name == "simplify":
        return {"network.parallel_merged": args[0].m - result.m}
    if name == "strong_components":
        return {"acyclic.scc_nontrivial":
                lambda: int((np.bincount(result.class_of) > 1).sum())}
    if name == "standardize":
        return {"acyclic.depth": lambda: _depth(result)}
    if name == "hits":
        return {"rank.hits_iterations": result.iterations}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, object]] = []
        self.run = 0  # id shared by the spans of one command or session
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        """`fn` recording a span per call; `name` may be a function of the
        call's arguments."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else None, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts.extend(_counts(fn.__name__, args, result).items())
            return result

        return traced

    def _swap(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules, network_cls) -> None:
        """Wrap the traced names each module imported from elsewhere in
        citeflow, plus the two Network constructors."""
        for mod in modules:
            for fname, fn in list(vars(mod).items()):
                if getattr(fn, "__module__", mod.__name__) == mod.__name__:
                    continue
                if fname in LAYER_OF:
                    self._swap(mod, fname, self.wrap(LAYER_OF[fname], fn))
                elif fname in FLOWS:
                    self._swap(mod, fname, self.wrap(_flow_name, fn))
        self._swap(network_cls, "__init__",
                   self.wrap("network.build_s", network_cls.__init__))
        from_arrays = network_cls.__dict__["from_arrays"].__func__
        self._swap(network_cls, "from_arrays",
                   classmethod(self.wrap("network.build_s", from_arrays)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Self time per layer metric, and the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {m: 0.0 for m in TIME_METRICS}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        out.update({c: 0 for c in MAX_COUNTS + SUM_COUNTS})
        out["network.builds"] = sum(1 for s in self.spans if s[0] == "network.build_s")
        for key, value in self.counts:
            value = value() if callable(value) else value
            out[key] = max(out[key], value) if key in MAX_COUNTS else out[key] + value
        return out


def _flow_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "float")
    return f"weights.flow_{mode}_s"
