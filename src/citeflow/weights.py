"""Traversal weights for standardized citation networks.

Five weighting methods plus helpers:

* spc  - counts of source-to-sink paths through each arc/vertex, computed in
         two linear sweeps over a topological stage order.
* splc - the same counting applied after linking the source to every vertex,
         so every vertex starts its own search paths.
* spnp - all-paths counting: the source and sink are linked to every vertex,
         which makes the arc weight the product of the path counts ending at
         the tail and starting at the head.
* nppc - products of ancestor and descendant set sizes (reachability
         closures), no standardization involved; sum adds the two sizes.
         Both count exactly, in O(n*m/64) word operations.

Each flow method runs in one of three numeric modes: "float" (fast, raises
on overflow to infinity), "exact" (arbitrary-precision integers), "log"
(natural logs of counts; the sane choice beyond roughly a million arcs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .acyclic import CycleError, StandardizedNetwork, _levels
from .network import ArcWeights, Mode, MODES, Network

_WORDS = 64  # most uint64 words per closure bitset: 4096 sources per block


class WeightOverflowError(OverflowError):
    """Float-mode counts left the double range; exact or log mode will work."""


@dataclass(frozen=True, eq=False)
class WeightResult:
    """Arc and vertex weights from one method run.

    `arc` is aligned with the arcs of the network the method ran on: the
    standardized network (feedback arc included) for spc/splc/spnp, the plain
    network for nppc/sum.  `vertex` follows the same vertex universe (s and t
    carry the total flow for the flow methods); sum has no vertex weights.
    `total_flow` is the feedback arc's weight - the number of counted paths -
    and is None for the closure methods.  In log mode every value, total flow
    included, is a natural logarithm.
    """

    method: str
    arc: ArcWeights
    vertex: object
    total_flow: object
    alpha: float | None = None
    normalized: bool = False
    floored: tuple[int, ...] = ()


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown numeric mode: {mode!r}")


# --- the counting engine ---

def _arc_groups(net: Network, level: np.ndarray, feedback: int, by_heads: bool):
    """Arc indices grouped by stage, sub-sorted by the grouped endpoint.

    Forward sweeps group arcs by the stage of their head (all arcs entering a
    vertex land in one group); backward sweeps group by tail.
    """
    m = net.m
    idx = np.flatnonzero(np.arange(m) != feedback)
    ends = net.heads if by_heads else net.tails
    key = level[ends[idx]]
    idx = idx[np.lexsort((ends[idx], key))]
    key = level[ends[idx]]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    bounds = np.r_[starts, len(idx)]
    return [idx[bounds[i]:bounds[i + 1]] for i in range(len(starts))]


def _counts_float(net, source, level, feedback, backward=False):
    tails, heads = (net.heads, net.tails) if backward else (net.tails, net.heads)
    counts = np.zeros(net.n + 1, dtype=np.float64)
    counts[source] = 1.0
    groups = _arc_groups(net, level, feedback, by_heads=not backward)
    if backward:
        groups = list(reversed(groups))
    with np.errstate(over="ignore", invalid="ignore"):
        for g in groups:
            np.add.at(counts, heads[g], counts[tails[g]])
    return counts

def _counts_log(net, source, level, feedback, backward=False):
    tails, heads = (net.heads, net.tails) if backward else (net.tails, net.heads)
    counts = np.full(net.n + 1, -np.inf, dtype=np.float64)
    counts[source] = 0.0
    groups = _arc_groups(net, level, feedback, by_heads=not backward)
    if backward:
        groups = list(reversed(groups))
    with np.errstate(over="ignore", invalid="ignore"):
        for g in groups:
            hs = heads[g]
            seg = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
            counts[hs[seg]] = np.logaddexp.reduceat(counts[tails[g]], seg)
    return counts

def _counts_exact(net, source, order, feedback, backward=False):
    tails = (net.heads if backward else net.tails).tolist()
    arcs_of = net.out_arcs if backward else net.in_arcs
    counts = [0] * (net.n + 1)
    counts[source] = 1
    seq = order.tolist()
    if backward:
        seq = reversed(seq)
    for v in seq:
        if v == source:
            continue
        acc = 0
        for ai in arcs_of(v).tolist():  # in-arcs of v in walking direction
            if ai == feedback:
                continue
            acc += counts[tails[ai]]
        counts[v] = acc
    return counts


def _flow_counts(net: Network, s: int, t: int, feedback: int, mode: Mode):
    """Run the two sweeps; returns (arc values, vertex values, total flow)."""
    level, order, ok, witness = _levels(net, skip_arc=feedback)
    if not ok:
        raise CycleError(witness)
    tails, heads = net.tails, net.heads
    if mode == "exact":
        fwd = _counts_exact(net, s, order, feedback, backward=False)
        bwd = _counts_exact(net, t, order, feedback, backward=True)
        tl, hl = tails.tolist(), heads.tolist()
        arc = [fwd[tl[i]] * bwd[hl[i]] for i in range(net.m)]
        arc[feedback] = fwd[t]
        vertex = tuple(fwd[v] * bwd[v] for v in range(1, net.n + 1))
        return tuple(arc), vertex, fwd[t]
    if mode == "log":
        fwd = _counts_log(net, s, level, feedback)
        bwd = _counts_log(net, t, level, feedback, backward=True)
        with np.errstate(invalid="ignore"):
            arc = fwd[tails] + bwd[heads]
            vertex = fwd[1:] + bwd[1:]
        arc[feedback] = fwd[t]
        return arc, vertex, float(fwd[t])
    fwd = _counts_float(net, s, level, feedback)
    bwd = _counts_float(net, t, level, feedback, backward=True)
    with np.errstate(over="ignore", invalid="ignore"):
        arc = fwd[tails] * bwd[heads]
        vertex = fwd[1:] * bwd[1:]
    arc[feedback] = fwd[t]
    if not (np.all(np.isfinite(arc)) and np.all(np.isfinite(vertex))):
        raise WeightOverflowError(
            "path counts exceed the double range; rerun in mode='exact' "
            "or mode='log'")
    return arc, vertex, float(fwd[t])


def _wrap(method, arc, vertex, total, mode, alpha=None) -> WeightResult:
    return WeightResult(method, ArcWeights(arc, mode), vertex, total, alpha)


# --- flow methods ---

def spc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Source-to-sink path counts through every arc and vertex.

    The feedback arc carries the total flow: the number of distinct paths
    from s to t, which every minimal arc cut's weights sum to.
    """
    _check_mode(mode)
    arc, vertex, total = _flow_counts(std.base, std.s, std.t,
                                      std.feedback_arc, mode)
    return _wrap("SPC", arc, vertex, total, mode)


def splc(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """Path counts where every vertex also starts its own searches.

    Internally the source is linked to each vertex that is not already a
    minimal one and the counting runs on that extension; weights are reported
    for the standardized arcs only.
    """
    _check_mode(mode)
    base = std.base
    mins = set(base.successors(std.s).tolist())
    extra = [u for u in range(1, std.original_n + 1) if u not in mins]
    ext = _extend(base, [(std.s, u) for u in extra])
    arc, vertex, total = _flow_counts(ext, std.s, std.t, std.feedback_arc, mode)
    return _wrap("SPLC", arc[:base.m], vertex, total, mode)


def spnp(std: StandardizedNetwork, mode: Mode = "float") -> WeightResult:
    """All-paths counting: source and sink linked to every vertex.

    The weight of an original arc (u, v) equals (paths ending at u) times
    (paths starting at v), trivial paths included; the total flow is the
    number of paths in the whole original network.
    """
    _check_mode(mode)
    base = std.base
    mins = set(base.successors(std.s).tolist())
    maxs = set(base.predecessors(std.t).tolist())
    extra = [(std.s, u) for u in range(1, std.original_n + 1) if u not in mins]
    extra += [(u, std.t) for u in range(1, std.original_n + 1) if u not in maxs]
    ext = _extend(base, extra)
    arc, vertex, total = _flow_counts(ext, std.s, std.t, std.feedback_arc, mode)
    return _wrap("SPNP", arc[:base.m], vertex, total, mode)


def _extend(base: Network, extra_arcs: list[tuple[int, int]]) -> Network:
    if not extra_arcs:
        return base
    et = np.array([a for a, _ in extra_arcs], dtype=np.int64)
    eh = np.array([b for _, b in extra_arcs], dtype=np.int64)
    return Network.from_arrays(
        base.n,
        np.concatenate([base.tails, et]),
        np.concatenate([base.heads, eh]),
        np.concatenate([base.weights, np.ones(len(et), dtype=np.float64)]),
        base.labels)


# --- closure methods ---

def _closure_counts(net: Network, level: np.ndarray,
                    backward: bool) -> np.ndarray:
    """Size of the reachability closure of every vertex, itself included.

    Word-parallel over blocks of up to 64*_WORDS sources, one bit each, in
    (n+1)*_WORDS words: stage by stage, every vertex ORs in the bitsets of its
    far endpoints.  Descendants sweep the stages of the tails from high to
    low, ancestors (`backward`) those of the heads from low to high.
    """
    n = net.n
    near, far = (net.heads, net.tails) if backward else (net.tails, net.heads)
    groups = []
    for g in _arc_groups(net, level, -1, by_heads=backward):  # -1: skip none
        # slices of at most n+1 arcs keep each gather no larger than the
        # bitsets; a vertex split across two slices is ORed into twice
        for a in range(0, len(g), n + 1):
            ends = near[g[a:a + n + 1]]
            seg = np.flatnonzero(np.r_[True, ends[1:] != ends[:-1]])
            groups.append((ends[seg], far[g[a:a + n + 1]], seg))
    if not backward:
        groups.reverse()
    counts = np.zeros(n + 1, dtype=np.int64)
    for first in range(1, n + 1, 64 * _WORDS):
        src = np.arange(first, min(first + 64 * _WORDS, n + 1))
        bits = np.zeros((n + 1, -(-len(src) // 64)), dtype=np.uint64)
        bit = src - first
        bits[src, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
        for ends, fars, seg in groups:
            bits[ends] |= np.bitwise_or.reduceat(bits[fars], seg, axis=0)
        counts += np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    return counts


def _closures(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(ancestor, descendant) closure sizes indexed 0..n; rejects cycles."""
    level, _, ok, witness = _levels(net)
    if not ok:
        raise CycleError(witness)
    return (_closure_counts(net, level, backward=True),
            _closure_counts(net, level, backward=False))


def nppc(net: Network) -> WeightResult:
    """Ancestor-count times descendant-count, per arc and per vertex.

    Runs on the plain acyclic network (no standardization); counts include
    the vertex itself, so every weight is at least 1 and the arc weights are
    bounded by n*n/4.
    """
    anc, desc = _closures(net)
    arc = (anc[net.tails] * desc[net.heads]).tolist()
    vertex = tuple((anc[1:] * desc[1:]).tolist())
    return WeightResult("NPPC", ArcWeights(arc, "exact"), vertex, None)


def sum_weights(net: Network, normalized: bool = False) -> WeightResult:
    """Ancestor-count plus descendant-count per arc (a cheap additive variant).

    Raw values are integers bounded by n; with `normalized` they are divided
    by n so everything lands in (0, 1].  No vertex weights are defined.
    """
    anc, desc = _closures(net)
    raw = anc[net.tails] + desc[net.heads]
    if normalized:
        values = ArcWeights(raw / net.n, "float")
        return WeightResult("SUM", values, None, None, normalized=True)
    return WeightResult("SUM", ArcWeights(raw.tolist(), "exact"), None, None)


# --- path polynomials and aged counts ---

@dataclass(frozen=True)
class PathPolynomials:
    """Path-length tallies per vertex of a standardized network.

    p_minus[v-1][k] counts the paths of exactly k arcs that end at v and stay
    inside the original network; p_plus counts paths starting at v.  The
    source (for p_minus) and sink (for p_plus) hold the zero polynomial ().
    Coefficients are exact integers.
    """

    p_minus: tuple[tuple[int, ...], ...]
    p_plus: tuple[tuple[int, ...], ...]

    def l_minus(self) -> tuple[int, ...]:
        """Total number of paths ending at each vertex (coefficient sums)."""
        return tuple(sum(p) for p in self.p_minus)

    def l_plus(self) -> tuple[int, ...]:
        return tuple(sum(p) for p in self.p_plus)


def path_polynomials(std: StandardizedNetwork) -> PathPolynomials:
    base, fb = std.base, std.feedback_arc
    level, order, ok, witness = _levels(base, skip_arc=fb)
    if not ok:
        raise CycleError(witness)
    pm = _polys(base, order, fb, source=std.s, backward=False)
    pp = _polys(base, order, fb, source=std.t, backward=True)
    return PathPolynomials(pm, pp)


def _polys(base, order, feedback, source, backward):
    ends = (base.heads if backward else base.tails).tolist()
    arcs_of = base.out_arcs if backward else base.in_arcs
    polys: list[list[int]] = [[] for _ in range(base.n + 1)]
    seq = order.tolist()
    if backward:
        seq = reversed(seq)
    for v in seq:
        if v == source:
            continue  # zero polynomial: no path ends on the far side of it
        acc: list[int] = []
        for ai in arcs_of(v).tolist():
            if ai == feedback:
                continue
            p = polys[ends[ai]]
            if len(acc) < len(p):
                acc.extend([0] * (len(p) - len(acc)))
            for k, c in enumerate(p):
                acc[k] += c
        polys[v] = [1] + acc
    return tuple(tuple(p) for p in polys[1:])


def aged_path_counts(std: StandardizedNetwork, alpha: float) -> WeightResult:
    """All-paths weights with longer paths damped by alpha per arc.

    Replaces each path tally with sum(alpha^length); alpha = 1 reproduces
    spnp exactly, alpha near 0 leaves every count at 1.  Float mode only.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    base, fb, s, t = std.base, std.feedback_arc, std.s, std.t
    level, order, ok, witness = _levels(base, skip_arc=fb)
    if not ok:
        raise CycleError(witness)
    tl, hl = base.tails.tolist(), base.heads.tolist()
    lm = [0.0] * (base.n + 1)
    lp = [0.0] * (base.n + 1)
    seq = order.tolist()
    for v in seq:
        if v in (s, t):
            continue
        acc = 0.0
        for ai in base.in_arcs(v).tolist():
            if ai != fb and tl[ai] != s:
                acc += lm[tl[ai]]
        lm[v] = 1.0 + alpha * acc
    for v in reversed(seq):
        if v in (s, t):
            continue
        acc = 0.0
        for ai in base.out_arcs(v).tolist():
            if ai != fb and hl[ai] != t:
                acc += lp[hl[ai]]
        lp[v] = 1.0 + alpha * acc
    total = 0.0
    for u in range(1, std.original_n + 1):
        total += lm[u]
    arc = np.empty(base.m, dtype=np.float64)
    for i in range(base.m):
        if i == fb:
            arc[i] = total
        elif tl[i] == s:
            arc[i] = lp[hl[i]]
        elif hl[i] == t:
            arc[i] = lm[tl[i]]
        else:
            arc[i] = lm[tl[i]] * lp[hl[i]]
    vertex = np.array([lm[v] * lp[v] for v in range(1, base.n + 1)])
    vertex[s - 1] = total
    vertex[t - 1] = total
    return _wrap("SPNP", arc, vertex, total, "float", alpha=alpha)


# --- post-processing ---

def normalize(result: WeightResult) -> WeightResult:
    """Divide arc and vertex weights by the total flow.

    Only flow-style results (those carrying a total) can be normalized; the
    normalized arc weights lie in [0, 1] and any minimal arc cut sums to 1.
    Exact mode yields Fractions, log mode subtracts the log total.
    """
    total = result.total_flow
    if total is None:
        raise ValueError(f"{result.method} weights carry no total flow")
    mode = result.arc.mode
    if mode == "log":
        if not math.isfinite(total):
            raise ValueError("total flow is zero; nothing to normalize")
        arc = result.arc.values - total
        vertex = result.vertex - total
    elif mode == "exact":
        if total <= 0:
            raise ValueError("total flow is zero; nothing to normalize")
        arc = tuple(Fraction(v) / total for v in result.arc)
        vertex = tuple(Fraction(v) / total for v in result.vertex)
    else:
        if total <= 0:
            raise ValueError("total flow is zero; nothing to normalize")
        arc = result.arc.values / total
        vertex = result.vertex / total
    return replace(result, arc=ArcWeights(arc, mode), vertex=vertex,
                   normalized=True)


def log_transform(result: WeightResult) -> WeightResult:
    """Natural log of every weight, for display-friendly ranges.

    Weight order is preserved.  Zero arc weights are mapped one unit below
    the smallest positive log and their indices recorded in `floored`.
    Log-mode results are already logarithms and pass through unchanged.
    """
    if result.arc.mode == "log":
        return result
    vals = [float(v) for v in result.arc]
    if any(v < 0 for v in vals):
        raise ValueError("negative weights have no logarithm")
    pos = [v for v in vals if v > 0]
    floor = math.log(min(pos)) - 1.0 if pos else -1.0
    floored = tuple(i for i, v in enumerate(vals) if v == 0)
    arc = np.array([math.log(v) if v > 0 else floor for v in vals])
    vertex = result.vertex
    if vertex is not None:
        vv = [float(v) for v in vertex]
        vertex = np.array([math.log(v) if v > 0 else floor for v in vv])
    return replace(result, arc=ArcWeights(arc, "log"), vertex=vertex,
                   floored=floored)
