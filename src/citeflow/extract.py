"""Substructure extraction: main paths, critical paths, arc cuts, islands.

All extractors consume a weight vector and return vertex/arc index sets, so
any weighting method can drive them.  Weights tie by one rule per mode
(`_tied`): exactly in exact mode, within a relative 1e-12 in float mode and,
in log mode, within 1e-12 times the larger of 1 and the logs' magnitude: an
absolute gap of 1e-12 between logs is a relative 1e-12 between the linear
values, but a log near 800 carries about 1e-13 of rounding per operation,
and a path total sums a thousand of them on a deep network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acyclic import StandardizedNetwork, _sweep
from .network import _CHUNK, ArcWeights, Network, _forest, _unique
from .pajek import write_pajek
from .weights import WeightOverflowError

_TIE = 1e-12


def _tied(a, b, mode: str):
    """a == b, or for floats |a - b| <= _TIE * max(|a|, |b|) and for logs
    |a - b| <= _TIE * max(1, |a|, |b|), where an infinity ties only with
    itself (so ln 0 ties with ln 0 as 0 does with 0, and with nothing
    else); elementwise when `a` or `b` is an array."""
    if mode == "exact":
        return a == b
    with np.errstate(invalid="ignore"):  # inf - inf: equal, caught by ==
        gap = abs(a - b)
    floor = _TIE if mode == "log" else 0.0
    return (a == b) | (gap < np.inf) & (  # an infinity ties only itself
        (gap <= floor) | (gap <= _TIE * abs(a)) | (gap <= _TIE * abs(b)))


@dataclass(frozen=True)
class Subnetwork:
    """A vertex/arc selection inside a parent network.

    `arcs` holds parent arc indices (ascending).  For arc cuts the weak
    components of the selection are reported so callers can keep only the
    main chunk.
    """

    parent: Network
    vertices: frozenset[int]
    arcs: tuple[int, ...]
    kind: str  # "main_path" | "cpm_path" | "arc_cut" | "island"
    components: tuple[frozenset[int], ...] = ()

    def to_network(self) -> Network:
        """Materialize with dense 1-based ids (original labels kept)."""
        p, arcs = self.parent, np.array(self.arcs, dtype=np.int64)
        verts = np.array(sorted(self.vertices), dtype=np.int64)
        return Network.from_arrays(
            len(verts), np.searchsorted(verts, p.tails[arcs]) + 1,
            np.searchsorted(verts, p.heads[arcs]) + 1, p.weights[arcs],
            [p.labels[v - 1] for v in verts.tolist()])


def write_subnetwork(sub: Subnetwork, weights: ArcWeights | None = None) -> str:
    """Pajek text for a subnetwork; `weights` (indexed by the parent's arcs,
    and possibly longer) overrides the written arc weight column, each value
    written as given: exact integers keep every digit."""
    if weights is not None:
        vals = (weights if isinstance(weights, np.ndarray)
                else _values(weights)[0])  # a list stays Python numbers
        weights = vals[list(sub.arcs)]
    return write_pajek(sub.to_network(), weights)


def _aligned(std: StandardizedNetwork, w: ArcWeights):
    """Weight array stretched to the standardized arc list, and the mode.

    Flow-method vectors already line up and come back as they are.  Vectors
    computed on the original network (closure methods) get weight 0 on the
    auxiliary s/t arcs and the feedback arc, which keeps the traversals
    well-defined.
    """
    vals, m = w.values, std.feedback_arc + 1
    if len(w) == m:
        return vals, w.mode
    if len(w) == std.net.m:
        pad = np.zeros(m - std.net.m, dtype=vals.dtype)
        return np.concatenate([vals, pad]), w.mode
    raise ValueError("weight vector matches neither the standardized nor "
                     "the original arc count")


# --- main path ---

def main_path(std: StandardizedNetwork, w: ArcWeights,
              single: bool = False) -> Subnetwork:
    """Greedy forward closure along locally heaviest arcs.

    Starting at the source, every reached vertex contributes its maximum
    weight out-arcs (all of them when tied), so the result can branch; with
    `single` ties break toward the smallest head id and exactly one chain
    comes back.  The source, sink and their auxiliary arcs are stripped from
    the report.  One pass over the (s, u) arcs and the input's adjacency
    index picks every vertex's heaviest out-arcs, and one forward stage
    sweep marks the vertices that those arcs reach from s: O(m) array work.
    """
    vals, mode = _aligned(std, w)
    net, m, k = std.net, std.net.m, len(std.sources)
    # the (s, u) arcs by head, then the input's runs by (tail, head, arc)
    arcs = np.r_[np.arange(m, m + k), net._adjacency()[1]]
    tails, v = np.r_[np.full(k, std.s), net.tails[arcs[k:]]], vals[arcs]
    runs = np.flatnonzero(np.diff(tails, prepend=-1))  # one per tail
    best = np.repeat(np.maximum.reduceat(v, runs),  # per arc
                     np.diff(runs, append=len(arcs)))
    tied = np.flatnonzero(_tied(v, best, mode))
    if single:  # a run's first tie has the smallest (head, arc)
        tied = tied[np.diff(tails[tied], prepend=-1) != 0]
    chosen = np.zeros(len(vals), dtype=bool)
    chosen[arcs[tied]] = True
    seen = np.zeros(net.n + 1, dtype=bool)
    seen[std.sources[chosen[m:m + k]]] = True
    _sweep(seen, net, False, np.logical_or, np.logical_and, chosen)
    keep = np.flatnonzero(chosen[:m] & seen[net.tails])
    verts = frozenset(np.flatnonzero(seen).tolist())
    return Subnetwork(net, verts, tuple(keep.tolist()), "main_path")


# --- critical path ---

def cpm_path(std: StandardizedNetwork, w: ArcWeights) -> Subnetwork:
    """Arcs and vertices lying on maximum-total-weight source-sink paths.

    Classic two-sweep longest-path dynamic program over the input's
    topological stages, seeded over the (s, u) arcs (the (u, t) arcs
    backwards) and closed with one reduction over the arcs into t (out of
    s); every optimal path is reported when totals tie (`_tied`).  A path's
    total is the sum of its linear weights in every mode: log weights add
    with logaddexp, from ln 0 = -inf.  Float totals beyond the double range
    would all tie at inf, so float mode then raises WeightOverflowError, as
    float counts do.
    """
    vals, mode = _aligned(std, w)
    times = np.logaddexp if mode == "log" else np.add
    net, m, k = std.net, std.net.m, len(std.sources)
    out_s, into_t = (std.sources, vals[m:m + k]), (std.sinks, vals[m + k:-1])
    dist = []  # best total s -> v, then best total v -> t
    for (seeds, w_in), (links, w_out), start, end, backward in (
            (out_s, into_t, std.s, std.t, False),
            (into_t, out_s, std.t, std.s, True)):
        c = np.full(std.t + 1, -np.inf, dtype=vals.dtype)
        c[start] = -np.inf if mode == "log" else 0
        with np.errstate(over="ignore"):
            c[seeds] = times(c[start], w_in)
            _sweep(c, net, backward, np.maximum, times, vals)
            c[end] = np.maximum.reduce(times(c[links], w_out),
                                       initial=-np.inf)
        dist.append(c)
    fdist, gdist = dist
    optimum = fdist[std.t]
    if mode == "float" and optimum == np.inf:  # every inf total would tie
        raise WeightOverflowError(
            "path totals exceed the double range; rerun in mode='exact' "
            "or mode='log'")
    chosen = []
    for arcs in np.split(np.arange(m), range(_CHUNK, m, _CHUNK)):
        total = times(times(fdist[net.tails[arcs]], vals[arcs]),
                      gdist[net.heads[arcs]])
        chosen.append(arcs[_tied(total, optimum, mode)])
    keep = tuple(np.concatenate(chosen).tolist())
    on_path = _tied(times(fdist, gdist), optimum, mode)
    verts = frozenset((np.flatnonzero(on_path[1:]) + 1).tolist())
    return Subnetwork(net, verts - {std.s, std.t}, keep, "cpm_path")


# --- arc cut ---

def _values(w):
    """(values, mode) of ArcWeights; other sequences as Python numbers, which
    tie exactly."""
    return ((w.values, w.mode) if isinstance(w, ArcWeights)
            else (np.fromiter(w, object), "exact"))


def arc_cut(net: Network, w: ArcWeights, threshold) -> Subnetwork:
    """Keep arcs with weight >= threshold or tied with it (`_tied` in the
    weights' mode; plain sequences tie exactly), drop vertices the cut
    isolates."""
    if len(w) != net.m:
        raise ValueError("weight vector does not match arc count")
    vals, mode = _values(w)
    at = np.flatnonzero((vals >= threshold) | _tied(vals, threshold, mode))
    verts = _unique(np.r_[net.tails[at], net.heads[at]])
    roots = _forest(net.n, net.tails[at], net.heads[at])[1][verts]
    order = np.argsort(roots, kind="stable")  # by smallest member, then id
    bounds = np.flatnonzero(np.diff(roots[order])) + 1
    comps = tuple(frozenset(c.tolist())
                  for c in np.split(verts[order], bounds) if len(c))
    return Subnetwork(net, frozenset(verts.tolist()), tuple(at.tolist()),
                      "arc_cut", comps)


# --- islands ---

@dataclass(frozen=True)
class Island:
    """A locally heavy cluster: internally connected by arcs of weight >=
    internal_min while every arc to the outside is lighter and not tied.
    external_max is None when no outside arc touches the island at all."""

    vertices: frozenset[int]
    internal_min: object
    external_max: object

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class IslandSet:
    islands: tuple[Island, ...]
    min_size: int
    max_size: int

    def membership(self, n: int) -> list[int]:
        """Per-vertex island number (1-based, 0 = no island)."""
        out = [0] * n
        for num, isl in enumerate(self.islands, start=1):
            for v in isl.vertices:
                out[v - 1] = num
        return out

    def size_frequencies(self) -> dict[int, int]:
        freq: dict[int, int] = {}
        for isl in self.islands:
            freq[isl.size] = freq.get(isl.size, 0) + 1
        return freq


def islands(net: Network, w: ArcWeights, min_size: int = 2,
            max_size: int | None = None) -> IslandSet:
    """All maximal clusters with size in [min_size, max_size] that a weight
    threshold can isolate.

    One O(m log m) stable sort ranks the non-loop arcs by decreasing
    weight, O(m log n) Borůvka array passes (`_forest`) keep the at most n-1
    of them that Kruskal would, and Python replays only those to build the
    cluster hierarchy.  Consecutive sorted weights tied under `_tied` in
    the weights' mode (plain sequences tie exactly) form one group that
    merges at one level: its first arc's value in the decreasing scan.  A
    cluster freezes into an island at the last moment its size stays within
    max_size.  Loops are ignored; vertices never touched by an arc belong
    to no island.  NaN weights raise ValueError.
    """
    if len(w) != net.m:
        raise ValueError("weight vector does not match arc count")
    if max_size is None:
        max_size = net.n
    if min_size < 1 or max_size < min_size:
        raise ValueError("need 1 <= min_size <= max_size")

    vals, mode = _values(w)
    if np.any(vals != vals):
        raise ValueError("island weights must not be NaN")
    # an ascending stable sort of the reversed arcs, read backwards, ranks by
    # decreasing weight with equal weights in input order
    arcs = np.flatnonzero(net.tails != net.heads)[::-1]
    arcs = arcs[np.argsort(vals[arcs], kind="stable")]
    asc = vals[arcs]
    arcs = arcs[::-1]
    forest = _forest(net.n, net.tails[arcs], net.heads[arcs])[0]
    # a tied group's level is its first arc's value in the decreasing scan:
    # the value at the group's last ascending position
    last = np.flatnonzero(np.r_[~_tied(asc[1:], asc[:-1], mode), True])
    levels = list(asc[last[np.searchsorted(last, len(asc) - 1 - forest)]])

    # dendrogram: node v <= n is vertex v's leaf, forest arc j merges the
    # newest nodes of its ends' clusters into node n+1+j
    n = net.n
    level = [None] * (n + 1) + levels
    up = [None] * len(level)  # level of the merge above each node
    size = [1] * (n + 1)
    kids: list[tuple] = [()] * (n + 1)
    parent = list(range(n + 1))  # union-find: a root is the newest node

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, (t, h) in enumerate(zip(net.tails[arcs[forest]].tolist(),
                                   net.heads[arcs[forest]].tolist()), n + 1):
        a, b = find(t), find(h)  # differ: forest arcs join two clusters
        up[a] = up[b] = level[j]
        size.append(size[a] + size[b])
        kids.append((a, b))
        parent.append(j)
        parent[a] = parent[b] = j

    found: list[Island] = []
    stack = [x for x, p in enumerate(parent) if x == p]
    while stack:
        ni = stack.pop()
        if ni <= n or size[ni] < min_size:
            continue  # leaves and undersized clusters carry nothing below
        real = up[ni] is None or up[ni] < level[ni]
        if real and size[ni] <= max_size:
            members, below = [], [ni]
            while below:
                x = below.pop()
                if x <= n:
                    members.append(x)
                below.extend(kids[x])  # a leaf has none
            found.append(Island(frozenset(members), level[ni], up[ni]))
        else:
            stack.extend(kids[ni])

    found.sort(key=lambda isl: (-isl.internal_min, min(isl.vertices)))
    return IslandSet(tuple(found), min_size, max_size)

